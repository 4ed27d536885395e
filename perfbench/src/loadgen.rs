//! Open-loop arrival schedules and the generator's lateness accounting.

use membit_tensor::Rng;

/// Poisson arrival times (seconds from the phase start) at `rate` per
/// second over `[0, window_s)`, conditioned on the expected count: a
/// Poisson process given `n` arrivals in a window places them as `n`
/// sorted uniform draws. Fixing `n = round(rate · window)` keeps the
/// burstiness of Poisson arrivals while removing the run-to-run spread
/// of the offered load itself. The same `rng` state gives the same
/// schedule.
pub fn poisson_schedule(rate: f64, window_s: f64, rng: &mut Rng) -> Vec<f64> {
    let n = (rate * window_s).round() as usize;
    let mut out: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.uniform(0.0, 1.0)) * window_s)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// How late each send was against its schedule, in ms (never negative:
/// an early wake-up is clamped to on time).
pub fn lateness_ms(scheduled_s: &[f64], sent_s: &[f64]) -> Vec<f64> {
    scheduled_s
        .iter()
        .zip(sent_s)
        .map(|(s, a)| ((a - s) * 1e3).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::RngStream;

    fn rng(seed: u64) -> Rng {
        Rng::from_seed(seed).stream(RngStream::Custom(7))
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(30.0, 5.0, &mut rng(1));
        let b = poisson_schedule(30.0, 5.0, &mut rng(1));
        let c = poisson_schedule(30.0, 5.0, &mut rng(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
    }

    #[test]
    fn schedule_offers_the_nominal_count_with_exponential_gaps() {
        let a = poisson_schedule(40.0, 500.0, &mut rng(3));
        assert_eq!(a.len(), 20_000);
        // gaps of a Poisson process are exponential: mean = sd = 1/rate
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 40.0 - 1.0).abs() < 0.02, "mean gap {mean}");
        assert!(
            (var.sqrt() * 40.0 - 1.0).abs() < 0.05,
            "gap sd {}",
            var.sqrt()
        );
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let late = lateness_ms(&[0.0, 0.010, 0.020], &[0.0005, 0.009, 0.035]);
        assert_eq!(late.len(), 3);
        assert!((late[0] - 0.5).abs() < 1e-9);
        assert_eq!(late[1], 0.0);
        assert!((late[2] - 15.0).abs() < 1e-9);
    }
}
