//! Order statistics and output digests shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail statistic: the highest percentile of a sample that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// Share of the sample at or below `value`, in percent.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `(n − 10)`-th smallest value. `None` when the sample has ten
/// values or fewer, because no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: sorted(xs)[k],
        percentile: (k + 1) as f64 / n as f64 * 100.0,
        n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Streaming 64-bit FNV-1a over the bit patterns of output values, so
/// any change in any output bit changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds every value's IEEE bit pattern in.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Folds integers in.
    pub fn u64s(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // order of the input does not matter
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some(t));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            t.value, 0.0,
            "with 11 samples only the minimum has 10 beyond"
        );
        assert_eq!(t.n, 11);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f32s(&[1.0, -0.0]);
        let mut b = Digest::default();
        b.f32s(&[1.0, 0.0]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.f32s(&[1.0, -0.0]);
        assert_eq!(a, c);
    }
}
