//! Property-based tests for the encoding crate: round-trips, monotonicity
//! in the represented level, variance formulas, PLA error bounds, and
//! bitwise equivalence of the count-backed thermometer/PLA trains with
//! the per-value `encode_value` construction.

use membit_encoding::pla::{approximate_train, PlaThermometer};
use membit_encoding::{
    Amplitude, BitEncoder, BitSlicing, PulseTrain, Thermometer, TrainKind, MAX_UNARY_PULSES,
};
use membit_tensor::{Tensor, TensorError};
use proptest::prelude::*;

/// A pulse count: small, anywhere up to the largest storable count, or
/// just below it.
fn pulse_count(mode: u8, small: usize, any: usize) -> usize {
    match mode {
        0 => any,
        1 => MAX_UNARY_PULSES + 1 - small,
        _ => small,
    }
}

/// An activation value of kind `kind`: any finite f32 (from raw bits),
/// a signed zero, an exact level of `levels` (where PLA ties live), a
/// midpoint between two levels, or a value beyond `[-1, 1]`.
fn value(kind: u8, bits: u32, levels: usize) -> f32 {
    let k = bits as usize % levels;
    let l = (levels - 1) as f32;
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match kind {
        0 => {
            let v = f32::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                // an all-ones exponent (inf/NaN) loses its lowest bit
                f32::from_bits(bits & 0xff7f_ffff)
            }
        }
        1 => 0.0 * sign,
        2 => k as f32 / l * 2.0 - 1.0,
        3 => (k as f32 + 0.5) / l * 2.0 - 1.0,
        _ => sign * (1.0 + (bits >> 8) as f32 / 16_777_216.0 * 4.0),
    }
}

/// The per-value construction: one `encode_value` call per element,
/// scattered into one dense tensor per pulse, and the weighted
/// pulse-by-pulse decode.
fn reference<E: BitEncoder>(enc: &E, x: &Tensor) -> (Vec<Tensor>, Tensor) {
    let p = enc.num_pulses();
    let mut pulses = vec![Tensor::zeros(x.shape()); p];
    for (flat, &v) in x.as_slice().iter().enumerate() {
        for (i, &bit) in enc.encode_value(v).unwrap().iter().enumerate() {
            pulses[i].as_mut_slice()[flat] = bit;
        }
    }
    let mut acc = Tensor::zeros(x.shape());
    for (i, pulse) in pulses.iter().enumerate() {
        acc.axpy(enc.pulse_weight(i), pulse).unwrap();
    }
    let decoded = acc.mul_scalar(1.0 / enc.weight_norm());
    (pulses, decoded)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `train` is bitwise the per-value construction of `enc` on `x`.
fn assert_matches_reference<E: BitEncoder>(
    enc: &E,
    x: &Tensor,
    train: &PulseTrain,
) -> Result<(), TestCaseError> {
    let (pulses, decoded) = reference(enc, x);
    prop_assert_eq!(train.kind(), TrainKind::NestedUnary);
    prop_assert!(train.high_counts().is_some());
    prop_assert_eq!(train.num_pulses(), pulses.len());
    prop_assert_eq!(train.shape(), x.shape());
    prop_assert_eq!(bits(&train.decode().unwrap()), bits(&decoded));
    for (i, (got, want)) in train.pulses().iter().zip(&pulses).enumerate() {
        prop_assert!(bits(got) == bits(want), "pulse {} differs", i);
    }
    Ok(())
}

fn values(raw: &[(u8, u32)], levels: usize) -> Tensor {
    let data: Vec<f32> = raw.iter().map(|&(k, b)| value(k, b, levels)).collect();
    let n = data.len();
    Tensor::from_vec(data, &[n]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn thermometer_counts_match_per_value_encoding(
        mode in 0u8..3,
        small in 1usize..40,
        any in 1usize..=MAX_UNARY_PULSES,
        raw in prop::collection::vec((0u8..5, 0u32..=u32::MAX), 1..12),
    ) {
        let enc = Thermometer::new(pulse_count(mode, small, any)).unwrap();
        let x = values(&raw, enc.num_levels());
        let train = enc.encode_tensor(&x).unwrap();
        assert_matches_reference(&enc, &x, &train)?;
    }

    #[test]
    fn pla_counts_match_per_value_encoding(
        levels in 2usize..=12,
        mode in 0u8..3,
        small in 1usize..40,
        any in 1usize..=MAX_UNARY_PULSES,
        raw in prop::collection::vec((0u8..5, 0u32..=u32::MAX), 1..12),
    ) {
        let enc = PlaThermometer::new(levels, pulse_count(mode, small, any)).unwrap();
        let x = values(&raw, levels);
        let train = enc.encode_tensor(&x).unwrap();
        assert_matches_reference(&enc, &x, &train)?;
    }

    #[test]
    fn approximate_train_is_pla_of_the_decoded_train(
        base in 1usize..40,
        q in 1usize..64,
        raw in prop::collection::vec((0u8..5, 0u32..=u32::MAX), 1..12),
    ) {
        let t = Thermometer::new(base).unwrap().encode_tensor(&values(&raw, base + 1)).unwrap();
        let pla = PlaThermometer::new(base + 1, q).unwrap();
        let decoded = t.decode().unwrap();
        let approx = approximate_train(&t, q).unwrap();
        prop_assert_eq!(&approx, &pla.encode_tensor(&decoded).unwrap());
        assert_matches_reference(&pla, &decoded, &approx)?;
    }

    #[test]
    fn non_finite_values_are_rejected(
        levels in 2usize..=12,
        pulses in 1usize..40,
        at in 0usize..6,
        bad in prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
    ) {
        let mut data = vec![0.25f32; 6];
        data[at] = bad;
        let x = Tensor::from_vec(data, &[6]).unwrap();
        let therm = Thermometer::new(pulses).unwrap().encode_tensor(&x);
        let pla = PlaThermometer::new(levels, pulses).unwrap().encode_tensor(&x);
        prop_assert!(matches!(therm, Err(TensorError::InvalidArgument(_))), "{:?}", therm);
        prop_assert!(matches!(pla, Err(TensorError::InvalidArgument(_))), "{:?}", pla);
    }
}

#[test]
fn count_width_bounds_the_accepted_pulse_counts() {
    assert!(Thermometer::new(MAX_UNARY_PULSES).is_ok());
    assert!(Thermometer::new(MAX_UNARY_PULSES + 1).is_err());
    assert!(PlaThermometer::new(9, MAX_UNARY_PULSES).is_ok());
    assert!(PlaThermometer::new(9, MAX_UNARY_PULSES + 1).is_err());
    assert!(PlaThermometer::new(MAX_UNARY_PULSES + 1, 8).is_ok());
    assert!(PlaThermometer::new(MAX_UNARY_PULSES + 2, 8).is_err());
    // the longest storable code keeps every element's count exactly
    let x = Tensor::from_vec(vec![-1.0, 1.0, 0.0], &[3]).unwrap();
    let longest = Thermometer::new(MAX_UNARY_PULSES).unwrap();
    let train = longest.encode_tensor(&x).unwrap();
    let max = MAX_UNARY_PULSES as u16;
    assert_eq!(train.high_counts(), Some(&[0, max, max / 2 + 1][..]));
    // a dense nested train one pulse too long is refused, not truncated
    let long = vec![Tensor::ones(&[1]); MAX_UNARY_PULSES + 1];
    assert!(PulseTrain::nested_unary(long).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn thermometer_roundtrip_any_level(pulses in 1usize..32, level in 0usize..33) {
        let enc = Thermometer::new(pulses).unwrap();
        let level = level.min(pulses);
        let v = level as f32 / pulses as f32 * 2.0 - 1.0;
        let code = enc.encode_value(v).unwrap();
        let decoded = enc.decode(&code).unwrap();
        prop_assert!((decoded - v).abs() < 1e-5, "p={pulses} level={level}: {decoded} vs {v}");
    }

    #[test]
    fn thermometer_monotone_in_value(pulses in 2usize..24, a in -1.0f32..1.0, b in -1.0f32..1.0) {
        let enc = Thermometer::new(pulses).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(enc.high_count(lo) <= enc.high_count(hi));
    }

    #[test]
    fn bit_slicing_roundtrip_any_level(bits in 1usize..10, level in 0usize..1024) {
        let enc = BitSlicing::new(bits).unwrap();
        let level = level % enc.num_levels();
        let v = level as f32 / (enc.num_levels() - 1) as f32 * 2.0 - 1.0;
        let code = enc.encode_value(v).unwrap();
        prop_assert!((enc.decode(&code).unwrap() - v).abs() < 1e-4);
    }

    #[test]
    fn decode_is_bounded(bits in 1usize..8, v in -2.0f32..2.0) {
        // any encodable value decodes into [-1, 1]
        for enc in [&BitSlicing::new(bits).unwrap() as &dyn BitEncoder,
                    &Thermometer::new(bits + 1).unwrap()] {
            let code = enc.encode_value(v).unwrap();
            let d = enc.decode(&code).unwrap();
            prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(&d));
        }
    }

    #[test]
    fn noise_variance_positive_and_decreasing_for_thermometer(
        p in 1usize..60, sigma2 in 0.01f32..25.0
    ) {
        let a = Thermometer::new(p).unwrap().noise_variance(sigma2);
        let b = Thermometer::new(p + 1).unwrap().noise_variance(sigma2);
        prop_assert!(a > 0.0);
        prop_assert!(b < a);
        prop_assert!((a - sigma2 / p as f32).abs() < 1e-5);
    }

    #[test]
    fn thermometer_never_loses_to_bit_slicing(bits in 1usize..12, sigma2 in 0.1f32..10.0) {
        let bs = BitSlicing::new(bits).unwrap();
        let tc = Thermometer::new((1usize << bits) - 1).unwrap();
        prop_assert!(tc.noise_variance(sigma2) <= bs.noise_variance(sigma2) + 1e-7);
    }

    #[test]
    fn amplitude_decodes_to_nearest_level(levels in 2usize..64, v in -1.0f32..1.0) {
        let enc = Amplitude::new(levels).unwrap();
        let code = enc.encode_value(v).unwrap();
        let step = 2.0 / (levels - 1) as f32;
        prop_assert!((code[0] - v).abs() <= step / 2.0 + 1e-5);
    }

    #[test]
    fn pla_error_bounded_by_half_output_step(
        levels in 2usize..12, pulses in 1usize..40, k in 0usize..12
    ) {
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        let k = k % levels;
        let v = k as f32 / (levels - 1) as f32 * 2.0 - 1.0;
        let err = (pla.approximate(v) - v).abs();
        prop_assert!(err <= 1.0 / pulses as f32 + 1e-5, "levels={levels} q={pulses} v={v}: err {err}");
    }

    #[test]
    fn pla_bias_bounded_by_midpoint_error(levels in 3usize..11, pulses in 1usize..24) {
        // Sign-directed tie-breaking pairs ±v errors symmetrically, so the
        // only possible net bias comes from the v = 0 midpoint when an odd
        // pulse count cannot represent it (|error| ≤ 1/q). With an even
        // pulse count — the paper's entire search space — the snap is
        // exactly bias-free.
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        let bias: f32 = (0..levels)
            .map(|k| {
                let v = k as f32 / (levels - 1) as f32 * 2.0 - 1.0;
                pla.approximate(v) - v
            })
            .sum();
        prop_assert!(
            bias.abs() <= 1.0 / pulses as f32 + 1e-4,
            "levels={levels} q={pulses}: bias {bias}"
        );
        if pulses % 2 == 0 {
            prop_assert!(bias.abs() < 1e-4, "even q must be bias-free: {bias}");
        }
    }

    #[test]
    fn pla_saturations_always_exact(levels in 2usize..12, pulses in 1usize..40) {
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        prop_assert_eq!(pla.approximate(1.0), 1.0);
        prop_assert_eq!(pla.approximate(-1.0), -1.0);
    }

    #[test]
    fn encode_tensor_decode_roundtrip(pulses in 1usize..16, seed in 0u64..1000) {
        let mut rng = membit_tensor::Rng::from_seed(seed);
        let enc = Thermometer::new(pulses).unwrap();
        // values snapped to the representable grid
        let x = Tensor::from_fn(&[8], |_| {
            let k = rng.below(pulses + 1);
            k as f32 / pulses as f32 * 2.0 - 1.0
        });
        let train = enc.encode_tensor(&x).unwrap();
        prop_assert_eq!(train.num_pulses(), pulses);
        prop_assert!(train.decode().unwrap().allclose(&x, 1e-5));
    }

    #[test]
    fn pulse_weights_sum_matches_norm(bits in 1usize..16) {
        let enc = BitSlicing::new(bits).unwrap();
        let manual: f32 = (0..bits).map(|i| enc.pulse_weight(i)).sum();
        prop_assert_eq!(manual, enc.weight_norm());
        prop_assert_eq!(manual, ((1u64 << bits) - 1) as f32);
    }
}
