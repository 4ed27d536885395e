//! Differential testing of the engine's inner loops against the
//! reference oracle.
//!
//! The engine picks the inner loop itself: count-backed trains run the
//! incremental pulse-delta schedule, every other train the dense schedule,
//! where `packed_ready` tiles run the bit-packed popcount path and the rest
//! the cached-weight loop. `CrossbarLinear::reference_oracle` and
//! `Tile::mvm_reference` run the per-cell reference loop on the same
//! hardware and noise substreams. Four properties guard the fast paths:
//!
//! 1. **Oracle agreement** — on identical hardware, the engine and the
//!    oracle agree within 1e-5 across random tile geometries, encoders
//!    (thermometer, bit-sliced, PLA, amplitude) and noise models, with
//!    exactly equal event stats. Noise substreams are keyed by
//!    `(pulse, sample, row_tile, col_tile)`, so the comparison is
//!    noise-to-noise, not just mean-to-mean.
//! 2. **Popcount bitwise contract** — on rail-programmed devices with
//!    binary (±1/0) pulse trains on the dense schedule, the engine is
//!    *bitwise* identical to the oracle, including the RNG draw order of
//!    every noise stream (output noise and gated c2c draws).
//! 3. **No stale caches or planes** — after any random sequence of tile
//!    mutations (aging, polarity flips, spare-line replacement,
//!    escalated reprogramming, refresh, fault injection), the cached loop
//!    and the popcount path still agree bitwise with the reference loop,
//!    which reads raw conductances and cannot be stale. Every mutator
//!    must rebuild or patch the cache — and the packed planes riding on
//!    it — eagerly for this to hold.
//! 4. **Guard composition** — under checksum-guarded execution, the
//!    engine never masks a violation the oracle catches, even when faults
//!    are injected mid-sequence.

use membit_encoding::pla::PlaThermometer;
use membit_encoding::{Amplitude, BitEncoder, BitSlicing, PulseTrain, Thermometer};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, DeviceModel, ExecOptions, ExecutionStats, GuardPolicy,
    NoiseSpec, ProgramStats, Tile, WriteVerify, XbarConfig,
};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// Programs identical hardware (same seed) and executes it on the
/// engine, or on its reference oracle when `oracle` is set. Also
/// returns whether every tile passes the popcount verdicts.
fn run(
    w: &Tensor,
    train: &PulseTrain,
    mut cfg: XbarConfig,
    seed: u64,
    oracle: bool,
) -> (Vec<f32>, ExecutionStats, bool) {
    cfg.exec = ExecOptions::serial();
    let mut rng = Rng::from_seed(seed);
    let mut engine = CrossbarLinear::program(w, &cfg, &mut rng).unwrap();
    let packed_ready = engine.packed_ready();
    if oracle {
        engine = engine.reference_oracle();
    }
    let (y, stats) = engine.execute_with_stats(train, &mut rng).unwrap();
    (y.as_slice().to_vec(), stats, packed_ready)
}

/// The same pulses as `train` without its high counts, so the engine
/// runs them on the dense schedule.
fn dense(train: &PulseTrain) -> PulseTrain {
    PulseTrain::new(train.pulses().to_vec(), train.weights().to_vec()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_execution_matches_reference_within_tolerance(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        encoder in 0usize..4,
        noise_kind in 0usize..3,
        batch in 1usize..6,
    ) {
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = match encoder {
            0 => Thermometer::new(6).unwrap().encode_tensor(&x).unwrap(),
            1 => BitSlicing::new(3).unwrap().encode_tensor(&x).unwrap(),
            2 => PlaThermometer::new(9, 7).unwrap().encode_tensor(&x).unwrap(),
            // fractional single-pulse inputs: exercises the non-binary case
            _ => Amplitude::new(9).unwrap().encode_tensor(&x).unwrap(),
        };
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2), // ADC + variation + write-verify
        };
        cfg.noise.device.c2c_sigma = if noise_kind == 2 { 0.03 } else { 0.0 };
        cfg.noise.device.ir_drop_alpha = if noise_kind == 2 { 0.05 } else { 0.0 };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;

        let (y_ref, s_ref, _) = run(&w, &train, cfg, seed + 2000, true);
        let (y_fast, s_fast, _) = run(&w, &train, cfg, seed + 2000, false);
        prop_assert_eq!(s_fast, s_ref, "event stats must not depend on the inner loop");
        for (i, (a, b)) in y_fast.iter().zip(&y_ref).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                "element {}: engine {} vs reference {}", i, a, b
            );
        }
    }

    #[test]
    fn packed_execution_is_bitwise_reference_on_rails(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        encoder in 0usize..3,
        c2c in 0usize..2,
        batch in 1usize..6,
    ) {
        // rail-programmed hardware (ideal device, d2d = 0) + binary ±1/0
        // pulse trains: the popcount path must reproduce the reference
        // loop *bitwise*, RNG draw order included. Count-backed trains are
        // fed as plain pulses so they take the dense schedule, not the
        // delta schedule (which re-associates sums across row tiles).
        // Fractional inputs and heterogeneous devices are covered by the
        // tolerance test above.
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = dense(&match encoder {
            0 => Thermometer::new(6).unwrap().encode_tensor(&x).unwrap(),
            1 => BitSlicing::new(3).unwrap().encode_tensor(&x).unwrap(),
            _ => PlaThermometer::new(9, 7).unwrap().encode_tensor(&x).unwrap(),
        });
        let mut cfg = XbarConfig::functional(0.3);
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.noise.device.c2c_sigma = if c2c == 1 { 0.03 } else { 0.0 };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;

        let (y_packed, s_packed, ready) = run(&w, &train, cfg, seed + 7000, false);
        let (y_ref, s_ref, _) = run(&w, &train, cfg, seed + 7000, true);
        prop_assert!(ready, "rails tiles must pass the popcount verdicts");
        prop_assert_eq!(s_packed, s_ref);
        prop_assert_eq!(y_packed, y_ref, "packed must be bitwise reference on rails");
    }

    #[test]
    fn engine_never_masks_guard_violations(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        noise_kind in 0usize..3,
        batch in 1usize..5,
        faults in proptest::collection::vec((0usize..14, 0usize..10), 1..6),
    ) {
        // The incremental pulse-delta schedule must compose with guarded
        // execution: for any fault set injected mid-sequence (between a
        // clean execute and a faulty one), the engine must never mask a
        // checksum violation the reference oracle catches. Detection is
        // compared *binarily*, not count-for-count — the two differ by
        // ≤1e-5 in accumulation order, so a check sitting exactly on the
        // tolerance boundary may legitimately flip, but a fault big
        // enough to matter trips both.
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2),
        };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;
        // detection-only ladder: no mid-execution refresh/remap, so both
        // engines run the whole sequence on identical hardware
        cfg.guard = Some(GuardPolicy::detect_only());

        let run_guarded = |oracle: bool| {
            let mut cfg = cfg;
            cfg.exec = ExecOptions::serial();
            let mut rng = Rng::from_seed(seed + 6000);
            let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
            if oracle {
                engine = engine.reference_oracle();
            }
            let (_, clean) = engine.execute_guarded(&train, &mut rng).unwrap();
            for &(row, col) in &faults {
                engine
                    .inject_fault(row, col, CellSide::Pos, CellHealth::StuckOff)
                    .unwrap();
            }
            let (y, faulty) = engine.execute_guarded(&train, &mut rng).unwrap();
            (clean.guard, faulty.guard, y.as_slice().to_vec())
        };
        let (clean_c, faulty_c, y_c) = run_guarded(false);
        let (clean_r, faulty_r, y_r) = run_guarded(true);

        // before injection the array is exactly as programmed: at z = 6
        // a false positive is a ~1e-9 event, so both must be clean
        prop_assert_eq!(clean_c.violations, 0, "engine false-positive: {:?}", clean_c);
        prop_assert_eq!(clean_r.violations, 0, "reference oracle false-positive: {:?}", clean_r);
        // the one-sided no-masking property
        prop_assert!(
            !(faulty_r.violations > 0 && faulty_c.violations == 0),
            "engine masked a violation: engine {:?} vs reference {:?}",
            faulty_c, faulty_r
        );
        // when the fault set is benign under both the outputs are
        // ordinary guarded readouts and must agree like any other MVM
        if faulty_c.violations == 0 && faulty_r.violations == 0 {
            for (i, (a, b)) in y_c.iter().zip(&y_r).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "element {}: engine {} vs reference {}", i, a, b
                );
            }
        }
    }

    #[test]
    fn mutations_never_leave_a_stale_cache(
        seed in 0u64..400,
        rows in 3usize..10,
        cols in 3usize..10,
        ops in proptest::collection::vec(0usize..7, 1..10),
    ) {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.04;
        device.c2c_sigma = 0.02;
        device.ir_drop_alpha = 0.05;
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.02;
        device.stuck_off_rate = 0.02;
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 3000);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let mut stats = ProgramStats::default();

        // a ±1 probe: the cached loop (`mvm`) and the popcount-or-cached
        // batch path (`mvm_batch`) must agree bitwise with the reference
        // loop on it whenever the cache is fresh
        let x: Vec<f32> = (0..rows)
            .map(|i| if (i + seed as usize).is_multiple_of(2) { 1.0 } else { -1.0 })
            .collect();
        let noise = NoiseSpec::functional(0.2);
        let check = |tile: &Tile, op: usize| -> std::result::Result<(), TestCaseError> {
            let mut slow = vec![0.0f32; cols];
            let mut rng_b = Rng::from_seed(seed + 4000);
            tile.mvm_reference(&x, &noise, &mut rng_b, &mut slow).unwrap();
            // `mvm_batch` runs the cached loop on this lossy device, so
            // both fast entry points must track the raw-conductance loop
            // bitwise
            for batch in [false, true] {
                let mut fast = vec![0.0f32; cols];
                let mut rng_a = Rng::from_seed(seed + 4000);
                if batch {
                    tile.mvm_batch(&x, rows, 0, &noise, std::slice::from_mut(&mut rng_a), &mut fast)
                        .unwrap();
                } else {
                    tile.mvm(&x, &noise, &mut rng_a, &mut fast).unwrap();
                }
                prop_assert_eq!(
                    &fast, &slow,
                    "stale cache after op {} (batch = {})", op, batch
                );
            }
            Ok(())
        };
        check(&tile, 99)?; // fresh from programming
        for (k, &op) in ops.iter().enumerate() {
            match op {
                0 => tile.age(50.0 * (k + 1) as f32, 0.05, 0.01, &mut rng),
                1 => tile.flip_column(k % cols, &mut rng).unwrap(),
                2 => tile.replace_row(k % rows, &mut rng).unwrap(),
                3 => tile.replace_col(k % cols, &mut rng).unwrap(),
                4 => {
                    tile.reprogram_pair(k % rows, k % cols, &WriteVerify::standard(), &mut rng, &mut stats)
                        .map(|_| ())
                        .unwrap();
                }
                5 => tile.refresh(None, &mut rng, &mut stats),
                _ => {
                    let side = if k % 2 == 0 { CellSide::Pos } else { CellSide::Neg };
                    let health = match k % 3 {
                        0 => CellHealth::StuckOn,
                        1 => CellHealth::StuckOff,
                        _ => CellHealth::Healthy,
                    };
                    tile.inject_fault(k % rows, k % cols, side, health).unwrap();
                }
            }
            check(&tile, op)?;
        }
    }

    #[test]
    fn mutations_never_leave_stale_packed_planes(
        seed in 0u64..400,
        rows in 3usize..10,
        cols in 3usize..10,
        ops in proptest::collection::vec(0usize..6, 1..10),
    ) {
        // the rails counterpart of `mutations_never_leave_a_stale_cache`:
        // on a rail-programmed device the popcount path stays *engaged*
        // through polarity flips, spare-line swaps, reprogramming,
        // refresh, and fault injection (aging is deliberately excluded —
        // drift de-rails the tile and is covered by the lossy test), so
        // every mutator must rebuild the packed planes exactly where it
        // patches the weight cache. A stale sign/active word or scale
        // would break bitwise agreement with the raw-conductance loop.
        let mut device = DeviceModel::ideal();
        device.c2c_sigma = 0.02;
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.02;
        device.stuck_off_rate = 0.02;
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 8000);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let mut stats = ProgramStats::default();

        let x: Vec<f32> = (0..rows)
            .map(|i| match (i + seed as usize) % 3 {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0, // undriven rows: exercises the valid plane
            })
            .collect();
        let noise = NoiseSpec::functional(0.2);
        let check = |tile: &Tile, op: usize| -> std::result::Result<(), TestCaseError> {
            let mut fast = vec![0.0f32; cols];
            let mut slow = vec![0.0f32; cols];
            let mut rng_a = Rng::from_seed(seed + 9000);
            let mut rng_b = Rng::from_seed(seed + 9000);
            tile.mvm_batch(&x, rows, 0, &noise, std::slice::from_mut(&mut rng_a), &mut fast)
                .unwrap();
            tile.mvm_reference(&x, &noise, &mut rng_b, &mut slow).unwrap();
            prop_assert_eq!(fast, slow, "stale packed planes after op {}", op);
            Ok(())
        };
        check(&tile, 99)?; // fresh from programming
        for (k, &op) in ops.iter().enumerate() {
            match op {
                0 => tile.flip_column(k % cols, &mut rng).unwrap(),
                1 => tile.replace_row(k % rows, &mut rng).unwrap(),
                2 => tile.replace_col(k % cols, &mut rng).unwrap(),
                3 => {
                    tile.reprogram_pair(k % rows, k % cols, &WriteVerify::standard(), &mut rng, &mut stats)
                        .map(|_| ())
                        .unwrap();
                }
                4 => tile.refresh(None, &mut rng, &mut stats),
                _ => {
                    let side = if k % 2 == 0 { CellSide::Pos } else { CellSide::Neg };
                    let health = match k % 3 {
                        0 => CellHealth::StuckOn,
                        1 => CellHealth::StuckOff,
                        _ => CellHealth::Healthy,
                    };
                    tile.inject_fault(k % rows, k % cols, side, health).unwrap();
                }
            }
            check(&tile, op)?;
        }
    }
}
