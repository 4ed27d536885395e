//! Forward-pass goldens: the FNV-1a digests of `DeviceVgg::forward`'s
//! logits bits and of its merged `ExecutionStats`, for a tiny deployment
//! in four configurations. A change to the encoder, the pulse schedules
//! or the guard ladder that moves a single output bit or event count
//! fails here. The digests are the same in debug and release builds.
//!
//! Tiles are 32×16 so every engine has several row tiles (and the hidden
//! FC several column tiles): the per-element accumulation order across
//! tiles is pinned too.
//!
//! `DeviceVgg` drives count-backed PLA trains, so the engine runs every
//! configuration on the pulse-delta schedule. `golden_packed_kernel` pins
//! a rail-programmed deployment whose tiles all pass the popcount
//! verdicts (`packed_ready`); the dense popcount path itself is checked
//! against the reference oracle in `membit-xbar`'s `proptest_kernels`.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_nn::{Params, Vgg, VggConfig};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{ExecutionStats, GuardPolicy, RecoveryPolicy, XbarConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a digests of the logits bits and of the stats fields.
struct Digest {
    logits: u64,
    stats: u64,
}

impl Digest {
    fn new() -> Self {
        Self {
            logits: FNV_OFFSET,
            stats: FNV_OFFSET,
        }
    }

    fn feed(state: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *state ^= u64::from(b);
            *state = state.wrapping_mul(FNV_PRIME);
        }
    }

    fn logits(&mut self, logits: &Tensor) {
        for v in logits.as_slice() {
            Self::feed(&mut self.logits, &v.to_bits().to_le_bytes());
        }
    }

    fn stats(&mut self, s: &ExecutionStats) {
        let g = &s.guard;
        for v in [
            s.vectors,
            s.pulses,
            s.tile_mvms,
            s.adc_conversions,
            s.cell_reads,
            s.unrecoverable_cells,
            s.degraded_tiles,
            s.refreshes,
            g.checks,
            g.violations,
            g.retries,
            g.retry_successes,
            g.tile_refreshes,
            g.tile_remaps,
            g.fallbacks,
            g.saf_corrections,
            g.degraded_layers,
        ] {
            Self::feed(&mut self.stats, &v.to_le_bytes());
        }
    }
}

fn deploy(xbar: XbarConfig, pulses: &[usize], seed: u64) -> (DeviceVgg, Rng) {
    let mut rng = Rng::from_seed(seed);
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).expect("vgg");
    let xbar = XbarConfig {
        tile_rows: 32,
        tile_cols: 16,
        ..xbar
    };
    let cfg = DeviceEvalConfig {
        xbar,
        pulses: pulses.to_vec(),
        act_levels: 9,
        policy: DeploymentPolicy::default(),
    };
    let device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).expect("deploy");
    (device, rng)
}

/// A batch of images on the 9-level activation grid, with a few values
/// between levels and outside `[-1, 1]` so the encoder's snap and clamp
/// both run.
fn images(batch: usize, rng: &mut Rng) -> Tensor {
    Tensor::from_fn(&[batch, 3, 8, 8], |i| match i % 7 {
        0 => rng.uniform(-1.5, 1.5),
        _ => (rng.below(9) as f32 / 8.0) * 2.0 - 1.0,
    })
}

/// Runs `batches` forwards (calling `between` after each) and returns
/// the digests plus the merged stats.
fn run(
    device: &mut DeviceVgg,
    rng: &mut Rng,
    batches: usize,
    mut between: impl FnMut(&mut DeviceVgg, &mut Rng),
) -> (Digest, ExecutionStats) {
    let mut digest = Digest::new();
    let mut merged = ExecutionStats::default();
    for _ in 0..batches {
        let x = images(4, rng);
        let (logits, stats) = device.forward(&x, rng).expect("forward");
        digest.logits(&logits);
        merged.merge(&stats);
        between(device, rng);
    }
    digest.stats(&merged);
    (digest, merged)
}

#[test]
fn golden_guarded_functional_odd_pla_counts() {
    let xbar = XbarConfig::functional(0.05).with_guard(GuardPolicy::standard());
    let (mut device, mut rng) = deploy(xbar, &[5, 7, 11], 41);
    device.set_max_threads(2).expect("threads");
    let (digest, merged) = run(&mut device, &mut rng, 3, |d, r| {
        d.inject_faults(0.05, r).expect("upsets");
    });
    assert!(merged.guard.checks > 0);
    assert!(merged.guard.violations > 0, "{:?}", merged.guard);
    assert_eq!(
        (digest.logits, digest.stats),
        (0xb0dc_1881_dc86_3623, 0xbc58_cb54_0405_3cff),
        "guarded functional digests moved: {:#018x} {:#018x}",
        digest.logits,
        digest.stats
    );
}

#[test]
fn golden_realistic_cached_with_adc() {
    let (mut device, mut rng) = deploy(XbarConfig::realistic(0.05), &[8, 6, 10], 43);
    assert!(!device.packed_ready(), "realistic tiles are heterogeneous");
    let (digest, merged) = run(&mut device, &mut rng, 2, |_, _| {});
    assert!(merged.adc_conversions > 0);
    assert_eq!(
        (digest.logits, digest.stats),
        (0xfe63_529f_9542_0ad2, 0xd586_9056_7d5e_511e),
        "realistic cached digests moved: {:#018x} {:#018x}",
        digest.logits,
        digest.stats
    );
}

#[test]
fn golden_packed_kernel() {
    let (mut device, mut rng) = deploy(XbarConfig::functional(0.1), &[6, 9, 12], 47);
    assert!(device.packed_ready());
    let (digest, _) = run(&mut device, &mut rng, 2, |_, _| {});
    assert_eq!(
        (digest.logits, digest.stats),
        (0x1fe9_d8a4_1763_0905, 0xdc99_cb6a_193a_af70),
        "packed digests moved: {:#018x} {:#018x}",
        digest.logits,
        digest.stats
    );
}

#[test]
fn golden_saf_corrected_cached() {
    let mut xbar = XbarConfig::functional(0.05);
    xbar.noise.device.on_off_ratio = 20.0;
    let (mut device, mut rng) = deploy(xbar, &[8, 8, 8], 53);
    device
        .inject_stuck_faults(0.05, &mut rng)
        .expect("stuck faults");
    device
        .remap_all(&RecoveryPolicy::with_ecc(), &mut rng)
        .expect("remap");
    let (digest, merged) = run(&mut device, &mut rng, 2, |_, _| {});
    assert!(merged.guard.saf_corrections > 0, "{:?}", merged.guard);
    assert_eq!(
        (digest.logits, digest.stats),
        (0x5447_bf78_62a6_673b, 0xd9c2_7201_2bda_feee),
        "SAF-corrected digests moved: {:#018x} {:#018x}",
        digest.logits,
        digest.stats
    );
}
