//! `eval-gbo-guarded`: closed-loop `DeviceVgg::forward` over the test
//! set in batches of 32, with transient upsets between batches.

use std::time::Instant;

use membit_core::{DeviceVgg, Experiment};
use membit_tensor::{Rng, Tensor};

use crate::fixture::Fixture;
use crate::model::TracedVgg;
use crate::procfs::{process_cpu_s, Window};
use crate::stats::{median, Digest};
use crate::workload::{
    aux_rng, device_rng, end_to_end, latency_record, timed_setup, write_trace, Args, Check,
    Outcome, PerLayer, Profile, Setup, ENGINE_THREADS, REPEAT_THREADS,
};
use crate::BoxResult;

/// The deployment under test.
const PROFILE: Profile = Profile::GboGuarded;
/// Images per forward.
const BATCH: usize = 32;
/// Per-cell transient upset rate injected between batches: enough upsets
/// per batch that the guard ladder detects, retries and refreshes on
/// every batch.
const UPSET_RATE: f32 = 1e-4;
/// Batches every run starts with, in the seed's order: accuracy, the
/// logits digest and the traced run cover exactly these 320 images, so
/// they are fixed by the seed whatever the host speed.
const FIXED_BATCHES: usize = 10;
/// Batches re-run by the same-seed repeat check.
const REPEAT_BATCHES: usize = 2;
const ORDER_STREAM: u64 = 0x0D3E_0001;
const UPSET_STREAM: u64 = 0x0D3E_0002;

/// The test set in the seed's order, batched.
fn test_batches(exp: &Experiment, seed: u64) -> Vec<(Tensor, Vec<usize>)> {
    exp.test_set()
        .shuffled(&mut aux_rng(seed, ORDER_STREAM))
        .batches(BATCH)
        .collect()
}

fn deploy(exp: &Experiment, threads: usize, seed: u64) -> BoxResult<(DeviceVgg, Rng)> {
    let (vgg, params) = exp.model();
    let mut rng = device_rng(seed);
    let device = DeviceVgg::deploy(vgg, params, &PROFILE.config(exp, threads), &mut rng)?;
    Ok((device, rng))
}

fn logits_digest(logits: &Tensor) -> u64 {
    let mut d = Digest::default();
    d.f32s(logits.as_slice());
    d.0
}

/// Runs `eval-gbo-guarded`.
///
/// # Errors
///
/// Propagates set-up and engine errors.
pub fn run(args: &Args, fixture: &Fixture) -> BoxResult<Outcome> {
    let setup = timed_setup(fixture, |exp| deploy(exp, ENGINE_THREADS, args.seed))?;
    if args.trace {
        traced(args, setup)
    } else {
        timed(args, setup)
    }
}

/// Runs `batches` in order on a fresh same-seed deployment at `threads`,
/// returning each batch's logits digest.
fn repeat_digests(
    exp: &Experiment,
    threads: usize,
    seed: u64,
    batches: &[(Tensor, Vec<usize>)],
) -> BoxResult<Vec<u64>> {
    let (mut device, mut rng) = deploy(exp, threads, seed)?;
    let mut upsets = aux_rng(seed, UPSET_STREAM);
    let mut out = Vec::new();
    for (i, (x, _)) in batches.iter().enumerate() {
        if i > 0 {
            device.inject_faults(UPSET_RATE, &mut upsets)?;
        }
        out.push(logits_digest(&device.forward(x, &mut rng)?.0));
    }
    Ok(out)
}

/// The timed run. Throughput and CPU time per image are medians over the
/// batches: host speed on a shared machine swings by 20–40% over tens of
/// seconds, and the median follows the speed the run spent most of its
/// batches at where a whole-run mean would follow every swing.
fn timed(args: &Args, setup: Setup<(DeviceVgg, Rng)>) -> BoxResult<Outcome> {
    let setup_s = setup.setup_s();
    let exp = setup.exp;
    let (mut device, mut rng) = setup.built;
    let data = test_batches(&exp, args.seed);
    let nb = data.len();
    let fixed = FIXED_BATCHES.min(nb);
    let fixed_images: usize = data[..fixed].iter().map(|(_, y)| y.len()).sum();
    let mut upsets = aux_rng(args.seed, UPSET_STREAM);
    let mut batch_ms = Vec::new();
    let mut img_per_s = Vec::new();
    let mut cpu_ms_per_img = Vec::new();
    let mut batch_digests = Vec::new();
    let mut fixed_digest = Digest::default();
    let mut fixed_stats = membit_xbar::ExecutionStats::default();
    let (mut correct, mut images) = (0usize, 0usize);

    let window = Window::start();
    let start = Instant::now();
    let mut i = 0usize;
    // whole batches until the time is up, and at least the fixed ones
    while i < fixed || start.elapsed().as_secs_f64() < args.seconds {
        let (x, y) = &data[i % nb];
        if i > 0 {
            device.inject_faults(UPSET_RATE, &mut upsets)?;
        }
        let cpu = process_cpu_s();
        let t = Instant::now();
        let (logits, stats) = device.forward(x, &mut rng)?;
        let wall_s = t.elapsed().as_secs_f64();
        let n = y.len() as f64;
        batch_ms.push(wall_s * 1e3);
        img_per_s.push(n / wall_s);
        cpu_ms_per_img.push((process_cpu_s() - cpu) * 1e3 / n);
        if i < fixed {
            batch_digests.push(logits_digest(&logits));
            fixed_digest.f32s(logits.as_slice());
            fixed_stats.merge(&stats);
            correct += logits
                .argmax_rows()?
                .iter()
                .zip(y)
                .filter(|(p, t)| p == t)
                .count();
        }
        images += y.len();
        i += 1;
    }
    let w = window.stop();

    // same-seed repeat on a fresh deployment at another thread count:
    // on eval-gbo-guarded this is the 1-vs-nproc engine-thread check,
    // upsets and guard ladder included
    let reps = REPEAT_BATCHES.min(nb);
    let again = repeat_digests(&exp, REPEAT_THREADS, args.seed, &data[..reps])?;
    let checks = vec![Check {
        name: "same_seed_repeat",
        ok: again == batch_digests[..reps],
        detail: format!(
            "first {reps} batches at {ENGINE_THREADS} vs {REPEAT_THREADS} engine threads: {:016x?} vs {again:016x?}",
            &batch_digests[..reps]
        ),
    }];

    let mut record = vec![
        (
            "logits_digest".to_string(),
            format!("\"{:016x}\"", fixed_digest.0),
        ),
        ("batches".into(), batch_ms.len().to_string()),
        ("images".into(), images.to_string()),
        ("fixed_pulses".into(), fixed_stats.pulses.to_string()),
        (
            "fixed_guard_checks".into(),
            fixed_stats.guard.checks.to_string(),
        ),
        (
            "fixed_guard_violations".into(),
            fixed_stats.guard.violations.to_string(),
        ),
        (
            "fixed_guard_fallbacks".into(),
            fixed_stats.guard.fallbacks.to_string(),
        ),
        (
            "degraded_layers".into(),
            device.degraded_layers().to_string(),
        ),
        ("packed_ready".into(), device.packed_ready().to_string()),
        ("sigma".into(), PROFILE.sigma().to_string()),
    ];
    record.push(("setup_s_reps".into(), format!("{:?}", setup.total_s)));
    record.extend(latency_record(&batch_ms));
    let metrics = end_to_end(
        setup_s,
        median(&img_per_s),
        median(&cpu_ms_per_img),
        correct as f64 / fixed_images as f64 * 100.0,
    );
    Ok(Outcome {
        metrics,
        attempted: batch_ms.len() as u64,
        failed: 0,
        checks,
        window: w,
        engine_threads: ENGINE_THREADS,
        lag_ms_tail: None,
        record,
    })
}

/// The traced run: the fixed batches through both `DeviceVgg::forward`
/// and the traced copy, from identical RNG states, checking bitwise
/// parity of logits, merged stats and RNG state after every batch.
fn traced(args: &Args, setup: Setup<(DeviceVgg, Rng)>) -> BoxResult<Outcome> {
    let exp = setup.exp;
    let (mut device, mut rng) = setup.built;
    let (vgg, params) = exp.model();
    let mut copy_rng = device_rng(args.seed);
    let mut copy = TracedVgg::deploy(
        vgg,
        params,
        &PROFILE.config(&exp, ENGINE_THREADS),
        &mut copy_rng,
    )?;
    let mut data = test_batches(&exp, args.seed);
    data.truncate(FIXED_BATCHES);
    let mut up_dev = aux_rng(args.seed, UPSET_STREAM);
    let mut up_copy = aux_rng(args.seed, UPSET_STREAM);
    let mut parity = rng.state_bytes() == copy_rng.state_bytes();
    let mut mismatch = String::new();
    let (mut dev_ns, mut copy_ns) = (0u128, 0u128);

    let window = Window::start();
    for (i, (x, _)) in data.iter().enumerate() {
        if i > 0 {
            let a = device.inject_faults(UPSET_RATE, &mut up_dev)?;
            let b = copy.inject_faults(UPSET_RATE, &mut up_copy)?;
            parity &= a == b;
        }
        let t = Instant::now();
        let (la, sa) = device.forward(x, &mut rng)?;
        dev_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let (lb, sb) = copy.forward(x, &mut copy_rng)?;
        copy_ns += t.elapsed().as_nanos();
        let same_bits = la
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(lb.as_slice().iter().map(|v| v.to_bits()));
        if !(same_bits && sa == sb && rng.state_bytes() == copy_rng.state_bytes()) {
            parity = false;
        }
        if !parity {
            mismatch = format!(
                "batch {i}: logits equal {same_bits}, stats equal {}",
                sa == sb
            );
            break;
        }
    }
    let w = window.stop();
    write_trace(args, &copy.tracer);

    let mut per = PerLayer::default();
    per.set_model(&copy);
    per.set("core.deploy_ms", median(&setup.build_s) * 1e3);
    per.set("host.steal_pct", w.steal_pct);
    per.set("host.cpu_util_pct", w.host_util_pct);
    per.set(
        "trace.overhead_pct",
        (copy_ns as f64 - dev_ns as f64) / dev_ns.max(1) as f64 * 100.0,
    );
    let checks = vec![Check {
        name: "traced_copy_parity",
        ok: parity,
        detail: if parity {
            format!("{} batches bitwise equal to DeviceVgg::forward", data.len())
        } else {
            mismatch
        },
    }];
    Ok(Outcome {
        metrics: per.into_metrics(),
        attempted: data.len() as u64,
        failed: 0,
        checks,
        window: w,
        engine_threads: ENGINE_THREADS,
        lag_ms_tail: None,
        record: vec![("spans".into(), copy.tracer.spans().len().to_string())],
    })
}
