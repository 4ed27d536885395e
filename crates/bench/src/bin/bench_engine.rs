//! Crossbar engine throughput benchmark.
//!
//! Three sections, each with warmup + median-of-N timing:
//!
//! 1. **Thread sweep** — programs a tiled crossbar, runs the same pulse
//!    train at several worker thread counts, checks the outputs are
//!    **bitwise identical** across all of them (the engine derives
//!    per-`(pulse, sample, tile)` noise substreams, so threading must
//!    never change results), and writes the wall-clock numbers to
//!    `BENCH_engine.json` under the results directory.
//! 2. **Engine vs reference oracle** — times the engine's own execution
//!    (the inner loop it picks: the pulse-delta schedule for count-backed
//!    thermometer trains, and on the dense schedule the popcount path on
//!    rail-programmed tiles and the cached loop elsewhere) against
//!    [`CrossbarLinear::reference_oracle`] (the per-cell reference loop on
//!    the same hardware) single-threaded across tile geometries, encoders,
//!    pulse counts and device flavors. Numbers are end to end: they
//!    include the per-column Gaussian noise draws and ADC shared bitwise
//!    by both sides. The section also verifies: the engine within 1e-5 of
//!    the oracle everywhere, **bitwise** equal on dense-schedule (bit-sliced)
//!    trains, and deterministic across reruns. It writes `BENCH_mvm.json`
//!    with the host's CPU model and hardware thread count.
//!
//! Options (besides the shared bench flags):
//!
//! * `--smoke` — tiny problems + one repeat: a seconds-long CI smoke run
//!   that still exercises programming, execution, determinism checking,
//!   oracle agreement and both JSON emission paths.

use std::error::Error;
use std::io::Write as _;
use std::time::Instant;

use membit_bench::{results_dir, Cli};
use membit_encoding::{BitEncoder, BitSlicing, Thermometer};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{CrossbarLinear, ExecOptions, XbarConfig};

struct Case {
    name: &'static str,
    out_features: usize,
    in_features: usize,
    batch: usize,
    pulses: usize,
}

/// An engine-vs-oracle configuration: like [`Case`] but with an explicit
/// square tile size (the thread sweep uses the config default), an
/// encoder, and a device flavor (`rails` tiles pass the popcount
/// verdicts; `realistic` tiles are heterogeneous and run the cached loop).
struct KernelCase {
    name: &'static str,
    out_features: usize,
    in_features: usize,
    batch: usize,
    pulses: usize,
    tile: usize,
    encoder: &'static str,
    rails: bool,
    /// Zero noise everywhere: isolates the MVM inner loop itself (the
    /// per-column Gaussian draws are a fixed cost shared bitwise by the
    /// engine and the oracle, so noisy rows understate the loop gap).
    noise_free: bool,
}

fn random_pm1(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// One warmup execute (untimed), then `repeats` timed executes with the
/// identical seeded noise stream; returns the wall-clock times in ms and
/// the (deterministic) output.
fn time_execute(
    engine: &CrossbarLinear,
    train: &membit_encoding::PulseTrain,
    seed: u64,
    repeats: usize,
) -> Result<(Vec<f64>, Tensor), Box<dyn Error>> {
    let mut warm_rng = Rng::from_seed(seed).stream(RngStream::Noise);
    let mut out = engine.execute(train, &mut warm_rng)?;
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut xrng = Rng::from_seed(seed).stream(RngStream::Noise);
        let t = Instant::now();
        out = engine.execute(train, &mut xrng)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((times, out))
}

/// `(min, median, max)` of a set of timings.
fn spread(times: &[f64]) -> (f64, f64, f64) {
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(times.to_vec()), max)
}

/// The host CPU's model name from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Samples·pulses per second at the given per-execute median.
fn throughput(batch: usize, pulses: usize, ms: f64) -> f64 {
    (batch * pulses) as f64 / (ms / 1e3)
}

fn main() -> Result<(), Box<dyn Error>> {
    let cli = Cli::parse();
    let smoke = cli.rest.iter().any(|a| a == "--smoke");
    let repeats = if smoke { 1 } else { 5 };
    let cases: Vec<Case> = if smoke {
        vec![Case {
            name: "smoke",
            out_features: 48,
            in_features: 96,
            batch: 16,
            pulses: 4,
        }]
    } else {
        vec![
            Case {
                name: "fc_like",
                out_features: 256,
                in_features: 512,
                batch: 64,
                pulses: 8,
            },
            Case {
                name: "conv_patches",
                out_features: 128,
                in_features: 288,
                batch: 256,
                pulses: 8,
            },
        ]
    };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "crossbar engine benchmark ({} case(s), median of {repeats} repeat(s) after 1 warmup, \
         host has {host_threads} hardware thread(s))",
        cases.len()
    );
    let mut case_json = Vec::new();
    for case in &cases {
        let w = random_pm1(&[case.out_features, case.in_features], cli.seed);
        let x = random_pm1(&[case.batch, case.in_features], cli.seed ^ 1);
        let train = Thermometer::new(case.pulses)?.encode_tensor(&x)?;
        let mut cfg = XbarConfig::realistic(0.05);
        cfg.exec = ExecOptions::serial();
        let mut prng = Rng::from_seed(cli.seed).stream(RngStream::Device);
        let xbar = CrossbarLinear::program(&w, &cfg, &mut prng)?;

        println!(
            "\n{}: {}×{} weights, batch {}, {} pulses, {} tiles",
            case.name,
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            xbar.num_tiles()
        );
        println!(
            "{:>10} {:>12} {:>10} {:>14}",
            "threads", "ms/exec", "speedup", "samples·p/s"
        );

        let mut reference: Option<Tensor> = None;
        let mut serial_ms = 0.0f64;
        let mut entries = Vec::new();
        for &threads in thread_counts {
            let mut run_cfg = cfg;
            run_cfg.exec = ExecOptions::with_threads(threads);
            // re-programming with the same rng seed reproduces the same
            // devices; only the exec options differ between runs
            let mut prng = Rng::from_seed(cli.seed).stream(RngStream::Device);
            let engine = CrossbarLinear::program(&w, &run_cfg, &mut prng)?;
            let (times, y) = time_execute(&engine, &train, cli.seed ^ 2, repeats)?;
            let ms = median(times);
            match &reference {
                None => {
                    serial_ms = ms;
                    reference = Some(y);
                }
                Some(r) => {
                    assert_eq!(
                        r.as_slice(),
                        y.as_slice(),
                        "{}: output at {} threads differs bitwise from serial",
                        case.name,
                        threads
                    );
                }
            }
            let speedup = serial_ms / ms;
            let sps = throughput(case.batch, case.pulses, ms);
            println!("{threads:>10} {ms:>12.2} {speedup:>9.2}x {sps:>14.0}");
            entries.push(format!(
                "{{\"threads\": {threads}, \"ms_per_exec\": {ms:.3}, \
                 \"speedup_vs_serial\": {speedup:.3}, \
                 \"samples_pulses_per_s\": {sps:.0}, \"bitwise_identical\": true}}"
            ));
        }
        case_json.push(format!(
            "{{\"case\": \"{}\", \"out_features\": {}, \"in_features\": {}, \
             \"batch\": {}, \"pulses\": {}, \"tiles\": {}, \"runs\": [{}]}}",
            json_escape(case.name),
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            xbar.num_tiles(),
            entries.join(", ")
        ));
    }

    let path = results_dir().join("BENCH_engine.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(
        f,
        "{{\"bench\": \"engine\", \"smoke\": {smoke}, \"seed\": {}, \
         \"host_hardware_threads\": {host_threads}, \"repeats\": {repeats}, \"warmup\": 1, \
         \"timing\": \"median over repeats after one warmup execute\", \
         \"determinism\": \"outputs bitwise identical across all thread counts\", \
         \"cases\": [{}]}}",
        cli.seed,
        case_json.join(", ")
    )?;
    println!("\n# wrote {}", path.display());
    println!("# outputs were bitwise identical across thread counts {thread_counts:?}");
    if host_threads == 1 {
        println!("# note: host has a single hardware thread — speedups ≈ 1 are expected here");
    }

    // ------------------------------------------------------------------
    // Engine vs reference oracle, serial
    // ------------------------------------------------------------------
    let kernel_cases: Vec<KernelCase> = if smoke {
        vec![
            // rails + bit-sliced: the popcount path runs and must be
            // bitwise the oracle
            KernelCase {
                name: "smoke_slice_rails",
                out_features: 48,
                in_features: 96,
                batch: 8,
                pulses: 4,
                tile: 32,
                encoder: "bitsliced",
                rails: true,
                noise_free: false,
            },
            // realistic device + thermometer: the delta schedule
            KernelCase {
                name: "smoke_therm_realistic",
                out_features: 48,
                in_features: 96,
                batch: 8,
                pulses: 4,
                tile: 32,
                encoder: "thermometer",
                rails: false,
                noise_free: false,
            },
        ]
    } else {
        vec![
            // a generic binary train on full 128×128 rails tiles: the
            // popcount path against the per-cell reference loop
            KernelCase {
                name: "slice_p8_tile128",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 8,
                tile: 128,
                encoder: "bitsliced",
                rails: true,
                noise_free: false,
            },
            // zero-noise rails: the inner loops with the shared
            // noise-draw cost removed from both sides
            KernelCase {
                name: "slice_p8_tile128_ideal",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 8,
                tile: 128,
                encoder: "bitsliced",
                rails: true,
                noise_free: true,
            },
            // thermometer on rails: count-backed, so the delta schedule
            KernelCase {
                name: "therm_p8_tile128",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 8,
                tile: 128,
                encoder: "thermometer",
                rails: true,
                noise_free: false,
            },
            // longer generic trains
            KernelCase {
                name: "slice_p16_tile128",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 16,
                tile: 128,
                encoder: "bitsliced",
                rails: true,
                noise_free: false,
            },
            // small tiles: more per-tile overhead, same asymptotics
            KernelCase {
                name: "slice_p8_tile32",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 8,
                tile: 32,
                encoder: "bitsliced",
                rails: true,
                noise_free: false,
            },
            // heterogeneous device: no tile passes the popcount verdicts,
            // so the engine runs the cached loop
            KernelCase {
                name: "slice_p8_tile128_realistic",
                out_features: 256,
                in_features: 256,
                batch: 32,
                pulses: 8,
                tile: 128,
                encoder: "bitsliced",
                rails: false,
                noise_free: false,
            },
        ]
    };

    let cpu = cpu_model();
    println!("\nEngine vs reference oracle, end-to-end execution (single-threaded, {cpu})");
    println!(
        "{:>28} {:>10} {:>11} {:>11} {:>8} {:>14}",
        "case", "ref ms", "engine ms", "engine/ref", "packed", "engine s·p/s"
    );
    let mut kernel_json = Vec::new();
    for case in &kernel_cases {
        let w = random_pm1(&[case.out_features, case.in_features], cli.seed ^ 3);
        let x = random_pm1(&[case.batch, case.in_features], cli.seed ^ 4);
        let train = match case.encoder {
            "bitsliced" => BitSlicing::new(case.pulses)?.encode_tensor(&x)?,
            _ => Thermometer::new(case.pulses)?.encode_tensor(&x)?,
        };
        let mut cfg = if case.rails {
            // ideal device ⇒ rail-programmed ±1 weights
            let sigma = if case.noise_free { 0.0 } else { 0.05 };
            let mut c = XbarConfig::functional(sigma);
            c.noise.device.on_off_ratio = 20.0;
            c
        } else {
            XbarConfig::realistic(0.05)
        };
        cfg.tile_rows = case.tile;
        cfg.tile_cols = case.tile;
        cfg.exec = ExecOptions::serial();

        let mut prng = Rng::from_seed(cli.seed ^ 5).stream(RngStream::Device);
        let engine = CrossbarLinear::program(&w, &cfg, &mut prng)?;
        let oracle = engine.reference_oracle();
        let packed_engaged = engine.packed_ready();
        assert_eq!(
            packed_engaged, case.rails,
            "{}: popcount verdicts must match the device flavor",
            case.name
        );
        let delta = train.high_counts().is_some();
        let (ref_times, y_ref) = time_execute(&oracle, &train, cli.seed ^ 6, repeats)?;
        let (eng_times, y_eng) = time_execute(&engine, &train, cli.seed ^ 6, repeats)?;
        // determinism: the engine rerun on the same seeded stream must
        // reproduce itself bitwise (single-core contract)
        let (_, y_eng2) = time_execute(&engine, &train, cli.seed ^ 6, 1)?;
        assert_eq!(
            y_eng.as_slice(),
            y_eng2.as_slice(),
            "{}: engine must be deterministic",
            case.name
        );

        let mut max_abs_diff = 0.0f32;
        for (a, b) in y_eng.as_slice().iter().zip(y_ref.as_slice()) {
            let diff = (a - b).abs();
            max_abs_diff = max_abs_diff.max(diff);
            assert!(
                diff <= 1e-5 * (1.0 + b.abs()),
                "{}: engine disagrees with the oracle ({a} vs {b})",
                case.name
            );
        }
        if !delta {
            assert_eq!(
                y_eng.as_slice(),
                y_ref.as_slice(),
                "{}: the dense schedule must be bitwise the oracle",
                case.name
            );
        }
        let (ref_min, ref_ms, ref_max) = spread(&ref_times);
        let (eng_min, eng_ms, eng_max) = spread(&eng_times);
        let speedup = ref_ms / eng_ms;
        let sps = throughput(case.batch, case.pulses, eng_ms);
        println!(
            "{:>28} {ref_ms:>10.2} {eng_ms:>11.2} {speedup:>10.2}x {packed_engaged:>8} {sps:>14.0}",
            case.name
        );
        kernel_json.push(format!(
            "{{\"case\": \"{}\", \"out_features\": {}, \"in_features\": {}, \
             \"batch\": {}, \"pulses\": {}, \"tile\": {}, \"train\": \"{}\", \
             \"device\": \"{}\", \"schedule\": \"{}\", \"packed_engaged\": {packed_engaged}, \
             \"reference_ms\": {{\"min\": {ref_min:.3}, \"median\": {ref_ms:.3}, \"max\": {ref_max:.3}}}, \
             \"engine_ms\": {{\"min\": {eng_min:.3}, \"median\": {eng_ms:.3}, \"max\": {eng_max:.3}}}, \
             \"engine_speedup_vs_reference\": {speedup:.3}, \
             \"engine_samples_pulses_per_s\": {sps:.0}, \
             \"bitwise_reference\": {}, \
             \"max_abs_diff\": {max_abs_diff:.3e}, \"agree_within_tolerance\": true}}",
            json_escape(case.name),
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            case.tile,
            case.encoder,
            if case.rails { "rails" } else { "realistic" },
            if delta { "delta" } else { "dense" },
            !delta,
        ));
    }

    let mvm_path = results_dir().join("BENCH_mvm.json");
    let mut f = std::fs::File::create(&mvm_path)?;
    writeln!(
        f,
        "{{\"bench\": \"mvm_engine_vs_oracle\", \"smoke\": {smoke}, \"seed\": {}, \
         \"host\": {{\"cpu_model\": \"{}\", \"hardware_threads\": {host_threads}}}, \
         \"repeats\": {repeats}, \"warmup\": 1, \"threads\": 1, \
         \"tolerance\": \"engine within 1e-5 relative of the reference oracle everywhere; \
         bitwise equal on the dense schedule\", \
         \"timing\": \"wall clock per execute: min/median/max over repeats after one warmup execute\", \
         \"metric_notes\": \"end to end, including the noise draws and ADC shared bitwise by \
         the engine and the oracle\", \
         \"cases\": [{}]}}",
        cli.seed,
        json_escape(&cpu),
        kernel_json.join(", ")
    )?;
    println!("# wrote {}", mvm_path.display());
    Ok(())
}
