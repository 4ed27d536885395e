//! membit end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-gbo-guarded|serve-open|gbo-plan> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per output check and metric, a run record, and as the
//! last line one JSON object `{correct, attempted, failed, metrics}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a traced run. Exits 1 when an
//! output check fails, 2 on bad arguments. See `perfbench/README.md`.

mod eval;
mod fixture;
mod loadgen;
mod model;
mod plan;
mod procfs;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::Path;

use workload::{json_num, Args, Outcome, Workload};

/// Error type of the workload runners.
pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Host steal above which a run's numbers are marked invalid.
const MAX_STEAL_PCT: f64 = 10.0;
/// Load-generator lateness (tail) above which a run is marked invalid.
const MAX_LAG_MS: f64 = 10.0;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs a u64")),
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("--seconds needs a number in (0, 600]")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// The repository revision, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let fixture = match fixture::prepare(Path::new("perfbench/.fixtures")) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: fixture: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match args.workload {
        Workload::EvalGuarded => eval::run(&args, &fixture),
        Workload::ServeOpen => serve::run(&args, &fixture),
        Workload::GboPlan => plan::run(&args, &fixture),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    report(&args, &fixture, &outcome);
    if !outcome.correct() {
        std::process::exit(1);
    }
}

fn report(args: &Args, fixture: &fixture::Fixture, o: &Outcome) {
    for c in &o.checks {
        println!(
            "# check {:<28} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for m in &o.metrics {
        println!("# {:<34} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let mut invalid = Vec::new();
    if o.window.steal_pct > MAX_STEAL_PCT {
        invalid.push(format!(
            "steal {:.1}% > {MAX_STEAL_PCT}%",
            o.window.steal_pct
        ));
    }
    if let Some(lag) = o.lag_ms_tail.filter(|&l| l > MAX_LAG_MS) {
        invalid.push(format!("generator lag {lag:.2} ms > {MAX_LAG_MS} ms"));
    }
    let mut rec = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("host_cpus".into(), procfs::host_cpus().to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model".into(), json_str(&procfs::cpu_model())),
        ("git_rev".into(), json_str(&git_rev())),
        ("engine_threads".into(), o.engine_threads.to_string()),
        ("wall_s".into(), json_num(o.window.wall_s)),
        ("cpu_s".into(), json_num(o.window.cpu_s)),
        ("steal_pct".into(), json_num(o.window.steal_pct)),
        ("host_util_pct".into(), json_num(o.window.host_util_pct)),
        (
            "fixture_key".into(),
            json_str(&format!("{:016x}", fixture.key)),
        ),
        (
            "pretrain_s".into(),
            fixture.pretrain_s.map_or("null".into(), json_num),
        ),
        ("valid".into(), invalid.is_empty().to_string()),
        ("invalid_reason".into(), json_str(&invalid.join("; "))),
    ];
    rec.extend(o.record.iter().cloned());
    let body: Vec<String> = rec
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("# run record {{{}}}", body.join(", "));
    if !invalid.is_empty() {
        eprintln!("# WARNING: run marked invalid: {}", invalid.join("; "));
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}
