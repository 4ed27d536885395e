//! `serve-open`: open-loop Poisson arrivals of single test images into a
//! one-shard `ShardServer` fronting the realistic deployment
//! (`XbarConfig::realistic(0.05)`, 8 pulses on every layer, no guard).
//!
//! Four fixed rates, interleaved: the run is cut into rounds, and each
//! round serves one short slice per rate, each slice on a freshly started
//! server that is drained before the next. Host noise comes in bursts of
//! seconds; interleaving spreads every rate's samples over the whole run
//! instead of letting one burst land on one rate. Latency is timed from
//! each request's *scheduled* send time, so a stall also charges the
//! requests it delays. After the timed slices every slice's request log
//! is replayed on a fresh deployment and must reproduce every live
//! response bit for bit.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use membit_core::{DeviceVgg, Experiment};
use membit_serve::{
    replay_shards, ClockMode, LogEvent, RequestLog, RoutePolicy, ServeConfig, ServeError,
    ServeModel, ServeStats, ShardServer,
};

use crate::fixture::Fixture;
use crate::loadgen::{lateness_ms, poisson_schedule};
use crate::model::TracedVgg;
use crate::procfs::{Window, WindowStats};
use crate::stats::{mean, median, tail, Digest, TAIL_BEYOND};
use crate::workload::{
    aux_rng, device_rng, end_to_end, json_num, latency_record, timed_setup, write_trace, Args,
    Check, Outcome, PerLayer, Profile, Setup, ENGINE_THREADS, REPEAT_THREADS,
};
use crate::BoxResult;

/// Offered rates, req/s. Probed saturation of this deployment on a
/// 2-vCPU host is 45–50 req/s, so the top rate overloads it and leaves
/// room for a speed-up to show.
const RATES: [f64; 4] = [15.0, 30.0, 45.0, 60.0];
/// Share of the run each rate is offered. The reported latency
/// (15 req/s) gets most of it: its tail is the 11th-largest sample, and only with
/// well over a hundred samples does that fall among the requests that
/// queued behind another (≈ twice the service time), where it scales
/// with service time instead of jumping with which requests happen to
/// queue.
const SHARES: [f64; 4] = [0.7, 0.1, 0.1, 0.1];
/// The rate whose request latency the run record reports: at higher
/// utilisation, queueing amplifies the host's speed swings.
const REPORT_RATE: f64 = 15.0;
/// The overload rate whose completion rate measures capacity.
const OVERLOAD_RATE: f64 = 60.0;
/// Latency limit on the tail, ms; also every request's deadline.
const LIMIT_MS: f64 = 250.0;
/// Rounds of interleaved slices (one slice per rate per round).
const ROUNDS: usize = 4;
/// Requests per engine batch.
const MAX_BATCH: usize = 8;
/// Admitted requests still unresolved at the end of a slice's send window
/// above which its backlog counts as growing.
const BACKLOG_MAX: usize = 2 * MAX_BATCH;
/// Seed of the arrival trace. The arrival times are one fixed Poisson
/// realisation per slice, the same for every workload seed, so runs at
/// different seeds compare the same traffic; the seed still picks the
/// images, the device and the noise. With seed-drawn arrivals the tail
/// at 15 req/s spread 2× between seeds on a quiet host, because whether
/// a request lands behind another is decided by the draw.
const TRACE_SEED: u64 = 0x7EAC_E000;
const ARRIVAL_STREAM: u64 = 0x5E4E_0001;
const PICK_STREAM: u64 = 0x5E4E_0002;

fn serve_config(seed: u64, slice: usize) -> ServeConfig {
    let mut c = ServeConfig::standard(seed ^ ((slice as u64 + 1) << 32));
    c.max_batch = MAX_BATCH;
    c.clock = ClockMode::Monotonic;
    c.default_deadline_ns = (LIMIT_MS * 1e6) as u64;
    c
}

/// How one request ended, from the client's side.
#[derive(Debug, Clone, PartialEq)]
enum Fate {
    Completed { id: u64, output: Vec<f32> },
    Expired,
    Rejected,
    Failed,
}

struct Request {
    label: usize,
    scheduled_s: f64,
    sent_s: f64,
    done_s: f64,
    fate: Fate,
}

impl Request {
    fn latency_ms(&self) -> f64 {
        (self.done_s - self.scheduled_s) * 1e3
    }

    fn meets_limit(&self) -> bool {
        matches!(self.fate, Fate::Completed { .. }) && self.latency_ms() <= LIMIT_MS
    }
}

/// One slice: a fixed rate served for a short window on a fresh server.
struct Slice {
    rate: f64,
    window_s: f64,
    requests: Vec<Request>,
    stats: ServeStats,
    log: RequestLog,
    /// Model forward calls before this slice (the traced run maps the
    /// log's batches to forward spans with it).
    first_batch: usize,
}

impl Slice {
    fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| matches!(r.fate, Fate::Completed { .. }))
            .map(Request::latency_ms)
            .collect()
    }

    /// Requests admitted but unresolved when the send window closed.
    fn backlog(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.sent_s < self.window_s && r.done_s > self.window_s)
            .filter(|r| r.fate != Fate::Rejected)
            .count()
    }

    fn misses(&self) -> usize {
        self.requests.iter().filter(|r| !r.meets_limit()).count()
    }

    /// Completed requests, and seconds from the first scheduled arrival
    /// to the last completion.
    fn served(&self) -> (u64, f64) {
        let done = self
            .requests
            .iter()
            .filter(|r| matches!(r.fate, Fate::Completed { .. }));
        let end = done.clone().map(|r| r.done_s).fold(0.0, f64::max);
        let start = self.requests.first().map_or(0.0, |r| r.scheduled_s);
        (done.count() as u64, (end - start).max(0.0))
    }

    fn count(&self, f: impl Fn(&Fate) -> bool) -> u64 {
        self.requests.iter().filter(|r| f(&r.fate)).count() as u64
    }

    /// Live responses sorted by request id.
    fn responses(&self) -> Vec<(u64, Vec<f32>)> {
        let mut out: Vec<(u64, Vec<f32>)> = self
            .requests
            .iter()
            .filter_map(|r| match &r.fate {
                Fate::Completed { id, output } => Some((*id, output.clone())),
                _ => None,
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

/// Every slice of one offered rate.
struct RateView<'a> {
    rate: f64,
    slices: Vec<&'a Slice>,
}

impl RateView<'_> {
    fn latencies_ms(&self) -> Vec<f64> {
        self.slices.iter().flat_map(|s| s.latencies_ms()).collect()
    }

    fn sent(&self) -> usize {
        self.slices.iter().map(|s| s.requests.len()).sum()
    }

    fn misses(&self) -> usize {
        self.slices.iter().map(|s| s.misses()).sum()
    }

    fn backlog(&self) -> usize {
        self.slices.iter().map(|s| s.backlog()).max().unwrap_or(0)
    }

    /// The tail meets the limit (at most [`TAIL_BEYOND`] requests miss
    /// it, refused and expired ones included) and no slice ends with a
    /// growing backlog.
    fn passes(&self) -> bool {
        self.misses() <= TAIL_BEYOND && self.backlog() <= BACKLOG_MAX
    }

    /// Completions per second of serving time: the sustained service
    /// rate when the offered rate overloads the server.
    fn goodput_rps(&self) -> f64 {
        let (n, t) = self
            .slices
            .iter()
            .map(|s| s.served())
            .fold((0, 0.0), |(n, t), (a, b)| (n + a, t + b));
        n as f64 / t
    }
}

/// Top-1 accuracy of every completed response, %.
fn accuracy_pct(slices: &[Slice]) -> f64 {
    let (mut done, mut right) = (0usize, 0usize);
    for r in slices.iter().flat_map(|s| &s.requests) {
        if let Fate::Completed { output, .. } = &r.fate {
            done += 1;
            let top = output
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c);
            right += usize::from(top == Some(r.label));
        }
    }
    right as f64 / done.max(1) as f64 * 100.0
}

fn by_rate(slices: &[Slice]) -> Vec<RateView<'_>> {
    RATES
        .iter()
        .map(|&rate| RateView {
            rate,
            slices: slices.iter().filter(|s| s.rate == rate).collect(),
        })
        .collect()
}

type Submitted = (usize, f64, f64, Result<membit_serve::Handle, ServeError>);

/// Drives one slice against a running server: a generator on this thread
/// sends on the Poisson schedule, a collector thread waits on the
/// handles in send order (one FIFO shard resolves them in that order).
fn drive<M: ServeModel + Send + 'static>(
    server: &ShardServer<M>,
    schedule: &[f64],
    inputs: &[(Vec<f32>, usize)],
) -> Vec<Request> {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let origin = Instant::now();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (label, scheduled_s, sent_s, submitted) in rx {
                let fate = match submitted.map(|h| (h.id(), h.wait())) {
                    Ok((id, Ok(resp))) => Fate::Completed {
                        id,
                        output: resp.output,
                    },
                    Ok((_, Err(ServeError::DeadlineExceeded { .. }))) => Fate::Expired,
                    Err(ServeError::QueueFull { .. } | ServeError::Shed) => Fate::Rejected,
                    _ => Fate::Failed,
                };
                out.push(Request {
                    label,
                    scheduled_s,
                    sent_s,
                    done_s: origin.elapsed().as_secs_f64(),
                    fate,
                });
            }
            out
        });
        for (&at, (input, label)) in schedule.iter().zip(inputs) {
            let now = origin.elapsed().as_secs_f64();
            if at > now {
                std::thread::sleep(Duration::from_secs_f64(at - now));
            }
            let sent_s = origin.elapsed().as_secs_f64();
            let submitted = server.submit(input.clone(), None);
            if tx.send((*label, at, sent_s, submitted)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

fn deploy_device(exp: &Experiment, seed: u64, threads: usize) -> BoxResult<DeviceVgg> {
    let (vgg, params) = exp.model();
    let cfg = Profile::RealisticP8.config(exp, threads);
    Ok(DeviceVgg::deploy(vgg, params, &cfg, &mut device_rng(seed))?)
}

fn deploy_traced(exp: &Experiment, seed: u64) -> BoxResult<TracedVgg> {
    let (vgg, params) = exp.model();
    let cfg = Profile::RealisticP8.config(exp, ENGINE_THREADS);
    Ok(TracedVgg::deploy(vgg, params, &cfg, &mut device_rng(seed))?)
}

/// Each request's flattened test image and its label, drawn by the seed.
fn pick_inputs(
    exp: &Experiment,
    seed: u64,
    slice: usize,
    count: usize,
) -> BoxResult<Vec<(Vec<f32>, usize)>> {
    let test = exp.test_set();
    let mut rng = aux_rng(seed, PICK_STREAM ^ slice as u64);
    (0..count)
        .map(|_| {
            let i = rng.below(test.len());
            Ok((test.batch(i, 1)?.0.into_vec(), test.labels()[i]))
        })
        .collect()
}

fn start<M: ServeModel + Send + 'static>(
    model: M,
    seed: u64,
    slice: usize,
) -> BoxResult<ShardServer<M>> {
    Ok(ShardServer::start(
        vec![model],
        serve_config(seed, slice),
        RoutePolicy::default(),
    )?)
}

/// Serves every slice on one deployment, restarting the server between
/// slices; returns the slices and the model.
fn run_slices<M: ServeModel + Send + 'static>(
    args: &Args,
    exp: &Experiment,
    first: ShardServer<M>,
) -> BoxResult<(Vec<Slice>, M, WindowStats)> {
    let total = ROUNDS * RATES.len();
    let mut server = first;
    let mut slices: Vec<Slice> = Vec::new();
    let mut batches = 0usize;
    let window = Window::start();
    for k in 0..total {
        let rate = RATES[k % RATES.len()];
        let window_s = args.seconds / ROUNDS as f64 * SHARES[k % RATES.len()];
        let schedule = poisson_schedule(
            rate,
            window_s,
            &mut aux_rng(TRACE_SEED, ARRIVAL_STREAM ^ k as u64),
        );
        let inputs = pick_inputs(exp, args.seed, k, schedule.len())?;
        let requests = drive(&server, &schedule, &inputs);
        let report = server.shutdown()?;
        let shard = report
            .shards
            .into_iter()
            .next()
            .ok_or("report without a shard")?;
        slices.push(Slice {
            rate,
            window_s,
            requests,
            stats: report.stats,
            log: shard.log,
            first_batch: batches,
        });
        batches += report.stats.batches as usize;
        if k + 1 == total {
            return Ok((slices, shard.model, window.stop()));
        }
        server = start(shard.model, args.seed, k + 1)?;
    }
    unreachable!("RATES is not empty")
}

/// Accounting identity per slice, server counters against what the
/// clients saw, and a bitwise replay of every slice on a fresh
/// deployment. Returns the checks and the replay's wall time.
fn output_checks(
    args: &Args,
    exp: &Experiment,
    slices: &[Slice],
    replay_threads: usize,
) -> BoxResult<(Vec<Check>, f64)> {
    let mut accounted = true;
    let mut totals = ServeStats::default();
    for sl in slices {
        let s = &sl.stats;
        let clients = [
            sl.count(|f| matches!(f, Fate::Completed { .. })),
            sl.count(|f| *f == Fate::Expired),
            sl.count(|f| *f == Fate::Rejected),
            sl.count(|f| *f == Fate::Failed),
        ];
        let server = [
            s.completed,
            s.expired,
            s.rejected_queue_full + s.rejected_shed,
            s.failed + s.cancelled,
        ];
        accounted &= s.accounted() && clients == server;
        totals.admitted += s.admitted;
        totals.completed += s.completed;
        totals.expired += s.expired;
        totals.failed += s.failed;
        totals.cancelled += s.cancelled;
    }
    let mut replay_ok = true;
    let mut replay_s = 0.0;
    let mut digest = Digest::default();
    for (k, sl) in slices.iter().enumerate() {
        let cfg = serve_config(args.seed, k);
        let mut fresh = [deploy_device(exp, args.seed, replay_threads)?];
        let t = Instant::now();
        let replayed = replay_shards(
            &mut fresh,
            cfg.seed,
            &cfg.retry,
            std::slice::from_ref(&sl.log),
        )?;
        replay_s += t.elapsed().as_secs_f64();
        let live = sl.responses();
        for (id, row) in &live {
            digest.u64s([*id]);
            digest.f32s(row);
        }
        replay_ok &= replayed.len() == live.len()
            && replayed.iter().zip(&live).all(|((ia, ra), (ib, rb))| {
                ia == ib
                    && ra
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(rb.iter().map(|v| v.to_bits()))
            });
    }
    let checks = vec![
        Check {
            name: "accounting_identity",
            ok: accounted,
            detail: format!(
                "every slice; totals admitted {} = completed {} + expired {} + failed {} + cancelled {}",
                totals.admitted, totals.completed, totals.expired, totals.failed, totals.cancelled
            ),
        },
        Check {
            name: "replay_bitwise",
            ok: replay_ok,
            detail: format!(
                "{} slices replayed at {replay_threads} engine thread(s); responses digest {:016x}",
                slices.len(),
                digest.0
            ),
        },
    ];
    Ok((checks, replay_s))
}

fn lag_tail_ms(slices: &[Slice]) -> f64 {
    let (sched, sent): (Vec<f64>, Vec<f64>) = slices
        .iter()
        .flat_map(|s| s.requests.iter().map(|r| (r.scheduled_s, r.sent_s)))
        .unzip();
    let late = lateness_ms(&sched, &sent);
    tail(&late).map_or_else(|| late.iter().copied().fold(0.0, f64::max), |t| t.value)
}

/// Runs `serve-open`.
///
/// # Errors
///
/// Propagates set-up, serving and replay errors.
pub fn run(args: &Args, fixture: &Fixture) -> BoxResult<Outcome> {
    if args.trace {
        traced(args, fixture)
    } else {
        timed(args, fixture)
    }
}

fn timed(args: &Args, fixture: &Fixture) -> BoxResult<Outcome> {
    let setup: Setup<ShardServer<DeviceVgg>> = timed_setup(fixture, |exp| {
        start(deploy_device(exp, args.seed, ENGINE_THREADS)?, args.seed, 0)
    })?;
    let setup_s = setup.setup_s();
    let exp = setup.exp;
    let (slices, _model, w) = run_slices(args, &exp, setup.built)?;
    let (checks, _) = output_checks(args, &exp, &slices, REPEAT_THREADS)?;

    let rates = by_rate(&slices);
    let report = rates
        .iter()
        .find(|r| r.rate == REPORT_RATE)
        .ok_or("no slice at the report rate")?;
    let lat = report.latencies_ms();
    let overload = rates
        .iter()
        .find(|r| r.rate == OVERLOAD_RATE)
        .ok_or("no slice at the overload rate")?;
    let max_rate = rates
        .iter()
        .filter(|p| p.passes())
        .map(|p| p.rate)
        .fold(0.0, f64::max);
    let attempted: u64 = slices.iter().map(|s| s.requests.len() as u64).sum();
    let missed: u64 = slices
        .iter()
        .map(|s| s.count(|f| !matches!(f, Fate::Completed { .. })))
        .sum();
    let failed: u64 = slices.iter().map(|s| s.count(|f| *f == Fate::Failed)).sum();
    let lag = lag_tail_ms(&slices);
    let per_rate: Vec<String> = rates
        .iter()
        .map(|p| {
            let l = p.latencies_ms();
            format!(
                "{{\"rate\": {}, \"sent\": {}, \"misses\": {}, \"backlog\": {}, \"passes\": {}, \"p50_ms\": {}, \"tail_ms\": {}, \"goodput_rps\": {}}}",
                p.rate,
                p.sent(),
                p.misses(),
                p.backlog(),
                p.passes(),
                json_num(median(&l)),
                json_num(tail(&l).map_or(f64::NAN, |t| t.value)),
                json_num(p.goodput_rps())
            )
        })
        .collect();
    let mut record = vec![
        ("rates".to_string(), format!("[{}]", per_rate.join(", "))),
        ("latency_limit_ms".into(), LIMIT_MS.to_string()),
        ("serve_max_rate_rps".into(), max_rate.to_string()),
        (
            "serve_fail_pct".into(),
            (missed as f64 / attempted.max(1) as f64 * 100.0).to_string(),
        ),
        ("setup_s_reps".into(), format!("{:?}", setup.total_s)),
    ];
    // at REPORT_RATE, timed from each request's scheduled send
    record.extend(latency_record(&lat));
    Ok(Outcome {
        metrics: end_to_end(
            setup_s,
            overload.goodput_rps(),
            w.cpu_s * 1e3 / attempted.max(1) as f64,
            accuracy_pct(&slices),
        ),
        attempted,
        failed,
        checks,
        window: w,
        engine_threads: ENGINE_THREADS,
        lag_ms_tail: Some(lag),
        record,
    })
}

/// The traced run: the server fronts the traced copy, so every batch's
/// service time and layer spans are recorded; the bitwise replay on
/// `DeviceVgg` then proves the copy served exactly what the library
/// would have.
fn traced(args: &Args, fixture: &Fixture) -> BoxResult<Outcome> {
    let setup: Setup<ShardServer<TracedVgg>> = timed_setup(fixture, |exp| {
        start(deploy_traced(exp, args.seed)?, args.seed, 0)
    })?;
    let exp = setup.exp;
    let parity = parity_probe(&exp, args.seed)?;
    let (slices, model, w) = run_slices(args, &exp, setup.built)?;
    let (mut checks, replay_s) = output_checks(args, &exp, &slices, ENGINE_THREADS)?;
    checks.insert(0, parity);
    write_trace(args, &model.tracer);

    let forwards: Vec<f64> = model
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "forward")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let mut queue_wait = Vec::new();
    let mut rows = Vec::new();
    for ph in &slices {
        let latency: std::collections::HashMap<u64, f64> = ph
            .requests
            .iter()
            .filter_map(|r| match &r.fate {
                Fate::Completed { id, .. } => Some((*id, r.latency_ms())),
                _ => None,
            })
            .collect();
        let batches = ph.log.events().iter().filter_map(|e| match e {
            LogEvent::Batch { ids } => Some(ids),
            _ => None,
        });
        for (k, ids) in batches.enumerate() {
            let service = forwards
                .get(ph.first_batch + k)
                .copied()
                .unwrap_or(f64::NAN);
            rows.push(ids.len() as f64);
            queue_wait.extend(
                ids.iter()
                    .filter_map(|id| latency.get(id))
                    .map(|l| l - service),
            );
        }
    }
    checks.push(Check {
        name: "batches_match_spans",
        ok: rows.len() == forwards.len(),
        detail: format!(
            "{} logged batches, {} forward spans",
            rows.len(),
            forwards.len()
        ),
    });
    let sum = |f: fn(&ServeStats) -> u64| slices.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let mut per = PerLayer::default();
    per.set_model(&model);
    per.set("core.deploy_ms", median(&setup.build_s) * 1e3);
    per.set("serve.queue_wait_ms_p50", median(&queue_wait));
    per.set(
        "serve.queue_wait_ms_tail",
        tail(&queue_wait).map_or(f64::NAN, |t| t.value),
    );
    per.set("serve.service_ms_per_batch_p50", median(&forwards));
    per.set("serve.batch_rows_mean", mean(&rows));
    per.set("serve.admitted", sum(|s| s.admitted));
    per.set("serve.completed", sum(|s| s.completed));
    per.set("serve.expired", sum(|s| s.expired));
    per.set(
        "serve.rejected",
        sum(|s| s.rejected_queue_full + s.rejected_shed),
    );
    per.set("serve.failed", sum(|s| s.failed));
    per.set(
        "serve.max_queue_depth",
        slices
            .iter()
            .map(|s| s.stats.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    let lag = lag_tail_ms(&slices);
    per.set("loadgen.lag_ms_tail", lag);
    per.set("host.steal_pct", w.steal_pct);
    per.set("host.cpu_util_pct", w.host_util_pct);
    // the replay re-executes exactly the served batches on DeviceVgg at
    // the same thread count: the copy's extra time is the tracing cost
    let traced_s = forwards.iter().sum::<f64>() / 1e3;
    per.set(
        "trace.overhead_pct",
        (traced_s - replay_s) / replay_s * 100.0,
    );
    Ok(Outcome {
        metrics: per.into_metrics(),
        attempted: slices.iter().map(|s| s.requests.len() as u64).sum(),
        failed: slices.iter().map(|s| s.count(|f| *f == Fate::Failed)).sum(),
        checks,
        window: w,
        engine_threads: ENGINE_THREADS,
        lag_ms_tail: Some(lag),
        record: vec![("spans".into(), model.tracer.spans().len().to_string())],
    })
}

/// One batch through `DeviceVgg` and the traced copy from identical
/// states, before the traced run records anything.
fn parity_probe(exp: &Experiment, seed: u64) -> BoxResult<Check> {
    let (vgg, params) = exp.model();
    let cfg = Profile::RealisticP8.config(exp, ENGINE_THREADS);
    let (mut ra, mut rb) = (device_rng(seed), device_rng(seed));
    let mut device = DeviceVgg::deploy(vgg, params, &cfg, &mut ra)?;
    let mut copy = TracedVgg::deploy(vgg, params, &cfg, &mut rb)?;
    let (x, _) = exp.test_set().batch(0, MAX_BATCH)?;
    let (la, sa) = device.forward(&x, &mut ra)?;
    let (lb, sb) = copy.forward(&x, &mut rb)?;
    let ok = la
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .eq(lb.as_slice().iter().map(|v| v.to_bits()))
        && sa == sb
        && ra.state_bytes() == rb.state_bytes();
    Ok(Check {
        name: "traced_copy_parity",
        ok,
        detail: format!("one {MAX_BATCH}-image batch against DeviceVgg::forward"),
    })
}
