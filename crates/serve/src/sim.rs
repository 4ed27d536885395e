//! Discrete-event load simulation over a [`ShardSet`].
//!
//! [`simulate_shards`] drives a set of N ≥ 1 shards through a timed
//! arrival schedule while a [`ChaosScript`] injects faults, entirely in
//! virtual time: requests arrive at their scheduled timestamps, batches
//! advance each shard's clock by the energy model's latency accounting,
//! and admission sees exactly the queue depths and health a live
//! [`ShardServer`](crate::ShardServer) would at that virtual instant.
//! Because no wall clock is involved, a simulation is a pure function of
//! `(models, config, policy, schedule, script)` — the offered-load
//! sweeps of `bench_serve` and the queue and shard proptests all run on
//! it. A single deployment is simply a one-model set.

use std::collections::HashMap;

use crate::chaos::ChaosScript;
use crate::config::ServeConfig;
use crate::executor::{Pending, Response};
use crate::model::ServeModel;
use crate::router::RoutePolicy;
use crate::shard::{ShardOutcome, ShardRecord, ShardSet};
use crate::{Result, ServeError, ServeStats};

/// One scheduled client request.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalEvent {
    /// Virtual arrival time (ns); the schedule must be non-decreasing.
    pub at_ns: u64,
    /// Flattened input sample.
    pub input: Vec<f32>,
    /// Deadline budget (virtual ns); `None` uses the config default.
    pub deadline_ns: Option<u64>,
}

/// Outcome of one scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Position in the input schedule.
    pub index: usize,
    /// Assigned request id, if the request passed admission.
    pub id: Option<u64>,
    /// The response, or the typed rejection/failure.
    pub result: Result<Response>,
}

/// Final state of a simulation.
pub struct ShardSimReport<M> {
    /// Set-level counters; `stats.accounted()` holds across shards.
    pub stats: ServeStats,
    /// Per-shard teardown records (model, log, shard-local stats,
    /// final status) — feed the logs to [`crate::replay_shards`].
    pub shards: Vec<ShardRecord<M>>,
    /// Per-scheduled-request outcomes, in schedule order.
    pub outcomes: Vec<SimOutcome>,
}

/// Runs a replicated `models` deployment (one model for a single
/// deployment) through `schedule` while `script` injects faults,
/// entirely in virtual time.
///
/// Model mutations reach the set only through the script, which names
/// its target shard explicitly. At a timeline tie, scripted actions
/// apply before arrivals. Each event instant starts by serving up to
/// that instant and one settle pass, so a quarantined shard recovers by
/// idle decay even without traffic.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for an unsorted schedule or a
/// non-virtual clock mode, and propagates construction errors;
/// per-request failures land in the outcomes, not here.
pub fn simulate_shards<M: ServeModel>(
    models: Vec<M>,
    config: ServeConfig,
    policy: RoutePolicy,
    schedule: &[ArrivalEvent],
    script: &ChaosScript,
) -> Result<ShardSimReport<M>> {
    if schedule.windows(2).any(|w| w[0].at_ns > w[1].at_ns) {
        return Err(ServeError::BadRequest(
            "arrival schedule must be sorted by at_ns".into(),
        ));
    }
    if config.clock != crate::clock::ClockMode::Virtual {
        return Err(ServeError::BadRequest(
            "simulation requires ClockMode::Virtual".into(),
        ));
    }
    let default_deadline = config.default_deadline_ns;
    let mut set = ShardSet::new(models, config, policy)?;
    let events = script.events();
    let mut outcomes: Vec<SimOutcome> = Vec::new();
    // schedule position of each admitted id, for outcome attribution
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let record = |outcomes: &mut Vec<SimOutcome>,
                  index_of: &HashMap<u64, usize>,
                  resolved: Vec<ShardOutcome>| {
        for (id, result) in resolved {
            let index = index_of.get(&id).copied().unwrap_or(usize::MAX);
            outcomes.push(SimOutcome {
                index,
                id: Some(id),
                result,
            });
        }
    };
    let (mut si, mut ci) = (0usize, 0usize);
    while si < schedule.len() || ci < events.len() {
        let t = match (schedule.get(si), events.get(ci)) {
            (Some(a), Some(c)) => a.at_ns.min(c.at_ns),
            (Some(a), None) => a.at_ns,
            (None, Some(c)) => c.at_ns,
            (None, None) => break,
        };
        let resolved = set.serve_until(Some(t));
        record(&mut outcomes, &index_of, resolved);
        while ci < events.len() && events[ci].at_ns <= t {
            // a rejected action (bad index, dead target) is already
            // counted by the set as a chaos failure — never silent
            if let Ok(resolved) = set.apply(&events[ci].action) {
                record(&mut outcomes, &index_of, resolved);
            }
            ci += 1;
        }
        while si < schedule.len() && schedule[si].at_ns <= t {
            let arrival = &schedule[si];
            let id = set.next_request_id();
            let pending = Pending {
                id,
                input: arrival.input.clone(),
                arrival_ns: arrival.at_ns,
                deadline_ns: arrival.deadline_ns.unwrap_or(default_deadline),
            };
            match set.submit(pending) {
                Ok(_) => {
                    index_of.insert(id, si);
                }
                Err(e) => outcomes.push(SimOutcome {
                    index: si,
                    id: None,
                    result: Err(e),
                }),
            }
            si += 1;
        }
    }
    let resolved = set.serve_until(None);
    record(&mut outcomes, &index_of, resolved);
    // nothing should remain queued after a full drain; resolve typed if
    // an invariant ever breaks rather than dropping silently
    let resolved = set.cancel_queued();
    record(&mut outcomes, &index_of, resolved);
    outcomes.sort_by_key(|o| o.index);
    let report = set.into_report();
    Ok(ShardSimReport {
        stats: report.stats,
        shards: report.shards,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosAction, ChaosEvent};
    use crate::model::LinearServeModel;
    use membit_tensor::{Rng, Tensor};
    use membit_xbar::{GuardPolicy, XbarConfig};

    fn model(seed: u64) -> LinearServeModel {
        let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
        LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(seed)).unwrap()
    }

    fn request(at_ns: u64, i: usize) -> ArrivalEvent {
        ArrivalEvent {
            at_ns,
            input: (0..3)
                .map(|j| (((i * 3 + j) % 5) as f32 / 2.0 - 1.0).clamp(-1.0, 1.0))
                .collect(),
            deadline_ns: None,
        }
    }

    /// One deployment through `schedule` with `actions` scripted on
    /// shard 0 at their instants.
    fn simulate_one(
        seed: u64,
        config: ServeConfig,
        schedule: &[ArrivalEvent],
        actions: Vec<(u64, ChaosAction)>,
    ) -> Result<ShardSimReport<LinearServeModel>> {
        let script = ChaosScript::new(
            actions
                .into_iter()
                .map(|(at_ns, action)| ChaosEvent { at_ns, action })
                .collect(),
        )?;
        simulate_shards(
            vec![model(seed)],
            config,
            RoutePolicy::default(),
            schedule,
            &script,
        )
    }

    #[test]
    fn spread_arrivals_all_complete() {
        let schedule: Vec<ArrivalEvent> = (0..8).map(|i| request(i as u64 * 10_000, i)).collect();
        let report = simulate_one(1, ServeConfig::standard(1), &schedule, vec![]).unwrap();
        assert!(report.stats.accounted());
        assert_eq!(report.stats.completed, 8);
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
        // spread arrivals leave the clock at least at the last arrival
        assert!(report.stats.max_queue_depth >= 1);
    }

    #[test]
    fn burst_beyond_capacity_is_rejected_typed() {
        let mut cfg = ServeConfig::standard(2);
        cfg.queue_capacity = 4;
        let schedule: Vec<ArrivalEvent> = (0..10).map(|i| request(0, i)).collect();
        let report = simulate_one(2, cfg, &schedule, vec![]).unwrap();
        let full = report
            .outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(ServeError::QueueFull { .. })))
            .count();
        assert_eq!(full, 6, "4 admitted, 6 bounced");
        assert_eq!(report.stats.rejected_queue_full, 6);
        assert_eq!(report.stats.completed, 4);
        assert!(report.stats.accounted());
    }

    #[test]
    fn unsorted_schedule_is_rejected() {
        let schedule = vec![request(100, 0), request(0, 1)];
        assert!(matches!(
            simulate_one(3, ServeConfig::standard(3), &schedule, vec![]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn chaos_between_requests_is_applied_in_order() {
        // the upset fires after the first request's batch and before
        // the second request arrives
        let schedule = vec![request(0, 0), request(1, 1)];
        let upset = ChaosAction::Upset {
            shard: 0,
            rate: 0.25,
        };
        let report =
            simulate_one(4, ServeConfig::standard(4), &schedule, vec![(1, upset)]).unwrap();
        assert_eq!(report.stats.chaos_events, 1);
        assert!(report.stats.chaos_upsets > 0);
        assert_eq!(report.stats.completed, 2);
    }

    #[test]
    fn reconfigure_swaps_encoding_and_replays_bitwise() {
        let config = ServeConfig::standard(6);
        let schedule = vec![request(0, 0), request(1, 1)];
        let swap = ChaosAction::Reconfigure {
            shard: 0,
            pulses: vec![12],
        };
        let report = simulate_one(6, config.clone(), &schedule, vec![(1, swap)]).unwrap();
        assert_eq!(report.stats.reconfigures, 1);
        assert_eq!(report.stats.completed, 2);
        assert!(report.stats.accounted());
        // the log records the swap between the two batches, and replay
        // against a freshly programmed model is bitwise identical
        let replayed = crate::replay_shards(
            &mut [model(6)],
            6,
            &config.retry,
            &[report.shards[0].log.clone()],
        )
        .unwrap();
        let mut live: Vec<(u64, Vec<f32>)> = report
            .outcomes
            .iter()
            .filter_map(|o| {
                o.result
                    .as_ref()
                    .ok()
                    .map(|r| (o.id.unwrap(), r.output.clone()))
            })
            .collect();
        live.sort_by_key(|(id, _)| *id);
        assert_eq!(live.len(), replayed.len());
        for ((id_a, row_a), (id_b, row_b)) in live.iter().zip(&replayed) {
            assert_eq!(id_a, id_b);
            let bits_a: Vec<u32> = row_a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = row_b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "request {id_a} diverged in replay");
        }
    }

    #[test]
    fn rejected_reconfigure_keeps_serving_on_old_encoding() {
        let schedule = vec![request(0, 0), request(1, 1)];
        // zero pulses: the model rejects, the swap must not stick
        let swap = ChaosAction::Reconfigure {
            shard: 0,
            pulses: vec![0],
        };
        let report = simulate_one(7, ServeConfig::standard(7), &schedule, vec![(1, swap)]).unwrap();
        assert_eq!(report.stats.reconfigures, 0);
        assert_eq!(report.stats.completed, 2);
        // nothing was logged, so the log replays without the bad event
        assert!(!report.shards[0]
            .log
            .events()
            .iter()
            .any(|e| matches!(e, crate::log::LogEvent::Reconfigure { .. })));
    }

    #[test]
    fn tight_deadlines_expire_under_backlog() {
        let mut cfg = ServeConfig::standard(5);
        cfg.max_batch = 1;
        cfg.block_align = 1;
        // all arrive at t=0 with a budget shorter than one batch latency:
        // the first request is served (expiry is checked at pickup, when
        // the clock still reads 0), the rest expire as the clock passes
        // their budget
        let schedule: Vec<ArrivalEvent> = (0..6)
            .map(|_| ArrivalEvent {
                at_ns: 0,
                input: vec![0.5, -0.5, 1.0],
                deadline_ns: Some(1),
            })
            .chain(std::iter::once(request(1_000_000, 6)))
            .collect();
        let report = simulate_one(5, cfg, &schedule, vec![]).unwrap();
        assert!(report.stats.expired > 0, "{:?}", report.stats);
        assert!(report.stats.accounted());
        let expired = report
            .outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(ServeError::DeadlineExceeded { .. })))
            .count();
        assert_eq!(expired as u64, report.stats.expired);
    }
}
