//! Client-side response handles for the live
//! [`ShardServer`](crate::ShardServer).
//!
//! Clients [`ShardServer::submit`](crate::ShardServer::submit) from any
//! number of threads; the single scheduler thread that owns the
//! [`ShardSet`](crate::ShardSet) resolves each admitted request's
//! [`Handle`] exactly once — with a response or a typed error, including
//! across a kill. Nothing is dropped after admission.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::executor::Response;
use crate::Result;

/// One-shot response slot a client blocks on.
pub(crate) struct Slot {
    cell: Mutex<Option<Result<Response>>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Self {
        Self {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, outcome: Result<Response>) {
        let mut cell = lock_recover(&self.cell);
        *cell = Some(outcome);
        self.cv.notify_all();
    }
}

/// A submitted request's claim ticket.
pub struct Handle {
    id: u64,
    slot: Arc<Slot>,
}

impl Handle {
    pub(crate) fn new(id: u64, slot: Arc<Slot>) -> Self {
        Self { id, slot }
    }

    /// The request id (dense, in submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request resolves, returning the response or the
    /// typed rejection.
    ///
    /// # Errors
    ///
    /// Returns whatever the serving loop resolved the request with:
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded),
    /// [`Closed`](crate::ServeError::Closed) (kill),
    /// [`Engine`](crate::ServeError::Engine), or the
    /// [`Shed`](crate::ServeError::Shed) /
    /// [`QueueFull`](crate::ServeError::QueueFull) of a routing decision
    /// taken after the submit was accepted.
    pub fn wait(self) -> Result<Response> {
        let mut cell = lock_recover(&self.slot.cell);
        loop {
            if let Some(outcome) = cell.take() {
                return outcome;
            }
            cell = match self.slot.cv.wait(cell) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosAction;
    use crate::config::ServeConfig;
    use crate::model::LinearServeModel;
    use crate::router::RoutePolicy;
    use crate::shard::ShardServer;
    use crate::ServeError;
    use membit_tensor::{Rng, Tensor};
    use membit_xbar::{GuardPolicy, XbarConfig};

    fn server(seed: u64, config: ServeConfig) -> ShardServer<LinearServeModel> {
        let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
        let model = LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(seed)).unwrap();
        ShardServer::start(vec![model], config, RoutePolicy::default()).unwrap()
    }

    fn payload(i: usize) -> Vec<f32> {
        (0..3)
            .map(|j| (((i * 3 + j) % 5) as f32 / 2.0 - 1.0).clamp(-1.0, 1.0))
            .collect()
    }

    #[test]
    fn serves_and_shuts_down_clean() {
        let server = server(1, ServeConfig::standard(1));
        let handles: Vec<Handle> = (0..6)
            .map(|i| server.submit(payload(i), None).unwrap())
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert_eq!(r.output.len(), 2);
        }
        let report = server.shutdown().unwrap();
        assert!(report.stats.accounted());
        assert_eq!(report.stats.completed, 6);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn wrong_sized_payload_rejected_at_submit() {
        let server = server(2, ServeConfig::standard(2));
        assert!(matches!(
            server.submit(vec![0.0; 5], None),
            Err(ServeError::BadRequest(_))
        ));
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.admitted, 0);
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let server = server(3, ServeConfig::standard(3));
        server.close(false);
        assert!(matches!(
            server.submit(payload(0), None),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn kill_resolves_every_handle() {
        // tiny batches so a backlog survives long enough to be killed
        let mut cfg = ServeConfig::standard(4);
        cfg.max_batch = 1;
        cfg.block_align = 1;
        let server = server(4, cfg);
        let handles: Vec<Handle> = (0..16)
            .map(|i| server.submit(payload(i), None).unwrap())
            .collect();
        let report = server.kill().unwrap();
        assert!(report.stats.accounted());
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(ServeError::Closed) => cancelled += 1,
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        assert_eq!(completed, report.stats.completed);
        assert_eq!(cancelled, report.stats.cancelled);
        assert_eq!(completed + cancelled, 16);
    }

    #[test]
    fn chaos_injection_is_ordered_with_requests() {
        let server = server(5, ServeConfig::standard(5));
        let h0 = server.submit(payload(0), None).unwrap();
        server
            .chaos(ChaosAction::Upset {
                shard: 0,
                rate: 0.3,
            })
            .unwrap();
        let h1 = server.submit(payload(1), None).unwrap();
        h0.wait().unwrap();
        h1.wait().unwrap();
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.chaos_events, 1);
        assert!(report.stats.chaos_upsets > 0);
        assert!(report.stats.accounted());
    }
}
