//! Deadline clocks: virtual (simulation-exact) and monotonic
//! (wall-clock) time sources for expiry decisions.
//!
//! Everything that influences *model state or RNG consumption* — batch
//! composition, latency accounting, the energy model — always runs on
//! the virtual clock derived from `EnergyModel::latency_ns`, and the
//! request log records that virtual timeline. The deadline clock only
//! decides *whether a request is overdue* at batch pickup and whether a
//! completion is flagged late. Under [`ClockMode::Virtual`] the two
//! clocks coincide (the PR 7 behaviour, and the only mode the
//! discrete-event drivers accept); under [`ClockMode::Monotonic`] the
//! threaded servers expire against real elapsed nanoseconds instead, so
//! wall-clock SLOs shed genuinely stale work. Replay is unaffected
//! either way: it re-executes the logged batch compositions, and expiry
//! consumes no RNG.

use std::time::Instant;

/// A time source for deadline decisions.
///
/// `virtual_ns` is the executor's current virtual clock; implementations
/// either echo it (virtual mode) or substitute their own notion of now.
pub trait ServeClock: Send {
    /// The instant "now" used for expiry checks and late flags, in ns.
    fn deadline_now_ns(&mut self, virtual_ns: u64) -> u64;
}

/// The virtual deadline clock: deadlines expire on the same
/// energy-model-driven timeline that orders batches. Deterministic.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock;

impl ServeClock for VirtualClock {
    fn deadline_now_ns(&mut self, virtual_ns: u64) -> u64 {
        virtual_ns
    }
}

/// The monotonic wall clock: deadlines expire against real elapsed time
/// since the clock was created (server start). Inherently jittery —
/// only the threaded server uses it, and only for expiry decisions.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeClock for MonotonicClock {
    fn deadline_now_ns(&mut self, _virtual_ns: u64) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Which deadline clock a deployment runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Deadlines expire on the virtual timeline (default; required by
    /// the discrete-event drivers).
    #[default]
    Virtual,
    /// Deadlines expire on real elapsed time (threaded servers only).
    Monotonic,
}

impl ClockMode {
    /// Builds the clock for this mode.
    pub(crate) fn build(self) -> Box<dyn ServeClock> {
        match self {
            ClockMode::Virtual => Box::new(VirtualClock),
            ClockMode::Monotonic => Box::new(MonotonicClock::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_echoes_the_virtual_timeline() {
        let mut c = VirtualClock;
        assert_eq!(c.deadline_now_ns(0), 0);
        assert_eq!(c.deadline_now_ns(123_456), 123_456);
    }

    #[test]
    fn monotonic_clock_advances_independently_of_virtual_time() {
        let mut c = MonotonicClock::new();
        let a = c.deadline_now_ns(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.deadline_now_ns(0);
        assert!(b > a, "wall time must advance regardless of virtual_ns");
    }

    #[test]
    fn mode_builds_the_matching_clock() {
        let mut v = ClockMode::Virtual.build();
        assert_eq!(v.deadline_now_ns(77), 77);
        let mut m = ClockMode::Monotonic.build();
        // a fresh monotonic clock reads near zero, never the virtual time
        assert!(m.deadline_now_ns(u64::MAX) < 1_000_000_000);
    }
}
