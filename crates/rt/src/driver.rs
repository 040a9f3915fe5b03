//! The wall-clock time driver: virtual nanoseconds mapped 1:1 onto a
//! [`std::time::Instant`] anchor.
//!
//! The mapping is fixed at construction — `wall(t) = anchor + t` and
//! `virtual(i) = i - anchor` — so it is trivially monotone and lossless
//! at nanosecond granularity for any virtual instant within the run
//! horizon (`Instant` arithmetic is exact at nanoseconds; a u64 of
//! nanoseconds holds ~584 years). Timers never fire early because the
//! scheduler only runs an event once [`TimeDriver::wait_budget`] reaches
//! zero, which by construction means the wall clock has passed the
//! event's mapped instant.

use std::time::{Duration, Instant};

use dash_sim::driver::TimeDriver;
use dash_sim::time::SimTime;

/// Paces virtual time against `std::time::Instant`: virtual instant `t`
/// falls due `t` nanoseconds of wall time after the anchor.
#[derive(Debug, Clone)]
pub struct Monotonic {
    anchor: Instant,
}

impl Monotonic {
    /// Anchor the run at the current wall instant: virtual zero is *now*.
    pub fn start() -> Self {
        Monotonic {
            anchor: Instant::now(),
        }
    }

    /// Anchor the run at an explicit instant (tests pin the mapping).
    pub fn anchored_at(anchor: Instant) -> Self {
        Monotonic { anchor }
    }

    /// The run's anchor instant (the wall position of virtual zero).
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// The wall instant at which virtual instant `t` falls due.
    pub fn wall_of(&self, t: SimTime) -> Instant {
        self.anchor + Duration::from_nanos(t.as_nanos())
    }

    /// The virtual instant corresponding to wall instant `i` (saturating
    /// to zero before the anchor).
    pub fn sim_of(&self, i: Instant) -> SimTime {
        SimTime::from_nanos(i.saturating_duration_since(self.anchor).as_nanos() as u64)
    }
}

impl TimeDriver for Monotonic {
    fn wait_budget(&mut self, t: SimTime) -> Duration {
        self.wall_of(t).saturating_duration_since(Instant::now())
    }

    fn wall_deadline(&self, t: SimTime) -> Option<Instant> {
        Some(self.wall_of(t))
    }

    fn now(&mut self) -> SimTime {
        self.sim_of(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_round_trips_at_nanosecond_granularity() {
        let d = Monotonic::start();
        for ns in [0u64, 1, 999, 1_000_000, 3_600_000_000_000] {
            let t = SimTime::from_nanos(ns);
            assert_eq!(d.sim_of(d.wall_of(t)), t);
        }
    }

    #[test]
    fn mapping_is_monotone() {
        let d = Monotonic::start();
        let mut prev = d.wall_of(SimTime::ZERO);
        for ns in [1u64, 2, 10, 1_000, 1_000_000, 1_000_000_000] {
            let w = d.wall_of(SimTime::from_nanos(ns));
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn instants_before_the_anchor_saturate_to_virtual_zero() {
        let anchor = Instant::now() + Duration::from_secs(1);
        let d = Monotonic::anchored_at(anchor);
        assert_eq!(d.sim_of(Instant::now()), SimTime::ZERO);
    }

    #[test]
    fn due_instants_have_zero_budget_and_future_ones_do_not() {
        // Anchor one second in the past: virtual 500 ms is already due,
        // virtual 10 s is not.
        let mut d = Monotonic::anchored_at(Instant::now() - Duration::from_secs(1));
        assert_eq!(
            d.wait_budget(SimTime::from_nanos(500_000_000)),
            Duration::ZERO
        );
        let b = d.wait_budget(SimTime::from_nanos(10_000_000_000));
        assert!(b > Duration::from_secs(8), "budget {b:?}");
        assert!(d.now() >= SimTime::from_nanos(1_000_000_000));
    }
}
