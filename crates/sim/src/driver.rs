//! The time-source seam between the event queue and whatever clock paces
//! it.
//!
//! [`crate::engine::Sim`] orders events on the virtual clock and has no
//! opinion about how fast that clock runs against the wall. A
//! [`TimeDriver`] supplies that opinion: the loop draining the queue asks
//! the driver how long to actually wait before an event at virtual
//! instant `t` may run. The two implementations are
//!
//! * [`VirtualDriver`] (here) — never waits; virtual time is decoupled
//!   from the wall and a run executes as fast as the hardware allows.
//!   This is the semantics every simulation in this repository has always
//!   had: `Sim::run` is exactly a loop over a `VirtualDriver` that always
//!   answers "due now".
//! * `Monotonic` (in the `dash-rt` crate) — maps virtual nanoseconds 1:1
//!   onto a `std::time::Instant` anchor, so an event scheduled at
//!   `t = 5 ms` becomes due five wall milliseconds after the run started.
//!
//! Protocol code never sees the driver: timers are scheduled in virtual
//! time either way, which is what lets one protocol stack run under both
//! backends unmodified.

use std::time::{Duration, Instant};

use crate::time::SimTime;

/// Paces an event loop against the virtual clock.
///
/// Implementations must be *monotone*: once [`TimeDriver::now`] has
/// returned some virtual instant, it never returns an earlier one, and an
/// event reported due (zero [`TimeDriver::wait_budget`]) never becomes
/// not-due again.
pub trait TimeDriver {
    /// How long the caller must actually wait, starting now, before an
    /// event scheduled at virtual instant `t` is due. [`Duration::ZERO`]
    /// means "run it".
    ///
    /// Virtual drivers always answer zero; asking advances their notion
    /// of [`TimeDriver::now`] to at least `t`.
    fn wait_budget(&mut self, t: SimTime) -> Duration;

    /// The wall instant at which virtual instant `t` falls due, for
    /// drivers that pace on wall time at all. Purely-virtual drivers
    /// return `None`.
    fn wall_deadline(&self, t: SimTime) -> Option<Instant>;

    /// The driver's current position on the virtual clock (monotone).
    ///
    /// For a virtual driver this is the high-water mark of instants it
    /// has been asked about; for a wall-clock driver it is the wall time
    /// elapsed since the run's anchor, expressed in virtual nanoseconds.
    fn now(&mut self) -> SimTime;
}

/// The as-fast-as-possible driver: every instant is already due.
///
/// Running a [`crate::engine::Sim`] under this driver is byte-for-byte
/// the engine's native `run` semantics — the driver is pure bookkeeping
/// and never blocks.
#[derive(Debug, Default)]
pub struct VirtualDriver {
    /// High-water mark of instants asked about.
    hwm: SimTime,
}

impl VirtualDriver {
    /// A fresh driver at virtual time zero.
    pub fn new() -> Self {
        VirtualDriver { hwm: SimTime::ZERO }
    }
}

impl TimeDriver for VirtualDriver {
    fn wait_budget(&mut self, t: SimTime) -> Duration {
        if t > self.hwm {
            self.hwm = t;
        }
        Duration::ZERO
    }

    fn wall_deadline(&self, _t: SimTime) -> Option<Instant> {
        None
    }

    fn now(&mut self) -> SimTime {
        self.hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_driver_never_waits_and_tracks_high_water() {
        let mut d = VirtualDriver::new();
        assert_eq!(d.now(), SimTime::ZERO);
        assert_eq!(d.wait_budget(SimTime::from_nanos(500)), Duration::ZERO);
        assert_eq!(d.now(), SimTime::from_nanos(500));
        // Asking about an earlier instant never rolls the clock back.
        assert_eq!(d.wait_budget(SimTime::from_nanos(100)), Duration::ZERO);
        assert_eq!(d.now(), SimTime::from_nanos(500));
        assert!(d.wall_deadline(SimTime::from_nanos(1)).is_none());
    }
}
