//! Flow-control building blocks (paper §4.4).
//!
//! The paper's central observation: RMS capacity enforcement, receiver flow
//! control, and sender flow control are *separate* mechanisms, each needed
//! only in specific situations — "unnecessary mechanisms can be avoided."
//! This module provides each as an independent, composable piece:
//!
//! - [`RateLimiter`] — rate-based capacity enforcement: "using timers, the
//!   sender ensures that during any time period of duration `A + C·B`, the
//!   number of bytes sent does not exceed `C`."
//! - [`AckWindow`] — acknowledgement-based capacity enforcement: at most
//!   `C` bytes outstanding, clocked by (fast) acknowledgements.
//! - [`ReceiverWindow`] — receiver flow control: stop when the advertised
//!   receive-buffer window is exhausted.

use std::collections::VecDeque;

use dash_sim::time::{SimDuration, SimTime};
use rms_core::params::RmsParams;

/// Which capacity-enforcement mechanism a transport uses (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityEnforcement {
    /// No mechanism: correct only if the sender is known slow; cheapest.
    #[default]
    None,
    /// Timer-driven (pessimistic: assumes maximum delay for all messages).
    RateBased,
    /// Acknowledgement-clocked (higher throughput, costs reverse traffic).
    AckBased,
}

/// Rate-based capacity enforcement: a sliding-window byte budget of `C`
/// bytes per `A + C·B` period.
#[derive(Debug)]
pub struct RateLimiter {
    capacity: u64,
    period: SimDuration,
    sent: VecDeque<(SimTime, u64)>,
    in_window: u64,
}

impl RateLimiter {
    /// Build from the stream's RMS parameters.
    pub fn new(params: &RmsParams) -> Self {
        RateLimiter {
            capacity: params.capacity,
            period: params.delay.bound_for(params.capacity),
            sent: VecDeque::new(),
            in_window: 0,
        }
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&(t, bytes)) = self.sent.front() {
            if now.saturating_since(t) >= self.period {
                self.in_window -= bytes;
                self.sent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Can `bytes` be sent at `now` without exceeding the budget?
    pub fn may_send(&mut self, now: SimTime, bytes: u64) -> bool {
        self.expire(now);
        self.in_window + bytes <= self.capacity
    }

    /// Record a send of `bytes` at `now`.
    pub fn record_send(&mut self, now: SimTime, bytes: u64) {
        self.expire(now);
        self.sent.push_back((now, bytes));
        self.in_window += bytes;
    }

    /// When the next budget becomes available, if currently blocked.
    pub fn next_release(&self) -> Option<SimTime> {
        self.sent.front().map(|&(t, _)| t + self.period)
    }

    /// Bytes consumed in the current window.
    pub fn in_window(&self) -> u64 {
        self.in_window
    }
}

/// Acknowledgement-based capacity enforcement: tracks outstanding
/// (unacknowledged) bytes against the RMS capacity.
#[derive(Debug)]
pub struct AckWindow {
    capacity: u64,
    outstanding: u64,
    unacked: VecDeque<(u64, u64)>, // (seq, bytes)
}

impl AckWindow {
    /// A window of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        AckWindow {
            capacity,
            outstanding: 0,
            unacked: VecDeque::new(),
        }
    }

    /// Can `bytes` more be sent?
    pub fn may_send(&self, bytes: u64) -> bool {
        self.outstanding + bytes <= self.capacity
    }

    /// Record a send.
    pub fn record_send(&mut self, seq: u64, bytes: u64) {
        self.unacked.push_back((seq, bytes));
        self.outstanding += bytes;
    }

    /// Process a cumulative acknowledgement of everything up to and
    /// including `seq`. Returns bytes released.
    pub fn ack_through(&mut self, seq: u64) -> u64 {
        let mut released = 0;
        while let Some(&(s, bytes)) = self.unacked.front() {
            if s <= seq {
                released += bytes;
                self.unacked.pop_front();
            } else {
                break;
            }
        }
        self.outstanding -= released;
        released
    }

    /// Bytes currently outstanding.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }
}

/// Receiver flow control: the sender-side view of the receiver's buffer.
///
/// The receiver advertises `buffer_total` and the cumulative sequence it
/// has *consumed*; the sender may keep at most
/// `buffer_total − (sent − consumed)` more bytes in flight toward the
/// buffer.
#[derive(Debug)]
pub struct ReceiverWindow {
    buffer_total: u64,
    sent_bytes: u64,
    consumed_bytes: u64,
}

impl ReceiverWindow {
    /// A window over a receive buffer of `buffer_total` bytes.
    pub fn new(buffer_total: u64) -> Self {
        ReceiverWindow {
            buffer_total,
            sent_bytes: 0,
            consumed_bytes: 0,
        }
    }

    /// Bytes of buffer believed free.
    pub fn available(&self) -> u64 {
        self.buffer_total
            .saturating_sub(self.sent_bytes - self.consumed_bytes)
    }

    /// Can `bytes` more be sent?
    pub fn may_send(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Record a send.
    pub fn record_send(&mut self, bytes: u64) {
        self.sent_bytes += bytes;
    }

    /// Process a window update: the receiver has consumed `total` bytes
    /// cumulatively.
    pub fn update_consumed(&mut self, total: u64) {
        self.consumed_bytes = self.consumed_bytes.max(total.min(self.sent_bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::delay::DelayBound;

    fn params(capacity: u64, fixed_ms: u64, per_byte_ns: u64) -> RmsParams {
        RmsParams::builder(capacity, capacity.min(1000))
            .delay(DelayBound::best_effort_with(
                SimDuration::from_millis(fixed_ms),
                SimDuration::from_nanos(per_byte_ns),
            ))
            .build()
            .unwrap()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn rate_limiter_period_is_a_plus_cb() {
        // A = 10ms, B = 1000ns, C = 1000 -> period = 10ms + 1ms = 11ms.
        let rl = RateLimiter::new(&params(1000, 10, 1000));
        assert_eq!(rl.period, SimDuration::from_millis(11));
    }

    #[test]
    fn rate_limiter_blocks_at_capacity_and_releases() {
        let mut rl = RateLimiter::new(&params(1000, 10, 0));
        assert!(rl.may_send(t(0), 600));
        rl.record_send(t(0), 600);
        assert!(rl.may_send(t(1), 400));
        rl.record_send(t(1), 400);
        assert_eq!(rl.in_window(), 1000);
        assert!(!rl.may_send(t(2), 1));
        // First send expires after the 10ms period.
        assert!(rl.may_send(t(10), 600));
        assert_eq!(rl.next_release(), Some(t(11))); // second release
    }

    #[test]
    fn rate_limiter_is_pessimistic() {
        // Even if real delivery is instant, the limiter waits the full
        // period — the paper's stated downside of the rate-based approach.
        let mut rl = RateLimiter::new(&params(100, 100, 0));
        rl.record_send(t(0), 100);
        assert!(!rl.may_send(t(50), 1));
        assert!(rl.may_send(t(100), 100));
    }

    #[test]
    fn ack_window_tracks_outstanding() {
        let mut w = AckWindow::new(1000);
        assert!(w.may_send(1000));
        w.record_send(0, 400);
        w.record_send(1, 400);
        assert_eq!(w.outstanding(), 800);
        assert!(!w.may_send(300));
        assert_eq!(w.ack_through(0), 400);
        assert!(w.may_send(300));
        assert_eq!(w.ack_through(1), 400);
        assert!(w.outstanding() == 0);
    }

    #[test]
    fn ack_window_cumulative_ack() {
        let mut w = AckWindow::new(10_000);
        for s in 0..5 {
            w.record_send(s, 100);
        }
        assert_eq!(w.ack_through(3), 400);
        assert_eq!(w.outstanding(), 100);
        // Re-acking is idempotent.
        assert_eq!(w.ack_through(3), 0);
    }

    #[test]
    fn receiver_window_blocks_on_full_buffer() {
        let mut w = ReceiverWindow::new(500);
        assert!(w.may_send(500));
        w.record_send(500);
        assert_eq!(w.available(), 0);
        assert!(!w.may_send(1));
        w.update_consumed(200);
        assert_eq!(w.available(), 200);
        assert!(w.may_send(200));
        assert!(!w.may_send(201));
    }

    #[test]
    fn receiver_window_updates_are_monotone() {
        let mut w = ReceiverWindow::new(100);
        w.record_send(100);
        w.update_consumed(60);
        w.update_consumed(30); // stale update ignored
        assert_eq!(w.available(), 60);
        // Updates are clamped to what was actually sent.
        w.update_consumed(1_000_000);
        assert_eq!(w.available(), 100);
    }

    #[test]
    fn zero_window_stalls_and_resumes() {
        // Fill the advertised buffer exactly: the window goes to zero and
        // every nonzero send must stall until a consume update reopens it.
        let mut w = ReceiverWindow::new(300);
        w.record_send(300);
        assert_eq!(w.available(), 0);
        assert!(!w.may_send(1));
        // A zero-byte probe is always admissible on a zero window.
        assert!(w.may_send(0));
        // A consume update of a single byte resumes exactly one byte.
        w.update_consumed(1);
        assert_eq!(w.available(), 1);
        assert!(w.may_send(1));
        assert!(!w.may_send(2));
        w.record_send(1);
        assert_eq!(w.available(), 0);
        // Full drain reopens the whole buffer.
        w.update_consumed(301);
        assert_eq!(w.available(), 300);
    }

    #[test]
    fn zero_capacity_receiver_window_never_opens() {
        // A receiver advertising no buffer at all: permanent stall for any
        // payload, without underflow on spurious updates.
        let mut w = ReceiverWindow::new(0);
        assert!(!w.may_send(1));
        w.update_consumed(50);
        assert!(!w.may_send(1));
        assert_eq!(w.available(), 0);
    }

    #[test]
    fn rate_limiter_admits_exactly_capacity_and_releases_on_the_boundary() {
        // A = 10ms, B = 0 -> period exactly 10ms.
        let mut rl = RateLimiter::new(&params(1000, 10, 0));
        // One send of exactly C bytes is admissible...
        assert!(rl.may_send(t(0), 1000));
        rl.record_send(t(0), 1000);
        // ...and one more byte is not, right up to the period boundary.
        assert!(!rl.may_send(t(0), 1));
        assert!(!rl.may_send(t(9), 1));
        // At exactly t0 + period the window expires (>=, not >): the full
        // budget is available again in the same instant.
        assert_eq!(rl.next_release(), Some(t(10)));
        assert!(rl.may_send(t(10), 1000));
        assert_eq!(rl.in_window(), 0);
    }

    #[test]
    fn ack_window_admits_exactly_capacity() {
        let mut w = AckWindow::new(1000);
        w.record_send(0, 999);
        // The last byte of capacity is admissible, the byte after is not.
        assert!(w.may_send(1));
        w.record_send(1, 1);
        assert!(!w.may_send(1));
        assert!(w.may_send(0));
        assert_eq!(w.outstanding(), 1000);
    }

    #[test]
    fn window_update_racing_stream_end_is_harmless() {
        // A stream tears down while its last window update / ack is still
        // in flight. The sender-side structures must absorb late and
        // duplicate updates after the final send without underflow.
        let mut aw = AckWindow::new(500);
        aw.record_send(7, 200);
        aw.record_send(8, 300);
        // Peer acks everything (cumulative, possibly beyond the last seq it
        // actually saw) as it closes.
        assert_eq!(aw.ack_through(u64::MAX), 500);
        assert!(aw.outstanding() == 0);
        // The duplicate of that final ack arrives after the stream ended.
        assert_eq!(aw.ack_through(u64::MAX), 0);
        assert!(aw.outstanding() == 0);
        assert!(aw.may_send(500));

        let mut rw = ReceiverWindow::new(400);
        rw.record_send(400);
        // Final consume update races the close: clamped to bytes sent.
        rw.update_consumed(u64::MAX);
        assert_eq!(rw.available(), 400);
        // A stale pre-close update arriving afterwards cannot regress it.
        rw.update_consumed(10);
        assert_eq!(rw.available(), 400);
    }
}
