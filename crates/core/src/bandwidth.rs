//! The capacity/delay bandwidth identity (paper §2.2).
//!
//! "If `M` is the maximum message size, `D` is the maximum delay of a
//! message of size `M`, and `C` is the RMS capacity, then a client can send
//! a message of size `M` every `D·M/C` seconds without violating the
//! capacity rule ... This will provide a bandwidth of about `C/D` bytes per
//! second."
//!
//! These helpers compute the implied sustainable rate and the matching send
//! interval; experiment `e5_capacity` checks the identity end to end.

use dash_sim::time::SimDuration;

use crate::params::RmsParams;

/// The guaranteed-sustainable bandwidth implied by an RMS's parameters:
/// `C / D` bytes per second, where `D = delay bound of a maximum-size
/// message`. Returns 0.0 if the delay bound is zero (instantaneous delivery
/// means capacity never accumulates — effectively unbounded, but we report 0
/// to flag the degenerate configuration).
pub fn implied_bandwidth(params: &RmsParams) -> f64 {
    let d = params
        .delay
        .bound_for(params.max_message_size)
        .as_secs_f64();
    if d <= 0.0 {
        0.0
    } else {
        params.capacity as f64 / d
    }
}

/// The interval `D(M)·M/C` for messages of a particular size `M ≤ max`.
/// At this spacing, at most `C/M` messages (total size `C`) can be
/// outstanding, because everything older than `D(M)` has been delivered.
pub fn send_interval_for(params: &RmsParams, message_size: u64) -> SimDuration {
    let d = params.delay.bound_for(message_size);
    if params.capacity == 0 {
        return SimDuration::MAX;
    }
    // D * M / C with integer nanosecond arithmetic via u128.
    let ns = d.as_nanos() as u128 * message_size as u128 / params.capacity as u128;
    SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayBound;
    use crate::params::RmsParams;

    fn params(capacity: u64, mms: u64, fixed_ms: u64, per_byte_ns: u64) -> RmsParams {
        RmsParams::builder(capacity, mms)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(fixed_ms),
                SimDuration::from_nanos(per_byte_ns),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn implied_bandwidth_is_c_over_d() {
        // C = 100_000 bytes, D(1000) = 10ms -> 10 MB/s.
        let p = params(100_000, 1_000, 10, 0);
        assert!((implied_bandwidth(&p) - 1e7).abs() < 1.0);
    }

    #[test]
    fn send_interval_identity() {
        // D = 10ms, M = 1000, C = 100_000 -> interval = 0.1ms.
        let p = params(100_000, 1_000, 10, 0);
        let interval = send_interval_for(&p, p.max_message_size);
        assert_eq!(interval, SimDuration::from_micros(100));
        // Bandwidth = M / interval = C / D.
        let bw = 1_000.0 / interval.as_secs_f64();
        assert!((bw - implied_bandwidth(&p)).abs() < 1.0);
    }

    #[test]
    fn interval_respects_capacity_rule() {
        let p = params(10_000, 1_000, 5, 0);
        let interval = send_interval_for(&p, p.max_message_size);
        let d = p.delay.bound_for(p.max_message_size);
        // Messages sent in the last D seconds: D / interval; bytes = that * M
        // must not exceed C.
        let outstanding = (d.as_nanos() / interval.as_nanos()) * p.max_message_size;
        assert!(outstanding <= p.capacity);
        // And the spacing is tight: one more message would overflow.
        let with_one_more = outstanding + p.max_message_size;
        assert!(with_one_more > p.capacity);
    }

    #[test]
    fn per_byte_component_participates() {
        // B = 1us/byte, A = 0: D(1000) = 1ms. C = 2000 -> two messages a ms.
        let p = params(2_000, 1_000, 0, 1_000);
        assert_eq!(send_interval_for(&p, 1_000), SimDuration::from_micros(500));
    }

    #[test]
    fn degenerate_cases() {
        let p = params(1_000, 100, 0, 0); // zero delay bound
        assert_eq!(implied_bandwidth(&p), 0.0);
        assert_eq!(send_interval_for(&p, 100), SimDuration::ZERO);
    }

    #[test]
    fn smaller_messages_send_proportionally_more_often() {
        let p = params(100_000, 1_000, 10, 0);
        let full = send_interval_for(&p, 1_000);
        let half = send_interval_for(&p, 500);
        assert_eq!(full.as_nanos(), 2 * half.as_nanos());
    }
}
