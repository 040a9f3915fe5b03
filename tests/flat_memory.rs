//! Memory flat after warm-up: once a stream is running, the stack holds no
//! state that grows with the number of messages it has carried.
//!
//! A per-message sample reservoir anywhere in the stack (one `f64` per
//! delivery, per packet or per CPU job) grows the live heap by tens of KiB
//! over the measured frames of any leg and fails the bound. The harness
//! is in `tests/steady/mod.rs`.

mod steady;

use steady::{legs, steady, MEASURED_FRAMES};

/// Growth allowed over the measured frames: a few table resizes, not one
/// sample per message.
const BOUND_BYTES: i64 = 16 * 1024;

#[test]
fn per_stream_state_is_flat_in_message_count() {
    for leg in legs() {
        let s = steady(&leg);
        assert!(
            s.heap_growth < BOUND_BYTES,
            "{}: live heap grew {} B over {MEASURED_FRAMES} frames \
             (bound {BOUND_BYTES} B): something records per message",
            leg.name,
            s.heap_growth
        );
    }
}
