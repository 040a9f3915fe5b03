//! Heap allocations per frame on a running stream: the stack's hot path
//! schedules unboxed calls and parks its data in reused slabs, so a frame
//! costs only the allocations its message genuinely needs.
//!
//! The voice leg is the headline (7 per frame; 19 when every protocol
//! action was a boxed closure); the reliable and fragmenting reliable legs
//! hold the same line on the acked and fragmented paths. A boxed closure
//! per protocol action — a CPU job's continuation, a transmission, a wire
//! hop, a flush timer — adds one allocation per frame and fails a leg's
//! bound. The harness is in `tests/steady/mod.rs`.

mod steady;

use steady::{legs, steady};

#[test]
fn a_voice_frame_allocates_no_protocol_actions() {
    for leg in legs() {
        let s = steady(&leg);
        assert!(
            s.allocs_per_frame <= leg.allocs_bound,
            "{}: {:.3} allocations per frame (bound {}): something on the \
             hot path boxes or copies per message",
            leg.name,
            s.allocs_per_frame,
            leg.allocs_bound
        );
    }
}
