//! Heap allocations per frame on a running stream: the stack's hot path
//! schedules unboxed calls, parks its data in reused slabs, carves every
//! header from a shared header store and checksums segments in place, so
//! a frame costs about one allocation on every leg — the harness's own
//! tick closure.
//!
//! All four legs — voice, tagged voice (a two-part payload, so four
//! segments a frame), reliable with receiver flow control, and
//! fragmenting reliable — hold that line. A boxed closure per protocol
//! action (a CPU job's continuation, a transmission, a wire hop, a flush
//! timer), a header in a buffer of its own, a flattened payload or a
//! segment list spilled to the heap adds one allocation per frame and
//! fails a leg's bound. The harness is in
//! `tests/steady/mod.rs`.

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
