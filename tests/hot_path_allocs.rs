//! Heap allocations per frame on a running stream: the stack's hot path
//! schedules unboxed calls, parks its data in reused slabs, carves every
//! header from a shared header store and checksums segments in place, so
//! a tick costs about one allocation on every leg — the harness's own
//! tick closure.
//!
//! All five legs — voice, tagged voice (a two-part payload, so four
//! segments a frame), bundled voice (four tagged messages a tick, one
//! piggybacked bundle whose 17 segments spill to a recycled list),
//! reliable with receiver flow control, and fragmenting reliable — hold
//! that line. A boxed closure per protocol action (a CPU job's
//! continuation, a transmission, a wire hop, a flush timer), a header in
//! a buffer of its own, a flattened payload, a frame's segment list
//! spilled to the heap or a bundle's list allocated instead of recycled
//! adds allocations per message and fails a leg's bound. The harness is
//! in `tests/steady/mod.rs`.

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
