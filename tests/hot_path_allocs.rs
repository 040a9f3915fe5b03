//! Heap allocations per voice frame on a running stream: the stack's hot
//! path schedules unboxed calls and parks its data in reused slabs, so a
//! frame costs only the allocations its message genuinely needs.
//!
//! A counting global allocator counts every allocation (and reallocation,
//! as the benchmark's `allocs_per_msg` does). One voice stream runs on a
//! two-host Ethernet with EDF host CPUs and observability off, driven by a
//! self-rescheduling 20 ms frame tick; after 1 000 warm-up frames, 2 000
//! more are counted. A boxed closure per protocol action — a CPU job's
//! continuation or completion, a transmission, a wire hop, a flush timer —
//! adds one allocation per frame each and fails the bound.
//!
//! Everything lives in one `#[test]` so no other test of this binary
//! allocates while the window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::sim::cpu::SchedPolicy;
use dash::transport::stream;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter.
struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the added
// relaxed increment publishes no other data and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FRAME_MS: u64 = 20;
const FRAME_BYTES: usize = 160;
const WARMUP_FRAMES: u64 = 1_000;
const MEASURED_FRAMES: u64 = 2_000;
/// The steady state, 7 per frame (the harness's own tick closure and the
/// buffers the frame's message and its headers need; 19 when every
/// protocol action was a boxed closure), plus slack for the odd table
/// resize — less than one allocation, so a single boxed action per frame
/// fails.
const BOUND_PER_FRAME: f64 = 7.5;

/// Send one frame and schedule the next, forever.
fn tick(sim: &mut Sim<Stack>, host: HostId, session: u64) {
    stream::send(sim, host, session, Message::zeroes(FRAME_BYTES)).expect("send port has room");
    sim.schedule_in(SimDuration::from_millis(FRAME_MS), move |sim| {
        tick(sim, host, session)
    });
}

#[test]
fn a_voice_frame_allocates_no_protocol_actions() {
    let (net, a, b) = two_hosts_ethernet();
    let builder = StackBuilder::new(net).cpus(SchedPolicy::Edf, SimDuration::from_micros(5));
    let mut sim = Sim::new(builder.build());
    sim.state.on_stream(b, move |sim, ev| {
        if let StreamEvent::Delivered { session, msg, .. } = ev {
            stream::consume(sim, b, session, msg.len() as u64);
        }
    });
    let session = stream::open(&mut sim, a, b, StreamProfile::voice())
        .expect("a quiet LAN admits the stream");
    sim.run();
    let start = sim.now();
    tick(&mut sim, a, session);
    let frames = |n: u64| start + SimDuration::from_millis(FRAME_MS * n);

    sim.run_until(frames(WARMUP_FRAMES));
    let warm = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(frames(WARMUP_FRAMES + MEASURED_FRAMES));
    let per_frame = (ALLOCS.load(Ordering::Relaxed) - warm) as f64 / MEASURED_FRAMES as f64;

    let delivered = sim.state.net.obs.registry.counter_value("stream.deliver");
    assert!(
        delivered + 2 >= WARMUP_FRAMES + MEASURED_FRAMES,
        "the stream ran: {delivered} frames delivered"
    );
    println!("allocations per voice frame: {per_frame:.3}");
    assert!(
        per_frame <= BOUND_PER_FRAME,
        "{per_frame:.3} allocations per frame (bound {BOUND_PER_FRAME}): \
         something on the hot path boxes or copies per message"
    );
}
