//! Memory flat after warm-up: once a stream is running, the stack holds no
//! state that grows with the number of messages it has carried.
//!
//! A counting global allocator tracks live heap bytes (allocated minus
//! freed). Each case opens one stream on a two-host Ethernet with EDF host
//! CPUs, drives it with a self-rescheduling 20 ms frame tick, warms up for
//! 1 000 frames, then runs 2 000 more and bounds how far the live heap
//! moved. A per-message sample reservoir anywhere in the stack (one `f64`
//! per delivery, per packet or per CPU job) grows it by tens of KiB here.
//!
//! Observability stays off: the registry's span histograms keep every
//! sample by design (exact quantiles), and they only exist while obs is
//! on. Everything lives in one `#[test]` so no other test of this binary
//! allocates while a window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::sim::cpu::SchedPolicy;
use dash::transport::stream;

static LIVE: AtomicIsize = AtomicIsize::new(0);

/// [`System`] plus a live-byte gauge.
struct LiveBytes;

// SAFETY: every operation is delegated to `System` unchanged; the added
// relaxed arithmetic publishes no other data and touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const FRAME_MS: u64 = 20;
const FRAME_BYTES: usize = 160;
const WARMUP_FRAMES: u64 = 1_000;
const MEASURED_FRAMES: u64 = 2_000;
/// Growth allowed over the measured frames: a few table resizes, not one
/// sample per message.
const BOUND_BYTES: isize = 16 * 1024;

/// Send one frame and schedule the next, forever: the pending-event set
/// stays one tick deep instead of holding every future frame.
fn tick(sim: &mut Sim<Stack>, host: HostId, session: u64) {
    stream::send(sim, host, session, Message::zeroes(FRAME_BYTES)).expect("send port has room");
    sim.schedule_in(SimDuration::from_millis(FRAME_MS), move |sim| {
        tick(sim, host, session)
    });
}

/// Live-heap growth over [`MEASURED_FRAMES`] after [`WARMUP_FRAMES`], with
/// the receiving application consuming each message as it is delivered.
fn growth(profile: StreamProfile) -> isize {
    let (net, a, b) = two_hosts_ethernet();
    let builder = StackBuilder::new(net).cpus(SchedPolicy::Edf, SimDuration::from_micros(5));
    let mut sim = Sim::new(builder.build());
    sim.state.on_stream(b, move |sim, ev| {
        if let StreamEvent::Delivered { session, msg, .. } = ev {
            stream::consume(sim, b, session, msg.len() as u64);
        }
    });
    let session = stream::open(&mut sim, a, b, profile).expect("a quiet LAN admits the stream");
    sim.run();
    let start = sim.now();
    tick(&mut sim, a, session);
    let frames = |n: u64| start + SimDuration::from_millis(FRAME_MS * n);

    sim.run_until(frames(WARMUP_FRAMES));
    let warm = LIVE.load(Ordering::Relaxed);
    sim.run_until(frames(WARMUP_FRAMES + MEASURED_FRAMES));
    let grown = LIVE.load(Ordering::Relaxed) - warm;

    let delivered = sim.state.net.obs.registry.counter_value("stream.deliver");
    assert!(
        delivered + 2 >= WARMUP_FRAMES + MEASURED_FRAMES,
        "the stream ran: {delivered} frames delivered"
    );
    grown
}

#[test]
fn per_stream_state_is_flat_in_message_count() {
    let voice = growth(StreamProfile::voice());
    let reliable = growth(StreamProfile {
        reliable: true,
        receiver_fc: true,
        ..StreamProfile::default()
    });
    println!("live-heap growth over {MEASURED_FRAMES} frames: voice {voice:+} B, reliable {reliable:+} B");
    for (name, grown) in [("voice", voice), ("reliable", reliable)] {
        assert!(
            grown < BOUND_BYTES,
            "{name}: live heap grew {grown} B over {MEASURED_FRAMES} frames \
             (bound {BOUND_BYTES} B): something records per message"
        );
    }
}
