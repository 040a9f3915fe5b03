//! The data path's steady state, measured: the one harness behind
//! `tests/hot_path_allocs.rs` (allocations per frame) and
//! `tests/flat_memory.rs` (live-heap growth).
//!
//! One counting global allocator tracks both allocations (reallocations
//! included, as the benchmark's `allocs_per_msg` counts them) and live
//! heap bytes (allocated minus freed). Each leg opens one stream on a
//! two-host Ethernet with EDF host CPUs, drives it with a
//! self-rescheduling 20 ms frame tick, warms up for 1 000 frames, then
//! measures 2 000 more. The legs are voice (160 B), reliable with
//! receiver flow control (160 B) and fragmenting reliable
//! (`StreamProfile::bulk()`, 4 KiB frames).
//!
//! Observability stays off: the registry's span histograms keep every
//! sample by design (exact quantiles), and they only exist while obs is
//! on. Each binary that pulls this in with `mod steady;` has one
//! `#[test]`, so no other test of that binary allocates while a window is
//! measured. Items one binary does not read are dead code there, hence
//! the allows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::sim::cpu::SchedPolicy;
use dash::transport::stream;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// [`System`] plus an allocation counter and a live-byte gauge.
struct Counting;

// SAFETY: every operation is delegated to `System` unchanged; the added
// relaxed arithmetic publishes no other data and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
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
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FRAME_MS: u64 = 20;
const WARMUP_FRAMES: u64 = 1_000;
pub const MEASURED_FRAMES: u64 = 2_000;

/// One stream shape to hold steady.
#[allow(dead_code)]
pub struct Leg {
    pub name: &'static str,
    pub profile: StreamProfile,
    pub bytes: usize,
    /// Allocations per measured frame allowed: the measured steady state
    /// plus less than one allocation of slack for the odd table resize,
    /// so a single boxed protocol action per frame fails it.
    pub allocs_bound: f64,
    /// Whether the ST fragments this leg's messages.
    pub fragments: bool,
}

/// Voice 7 allocations per frame (the harness's own tick closure and the
/// buffers the frame's message and its headers need; 19 when every
/// protocol action was a boxed closure), reliable 17, fragmenting 32.
pub fn legs() -> [Leg; 3] {
    [
        Leg {
            name: "voice",
            profile: StreamProfile::voice(),
            bytes: 160,
            allocs_bound: 7.5,
            fragments: false,
        },
        Leg {
            name: "reliable",
            profile: StreamProfile {
                reliable: true,
                receiver_fc: true,
                ..StreamProfile::default()
            },
            bytes: 160,
            allocs_bound: 17.5,
            fragments: false,
        },
        Leg {
            name: "fragmenting",
            profile: StreamProfile::bulk(),
            bytes: 4 * 1024,
            allocs_bound: 32.5,
            fragments: true,
        },
    ]
}

/// Send one frame and schedule the next, forever: the pending-event set
/// stays one tick deep instead of holding every future frame.
fn tick(sim: &mut Sim<Stack>, host: HostId, session: u64, bytes: usize) {
    stream::send(sim, host, session, Message::zeroes(bytes)).expect("send port has room");
    sim.schedule_in(SimDuration::from_millis(FRAME_MS), move |sim| {
        tick(sim, host, session, bytes)
    });
}

/// One leg's measurement window.
#[allow(dead_code)]
pub struct Steady {
    pub allocs_per_frame: f64,
    pub heap_growth: isize,
}

/// Run `leg`'s stream with the receiving application consuming each
/// message as it is delivered, and measure the [`MEASURED_FRAMES`] after
/// [`WARMUP_FRAMES`]. Asserts the stream ran and fragmented exactly when
/// the leg says it does.
pub fn steady(leg: &Leg) -> Steady {
    let (net, a, b) = two_hosts_ethernet();
    let builder = StackBuilder::new(net).cpus(SchedPolicy::Edf, SimDuration::from_micros(5));
    let mut sim = Sim::new(builder.build());
    sim.state.on_stream(b, move |sim, ev| {
        if let StreamEvent::Delivered { session, msg, .. } = ev {
            stream::consume(sim, b, session, msg.len() as u64);
        }
    });
    let session =
        stream::open(&mut sim, a, b, leg.profile.clone()).expect("a quiet LAN admits the stream");
    sim.run();
    let start = sim.now();
    tick(&mut sim, a, session, leg.bytes);
    let frames = |n: u64| start + SimDuration::from_millis(FRAME_MS * n);

    sim.run_until(frames(WARMUP_FRAMES));
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    sim.run_until(frames(WARMUP_FRAMES + MEASURED_FRAMES));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let heap_growth = LIVE.load(Ordering::Relaxed) - live;

    let reg = &sim.state.net.obs.registry;
    let delivered = reg.counter_value("stream.deliver");
    assert!(
        delivered + 2 >= WARMUP_FRAMES + MEASURED_FRAMES,
        "{}: the stream ran: {delivered} frames delivered",
        leg.name
    );
    let fragmented = reg.counter_value("st.msg_fragmented");
    assert_eq!(
        fragmented > 0,
        leg.fragments,
        "{}: {fragmented} messages fragmented",
        leg.name
    );
    let s = Steady {
        allocs_per_frame: allocs as f64 / MEASURED_FRAMES as f64,
        heap_growth,
    };
    println!(
        "{}: {:.3} allocations per frame, live heap {:+} B over \
         {MEASURED_FRAMES} frames, {fragmented} messages fragmented",
        leg.name, s.allocs_per_frame, s.heap_growth
    );
    s
}
