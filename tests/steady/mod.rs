//! The data path's steady state, measured: the one harness behind
//! `tests/hot_path_allocs.rs` (allocations per frame) and
//! `tests/flat_memory.rs` (live-heap growth).
//!
//! The counting global allocator (`dash_sim::alloc::Counting`) tracks
//! both allocations (reallocations included, as the benchmark's
//! `allocs_per_msg` counts them) and live heap bytes (allocated minus
//! freed) on the thread that runs the stream. Each leg opens one stream on a
//! two-host Ethernet with EDF host CPUs, drives it with a
//! self-rescheduling 20 ms frame tick, warms up for 1 000 frames, then
//! measures 2 000 more. The legs are voice (160 B), tagged voice (160 B
//! handed over in two parts, a 1-byte tag and a body, as a scatter-gather
//! sender does), bundled voice (four tagged messages a tick, which the ST
//! piggybacks into one network message), reliable with receiver flow
//! control (160 B) and fragmenting reliable (`StreamProfile::bulk()`,
//! 4 KiB frames). Allocations are counted per message sent.
//!
//! Observability stays off: the registry's span histograms keep every
//! sample by design (exact quantiles), and they only exist while obs is
//! on. Each binary that pulls this in with `mod steady;` has one
//! `#[test]`, so no other test of that binary allocates while a window is
//! measured. Items one binary does not read are dead code there, hence
//! the allows.

use bytes::Bytes;
use dash::core::wire::WireMsg;
use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::sim::alloc::{counted, Counting};
use dash::sim::cpu::SchedPolicy;
use dash::transport::stream;

#[global_allocator]
static GLOBAL: Counting = Counting;

const FRAME_MS: u64 = 20;
/// The tagged leg's bound, tighter than the others': its four-segment
/// frames spilled their segment list to the heap once, one allocation
/// per frame (2.03), and a spill on a quarter of them fails it.
const TAGGED_BOUND: f64 = 1.25;
/// Messages the bundled leg sends each tick.
const BUNDLED_PER_TICK: u64 = 4;
/// The bundled leg's bound: the tick closure shared by its four messages
/// (0.25 each) plus slack for the odd table resize. A bundle's
/// 17-segment list grown push by push (8, 16, 32) costs three
/// allocations per bundle, 0.75 per message, and one list allocated per
/// bundle 0.25; either fails it.
const BUNDLED_BOUND: f64 = 0.4;
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
    /// Whether each message is a 1-byte tag followed by the body, two
    /// segments, rather than one.
    pub tagged: bool,
    /// Messages sent each tick; more than one get piggybacked.
    pub per_tick: u64,
}

/// About one allocation per tick on every leg: the harness's own tick
/// closure (voice 1.03, tagged voice 1.03, bundled voice 0.28 per message
/// at four a tick, reliable 1.06, fragmenting 1.13). The headers come from
/// the shared header store, the checksum reads the segments in place, a
/// frame's four segments (ST header, transport header, tag, body) are held
/// inline, a bundle's list is recycled and fragments are made one at a
/// time; the rest is the odd table resize.
pub fn legs() -> [Leg; 5] {
    [
        Leg {
            name: "voice",
            profile: StreamProfile::voice(),
            bytes: 160,
            allocs_bound: 1.5,
            fragments: false,
            tagged: false,
            per_tick: 1,
        },
        Leg {
            name: "tagged voice",
            profile: StreamProfile::voice(),
            bytes: 160,
            allocs_bound: TAGGED_BOUND,
            fragments: false,
            tagged: true,
            per_tick: 1,
        },
        Leg {
            name: "bundled voice",
            profile: StreamProfile {
                capacity: BUNDLED_PER_TICK * 16 * 1024,
                ..StreamProfile::voice()
            },
            bytes: 160,
            allocs_bound: BUNDLED_BOUND,
            fragments: false,
            tagged: true,
            per_tick: BUNDLED_PER_TICK,
        },
        Leg {
            name: "reliable",
            profile: StreamProfile {
                reliable: true,
                receiver_fc: true,
                ..StreamProfile::default()
            },
            bytes: 160,
            allocs_bound: 1.5,
            fragments: false,
            tagged: false,
            per_tick: 1,
        },
        Leg {
            name: "fragmenting",
            profile: StreamProfile::bulk(),
            bytes: 4 * 1024,
            allocs_bound: 1.5,
            fragments: true,
            tagged: false,
            per_tick: 1,
        },
    ]
}

/// The bodies of the tagged leg's messages.
static BODY: [u8; 4096] = [0; 4096];

/// One message of `bytes` bytes: zeroes, or a 1-byte tag and a body
/// from static storage.
fn message(bytes: usize, tagged: bool) -> Message {
    if !tagged {
        return Message::zeroes(bytes);
    }
    let mut wire = WireMsg::from_bytes(Bytes::from_static(&[0x7a]));
    wire.push(Bytes::from_static(&BODY[..bytes - 1]));
    Message::from_wire(wire)
}

/// Send one tick's messages and schedule the next tick, forever: the
/// pending-event set stays one tick deep instead of holding every future
/// frame.
fn tick(sim: &mut Sim<Stack>, host: HostId, session: u64, leg: (usize, bool, u64)) {
    let (bytes, tagged, per_tick) = leg;
    for _ in 0..per_tick {
        stream::send(sim, host, session, message(bytes, tagged)).expect("send port has room");
    }
    sim.schedule_in(SimDuration::from_millis(FRAME_MS), move |sim| {
        tick(sim, host, session, leg)
    });
}

/// One leg's measurement window.
#[allow(dead_code)]
pub struct Steady {
    pub allocs_per_frame: f64,
    pub heap_growth: i64,
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
    tick(&mut sim, a, session, (leg.bytes, leg.tagged, leg.per_tick));
    let frames = |n: u64| start + SimDuration::from_millis(FRAME_MS * n);

    sim.run_until(frames(WARMUP_FRAMES));
    let ((), spent) = counted(|| sim.run_until(frames(WARMUP_FRAMES + MEASURED_FRAMES)));

    let reg = &sim.state.net.obs.registry;
    let delivered = reg.counter_value("stream.deliver");
    assert!(
        delivered + 2 * leg.per_tick >= (WARMUP_FRAMES + MEASURED_FRAMES) * leg.per_tick,
        "{}: the stream ran: {delivered} frames delivered",
        leg.name
    );
    let bundles = reg.counter_value("st.bundle_sent");
    assert!(
        leg.per_tick == 1 || bundles >= WARMUP_FRAMES + MEASURED_FRAMES,
        "{}: only {bundles} bundles sent",
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
        allocs_per_frame: spent.allocs as f64 / (MEASURED_FRAMES * leg.per_tick) as f64,
        heap_growth: spent.live,
    };
    println!(
        "{}: {:.3} allocations per frame, live heap {:+} B over \
         {MEASURED_FRAMES} ticks, {fragmented} messages fragmented, \
         {bundles} bundles sent",
        leg.name, s.allocs_per_frame, s.heap_growth
    );
    s
}
