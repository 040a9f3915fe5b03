//! What a spilled wire message allocates: once the thread's pool of
//! segment lists is warm, assembling a bundle-sized message, cloning it
//! and dropping both costs no allocation, and neither does carving its
//! headers from the shared header store.
//!
//! `dash_sim::alloc::Counting` counts per thread (the test harness runs
//! tests on threads of their own), reallocations included.

use bytes::{BufMut, Bytes};
use dash_sim::alloc::{counted, Counting};
use rms_core::wire::{self, WireMsg};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bundle-shaped cycles measured once warm.
const CYCLES: u64 = 10_000;

/// The bodies the frames carry.
static BODY: [u8; 160] = [0; 160];

/// The frames' headers. Static, so that no frame held across the
/// measured cycles pins a header store.
static HEADERS: [u8; 56] = [1; 56];

/// A frame as the ST queues it: ST header, stream header, tag and body,
/// four segments held inline.
fn frame() -> WireMsg {
    let mut m = WireMsg::from_bytes(Bytes::from_static(&HEADERS[..30]));
    m.push(Bytes::from_static(&HEADERS[30..]));
    m.push(Bytes::from_static(&BODY[..1]));
    m.push(Bytes::from_static(&BODY[1..]));
    m
}

/// A bundle of `frames` as `FlushedBundle::encode` assembles it: the
/// 3-byte bundle header, then every frame's segments, in a list sized
/// once.
fn bundle(frames: &[WireMsg]) -> WireMsg {
    let segs = 1 + frames.iter().map(WireMsg::seg_count).sum::<usize>();
    let mut out = WireMsg::with_capacity(segs);
    out.push(wire::header(3, |b| {
        b.put_slice(&[2, 0, frames.len() as u8])
    }));
    for f in frames {
        out.append(f);
    }
    out
}

#[test]
fn a_warm_bundle_and_its_clone_allocate_nothing() {
    let frames: Vec<WireMsg> = (0..6).map(|_| frame()).collect();
    // Warm-up: the pool gets its lists (three alive at once below) and
    // the header store its first store.
    for _ in 0..4 {
        let b = bundle(&frames);
        let c = b.clone();
        let again = bundle(&frames);
        drop((b, c, again));
    }

    let mut bytes = 0;
    let ((), spent) = counted(|| {
        for _ in 0..CYCLES {
            let b = bundle(&frames);
            let c = b.clone();
            assert_eq!(c.seg_count(), 25);
            bytes += c.len();
            drop(b);
            drop(c);
        }
    });
    let spent = spent.allocs;
    println!("{spent} allocations over {CYCLES} bundles and their clones");
    assert_eq!(bytes, CYCLES as usize * (3 + 6 * (30 + 26 + 160)));
    assert_eq!(
        spent, 0,
        "{spent} allocations over {CYCLES} bundles: a spilled segment list is \
         allocated or regrown instead of recycled"
    );
}

#[test]
fn a_message_spilled_by_pushing_reuses_a_pooled_list() {
    let grow = || {
        let mut m = WireMsg::new();
        for f in 0..3 {
            m.append(&frame());
            assert_eq!(m.seg_count(), 4 * (f + 1));
        }
        m
    };
    drop(grow());
    let ((), spent) = counted(|| {
        for _ in 0..CYCLES {
            drop(grow());
        }
    });
    let spent = spent.allocs;
    println!("{spent} allocations over {CYCLES} spills");
    assert_eq!(spent, 0, "{spent} allocations over {CYCLES} spills");
}
