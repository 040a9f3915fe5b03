//! What a spilled wire message allocates: once the thread's pool of
//! segment lists is warm, assembling a bundle-sized message, cloning it
//! and dropping both costs no allocation, and neither does carving its
//! headers from the shared header store.
//!
//! The counting allocator counts per thread (the test harness runs tests
//! on threads of their own), reallocations included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, Bytes};
use rms_core::wire::{self, WireMsg};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`] plus this thread's allocation counter.
struct Counting;

// SAFETY: every operation is delegated to `System` unchanged; the counter
// is a const-initialised thread-local without a destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

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

    let before = allocs();
    let mut bytes = 0;
    for _ in 0..CYCLES {
        let b = bundle(&frames);
        let c = b.clone();
        assert_eq!(c.seg_count(), 25);
        bytes += c.len();
        drop(b);
        drop(c);
    }
    let spent = allocs() - before;
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
    let before = allocs();
    for _ in 0..CYCLES {
        drop(grow());
    }
    let spent = allocs() - before;
    assert_eq!(spent, 0, "{spent} allocations over {CYCLES} spills");
}
