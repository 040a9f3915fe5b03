//! What route computation allocates, counted on the `mesh-churn` mesh
//! (`topology::mesh3x3`): establishment's route work allocates only its
//! answer once a host's graph, table and the world's search buffers exist,
//! and building a topology computes no routes, so its bytes grow linearly
//! in the hosts instead of with their square.
//!
//! The counting allocator counts per thread (the test harness runs tests
//! on threads of their own), reallocations included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dash_net::ids::HostId;
use dash_net::routing::{candidate_paths, mark_routes_dirty};
use dash_net::state::NetState;
use dash_net::topology::{mesh3x3, TopologyBuilder};
use dash_sim::time::SimTime;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// [`System`] plus this thread's allocation and byte counters.
struct Counting;

// SAFETY: every operation is delegated to `System` unchanged; the counters
// are const-initialised thread-locals without destructors, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, and the allocations and bytes it cost on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, b) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (out, ALLOCS.get() - a, BYTES.get() - b)
}

fn mesh(hosts_per_lan: usize) -> (NetState, Vec<Vec<HostId>>) {
    let mut tb = TopologyBuilder::new();
    let (_, lans) = mesh3x3(&mut tb, hosts_per_lan);
    (tb.build(), lans)
}

/// After a warm-up call per pair, one `candidate_paths` call allocates its
/// three alternates' hop and network lists, their negotiated parameters,
/// the two lists holding them, and nothing else: no graph, no search
/// buffers, no per-hop service tables.
#[test]
fn candidate_paths_allocates_only_its_answer() {
    let (net, lans) = mesh(30);
    let request = RmsRequest::exact(RmsParams::builder(64 * 1024, 1024).build().unwrap());
    let src = lans[0][0];
    for (pair, dst) in [
        ("corner to corner", lans[8][0]),
        ("LAN-mate", lans[0][1]),
        ("neighbour LAN", lans[1][0]),
    ] {
        let warm = candidate_paths(&net, src, dst, &request).unwrap();
        let (again, allocs, _) = counted(|| candidate_paths(&net, src, dst, &request).unwrap());
        assert_eq!(again.len(), 3, "{pair}");
        assert_eq!(again.len(), warm.len(), "{pair}");
        assert!(allocs <= 12, "{pair}: {allocs} allocations per call");
    }
}

/// Once a walk has built the tables of the hops it crosses, walking the
/// same hops again allocates exactly what its result `Vec` needs, even
/// though every host was marked dirty before the first walk.
#[test]
fn a_second_path_walk_allocates_only_its_result() {
    let (mut net, lans) = mesh(30);
    mark_routes_dirty(&mut net, SimTime::ZERO);
    let (src, dst) = (lans[0][0], lans[8][0]);
    let first = net.path(src, dst).unwrap();
    let (again, allocs, _) = counted(|| net.path(src, dst).unwrap());
    assert_eq!(again, first);
    // The same result pushed hop by hop, as the walk builds it.
    let (_, result_allocs, _) = counted(|| {
        let mut out = Vec::new();
        for &hop in &first {
            out.push(std::hint::black_box(hop));
        }
        out
    });
    assert_eq!(first.len(), 5, "corner to corner crosses four gateways");
    assert_eq!(allocs, result_allocs, "a {}-hop walk", first.len());
}

/// Building computes no routes, so its bytes are linear in the hosts:
/// 3.7× the hosts may cost at most 4× the bytes (an all-pairs table costs
/// 13.7× at the same step).
#[test]
fn topology_build_bytes_grow_linearly() {
    let bytes = |per_lan| {
        let mut tb = TopologyBuilder::new();
        mesh3x3(&mut tb, per_lan);
        counted(|| tb.build()).2
    };
    let (small, large) = (bytes(30), bytes(110));
    assert!(
        large <= 4 * small,
        "mesh3x3(110) build: {large} B, mesh3x3(30): {small} B"
    );
}
