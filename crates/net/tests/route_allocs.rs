//! What route computation allocates, counted on the `mesh-churn` mesh
//! (`topology::mesh3x3`): establishment's route work allocates only its
//! answer once a host's graph, table and the world's search buffers exist,
//! and building a topology computes no routes, so its bytes grow linearly
//! in the hosts instead of with their square.
//!
//! `dash_sim::alloc::Counting` counts per thread (the test harness runs
//! tests on threads of their own), reallocations included.

use dash_net::ids::HostId;
use dash_net::routing::{candidate_paths, mark_routes_dirty};
use dash_net::state::NetState;
use dash_net::topology::{mesh3x3, TopologyBuilder};
use dash_sim::alloc::{counted, Counting};
use dash_sim::time::SimTime;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        let (again, spent) = counted(|| candidate_paths(&net, src, dst, &request).unwrap());
        let allocs = spent.allocs;
        println!("candidate_paths, {pair}: {allocs} allocations per call");
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
    let (again, spent) = counted(|| net.path(src, dst).unwrap());
    let allocs = spent.allocs;
    assert_eq!(again, first);
    // The same result pushed hop by hop, as the walk builds it.
    let (_, result) = counted(|| {
        let mut out = Vec::new();
        for &hop in &first {
            out.push(std::hint::black_box(hop));
        }
        out
    });
    println!(
        "second path walk: {allocs} allocations, its result alone {}",
        result.allocs
    );
    assert_eq!(first.len(), 5, "corner to corner crosses four gateways");
    assert_eq!(allocs, result.allocs, "a {}-hop walk", first.len());
}

/// Building computes no routes, so its bytes are linear in the hosts:
/// 3.7× the hosts may cost at most 4× the bytes (an all-pairs table costs
/// 13.7× at the same step).
#[test]
fn topology_build_bytes_grow_linearly() {
    let bytes = |per_lan| {
        let mut tb = TopologyBuilder::new();
        mesh3x3(&mut tb, per_lan);
        counted(|| tb.build()).1.bytes
    };
    let (small, large) = (bytes(30), bytes(110));
    println!("mesh3x3 build: {small} B at 30 hosts per LAN, {large} B at 110");
    assert!(
        large <= 4 * small,
        "mesh3x3(110) build: {large} B, mesh3x3(30): {small} B"
    );
}
