//! What route computation allocates, counted on the `mesh-churn` mesh
//! (`topology::mesh3x3`): establishment's route work allocates only its
//! answer once a host's graph, table and the world's search buffers exist,
//! and building a topology computes no routes, so its bytes grow linearly
//! in the hosts instead of with their square.
//!
//! `dash_sim::alloc::Counting` counts per thread (the test harness runs
//! tests on threads of their own), reallocations included.

mod world;

use dash_net::ids::HostId;
use dash_net::pipeline::create_rms;
use dash_net::routing::{candidate_paths, mark_routes_dirty};
use dash_net::state::NetState;
use dash_net::topology::{mesh3x3, TopologyBuilder};
use dash_sim::alloc::{counted, Counting};
use dash_sim::time::SimTime;
use dash_sim::Sim;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;
use world::{establish, World};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn mesh(hosts_per_lan: usize) -> (NetState, Vec<Vec<HostId>>) {
    let mut tb = TopologyBuilder::new();
    let (_, lans) = mesh3x3(&mut tb, hosts_per_lan);
    (tb.build(), lans)
}

/// After a warm-up call per pair, one `candidate_paths` call allocates its
/// three alternates' paths and negotiated parameters, the two lists holding
/// them, and nothing else: no graph, no search buffers, no per-hop service
/// tables.
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
        assert!(allocs <= 8, "{pair}: {allocs} allocations per call");
    }
}

/// Once a walk has built the tables of the hops it crosses, walking the
/// same hops again allocates only its path, in one allocation, even though
/// every host was marked dirty before the first walk.
#[test]
fn a_second_path_walk_allocates_only_its_path() {
    let (mut net, lans) = mesh(30);
    mark_routes_dirty(&mut net, SimTime::ZERO);
    let (src, dst) = (lans[0][0], lans[8][0]);
    let first = net.path(src, dst).unwrap();
    let (again, spent) = counted(|| net.path(src, dst).unwrap());
    let allocs = spent.allocs;
    println!("second path walk: {allocs} allocations");
    assert_eq!(again, first);
    assert_eq!(first.len(), 5, "corner to corner crosses four gateways");
    assert_eq!(allocs, 1, "a {}-leg walk", first.len());
}

/// A warm create → ack cycle, corner to corner with obs on: once a first
/// create has built the tables and warmed the world's tables and buffers,
/// a second allocates what `candidate_paths` allocates plus the
/// `RoutingPathPinned` hop list, and nothing else. The request and its
/// answer walk the chosen candidate's path, and both endpoints keep it.
#[test]
fn a_warm_create_allocates_only_its_candidates_and_pinned_hops() {
    let (net, lans) = mesh(30);
    let mut sim = Sim::new(World::new(net));
    let params = RmsParams::builder(64 * 1024, 1024).build().unwrap();
    let request = RmsRequest::exact(params.clone());
    let (src, dst) = (lans[0][0], lans[8][0]);
    establish(&mut sim, src, dst, params);
    let (_, candidates) = counted(|| candidate_paths(&sim.state.net, src, dst, &request).unwrap());
    sim.state.events.reserve(16);
    let (rms, spent) = counted(|| {
        let rms = create_rms(&mut sim, src, dst, &request).unwrap();
        sim.run();
        rms
    });
    assert!(sim.state.created().contains(&(src, rms)));
    let (allocs, bound) = (spent.allocs, candidates.allocs + 1);
    println!(
        "warm create -> ack: {allocs} allocations, candidate_paths {}",
        candidates.allocs
    );
    assert!(allocs <= bound, "{allocs} allocations, bound {bound}");
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
