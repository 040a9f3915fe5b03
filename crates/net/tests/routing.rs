//! The distributed QoS routing subsystem end to end: link-state floods,
//! constrained k-alternate selection, admission-aware establishment
//! fallback, and deterministic route computation over random meshes.

mod common;

use std::collections::BTreeMap;

use dash_net::ids::{CreateToken, HostId, NetRmsId};
use dash_net::network::NetworkSpec;
use dash_net::pipeline::{create_rms, send_on_rms};
use dash_net::routing::{self, candidate_paths, flood_from, k_paths};
use dash_net::state::{NetRmsEvent, NetState, NetWorld, Route};
use dash_net::topology::{compute_routes, dumbbell, TopologyBuilder};
use dash_net::NetworkId;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use proptest::prelude::*;
use rms_core::delay::DelayBound;
use rms_core::error::RejectReason;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::RmsRequest;

struct World {
    net: NetState,
    created: Vec<(HostId, CreateToken, NetRmsId)>,
    create_failed: Vec<(HostId, CreateToken, RejectReason)>,
    deliveries: Vec<(HostId, NetRmsId)>,
}

impl World {
    fn new(mut net: NetState) -> Self {
        net.obs.enable();
        World {
            net,
            created: Vec::new(),
            create_failed: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

impl NetWorld for World {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }
    fn deliver_up(
        sim: &mut Sim<Self>,
        host: HostId,
        rms: NetRmsId,
        _msg: Message,
        _info: DeliveryInfo,
    ) {
        sim.state.deliveries.push((host, rms));
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        match event {
            NetRmsEvent::Created { token, rms, .. } => sim.state.created.push((host, token, rms)),
            NetRmsEvent::CreateFailed { token, reason } => {
                sim.state.create_failed.push((host, token, reason));
            }
            _ => {}
        }
    }
}

/// Two fast LANs joined by two parallel single-Ethernet middles: the
/// primary pair (`g1`, `g2`, lower host ids) and a backup pair. Returns
/// `(state, a, b, primary_mid, backup_mid)`.
fn parallel_middles() -> (NetState, HostId, HostId, NetworkId, NetworkId) {
    let mut b = TopologyBuilder::new();
    let lan_a = b.network(NetworkSpec::fast_lan("lan-a"));
    let mid_p = b.network(NetworkSpec::ethernet("mid-primary"));
    let mid_b = b.network(NetworkSpec::ethernet("mid-backup"));
    let lan_b = b.network(NetworkSpec::fast_lan("lan-b"));
    let a = b.host_on(lan_a);
    let _g1 = b.gateway(lan_a, mid_p);
    let _g2 = b.gateway(mid_p, lan_b);
    let _g3 = b.gateway(lan_a, mid_b);
    let _g4 = b.gateway(mid_b, lan_b);
    let peer = b.host_on(lan_b);
    (b.build(), a, peer, mid_p, mid_b)
}

/// Deterministic params whose admission demand is roughly
/// `capacity / 52ms` (50 ms fixed plus 2 µs/byte, comfortably above the
/// mesh's physical minimums so `exact` requests negotiate).
fn det_params(capacity: u64) -> RmsParams {
    RmsParams::builder(capacity, 1024)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(50),
            SimDuration::from_micros(2),
        ))
        .build()
        .unwrap()
}

#[test]
fn k_paths_orders_by_length_then_hop_sequence() {
    let (net, a, peer, mid_p, mid_b) = parallel_middles();
    let paths = k_paths(&net, a, peer, 3);
    assert_eq!(paths.len(), 3, "three loop-free alternates exist");
    // The two disjoint three-hop paths come first (lower gateway pair
    // breaking the tie), then a longer gateway-chaining detour.
    assert_eq!(paths[0].hops.len(), 3);
    assert_eq!(paths[1].hops.len(), 3);
    assert!(paths[0].hops < paths[1].hops, "fixed (length, hops) order");
    assert!(paths[2].hops.len() > 3, "longer alternates sort last");
    assert_eq!(paths[0].networks[1], mid_p);
    assert_eq!(paths[1].networks[1], mid_b);
}

/// Loop-free, ending at `dst`, never back through `src`.
fn assert_simple(paths: &[routing::AltPath], src: HostId, dst: HostId) {
    for p in paths {
        assert_eq!(p.hops.last(), Some(&dst));
        assert_eq!(p.hops.len(), p.networks.len());
        let mut seen = p.hops.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), p.hops.len(), "loop in {:?}", p.hops);
        assert!(!p.hops.contains(&src));
    }
}

#[test]
fn corner_to_corner_alternates_do_not_depend_on_lan_size() {
    // The `mesh-churn` topology: the clique search tripped its expansion
    // cap here and handed back one alternate of three.
    let (mut net, lans) = common::mesh3x3(30);
    let (src, dst) = (lans[0][0], lans[8][0]);
    let (capped, pops) = common::k_paths(&net, src, dst, 3);
    assert!(pops > common::EXPANSION_CAP && capped.len() == 1);
    let paths = k_paths(&net, src, dst, 3);
    assert_eq!(paths.len(), 3);
    assert_simple(&paths, src, dst);
    assert_eq!(paths[0], capped[0], "the old single answer is still first");
    assert!(paths.iter().all(|p| p.hops.len() == 5), "6 lattice routes");
    // An unreachable peer is an empty answer, not a search of the mesh.
    net.network_mut(NetworkId(8)).down = true;
    assert!(k_paths(&net, src, dst, 3).is_empty());
}

#[test]
fn thousand_host_mesh_still_routes_and_establishes() {
    // 1 002 hosts: the capped search found *no* path for a reachable peer
    // and `create_rms` failed `NoRoute`.
    let (net, lans) = common::mesh3x3(110);
    let (src, dst) = (lans[0][0], lans[8][0]);
    let paths = k_paths(&net, src, dst, 3);
    assert_eq!(paths.len(), 3);
    assert_simple(&paths, src, dst);
    let mut sim = Sim::new(World::new(net));
    let best_effort = RmsParams::builder(64 * 1024, 1024).build().unwrap();
    let token = create_rms(&mut sim, src, dst, &RmsRequest::exact(best_effort))
        .expect("a reachable peer is not NoRoute");
    sim.run();
    assert!(
        sim.state.created.iter().any(|(_, t, _)| *t == token),
        "{:?}",
        sim.state.create_failed
    );
}

#[test]
fn floods_propagate_multi_hop_with_split_horizon() {
    let (net, a, peer, _, _) = parallel_middles();
    let mut sim = Sim::new(World::new(net));
    let seed_seq = sim.state.net.host(peer).lsdb.get(a).unwrap().seq;
    flood_from(&mut sim, a);
    sim.run();
    // The far host learned the fresh ad through gateway re-floods.
    let ad = sim.state.net.host(peer).lsdb.get(a).unwrap();
    assert_eq!(ad.seq, seed_seq + 1, "flood crossed the internetwork");
    assert_eq!(ad.links.len(), 1, "a has one interface");
    // Sequence dedup bounds the flood: every host re-floods once, so the
    // counter records exactly one origination.
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("routing.floods"), 1);
}

#[test]
fn saturated_primary_establishes_on_alternate() {
    // Fill the primary middle's deterministic budget (1.25 MB/s * 0.9),
    // then ask for more than the leftovers: the CreateReq is NAK'd at the
    // primary gateway and the creator falls back to the backup path.
    let (net, a, peer, _, mid_b) = parallel_middles();
    let mut sim = Sim::new(World::new(net));
    let big = create_rms(&mut sim, a, peer, &RmsRequest::exact(det_params(48 * 1024))).unwrap();
    sim.run();
    assert!(
        sim.state.created.iter().any(|(_, t, _)| *t == big),
        "saturating stream must establish: {:?}",
        sim.state.create_failed
    );

    let second = create_rms(&mut sim, a, peer, &RmsRequest::exact(det_params(16 * 1024))).unwrap();
    sim.run();
    let rms2 = sim
        .state
        .created
        .iter()
        .find(|(_, t, _)| *t == second)
        .map(|(_, _, r)| *r)
        .expect("second stream establishes on the alternate");
    // It won on the backup path: the alternate-win counter fired and the
    // stream's recorded path crosses the backup middle.
    let path = sim.state.net.host(a).rms.get(&rms2).unwrap().path.clone();
    assert!(path.contains(&mid_b), "path {path:?} must use the backup");
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("routing.alternate_wins"), 1);

    // And the alternate carries data end to end.
    send_on_rms(&mut sim, a, rms2, Message::new(vec![9u8; 256]), None, None).unwrap();
    sim.run();
    assert!(sim
        .state
        .deliveries
        .iter()
        .any(|(h, r)| *h == peer && *r == rms2));
}

#[test]
fn refreshed_headroom_reorders_candidates() {
    // Same saturation, but after a re-flood the creator *knows* the
    // primary is full: constrained selection puts the backup first and no
    // NAK round-trip is needed (no alternate-win, backup path directly).
    let (net, a, peer, _, mid_b) = parallel_middles();
    let mut sim = Sim::new(World::new(net));
    let big = create_rms(&mut sim, a, peer, &RmsRequest::exact(det_params(48 * 1024))).unwrap();
    sim.run();
    assert!(sim.state.created.iter().any(|(_, t, _)| *t == big));
    // The saturated gateways advertise their shrunken headroom.
    let g1 = HostId(1);
    let g2 = HostId(2);
    flood_from(&mut sim, g1);
    flood_from(&mut sim, g2);
    sim.run();

    let request = RmsRequest::exact(det_params(16 * 1024));
    let candidates = candidate_paths(&sim.state.net, a, peer, &request).unwrap();
    assert!(
        candidates[0].networks.contains(&mid_b),
        "headroom-sufficient backup ranks first: {:?}",
        candidates
            .iter()
            .map(|c| (&c.networks, c.min_headroom_bps, c.is_primary))
            .collect::<Vec<_>>()
    );
    assert!(!candidates[0].is_primary);

    let second = create_rms(&mut sim, a, peer, &request).unwrap();
    sim.run();
    let rms2 = sim
        .state
        .created
        .iter()
        .find(|(_, t, _)| *t == second)
        .map(|(_, _, r)| *r)
        .expect("establishes first try on the backup");
    let path = sim.state.net.host(a).rms.get(&rms2).unwrap().path.clone();
    assert!(path.contains(&mid_b));
}

#[test]
fn lsa_headroom_tracks_reservations() {
    let (net, a, peer, _, _) = parallel_middles();
    let mut sim = Sim::new(World::new(net));
    let g1 = HostId(1);
    let before = sim.state.net.host(peer).lsdb.get(g1).unwrap().links[1].headroom_bps;
    let big = create_rms(&mut sim, a, peer, &RmsRequest::exact(det_params(48 * 1024))).unwrap();
    sim.run();
    assert!(sim.state.created.iter().any(|(_, t, _)| *t == big));
    flood_from(&mut sim, g1);
    sim.run();
    let after = sim.state.net.host(peer).lsdb.get(g1).unwrap().links[1].headroom_bps;
    assert!(
        after < before,
        "advertised headroom must shrink with the reservation ({before} -> {after})"
    );
}

#[test]
fn one_ad_allocation_and_copy_on_write_lsdbs() {
    let (net, a, c, g1, g2) = dumbbell();
    // Straight out of the builder every host reads the one seeded table.
    for host in &net.hosts {
        assert!(
            host.lsdb.shares_backing(&net.host(a).lsdb),
            "{:?} was seeded with a table of its own",
            host.id
        );
    }
    let mut sim = Sim::new(World::new(net));
    // Cut the WAN by its flag alone (no fault event, so no witness floods):
    // `a`'s flood reaches `g1` and stops there.
    sim.state.net.network_mut(NetworkId(1)).down = true;
    flood_from(&mut sim, a);
    sim.run();

    let net = &sim.state.net;
    let born = net.host(a).lsdb.get(a).unwrap();
    assert_eq!(born.seq, 2, "the seed ad was 1");
    // The packet carried the origin's allocation and `g1` installed it:
    // one ad, two holders, no copy.
    assert!(std::ptr::eq(born, net.host(g1).lsdb.get(a).unwrap()));
    // Only the two installers left the shared table, each for its own.
    assert!(!net.host(a).lsdb.shares_backing(&net.host(c).lsdb));
    assert!(!net.host(g1).lsdb.shares_backing(&net.host(c).lsdb));
    assert!(!net.host(a).lsdb.shares_backing(&net.host(g1).lsdb));
    assert!(net.host(g2).lsdb.shares_backing(&net.host(c).lsdb));
    assert_eq!(net.host(c).lsdb.get(a).unwrap().seq, 1);
    // Leaving copied pointers, not ads: an entry nobody re-advertised is
    // still the seeded allocation everywhere.
    assert!(std::ptr::eq(
        net.host(a).lsdb.get(c).unwrap(),
        net.host(c).lsdb.get(c).unwrap()
    ));
}

// ---------------------------------------------------------------------------
// Determinism over random meshes
// ---------------------------------------------------------------------------

/// Build the same random mesh twice from its spec.
fn build_mesh(n_nets: usize, attachments: &[Vec<bool>]) -> NetState {
    let mut b = TopologyBuilder::new();
    let nets: Vec<NetworkId> = (0..n_nets)
        .map(|i| b.network(NetworkSpec::ethernet(format!("n{i}"))))
        .collect();
    for host_at in attachments {
        let h = b.host();
        let mut any = false;
        for (i, &on) in host_at.iter().enumerate() {
            if on {
                b.attach(h, nets[i]);
                any = true;
            }
        }
        if !any {
            // Isolated hosts are legal but boring; park them on net 0 so
            // the mesh stays connected enough to route.
            b.attach(h, nets[0]);
        }
    }
    b.build()
}

/// A first-hop table in destination order, so the dense table and the
/// reference's hash map compare (and print) alike.
fn sorted(routes: impl IntoIterator<Item = (HostId, Route)>) -> BTreeMap<HostId, Route> {
    routes.into_iter().collect()
}

proptest! {
    /// Route tables and alternate orderings are a pure function of the
    /// topology: two independent constructions agree exactly, for every
    /// source and destination.
    #[test]
    fn route_tables_and_alternates_are_deterministic(
        n_nets in 1usize..4,
        attachments in collection::vec(collection::vec(any::<bool>(), 4..5), 2..7),
    ) {
        let attachments: Vec<Vec<bool>> = attachments
            .into_iter()
            .map(|mut v| { v.truncate(n_nets); v })
            .collect();
        let s1 = build_mesh(n_nets, &attachments);
        let s2 = build_mesh(n_nets, &attachments);
        let hosts = s1.hosts.len();
        for src in 0..hosts {
            let src = HostId(src as u32);
            // First-hop tables agree entry for entry.
            let r1 = routing::primary_routes(&s1, src);
            let r2 = routing::primary_routes(&s2, src);
            prop_assert_eq!(&r1, &r2);
            // And the built tables match a fresh computation (build-time
            // seeding introduced no divergence).
            prop_assert_eq!(&s1.host(src).routes, &r1);
            for dst in 0..hosts {
                if src.0 == dst as u32 {
                    continue;
                }
                let dst = HostId(dst as u32);
                let p1 = k_paths(&s1, src, dst, 3);
                let p2 = k_paths(&s2, src, dst, 3);
                prop_assert_eq!(&p1, &p2, "alternate ordering diverged");
                assert_simple(&p1, src, dst);
            }
        }
    }

    /// A full rebuild serves every host from one graph built over the
    /// shared seeded table; each table must equal what the host computes
    /// alone from its own LSDB — with a network down and a host crashed, so
    /// the availability flags go through both paths.
    #[test]
    fn shared_graph_tables_equal_per_host_computation(
        n_nets in 1usize..4,
        attachments in collection::vec(collection::vec(any::<bool>(), 4..5), 2..7),
        down in 0usize..4,
        crashed in 0usize..7,
    ) {
        let attachments: Vec<Vec<bool>> = attachments
            .into_iter()
            .map(|mut v| { v.truncate(n_nets); v })
            .collect();
        let mut s = build_mesh(n_nets, &attachments);
        let hosts = s.hosts.len();
        s.networks[down % n_nets].down = true;
        s.hosts[crashed % hosts].up = false;
        compute_routes(&mut s);
        for h in 0..hosts {
            let h = HostId(h as u32);
            prop_assert!(s.host(h).lsdb.shares_backing(&s.host(HostId(0)).lsdb));
            prop_assert_eq!(&s.host(h).routes, &routing::primary_routes(&s, h));
        }
    }

    /// Timer-free invariant: the first alternate returned by `k_paths` is
    /// exactly the BFS first-hop table's path prefix (same first hop), so
    /// datagram forwarding and RMS establishment agree on the primary.
    #[test]
    fn first_alternate_matches_primary_table(
        attachments in collection::vec(collection::vec(any::<bool>(), 3..4), 2..6),
    ) {
        let s = build_mesh(3, &attachments);
        for src in 0..s.hosts.len() {
            let src = HostId(src as u32);
            let table = routing::primary_routes(&s, src);
            for dst in 0..s.hosts.len() {
                let dst = HostId(dst as u32);
                if src == dst { continue; }
                let paths = k_paths(&s, src, dst, 3);
                match table.get(dst) {
                    Some(route) => {
                        prop_assert!(!paths.is_empty(), "table has a route, k_paths none");
                        prop_assert_eq!(paths[0].hops[0], route.next_hop);
                    }
                    None => prop_assert!(paths.is_empty(), "k_paths found {:?} with no table route", paths),
                }
            }
        }
    }

    /// The host–network-graph computations against the clique-based ones
    /// they replaced, on sparse meshes (each host on one to three networks,
    /// so dual-homed pairs share two: equal hop sequences, different network
    /// sequences) with an optional down network and up to two crashed
    /// hosts: the same alternates in the same order — a prefix-extension
    /// where the reference tripped its cap — and the same first-hop table,
    /// exactly.
    #[test]
    fn differential_routes_match_the_clique_reference(
        n_nets in 1usize..8,
        homes in collection::vec(collection::vec(0usize..64, 1..4), 2..16),
        down in 0usize..14,
        crashed in collection::vec(0usize..32, 2..3),
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
    ) {
        let attachments: Vec<Vec<bool>> = homes
            .iter()
            .map(|at| (0..n_nets).map(|n| at.iter().any(|a| a % n_nets == n)).collect())
            .collect();
        let mut s = build_mesh(n_nets, &attachments);
        let hosts = s.hosts.len();
        if down < n_nets {
            s.networks[down].down = true;
        }
        for c in crashed {
            if c < hosts {
                s.hosts[c].up = false;
            }
        }
        for src in (0..hosts as u32).map(HostId) {
            prop_assert_eq!(
                sorted(routing::primary_routes(&s, src).iter()),
                sorted(common::primary_routes(&s, src))
            );
            for dst in (0..hosts as u32).map(HostId) {
                let new = k_paths(&s, src, dst, k);
                let (old, pops) = common::k_paths(&s, src, dst, k);
                if pops <= common::EXPANSION_CAP {
                    prop_assert_eq!(&new, &old, "{:?} -> {:?}, k = {}", src, dst, k);
                } else {
                    prop_assert_eq!(&new[..old.len()], &old[..]);
                }
            }
        }
    }
}
