//! Fault-injection tests at the network layer: dead networks, partitions,
//! burst loss, interface stalls, host crashes, and the control-packet
//! overflow exemption.

mod world;

use bytes::Bytes;
use dash_net::fault::{apply_fault, crash_host, restart_host, schedule_fault_plan, stall_iface};
use dash_net::ids::{HostId, NetRmsId};
use dash_net::network::NetworkSpec;
use dash_net::pipeline::{
    create_rms, create_rms_as_receiver, fail_network, send_datagram, send_on_rms,
};
use dash_net::state::{NetRmsEvent, NetState};
use dash_net::topology::{dual_homed, two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkId;
use dash_sim::fault::{FaultKind, FaultPlan, GilbertElliott};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use rms_core::bandwidth::implied_bandwidth;
use rms_core::delay::DelayBound;
use rms_core::error::{FailReason, RejectReason, RmsError};
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;
use world::World;

fn basic_params() -> RmsParams {
    RmsParams::builder(64 * 1024, 1024).build().unwrap()
}

fn establish(sim: &mut Sim<World>, a: HostId, b: HostId) -> NetRmsId {
    world::establish(sim, a, b, basic_params())
}

/// Two hosts joined by a slow long-haul link, so packets spend milliseconds
/// serializing and propagating — a wide window to kill the network with
/// traffic in flight.
fn two_hosts_long_haul() -> (NetState, HostId, HostId) {
    let mut b = TopologyBuilder::new();
    let net = b.network(NetworkSpec::long_haul("wan"));
    let a = b.host_on(net);
    let c = b.host_on(net);
    (b.build(), a, c)
}

#[test]
fn in_flight_packets_on_failed_network_are_lost() {
    let (net, a, b) = two_hosts_long_haul();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b);
    let drops_before = sim.state.net.obs.registry.counter_value("net.wire_drop");

    // 1000 payload bytes at 1.5 Mb/s ≈ 6 ms of serialization alone: the
    // network dies while the packet is still on its interface.
    send_on_rms(&mut sim, a, rms, Message::new(vec![7u8; 1000]), None, None).unwrap();
    let kill_at = sim.now().saturating_add(SimDuration::from_millis(1));
    sim.run_until(kill_at);
    fail_network(&mut sim, NetworkId(0));
    sim.run();

    assert!(
        sim.state.deliveries.is_empty(),
        "in-flight packet must not be delivered across a dead network"
    );
    assert!(sim.state.net.obs.registry.counter_value("net.wire_drop") > drops_before);
    // Both endpoints heard the typed failure.
    assert!(sim
        .state
        .failed()
        .iter()
        .any(|(h, r, reason)| *h == a && *r == rms && *reason == FailReason::NetworkDown));
    assert!(sim
        .state
        .failed()
        .iter()
        .any(|(h, r, reason)| *h == b && *r == rms && *reason == FailReason::NetworkDown));
    // The upward availability hook fired.
    assert_eq!(sim.state.network_events, vec![(NetworkId(0), false)]);
}

#[test]
fn admission_rejects_creates_on_down_network() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    // The create is accepted synchronously (route existed), but the network
    // dies before the handshake's first packet goes out.
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();
    fail_network(&mut sim, NetworkId(0));
    sim.run();
    assert!(
        sim.state
            .create_failed()
            .contains(&(a, rms, RejectReason::NoRoute)),
        "pending create must be refused on a down network: {:?}",
        sim.state.create_failed()
    );
    assert!(sim.state.created().is_empty());

    // And a fresh create fails synchronously: routing knows the medium is
    // gone.
    assert!(create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).is_err());
}

#[test]
fn control_packets_exempt_from_overflow_under_datagram_flood() {
    // Satellite regression: a gateway queue stuffed past its byte limit by
    // datagram traffic must still pass the tiny control packets that run
    // the RMS creation handshake (see Iface::enqueue).
    let mut b = TopologyBuilder::new();
    let lan = b.network(NetworkSpec::ethernet("lan"));
    let a = b.host_on(lan);
    let c = b.host_on(lan);
    b.iface_queue_limit(Some(4 * 1024));
    let mut sim = Sim::new(World::new(b.build()));

    // Flood: far more raw bytes than the 4 KiB limit, all enqueued now.
    for _ in 0..32 {
        send_datagram(&mut sim, a, c, 9, Bytes::from(vec![0u8; 1024]).into());
    }
    let rms = create_rms(&mut sim, a, c, &RmsRequest::exact(basic_params())).unwrap();
    sim.run();

    let drops = sim.state.net.host(a).ifaces[0].stats.overflow_drops.get();
    assert!(drops > 0, "flood must overflow the data queue");
    assert!(
        sim.state.created().contains(&(a, rms)),
        "handshake must complete despite the flooded queue: {:?}",
        sim.state.create_failed()
    );
}

#[test]
fn partition_blocks_traffic_until_healed() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    apply_fault(&mut sim, &FaultKind::Partition { a: a.0, b: b.0 });
    send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"blocked").into());
    sim.run();
    assert!(
        sim.state.datagrams.is_empty(),
        "partition must drop traffic"
    );

    apply_fault(&mut sim, &FaultKind::HealPartition { a: a.0, b: b.0 });
    send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"through").into());
    sim.run();
    assert_eq!(sim.state.datagrams.len(), 1);
    assert_eq!(sim.state.datagrams[0].2.contiguous().as_ref(), b"through");
    // Fault applications were counted by kind.
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("fault.partition"), 1);
    assert_eq!(reg.counter_value("fault.heal_partition"), 1);
}

#[test]
fn burst_loss_model_overrides_wire_and_clears() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    // A channel that loses everything in either state.
    let model = GilbertElliott::new(1.0, 0.0, 1.0, 1.0);
    apply_fault(&mut sim, &FaultKind::BurstLossStart { network: 0, model });
    for _ in 0..5 {
        send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"x").into());
    }
    sim.run();
    assert!(
        sim.state.datagrams.is_empty(),
        "burst-bad channel loses all"
    );

    apply_fault(&mut sim, &FaultKind::BurstLossEnd { network: 0 });
    send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"y").into());
    sim.run();
    assert_eq!(sim.state.datagrams.len(), 1);
}

#[test]
fn iface_stall_delays_but_does_not_drop() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let stall = SimDuration::from_millis(50);
    let stalled_until = sim.now().saturating_add(stall);
    stall_iface(&mut sim, a, NetworkId(0), stall);
    send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"late").into());
    sim.run();
    assert_eq!(sim.state.datagrams.len(), 1, "stall must not drop packets");
    assert!(
        sim.now() >= stalled_until,
        "delivery cannot predate the stall's end"
    );
}

/// A crash fails both ends of the RMS to the crashed host, so the sender
/// cannot send into it; after the restart a fresh RMS works.
#[test]
fn host_crash_fails_both_ends_and_restart_allows_new() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b);

    crash_host(&mut sim, b);
    let revoked = FailReason::ResourcesRevoked;
    assert_eq!(sim.state.failed(), [(a, rms, revoked), (b, rms, revoked)]);
    let sent = send_on_rms(&mut sim, a, rms, Message::new(vec![1u8; 64]), None, None);
    assert_eq!(sent, Err(RmsError::UnknownStream));

    // After restart, a fresh RMS works end to end.
    restart_host(&mut sim, b);
    let rms2 = establish(&mut sim, a, b);
    send_on_rms(&mut sim, a, rms2, Message::new(vec![2u8; 64]), None, None).unwrap();
    sim.run();
    assert!(sim
        .state
        .deliveries
        .iter()
        .any(|(h, r, _, _)| *h == b && *r == rms2));
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("net.host_crashed"), 1);
    assert_eq!(reg.counter_value("net.host_restarted"), 1);
}

/// Every event `host` saw.
fn events_at(sim: &Sim<World>, host: HostId) -> Vec<&NetRmsEvent> {
    (sim.state.events.iter())
        .filter(|(h, _)| *h == host)
        .map(|(_, e)| e)
        .collect()
}

/// A create whose creator crashes before its first attempt runs is
/// answered at the crash, once: a crashed host routes nothing.
#[test]
fn a_create_dropped_by_its_creators_crash_is_answered_once() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();
    crash_host(&mut sim, a);
    sim.run();
    let events = events_at(&sim, a);
    assert!(
        matches!(
            events[..],
            [NetRmsEvent::CreateFailed {
                rms: r,
                reason: RejectReason::NoRoute,
            }] if *r == rms
        ),
        "{events:?}"
    );
}

/// An invite whose inviter crashes before it is first sent is answered at
/// the crash, once.
#[test]
fn an_invite_dropped_by_its_inviters_crash_is_answered_once() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let request = RmsRequest::exact(basic_params());
    let rms = create_rms_as_receiver(&mut sim, b, a, &request).unwrap();
    crash_host(&mut sim, b);
    sim.run();
    let events = events_at(&sim, b);
    assert!(
        matches!(
            events[..],
            [NetRmsEvent::InviteFailed {
                rms: r,
                reason: RejectReason::NoRoute,
            }] if *r == rms
        ),
        "{events:?}"
    );
    assert!(events_at(&sim, a).is_empty(), "the invite never left b");
}

/// A create and an invite at a crashed host are refused at once: no
/// attempt leaves it, so nothing is dropped and nothing answers later.
#[test]
fn a_crashed_host_refuses_creates_and_invites_at_once() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    crash_host(&mut sim, a);
    sim.run();
    let host_down =
        |sim: &Sim<World>| (sim.state.net.obs.registry).counter_value("net.drop.host_down");
    let drops = host_down(&sim);
    let request = RmsRequest::exact(basic_params());
    let refused = Err(RmsError::CreationRejected(RejectReason::NoRoute));
    assert_eq!(create_rms(&mut sim, a, b, &request), refused);
    assert_eq!(create_rms_as_receiver(&mut sim, a, b, &request), refused);
    sim.run();
    assert!(events_at(&sim, a).is_empty(), "{:?}", events_at(&sim, a));
    assert_eq!(host_down(&sim), drops, "an attempt left the crashed host");
}

/// A crashed gateway carries no route and no RMS.
#[test]
fn crashed_host_is_not_used_as_transit() {
    // a - lan1 - g - lan2 - b: killing the gateway strands the edge hosts.
    let mut builder = TopologyBuilder::new();
    let lan1 = builder.network(NetworkSpec::ethernet("lan1"));
    let lan2 = builder.network(NetworkSpec::ethernet("lan2"));
    let a = builder.host_on(lan1);
    let g = builder.gateway(lan1, lan2);
    let b = builder.host_on(lan2);
    let mut sim = Sim::new(World::new(builder.build()));
    let rms = establish(&mut sim, a, b);
    crash_host(&mut sim, g);
    assert!(
        sim.state.net.path(a, b).is_none(),
        "routes must not traverse a crashed gateway"
    );
    // Both ends of the RMS routed through the gateway fail with it.
    let revoked = FailReason::ResourcesRevoked;
    assert_eq!(sim.state.failed(), [(a, rms, revoked), (b, rms, revoked)]);
    restart_host(&mut sim, g);
    assert!(sim.state.net.path(a, b).is_some());
}

/// A dumbbell with a disjoint backup path: `a` and `b` sit on fast LANs
/// joined by two parallel WAN gateway pairs. Returns
/// `(state, a, b, primary_wan, backup_wan)`.
fn dumbbell_with_backup() -> (NetState, HostId, HostId, NetworkId, NetworkId) {
    let mut builder = TopologyBuilder::new();
    let lan_a = builder.network(NetworkSpec::fast_lan("lan-a"));
    let wan_p = builder.network(NetworkSpec::long_haul("wan-primary"));
    let wan_b = builder.network(NetworkSpec::long_haul("wan-backup"));
    let lan_b = builder.network(NetworkSpec::fast_lan("lan-b"));
    let a = builder.host_on(lan_a);
    let _g1 = builder.gateway(lan_a, wan_p); // primary pair: lower ids win ties
    let _g2 = builder.gateway(wan_p, lan_b);
    let _g3 = builder.gateway(lan_a, wan_b);
    let _g4 = builder.gateway(wan_b, lan_b);
    let b = builder.host_on(lan_b);
    (builder.build(), a, b, wan_p, wan_b)
}

#[test]
fn stale_route_retry_reroutes_over_backup_path() {
    // Regression: a create whose first attempt was swallowed by a network
    // death used to have its retry timer consult the (now stale) route it
    // captured at create time and fail with NoRoute. The retry must notice
    // the route-generation bump, re-resolve its candidates, and establish
    // over the surviving backup path.
    let (net, a, b, wan_p, _wan_b) = dumbbell_with_backup();
    let mut sim = Sim::new(World::new(net));
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();

    // The first CreateReq needs ~30 ms of WAN propagation; kill the
    // primary WAN while the handshake is crossing it.
    sim.run_until(sim.now().saturating_add(SimDuration::from_millis(5)));
    fail_network(&mut sim, wan_p);
    sim.run();

    assert!(
        sim.state.created().contains(&(a, rms)),
        "retry must re-route over the backup WAN: {:?}",
        sim.state.create_failed()
    );
    assert!(
        sim.state.create_failed().is_empty(),
        "no NoRoute from the stale retry: {:?}",
        sim.state.create_failed()
    );
    // Reconvergence is lazy: tables rebuild at first use. Table-routed
    // traffic (a datagram) forces the rebuild and lands on the backup.
    send_datagram(&mut sim, a, b, 7, Bytes::from_static(b"rerouted").into());
    sim.run();
    assert_eq!(sim.state.datagrams.len(), 1);
    let reg = &sim.state.net.obs.registry;
    assert!(reg.counter_value("routing.floods") > 0, "scoped re-flood");
    assert!(reg.counter_value("routing.recompute") > 0, "lazy recompute");
}

#[test]
fn scheduled_flap_plan_leaves_network_up_and_counts_faults() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let plan = FaultPlan::new().flap(
        0,
        SimTime::ZERO.saturating_add(SimDuration::from_millis(10)),
        SimDuration::from_millis(20), // down for
        SimDuration::from_millis(20), // up for
        SimTime::ZERO.saturating_add(SimDuration::from_millis(200)),
    );
    let downs = plan
        .events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::NetworkDown { .. }))
        .count() as u64;
    schedule_fault_plan(&mut sim, &plan);
    sim.run();
    assert!(!sim.state.net.network(NetworkId(0)).down, "flap ends up");
    // Every down was eventually matched by an up, and the upward hook saw
    // the same sequence.
    let ups = sim
        .state
        .network_events
        .iter()
        .filter(|(_, up)| *up)
        .count() as u64;
    assert_eq!(ups, downs);
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("fault.network_down"), downs);
    assert_eq!(reg.counter_value("fault.network_up"), downs);
    // The network works again after the plan.
    let _ = establish(&mut sim, a, b);
}

/// A create whose network fails while its `CreateAck` is in flight is
/// retried over the other network. The receiver's endpoint failed with the
/// first network and is gone, so the retry opens a fresh one there instead
/// of being re-acked onto the dead one, and the stream carries data.
#[test]
fn a_retry_reaching_a_failed_receiver_opens_a_fresh_endpoint() {
    let (net, a, b) = dual_homed(1);
    let mut sim = Sim::new(World::new(net));
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();
    // The receiver accepts the request and puts its ack on the wire.
    while !sim.state.net.host(b).rms.contains_key(&rms) {
        assert!(sim.step(), "the request reaches the receiver");
    }
    let first = sim.state.net.host(b).rms[&rms].path[0].network;
    fail_network(&mut sim, first);
    sim.run();
    assert!(
        sim.state.created().contains(&(a, rms)),
        "the retry completed"
    );
    for i in 0..3 {
        send_on_rms(&mut sim, a, rms, Message::new(vec![i; 64]), None, None).unwrap();
    }
    sim.run();
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("net.drop.no_rms"), 0);
    assert_eq!(sim.state.deliveries.len(), 3, "every frame is delivered");
    let path = &sim.state.net.host(b).rms[&rms].path;
    assert!(
        path.iter().all(|leg| leg.network != first),
        "the receiver holds the retry's path"
    );
}

/// A create retried along another leg moves its transit reservation with
/// its pin. C–T on network 0, T–D on networks 1 and 2: the first request
/// reserves at T on network 1, network 1 fails while the request is on it,
/// and the creator's retry crosses network 2. T's reservation ends on
/// network 2's ledger, where the RMS's data leaves, not on the dead one's.
#[test]
fn a_retry_along_another_leg_moves_the_transit_reservation() {
    let mut tb = TopologyBuilder::new();
    let [n0, n1, n2] = ["n0", "n1", "n2"].map(|name| tb.network(NetworkSpec::ethernet(name)));
    let c = tb.host_on(n0);
    let t = tb.gateway(n0, n1);
    tb.attach(t, n2);
    let d = tb.host_on(n1);
    tb.attach(d, n2);
    let mut sim = Sim::new(World::new(tb.build()));
    let params = RmsParams::builder(64 * 1024, 1024)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(100),
            SimDuration::from_micros(2),
        ))
        .build()
        .unwrap();
    let rms = create_rms(&mut sim, c, d, &RmsRequest::exact(params.clone())).unwrap();
    while !sim.state.net.host(t).holds.contains_key(&rms) {
        assert!(sim.step(), "the request reaches T");
    }
    fail_network(&mut sim, n1);
    sim.run();
    assert!(
        sim.state.created().contains(&(c, rms)),
        "the retry completed"
    );
    let reserved = |network| {
        let h = sim.state.net.host(t);
        h.ifaces[h.iface_on(network).unwrap()].ledger.reserved_bps()
    };
    let bps = implied_bandwidth(&params);
    println!("T reserves {bps:.0} B/s");
    assert_eq!((reserved(n1), reserved(n2)), (0.0, bps));
}

/// Deterministic parameters of which four fit one Ethernet interface
/// (29 % of its reservable bandwidth and 64 KiB of buffer each).
fn reserved_params() -> RmsParams {
    RmsParams::builder(64 * 1024, 1024)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(192),
            SimDuration::from_micros(10),
        ))
        .build()
        .unwrap()
}

/// Whether `host` keeps no record of any RMS and its ledgers read zero.
fn assert_empty(sim: &Sim<World>, host: HostId) {
    let h = sim.state.net.host(host);
    assert!(h.holds.is_empty(), "holds {:?}", h.holds.keys());
    assert!(h.rms.is_empty(), "endpoints {:?}", h.rms.keys());
    assert!(h.pending.is_empty(), "creates {:?}", h.pending.keys());
    assert!(h.invites.is_empty(), "invites {:?}", h.invites.keys());
    for iface in &h.ifaces {
        let ledger = &iface.ledger;
        assert_eq!(ledger.reserved_bps(), 0.0, "{:?}", iface.network);
        assert_eq!(ledger.reserved_buffer(), 0, "{:?}", iface.network);
        assert_eq!(ledger.statistical_load_bps(), 0.0, "{:?}", iface.network);
    }
}

/// A crash gives back everything the crashed host had a part in, so it
/// restarts empty. a, c — lan1 — g — lan2 — b: a → b and b → a are
/// routed through g, g → b starts there, a → c does not touch it, and a
/// create and an invite of g's are still pending. Right after the crash
/// g holds no reservation, pin, endpoint, create or invite and its
/// ledgers read zero, while a's ledger counts only a → c and b's nothing.
/// After the restart a fresh RMS through g is its only reservation.
#[test]
fn a_crashed_host_restarts_empty() {
    let mut tb = TopologyBuilder::new();
    let lan1 = tb.network(NetworkSpec::ethernet("lan1"));
    let lan2 = tb.network(NetworkSpec::ethernet("lan2"));
    let a = tb.host_on(lan1);
    let c = tb.host_on(lan1);
    let g = tb.gateway(lan1, lan2);
    let b = tb.host_on(lan2);
    let mut sim = Sim::new(World::new(tb.build()));
    let params = reserved_params();
    let cut = [(a, b), (b, a), (g, b)].map(|(from, to)| {
        let rms = world::establish(&mut sim, from, to, params.clone());
        assert!(
            sim.state.net.host(g).holds.contains_key(&rms),
            "{rms:?} is held at g"
        );
        rms
    });
    let kept = world::establish(&mut sim, a, c, params.clone());
    let request = RmsRequest::exact(params.clone());
    create_rms(&mut sim, g, a, &request).unwrap();
    create_rms_as_receiver(&mut sim, g, c, &request).unwrap();

    crash_host(&mut sim, g);
    assert_empty(&sim, g);
    let bps = implied_bandwidth(&params);
    let ledger = |sim: &Sim<World>, host| {
        let iface = &sim.state.net.host(host).ifaces[0];
        (iface.ledger.reserved_bps(), iface.ledger.reserved_buffer())
    };
    assert_eq!(
        ledger(&sim, a),
        (bps, params.capacity),
        "a counts a → c alone"
    );
    assert_eq!(ledger(&sim, b), (0.0, 0), "b counts nothing");
    for h in &sim.state.net.hosts {
        let held: Vec<_> = h.holds.keys().copied().collect();
        assert!(held.iter().all(|rms| *rms == kept), "{:?}: {held:?}", h.id);
        assert!(cut.iter().all(|rms| !h.rms.contains_key(rms)), "{:?}", h.id);
    }

    restart_host(&mut sim, g);
    assert_empty(&sim, g);
    let fresh = world::establish(&mut sim, a, b, params.clone());
    let h = sim.state.net.host(g);
    assert_eq!(h.holds.keys().collect::<Vec<_>>(), [&fresh]);
    let out = h.holds[&fresh].route.iface;
    assert_eq!(h.ifaces[out].ledger.reserved_bps(), bps);
}

/// A create whose request is on its way toward a host that crashes holds
/// nothing once its refusal drains. a — lan1 — g1 — lan2 — g2 — lan3 —
/// b: g2 crashes while a's request is on lan1. The crash gives back a's
/// first hop, and g1 refuses the leg into the crashed g2, so its NAK walks
/// back and the create fails with `NoRoute` instead of leaving a
/// reservation and pin at g1.
#[test]
fn a_create_in_flight_toward_a_crashed_host_holds_nothing() {
    let mut tb = TopologyBuilder::new();
    let [lan1, lan2, lan3] = ["lan1", "lan2", "lan3"].map(|n| tb.network(NetworkSpec::ethernet(n)));
    let a = tb.host_on(lan1);
    let g1 = tb.gateway(lan1, lan2);
    let g2 = tb.gateway(lan2, lan3);
    let b = tb.host_on(lan3);
    let mut sim = Sim::new(World::new(tb.build()));
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(reserved_params())).unwrap();
    while !sim.state.net.host(a).holds.contains_key(&rms) {
        assert!(sim.step(), "the request leaves a");
    }
    crash_host(&mut sim, g2);
    sim.run();
    for h in &sim.state.net.hosts {
        assert!(!h.holds.contains_key(&rms), "{:?} holds {rms:?}", h.id);
        for iface in &h.ifaces {
            assert_eq!(iface.ledger.reserved_bps(), 0.0, "{:?}", h.id);
        }
    }
    assert_eq!(sim.state.create_failed(), [(a, rms, RejectReason::NoRoute)]);
    assert!(events_at(&sim, g1).is_empty() && events_at(&sim, b).is_empty());
}
