//! Fault-injection tests at the network layer: dead networks, partitions,
//! burst loss, interface stalls, host crashes, and the control-packet
//! overflow exemption.

use bytes::Bytes;
use dash_net::fault::{apply_fault, crash_host, restart_host, schedule_fault_plan, stall_iface};
use dash_net::ids::{CreateToken, HostId, NetRmsId};
use dash_net::network::NetworkSpec;
use dash_net::pipeline::{create_rms, fail_network, send_datagram, send_on_rms};
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_net::topology::{two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkId;
use dash_sim::fault::{FaultKind, FaultPlan, GilbertElliott};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use rms_core::error::{FailReason, RejectReason};
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;
use rms_core::RmsRequest;

/// A recording world.
struct World {
    net: NetState,
    deliveries: Vec<(HostId, NetRmsId, Message)>,
    created: Vec<(HostId, CreateToken, NetRmsId)>,
    create_failed: Vec<(HostId, CreateToken, RejectReason)>,
    failed: Vec<(HostId, NetRmsId, FailReason)>,
    datagrams: Vec<(HostId, u16, WireMsg, SimTime)>,
    network_events: Vec<(NetworkId, bool)>,
}

impl World {
    fn new(mut net: NetState) -> Self {
        net.obs.enable();
        World {
            net,
            deliveries: Vec::new(),
            created: Vec::new(),
            create_failed: Vec::new(),
            failed: Vec::new(),
            datagrams: Vec::new(),
            network_events: Vec::new(),
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
        msg: Message,
        _info: DeliveryInfo,
    ) {
        sim.state.deliveries.push((host, rms, msg));
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        match event {
            NetRmsEvent::Created { token, rms, .. } => sim.state.created.push((host, token, rms)),
            NetRmsEvent::CreateFailed { token, reason } => {
                sim.state.create_failed.push((host, token, reason));
            }
            NetRmsEvent::Failed { rms, reason } => sim.state.failed.push((host, rms, reason)),
            _ => {}
        }
    }
    fn deliver_datagram(
        sim: &mut Sim<Self>,
        host: HostId,
        _src: HostId,
        proto: u16,
        payload: WireMsg,
        sent_at: SimTime,
    ) {
        sim.state.datagrams.push((host, proto, payload, sent_at));
    }
    fn network_event(sim: &mut Sim<Self>, network: NetworkId, up: bool) {
        sim.state.network_events.push((network, up));
    }
}

fn basic_params() -> RmsParams {
    RmsParams::builder(64 * 1024, 1024).build().unwrap()
}

fn establish(sim: &mut Sim<World>, a: HostId, b: HostId) -> NetRmsId {
    let token = create_rms(sim, a, b, &RmsRequest::exact(basic_params())).expect("creatable");
    sim.run();
    sim.state
        .created
        .iter()
        .find(|(h, t, _)| *h == a && *t == token)
        .map(|(_, _, rms)| *rms)
        .expect("creation completed")
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
        .failed
        .iter()
        .any(|(h, r, reason)| *h == a && *r == rms && *reason == FailReason::NetworkDown));
    assert!(sim
        .state
        .failed
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
    let token = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();
    fail_network(&mut sim, NetworkId(0));
    sim.run();
    assert!(
        sim.state
            .create_failed
            .iter()
            .any(|(h, t, reason)| *h == a && *t == token && *reason == RejectReason::NoRoute),
        "pending create must be refused on a down network: {:?}",
        sim.state.create_failed
    );
    assert!(sim.state.created.is_empty());

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
    let token = create_rms(&mut sim, a, c, &RmsRequest::exact(basic_params())).unwrap();
    sim.run();

    let drops = sim.state.net.host(a).ifaces[0].stats.overflow_drops.get();
    assert!(drops > 0, "flood must overflow the data queue");
    assert!(
        sim.state
            .created
            .iter()
            .any(|(h, t, _)| *h == a && *t == token),
        "handshake must complete despite the flooded queue: {:?}",
        sim.state.create_failed
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

#[test]
fn host_crash_fails_local_rms_and_restart_allows_new() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b);

    crash_host(&mut sim, b);
    assert!(sim
        .state
        .failed
        .iter()
        .any(|(h, r, reason)| *h == b && *r == rms && *reason == FailReason::ResourcesRevoked));

    // Traffic toward the crashed host dies on arrival.
    let n = sim.state.deliveries.len();
    send_on_rms(&mut sim, a, rms, Message::new(vec![1u8; 64]), None, None).unwrap();
    sim.run();
    assert_eq!(sim.state.deliveries.len(), n);

    // After restart, a fresh RMS works end to end.
    restart_host(&mut sim, b);
    let rms2 = establish(&mut sim, a, b);
    send_on_rms(&mut sim, a, rms2, Message::new(vec![2u8; 64]), None, None).unwrap();
    sim.run();
    assert!(sim
        .state
        .deliveries
        .iter()
        .any(|(h, r, _)| *h == b && *r == rms2));
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("net.host_crashed"), 1);
    assert_eq!(reg.counter_value("net.host_restarted"), 1);
}

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
    assert!(sim.state.net.path(a, b).is_some());
    crash_host(&mut sim, g);
    assert!(
        sim.state.net.path(a, b).is_none(),
        "routes must not traverse a crashed gateway"
    );
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
    let token = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();

    // The first CreateReq needs ~30 ms of WAN propagation; kill the
    // primary WAN while the handshake is crossing it.
    sim.run_until(sim.now().saturating_add(SimDuration::from_millis(5)));
    fail_network(&mut sim, wan_p);
    sim.run();

    assert!(
        sim.state
            .created
            .iter()
            .any(|(h, t, _)| *h == a && *t == token),
        "retry must re-route over the backup WAN: {:?}",
        sim.state.create_failed
    );
    assert!(
        sim.state.create_failed.is_empty(),
        "no NoRoute from the stale retry: {:?}",
        sim.state.create_failed
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
