//! End-to-end subtransport tests: control channel + authentication, ST RMS
//! creation, multiplexing/caching, piggybacking, fragmentation, fast acks,
//! failure propagation.

use bytes::Bytes;
use dash_net::ids::{HostId, NetRmsId};
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_net::topology::{dumbbell, two_hosts_ethernet};
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_subtransport::engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::{StConfig, StEvent, StState, StWorld};
use dash_subtransport::wire::{encode, DataFrame, Frame};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;
use rms_core::{RejectReason, RmsError, RmsRequest};

struct World {
    net: NetState,
    st: StState,
    st_deliveries: Vec<(HostId, StRmsId, Message, DeliveryInfo)>,
    st_events: Vec<(HostId, String)>,
    created: Vec<(HostId, Client, StRmsId)>,
    inbound: Vec<(HostId, StRmsId)>,
    fast_acks: Vec<(HostId, StRmsId, u64)>,
    /// Network RMSs created at their sending host, in creation order.
    net_created: Vec<(HostId, NetRmsId)>,
    /// The network RMS each network-level delivery arrived on.
    net_deliveries: Vec<(HostId, NetRmsId)>,
}

impl World {
    fn new(net: NetState, config: StConfig) -> Self {
        let n = net.hosts.len();
        let mut st = StState::new(config, n);
        st.provision_all_keys(n as u32);
        World {
            net,
            st,
            st_deliveries: Vec::new(),
            st_events: Vec::new(),
            created: Vec::new(),
            inbound: Vec::new(),
            fast_acks: Vec::new(),
            net_created: Vec::new(),
            net_deliveries: Vec::new(),
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
        info: DeliveryInfo,
    ) {
        sim.state.net_deliveries.push((host, rms));
        engine::on_net_deliver(sim, host, rms, msg, info);
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        if let NetRmsEvent::Created { rms, .. } = &event {
            sim.state.net_created.push((host, *rms));
        }
        engine::on_net_event(sim, host, &event);
    }
}

impl StWorld for World {
    fn st(&mut self) -> &mut StState {
        &mut self.st
    }
    fn st_ref(&self) -> &StState {
        &self.st
    }
    fn st_inbound(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        _peer: HostId,
        _header: &Bytes,
    ) -> Client {
        sim.state.inbound.push((host, st_rms));
        RECEIVER
    }
    fn st_deliver(
        sim: &mut Sim<Self>,
        host: HostId,
        client: Client,
        st_rms: StRmsId,
        msg: Message,
        info: DeliveryInfo,
    ) {
        assert_eq!(client, RECEIVER, "a receiving lane keeps its client");
        sim.state.st_deliveries.push((host, st_rms, msg, info));
    }
    fn st_event(sim: &mut Sim<Self>, host: HostId, client: Client, event: StEvent) {
        sim.state.st_events.push((host, format!("{event:?}")));
        match event {
            StEvent::Created { st_rms, .. } => sim.state.created.push((host, client, st_rms)),
            StEvent::FastAck { st_rms, seq } => sim.state.fast_acks.push((host, st_rms, seq)),
            _ => {}
        }
    }
}

/// A counter of the world's metric registry (both hosts together).
fn count(sim: &Sim<World>, name: &str) -> u64 {
    sim.state.net.obs.registry.counter_value(name)
}

fn basic_request() -> RmsRequest {
    RmsRequest::exact(RmsParams::builder(32 * 1024, 8 * 1024).build().unwrap())
}

/// The client every receiving lane of this world is bound to.
const RECEIVER: Client = Client { proto: 1, id: 0 };

/// A creator's client, distinct per create.
fn creator(id: u64) -> Client {
    Client { proto: 2, id }
}

fn establish(sim: &mut Sim<World>, a: HostId, b: HostId, req: &RmsRequest, fa: bool) -> StRmsId {
    let client = creator(sim.state.created.len() as u64);
    engine::create(sim, a, b, req, fa, client, Bytes::new()).expect("create accepted");
    sim.run();
    sim.state
        .created
        .iter()
        .find(|(h, c, _)| *h == a && *c == client)
        .map(|(_, _, s)| *s)
        .unwrap_or_else(|| panic!("creation did not complete: {:?}", sim.state.st_events))
}

#[test]
fn create_and_send_end_to_end() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    assert_eq!(sim.state.inbound, vec![(b, st_rms)]);

    engine::send(&mut sim, a, st_rms, Message::new(vec![1, 2, 3])).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
    let (host, rms, msg, info) = &sim.state.st_deliveries[0];
    assert_eq!(*host, b);
    assert_eq!(*rms, st_rms);
    assert_eq!(msg.payload().as_ref(), &[1, 2, 3]);
    assert_eq!(info.seq, 0);
    assert!(info.delay() > SimDuration::ZERO);
}

#[test]
fn control_channel_is_reused_across_streams() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let s1 = establish(&mut sim, a, b, &basic_request(), false);
    let hellos_after_first = count(&sim, "st.hello_sent");
    let s2 = establish(&mut sim, a, b, &basic_request(), false);
    assert_ne!(s1, s2);
    // No new Hello handshake for the second stream.
    assert_eq!(count(&sim, "st.hello_sent"), hellos_after_first);
    // One control channel per direction (§3.2), each created once.
    assert_eq!(count(&sim, "st.control_created"), 2);
}

#[test]
fn compatible_streams_share_one_network_rms() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let req = RmsRequest::exact(RmsParams::builder(8 * 1024, 1024).build().unwrap());
    let s1 = establish(&mut sim, a, b, &req, false);
    let s2 = establish(&mut sim, a, b, &req, false);
    assert_eq!(count(&sim, "st.cache_miss"), 1, "one data net RMS created");
    assert_eq!(
        count(&sim, "st.cache_hit"),
        1,
        "second stream multiplexed onto it"
    );
    // Both streams actually work.
    engine::send(&mut sim, a, s1, Message::new(vec![1u8; 100])).unwrap();
    engine::send(&mut sim, a, s2, Message::new(vec![2u8; 100])).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 2);
}

#[test]
fn closed_stream_leaves_cached_network_rms() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let req = basic_request();
    let s1 = establish(&mut sim, a, b, &req, false);
    engine::close(&mut sim, a, s1).unwrap();
    sim.run();
    // Receiver learned about the close.
    assert!(sim
        .state
        .st_events
        .iter()
        .any(|(h, e)| *h == b && e.contains("Closed")));
    // A new stream reuses the cached network RMS: no second create.
    let _s2 = establish(&mut sim, a, b, &req, false);
    assert_eq!(count(&sim, "st.cache_miss"), 1);
    assert_eq!(count(&sim, "st.cache_hit"), 1);
}

#[test]
fn piggybacking_bundles_messages() {
    let (net, a, b) = two_hosts_ethernet();
    let config = StConfig {
        piggyback: true,
        piggyback_slack: SimDuration::from_millis(5),
        ..StConfig::default()
    };
    let mut sim = Sim::new(World::new(net, config));
    // A loose delay bound leaves room for queueing.
    let params = RmsParams::builder(32 * 1024, 1024)
        .delay(DelayBound::best_effort_with(
            SimDuration::from_millis(100),
            SimDuration::from_micros(10),
        ))
        .build()
        .unwrap();
    let st_rms = establish(&mut sim, a, b, &RmsRequest::exact(params), false);
    // Burst of small messages sent back-to-back: they should bundle.
    for i in 0..5u8 {
        engine::send(&mut sim, a, st_rms, Message::new(vec![i; 50])).unwrap();
    }
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 5);
    assert!(count(&sim, "st.bundle_sent") >= 1, "at least one bundle");
    assert!(count(&sim, "st.msg_bundled") >= 2);
    // Delivered in order.
    for (i, d) in sim.state.st_deliveries.iter().enumerate() {
        assert_eq!(d.2.payload()[0], i as u8);
        assert_eq!(d.3.seq, i as u64);
    }
}

#[test]
fn piggyback_disabled_sends_alone() {
    let (net, a, b) = two_hosts_ethernet();
    let config = StConfig {
        piggyback: false,
        ..StConfig::default()
    };
    let mut sim = Sim::new(World::new(net, config));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    for i in 0..5u8 {
        engine::send(&mut sim, a, st_rms, Message::new(vec![i; 50])).unwrap();
    }
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 5);
    // Each message is its own network message; nothing queues to flush.
    assert_eq!(count(&sim, "st.net_msg_sent"), 5);
    assert_eq!(count(&sim, "st.flush"), 0);
}

#[test]
fn large_messages_fragment_and_reassemble() {
    let (net, a, b) = two_hosts_ethernet(); // MTU 1536
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    let body: Vec<u8> = (0..8000u32).map(|i| (i % 251) as u8).collect();
    engine::send(&mut sim, a, st_rms, Message::new(body.clone())).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
    assert_eq!(sim.state.st_deliveries[0].2.payload().as_ref(), &body[..]);
    assert_eq!(count(&sim, "st.msg_fragmented"), 1);
    assert!(
        count(&sim, "st.fragment_sent") >= 6,
        "8000B over ~1.5KB MTU"
    );
    assert_eq!(count(&sim, "st.drop.reassembly"), 0);
}

/// A fragment lost in the middle of a message leaves a partial that a
/// gap or the next message's first fragment cuts short: each such message
/// is one typed `st.drop.reassembly`, never also a delivery.
#[test]
fn a_partial_cut_short_is_a_typed_drop() {
    let (net, a, b) = two_hosts_ethernet(); // MTU 1536: 6 fragments each
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    sim.state
        .net
        .network_mut(dash_net::NetworkId(0))
        .spec
        .drop_prob = 0.05;
    let n = 40;
    for _ in 0..n {
        engine::send(&mut sim, a, st_rms, Message::new(vec![7u8; 8000])).unwrap();
        sim.run();
    }
    let (delivered, cut) = (
        sim.state.st_deliveries.len(),
        count(&sim, "st.drop.reassembly"),
    );
    assert!(cut > 0, "the loss must cut some partial short");
    assert!(
        delivered + cut as usize <= n,
        "{delivered} delivered, {cut} cut"
    );
}

#[test]
fn a_bundle_with_a_malformed_frame_is_dropped_whole() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    engine::send(&mut sim, a, st_rms, Message::new(vec![1u8; 16])).unwrap();
    sim.run();
    let (_, carrier) = *sim.state.net_deliveries.last().expect("the send arrived");
    let sent_at = sim.now();
    let frame = |seq: u64| DataFrame {
        st_rms,
        seq,
        frag: None,
        sent_at,
        fast_ack: false,
        source: None,
        target: None,
        span: None,
        payload: WireMsg::from(vec![seq as u8; 16]),
    };
    let bundle = |first: u64| Frame::Bundle((first..first + 3).map(frame).collect());
    let inject = |sim: &mut Sim<World>, wire: WireMsg| {
        let now = sim.now();
        let info = DeliveryInfo {
            sent_at: now,
            delivered_at: now,
            stream: carrier.0,
            seq: 0,
        };
        engine::on_net_deliver(sim, b, carrier, Message::from_wire(wire), info);
        sim.run();
    };

    inject(&mut sim, encode(&bundle(1)));
    assert_eq!(sim.state.st_deliveries.len(), 4, "a sound bundle delivers");
    // The third frame's tag is the first byte after the other two.
    let mut bytes = encode(&bundle(4)).contiguous().to_vec();
    bytes[3 + 2 * encode(&Frame::Data(frame(4))).len()] = 0xee;
    inject(&mut sim, WireMsg::from(bytes));
    assert_eq!(sim.state.st_deliveries.len(), 4, "no frame of it ran");
    assert_eq!(count(&sim, "st.drop.malformed"), 1);
}

#[test]
fn fast_ack_reaches_sender() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), true);
    engine::send(&mut sim, a, st_rms, Message::new(vec![9u8; 64])).unwrap();
    sim.run();
    assert_eq!(sim.state.fast_acks, vec![(a, st_rms, 0)]);
    assert_eq!(count(&sim, "st.fast_ack_sent"), 1);
}

#[test]
fn missing_pair_key_fails_fast() {
    let (net, a, b) = two_hosts_ethernet();
    let n = net.hosts.len();
    let mut world = World::new(net, StConfig::default());
    world.st = StState::new(StConfig::default(), n); // no keys provisioned
    let mut sim = Sim::new(world);
    let err = engine::create(
        &mut sim,
        a,
        b,
        &basic_request(),
        false,
        creator(0),
        Bytes::new(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        RmsError::CreationRejected(RejectReason::AuthenticationFailed)
    ));
}

#[test]
fn mismatched_keys_fail_authentication() {
    let (net, a, b) = two_hosts_ethernet();
    let n = net.hosts.len();
    let mut st = StState::new(StConfig::default(), n);
    // Both sides have keys, but different ones: Hello verification fails.
    st.auth_keys.insert((0, 1), dash_security::Key(111));
    let mut world = World::new(net, StConfig::default());
    world.st = st;
    let mut sim = Sim::new(world);
    engine::create(
        &mut sim,
        a,
        b,
        &basic_request(),
        false,
        creator(0),
        Bytes::new(),
    )
    .unwrap();
    // Let the handshake proceed until a's Hello (signed with key 111) is on
    // the wire, then rotate the shared key: b now verifies with key 222 and
    // must reject the Hello.
    while count(&sim, "st.hello_sent") == 0 && sim.step() {}
    assert_eq!(count(&sim, "st.hello_sent"), 1);
    sim.state
        .st
        .auth_keys
        .insert((0, 1), dash_security::Key(222));
    sim.run();
    // Authentication cannot complete; the create fails by timeout.
    assert!(
        sim.state.st_events.iter().any(|(h, e)| *h == a
            && e.contains("CreateFailed")
            && e.contains("AuthenticationFailed")),
        "events: {:?}",
        sim.state.st_events
    );
    assert!(count(&sim, "st.drop.auth_failed") > 0);
}

#[test]
fn multihop_st_stream_works() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    engine::send(&mut sim, a, st_rms, Message::new(vec![5u8; 2000])).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
    assert_eq!(sim.state.st_deliveries[0].2.len(), 2000);
}

#[test]
fn network_failure_fails_st_streams() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    dash_net::pipeline::fail_network(&mut sim, dash_net::NetworkId(1));
    sim.run();
    assert!(
        sim.state
            .st_events
            .iter()
            .any(|(h, e)| *h == a && e.contains("Failed")),
        "sender stream should fail: {:?}",
        sim.state.st_events
    );
    // The failed stream is gone, so sends now fail.
    assert!(!sim.state.st.host(a).streams.contains_key(&st_rms));
    let err = engine::send(&mut sim, a, st_rms, Message::new(vec![0u8; 8])).unwrap_err();
    assert_eq!(err, RmsError::UnknownStream);
}

#[test]
fn oversized_st_message_rejected() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let st_rms = establish(&mut sim, a, b, &basic_request(), false);
    let err = engine::send(&mut sim, a, st_rms, Message::zeroes(9000)).unwrap_err();
    assert!(matches!(err, RmsError::MessageTooLarge { .. }));
}

#[test]
fn st_offers_larger_messages_than_network_mtu() {
    // §4.3: the ST's maximum message size exceeds the network's.
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let req = RmsRequest::exact(RmsParams::builder(64 * 1024, 32 * 1024).build().unwrap());
    let st_rms = establish(&mut sim, a, b, &req, false);
    let body = vec![0xabu8; 32 * 1024];
    engine::send(&mut sim, a, st_rms, Message::new(body.clone())).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
    assert_eq!(sim.state.st_deliveries[0].2.payload().as_ref(), &body[..]);
}

#[test]
fn send_datagram_payload_roundtrip_not_affected_by_st() {
    // ST and raw datagrams coexist on the same network state.
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let _st_rms = establish(&mut sim, a, b, &basic_request(), false);
    dash_net::pipeline::send_datagram(&mut sim, a, b, 9, Bytes::from_static(b"raw").into());
    sim.run();
    // Raw datagrams use the default no-op handler; nothing crashes, ST
    // deliveries unaffected.
    assert_eq!(sim.state.st_deliveries.len(), 0);
}

#[test]
fn idle_cache_evicts_beyond_limit() {
    let (net, a, b) = two_hosts_ethernet();
    let config = StConfig {
        cache_idle_limit: 1,
        ..StConfig::default()
    };
    let mut sim = Sim::new(World::new(net, config));
    // Two *incompatible* streams force two data network RMSs.
    let req1 = RmsRequest::exact(RmsParams::builder(8 * 1024, 1024).build().unwrap());
    let params2 = RmsParams::builder(8 * 1024, 1024)
        .reliability(rms_core::Reliability::Reliable)
        .error_rate(rms_core::BitErrorRate::ZERO)
        .build()
        .unwrap();
    let req2 = RmsRequest::exact(params2);
    let s1 = establish(&mut sim, a, b, &req1, false);
    let s2 = establish(&mut sim, a, b, &req2, false);
    assert_eq!(count(&sim, "st.cache_miss"), 2);
    engine::close(&mut sim, a, s1).unwrap();
    engine::close(&mut sim, a, s2).unwrap();
    sim.run();
    // Only one idle entry may stay cached.
    assert_eq!(count(&sim, "st.cache_eviction"), 1);
}

#[test]
fn a_new_stream_rides_the_lowest_idle_ready_carrier() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    // Streams needing more than half of a 64 KiB carrier never share one:
    // three stay open and fill theirs; two more leave theirs idle, cached
    // and ready on close.
    let request =
        |kib: u64| RmsRequest::exact(RmsParams::builder(kib * 1024, 1024).build().unwrap());
    for _ in 0..3 {
        establish(&mut sim, a, b, &request(60), false);
    }
    let idle: Vec<StRmsId> = (0..2)
        .map(|_| establish(&mut sim, a, b, &request(40), false))
        .collect();
    for s in idle {
        engine::close(&mut sim, a, s).unwrap();
    }
    sim.run();
    assert_eq!(count(&sim, "st.cache_miss"), 5);
    assert_eq!(count(&sim, "st.cache_eviction"), 0);
    // `a`'s network RMSs: its control-channel half, then one carrier per
    // stream above; the last two are the idle ones.
    let ours: Vec<NetRmsId> = (sim.state.net_created.iter())
        .filter(|(h, _)| *h == a)
        .map(|(_, rms)| *rms)
        .collect();
    assert_eq!(ours.len(), 6);
    let (first_idle, second_idle) = (ours[4], ours[5]);
    assert!(first_idle < second_idle);
    // Either idle carrier can take this stream; the full ones cannot. The
    // choice is the lowest id, not whichever the carrier table meets first.
    let s = establish(&mut sim, a, b, &request(8), false);
    assert_eq!(count(&sim, "st.cache_miss"), 5, "a cache hit");
    sim.state.net_deliveries.clear();
    engine::send(&mut sim, a, s, Message::new(vec![5u8; 64])).unwrap();
    sim.run();
    assert_eq!(sim.state.net_deliveries, vec![(b, first_idle)]);
}

#[test]
fn deterministic_st_stream_gets_deterministic_net_rms() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let params = RmsParams::builder(16 * 1024, 1024)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(50),
            SimDuration::from_micros(5),
        ))
        .build()
        .unwrap();
    let st_rms = establish(&mut sim, a, b, &RmsRequest::exact(params), false);
    // The underlying data net RMS must be deterministic (§4.2 rule 1).
    let stream = &sim.state.st.host(a).streams[&st_rms];
    let carrier = &sim.state.st.host(a).carriers[&stream.carrier.unwrap()];
    assert_eq!(carrier.peer, b);
    let d = carrier.data.as_ref().unwrap();
    assert!(matches!(
        d.params.delay.kind,
        rms_core::DelayBoundKind::Deterministic
    ));
    engine::send(&mut sim, a, st_rms, Message::new(vec![1u8; 256])).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
}

/// A create whose request is already on the wire when its control
/// channel's network fails hears `CreateFailed`; it does not wait for an
/// answer that can no longer come.
#[test]
fn a_create_sent_before_its_channel_fails_is_failed() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    establish(&mut sim, a, b, &basic_request(), false);
    let client = creator(99);
    engine::create(
        &mut sim,
        a,
        b,
        &basic_request(),
        false,
        client,
        Bytes::new(),
    )
    .unwrap();
    let wan = dash_net::NetworkId(1);
    dash_net::pipeline::fail_network(&mut sim, wan);
    sim.run();
    dash_net::pipeline::restore_network(&mut sim, wan);
    sim.run();
    let outcomes: Vec<&String> = (sim.state.st_events.iter())
        .filter(|(h, e)| *h == a && (e.starts_with("Created") || e.starts_with("CreateFailed")))
        .map(|(_, e)| e)
        .collect();
    assert_eq!(outcomes.len(), 2, "events: {:?}", sim.state.st_events);
    assert!(outcomes[1].starts_with("CreateFailed"), "{outcomes:?}");
    assert!(sim.state.st.host(a).streams.values().all(|s| !s.creating));
}

/// A create whose data carrier is still being created when its host
/// crashes hears `CreateFailed`, once: the crash answers the carrier's
/// network create, and the carrier goes with it, so no later create can
/// be put on a carrier that will never be ready.
#[test]
fn a_create_whose_carrier_is_pending_when_its_host_crashes_is_answered() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    let client = creator(7);
    let req = basic_request();
    engine::create(&mut sim, a, b, &req, false, client, Bytes::new()).unwrap();
    let carrier_pending = |sim: &Sim<World>| {
        (sim.state.st.host(a).carriers.iter())
            .any(|(id, c)| c.data.is_some() && sim.state.net.host(a).pending.contains_key(id))
    };
    while !carrier_pending(&sim) {
        assert!(sim.step(), "the data carrier's create never started");
    }
    dash_net::fault::crash_host(&mut sim, a);
    sim.run();
    let outcomes: Vec<&String> = (sim.state.st_events.iter())
        .filter(|(h, e)| *h == a && (e.starts_with("Created") || e.starts_with("CreateFailed")))
        .map(|(_, e)| e)
        .collect();
    assert_eq!(outcomes.len(), 1, "events: {:?}", sim.state.st_events);
    assert!(outcomes[0].starts_with("CreateFailed"), "{outcomes:?}");
    assert!(sim.state.st.host(a).streams.is_empty());
    assert!((sim.state.st.host(a).carriers.values()).all(|c| c.data.is_none()));
}

/// A host that crashed and restarted can open ST streams to its old peer
/// again: the crash failed the peer's ends of every network RMS between
/// them, control channel halves included, so the peer answers the fresh
/// control channel instead of keeping its authenticated half of the dead
/// one (which dropped the fresh Hello's answer and failed the create with
/// `AuthenticationFailed`).
#[test]
fn a_restarted_host_opens_streams_to_its_old_peer() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net, StConfig::default()));
    establish(&mut sim, a, b, &basic_request(), false);
    dash_net::fault::crash_host(&mut sim, a);
    sim.run();
    assert!(sim.state.net.host(b).rms.is_empty(), "b kept an end to a");
    dash_net::fault::restart_host(&mut sim, a);
    sim.run();
    establish(&mut sim, a, b, &basic_request(), false);
    assert_eq!(count(&sim, "net.drop.no_rms"), 0);
}
