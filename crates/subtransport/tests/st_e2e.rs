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
use dash_subtransport::ids::{StRmsId, StToken};
use dash_subtransport::st::{StConfig, StEvent, StState, StWorld};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::{RejectReason, RmsError, RmsRequest};

struct World {
    net: NetState,
    st: StState,
    st_deliveries: Vec<(HostId, StRmsId, Message, DeliveryInfo)>,
    st_events: Vec<(HostId, String)>,
    created: Vec<(HostId, StToken, StRmsId)>,
    inbound: Vec<(HostId, StRmsId)>,
    fast_acks: Vec<(HostId, StRmsId, u64)>,
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
        engine::on_net_deliver(sim, host, rms, msg, info);
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
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
    fn st_deliver(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        msg: Message,
        info: DeliveryInfo,
    ) {
        sim.state.st_deliveries.push((host, st_rms, msg, info));
    }
    fn st_event(sim: &mut Sim<Self>, host: HostId, event: StEvent) {
        sim.state.st_events.push((host, format!("{event:?}")));
        match event {
            StEvent::Created { token, st_rms, .. } => sim.state.created.push((host, token, st_rms)),
            StEvent::InboundCreated { st_rms, .. } => sim.state.inbound.push((host, st_rms)),
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

fn establish(sim: &mut Sim<World>, a: HostId, b: HostId, req: &RmsRequest, fa: bool) -> StRmsId {
    let token = engine::create(sim, a, b, req, fa).expect("create accepted");
    sim.run();
    sim.state
        .created
        .iter()
        .find(|(h, t, _)| *h == a && *t == token)
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
    let world = World {
        net,
        st: StState::new(StConfig::default(), n), // no keys provisioned
        st_deliveries: Vec::new(),
        st_events: Vec::new(),
        created: Vec::new(),
        inbound: Vec::new(),
        fast_acks: Vec::new(),
    };
    let mut sim = Sim::new(world);
    let err = engine::create(&mut sim, a, b, &basic_request(), false).unwrap_err();
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
    let world = World {
        net,
        st,
        st_deliveries: Vec::new(),
        st_events: Vec::new(),
        created: Vec::new(),
        inbound: Vec::new(),
        fast_acks: Vec::new(),
    };
    let mut sim = Sim::new(world);
    let token = engine::create(&mut sim, a, b, &basic_request(), false).unwrap();
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
    let _ = token;
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
    let err = engine::send(&mut sim, a, st_rms, Message::new(vec![0u8; 8])).unwrap_err();
    assert!(matches!(err, RmsError::Failed(_)));
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
    let slot = stream.slot.unwrap();
    let d = &sim.state.st.host(a).peers[&b].data[&slot];
    assert!(matches!(
        d.params.delay.kind,
        rms_core::DelayBoundKind::Deterministic
    ));
    engine::send(&mut sim, a, st_rms, Message::new(vec![1u8; 256])).unwrap();
    sim.run();
    assert_eq!(sim.state.st_deliveries.len(), 1);
}
