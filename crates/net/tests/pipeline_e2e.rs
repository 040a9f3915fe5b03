//! End-to-end tests of the network layer: creation handshake, sequenced
//! delivery, admission control, security mechanisms, failure notification.

mod world;

use std::sync::Arc;

use bytes::Bytes;
use dash_net::ids::HostId;
use dash_net::network::NetworkSpec;
use dash_net::packet::PacketKind;
use dash_net::pipeline::{
    close_rms, create_rms, create_rms_as_receiver, fail_network, inject_arrival, send_datagram,
    send_on_rms,
};
use dash_net::state::NetRmsEvent;
use dash_net::topology::{dumbbell, two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkId;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use rms_core::delay::DelayBound;
use rms_core::error::{FailReason, RejectReason};
use rms_core::message::{Label, Message};
use rms_core::params::{BitErrorRate, Reliability, RmsParams, SecurityParams};
use rms_core::RmsRequest;
use world::{establish, World};

fn basic_params() -> RmsParams {
    RmsParams::builder(64 * 1024, 1024).build().unwrap()
}

fn settle(sim: &mut Sim<World>) {
    sim.run();
}

#[test]
fn handshake_creates_both_endpoints() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    assert_eq!(sim.state.inbound(), vec![(b, rms)]);
    assert!(sim.state.net.host(a).rms.contains_key(&rms));
    assert!(sim.state.net.host(b).rms.contains_key(&rms));
}

#[test]
fn data_flows_and_is_delivered_in_order() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    for i in 0..20u8 {
        send_on_rms(&mut sim, a, rms, Message::new(vec![i; 100]), None, None).unwrap();
    }
    settle(&mut sim);
    assert_eq!(sim.state.deliveries.len(), 20);
    for (i, (host, r, msg, info)) in sim.state.deliveries.iter().enumerate() {
        assert_eq!(*host, b);
        assert_eq!(*r, rms);
        assert_eq!(msg.payload()[0], i as u8);
        assert_eq!(info.seq, i as u64);
        assert!(info.delay() > SimDuration::ZERO);
    }
}

#[test]
fn oversized_message_is_rejected() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    let err = send_on_rms(&mut sim, a, rms, Message::zeroes(2000), None, None).unwrap_err();
    assert!(matches!(
        err,
        rms_core::RmsError::MessageTooLarge {
            size: 2000,
            limit: 1024
        }
    ));
}

#[test]
fn receiver_cannot_send() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    let err = send_on_rms(&mut sim, b, rms, Message::zeroes(10), None, None).unwrap_err();
    assert!(matches!(err, rms_core::RmsError::WrongDirection));
}

#[test]
fn multihop_delivery_through_gateways() {
    let (net, a, b, _g1, _g2) = dumbbell();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    send_on_rms(&mut sim, a, rms, Message::zeroes(500), None, None).unwrap();
    settle(&mut sim);
    assert_eq!(sim.state.deliveries.len(), 1);
    // The path crosses three networks.
    assert_eq!(sim.state.net.host(a).rms[&rms].path.len(), 3);
    // End-to-end delay exceeds the WAN propagation alone.
    let (_, _, _, info) = &sim.state.deliveries[0];
    assert!(info.delay() >= SimDuration::from_millis(30));
}

#[test]
fn deterministic_admission_exhausts_and_releases() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    // Ethernet: 10 Mb/s = 1.25e6 B/s, 90% reservable. Each stream below
    // implies C/D = 100_000/0.2s = 500 KB/s -> only 2 fit.
    let params = RmsParams::builder(100_000, 1_000)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(200),
            SimDuration::from_micros(2),
        ))
        .error_rate(BitErrorRate::new(1e-4).unwrap())
        .build()
        .unwrap();
    let r1 = establish(&mut sim, a, b, params.clone());
    let _r2 = establish(&mut sim, a, b, params.clone());
    // Third is denied at the creator's own interface.
    let t3 = create_rms(&mut sim, a, b, &RmsRequest::exact(params.clone())).unwrap();
    settle(&mut sim);
    let failed = sim.state.saw(a, |e| {
        matches!(
            e,
            NetRmsEvent::CreateFailed {
                rms,
                reason: RejectReason::AdmissionDenied { .. },
            } if *rms == t3
        )
    });
    assert!(
        failed,
        "third stream should be denied: {:?}",
        sim.state.events
    );
    // Closing one frees capacity for a new stream.
    close_rms(&mut sim, a, r1).unwrap();
    settle(&mut sim);
    let _r4 = establish(&mut sim, a, b, params);
}

#[test]
fn best_effort_never_rejected() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    for _ in 0..50 {
        let _ = establish(&mut sim, a, b, basic_params());
    }
    assert_eq!(sim.state.created().len(), 50);
}

#[test]
fn close_notifies_receiver() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    close_rms(&mut sim, a, rms).unwrap();
    settle(&mut sim);
    assert!(sim.state.saw(
        b,
        |e| matches!(e, NetRmsEvent::Closed { rms: r } if *r == rms)
    ));
    assert!(!sim.state.net.host(b).rms.contains_key(&rms));
}

#[test]
fn network_failure_notifies_clients() {
    let (net, a, b, _g1, _g2) = dumbbell();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    fail_network(&mut sim, NetworkId(1)); // the WAN
    settle(&mut sim);
    let failed = sim.state.failed();
    let failed_hosts: Vec<HostId> = failed.iter().map(|(h, _, _)| *h).collect();
    assert!(failed_hosts.contains(&a));
    assert!(failed_hosts.contains(&b));
    assert!(failed
        .iter()
        .all(|(_, r, reason)| *r == rms && *reason == FailReason::NetworkDown));
    // Both endpoints are gone, so sends now fail.
    assert!(!sim.state.net.host(b).rms.contains_key(&rms));
    let err = send_on_rms(&mut sim, a, rms, Message::zeroes(10), None, None).unwrap_err();
    assert_eq!(err, rms_core::RmsError::UnknownStream);
}

#[test]
fn data_whose_rms_fails_during_its_send_job_is_dropped_as_no_rms() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    // Each send parks its packet behind a CPU job; the network (and with
    // it the RMS) fails before any of the jobs runs.
    for _ in 0..3 {
        send_on_rms(&mut sim, a, rms, Message::zeroes(100), None, None).unwrap();
    }
    fail_network(&mut sim, NetworkId(0));
    settle(&mut sim);
    assert!(sim.state.deliveries.is_empty());
    let reg = &sim.state.net.obs.registry;
    assert_eq!(
        reg.counter_value("net.drop.no_rms"),
        3,
        "one typed drop per message"
    );
}

#[test]
fn unroutable_peer_rejected_synchronously() {
    let mut b = TopologyBuilder::new();
    let n1 = b.network(NetworkSpec::ethernet("x"));
    let n2 = b.network(NetworkSpec::ethernet("y"));
    let a = b.host_on(n1);
    let c = b.host_on(n2);
    let mut sim = Sim::new(World::new(b.build()));
    let err = create_rms(&mut sim, a, c, &RmsRequest::exact(basic_params())).unwrap_err();
    assert!(matches!(
        err,
        rms_core::RmsError::CreationRejected(rms_core::RejectReason::NoRoute)
    ));
}

#[test]
fn receiver_side_creation_via_invite() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    // b wants to *receive* from a.
    let rms = create_rms_as_receiver(&mut sim, b, a, &RmsRequest::exact(basic_params())).unwrap();
    settle(&mut sim);
    // b got an inbound endpoint answering the invite, under the id the
    // invite allocated.
    assert!(sim.state.saw(b, |e| matches!(
        e,
        NetRmsEvent::InboundCreated { rms: r, invite: true, .. } if *r == rms
    )));
    // a got a sender endpoint by invite.
    assert!(sim.state.saw(a, |e| matches!(
        e,
        NetRmsEvent::SenderCreatedByInvite { rms: r, .. } if *r == rms
    )));
    // And a can now send to b.
    send_on_rms(&mut sim, a, rms, Message::zeroes(64), None, None).unwrap();
    settle(&mut sim);
    assert_eq!(sim.state.deliveries.len(), 1);
}

#[test]
fn private_stream_is_encrypted_on_the_wire() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    sim.state.net.network_mut(NetworkId(0)).wiretap = Some(Vec::new());
    let params = RmsParams::builder(64 * 1024, 1024)
        .security(SecurityParams::FULL)
        .build()
        .unwrap();
    let rms = establish(&mut sim, a, b, params);
    let secret = b"attack at dawn, bring snacks".to_vec();
    send_on_rms(&mut sim, a, rms, Message::new(secret.clone()), None, None).unwrap();
    settle(&mut sim);
    // Delivered plaintext intact...
    assert_eq!(sim.state.deliveries.len(), 1);
    assert_eq!(sim.state.deliveries[0].2.payload().as_ref(), &secret[..]);
    // ...but the wire saw only ciphertext.
    let taps = sim
        .state
        .net
        .network(NetworkId(0))
        .wiretap
        .as_ref()
        .unwrap();
    assert!(!taps.is_empty());
    assert!(taps.iter().all(|t| t.as_ref() != &secret[..]));
}

#[test]
fn open_stream_is_cleartext_on_the_wire() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    sim.state.net.network_mut(NetworkId(0)).wiretap = Some(Vec::new());
    let rms = establish(&mut sim, a, b, basic_params());
    let text = b"postcard contents".to_vec();
    send_on_rms(&mut sim, a, rms, Message::new(text.clone()), None, None).unwrap();
    settle(&mut sim);
    let taps = sim
        .state
        .net
        .network(NetworkId(0))
        .wiretap
        .as_ref()
        .unwrap();
    assert!(taps.iter().any(|t| t.as_ref() == &text[..]));
}

#[test]
fn authenticated_stream_preserves_source_label() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let params = RmsParams::builder(64 * 1024, 1024)
        .security(SecurityParams {
            authentication: rms_core::Authentication::Authenticated,
            privacy: rms_core::Privacy::Open,
        })
        .build()
        .unwrap();
    let rms = establish(&mut sim, a, b, params);
    let msg = Message::labelled(Label(77), Label(88), vec![1, 2, 3]);
    send_on_rms(&mut sim, a, rms, msg, None, None).unwrap();
    settle(&mut sim);
    assert_eq!(sim.state.deliveries.len(), 1);
    assert_eq!(sim.state.deliveries[0].2.source, Some(Label(77)));
    assert_eq!(sim.state.deliveries[0].2.target, Some(Label(88)));
}

#[test]
fn datagrams_flow_without_any_rms() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(World::new(net));
    send_datagram(&mut sim, a, b, 42, Bytes::from_static(b"hello").into());
    settle(&mut sim);
    assert_eq!(sim.state.datagrams.len(), 1);
    assert_eq!(sim.state.datagrams[0].1, 42);
    assert_eq!(sim.state.datagrams[0].2.contiguous().as_ref(), b"hello");
}

#[test]
fn gateway_overflow_triggers_source_quench() {
    // Tiny gateway queues + a flood of datagrams.
    let mut b = TopologyBuilder::new();
    let lan_a = b.network(NetworkSpec::ethernet("lan-a"));
    let mut wan_spec = NetworkSpec::long_haul("wan");
    wan_spec.rate_bps = 64_000.0; // slow bottleneck
    wan_spec.drop_prob = 0.0;
    let wan = b.network(wan_spec);
    let lan_b = b.network(NetworkSpec::ethernet("lan-b"));
    let a = b.host_on(lan_a);
    let _g1 = b.gateway(lan_a, wan);
    let _g2 = b.gateway(wan, lan_b);
    let c = b.host_on(lan_b);
    b.iface_queue_limit(Some(4_000));
    let mut sim = Sim::new(World::new(b.build()));
    // Pace sends at 1 ms so the sender's own 10 Mb/s interface drains, and
    // the 64 kb/s WAN hop at the gateway becomes the overflowing bottleneck.
    for i in 0..100u64 {
        sim.schedule_in(SimDuration::from_millis(i), move |sim| {
            send_datagram(sim, a, c, 7, Bytes::from(vec![0u8; 1_000]).into());
        });
    }
    sim.run();
    assert!(
        !sim.state.quenches.is_empty(),
        "overloaded gateway should quench"
    );
    assert!(sim.state.quenches.iter().all(|h| *h == a));
    assert!(sim.state.datagrams.len() < 100, "some datagrams dropped");
}

#[test]
fn reliable_stream_survives_lossy_wire() {
    let mut b = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("lossy");
    spec.drop_prob = 0.05;
    spec.caps.raw_ber = 1e-6;
    let n = b.network(spec);
    let a = b.host_on(n);
    let c = b.host_on(n);
    let mut sim = Sim::new(World::new(b.build()));
    let params = RmsParams::builder(64 * 1024, 1024)
        .reliability(Reliability::Reliable)
        .error_rate(BitErrorRate::ZERO)
        .build()
        .unwrap();
    let rms = establish(&mut sim, a, c, params);
    for i in 0..200u8 {
        send_on_rms(&mut sim, a, rms, Message::new(vec![i; 200]), None, None).unwrap();
    }
    sim.run();
    assert_eq!(sim.state.deliveries.len(), 200, "reliable: nothing lost");
    for (i, d) in sim.state.deliveries.iter().enumerate() {
        assert_eq!(d.3.seq, i as u64, "reliable: in order");
    }
}

#[test]
fn unreliable_stream_drops_but_preserves_order() {
    let mut b = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("lossy");
    spec.drop_prob = 0.2;
    spec.caps.raw_ber = 0.0;
    let n = b.network(spec);
    let a = b.host_on(n);
    let c = b.host_on(n);
    let mut sim = Sim::new(World::new(b.build()));
    let rms = establish(&mut sim, a, c, basic_params());
    for i in 0..200u8 {
        send_on_rms(&mut sim, a, rms, Message::new(vec![i; 200]), None, None).unwrap();
    }
    sim.run();
    let n_delivered = sim.state.deliveries.len();
    assert!(n_delivered < 200, "some loss expected");
    assert!(n_delivered > 100, "most should arrive");
    // Sequence numbers strictly increase (in-sequence delivery, §2).
    let seqs: Vec<u64> = sim.state.deliveries.iter().map(|d| d.3.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    // Receiver counted the gaps as losses.
    let stats = &sim.state.net.host(c).rms[&rms].stats;
    assert_eq!(stats.delivered.get() as usize, n_delivered);
    assert!(stats.lost.get() > 0);
}

#[test]
fn corruption_detected_when_error_rate_needs_checksum() {
    let mut b = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("noisy");
    spec.drop_prob = 0.0;
    spec.caps.raw_ber = 1e-4; // very noisy medium
    let n = b.network(spec);
    let a = b.host_on(n);
    let c = b.host_on(n);
    let mut sim = Sim::new(World::new(b.build()));
    // Request a BER far below the raw medium: forces a checksum.
    let params = RmsParams::builder(64 * 1024, 1024)
        .error_rate(BitErrorRate::new(1e-7).unwrap())
        .build()
        .unwrap();
    let rms = establish(&mut sim, a, c, params);
    for i in 0..300u32 {
        send_on_rms(
            &mut sim,
            a,
            rms,
            Message::new(vec![(i % 256) as u8; 500]),
            None,
            None,
        )
        .unwrap();
    }
    sim.run();
    let stats = &sim.state.net.host(c).rms[&rms].stats;
    assert!(
        sim.state.net.obs.registry.counter_value("net.drop.corrupt") > 0,
        "noisy wire must corrupt some packets; checksum catches them"
    );
    assert_eq!(stats.corrupt_delivered.get(), 0);
    // No corrupted payload reached the client.
    for (i, d) in sim.state.deliveries.iter().enumerate() {
        let _ = i;
        let first = d.2.payload()[0];
        assert!(d.2.payload().iter().all(|&b| b == first));
    }
}

#[test]
fn corruption_delivered_when_client_tolerates_errors() {
    let mut b = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("noisy");
    spec.drop_prob = 0.0;
    spec.caps.raw_ber = 1e-4;
    let n = b.network(spec);
    let a = b.host_on(n);
    let c = b.host_on(n);
    let mut sim = Sim::new(World::new(b.build()));
    // Client tolerates a BER as high as the raw medium: no checksum runs
    // ("a high bit error rate may be acceptable" for voice, §2.5).
    let params = RmsParams::builder(64 * 1024, 1024)
        .error_rate(BitErrorRate::new(1e-3).unwrap())
        .build()
        .unwrap();
    let rms = establish(&mut sim, a, c, params);
    for _ in 0..300 {
        send_on_rms(
            &mut sim,
            a,
            rms,
            Message::new(vec![0xAAu8; 500]),
            None,
            None,
        )
        .unwrap();
    }
    sim.run();
    let stats = &sim.state.net.host(c).rms[&rms].stats;
    assert!(
        stats.corrupt_delivered.get() > 0,
        "no checksum -> corrupt bytes delivered"
    );
    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("net.drop.corrupt"), 0);
}

#[test]
fn deadline_clamping_keeps_transmission_order() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    let now = sim.now();
    // Deliberately send with *decreasing* deadlines; §4.3.1 clamping must
    // keep delivery in send order anyway.
    for i in (0..10u8).rev() {
        let d = now + SimDuration::from_millis(1 + i as u64);
        send_on_rms(
            &mut sim,
            a,
            rms,
            Message::new(vec![9 - i; 50]),
            Some(d),
            None,
        )
        .unwrap();
    }
    sim.run();
    // With clamping, all ten arrive (none judged stale) and in seq order.
    assert_eq!(sim.state.deliveries.len(), 10);
    let seqs: Vec<u64> = sim.state.deliveries.iter().map(|d| d.3.seq).collect();
    assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
}

#[test]
fn create_interns_one_params_allocation_along_the_whole_path() {
    let (net, a, b, g1, g2) = dumbbell();
    let mut sim = Sim::new(World::new(net));
    let rms = establish(&mut sim, a, b, basic_params());
    let sender_params = sim.state.net.host(a).rms[&rms].params.clone();
    // Both endpoints and every hop reservation hold the *same* allocation:
    // the creation handshake moves one shared handle along the path instead
    // of copying the parameter struct at each hop.
    assert!(std::sync::Arc::ptr_eq(
        &sender_params,
        &sim.state.net.host(b).rms[&rms].params
    ));
    for hop in [a, g1, g2] {
        let reserved = &sim.state.net.host(hop).holds[&rms].params;
        assert!(
            std::sync::Arc::ptr_eq(reserved, &sender_params),
            "hop {hop:?} holds a separate params copy"
        );
    }
    // The receiver endpoint has no outbound reservation of its own.
    assert!(!sim.state.net.host(b).holds.contains_key(&rms));
}

/// One path per RMS: the creator's chosen candidate, the `CreateReq` on
/// every wire hop and both endpoints hold the same `Path` allocation. The
/// world diverts its wire hops so the test sees each packet in flight, and
/// carries each to its arrival unchanged.
#[test]
fn the_candidate_the_request_and_both_endpoints_share_one_path() {
    let (net, a, b, _g1, _g2) = dumbbell();
    let mut sim = Sim::new(World::new(net));
    sim.state.net.enable_wire_divert();
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(basic_params())).unwrap();
    let (mut out, mut requests) = (Vec::new(), 0);
    let mut candidate = None;
    while sim.step() {
        sim.state.net.drain_outbox_into(&mut out);
        for env in out.drain(..) {
            let route = env.packet.source_route.as_ref();
            if let (PacketKind::CreateReq { .. }, Some(route)) = (&env.packet.kind, route) {
                let pending = &sim.state.net.host(a).pending[&rms];
                let chosen = &pending.alternates[pending.alt_idx].path;
                assert!(
                    Arc::ptr_eq(&route.path, chosen),
                    "the request copied the path"
                );
                candidate = Some(Arc::clone(chosen));
                requests += 1;
            }
            let key = env.arrival_key();
            inject_arrival(&mut sim, env.deliver_at, key, env.dst, env.packet);
        }
    }
    assert_eq!(requests, 3, "one request per leg of the dumbbell");
    let candidate = candidate.expect("a request was sent");
    for end in [a, b] {
        let path = &sim.state.net.host(end).rms[&rms].path;
        assert!(Arc::ptr_eq(path, &candidate), "{end:?} holds a copy");
    }
}
