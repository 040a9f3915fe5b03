//! End-to-end transport tests on the assembled stack: RKOM request/reply
//! semantics, stream sessions with every flow-control combination, and CPU
//! scheduling integration.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dash_net::fault::apply_fault;
use dash_net::topology::{dumbbell, two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkSpec;
use dash_sim::cpu::SchedPolicy;
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::{FaultKind, Sim};
use dash_transport::flow::CapacityEnforcement;
use dash_transport::rkom::{self, RkomError};
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::message::Message;

fn stack2() -> (Sim<Stack>, dash_net::HostId, dash_net::HostId) {
    let (net, a, b) = two_hosts_ethernet();
    (Sim::new(StackBuilder::new(net).build()), a, b)
}

// ---------------------------------------------------------------------------
// RKOM
// ---------------------------------------------------------------------------

#[test]
fn rkom_echo_round_trip() {
    let (mut sim, a, b) = stack2();
    rkom::register_service(&mut sim.state, b, 1, |_sim, _client, req| {
        let mut out = b"echo:".to_vec();
        out.extend_from_slice(&req);
        Bytes::from(out)
    });
    let result = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"hello"),
        move |_sim, res| {
            *r2.borrow_mut() = Some(res);
        },
    );
    sim.run();
    let got = result.borrow_mut().take().expect("call completed");
    assert_eq!(got.unwrap().as_ref(), b"echo:hello");
    assert_eq!(
        sim.state.net.obs.registry.counter_value("rkom.completed"),
        1
    );
    assert_eq!(sim.state.rkom.host(b).stats.served.get(), 1);
}

#[test]
fn rkom_many_calls_share_channel() {
    let (mut sim, a, b) = stack2();
    rkom::register_service(&mut sim.state, b, 7, |_s, _c, req| req);
    let count = Rc::new(RefCell::new(0u32));
    for i in 0..20u32 {
        let c = Rc::clone(&count);
        rkom::call(
            &mut sim,
            a,
            b,
            7,
            Bytes::from(i.to_be_bytes().to_vec()),
            move |_s, res| {
                assert!(res.is_ok());
                *c.borrow_mut() += 1;
            },
        );
    }
    sim.run();
    assert_eq!(*count.borrow(), 20);
    // One channel: four ST creates, a low- and a high-delay lane out of
    // each side.
    assert_eq!(
        sim.state
            .net
            .obs
            .registry
            .counter_value("st.create_requested"),
        4
    );
}

#[test]
fn rkom_unknown_service_fails() {
    let (mut sim, a, b) = stack2();
    let result = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    rkom::call(&mut sim, a, b, 42, Bytes::new(), move |_s, res| {
        *r2.borrow_mut() = Some(res);
    });
    sim.run();
    let outcome = result.borrow_mut().take().expect("completed");
    match outcome {
        Err(RkomError::NoSuchService) => {}
        other => panic!("expected NoSuchService, got {other:?}"),
    }
}

#[test]
fn rkom_retransmits_over_lossy_network() {
    // A very lossy LAN: initial requests/replies may vanish; RKOM must
    // recover via high-delay retransmissions.
    let mut b = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("lossy");
    spec.drop_prob = 0.30;
    let n = b.network(spec);
    let h_a = b.host_on(n);
    let h_b = b.host_on(n);
    let mut sim = Sim::new(StackBuilder::new(b.build()).build());
    rkom::register_service(&mut sim.state, h_b, 1, |_s, _c, _req| {
        Bytes::from_static(b"pong")
    });
    let done = Rc::new(RefCell::new(0u32));
    for _ in 0..20 {
        let d = Rc::clone(&done);
        rkom::call(
            &mut sim,
            h_a,
            h_b,
            1,
            Bytes::from_static(b"ping"),
            move |_s, res| {
                if res.is_ok() {
                    *d.borrow_mut() += 1;
                }
            },
        );
    }
    sim.run();
    let completed = *done.borrow();
    assert!(
        completed >= 18,
        "most calls should complete, got {completed}"
    );
    let stats = &sim.state.rkom.host(h_a).stats;
    assert!(
        stats.retransmissions.get() > 0,
        "loss must force retransmission"
    );
}

#[test]
fn rkom_at_most_once_under_duplicates() {
    // Force retransmissions with a late reply: the server must execute
    // each call once even when requests duplicate.
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let executions = Rc::new(RefCell::new(0u32));
    let ex2 = Rc::clone(&executions);
    rkom::register_service(&mut sim.state, b, 1, move |sim, _c, _req| {
        *ex2.borrow_mut() += 1;
        // The reply leaves late: b's interface on lan-b stalls for longer
        // than a retry period (so the request is retransmitted) and less
        // than the retries left (so the call still completes).
        let stall = FaultKind::IfaceStall {
            host: b.0,
            network: 2,
            duration: rkom::RETRY_TIMEOUT * 2 + SimDuration::from_millis(100),
        };
        apply_fault(sim, &stall);
        Bytes::from_static(b"done")
    });
    let ok = Rc::new(RefCell::new(false));
    let ok2 = Rc::clone(&ok);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"op"),
        move |_s, res| {
            assert!(res.is_ok());
            *ok2.borrow_mut() = true;
        },
    );
    sim.run();
    assert!(*ok.borrow());
    assert_eq!(*executions.borrow(), 1, "at-most-once violated");
    assert!(sim.state.rkom.host(a).stats.retransmissions.get() > 0);
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

/// Harness collecting stream events at both hosts.
struct Collected {
    delivered: Vec<(u64, u64, usize)>, // (session, seq, len)
    opened: Vec<u64>,
    drained: u32,
}

fn collect_taps(sim: &mut Sim<Stack>, hosts: &[dash_net::HostId]) -> Rc<RefCell<Collected>> {
    let state = Rc::new(RefCell::new(Collected {
        delivered: Vec::new(),
        opened: Vec::new(),
        drained: 0,
    }));
    for &h in hosts {
        let st = Rc::clone(&state);
        sim.state.on_stream(h, move |_sim, ev| match ev {
            StreamEvent::Delivered {
                session, msg, seq, ..
            } => {
                st.borrow_mut().delivered.push((session, seq, msg.len()));
            }
            StreamEvent::Opened { session } => st.borrow_mut().opened.push(session),
            StreamEvent::Drained { .. } => st.borrow_mut().drained += 1,
            _ => {}
        });
    }
    state
}

#[test]
fn plain_stream_delivers_in_order() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    assert_eq!(events.borrow().opened, vec![session]);
    for i in 0..10u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 100])).unwrap();
    }
    sim.run();
    let ev = events.borrow();
    assert_eq!(ev.delivered.len(), 10);
    for (i, (s, seq, len)) in ev.delivered.iter().enumerate() {
        assert_eq!(*s, session);
        assert_eq!(*seq, i as u64);
        assert_eq!(*len, 100);
    }
}

/// A reliable stream without receiver flow control runs none at the
/// receiver either: an application that never consumes still gets every
/// message, in order, with no buffer drop to repair. (When the Hello
/// carried one "needs acks" bit, the receiver also ran flow control
/// against a buffer its sender never heard of, and this stream stalled at
/// 65 of 100 and ended `RetriesExhausted`.)
#[test]
fn reliable_only_receiver_runs_no_flow_control() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let ended = Rc::new(RefCell::new(Vec::new()));
    let e = Rc::clone(&ended);
    sim.state.on_stream(a, move |_, ev| {
        if let StreamEvent::Ended { reason, .. } = ev {
            e.borrow_mut().push(reason);
        }
    });
    let profile = StreamProfile {
        reliable: true,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    for i in 0..100u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 1000])).unwrap();
    }
    sim.run();
    let seqs: Vec<u64> = events.borrow().delivered.iter().map(|d| d.1).collect();
    assert_eq!(seqs, (0..100).collect::<Vec<u64>>());
    let tx = sim.state.stream.session(a, session).unwrap();
    assert_eq!(tx.stats.retransmitted.get(), 0);
    let rx = sim.state.stream.session(b, session).unwrap();
    assert_eq!(rx.stats.buffer_drops.get(), 0);
    assert_eq!(rx.receive_buffer_pending(), 0, "nothing to account");
    assert!(ended.borrow().is_empty(), "{:?}", ended.borrow());
}

/// At every loss rate the repair stays proportional to the loss, because
/// the sender never has more unacknowledged than the receiver can hold:
/// a sender that overruns the hold has the excess refused and resends it
/// one round trip at a time.
#[test]
fn reliable_stream_survives_loss() {
    for drop_prob in [0.10, 0.16, 0.20] {
        let mut builder = TopologyBuilder::new();
        let mut spec = NetworkSpec::ethernet("lossy");
        spec.drop_prob = drop_prob;
        let n = builder.network(spec);
        let a = builder.host_on(n);
        let b = builder.host_on(n);
        let mut sim = Sim::new(StackBuilder::new(builder.build()).obs(true).build());
        let events = collect_taps(&mut sim, &[a, b]);
        let profile = StreamProfile {
            reliable: true,
            ..StreamProfile::default()
        };
        let session = stream::open(&mut sim, a, b, profile).unwrap();
        sim.run();
        // Loss is size-scaled (`drop_prob` is per KiB): 200 messages of 1 KiB
        // make it certain, where 50 of 200 B used to pass on luck — and on the
        // spurious resends the old sender made on every ack.
        for i in 0..200u32 {
            let msg = Message::new(vec![i as u8; 1000]);
            while stream::send(&mut sim, a, session, msg.clone()).is_err() {
                // The send port is full: wait for it to drain.
                let drained = events.borrow().drained;
                while events.borrow().drained == drained {
                    assert!(sim.step(), "the sender never drained");
                }
            }
            // Space the sends so the run terminates quickly.
            sim.run_until(sim.now() + SimDuration::from_millis(2));
        }
        sim.run();
        let ev = events.borrow();
        // Exactly once, in order.
        let seqs: Vec<u64> = ev.delivered.iter().map(|d| d.1).collect();
        assert_eq!(
            seqs,
            (0..200).collect::<Vec<u64>>(),
            "drop_prob {drop_prob}"
        );
        let gaps = sim
            .state
            .stream
            .session(b, session)
            .unwrap()
            .stats
            .gaps
            .get();
        assert!(gaps > 0, "the scenario must actually lose data");
        // Repair is proportional to loss: one resend per hole the receiver
        // reported, one per timeout, and slack for resends that were lost too.
        let retransmitted = sim.state.stream.session(a, session).unwrap();
        let retransmitted = retransmitted.stats.retransmitted.get();
        let rtos = sim
            .state
            .net
            .obs
            .registry
            .counter_value("stream.retransmit.rto");
        assert!(retransmitted > 0, "loss must force retransmission");
        assert!(
            retransmitted <= 2 * gaps + rtos,
            "drop_prob {drop_prob}: {retransmitted} retransmissions for {gaps} gaps and {rtos} timeouts"
        );
    }
}

/// Every session reaches its receiver, however lossy the lane: the Hello
/// rides the reliable ST create, so the receiving session exists before
/// any data is sent. 40 voice and 40 reliable streams, opened at once on a
/// LAN that loses half of every KiB.
#[test]
fn every_session_reaches_the_receiver_on_a_lossy_lan() {
    let reliable = StreamProfile {
        reliable: true,
        ..StreamProfile::default()
    };
    for profile in [StreamProfile::voice(), reliable] {
        let mut builder = TopologyBuilder::new();
        let mut spec = NetworkSpec::ethernet("lossy");
        spec.drop_prob = 0.5;
        let n = builder.network(spec);
        let a = builder.host_on(n);
        let b = builder.host_on(n);
        let mut sim = Sim::new(StackBuilder::new(builder.build()).build());
        let incoming = Rc::new(RefCell::new(0u32));
        let ended = Rc::new(RefCell::new(Vec::new()));
        for h in [a, b] {
            let (i, e) = (Rc::clone(&incoming), Rc::clone(&ended));
            sim.state.on_stream(h, move |_, ev| match ev {
                StreamEvent::Incoming { .. } => *i.borrow_mut() += 1,
                StreamEvent::Ended { session, reason } => e.borrow_mut().push((session, reason)),
                _ => {}
            });
        }
        let sessions: Vec<u64> = (0..40)
            .map(|_| stream::open(&mut sim, a, b, profile.clone()).unwrap())
            .collect();
        sim.run();
        for &session in &sessions {
            for i in 0..5u8 {
                stream::send(&mut sim, a, session, Message::new(vec![i; 100])).unwrap();
            }
        }
        sim.run();
        let registry = &sim.state.net.obs.registry;
        assert_eq!(*incoming.borrow(), 40, "{profile:?}");
        assert_eq!(registry.counter_value("stream.drop.no_session"), 0);
        assert!(ended.borrow().is_empty(), "{:?}", ended.borrow());
    }
}

#[test]
fn unreliable_stream_skips_losses_in_order() {
    let mut builder = TopologyBuilder::new();
    let mut spec = NetworkSpec::ethernet("lossy");
    spec.drop_prob = 0.15;
    let n = builder.network(spec);
    let a = builder.host_on(n);
    let b = builder.host_on(n);
    let mut sim = Sim::new(StackBuilder::new(builder.build()).build());
    let events = collect_taps(&mut sim, &[a, b]);
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    for i in 0..100u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 200])).unwrap();
    }
    sim.run();
    let ev = events.borrow();
    assert!(ev.delivered.len() < 100);
    assert!(ev.delivered.len() > 50);
    let seqs: Vec<u64> = ev.delivered.iter().map(|d| d.1).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    let s = sim.state.stream.session(b, session).unwrap();
    assert!(s.stats.gaps.get() > 0);
}

#[test]
fn ack_based_capacity_enforcement_bounds_outstanding() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let profile = StreamProfile {
        enforcement: CapacityEnforcement::AckBased,
        capacity: 2_000, // only ~2 messages of 1000B outstanding
        max_message: 1_000,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    for i in 0..10u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 1000])).unwrap();
    }
    // Everything eventually arrives, clocked by fast acks.
    sim.run();
    assert_eq!(events.borrow().delivered.len(), 10);
    // Fast acks were actually used.
    assert!(sim.state.net.obs.registry.counter_value("st.fast_ack_sent") > 0);
}

#[test]
fn rate_based_capacity_enforcement_paces_sends() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let profile = StreamProfile {
        enforcement: CapacityEnforcement::RateBased,
        capacity: 1_000,
        max_message: 500,
        delay: rms_core::DelayBound::best_effort_with(
            SimDuration::from_millis(50),
            SimDuration::from_micros(10),
        ),
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    let start = sim.now();
    for i in 0..6u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 500])).unwrap();
    }
    sim.run();
    // 6 * 500B at 1000B per ~55ms window -> at least two windows must pass.
    let elapsed = sim.now().saturating_since(start);
    assert!(
        elapsed >= SimDuration::from_millis(100),
        "rate limiting should stretch delivery, took {elapsed}"
    );
    assert_eq!(events.borrow().delivered.len(), 6);
}

#[test]
fn receiver_flow_control_stalls_sender_until_consume() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let profile = StreamProfile {
        reliable: true,
        receiver_fc: true,
        capacity: 1_000, // a 2 000 B receive buffer
        max_message: 1_000,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    for i in 0..6u8 {
        let _ = stream::send(&mut sim, a, session, Message::new(vec![i; 1000]));
    }
    sim.run();
    // Only two messages fit the receiver's buffer.
    assert_eq!(events.borrow().delivered.len(), 2);
    let pending = sim
        .state
        .stream
        .session(b, session)
        .unwrap()
        .receive_buffer_pending();
    assert_eq!(pending, 2_000);
    // The application consumes; the window reopens; the rest flows.
    stream::consume(&mut sim, b, session, 2_000);
    sim.run();
    assert!(events.borrow().delivered.len() >= 4);
    stream::consume(&mut sim, b, session, 2_000);
    sim.run();
    stream::consume(&mut sim, b, session, 2_000);
    sim.run();
    assert_eq!(events.borrow().delivered.len(), 6);
}

#[test]
fn sender_flow_control_blocks_and_drains() {
    let (mut sim, a, b) = stack2();
    let events = collect_taps(&mut sim, &[a, b]);
    let profile = StreamProfile {
        send_port_limit: 2_000,
        enforcement: CapacityEnforcement::RateBased,
        capacity: 1_000,
        max_message: 1_000,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    // Flood synchronously: the rate limiter stalls the pump, so the port
    // fills and offers start failing (the sender "blocks").
    let mut refused = 0;
    for i in 0..10u8 {
        if stream::send(&mut sim, a, session, Message::new(vec![i; 1000])).is_err() {
            refused += 1;
        }
    }
    assert!(refused > 0, "port should refuse when full");
    sim.run();
    // Drain notifications woke the sender at least once.
    assert!(events.borrow().drained > 0);
    let s = sim.state.stream.session(a, session).unwrap();
    assert!(s.stats.sender_blocked.get() > 0);
}

#[test]
fn bulk_profile_end_to_end_over_wan() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let events = collect_taps(&mut sim, &[a, b]);
    let session = stream::open(&mut sim, a, b, StreamProfile::bulk()).unwrap();
    sim.run();
    let total: usize = 40;
    let mut sent = 0;
    // Keep offering; honour sender flow control by retrying after runs.
    while sent < total {
        match stream::send(&mut sim, a, session, Message::new(vec![7u8; 4096])) {
            Ok(()) => sent += 1,
            Err(_) => {
                sim.run_until(sim.now() + SimDuration::from_millis(20));
            }
        }
        // Model the consuming application.
        let pending = sim
            .state
            .stream
            .session(b, session)
            .map(|s| s.receive_buffer_pending())
            .unwrap_or(0);
        if pending > 0 {
            stream::consume(&mut sim, b, session, pending);
        }
    }
    // Let everything settle, consuming as it arrives.
    for _ in 0..200 {
        sim.run_until(sim.now() + SimDuration::from_millis(20));
        let pending = sim
            .state
            .stream
            .session(b, session)
            .map(|s| s.receive_buffer_pending())
            .unwrap_or(0);
        if pending > 0 {
            stream::consume(&mut sim, b, session, pending);
        }
        if events.borrow().delivered.len() >= total {
            break;
        }
    }
    assert_eq!(events.borrow().delivered.len(), total);
}

#[test]
fn stack_with_edf_cpus_runs_end_to_end() {
    let (net, a, b) = two_hosts_ethernet();
    let stack = StackBuilder::new(net)
        .cpus(SchedPolicy::Edf, SimDuration::from_micros(5))
        .build();
    let mut sim = Sim::new(stack);
    let events = collect_taps(&mut sim, &[a, b]);
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    for i in 0..10u8 {
        stream::send(&mut sim, a, session, Message::new(vec![i; 200])).unwrap();
    }
    sim.run();
    assert_eq!(events.borrow().delivered.len(), 10);
    // The CPUs actually processed jobs.
    let total_jobs: u64 = sim
        .state
        .cpus
        .as_ref()
        .unwrap()
        .iter()
        .map(|c| c.stats.completed.get())
        .sum();
    assert!(total_jobs > 20, "cpu jobs: {total_jobs}");
}

#[test]
fn stream_failure_surfaces_ended_event() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let ended = Rc::new(RefCell::new(Vec::new()));
    let e2 = Rc::clone(&ended);
    sim.state.on_stream(a, move |_s, ev| {
        if let StreamEvent::Ended { session, reason } = ev {
            e2.borrow_mut().push((session, reason));
        }
    });
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    dash_net::pipeline::fail_network(&mut sim, dash_net::NetworkId(1));
    sim.run();
    // The dumbbell has no alternate path around the WAN, so failover is
    // impossible and the session ends with a typed channel failure.
    assert_eq!(
        *ended.borrow(),
        vec![(
            session,
            stream::EndReason::ChannelFailed(rms_core::error::FailReason::NetworkDown)
        )]
    );
}

/// An RMS that ends leaves its table. The only network of a two-host LAN
/// goes down for good in the middle of a voice flow: the sending session
/// ends with a typed failure, and at quiescence the sender holds no
/// network endpoint, no ST stream and no session.
#[test]
fn a_dead_network_leaves_the_senders_tables_empty() {
    let (mut sim, a, b) = stack2();
    let ended = Rc::new(RefCell::new(Vec::new()));
    let e2 = Rc::clone(&ended);
    sim.state.on_stream(a, move |_s, ev| {
        if let StreamEvent::Ended { session, reason } = ev {
            e2.borrow_mut().push((session, reason));
        }
    });
    let session = stream::open(&mut sim, a, b, StreamProfile::voice()).unwrap();
    sim.run();
    for i in 0..20u8 {
        if i == 10 {
            apply_fault(&mut sim, &FaultKind::NetworkDown { network: 0 });
        }
        let _ = stream::send(&mut sim, a, session, Message::new(vec![i; 160]));
        let next = sim.now() + SimDuration::from_millis(20);
        sim.run_until(next);
    }
    sim.run();
    let down = rms_core::error::FailReason::NetworkDown;
    let reason = stream::EndReason::ChannelFailed(down);
    assert_eq!(*ended.borrow(), vec![(session, reason)]);
    let endpoints = sim.state.net.host(a).rms.len();
    assert_eq!(endpoints, 0, "network endpoints left at the sender");
    let streams = sim.state.st.host(a).streams.len();
    assert_eq!(streams, 0, "ST streams left at the sender");
    assert!(
        sim.state.stream.session(a, session).is_none(),
        "session left"
    );
}

#[test]
fn timestamps_monotone_on_delivery() {
    let (mut sim, a, b) = stack2();
    let times = Rc::new(RefCell::new(Vec::<SimTime>::new()));
    let t2 = Rc::clone(&times);
    sim.state.on_stream(b, move |sim, ev| {
        if matches!(ev, StreamEvent::Delivered { .. }) {
            t2.borrow_mut().push(sim.now());
        }
    });
    sim.state.on_stream(a, |_s, _e| {});
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    for _ in 0..5 {
        stream::send(&mut sim, a, session, Message::zeroes(100)).unwrap();
    }
    sim.run();
    let ts = times.borrow();
    assert_eq!(ts.len(), 5);
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}
