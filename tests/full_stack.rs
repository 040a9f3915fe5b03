//! Workspace-level integration tests: the whole stack, end to end, through
//! the facade crate.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dash::apps::scenario::{run, Backend, Scenario};
use dash::apps::traffic::{self, Flow, Plan, RpcFlow, WindowFlow};
use dash::net::pipeline::fail_network;
use dash::net::topology::{dumbbell, two_hosts_ethernet, TopologyBuilder};
use dash::net::{NetworkId, NetworkSpec};
use dash::sim::cpu::SchedPolicy;
use dash::sim::{Sim, SimDuration};
use dash::subtransport::ids::Client;
use dash::transport::stack::{StackBuilder, PROTO_APP};
use dash::transport::stream::StreamProfile;

/// Every workload the paper names, as one plan on the EDF-CPU LAN: voice,
/// a bulk transfer, RKOM calls and a window system share the two hosts,
/// and the run's verdict is clean.
#[test]
fn every_workload_coexists_on_one_lan() {
    let (_, a, b) = two_hosts_ethernet();
    let plan = Plan {
        flows: vec![
            Flow::voice(a, b, 0, SimDuration::from_secs(1)),
            Flow::bulk(a, b, 256 * 1024, 4 * 1024, StreamProfile::bulk()),
        ],
        rpcs: vec![RpcFlow {
            client: a,
            server: b,
            service: 1,
            calls: 10,
            interval: SimDuration::from_millis(10),
            start: SimDuration::ZERO,
            request: 1,
            reply: 1,
        }],
        windows: vec![WindowFlow::new(a, b, 5)],
        ..Plan::default()
    };
    let scn = Scenario {
        cpus: Some((SchedPolicy::Edf, SimDuration::from_micros(5))),
        ..Scenario::new(|| two_hosts_ethernet().0, plan, SimDuration::from_secs(4))
    };
    let o = run(&scn, Backend::Serial);
    assert!(o.verdict.is_clean(), "{}", o.verdict);

    let (voice, bulk) = (&o.acct.flows[&0], &o.acct.flows[&1]);
    assert!(bulk.complete(), "bulk: {bulk:?}");
    let calls = &o.acct.rpcs[&0];
    assert_eq!((calls.sent, calls.received, calls.failed), (10, 10, 0));
    let on_time = voice.on_time_fraction();
    assert!(on_time > 0.9, "voice on-time {on_time:?}");
    let window = &o.acct.windows[&0];
    assert!(window.delays.count() > 0);
    assert_eq!(window.late, 0);
}

/// The window system on the serial engine and on `dash-par` at 1, 2 and
/// 4 shards: oracle-clean, inside its budget, one digest across the
/// shard counts.
#[test]
fn a_window_plan_is_oracle_clean_on_serial_and_par() {
    let (_, user, app) = two_hosts_ethernet();
    let plan = Plan {
        windows: vec![WindowFlow::new(user, app, 21)],
        ..Plan::default()
    };
    let scn = Scenario::new(|| two_hosts_ethernet().0, plan, SimDuration::from_secs(3));
    let par = |shards| Backend::Par {
        shards,
        lan_aligned: false,
    };
    let mut par_digest = None;
    for backend in [Backend::Serial, par(1), par(2), par(4)] {
        let o = run(&scn, backend);
        assert!(o.verdict.is_clean(), "{backend:?}: {}", o.verdict);
        if let Backend::Par { .. } = backend {
            let digest = o.determinism_digest();
            let first = par_digest.get_or_insert_with(|| digest.clone());
            assert!(*first == digest, "{backend:?} diverged from par(1)");
        }
        let w = &o.acct.windows[&0];
        let (sent, answered) = (w.sent, w.delays.count() as u64);
        assert_eq!((w.opened, w.failed), (2, 0), "{backend:?}");
        assert!(sent > 50, "{backend:?}: events {sent}");
        let received = w.received;
        assert!(
            received * 10 > sent * 9,
            "{backend:?}: {received} of {sent}"
        );
        assert!(answered * 5 > sent * 4, "{backend:?}: {answered} of {sent}");
        assert_eq!(w.late, 0, "{backend:?}");
    }
}

#[test]
fn stack_survives_network_failure_and_reestablishes() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let plan = Plan::from(vec![Flow::bulk(
        a,
        b,
        64 * 1024,
        2 * 1024,
        StreamProfile::bulk(),
    )]);

    let bulk = traffic::install(&mut sim, &plan, None);
    sim.run_until(sim.now() + SimDuration::from_millis(500));
    // The WAN dies mid-transfer.
    fail_network(&mut sim, NetworkId(1));
    sim.run_until(sim.now() + SimDuration::from_secs(1));
    assert!(!bulk.borrow().flows[&0].complete());

    // The network comes back; a fresh session works (clients must create
    // new RMSs after failure, §4.4).
    dash::net::pipeline::restore_network(&mut sim, NetworkId(1));
    let retry = traffic::install(&mut sim, &plan, None);
    sim.run_until(sim.now() + SimDuration::from_secs(30));
    let done = retry.borrow().flows[&0].complete();
    assert!(done, "retry transfer should complete: {:?}", retry.borrow());
}

#[test]
fn deterministic_runs_are_reproducible() {
    let run = || -> (u64, u64, u64) {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let plan = Plan::from(vec![Flow::voice(a, b, 0, SimDuration::from_secs(1))]);
        let voice = traffic::install(&mut sim, &plan, None);
        sim.run();
        let v = voice.borrow();
        (
            v.flows[&0].sent,
            v.flows[&0].received,
            sim.events_processed(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same world, same events");
}

#[test]
fn secure_stream_on_untrusted_internetwork() {
    // A private ST RMS across an untrusted path: the payload is encrypted
    // on every wire segment.
    let mut b = TopologyBuilder::new();
    let lan = b.network(NetworkSpec::ethernet("lan"));
    let a = b.host_on(lan);
    let c = b.host_on(lan);
    let mut sim = Sim::new(StackBuilder::new(b.build()).build());
    sim.state.net.network_mut(NetworkId(0)).wiretap = Some(Vec::new());

    use dash::subtransport::engine as st;
    use rms_core::{Message, RmsParams, RmsRequest, SecurityParams};
    let params = RmsParams::builder(32 * 1024, 1024)
        .security(SecurityParams::FULL)
        .build()
        .unwrap();
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = Rc::clone(&got);
    sim.state.on_app(move |_sim, ev| {
        if let dash::transport::stack::AppEvent::StDeliver { msg, .. } = ev {
            g.borrow_mut().push(msg);
        }
    });
    st::create(
        &mut sim,
        a,
        c,
        &RmsRequest::exact(params),
        false,
        Client {
            proto: PROTO_APP,
            id: 1,
        },
        Bytes::new(),
    )
    .unwrap();
    sim.run();
    let st_rms = *sim.state.st.host(a).streams.keys().next().unwrap();
    let secret = b"the midnight launch codes".to_vec();
    st::send(&mut sim, a, st_rms, Message::new(secret.clone())).unwrap();
    sim.run();

    assert_eq!(got.borrow().len(), 1);
    assert_eq!(got.borrow()[0].payload().as_ref(), &secret[..]);
    let taps = sim
        .state
        .net
        .network(NetworkId(0))
        .wiretap
        .as_ref()
        .unwrap();
    assert!(!taps.is_empty());
    assert!(
        taps.iter()
            .all(|t| !t.windows(secret.len()).any(|w| w == &secret[..])),
        "plaintext must never appear on the wire"
    );
}

#[test]
fn unfragmented_payload_is_delivered_without_copying() {
    // The scatter-gather wire path must forward the app's payload bytes by
    // reference all the way down through ST framing, the net pipeline, and
    // back up through decode: the delivered handle views the very
    // allocation the sender handed in.
    let mut b = TopologyBuilder::new();
    let lan = b.network(NetworkSpec::ethernet("lan"));
    let a = b.host_on(lan);
    let c = b.host_on(lan);
    let mut sim = Sim::new(StackBuilder::new(b.build()).build());

    use dash::subtransport::engine as st;
    use rms_core::{Message, RmsParams, RmsRequest};
    let params = RmsParams::builder(32 * 1024, 4096).build().unwrap();
    let got = Rc::new(RefCell::new(Vec::new()));
    let g = Rc::clone(&got);
    sim.state.on_app(move |_sim, ev| {
        if let dash::transport::stack::AppEvent::StDeliver { msg, .. } = ev {
            g.borrow_mut().push(msg);
        }
    });
    st::create(
        &mut sim,
        a,
        c,
        &RmsRequest::exact(params),
        false,
        Client {
            proto: PROTO_APP,
            id: 1,
        },
        Bytes::new(),
    )
    .unwrap();
    sim.run();
    let st_rms = *sim.state.st.host(a).streams.keys().next().unwrap();
    let body = Bytes::from(vec![0xABu8; 1024]);
    st::send(&mut sim, a, st_rms, Message::new(body.clone())).unwrap();
    sim.run();

    assert_eq!(got.borrow().len(), 1);
    let delivered = got.borrow()[0].payload();
    assert_eq!(delivered.as_ref(), body.as_ref());
    assert_eq!(
        delivered.as_ptr(),
        body.as_ptr(),
        "payload was copied somewhere on the wire path"
    );
}

#[test]
fn admission_control_limits_deterministic_load_end_to_end() {
    use dash::net::pipeline::create_rms;
    use rms_core::{DelayBound, RmsParams, RmsRequest};

    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let params = RmsParams::builder(100_000, 1_000)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(200),
            SimDuration::from_micros(2),
        ))
        .error_rate(rms_core::BitErrorRate::new(1e-4).unwrap())
        .build()
        .unwrap();
    // Each stream demands ~0.5 MB/s of a 1.25 MB/s wire (90% reservable)
    // and 100 KB of the 256 KB interface buffer: two fit, the third is
    // refused.
    let mut ok = 0;
    for _ in 0..3 {
        if create_rms(&mut sim, a, b, &RmsRequest::exact(params.clone())).is_ok() {
            sim.run();
        }
    }
    for host in [a, b] {
        ok += sim.state.net.host(host).rms.len();
    }
    // 2 admitted streams -> 4 endpoints (sender+receiver each).
    assert_eq!(ok, 4, "exactly two deterministic streams admitted");
}
