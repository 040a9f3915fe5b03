//! Workspace-level integration tests: the whole stack, end to end, through
//! the facade crate.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dash::apps::taps::Dispatcher;
use dash::apps::traffic::{self, Class, Flow, Plan};
use dash::apps::window::{start_window_system, WindowSpec};
use dash::net::pipeline::fail_network;
use dash::net::topology::{dumbbell, two_hosts_ethernet, TopologyBuilder};
use dash::net::{NetworkId, NetworkSpec};
use dash::sim::cpu::SchedPolicy;
use dash::sim::{Sim, SimDuration};
use dash::subtransport::ids::Client;
use dash::transport::rkom;
use dash::transport::stack::{StackBuilder, PROTO_APP};
use dash::transport::stream::StreamProfile;

#[test]
fn every_workload_coexists_on_one_lan() {
    let (net, a, b) = two_hosts_ethernet();
    let stack = StackBuilder::new(net)
        .cpus(SchedPolicy::Edf, SimDuration::from_micros(5))
        .build();
    let mut sim = Sim::new(stack);
    let taps = Dispatcher::install(&mut sim, &[a, b]);

    // Planned flows and the window system's session handlers share the
    // two hosts' taps.
    let plan = Plan::from(vec![
        Flow::voice(a, b, 0, SimDuration::from_secs(1)),
        Flow::bulk(a, b, 256 * 1024, 4 * 1024, StreamProfile::bulk()),
    ]);
    let acct = traffic::install_on(&mut sim, &taps, &plan, None);
    let window = start_window_system(&mut sim, &taps, a, b, WindowSpec::default(), 5);
    let echoed = Rc::new(RefCell::new(0u32));
    rkom::register_service(&mut sim.state, b, 1, |_s, _c, req| req);
    for _ in 0..10 {
        let e = Rc::clone(&echoed);
        rkom::call(
            &mut sim,
            a,
            b,
            1,
            Bytes::from_static(b"x"),
            move |_s, res| {
                assert!(res.is_ok());
                *e.borrow_mut() += 1;
            },
        );
    }
    let bulk_done =
        traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(10));
    sim.run_until(sim.now() + SimDuration::from_secs(2));

    let v = acct.borrow();
    assert!(bulk_done, "bulk: {v:?}");
    assert_eq!(*echoed.borrow(), 10);
    assert!(
        v.on_time_fraction(Class::Voice) > 0.9,
        "voice on-time {:?}",
        v.on_time_fraction(Class::Voice)
    );
    let w = window.borrow();
    assert!(w.updates_received > 0);
    assert_eq!(w.late_interactions, 0);
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
    assert!(!bulk.borrow().complete(Class::Bulk));

    // The network comes back; a fresh session works (clients must create
    // new RMSs after failure, §4.4).
    dash::net::pipeline::restore_network(&mut sim, NetworkId(1));
    let retry = traffic::install(&mut sim, &plan, None);
    let done =
        traffic::run_until_delivered(&mut sim, &retry, Class::Bulk, SimDuration::from_secs(30));
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
        (v.sent[0], v.received[0], sim.events_processed())
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
