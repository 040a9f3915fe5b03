//! Seeded chaos: random fault schedules against the full stack.
//!
//! The paper's §2.1 contract for a reliable RMS is exactly-once, in-order
//! delivery or a typed failure. The seeded suite runs
//! [`Scenario::chaos`] — three reliable flows on the dual-homed topology
//! under a fault plan drawn from the seed (outages, partitions, burst
//! loss, interface stalls, receiver crashes) — through the explorer's
//! [`run_scenario`] (`dash_apps::scenario::run`, then the oracle), so the
//! semantic oracle is the verdict: FIFO with no gaps, completion or typed
//! failure, no work left queued at the horizon, and the admission-ledger,
//! route-loop and no-spurious-work invariants besides. Every seed must
//! also replay identically.
//!
//! Two targeted tests pin the recoveries the seeds only hit by chance: a
//! mid-transfer failover to the backup network, and a receiver crash that
//! must end the stream with a typed reason rather than a stall.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{assert_replays, report_key};
use dash::check::{run_scenario, RunReport, Scenario};
use dash::net::pipeline::fail_network;
use dash::net::topology::dual_homed;
use dash::prelude::*;
use dash::transport::stream::{self, EndReason};

const EVENT_BOUND: u64 = 2_000_000;

/// Run the chaos preset for `seed` and require a clean oracle verdict (work
/// still queued at the horizon is a `no-wedge` violation).
fn chaos_clean(seed: u64) -> RunReport {
    let report = run_scenario(&Scenario::chaos(seed));
    assert!(
        report.violations.is_empty(),
        "seed {seed}: {:?}",
        report.violations
    );
    report
}

#[test]
fn stream_fails_over_to_alternate_network_mid_transfer() {
    let (net, a, b) = dual_homed(7);
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).retain_spans(true).build());
    let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let ended: Rc<RefCell<Vec<EndReason>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let got = Rc::clone(&got);
        let ended = Rc::clone(&ended);
        sim.state.on_stream(b, move |_sim, ev| match ev {
            StreamEvent::Delivered { seq, .. } => got.borrow_mut().push(seq),
            StreamEvent::Ended { reason, .. } => ended.borrow_mut().push(reason),
            _ => {}
        });
    }
    let profile = StreamProfile {
        reliable: true,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();

    // Which network carries the established stream? Fail exactly that one.
    let carrier = sim
        .state
        .net
        .host(a)
        .rms
        .values()
        .next()
        .expect("rms up")
        .path[0];

    let n = 30u64;
    let base = sim.now();
    for i in 0..n {
        let at = base.saturating_add(SimDuration::from_millis(5 + i * 10));
        sim.schedule_at(at, move |sim| {
            stream::send(sim, a, session, Message::zeroes(512)).expect("send accepted");
        });
    }
    // Kill the carrier mid-transfer; the stream must move to the backup.
    sim.schedule_at(
        base.saturating_add(SimDuration::from_millis(120)),
        move |sim| fail_network(sim, carrier),
    );
    sim.run();

    // Every message arrived exactly once, in order, despite the dead net.
    assert_eq!(*got.borrow(), (0..n).collect::<Vec<_>>());
    assert!(
        ended.borrow().is_empty(),
        "stream must survive: {:?}",
        ended.borrow()
    );

    // The failover is visible in the metric registry.
    let reg = &mut sim.state.net.obs.registry;
    assert!(reg.counter_value("st.failover_started") >= 1);
    assert!(reg.counter_value("st.failover_completed") >= 1);
    let lat = reg.histogram("fault.recovery_latency");
    assert!(lat.count() >= 1, "recovery latency must be recorded");
    assert!(lat.mean() >= 0.0);
    assert_eq!(reg.counter_value("net.network_failed"), 1);

    // Span accounting stays consistent across the failover: stages in
    // pipeline order, time never running backwards, telescoping e2e.
    let spans = sim.state.net.obs.spans();
    assert!(!spans.is_empty(), "spans must be retained");
    for span in spans {
        for pair in span.stages.windows(2) {
            let ((_, t0), (_, t1)) = (pair[0], pair[1]);
            assert!(t1 >= t0, "span {}: time went backwards", span.span);
        }
        let sum: SimDuration = span
            .stages
            .windows(2)
            .map(|p| p[1].1.saturating_since(p[0].1))
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        assert_eq!(
            sum,
            span.e2e(),
            "span {}: stage latencies telescope",
            span.span
        );
    }
}

#[test]
fn host_crash_yields_typed_end_not_a_stall() {
    let (net, a, b) = dual_homed(11);
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    let ends: Rc<RefCell<Vec<EndReason>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let ends = Rc::clone(&ends);
        sim.state.on_stream(a, move |_sim, ev| {
            if let StreamEvent::Ended { reason, .. } = ev {
                ends.borrow_mut().push(reason);
            }
        });
    }
    let profile = StreamProfile {
        reliable: true,
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    sim.run();
    stream::send(&mut sim, a, session, Message::zeroes(256)).unwrap();
    sim.run();
    // The receiver dies for good: no alternate network can help.
    dash::net::fault::crash_host(&mut sim, b);
    stream::send(&mut sim, a, session, Message::zeroes(256)).ok();
    let processed = sim.run_bounded(EVENT_BOUND);
    assert_eq!(sim.events_pending(), 0, "crash must not wedge the queue");
    assert!(processed < EVENT_BOUND);
    let ends = ends.borrow();
    assert!(
        ends.iter()
            .any(|r| matches!(r, EndReason::ChannelFailed(_) | EndReason::RetriesExhausted)),
        "sender must see a typed end, got {ends:?}"
    );
}

#[test]
fn seeded_chaos_upholds_invariants_and_replays_identically() {
    // 28 seeds, each run twice: a clean oracle on every run, and the two
    // runs of a seed must match exactly.
    let (mut delivered, mut failed) = (0, 0);
    for seed in 0..28u64 {
        let report = assert_replays(
            &format!("chaos seed {seed}"),
            || chaos_clean(seed),
            report_key,
        );
        delivered += report.delivered;
        failed += report.typed_failures;
    }
    // The suite as a whole exercised both outcomes: plenty of deliveries,
    // and at least some typed failures (otherwise the plans were toothless).
    println!("chaos seeds 0..28: {delivered} deliveries, {failed} typed failures");
    assert!(delivered > 100, "only {delivered} deliveries");
    assert!(failed > 0, "no run produced a typed failure");
}

mod chaos_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any seed in a wide range upholds the chaos invariants.
        #[test]
        fn any_seed_upholds_invariants(seed in 0u64..10_000) {
            chaos_clean(seed);
        }
    }
}
