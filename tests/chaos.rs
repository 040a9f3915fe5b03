//! Seeded chaos: random fault schedules against the full stack.
//!
//! The paper's §2.1 contract for a reliable RMS is exactly-once, in-order
//! delivery or a typed failure. The seeded suite runs
//! [`Genome::chaos`] — three reliable flows on the dual-homed topology
//! under the fault plan drawn from the seed (outages, partitions, burst
//! loss, interface stalls, receiver crashes) — through the explorer's
//! [`run_scenario`] (`dash_apps::scenario::run`, which judges the run as
//! it runs), so the semantic oracle is the verdict: FIFO with no gaps,
//! completion or typed failure, no work left queued at the horizon, and
//! the admission-ledger, route-loop and no-spurious-work invariants
//! besides. Every seed must also replay identically, and its verdict must
//! equal a fresh oracle's on the run's kept event stream.
//!
//! Two targeted tests pin the recoveries the seeds only hit by chance: a
//! mid-transfer failover to the backup network, and a receiver crash that
//! must end the stream with a typed reason rather than a stall.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{assert_replays, report_key};
use dash::apps::scenario::{run, Backend};
use dash::check::{oracle, OracleConfig};
use dash::net::pipeline::fail_network;
use dash::net::topology::dual_homed;
use dash::prelude::*;
use dash::transport::stream::{self, EndReason};
use dash_bench::explore::{run_scenario, Genome, RunReport};

const EVENT_BOUND: u64 = 2_000_000;

/// Run the chaos preset for `seed` and require a clean oracle verdict (work
/// still queued at the horizon is a `no-wedge` violation).
fn chaos_clean(seed: u64) -> RunReport {
    let report = run_scenario(&Genome::chaos(seed));
    assert!(report.verdict.is_clean(), "seed {seed}: {}", report.verdict);
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
        .path[0]
        .network;

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

/// An unreliable paced stream whose carrier dies: no cached network RMS
/// is left, so the failover waits for a fresh network create on the backup
/// network. Sends the ST accepted meanwhile (and those still waiting in the
/// dead carrier's piggyback queue) cannot be delivered — but none vanishes:
/// every ST message sent is either delivered or counted by exactly one
/// typed drop.
#[test]
fn failover_loses_no_message_without_a_trace() {
    let (net, a, b) = dual_homed(7);
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    sim.run();
    let carrier = sim
        .state
        .net
        .host(a)
        .rms
        .values()
        .next()
        .expect("rms up")
        .path[0]
        .network;
    // A message every 100 µs for 20 ms; the carrier dies at 3.3 ms with
    // its wire idle and messages in its piggyback queue, and the fresh
    // create on the backup takes a few send intervals.
    let n = 200u64;
    let base = sim.now();
    for i in 0..n {
        let at = base.saturating_add(SimDuration::from_micros(50 + i * 100));
        sim.schedule_at(at, move |sim| {
            stream::send(sim, a, session, Message::zeroes(16)).expect("send accepted");
        });
    }
    sim.schedule_at(
        base.saturating_add(SimDuration::from_micros(3_300)),
        move |sim| fail_network(sim, carrier),
    );
    sim.run();

    let reg = &sim.state.net.obs.registry;
    assert_eq!(reg.counter_value("st.failover_completed"), 1);
    assert_eq!(
        reg.counter_value("net.wire_drop"),
        0,
        "nothing died on the wire"
    );
    let sent = reg.counter_value("st.send");
    let delivered = reg.counter_value("st.deliver");
    let dropped: u64 = (reg.counters())
        .filter(|(name, _)| name.contains(".drop."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(sent, n);
    assert!(
        delivered < sent,
        "the failover must cost messages to test anything"
    );
    assert_eq!(
        delivered + dropped,
        sent,
        "a message vanished without a trace"
    );
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
        delivered += report.verdict.delivered;
        failed += report.verdict.typed_failures;
    }
    // The suite as a whole exercised both outcomes, and exactly as often
    // as it always has: a change to how the preset is planned (its fault
    // plan is stored expanded, as events) must change no run.
    println!("chaos seeds 0..28: {delivered} deliveries, {failed} typed failures");
    assert_eq!((delivered, failed), (1_750, 57));
}

/// The verdict the runner takes online equals the one a fresh oracle
/// reports when fed the run's kept stream afterwards: the serial world
/// emits in time order, so the kept stream's merge order is the order the
/// online oracle saw. Every chaos stream is reliable and the serial clock
/// is virtual: the runner's configuration for the run.
#[test]
fn online_verdict_equals_the_oracle_fed_afterwards() {
    for seed in 0..28u64 {
        let scn = Genome::chaos(seed).scenario();
        assert!(scn.keep_events);
        let o = run(&scn, Backend::Serial);
        let (mut sink, handle) = oracle(OracleConfig::for_run(true, false));
        for (t, e) in &o.stream {
            sink.on_event(*t, e);
        }
        if o.pending == 0 {
            handle.finish(scn.horizon);
        }
        assert_eq!(o.verdict.violations, handle.violations(), "seed {seed}");
        let totals = (o.verdict.delivered, o.verdict.typed_failures);
        assert_eq!(totals, handle.session_totals(), "seed {seed}");
    }
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
