//! Sim-vs-rt conformance: the real-time backend must be the *same stack*,
//! not a lookalike.
//!
//! Three levels of evidence, strongest first:
//!
//! 1. **Exact** — the identical workload run under the virtual driver and
//!    under the monotonic (wall-pacing) driver produces identical logical
//!    `ObsEvent` sequences and an identical end-state metrics registry.
//!    With the null substrate both runs execute the same event queue in
//!    the same order; wall pacing may only change *when* events run,
//!    never *what* runs.
//! 2. **Tolerant** — moving carriage onto the threaded in-memory datagram
//!    substrate (zero loss) keeps session-level outcomes intact: every
//!    byte delivered, every call answered, the semantic oracle clean.
//!    Exact traces are out of reach here by design (real carriage timing
//!    feeds back into virtual arrival times), so the assertion drops to
//!    what must survive any legal timing: application outcomes and
//!    invariants.
//! 3. **Adversarial** — with injected loss on the substrate, the
//!    schedule-robust oracle invariants (delivery integrity, per-stream
//!    FIFO, completion) still hold at zero violations while the loss is
//!    demonstrably exercised.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dash::apps::traffic::{self, Class, Flow, Plan, SharedAcct};
use dash::check::{oracle, OracleConfig};
use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::rt::{run_rt, MemConfig, MemDatagram, Monotonic, RtOptions, SimLinks, Substrate};
use dash::sim::driver::{TimeDriver, VirtualDriver};
use dash::transport::rkom;

/// Records `name + payload` per event — the logical sequence, timestamps
/// deliberately excluded (the ISSUE's conformance contract; payload
/// fields carry only virtual quantities).
struct LogicalTrace {
    lines: Rc<RefCell<Vec<String>>>,
}

impl ObsSink for LogicalTrace {
    fn on_event(&mut self, _time: SimTime, event: &ObsEvent) {
        self.lines.borrow_mut().push(format!("{event:?}"));
    }
}

/// The shared workload: one reliable bulk transfer each way plus a burst
/// of RKOM echo calls — enough to exercise streams, ST channels, ARQ,
/// and flow control, small enough that a wall-paced run stays subsecond.
struct Workload {
    sim: Sim<Stack>,
    /// Both transfers, in the one `Bulk` bucket.
    bulk: SharedAcct,
    rkom_ok: Rc<RefCell<u32>>,
    rkom_n: u32,
}

/// One reliable transfer each way. A tight delay bound keeps the RTO
/// derived from it, and so retransmission stalls, short in wall time.
fn bulk_both_ways(a: HostId, b: HostId, ab_bytes: u64, ba_bytes: u64) -> Plan {
    let profile = StreamProfile {
        delay: dash::core::DelayBound::best_effort_with(
            SimDuration::from_millis(5),
            SimDuration::from_micros(1),
        ),
        ..StreamProfile::bulk()
    };
    Plan::from(vec![
        Flow::bulk(a, b, ab_bytes, 4 * 1024, profile.clone()),
        Flow::bulk(b, a, ba_bytes, 4 * 1024, profile),
    ])
}

fn build_workload() -> Workload {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    let plan = bulk_both_ways(a, b, 48 * 1024, 24 * 1024);
    let bulk = traffic::install(&mut sim, &plan, None);
    rkom::register_service(&mut sim.state, b, 9, |_sim, _client, req| req);
    let rkom_ok = Rc::new(RefCell::new(0u32));
    let rkom_n = 8;
    for i in 0..rkom_n {
        let ok = Rc::clone(&rkom_ok);
        rkom::call(
            &mut sim,
            a,
            b,
            9,
            Bytes::from(vec![i as u8; 64]),
            move |_sim, res| {
                if res.is_ok() {
                    *ok.borrow_mut() += 1;
                }
            },
        );
    }
    Workload {
        sim,
        bulk,
        rkom_ok,
        rkom_n,
    }
}

/// Run the workload under `driver` with the null substrate; return the
/// logical trace and the end-state registry dump.
fn run_with_driver(driver: &mut dyn TimeDriver) -> (Vec<String>, String) {
    let mut w = build_workload();
    let lines = Rc::new(RefCell::new(Vec::new()));
    w.sim.state.net.obs.add_boxed_sink(Box::new(LogicalTrace {
        lines: Rc::clone(&lines),
    }));
    let mut links = SimLinks;
    let report = run_rt(
        &mut w.sim,
        driver,
        &mut links,
        &RtOptions {
            max_wall: Some(Duration::from_secs(120)),
            ..RtOptions::default()
        },
    );
    assert!(report.quiesced(), "stop {:?}", report.stop);
    assert!(w.bulk.borrow().complete(Class::Bulk));
    assert_eq!(*w.rkom_ok.borrow(), w.rkom_n);
    let trace = lines.borrow().clone();
    (trace, w.sim.state.net.obs.registry.to_json_lines())
}

#[test]
fn virtual_and_monotonic_drivers_execute_identically() {
    let (virt_trace, virt_registry) = run_with_driver(&mut VirtualDriver::new());
    let (mono_trace, mono_registry) = run_with_driver(&mut Monotonic::start());
    assert!(!virt_trace.is_empty());
    // Identical logical event sequences, event by event...
    assert_eq!(virt_trace.len(), mono_trace.len());
    for (i, (v, m)) in virt_trace.iter().zip(mono_trace.iter()).enumerate() {
        assert_eq!(v, m, "logical trace diverges at event {i}");
    }
    // ...and identical end-state metrics.
    assert_eq!(virt_registry, mono_registry);
}

#[test]
fn memdatagram_substrate_preserves_session_outcomes() {
    let mut w = build_workload();
    w.sim.state.net.enable_wire_divert();
    let (sink, handle) = oracle(OracleConfig {
        check_completion: true,
        // Wall lag feeds real carriage timing back into arrival times —
        // the same reason det-delay is off for jittered schedules.
        check_det_delay: false,
        check_fifo_gaps: true,
    });
    w.sim.state.net.obs.add_boxed_sink(Box::new(sink));
    let mut driver = Monotonic::start();
    let mut substrate = MemDatagram::new(MemConfig::default());
    let report = run_rt(
        &mut w.sim,
        &mut driver,
        &mut substrate,
        &RtOptions {
            max_wall: Some(Duration::from_secs(120)),
            ..RtOptions::default()
        },
    );
    handle.finish(w.sim.now());
    assert!(report.quiesced(), "stop {:?}", report.stop);
    // Every wire hop really crossed the substrate, and none were lost.
    assert!(report.transmitted > 0);
    assert_eq!(report.injected, report.transmitted);
    assert_eq!(substrate.dropped(), 0);
    assert_eq!(substrate.in_flight(), 0);
    // Session outcomes match the virtual run's.
    assert!(
        w.bulk.borrow().complete(Class::Bulk),
        "{:?}",
        w.bulk.borrow()
    );
    assert_eq!(*w.rkom_ok.borrow(), w.rkom_n);
    let violations = handle.violations();
    assert!(violations.is_empty(), "oracle: {violations:?}");
}

#[test]
fn oracle_holds_on_lossy_realtime_run() {
    // The loss model only touches what the layers above are built to
    // recover: best-effort RMS data (see `Substrate::transmit`). The
    // interesting claim is about the steady state, so the run is handed
    // to the lossy substrate only once both directions' reverse ack
    // channels are live — before that point a receiver parks its
    // cumulative acks (`Session::ack_ready`), so a sender whose data is
    // dropped retransmits into a void until its retry budget kills the
    // session: a *typed* failure the oracle accepts, but a useless test.
    // The transfers are sized so plenty of data remains at that cutover
    // (the ack channels come up around t≈240ms under this load, measured;
    // the condition below adapts if that drifts).
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    let plan = bulk_both_ways(a, b, 768 * 1024, 512 * 1024);
    let bulk = traffic::install(&mut sim, &plan, None);
    let (sink, handle) = oracle(OracleConfig {
        check_completion: true,
        check_det_delay: false,
        check_fifo_gaps: true,
    });
    sim.state.net.obs.add_boxed_sink(Box::new(sink));
    // Each sender session's receiving end (a session id is shared by both
    // ends; the receiver is the other host).
    let receivers = |sim: &Sim<Stack>| -> Vec<(u64, bool)> {
        let sessions = bulk.borrow().sessions().to_vec();
        sessions
            .iter()
            .filter_map(|&(src, s)| sim.state.stream.session(if src == a { b } else { a }, s))
            .map(|rx| (rx.stats.delivered.get(), rx.ack_ready()))
            .collect()
    };
    let acks_live = |sim: &Sim<Stack>| {
        let rx = receivers(sim);
        rx.len() == 2 && rx.iter().all(|&(_, ack_ready)| ack_ready)
    };
    while !acks_live(&sim) && sim.step() {}
    assert!(acks_live(&sim), "ack channels never came up");
    for (flow, (delivered, _)) in plan.flows.iter().zip(receivers(&sim)) {
        assert!(delivered < flow.count, "nothing left for the rt phase");
    }

    sim.state.net.enable_wire_divert();
    // Anchor so the wall clock starts where virtual time already is: the
    // warm-up backlog is not fake lag.
    let mut driver = Monotonic::anchored_at(
        std::time::Instant::now() - Duration::from_nanos(sim.now().as_nanos()),
    );
    // 8% deterministic loss: every session must recover via ARQ, and the
    // chance that no drop occurs at all is negligible.
    let mut substrate = MemDatagram::new(MemConfig {
        loss_per_mille: 80,
        seed: 0xC0FFEE,
    });
    let report = run_rt(
        &mut sim,
        &mut driver,
        &mut substrate,
        &RtOptions {
            max_wall: Some(Duration::from_secs(120)),
            ..RtOptions::default()
        },
    );
    handle.finish(sim.now());
    assert!(report.quiesced(), "stop {:?}", report.stop);
    // The loss was real...
    assert!(report.substrate_dropped > 0, "loss never exercised");
    // ...and the reliable layers recovered everything anyway.
    assert!(bulk.borrow().complete(Class::Bulk), "{:?}", bulk.borrow());
    let violations = handle.violations();
    assert!(violations.is_empty(), "oracle: {violations:?}");
}
