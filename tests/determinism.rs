//! Golden determinism gate for the e10/e12 mix and e11 routing workloads —
//! two plans, one `scenario::run`, one `Outcome`, one digest.
//!
//! Runs the scaled-down CI sizes twice in-process and demands
//! byte-identical outcomes: the network-layer trace, the full
//! metric-registry dump, and every deterministic scalar (event count,
//! message count, peak queue depth). This is the safety net that licenses
//! refactors of the event engine's internals — any change to event
//! ordering, timer semantics, or metric accounting shows up here as a
//! byte-level diff long before it corrupts an experiment.
//!
//! Replay-identity cannot see a change that is *consistently* different,
//! so the headline counts of every CI run are also pinned as constants:
//! a drift there is a behaviour change to be explained, never noise.

mod common;

use common::assert_replays;
use dash::apps::scenario::{run, Backend, Outcome, Scenario};
use dash::check::check_stream;
use dash_bench::e_routing::RoutingParams;
use dash_bench::mix::MixParams;

/// The plan with the byte-comparable observability trace switched on.
fn traced(scenario: Scenario) -> Scenario {
    Scenario {
        record_trace: true,
        ..scenario
    }
}

/// The semantic oracle's verdict on a serial run of the plan.
fn violations(scenario: Scenario) -> Vec<String> {
    let scenario = Scenario {
        keep_events: true,
        ..scenario
    };
    check_stream(&run(&scenario, Backend::Serial).stream, true)
}

/// `[events, messages, streams_opened, open_failed]` of a mix run.
fn mix_counts(o: &Outcome) -> [u64; 4] {
    [o.events, o.messages, o.streams_opened, o.open_failed]
}

/// The serial engine (e10) at `ci`.
///
/// Re-pinned once when reliable streams stopped resending the window head
/// on every cumulative ack (loss-driven recovery + receiver hold): events
/// and messages fell (15202/1284, 15625/1338, 14853/1320 before), streams
/// opened and refused did not move, and the `E11_*` rows — no bulk flows —
/// stayed byte-identical.
const E10_CI: [u64; 4] = [12558, 1032, 29, 4];
/// The parallel executor (e12) at `ci` and `routing_ci`, any shard count.
const E12_CI: [u64; 4] = [12607, 1032, 29, 4];
const E12_ROUTING_CI: [u64; 4] = [11886, 1057, 27, 6];

/// `[events, floods, recomputes, alternate_wins, recoveries,
/// streams_opened, open_failed]` of an e11 run.
fn routing_counts(o: &Outcome) -> [u64; 7] {
    [
        o.events,
        o.floods,
        o.recomputes,
        o.alternate_wins,
        o.recoveries,
        o.streams_opened,
        o.open_failed,
    ]
}

const E11_CI_DUMBBELL: [u64; 7] = [5782, 4, 14, 1, 12, 17, 1];
const E11_CI_MESH: [u64; 7] = [6301, 14, 18, 0, 3, 14, 4];

/// The full CI scenario (faults, churn, CPUs, trace recording) twice.
/// The digest covers every deterministic scalar plus the full registry
/// and trace dumps, so digest equality is byte-identity of the run.
#[test]
fn e10_ci_replay_is_byte_identical() {
    let scenario = traced(MixParams::ci().scenario());
    let first = assert_replays(
        "e10 ci",
        || run(&scenario, Backend::Serial),
        |o| o.determinism_digest(),
    );
    assert_eq!(mix_counts(&first), E10_CI, "e10 ci counts drifted");

    // The workload actually exercised the stack: real traffic, real
    // control-plane churn, real faults. A silent no-op run would make the
    // byte-compare above vacuous.
    assert!(
        first.streams_opened > 20,
        "CI scenario too small: {} streams",
        first.streams_opened
    );
    assert!(first.messages > 500, "only {} messages", first.messages);
    assert!(first.events > 10_000, "only {} events", first.events);
    assert_eq!(first.faults_injected, 4);
    assert!(
        !first.trace_dump.is_empty(),
        "CI size must record the network trace"
    );
}

/// Different seeds must actually change the run (the digest is sensitive
/// to what happens, not a constant).
#[test]
fn e10_ci_digest_depends_on_seed() {
    // No trace: digest sensitivity is visible in the registry alone.
    let a = MixParams::ci();
    let mut b = a.clone();
    b.seed = a.seed + 1;
    let ra = run(&a.scenario(), Backend::Serial);
    let rb = run(&b.scenario(), Backend::Serial);
    assert_ne!(
        ra.determinism_digest(),
        rb.determinism_digest(),
        "changing the seed must change the outcome"
    );
}

/// The fault drill is part of the determinism envelope: with it disabled
/// the run still replays byte-identically, so any nondeterminism found by
/// the main test is attributable to the drill (and vice versa).
#[test]
fn e10_ci_without_drill_also_replays() {
    let mut params = MixParams::ci();
    params.fault_drill = false;
    params.churn_per_wave = 2;
    let scenario = traced(params.scenario());
    assert_replays(
        "e10 ci without drill",
        || run(&scenario, Backend::Serial),
        |o| o.determinism_digest(),
    );
}

/// The semantic oracle holds at zero violations on the serial CI run.
#[test]
fn e10_ci_is_oracle_clean() {
    let found = violations(MixParams::ci().scenario());
    assert!(found.is_empty(), "{found:?}");
}

/// Routing-churn golden: the e11 dumbbell scenario — link-state floods,
/// admission NAKs falling back across alternates, a mid-run corridor
/// outage with lazy reconvergence and subtransport failover — replays
/// byte-identically, trace and registry included. This pins down the
/// whole event-driven reconvergence path (flood ordering, LSDB updates,
/// route-generation staleness checks) at the trace level.
#[test]
fn e11_routing_churn_replay_is_byte_identical() {
    let scenario = traced(RoutingParams::ci().scenario());
    let first = assert_replays(
        "e11 dumbbell",
        || run(&scenario, Backend::Serial),
        |o| o.determinism_digest(),
    );
    assert_eq!(
        routing_counts(&first),
        E11_CI_DUMBBELL,
        "e11 dumbbell counts drifted"
    );

    // The scenario exercised what it claims to: establishment fell back
    // to an alternate, the outage triggered floods and recomputations,
    // and streams re-homed (failovers recorded recovery latency).
    assert!(first.streams_opened > 5, "{} streams", first.streams_opened);
    assert!(first.alternate_wins >= 1, "no alternate wins");
    assert!(first.floods > 0, "no link-state floods");
    assert!(first.recomputes > 0, "no route recomputations");
    assert!(first.recoveries > 0, "no subtransport failovers");
    assert_eq!(first.faults_injected, 2, "the drill must actually run");
    assert!(
        !first.trace_dump.is_empty(),
        "CI size must record the trace"
    );
}

/// Same replay guarantee on the 3×3 mesh: reconvergence around the mesh
/// centre's outage is deterministic too.
#[test]
fn e11_mesh_replay_is_byte_identical() {
    let scenario = traced(RoutingParams::ci().on_mesh().scenario());
    let first = assert_replays(
        "e11 mesh",
        || run(&scenario, Backend::Serial),
        |o| o.determinism_digest(),
    );
    assert_eq!(
        routing_counts(&first),
        E11_CI_MESH,
        "e11 mesh counts drifted"
    );
    // The centre outage forced reconvergence: floods, recomputations and
    // re-homed streams, with traffic still flowing around the rim.
    assert!(first.streams_opened > 5, "{} streams", first.streams_opened);
    assert!(first.floods > 0, "no link-state floods");
    assert!(first.recomputes > 0, "no route recomputations");
    assert!(first.recoveries > 0, "no subtransport failovers");
    assert_eq!(first.faults_injected, 2, "the drill must actually run");
    assert!(
        !first.trace_dump.is_empty(),
        "CI size must record the trace"
    );
}

/// The semantic oracle holds at zero violations on both e11 topologies,
/// outage drill and alternate fallback included.
#[test]
fn e11_ci_is_oracle_clean() {
    for params in [RoutingParams::ci(), RoutingParams::ci().on_mesh()] {
        let found = violations(params.scenario());
        assert!(found.is_empty(), "{:?}: {found:?}", params.topo);
    }
}

/// Run the e12 workload at each shard count and demand the merged
/// digests (trace dump, registry dump, every deterministic scalar) are
/// byte-identical. The 1-shard run is the serial reference; equality at
/// 2 and 4 shards is the parallel executor's core contract.
fn pscale_digests(params: MixParams) -> Outcome {
    let params = traced(params.scenario());
    let par = |shards| Backend::Par {
        shards,
        lan_aligned: true,
    };
    let serial = run(&params, par(1));
    let reference = serial.determinism_digest();
    for shards in [2, 4] {
        let par = run(&params, par(shards));
        assert_eq!(
            reference,
            par.determinism_digest(),
            "e12 diverged at {shards} shards (serial {} vs parallel {} events)",
            serial.events,
            par.events,
        );
    }
    serial
}

/// e10-flavoured golden: the scaled multi-LAN workload (voice pacing,
/// bulk flow control, RKOM calls, churn waves, the mid-run fault drill —
/// whose dark LAN and victim crash cross shard boundaries at 2 and 4
/// shards) produces byte-identical traces at shards = 1, 2, 4.
#[test]
fn e12_scale_workload_identical_at_1_2_4_shards() {
    let first = pscale_digests(MixParams::ci());
    assert_eq!(mix_counts(&first), E12_CI, "e12 ci counts drifted");
    assert!(
        first.streams_opened > 15,
        "{} streams",
        first.streams_opened
    );
    assert!(first.messages > 500, "only {} messages", first.messages);
    assert_eq!(first.faults_injected, 4, "the drill must actually run");
    assert!(first.rpc_completed > 10, "only {} rpc", first.rpc_completed);
    assert!(
        !first.trace_dump.is_empty(),
        "CI size must record the network trace"
    );
}

/// e11-flavoured golden: the WAN-outage variant (primary corridor goes
/// dark mid-run, traffic re-homes over the backup WAN path) replays
/// byte-identically at shards = 1, 2, 4 — reconvergence is deterministic
/// under partitioning too.
#[test]
fn e12_routing_workload_identical_at_1_2_4_shards() {
    let first = pscale_digests(MixParams::routing_ci());
    assert_eq!(
        mix_counts(&first),
        E12_ROUTING_CI,
        "e12 routing_ci counts drifted"
    );
    assert!(
        first.streams_opened > 15,
        "{} streams",
        first.streams_opened
    );
    assert!(
        first.faults_injected > 0,
        "the WAN outage must actually fire"
    );
}
