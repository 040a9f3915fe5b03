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
use dash_bench::e_routing::RoutingParams;
use dash_bench::mix::MixParams;

/// The plan with its events kept, so the digest renders the
/// byte-comparable trace.
fn traced(scenario: Scenario) -> Scenario {
    Scenario {
        keep_events: true,
        ..scenario
    }
}

/// Require a clean verdict on a serial run of the plan.
fn assert_clean(label: &str, scenario: Scenario) {
    let o = run(&scenario, Backend::Serial);
    assert!(o.verdict.is_clean(), "{label}: {}", o.verdict);
}

/// `[events, messages, streams_opened, open_failed]` of a mix run.
fn mix_counts(o: &Outcome) -> [u64; 4] {
    [
        o.events,
        o.messages(),
        o.acct.streams().opened,
        o.acct.streams().failed,
    ]
}

/// The serial engine (e10) at `ci`.
///
/// Re-pinned once when reliable streams stopped resending the window head
/// on every cumulative ack (loss-driven recovery + receiver hold): events
/// and messages fell (15202/1284, 15625/1338, 14853/1320 before), streams
/// opened and refused did not move, and the `E11_*` rows — no bulk flows —
/// stayed byte-identical.
///
/// Re-pinned once when every lane became claimed at its ST create: the
/// stream Hello rides the create instead of the data lane, and an RKOM
/// callee opens its half of the channel when the caller's first lane
/// arrives. Streams opened and refused did not move. Messages
/// (`st.deliver`) lost the data lanes' Hellos (28 at `ci`, 25 at
/// `routing_ci`) and one paced churn message, and gained the replies and
/// reply acks of the RKOM calls that now finish inside the horizon
/// (`rkom.completed` 68 → 104 and 60 → 96 of 120: +36 replies, +32 acks):
/// 1032 → 1071 (1072 under e12) and 1057 → 1099. Events rose with them
/// (12558, 12607, 11886 before). The `E11_*` rows, which have no RKOM,
/// lost only their Hellos: `st.deliver` 337 → 321 and 262 → 248, events
/// 5782 → 5758 and 6301 → 6273. Refusing a create or an invite at a
/// crashed host at once, instead of dropping every retry as `host_down`
/// until a timeout, took 13095 → 12987 events here and 13274 → 13226
/// under e12; messages, opens and refusals did not move.
///
/// Re-pinned once when a failed network endpoint began to be removed
/// instead of marked: the drill fails a churn create's receiving endpoint
/// while its ack is in flight, and the creator's retry used to be re-acked
/// onto the dead endpoint, which dropped all four of the session's
/// messages as `net.drop.no_rms`. The retry now opens a fresh endpoint and
/// the four are delivered: messages 1071 → 1075 (1072 → 1076 under e12),
/// events 12987 → 12995 (13226 → 13234). `routing_ci` and the `E11_*` rows
/// did not move.
///
/// Re-pinned once when a host crash began to fail every network RMS whose
/// path touches the host, at both ends, instead of the crashed host's own
/// endpoints alone: the drill's crashed host held ST control channels and
/// carriers whose other ends used to keep sending into it and were never
/// told. Now those ends fail, two ST streams fail over (0 → 2 completed),
/// four control channels are re-created on restart, and `net.drop.no_rms`
/// falls 42 → 8: messages 1075 → 1099 (1076 → 1099 under e12), events
/// 12995 → 13101 (13234 → 13279). Opens and refusals, `routing_ci` and the
/// `E11_*` rows did not move.
///
/// Re-pinned once when a fault began to give back every hold it cuts,
/// reservation and pin, and a request whose path a fault has cut began to
/// be refused: ten data packets of cut RMSs that were on the WAN when the
/// drill struck meet no pin at the gateway and are dropped there as
/// `net.drop.no_route` instead of being sent onto the dead LAN, and a
/// create that crossed the dark LAN just before it failed is refused at
/// the far gateway instead of opening its receiving end there (it opens
/// at the retry): 13101 → 13087 events (13279 → 13264). Opens and
/// refusals did not move, since the leaked capacity refused nothing;
/// under e12 that refusal costs one frame of the WAN voice flow into the
/// crashed host after its restart, 1099 → 1098 messages (reverting the
/// refusal alone gives 1099 back). At `routing_ci`, two creates whose
/// acks were past the break when the WAN failed no longer complete with
/// their receiving ends gone: each retries and opens both ends, so eight
/// more messages are delivered, 1099 → 1107, and events rise 12605 →
/// 12653. The `E11_*` rows did not move.
const E10_CI: [u64; 4] = [13087, 1099, 29, 4];
/// The parallel executor (e12) at `ci` and `routing_ci`, any shard count.
const E12_CI: [u64; 4] = [13264, 1098, 29, 4];
const E12_ROUTING_CI: [u64; 4] = [12653, 1107, 27, 6];

/// `[events, floods, recomputes, alternate_wins, recoveries,
/// streams_opened, open_failed]` of an e11 run.
fn routing_counts(o: &Outcome) -> [u64; 7] {
    [
        o.events,
        o.registry.counter_value("routing.floods"),
        o.registry.counter_value("routing.recompute"),
        o.registry.counter_value("routing.alternate_wins"),
        o.registry.counter_value("st.failover_completed"),
        o.acct.streams().opened,
        o.acct.streams().failed,
    ]
}

const E11_CI_DUMBBELL: [u64; 7] = [5758, 4, 14, 1, 12, 17, 1];
const E11_CI_MESH: [u64; 7] = [6273, 14, 18, 0, 3, 14, 4];

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
        first.acct.streams().opened > 20,
        "CI scenario too small: {} streams",
        first.acct.streams().opened
    );
    assert!(first.messages() > 500, "only {} messages", first.messages());
    assert!(first.events > 10_000, "only {} events", first.events);
    assert_eq!(first.faults_injected, 4);
    assert!(
        !first.stream.is_empty(),
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
    assert_clean("e10 ci", MixParams::ci().scenario());
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
    assert!(
        first.acct.streams().opened > 5,
        "{} streams",
        first.acct.streams().opened
    );
    assert!(
        first.registry.counter_value("routing.alternate_wins") >= 1,
        "no alternate wins"
    );
    assert!(
        first.registry.counter_value("routing.floods") > 0,
        "no link-state floods"
    );
    assert!(
        first.registry.counter_value("routing.recompute") > 0,
        "no route recomputations"
    );
    assert!(
        first.registry.counter_value("st.failover_completed") > 0,
        "no subtransport failovers"
    );
    assert_eq!(first.faults_injected, 2, "the drill must actually run");
    assert!(!first.stream.is_empty(), "CI size must record the trace");
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
    assert!(
        first.acct.streams().opened > 5,
        "{} streams",
        first.acct.streams().opened
    );
    assert!(
        first.registry.counter_value("routing.floods") > 0,
        "no link-state floods"
    );
    assert!(
        first.registry.counter_value("routing.recompute") > 0,
        "no route recomputations"
    );
    assert!(
        first.registry.counter_value("st.failover_completed") > 0,
        "no subtransport failovers"
    );
    assert_eq!(first.faults_injected, 2, "the drill must actually run");
    assert!(!first.stream.is_empty(), "CI size must record the trace");
}

/// The semantic oracle holds at zero violations on both e11 topologies,
/// outage drill and alternate fallback included.
#[test]
fn e11_ci_is_oracle_clean() {
    for params in [RoutingParams::ci(), RoutingParams::ci().on_mesh()] {
        assert_clean(&format!("{:?}", params.topo), params.scenario());
    }
}

/// Run the e12 workload at each shard count and demand the merged
/// digests (trace dump, registry dump, every deterministic scalar) are
/// byte-identical. The 1-shard run is the serial reference; equality at
/// 2 and 4 shards is the parallel executor's core contract.
fn pscale_digests(params: MixParams) -> Outcome {
    let params = traced(params.scenario());
    let par = |shards| Backend::Par { shards };
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
        first.acct.streams().opened > 15,
        "{} streams",
        first.acct.streams().opened
    );
    assert!(first.messages() > 500, "only {} messages", first.messages());
    assert_eq!(first.faults_injected, 4, "the drill must actually run");
    assert!(
        first.acct.rpcs.values().map(|t| t.received).sum::<u64>() > 10,
        "only {} rpc",
        first.acct.rpcs.values().map(|t| t.received).sum::<u64>()
    );
    assert!(
        !first.stream.is_empty(),
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
        first.acct.streams().opened > 15,
        "{} streams",
        first.acct.streams().opened
    );
    assert!(
        first.faults_injected > 0,
        "the WAN outage must actually fire"
    );
}
