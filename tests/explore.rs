//! End-to-end tests of the dash-check pipeline: coverage-guided
//! exploration finds a seeded semantic bug, the shrinker reduces it to a
//! minimal repro, and the stored replay file re-runs byte-identically.
//!
//! The seeded bug is `NetConfig::debug_force_admission`: a debug switch
//! that makes every admission decision succeed without checking the
//! ledger — exactly the class of fault admission control exists to
//! prevent, and invisible to every throughput metric (traffic still
//! flows; only the *guarantee* is broken). Only the semantic oracle can
//! see it, via the `AdmissionDecision` ledger snapshot.

mod common;

use common::{assert_replays, report_key};
use dash::check::{explore, replay, run_scenario, shrink, ExploreConfig, Scenario};

/// Baselines with the admission bypass armed — the seeded bug the
/// explorer is expected to find.
fn seeded_bug_corpus() -> Vec<Scenario> {
    let mut seeds = vec![Scenario::baseline(1), Scenario::baseline(2)];
    for s in &mut seeds {
        s.force_admission = true;
    }
    seeds
}

/// Fast fixed-seed smoke: a small healthy budget explores clean. This is
/// the time-boxed entry `scripts/verify.sh` runs.
#[test]
fn exploration_smoke_passes_clean_on_healthy_stack() {
    let seeds = [Scenario::baseline(1), Scenario::baseline(2)];
    let cfg = ExploreConfig {
        budget_runs: 12,
        mutation_seed: 5,
    };
    assert!(
        explore(&seeds, &cfg).is_none(),
        "healthy stack must survive the smoke budget"
    );
}

/// The acceptance path end to end: the explorer finds the seeded
/// admission bug inside the CI budget, the shrinker reduces the find to
/// the one oversubscribing flow, and the replay file reproduces the
/// violation deterministically.
#[test]
fn explorer_finds_seeded_admission_bug_and_shrinks_it() {
    let cfg = ExploreConfig {
        budget_runs: 150,
        mutation_seed: 1,
    };
    let (found, report) =
        explore(&seeded_bug_corpus(), &cfg).expect("seeded bug must be found within the budget");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "admission-ledger"),
        "expected an admission-ledger violation, got {:?}",
        report.violations
    );
    // Violations carry their trailing event trace for diagnosis.
    assert!(report.violations[0]
        .trace
        .iter()
        .any(|l| l.contains("admission")));

    let min = shrink(&found);
    assert_eq!(min.flows.len(), 1, "repro must shrink to one flow: {min:?}");
    assert_eq!(min.fault_seed, None, "fault plan must shrink away");
    assert_eq!(min.jitter_max_us, 0, "jitter must shrink away");

    // The minimal scenario round-trips through the replay format and
    // still reproduces the violation — byte-identically, run for run.
    let text = replay::to_text(&min);
    let parsed = replay::parse(&text).expect("replay text parses");
    assert_eq!(parsed, min);
    let rerun = assert_replays("shrunk repro", || run_scenario(&parsed), report_key);
    assert!(
        rerun
            .violations
            .iter()
            .any(|v| v.invariant == "admission-ledger"),
        "replayed repro must reproduce the violation"
    );
}

/// The repro stored in the tree (the output of the shrink above, checked
/// in as a regression anchor) replays byte-identically and still trips
/// the admission-ledger invariant.
#[test]
fn stored_repro_replays_byte_identically() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/repros/admission_oversubscribe.repro"
    ))
    .expect("stored repro exists");
    let scenario = replay::parse(&text).expect("stored repro parses");
    // The stored file is the canonical serialization of itself.
    assert_eq!(replay::to_text(&scenario), text);

    let report = assert_replays("stored repro", || run_scenario(&scenario), report_key);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].invariant, "admission-ledger");

    // With the seeded bug disarmed, the same workload is clean: the
    // oversubscribing open is denied (a typed outcome, not a violation).
    let mut fixed = scenario.clone();
    fixed.force_admission = false;
    let clean = run_scenario(&fixed);
    assert!(
        clean.violations.is_empty(),
        "disarmed run must pass: {:?}",
        clean.violations
    );
}
