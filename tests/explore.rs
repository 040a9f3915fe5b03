//! End-to-end tests of the simulation-testing pipeline (`dash_bench`'s
//! explorer, shrinker and replay files over the `dash-check` oracle):
//! coverage-guided exploration finds a seeded semantic bug, the shrinker
//! reduces it to a minimal repro, the stored replay file re-runs
//! byte-identically, and every backend returns the same verdict on it.
//!
//! The seeded bug is `NetConfig::debug_force_admission`: a debug switch
//! that makes every admission decision succeed without checking the
//! ledger — exactly the class of fault admission control exists to
//! prevent, and invisible to every throughput metric (traffic still
//! flows; only the *guarantee* is broken). Only the semantic oracle can
//! see it, via the `AdmissionDecision` ledger snapshot.

mod common;

use common::{assert_replays, report_key};
use dash::apps::scenario::{run, Backend, Verdict};
use dash_bench::explore::{explore, run_scenario, ExploreConfig, Scenario};
use dash_bench::{replay, shrink};

/// The shrunk admission repro stored in the tree, parsed, and its text.
fn stored_repro() -> (Scenario, String) {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/repros/admission_oversubscribe.repro"
    ))
    .expect("stored repro exists");
    (replay::parse(&text).expect("stored repro parses"), text)
}

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
        report.verdict.names("admission-ledger"),
        "expected an admission-ledger violation, got {}",
        report.verdict
    );
    // Violations carry their trailing event trace for diagnosis.
    assert!(report.verdict.violations[0]
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
        rerun.verdict.names("admission-ledger"),
        "replayed repro must reproduce the violation"
    );
}

/// The repro stored in the tree (the output of the shrink above, checked
/// in as a regression anchor) replays byte-identically and still trips
/// the admission-ledger invariant.
#[test]
fn stored_repro_replays_byte_identically() {
    let (scenario, text) = stored_repro();
    // The stored file is the canonical serialization of itself.
    assert_eq!(replay::to_text(&scenario), text);

    let report = assert_replays("stored repro", || run_scenario(&scenario), report_key);
    let found = &report.verdict.violations;
    assert_eq!(found.len(), 1, "{}", report.verdict);
    assert_eq!(found[0].invariant, "admission-ledger");

    // With the seeded bug disarmed, the same workload is clean: the
    // oversubscribing open is denied (a typed outcome, not a violation).
    let mut fixed = scenario.clone();
    fixed.force_admission = false;
    let clean = run_scenario(&fixed);
    assert!(
        clean.verdict.is_clean(),
        "disarmed run must pass: {}",
        clean.verdict
    );
}

/// One verdict whatever executes the run: the stored repro, compiled to
/// the runner's scenario, is judged online on `Serial` and `Rt` and over
/// the merged stream on `Par`. Every backend names the oversubscribed
/// ledger, `Par` agrees with itself at one shard and two, and with the
/// seeded bug disarmed all four are clean.
#[test]
fn stored_repro_has_one_verdict_on_every_backend() {
    let (armed, _) = stored_repro();
    let par = |shards| Backend::Par {
        shards,
        lan_aligned: false,
    };
    let backends = [
        Backend::Serial,
        par(1),
        par(2),
        Backend::Rt { loss_per_mille: 0 },
    ];
    let verdicts = |s: &Scenario| -> [Verdict; 4] {
        let scn = s.compile();
        backends.map(|b| run(&scn, b).verdict)
    };
    let found = verdicts(&armed);
    for (b, v) in backends.iter().zip(&found) {
        assert!(v.names("admission-ledger"), "{b:?}: {v}");
    }
    assert_eq!(found[1], found[2], "par(2) judged differently from par(1)");

    let disarmed = Scenario {
        force_admission: false,
        ..armed
    };
    for (b, v) in backends.iter().zip(verdicts(&disarmed)) {
        assert!(v.is_clean(), "{b:?}: {v}");
    }
}
