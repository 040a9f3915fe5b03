//! End-to-end tests of the simulation-testing pipeline (`dash_bench`'s
//! explorer, shrinker and replay files over the `dash-check` oracle):
//! coverage-guided exploration finds a seeded semantic bug, the shrinker
//! reduces it to a minimal repro, every stored replay file re-runs
//! byte-identically, and every backend returns the same verdict on it.
//!
//! The seeded bug is `NetConfig::debug_force_admission`: a debug switch
//! that makes every admission decision succeed without checking the
//! ledger — exactly the class of fault admission control exists to
//! prevent, and invisible to every throughput metric (traffic still
//! flows; only the *guarantee* is broken). Only the semantic oracle can
//! see it, via the `AdmissionDecision` ledger snapshot.

mod common;

use std::path::Path;

use common::{assert_replays, report_key};
use dash::apps::scenario::{run, Backend, Scenario, Verdict};
use dash::apps::traffic::{Flow, Probe, RpcFlow, TcpFlow, TcpWork, WindowFlow};
use dash::prelude::{ObsEvent, SimDuration};
use dash_bench::explore::{explore, run_scenario, ExploreConfig, Genome, A, B};
use dash_bench::{replay, shrink};

const REPROS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repros");

/// A stored repro, parsed, and its text.
fn stored(path: &Path) -> (Genome, String) {
    let text = std::fs::read_to_string(path).expect("stored repro exists");
    let parsed = replay::parse(&text);
    (
        parsed.unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        text,
    )
}

/// The shrunk admission repro stored in the tree.
fn admission_repro() -> Genome {
    stored(&Path::new(REPROS).join("admission_oversubscribe.repro")).0
}

/// Baselines with the admission bypass armed — the seeded bug the
/// explorer is expected to find.
fn seeded_bug_corpus() -> Vec<Genome> {
    let mut seeds = vec![Genome::baseline(1), Genome::baseline(2)];
    for s in &mut seeds {
        s.force_admission = true;
    }
    seeds
}

/// [`Genome::baseline`] plus one small entry of every other plan word,
/// from `b` to `a`: a voice stream, an RPC pair, a TCP connection, a
/// window system and a probe pair.
fn every_word(seed: u64) -> Genome {
    let mut g = Genome::baseline(seed);
    let ms = SimDuration::from_millis;
    let p = &mut g.plan;
    p.flows.push(Flow::voice(B, A, 0, ms(200)));
    p.rpcs.push(RpcFlow {
        client: B,
        server: A,
        service: 7,
        calls: 3,
        interval: ms(40),
        start: ms(10),
        request: 64,
        reply: 256,
    });
    let work = TcpWork::Rpc {
        calls: 3,
        request: 64,
        reply: 256,
    };
    p.tcp.push(TcpFlow {
        client: B,
        server: A,
        work,
    });
    let window = WindowFlow::new(B, A, seed);
    p.windows.push(WindowFlow {
        duration: ms(300),
        ..window
    });
    p.probes.push(Probe {
        a: B,
        b: A,
        interval: ms(40),
        end: ms(200),
    });
    g
}

/// Fixed-seed smoke: 150 runs seeded with every plan word explore the
/// healthy stack clean. This is the time-boxed entry `scripts/verify.sh`
/// runs.
#[test]
fn exploration_smoke_passes_clean_on_healthy_stack() {
    let seeds = [every_word(1), every_word(2)];
    let cfg = ExploreConfig {
        budget_runs: 150,
        mutation_seed: 5,
    };
    if let Some((g, report)) = explore(&seeds, &cfg) {
        let text = replay::to_text(&g);
        panic!("healthy stack failed: {}\n{text}", report.verdict);
    }
}

/// The acceptance path end to end, over twenty mutation seeds: inside
/// the CI budget the explorer finds the seeded admission bug on at least
/// 18, the shrinker reduces every find to the one oversubscribing flow —
/// with no fault and no jitter on at least 18 — and the replay file
/// reproduces each violation deterministically. (A find that needs its
/// faults would be a second bug under the bypass.)
#[test]
fn explorer_finds_seeded_admission_bug_and_shrinks_it() {
    let (mut found, mut bare) = (0, 0);
    for mutation_seed in 0..20 {
        let cfg = ExploreConfig {
            budget_runs: 150,
            mutation_seed,
        };
        let Some((genome, report)) = explore(&seeded_bug_corpus(), &cfg) else {
            continue;
        };
        let seed = format!("mutation seed {mutation_seed}");
        assert!(
            report.verdict.names("admission-ledger"),
            "{seed}: {}",
            report.verdict
        );
        // Violations carry their trailing event trace for diagnosis.
        let trace = &report.verdict.violations[0].trace;
        assert!(trace.iter().any(|l| l.contains("admission")), "{seed}");

        let min = shrink(&genome);
        let text = replay::to_text(&min);
        let p = &min.plan;
        assert_eq!(
            p.flows.len(),
            1,
            "{seed}: repro must shrink to one flow:\n{text}"
        );
        let others = p.rpcs.len() + p.tcp.len() + p.windows.len() + p.probes.len();
        assert_eq!(
            others, 0,
            "{seed}: every other entry must shrink away:\n{text}"
        );
        found += 1;
        bare += usize::from(min.faults.events.is_empty());

        // The minimal genome round-trips through the replay format and
        // still reproduces the violation — byte-identically, run for run.
        let parsed = replay::parse(&text).expect("replay text parses");
        assert_eq!(parsed, min);
        let rerun = assert_replays(&seed, || run_scenario(&parsed), report_key);
        assert!(
            rerun.verdict.names("admission-ledger"),
            "{seed}: replay lost it"
        );
    }
    assert!(found >= 18, "found on {found} of 20 mutation seeds");
    assert!(
        bare >= 18,
        "shrunk to no fault on {bare} of 20 mutation seeds"
    );
}

/// Every repro stored in `tests/repros/` is the canonical text of a
/// genome, replays byte-identically and still fails: a new repro needs no
/// new test code.
#[test]
fn every_stored_repro_replays() {
    let mut paths: Vec<_> = std::fs::read_dir(REPROS)
        .expect("tests/repros exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    for path in paths {
        let (genome, text) = stored(&path);
        let name = path.display().to_string();
        assert_eq!(replay::to_text(&genome), text, "{name} is not canonical");
        let report = assert_replays(&name, || run_scenario(&genome), report_key);
        assert!(!report.verdict.is_clean(), "{name} no longer fails");
    }
}

/// The stored admission repro (the shrink above, checked in as a
/// regression anchor) replays to the numbers it was stored with, and
/// trips the admission-ledger invariant once.
#[test]
fn stored_repro_replays_byte_identically() {
    let genome = admission_repro();
    let report = run_scenario(&genome);
    assert_eq!((report.processed, report.bigrams.len()), (212, 33));
    let found = &report.verdict.violations;
    assert_eq!(found.len(), 1, "{}", report.verdict);
    let v = &found[0];
    assert_eq!(
        (v.invariant, v.at.as_nanos()),
        ("admission-ledger", 5_935_474)
    );
    assert_eq!(
        v.detail,
        "host 0: ledger oversubscribed, reserved 1981648 B/s > deterministic budget 1125000 B/s"
    );
    // The digest pinned here renders no trace: the events are not kept.
    let untraced = Scenario {
        keep_events: false,
        ..genome.scenario()
    };
    let digest = run(&untraced, Backend::Serial).digest_hash();
    assert_eq!(digest, "31c9b994f3605807");

    // With the seeded bug disarmed, the same workload is clean: the
    // oversubscribing open is denied (a typed outcome, not a violation).
    let fixed = Genome {
        force_admission: false,
        ..genome
    };
    let clean = run_scenario(&fixed);
    assert!(
        clean.verdict.is_clean(),
        "disarmed run must pass: {}",
        clean.verdict
    );
}

/// One verdict whatever executes the run: the stored repro, as the
/// runner's scenario, is judged online on `Serial` and `Rt` and over the
/// merged stream on `Par`. Every backend names the oversubscribed ledger,
/// `Par` agrees with itself at one shard and two, and with the seeded bug
/// disarmed all four are clean.
#[test]
fn stored_repro_has_one_verdict_on_every_backend() {
    let armed = admission_repro();
    let par = |shards| Backend::Par { shards };
    let backends = [
        Backend::Serial,
        par(1),
        par(2),
        Backend::Rt { loss_per_mille: 0 },
    ];
    let verdicts = |g: &Genome| -> [Verdict; 4] {
        let scn = g.scenario();
        backends.map(|b| run(&scn, b).verdict)
    };
    let found = verdicts(&armed);
    for (b, v) in backends.iter().zip(&found) {
        assert!(v.names("admission-ledger"), "{b:?}: {v}");
    }
    assert_eq!(found[1], found[2], "par(2) judged differently from par(1)");

    let disarmed = Genome {
        force_admission: false,
        ..armed
    };
    for (b, v) in backends.iter().zip(verdicts(&disarmed)) {
        assert!(v.is_clean(), "{b:?}: {v}");
    }
}

/// The explorer's find of a reliable sender closed with sends outstanding
/// (seed 1: one deterministic 64 KiB bulk flow a → b, an RPC pair and a
/// 64 B TCP transfer b → a, 1 ms jitter and 14 faults around two crashes of
/// b). After b's restart, b's ST closes the session's ack lane while three
/// accepted sends are unacknowledged.
const CLOSED_UNACKED: &str = "\
dash replay v3
seed 1
force_admission false
flow bulk 0 1 5000000 3 80000000 - 256 65536 1024 100000000 2000 det none true false 65536 500000000
rpc 1 0 7 3 40000000 10000000 64 256
tcp 1 0 bulk 64
fault 0 timer_jitter 14559172787057043537 1000000
fault 30847000 host_crash 1
fault 111350000 network_down 0
fault 140718000 partition 0 1
fault 169796000 heal_partition 0 1
fault 171765000 partition 0 1
fault 212561000 network_up 0
fault 276630000 heal_partition 0 1
fault 289449000 host_restart 1
fault 460910000 partition 0 1
fault 488654000 heal_partition 0 1
fault 935863000 burst_loss_start 0 0.20369185627369218 0.23970016160179977 0.004498977033908884 0.5577965222264754
fault 956207000 host_crash 1
fault 1023467000 host_restart 1
fault 1098929000 burst_loss_end 0
";

/// A sender whose lane is closed under it with sends unacknowledged has
/// not delivered them: it ends as a typed failure (`StreamEnd { failed:
/// true }`), not as a close, so the run is clean.
#[test]
fn a_sender_closed_with_sends_outstanding_ends_failed() {
    let genome = replay::parse(CLOSED_UNACKED).expect("the find parses");
    assert_eq!(replay::to_text(&genome), CLOSED_UNACKED);
    let report = run_scenario(&genome);
    assert!(report.verdict.is_clean(), "{}", report.verdict);
    let totals = (report.verdict.delivered, report.verdict.typed_failures);
    assert_eq!(totals, (0, 1), "delivered, typed failures");
    let out = run(&genome.scenario(), Backend::Serial);
    let failed_end = (out.stream.iter()).any(|(_, e)| {
        matches!(
            e,
            ObsEvent::StreamEnd {
                host: 0,
                session: 1,
                failed: true
            }
        )
    });
    assert!(failed_end, "the sender's session ends failed");
}

/// The RKOM probe that a crash of either end used to strand: one `RpcFlow`
/// a → b on `dual_homed(1)`, 300 calls of 64 B each way, one every 20 ms
/// from t = 0, with `host` crashed at 100 ms and restarted at 300 ms.
fn crash_probe(host: u32) -> String {
    format!(
        "\
dash replay v3
seed 1
force_admission false
rpc 0 1 1 300 20000000 0 64 64
fault 100000000 host_crash {host}
fault 300000000 host_restart {host}
"
    )
}

/// A crash fails every network RMS whose path touches the crashed host, at
/// both ends, so the survivor's ST drops its stale control half and its
/// carriers and RKOM reopens its channels once the host is back: with b
/// crashed, only the calls b could not answer fail; with a crashed, only
/// the calls a issued while it was down.
#[test]
fn rkom_recovers_after_either_end_crashes_and_restarts() {
    for (host, answered) in [(1, 295), (0, 285)] {
        let genome = replay::parse(&crash_probe(host)).expect("the probe parses");
        let out = run(&genome.scenario(), Backend::Serial);
        assert!(out.verdict.is_clean(), "{}", out.verdict);
        let calls = &out.acct.rpcs[&0];
        let drops = out.registry.counter_value("net.drop.no_rms");
        println!(
            "crash {host}: {} of {} calls answered, {drops} net.drop.no_rms",
            calls.received, calls.sent
        );
        assert!(
            calls.received >= answered,
            "crash {host}: {} of 300 answered",
            calls.received
        );
    }
}
