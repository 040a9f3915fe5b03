//! End-to-end tests of the `dash-benchmark` binary at `--smoke` size.

use std::process::Command;

use dash_benchmark::json::Json;
use dash_benchmark::report::ResultSet;
use dash_benchmark::spec::{END_TO_END, PER_LAYER, WALL_FRAC_ROWS};
use dash_benchmark::workloads;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dash-benchmark"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn the_set_emits_every_metric_and_agrees_with_itself() {
    let path = format!("{}/smoke-set.json", env!("CARGO_TARGET_TMPDIR"));
    let (ok, report) = bench(&["--smoke", "--reps", "3", "--seed", "7", "--out", &path]);
    assert!(ok, "a check failed:\n{report}");
    let text = std::fs::read_to_string(&path).expect("result set written");
    let set = ResultSet::from_json(&Json::parse(&text).expect("valid JSON")).expect("a result set");

    let names: Vec<&str> = workloads::all(true).iter().map(|w| w.name).collect();
    assert_eq!(
        set.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>(),
        names
    );
    assert!(set.fingerprint.iter().any(|(k, _)| k == "nproc"));
    for w in &set.workloads {
        assert!(w.correct(), "{}: {:?}", w.name, w.problems);
        assert!(w.attempted > 0 && w.failed == 0, "{}: ops", w.name);
        for m in END_TO_END {
            assert!(valid_name(m.name));
            let s = &w.end_to_end[m.name];
            assert_eq!(s.samples.len(), 3, "{} {}", w.name, m.name);
            assert!(report.contains(m.name) && report.contains(m.unit));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name));
            assert!(
                w.per_layer.contains_key(m.name),
                "{} lacks {}",
                w.name,
                m.name
            );
        }
        let frac_sum: f64 = WALL_FRAC_ROWS.iter().map(|r| w.per_layer[*r]).sum();
        assert!(
            (frac_sum - 1.0).abs() < 0.01,
            "{}: rows sum to {frac_sum}",
            w.name
        );
        assert_eq!(w.per_layer["check.oracle.violations"], 0.0);
    }
    let par = set
        .workloads
        .iter()
        .find(|w| w.name == "mixed-par")
        .unwrap();
    assert!(par.per_layer["par.windows"] > 0.0 && par.per_layer["par.envelopes"] > 0.0);

    // The same set compared with itself: no `worse`, exit 0.
    let (ok, table) = bench(&["compare", &path, &path]);
    assert!(ok && !table.contains("worse"), "{table}");
}

#[test]
fn one_seed_one_world_another_seed_another() {
    let digest = |seed: &str| {
        let (ok, out) = bench(&[
            "child",
            "--smoke",
            "--workload",
            "mixed-scale",
            "--mode",
            "timed",
            "--seed",
            seed,
        ]);
        assert!(ok);
        let line = Json::parse(out.lines().last().unwrap()).unwrap();
        line.get("digest").unwrap().as_str().unwrap().to_string()
    };
    assert_eq!(digest("5"), digest("5"));
    assert_ne!(digest("5"), digest("6"));
}

#[test]
fn a_contract_run_prints_one_result_object() {
    for (trace, expect) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let (ok, out) = bench(&[
            "--smoke",
            "--workload",
            "voice-lan",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(ok);
        let line = Json::parse(out.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, expect, "--trace {trace}");
        for (_, m) in metrics {
            assert!(m.get("value").unwrap().as_f64().is_some());
            assert!(m.get("unit").unwrap().as_str().is_some());
        }
    }
}

#[test]
fn bad_usage_fails() {
    assert!(!bench(&["--workload", "no-such-workload", "--seconds", "1"]).0);
    assert!(!bench(&["--reps", "2"]).0);
    assert!(!bench(&["compare", "/nonexistent/a.json"]).0);
}
