//! Result sets: aggregation of child reports, the printed report and the
//! JSON file `compare` reads.

use std::collections::BTreeMap;

use crate::child::ChildReport;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, SIM_TIME};

/// Median of `xs` (which need not be sorted). 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (exclusive method). With fewer
/// than two samples both are the median.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(xs);
        return (m, m);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One end-to-end metric of one workload: every sample and its summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples, one per timed repetition, in run order.
    pub samples: Vec<f64>,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise samples.
    pub fn of(samples: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&samples);
        Summary {
            median: median(&samples),
            q1,
            q3,
            samples,
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Digest of the timed runs.
    pub digest: String,
    /// Operations attempted in one run.
    pub attempted: u64,
    /// Operations failed in one run.
    pub failed: u64,
    /// Messages delivered in one run: the in-run sample count behind the
    /// sim-time percentiles.
    pub messages: u64,
    /// Output checks that failed; empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics by name (absent when no traced run was made).
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Fold the timed repetitions: summaries per end-to-end metric, the
    /// repeat-exactly checks, and the `[count]`/`[sim]` per-layer rows
    /// (medians; all but the wall-derived ones are identical anyway).
    pub fn from_timed(name: &str, reps: &[ChildReport]) -> WorkloadResult {
        let mut r = WorkloadResult {
            name: name.to_string(),
            ..WorkloadResult::default()
        };
        let Some(first) = reps.first() else {
            r.problems.push("no timed run completed".into());
            return r;
        };
        r.digest = first.digest.clone();
        r.attempted = first.attempted;
        r.failed = first.failed;
        r.messages = first.messages;
        for (i, rep) in reps.iter().enumerate() {
            for p in &rep.problems {
                r.problems.push(format!("rep {i}: {p}"));
            }
            if rep.digest != first.digest {
                r.problems.push(format!(
                    "rep {i}: digest {} differs from rep 0's {}",
                    rep.digest, first.digest
                ));
            }
            for name in SIM_TIME {
                if rep.values.get(name) != first.values.get(name) {
                    r.problems.push(format!(
                        "rep {i}: sim-time metric {name} differs from rep 0"
                    ));
                }
            }
        }
        let samples = |name: &str| -> Vec<f64> {
            reps.iter()
                .filter_map(|rep| rep.values.get(name).copied())
                .collect()
        };
        for m in END_TO_END {
            let s = samples(m.name);
            if s.len() != reps.len() {
                r.problems
                    .push(format!("metric {} missing from a run", m.name));
            }
            r.end_to_end.insert(m.name.to_string(), Summary::of(s));
        }
        for m in PER_LAYER {
            let s = samples(m.name);
            if !s.is_empty() {
                r.per_layer.insert(m.name.to_string(), median(&s));
            }
        }
        r
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("digest", Json::Str(self.digest.clone())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("messages", Json::Num(self.messages as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|(k, s)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("median", Json::Num(s.median)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            (
                                "samples",
                                Json::Arr(s.samples.iter().map(|x| Json::Num(*x)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
            (
                "per_layer",
                Json::obj(
                    self.per_layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v))),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<WorkloadResult> {
        let strings = |key: &str| -> Option<Vec<String>> {
            Some(
                j.get(key)?
                    .as_arr()?
                    .iter()
                    .filter_map(|p| p.as_str().map(str::to_string))
                    .collect(),
            )
        };
        Some(WorkloadResult {
            name: j.get("name")?.as_str()?.to_string(),
            digest: j.get("digest")?.as_str()?.to_string(),
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            messages: j.get("messages")?.as_f64()? as u64,
            problems: strings("problems")?,
            end_to_end: j
                .get("end_to_end")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| {
                    let samples: Vec<f64> = v
                        .get("samples")?
                        .as_arr()?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    Some((k.clone(), Summary::of(samples)))
                })
                .collect(),
            per_layer: j
                .get("per_layer")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        })
    }
}

/// One invocation's results with the machine that produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Machine fingerprint: nproc, CPU model, rustc, commit.
    pub fingerprint: Vec<(String, String)>,
    /// Workload seed.
    pub seed: u64,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "fingerprint",
                Json::obj(
                    self.fingerprint
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            ("seed", Json::Num(self.seed as f64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    /// Parse a result-set file.
    pub fn from_json(j: &Json) -> Option<ResultSet> {
        Some(ResultSet {
            fingerprint: j
                .get("fingerprint")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect(),
            seed: j.get("seed")?.as_f64()? as u64,
            workloads: j
                .get("workloads")?
                .as_arr()?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Option<_>>()?,
        })
    }

    /// The printed report: every metric by name with unit and direction.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (k, v) in &self.fingerprint {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(out, "# seed: {}", self.seed);
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} ==  digest {}  ops {} attempted / {} failed  generator lateness 0 (virtual-time sources)",
                w.name, w.digest, w.attempted, w.failed
            );
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>7} {:>14} {:>14} {:>14} {:>3}  bound",
                "end-to-end", "unit", "better", "median", "q1", "q3", "n"
            );
            for m in END_TO_END {
                let Some(s) = w.end_to_end.get(m.name) else {
                    continue;
                };
                let n = if SIM_TIME.contains(&m.name) {
                    format!("{} runs x {} msgs", s.samples.len(), w.messages)
                } else {
                    s.samples.len().to_string()
                };
                let _ = writeln!(
                    out,
                    "{:<16} {:>8} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>3}  {}%",
                    m.name,
                    m.unit,
                    m.better.word(),
                    s.median,
                    s.q1,
                    s.q3,
                    n,
                    m.bound * 100.0
                );
            }
            if w.per_layer.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<40} {:>6} {:>7} {:>6} {:>16}",
                "per-layer", "unit", "better", "source", "value"
            );
            for m in PER_LAYER {
                if let Some(v) = w.per_layer.get(m.name) {
                    let _ = writeln!(
                        out,
                        "{:<40} {:>6} {:>7} {:>6} {:>16.6}",
                        m.name,
                        m.unit,
                        m.better.word(),
                        m.source.tag(),
                        v
                    );
                }
            }
            for p in &w.problems {
                let _ = writeln!(out, "CHECK FAILED: {p}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn timed_repetitions_must_repeat_exactly() {
        let rep = |digest: &str, delay: f64| crate::child::ChildReport {
            digest: digest.into(),
            messages: 3,
            attempted: 10,
            values: END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        if m.name == "delay_p99_us" { delay } else { 1.0 },
                    )
                })
                .collect(),
            ..Default::default()
        };
        let same = WorkloadResult::from_timed("w", &[rep("5:3:aa", 7.0), rep("5:3:aa", 7.0)]);
        assert!(same.correct(), "{:?}", same.problems);
        assert_eq!(same.messages, 3);
        let drift = WorkloadResult::from_timed("w", &[rep("5:3:aa", 7.0), rep("5:3:ab", 7.5)]);
        assert_eq!(drift.problems.len(), 2, "{:?}", drift.problems);
        assert!(!WorkloadResult::from_timed("w", &[]).correct());
    }

    #[test]
    fn result_sets_round_trip() {
        let w = WorkloadResult {
            name: "w".into(),
            digest: "1:2:3".into(),
            attempted: 9,
            messages: 2,
            end_to_end: [("msgs_per_s".to_string(), Summary::of(vec![3.0, 1.0, 2.0]))]
                .into_iter()
                .collect(),
            per_layer: [("st.wall_frac".to_string(), 0.25)].into_iter().collect(),
            ..WorkloadResult::default()
        };
        let set = ResultSet {
            fingerprint: vec![("nproc".into(), "2".into())],
            seed: 4,
            workloads: vec![w],
        };
        let back = ResultSet::from_json(&Json::parse(&set.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, set);
        assert!(set.render().contains("msgs_per_s"));
    }
}
