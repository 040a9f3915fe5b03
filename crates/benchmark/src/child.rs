//! What one child process does: one run (or the driver set), reported as
//! one JSON line on stdout for the parent to aggregate.

use std::collections::BTreeMap;

use crate::drivers;
use crate::json::Json;
use crate::run::{self, Collected, Traced, Walls};
use crate::spec::WALL_FRAC_ROWS;
use crate::trace::{TraceDump, ORACLE};
use crate::workloads::Workload;

/// What the child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The timed run: tracing off, the workload's own backend.
    Timed,
    /// The traced run on the workload's own backend.
    Traced,
    /// `mixed-par` only: timed run on one shard.
    OneShard,
    /// `mixed-par` only: timed run of the same population on the serial
    /// engine.
    SerialEngine,
    /// The layer drivers.
    Drivers,
}

impl Mode {
    /// Command-line word.
    pub fn word(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::OneShard => "one-shard",
            Mode::SerialEngine => "serial-engine",
            Mode::Drivers => "drivers",
        }
    }

    /// Parse a command-line word.
    pub fn parse(word: &str) -> Option<Mode> {
        [
            Mode::Timed,
            Mode::Traced,
            Mode::OneShard,
            Mode::SerialEngine,
            Mode::Drivers,
        ]
        .into_iter()
        .find(|m| m.word() == word)
    }
}

/// One child's result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Deterministic digest of the run (`events:messages:registry hash`).
    pub digest: String,
    /// Application messages delivered (stream deliveries + answered calls).
    pub messages: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that failed inside the child, one line each.
    pub problems: Vec<String>,
    /// Every number the run yields, by metric name.
    pub values: BTreeMap<String, f64>,
}

impl ChildReport {
    /// Serialize for the parent.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("digest", Json::Str(self.digest.clone())),
            ("messages", Json::Num(self.messages as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "values",
                Json::obj(self.values.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    /// Parse a child's line.
    pub fn from_json(j: &Json) -> Option<ChildReport> {
        Some(ChildReport {
            digest: j.get("digest")?.as_str()?.to_string(),
            messages: j.get("messages")?.as_f64()? as u64,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            problems: j
                .get("problems")?
                .as_arr()?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            values: j
                .get("values")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        })
    }
}

/// Run `mode` for `w` in this process.
pub fn run(
    w: &Workload,
    seed: u64,
    mode: Mode,
    smoke: bool,
    trace_out: Option<&str>,
) -> ChildReport {
    if mode == Mode::Drivers {
        return ChildReport {
            values: drivers::run_all(smoke)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            ..ChildReport::default()
        };
    }
    let shards = match mode {
        Mode::OneShard => Some(1),
        Mode::SerialEngine => None,
        _ => w.shards,
    };
    let traced = mode == Mode::Traced;
    let mut dump = (traced && trace_out.is_some()).then(TraceDump::default);
    let (mut collected, walls, trace) = match shards {
        None => run::run_serial(w, seed, traced, dump.as_mut()),
        Some(n) => run::run_sharded_workload(w, seed, n, traced),
    };
    let mut report = report_of(w, &mut collected, &walls);
    if let Some(t) = trace {
        trace_values(&mut report, w, &collected, &walls, &t);
    }
    if let (Some(dump), Some(dir)) = (dump, trace_out) {
        if let Err(e) = dump.write(dir, w.name) {
            report.problems.push(format!("trace dump to {dir}: {e}"));
        }
    }
    report
}

fn report_of(w: &Workload, c: &mut Collected, walls: &Walls) -> ChildReport {
    let messages = run::messages(c);
    let digest = run::digest(c);
    let values = run::timed_metrics(w, c, walls, run::peak_rss_mb());
    ChildReport {
        digest,
        messages,
        attempted: c.acct.ops_attempted(),
        failed: c.acct.ops_failed(),
        problems: run::conservation(c),
        values: values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

fn trace_values(report: &mut ChildReport, w: &Workload, c: &Collected, walls: &Walls, t: &Traced) {
    let v = &mut report.values;
    let total = t.layers.total_ns() as f64;
    let mut frac_sum = 0.0;
    for (i, row) in WALL_FRAC_ROWS.iter().enumerate() {
        let frac = t.layers.ns[i] as f64 / total;
        frac_sum += frac;
        v.insert(row.to_string(), frac);
    }
    if (frac_sum - 1.0).abs() > 0.01 {
        report
            .problems
            .push(format!("wall_frac rows sum to {frac_sum}, not 1 +- 0.01"));
    }
    v.insert(
        "trace.marks".into(),
        t.layers.marks[..ORACLE].iter().sum::<u64>() as f64,
    );
    v.insert("trace.run_s".into(), walls.run_s);
    v.insert("sim.engine.peak_pending".into(), t.peak_pending as f64);
    v.insert("check.oracle.violations".into(), t.violations.len() as f64);
    v.insert(
        "check.oracle.ns_per_obs_event".into(),
        t.layers.ns[ORACLE] as f64 / t.layers.marks[ORACLE].max(1) as f64,
    );
    for line in t.violations.iter().take(5) {
        report.problems.push(format!("oracle violation: {line}"));
    }
    if let Some(par) = &t.par {
        let shards = f64::from(w.shards.unwrap_or(1));
        v.insert(
            "par.lp_busy_frac".into(),
            par.busy_s / (walls.run_s * shards),
        );
        v.insert("par.windows".into(), par.windows as f64);
        v.insert("par.envelopes".into(), par.envelopes as f64);
        v.insert(
            "par.setup_frac".into(),
            walls.setup_s / (walls.setup_s + walls.run_s),
        );
        v.insert(
            "par.allocs_per_event".into(),
            walls.run_allocs as f64 / c.events.max(1) as f64,
        );
    }
}
