//! Command line: the full set, one contract-style run, `compare`, and the
//! internal `child` mode every run re-executes the binary in.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::{self, ChildReport, Mode};
use crate::compare;
use crate::json::Json;
use crate::report::{ResultSet, WorkloadResult};
use crate::spec::{Source, END_TO_END, PER_LAYER};
use crate::workloads::{self, Workload};

const USAGE: &str = "\
usage:
  dash-benchmark [--seed N] [--reps N] [--workload NAME] [--out FILE] [--trace-out DIR] [--smoke]
      run the set (or one workload): N timed repetitions each (default 5), then
      one traced run and the layer drivers; print every metric; exit 1 if an
      output check fails
  dash-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one measurement of S seconds; last stdout line is one JSON object
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  dash-benchmark compare A.json B.json
      apply the bounds to two result sets; exit 1 on any `worse`
  dash-benchmark drivers
      run the layer drivers alone and print their rows";

/// Fewest timed repetitions a measurement reports on.
const MIN_REPS: usize = 3;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    trace_out: Option<String>,
    mode: Option<Mode>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: bad number".to_string())?
            }
            "--reps" => a.reps = Some(num(value()?)? as usize),
            "--seconds" => a.seconds = Some(num(value()?)?),
            "--trace" => a.trace = Some(num(value()?)? != 0.0),
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            "--mode" => {
                let v = value()?;
                a.mode = Some(Mode::parse(&v).ok_or(format!("--mode: unknown {v}"))?);
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.reps.is_some_and(|r| r < MIN_REPS) {
        return Err(format!("--reps must be at least {MIN_REPS}"));
    }
    Ok(a)
}

/// Entry point; returns the process exit code.
pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => run_compare(&argv[1..]),
        Some("child") => parse(&argv[1..]).and_then(|a| run_child(&a)),
        Some("drivers") => {
            for (name, value) in crate::drivers::run_all(false) {
                println!("{name:<40} {value:>16.3}");
            }
            Ok(0)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => parse(&argv).and_then(|a| match a.seconds {
            Some(s) => run_contract(&a, s),
            None => run_set(&a),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dash-benchmark: {e}\n{USAGE}");
        2
    })
}

fn workload_named(a: &Args) -> Result<Workload, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    workloads::by_name(name, a.smoke).ok_or_else(|| {
        let names: Vec<&str> = workloads::all(false).iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

fn run_child(a: &Args) -> Result<i32, String> {
    let mode = a.mode.ok_or("child needs --mode")?;
    let w = if mode == Mode::Drivers {
        workloads::all(a.smoke).remove(0)
    } else {
        workload_named(a)?
    };
    let report = child::run(&w, a.seed, mode, a.smoke, a.trace_out.as_deref());
    println!("{}", report.to_json().to_line());
    Ok(0)
}

/// Re-execute this binary for one run and parse its report.
fn spawn(w: &Workload, a: &Args, mode: Mode) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--mode", mode.word()])
        .args(["--seed", &a.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let (Mode::Traced, Some(dir)) = (mode, &a.trace_out) {
        cmd.args(["--trace-out", dir]);
    }
    // `output` waits for the child to end before returning.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child exited with {}",
            w.name,
            mode.word(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildReport::from_json)
        .ok_or_else(|| format!("unreadable child report: {line}"))
}

/// How many timed repetitions to make.
enum Reps {
    /// One run with no warm-up: only the reference for a traced run's
    /// digest and overhead.
    Reference,
    /// Exactly this many.
    Count(usize),
    /// Until this many seconds have passed, and at least [`MIN_REPS`].
    Seconds(f64),
}

/// The timed repetitions, after one warm-up run that is thrown away: the
/// first child after another workload's finds the machine's memory cold
/// (`mixed-par`'s first set-up of its 0.8 GB of replica worlds takes a
/// third longer than the following ones).
fn timed_reps(w: &Workload, a: &Args, reps: Reps) -> Result<Vec<ChildReport>, String> {
    if !matches!(reps, Reps::Reference) {
        spawn(w, a, Mode::Timed)?;
    }
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = match reps {
            Reps::Reference => !out.is_empty(),
            Reps::Count(n) => out.len() >= n,
            Reps::Seconds(s) => out.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            return Ok(out);
        }
        out.push(spawn(w, a, Mode::Timed)?);
    }
}

/// The traced run, the drivers and (for a sharded workload) the one-shard
/// and serial-engine runs, folded into `r.per_layer` with their checks.
fn add_traced(w: &Workload, a: &Args, r: &mut WorkloadResult) -> Result<(), String> {
    // `from_timed` left the median run-phase wall of the timed runs here.
    let timed_run_s = r.per_layer.get("sim.engine.run_s").copied().unwrap_or(0.0);
    let traced = spawn(w, a, Mode::Traced)?;
    if traced.digest != r.digest {
        r.problems.push(format!(
            "traced run's digest {} differs from the timed runs' {}: tracing perturbed the world",
            traced.digest, r.digest
        ));
    }
    r.problems.extend(traced.problems.iter().cloned());
    for m in PER_LAYER {
        if m.source == Source::Trace {
            r.per_layer.insert(
                m.name.to_string(),
                traced.values.get(m.name).copied().unwrap_or(0.0),
            );
        }
    }
    let traced_run_s = traced.values.get("trace.run_s").copied().unwrap_or(0.0);
    r.per_layer
        .insert("trace.overhead_ratio".into(), traced_run_s / timed_run_s);

    if w.shards.is_some() {
        let one = spawn(w, a, Mode::OneShard)?;
        if one.digest != r.digest {
            r.problems.push(format!(
                "1-shard digest {} differs from the {}-shard digest {}",
                one.digest,
                w.shards.unwrap_or(0),
                r.digest
            ));
        }
        let serial = spawn(w, a, Mode::SerialEngine)?;
        let get = |c: &ChildReport, k: &str| c.values.get(k).copied().unwrap_or(f64::NAN);
        let per_event = |c: &ChildReport| get(c, "sim.engine.run_s") / get(c, "sim.engine.events");
        r.per_layer.insert(
            "par.speedup_2_over_1".into(),
            get(&one, "sim.engine.run_s") / timed_run_s,
        );
        r.per_layer.insert(
            "par.par1_over_serial".into(),
            per_event(&one) / per_event(&serial),
        );
    }

    let drivers = spawn(w, a, Mode::Drivers)?;
    for (k, v) in drivers.values {
        r.per_layer.insert(k, v);
    }
    for m in PER_LAYER {
        if !r.per_layer.contains_key(m.name) {
            r.problems
                .push(format!("per-layer metric {} was not produced", m.name));
        }
    }
    Ok(())
}

fn measure(w: &Workload, a: &Args, reps: Reps, traced: bool) -> Result<WorkloadResult, String> {
    let timed = timed_reps(w, a, reps)?;
    let mut r = WorkloadResult::from_timed(w.name, &timed);
    if traced {
        add_traced(w, a, &mut r)?;
    }
    Ok(r)
}

fn fingerprint() -> Vec<(String, String)> {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu),
        ("rustc".into(), run("rustc", &["--version"])),
        ("commit".into(), run("git", &["rev-parse", "HEAD"])),
    ]
}

fn run_set(a: &Args) -> Result<i32, String> {
    let chosen: Vec<Workload> = match &a.workload {
        Some(_) => vec![workload_named(a)?],
        None => workloads::all(a.smoke),
    };
    let mut set = ResultSet {
        fingerprint: fingerprint(),
        seed: a.seed,
        workloads: Vec::new(),
    };
    for w in &chosen {
        eprintln!("[dash-benchmark] {} ...", w.name);
        set.workloads
            .push(measure(w, a, Reps::Count(a.reps.unwrap_or(5)), true)?);
    }
    print!("{}", set.render());
    if let Some(path) = &a.out {
        std::fs::write(path, set.to_json().to_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(i32::from(set.workloads.iter().any(|w| !w.correct())))
}

/// One measurement in the benchmark contract's shape: the last stdout
/// line is `{"correct", "attempted", "failed", "metrics"}`.
fn run_contract(a: &Args, seconds: f64) -> Result<i32, String> {
    let w = workload_named(a)?;
    let traced = a.trace.unwrap_or(false);
    // A traced measurement is one timed run (the reference for digest and
    // overhead) plus the traced run and the drivers; a timed one repeats
    // the run for the whole budget and reports medians.
    let reps = if traced {
        Reps::Reference
    } else {
        Reps::Seconds(seconds)
    };
    let r = measure(&w, a, reps, traced)?;
    for p in &r.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let runs = r.end_to_end.values().next().map_or(1, |s| s.samples.len()) as u64;
    let metric = |value: f64, unit: &str| {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let metrics = if traced {
        Json::obj(PER_LAYER.iter().map(|m| {
            (
                m.name,
                metric(r.per_layer.get(m.name).copied().unwrap_or(0.0), m.unit),
            )
        }))
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, metric(r.end_to_end[m.name].median, m.unit))),
        )
    };
    let line = Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num((r.attempted * runs).max(1) as f64)),
        ("failed", Json::Num((r.failed * runs) as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
    Ok(0)
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare needs two result-set files".into());
    };
    let load = |path: &String| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&json).ok_or_else(|| format!("{path}: not a result set"))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(i32::from(any_worse))
}
