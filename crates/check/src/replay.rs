//! Replay files: a tiny line-oriented text format storing a [`Scenario`]
//! so a shrunk repro can live in the tree and `cargo test` can re-run it
//! byte-identically forever.
//!
//! ```text
//! dash-check replay v2
//! seed 13
//! force_admission true
//! jitter 0 0
//! fault_seed none
//! flow 120 1 40 1024 200000 det
//! ```
//!
//! The format is deliberately dumb: one `key value…` entry per line, and
//! one `flow <start_ms> <count> <interval_ms> <len> <capacity> <det|stat>`
//! line per flow in plan order — the six fields the explorer's flow
//! constructor takes. [`parse`] ∘ [`to_text`] is the identity (tested),
//! and parsing is strict — an unknown line is an error, not a warning,
//! because a replay that silently drops part of its scenario would
//! "pass" without testing anything.

use rms_core::DelayBoundKind;

use crate::explore::{flow, Scenario};

/// Format version header; bump on any incompatible change.
const HEADER: &str = "dash-check replay v2";

/// Serialize a scenario to replay text.
pub fn to_text(s: &Scenario) -> String {
    let mut out = format!(
        "{HEADER}\nseed {}\nforce_admission {}\njitter {} {}\n",
        s.seed, s.force_admission, s.jitter_seed, s.jitter_max_us
    );
    match s.fault_seed {
        Some(fs) => out.push_str(&format!("fault_seed {fs}\n")),
        None => out.push_str("fault_seed none\n"),
    }
    for f in &s.flows {
        let class = match f.profile.delay.kind {
            DelayBoundKind::Deterministic => "det",
            _ => "stat",
        };
        out.push_str(&format!(
            "flow {} {} {} {} {} {class}\n",
            f.start.as_millis(),
            f.count,
            f.interval.as_millis(),
            f.len,
            f.profile.capacity
        ));
    }
    out
}

fn err(line_no: usize, msg: impl Into<String>) -> String {
    format!("replay line {}: {}", line_no + 1, msg.into())
}

/// Parse replay text back into a scenario.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse(text: &str) -> Result<Scenario, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        other => {
            return Err(format!(
                "missing header {HEADER:?}, got {:?}",
                other.map(|(_, l)| l).unwrap_or("")
            ))
        }
    }

    let mut scenario = Scenario {
        seed: 0,
        flows: Vec::new(),
        fault_seed: None,
        jitter_seed: 0,
        jitter_max_us: 0,
        force_admission: false,
    };
    for (no, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let num = |name: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|e| err(no, format!("{name}: {e}")))
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["seed", v] => scenario.seed = num("seed", v)?,
            ["force_admission", v] => {
                scenario.force_admission = v
                    .parse()
                    .map_err(|e| err(no, format!("force_admission: {e}")))?;
            }
            ["jitter", seed, max_us] => {
                scenario.jitter_seed = num("jitter seed", seed)?;
                scenario.jitter_max_us = num("jitter max", max_us)?;
            }
            ["fault_seed", "none"] => scenario.fault_seed = None,
            ["fault_seed", v] => scenario.fault_seed = Some(num("fault_seed", v)?),
            ["flow", start_ms, count, interval_ms, len, capacity, class] => {
                let det = match *class {
                    "det" => true,
                    "stat" => false,
                    other => return Err(err(no, format!("unknown delay class {other:?}"))),
                };
                scenario.flows.push(flow(
                    num("start_ms", start_ms)?,
                    num("count", count)?,
                    num("interval_ms", interval_ms)?,
                    num("len", len)?,
                    num("capacity", capacity)?,
                    det,
                ));
            }
            _ => return Err(err(no, format!("unrecognized line {line:?}"))),
        }
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 13,
            flows: vec![
                flow(120, 1, 40, 1024, 200_000, true),
                flow(300, 3, 10, 64, 8 * 1024, false),
            ],
            fault_seed: Some(7),
            jitter_seed: 5,
            jitter_max_us: 50,
            force_admission: true,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let s = sample();
        let text = to_text(&s);
        assert_eq!(parse(&text).unwrap(), s);
        // And a healthy-network variant.
        let s2 = Scenario {
            fault_seed: None,
            ..s
        };
        assert_eq!(parse(&to_text(&s2)).unwrap(), s2);
    }

    #[test]
    fn text_is_stable() {
        let expected = "dash-check replay v2\n\
                        seed 13\n\
                        force_admission true\n\
                        jitter 5 50\n\
                        fault_seed 7\n\
                        flow 120 1 40 1024 200000 det\n\
                        flow 300 3 10 64 8192 stat\n";
        assert_eq!(to_text(&sample()), expected);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored_but_junk_is_not() {
        let ok = "dash-check replay v2\n\n# a comment\nseed 4\n";
        assert_eq!(parse(ok).unwrap().seed, 4);
        assert!(parse("dash-check replay v2\nbogus line\n").is_err());
        assert!(parse("not a replay\n").is_err());
        assert!(parse("dash-check replay v1\nseed 4\n").is_err());
        assert!(parse("dash-check replay v2\nflow 1 1 10 64 10 fancy\n").is_err());
        assert!(parse("dash-check replay v2\nflow 1 1 10 64 10\n").is_err());
    }
}
