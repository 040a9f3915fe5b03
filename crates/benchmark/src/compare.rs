//! `compare A.json B.json`: apply each end-to-end metric's bound to two
//! result sets, median against median, with the baseline's interquartile
//! distance as the run-to-run spread.

use std::fmt::Write;

use crate::report::ResultSet;
use crate::spec::{EndToEnd, END_TO_END};

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the baseline's spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Worse by more than the bound (and more than the spread).
    Worse,
    /// The baseline's spread is wider than the bound: cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `base` and `new` are medians, `spread` the distance
/// between the baseline's quartiles.
pub fn judge(m: &EndToEnd, base: f64, spread: f64, new: f64) -> Verdict {
    let scale = base.abs().max(f64::MIN_POSITIVE);
    let change = (new - base).abs() / scale;
    let spread = spread.abs() / scale;
    if m.better.is_worse(base, new) {
        if change > m.bound && change > spread {
            Verdict::Worse
        } else if spread > m.bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else if spread > m.bound {
        Verdict::Unresolved
    } else if change > spread && change > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compare `new` against `base`. Returns the table and whether any row is
/// worse (a workload or metric missing from `new` counts as worse).
pub fn compare(base: &ResultSet, new: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<12} {:<15} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "spread", "bound"
    );
    for bw in &base.workloads {
        let nw = new.workloads.iter().find(|w| w.name == bw.name);
        for m in &END_TO_END {
            let Some(b) = bw.end_to_end.get(m.name) else {
                continue;
            };
            let Some(n) = nw.and_then(|w| w.end_to_end.get(m.name)) else {
                any_worse = true;
                let _ = writeln!(
                    out,
                    "{:<12} {:<15} missing from the new set: worse",
                    bw.name, m.name
                );
                continue;
            };
            let verdict = judge(m, b.median, b.q3 - b.q1, n.median);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<12} {:<15} {:>14.6} {:>14.6} {:>9.4} {:>7.2}% {:>6.1}%  {}",
                bw.name,
                m.name,
                b.median,
                n.median,
                n.median / b.median,
                (b.q3 - b.q1) / b.median * 100.0,
                m.bound * 100.0,
                verdict.word()
            );
        }
        if let Some(nw) = nw {
            if nw.digest != bw.digest {
                let _ = writeln!(
                    out,
                    "{:<12} digest differs: {} -> {} (the simulated world changed)",
                    bw.name, bw.digest, nw.digest
                );
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Summary, WorkloadResult};

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn spec(better: crate::spec::Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tput = &spec(crate::spec::Better::Higher, 0.10);
        assert_eq!(judge(tput, 100.0, 2.0, 101.0), Verdict::Unchanged);
        assert_eq!(judge(tput, 100.0, 2.0, 95.0), Verdict::Unchanged);
        assert_eq!(judge(tput, 100.0, 2.0, 85.0), Verdict::Worse);
        assert_eq!(judge(tput, 100.0, 2.0, 104.0), Verdict::Improved);
        // Spread wider than the bound: nothing can be said either way...
        assert_eq!(judge(tput, 100.0, 15.0, 95.0), Verdict::Unresolved);
        assert_eq!(judge(tput, 100.0, 15.0, 108.0), Verdict::Unresolved);
        // ...unless the drop clears both bound and spread.
        assert_eq!(judge(tput, 100.0, 15.0, 70.0), Verdict::Worse);
        let delay = &spec(crate::spec::Better::Lower, 0.01);
        assert_eq!(judge(delay, 500.0, 0.0, 500.0), Verdict::Unchanged);
        assert_eq!(judge(delay, 500.0, 0.0, 504.0), Verdict::Unchanged);
        assert_eq!(judge(delay, 500.0, 0.0, 506.0), Verdict::Worse);
        assert_eq!(judge(delay, 500.0, 0.0, 499.0), Verdict::Improved);
    }

    #[test]
    fn fraction_bounds_are_absolute_near_one() {
        // 0.002 relative on a value near 1 is +0.002 absolute on the
        // late / failed fraction it complements.
        let ok = metric("op_ok_frac");
        assert_eq!(judge(ok, 1.0, 0.0, 0.9985), Verdict::Unchanged);
        assert_eq!(judge(ok, 1.0, 0.0, 0.9975), Verdict::Worse);
        let on_time = metric("on_time_frac");
        assert_eq!(judge(on_time, 0.999, 0.0, 0.9999), Verdict::Improved);
    }

    #[test]
    fn compare_flags_worse_and_missing() {
        let wl = |name: &str, tput: &[f64]| WorkloadResult {
            name: name.into(),
            digest: "d".into(),
            end_to_end: [("msgs_per_s".to_string(), Summary::of(tput.to_vec()))]
                .into_iter()
                .collect(),
            ..WorkloadResult::default()
        };
        let base = ResultSet {
            workloads: vec![wl("a", &[100.0, 101.0, 99.0]), wl("b", &[50.0, 50.5, 49.5])],
            ..ResultSet::default()
        };
        let same = compare(&base, &base);
        assert!(!same.1, "{}", same.0);
        let slower = ResultSet {
            workloads: vec![wl("a", &[60.0, 61.0, 59.0]), wl("b", &[50.0, 50.5, 49.5])],
            ..ResultSet::default()
        };
        let (table, worse) = compare(&base, &slower);
        assert!(worse);
        assert!(
            table.contains("worse") && table.contains("unchanged"),
            "{table}"
        );
        let missing = ResultSet {
            workloads: vec![wl("a", &[100.0])],
            ..ResultSet::default()
        };
        assert!(compare(&base, &missing).1);
    }
}
