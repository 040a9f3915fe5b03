//! Automatic shrinking: reduce a failing [`Scenario`] to a minimal
//! deterministic repro.
//!
//! Delta debugging (ddmin) over the workload's flows, plus two
//! scenario-level simplifications tried first: dropping the fault plan
//! and zeroing schedule jitter — a repro that fails on a healthy,
//! jitter-free network is worth far more than one entangled with an
//! outage schedule. Last, flows that only fail together are coalesced
//! pairwise into one flow carrying their summed capacity, so an
//! oversubscription spread over several flows shrinks to a single flow
//! too. Because every run is a pure function of the scenario, "still
//! fails" is a single deterministic re-execution; no flakiness budget, no
//! retries. The whole pass iterates to a fixed point, so the result is
//! 1-minimal: removing any single remaining flow, or coalescing any two,
//! makes the failure disappear.

use dash_apps::traffic::Flow;
use rms_core::delay::DelayBoundKind;

use crate::explore::{flow, run_scenario, Scenario};

fn fails(s: &Scenario) -> bool {
    !run_scenario(s).verdict.is_clean()
}

/// One ddmin pass over `flows`: try removing chunks at granularity `n`,
/// doubling granularity when nothing can be removed.
fn ddmin_flows(scenario: &mut Scenario) -> bool {
    let mut reduced = false;
    let mut n = 2usize;
    while scenario.flows.len() >= 2 {
        let len = scenario.flows.len();
        let chunk = len.div_ceil(n);
        let mut removed_any = false;
        let mut start = 0;
        while start < scenario.flows.len() {
            let end = (start + chunk).min(scenario.flows.len());
            let mut candidate = scenario.clone();
            candidate.flows.drain(start..end);
            if fails(&candidate) {
                *scenario = candidate;
                reduced = true;
                removed_any = true;
                // Same start index now holds the next chunk.
            } else {
                start = end;
            }
        }
        if removed_any {
            n = 2.max(n / 2);
        } else if chunk <= 1 {
            break;
        } else {
            n = (n * 2).min(scenario.flows.len());
        }
    }
    // Final singleton sweep (covers the flows.len() == 1 entry case too).
    let mut i = 0;
    while i < scenario.flows.len() {
        let mut candidate = scenario.clone();
        candidate.flows.remove(i);
        if fails(&candidate) {
            *scenario = candidate;
            reduced = true;
        } else {
            i += 1;
        }
    }
    reduced
}

/// One flow carrying both `a`'s and `b`'s load: the earlier start, the
/// longer run, the larger message and the summed capacity. `None` unless
/// both share a delay-bound kind (the replay format names only that).
fn coalesced(a: &Flow, b: &Flow) -> Option<Flow> {
    let det = |f: &Flow| matches!(f.profile.delay.kind, DelayBoundKind::Deterministic);
    (det(a) == det(b)).then(|| {
        flow(
            a.start.min(b.start).as_millis(),
            a.count.max(b.count),
            a.interval.as_millis(),
            a.len.max(b.len),
            a.profile.capacity + b.profile.capacity,
            det(a),
        )
    })
}

/// Coalesce pairs of flows while the failure survives it.
fn coalesce_flows(scenario: &mut Scenario) -> bool {
    let mut reduced = false;
    let mut i = 0;
    while i < scenario.flows.len() {
        let mut j = i + 1;
        while j < scenario.flows.len() {
            let candidate = coalesced(&scenario.flows[i], &scenario.flows[j]).map(|f| {
                let mut c = scenario.clone();
                c.flows[i] = f;
                c.flows.remove(j);
                c
            });
            match candidate {
                Some(c) if fails(&c) => {
                    *scenario = c;
                    reduced = true;
                }
                _ => j += 1,
            }
        }
        i += 1;
    }
    reduced
}

/// Shrink a failing scenario. The input must fail (debug-asserted); the
/// returned scenario still fails and is 1-minimal in its flows, with the
/// fault plan and jitter removed whenever the failure survives without
/// them.
pub fn shrink(found: &Scenario) -> Scenario {
    debug_assert!(fails(found), "shrink() needs a failing scenario");
    let mut best = found.clone();
    loop {
        let mut progress = false;

        if best.fault_seed.is_some() {
            let mut candidate = best.clone();
            candidate.fault_seed = None;
            if fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }
        if best.jitter_max_us != 0 {
            let mut candidate = best.clone();
            candidate.jitter_max_us = 0;
            candidate.jitter_seed = 0;
            if fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }
        if ddmin_flows(&mut best) || coalesce_flows(&mut best) {
            progress = true;
        }

        if !progress {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::flow;

    /// A scenario whose failure hinges on exactly one flow: the forced
    /// oversubscribing deterministic open. Everything else is chaff the
    /// shrinker must strip.
    fn padded_failure() -> Scenario {
        let mut sc = Scenario::baseline(13);
        sc.force_admission = true;
        sc.fault_seed = Some(3);
        sc.jitter_seed = 5;
        sc.jitter_max_us = 50;
        sc.flows.push(flow(120, 1, 40, 1024, 200_000, true));
        sc.flows.push(flow(300, 3, 10, 64, 8 * 1024, false));
        sc
    }

    #[test]
    fn shrinks_padded_failure_to_the_single_guilty_flow() {
        let found = padded_failure();
        assert!(fails(&found), "padded scenario must fail to begin with");
        let min = shrink(&found);
        assert!(fails(&min), "shrunk scenario must still fail");
        assert_eq!(min.fault_seed, None, "fault plan is not needed");
        assert_eq!(min.jitter_max_us, 0, "jitter is not needed");
        assert_eq!(
            min.flows,
            vec![flow(120, 1, 40, 1024, 200_000, true)],
            "exactly the oversubscribing open must survive"
        );
        // 1-minimality: removing the last flow makes the failure vanish.
        let mut empty = min.clone();
        empty.flows.clear();
        assert!(!fails(&empty));
    }

    #[test]
    fn coalesces_flows_that_only_oversubscribe_together() {
        // Each open alone fits the deterministic budget; the two together
        // oversubscribe it.
        let half = flow(120, 1, 40, 1024, 80 * 1024, true);
        let mut found = Scenario::baseline(13);
        found.force_admission = true;
        found.flows.extend([half.clone(), half.clone()]);
        assert!(fails(&found), "the pair must fail to begin with");
        let mut alone = found.clone();
        alone.flows.pop();
        assert!(!fails(&alone), "one of them alone must not");
        let min = shrink(&found);
        assert_eq!(min.flows, vec![flow(120, 1, 40, 1024, 160 * 1024, true)]);
    }
}
