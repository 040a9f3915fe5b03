//! Automatic shrinking: reduce a failing [`Genome`] to a minimal
//! deterministic repro.
//!
//! ddmin over the genome's six lists end to end — the plan's five, then
//! the fault events, jitter included — and the coalescing of two flows
//! into one carrying both capacities, repeated to a fixed point: the
//! result is 1-minimal. "Still fails" means the first violation names the
//! find's invariant, since dropping a fault's recovery can trade one
//! failure for another; every run is a pure function of the genome, so
//! that is one re-execution.

use dash_apps::traffic::Flow;
use dash_transport::stream::StreamProfile;

use crate::explore::{run_scenario, Genome};

/// The invariant a genome's run violates first, if any.
fn first_violation(g: &Genome) -> Option<&'static str> {
    let verdict = run_scenario(g).verdict;
    verdict.violations.first().map(|v| v.invariant)
}

/// ddmin over the genome's entries and faults: remove chunks of half of
/// them while the failure survives, then of a quarter, down to single
/// ones.
fn ddmin(g: &mut Genome, fails: &dyn Fn(&Genome) -> bool) -> bool {
    let mut reduced = false;
    let mut chunk = g.len().div_ceil(2);
    loop {
        let mut start = 0;
        while start < g.len() {
            let mut candidate = g.clone();
            candidate.remove(start, start + chunk);
            if fails(&candidate) {
                (*g, reduced) = (candidate, true);
            } else {
                start += chunk;
            }
        }
        if chunk <= 1 {
            return reduced;
        }
        chunk = chunk.div_ceil(2);
    }
}

/// One flow carrying both `a`'s and `b`'s load: the earlier start, the
/// longer run, the larger message and the summed capacity, on `a`'s
/// profile otherwise. `None` unless both run between the same hosts
/// under the same kind of delay bound.
fn coalesced(a: &Flow, b: &Flow) -> Option<Flow> {
    let same = (a.src, a.dst, &a.profile.delay.kind) == (b.src, b.dst, &b.profile.delay.kind);
    let capacity = a.profile.capacity + b.profile.capacity;
    same.then(|| Flow {
        start: a.start.min(b.start),
        count: a.count.max(b.count),
        len: a.len.max(b.len),
        profile: StreamProfile {
            capacity,
            ..a.profile.clone()
        },
        ..a.clone()
    })
}

/// Coalesce the first pair of flows whose coalition still fails.
fn coalesce_flows(g: &mut Genome, fails: &dyn Fn(&Genome) -> bool) -> bool {
    let n = g.plan.flows.len();
    for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
        let mut c = g.clone();
        if let Some(f) = coalesced(&c.plan.flows[i], &c.plan.flows[j]) {
            c.plan.flows[i] = f;
            c.plan.flows.remove(j);
            if fails(&c) {
                *g = c;
                return true;
            }
        }
    }
    false
}

/// Shrink a failing genome: the result fails first on the invariant
/// `found` fails first on, and is 1-minimal.
///
/// # Panics
///
/// Panics if `found` runs clean.
pub fn shrink(found: &Genome) -> Genome {
    let invariant = first_violation(found).expect("shrink() needs a failing genome");
    let fails = |g: &Genome| first_violation(g) == Some(invariant);
    let mut g = found.clone();
    // Both passes run each round: `|` does not short-circuit.
    while ddmin(&mut g, &fails) | coalesce_flows(&mut g, &fails) {}
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::paced;
    use dash_sim::{FaultKind, SimDuration, SimTime};
    use rms_core::DelayBound;

    /// One deterministic 256 B send 120 ms into the run over `capacity`
    /// bytes.
    fn det(capacity: u64) -> Flow {
        let mut f = paced(120, 1, 40, capacity);
        let (fixed, per_byte) = (SimDuration::from_millis(100), SimDuration::from_micros(2));
        f.profile.delay = DelayBound::deterministic(fixed, per_byte);
        f
    }

    /// A genome whose failure hinges on exactly one flow: the forced
    /// oversubscribing deterministic open. Everything else is chaff the
    /// shrinker must strip, faults and jitter included.
    fn padded_failure() -> Genome {
        let mut g = Genome::baseline(13);
        g.force_admission = true;
        g.faults = Genome::chaos(3).faults;
        let max = SimDuration::from_micros(50);
        let jitter = FaultKind::TimerJitter { seed: 5, max };
        g.faults = g.faults.at(SimTime::ZERO, jitter);
        g.plan.flows.push(det(200_000));
        g.plan.flows.push(paced(300, 3, 10, 8 * 1024));
        g
    }

    fn fails(g: &Genome) -> bool {
        first_violation(g).is_some()
    }

    #[test]
    fn shrinks_padded_failure_to_the_single_guilty_flow() {
        let found = padded_failure();
        assert!(fails(&found), "padded genome must fail to begin with");
        let min = shrink(&found);
        assert_eq!(first_violation(&min), Some("admission-ledger"));
        assert!(min.faults.events.is_empty(), "faults are not needed");
        assert_eq!(
            min.plan.flows,
            vec![det(200_000)],
            "exactly the oversubscribing open must survive"
        );
        // 1-minimality: removing the last flow makes the failure vanish.
        let mut empty = min.clone();
        empty.plan.flows.clear();
        assert!(!fails(&empty));
    }

    #[test]
    fn coalesces_flows_that_only_oversubscribe_together() {
        // Each open alone fits the deterministic budget; the two together
        // oversubscribe it.
        let mut found = Genome::baseline(13);
        found.force_admission = true;
        found.plan.flows.extend([det(80 * 1024), det(80 * 1024)]);
        assert!(fails(&found), "the pair must fail to begin with");
        let mut alone = found.clone();
        alone.plan.flows.pop();
        assert!(!fails(&alone), "one of them alone must not");
        assert_eq!(shrink(&found).plan.flows, vec![det(160 * 1024)]);
    }
}
