//! Coverage-guided scenario exploration.
//!
//! A [`Scenario`] is the complete input of one simulated run: topology
//! seed, a small workload program ([`Op`]s), an optional fault-plan seed,
//! schedule-jitter parameters, and debug switches. [`run_scenario`]
//! executes it against the real stack on the dual-homed two-host topology
//! ([`dual_homed`]) with the [`crate::oracle()`] attached, and returns the
//! violations, the run's (event-kind → event-kind) transition bigrams and
//! the oracle's session totals. [`Scenario::chaos`] is the seeded chaos
//! suite's preset, so chaos and exploration share one runner and one
//! verdict.
//!
//! [`explore`] searches scenario space: seed corpus first, then mutate a
//! corpus member per iteration. Bigrams are the novelty signal — a
//! mutant that exercises an unseen transition joins the corpus, one that
//! doesn't is discarded — so the budget concentrates where behaviour is
//! new rather than re-rolling the same happy path. The search stops at
//! the first oracle violation (the find is then handed to
//! [`crate::shrink()`]) or when the run budget is spent.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use dash_net::fault::schedule_fault_plan;
use dash_net::topology::dual_homed;
use dash_sim::{ChaosConfig, FaultPlan, Rng, Sim, SimDuration, SimTime};
use dash_transport::stack::StackBuilder;
use dash_transport::stream::{self, StreamProfile};
use rms_core::{DelayBound, Message};

use crate::oracle::{oracle, OracleConfig};

/// One step of a scenario's workload program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Virtual time of the step, milliseconds from run start.
    pub at_ms: u64,
    /// What the step does.
    pub kind: OpKind,
}

/// The workload vocabulary. Deliberately small: opens and sends compose
/// into every interesting interleaving with faults and jitter, while
/// each op keeps a well-defined expected outcome the oracle can check.
/// (No close op: closing with unacked messages in flight can drop them
/// without a typed failure, which is allowed — and would teach the
/// explorer to "win" by closing streams.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Open a reliable stream from host A to host B.
    Open {
        /// Requested RMS capacity, bytes.
        capacity: u64,
        /// Deterministic delay class (`A + B·size` contract) instead of
        /// the default best-effort bound.
        det: bool,
    },
    /// Send `bytes` zeroes on the `stream`-th opened stream (modulo the
    /// number open at execution time; skipped when none are).
    Send {
        /// Index into the opened-streams list.
        stream: usize,
        /// Payload size.
        bytes: u32,
    },
}

/// A complete, self-contained run input. Equal scenarios produce
/// byte-identical runs — this is what the replay file stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Topology seed (link jitter streams etc.).
    pub seed: u64,
    /// Workload program.
    pub ops: Vec<Op>,
    /// Fault-plan seed; `None` runs on a healthy network.
    pub fault_seed: Option<u64>,
    /// Schedule-jitter seed (see [`Sim::set_schedule_jitter`]).
    pub jitter_seed: u64,
    /// Maximum additive schedule jitter, microseconds. Zero disables.
    pub jitter_max_us: u64,
    /// Debug switch: bypass admission control
    /// ([`dash_net::NetConfig::debug_force_admission`]). Used to verify
    /// the oracle catches what admission control exists to prevent.
    pub force_admission: bool,
}

impl Scenario {
    /// A small benign baseline: two modest streams and a handful of
    /// staggered sends on a healthy, jitter-free network.
    pub fn baseline(seed: u64) -> Scenario {
        let mut ops = vec![
            Op {
                at_ms: 0,
                kind: OpKind::Open {
                    capacity: 32 * 1024,
                    det: false,
                },
            },
            Op {
                at_ms: 5,
                kind: OpKind::Open {
                    capacity: 16 * 1024,
                    det: false,
                },
            },
        ];
        for i in 0..6u64 {
            ops.push(Op {
                at_ms: 20 + i * 40,
                kind: OpKind::Send {
                    stream: (i % 2) as usize,
                    bytes: 256,
                },
            });
        }
        Scenario {
            seed,
            ops,
            fault_seed: None,
            jitter_seed: 0,
            jitter_max_us: 0,
            force_admission: false,
        }
    }

    /// The seeded chaos preset: three 32 KiB streams opened at once, 30
    /// staggered 256 B sends on each (stream `k`'s `i`-th at
    /// `20 + 7k + 40i` ms, so sends interleave with the fault window), and
    /// a random fault plan drawn from `seed` — outages, partitions, burst
    /// loss, interface stalls and receiver crashes. No jitter.
    pub fn chaos(seed: u64) -> Scenario {
        let open = Op {
            at_ms: 0,
            kind: OpKind::Open {
                capacity: 32 * 1024,
                det: false,
            },
        };
        let mut ops = vec![open; 3];
        for i in 0..30u64 {
            for k in 0..3u64 {
                ops.push(Op {
                    at_ms: 20 + 7 * k + 40 * i,
                    kind: OpKind::Send {
                        stream: k as usize,
                        bytes: 256,
                    },
                });
            }
        }
        Scenario {
            seed,
            ops,
            fault_seed: Some(seed),
            jitter_seed: 0,
            jitter_max_us: 0,
            force_admission: false,
        }
    }
}

/// What one [`run_scenario`] produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Oracle violations, in detection order. Empty means the run passed.
    pub violations: Vec<crate::oracle::Violation>,
    /// Transition bigrams observed (the coverage signal).
    pub bigrams: BTreeSet<(u16, u16)>,
    /// Events processed before quiescence.
    pub processed: u64,
    /// True if the run hit the event bound with work still queued.
    pub wedged: bool,
    /// Stream deliveries the oracle saw, summed over sessions.
    pub delivered: u64,
    /// Sessions that ended in a typed failure (failed end, retries
    /// exhausted, or failed open).
    pub typed_failures: u64,
}

impl RunReport {
    /// Did the oracle object?
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Event bound: generous for workloads this size; hitting it is itself a
/// `no-wedge` violation.
const EVENT_BOUND: u64 = 2_000_000;

/// Execute one scenario against the full stack with the oracle attached.
pub fn run_scenario(scenario: &Scenario) -> RunReport {
    let (mut net, a, b) = dual_homed(scenario.seed);
    net.config.debug_force_admission = scenario.force_admission;
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    sim.set_schedule_jitter(
        scenario.jitter_seed,
        SimDuration::from_micros(scenario.jitter_max_us),
    );

    // Jitter may legitimately push a healthy deterministic delivery past
    // its bound, so the det-delay check only runs on jitter-free runs.
    // Every explorer stream is reliable, so gaps are fifo violations.
    let (sink, handle) = oracle(OracleConfig {
        check_completion: true,
        check_det_delay: scenario.jitter_max_us == 0,
        check_fifo_gaps: true,
    });
    sim.state.net.obs.add_boxed_sink(Box::new(sink));

    // Sessions in open order; sends index into this list.
    let sessions: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for op in &scenario.ops {
        let at = SimTime::ZERO.saturating_add(SimDuration::from_millis(op.at_ms));
        let sessions = Rc::clone(&sessions);
        match op.kind {
            OpKind::Open { capacity, det } => {
                sim.schedule_at(at, move |sim| {
                    let mut profile = StreamProfile {
                        capacity,
                        reliable: true,
                        rto: SimDuration::from_millis(100),
                        max_retries: 8,
                        ..StreamProfile::default()
                    };
                    if det {
                        // 2µs/byte clears ethernet's per-byte floor; the
                        // 100ms fixed part dominates the implied C/D
                        // bandwidth, so large capacities demand real
                        // deterministic reservations.
                        profile.delay = DelayBound::deterministic(
                            SimDuration::from_millis(100),
                            SimDuration::from_micros(2),
                        );
                    }
                    if let Ok(session) = stream::open(sim, a, b, profile) {
                        sessions.borrow_mut().push(session);
                    }
                });
            }
            OpKind::Send { stream, bytes } => {
                sim.schedule_at(at, move |sim| {
                    let session = {
                        let s = sessions.borrow();
                        if s.is_empty() {
                            return;
                        }
                        s[stream % s.len()]
                    };
                    // A full send port is a typed backpressure signal,
                    // not a violation; drop and move on.
                    let _ = stream::send(sim, a, session, Message::zeroes(bytes as usize));
                });
            }
        }
    }

    if let Some(fault_seed) = scenario.fault_seed {
        let cfg = ChaosConfig {
            horizon: SimDuration::from_secs(2),
            networks: vec![0, 1],
            host_pairs: vec![(a.0, b.0)],
            stall_targets: vec![(a.0, 0), (b.0, 1)],
            crash_hosts: vec![b.0],
            min_faults: 2,
            max_faults: 6,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::random(&mut Rng::new(fault_seed), &cfg);
        schedule_fault_plan(&mut sim, &plan);
    }

    let processed = sim.run_bounded(EVENT_BOUND);
    let wedged = sim.events_pending() > 0;
    if wedged {
        handle.report(
            "no-wedge",
            sim.now(),
            format!("event queue still busy after {processed} events"),
        );
    }
    handle.finish(sim.now());

    let (delivered, typed_failures) = handle.session_totals();
    RunReport {
        violations: handle.violations(),
        bigrams: handle.bigrams(),
        processed,
        wedged,
        delivered,
        typed_failures,
    }
}

/// Exploration budget and determinism knobs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Total scenario executions (seeds included).
    pub budget_runs: usize,
    /// Seed of the mutation stream; same seeds + same config ⇒ the same
    /// search, run for run.
    pub mutation_seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget_runs: 60,
            mutation_seed: 1,
        }
    }
}

/// Workload program length cap — mutants stay small enough that a find
/// shrinks quickly.
const MAX_OPS: usize = 24;

/// Capacities the mutator draws from. The large deterministic request is
/// the interesting one: it is the kind admission control exists to
/// reject, so scenarios carrying it probe the admission/ledger seam.
const CAPACITIES: [u64; 4] = [8 * 1024, 32 * 1024, 64 * 1024, 200_000];
const SIZES: [u32; 3] = [64, 256, 1024];
const JITTERS_US: [u64; 4] = [0, 50, 200, 1000];

fn mutate(rng: &mut Rng, parent: &Scenario) -> Scenario {
    let mut s = parent.clone();
    match rng.below(6) {
        // Toggle or re-roll the fault plan.
        0 => {
            s.fault_seed = match s.fault_seed {
                None => Some(rng.next_u64()),
                Some(_) if rng.chance(0.3) => None,
                Some(_) => Some(rng.next_u64()),
            };
        }
        // Re-roll schedule jitter.
        1 => {
            s.jitter_seed = rng.next_u64();
            s.jitter_max_us = JITTERS_US[rng.below(JITTERS_US.len() as u64) as usize];
        }
        // Insert an op.
        2 if s.ops.len() < MAX_OPS => {
            let at_ms = rng.below(1_500);
            let kind = if rng.chance(0.4) {
                OpKind::Open {
                    capacity: CAPACITIES[rng.below(CAPACITIES.len() as u64) as usize],
                    det: rng.chance(0.5),
                }
            } else {
                OpKind::Send {
                    stream: rng.below(4) as usize,
                    bytes: SIZES[rng.below(SIZES.len() as u64) as usize],
                }
            };
            s.ops.push(Op { at_ms, kind });
        }
        // Delete an op.
        3 if !s.ops.is_empty() => {
            let i = rng.below(s.ops.len() as u64) as usize;
            s.ops.remove(i);
        }
        // Perturb an op in place.
        4 if !s.ops.is_empty() => {
            let i = rng.below(s.ops.len() as u64) as usize;
            let op = &mut s.ops[i];
            if rng.chance(0.5) {
                op.at_ms = rng.below(1_500);
            } else {
                match &mut op.kind {
                    OpKind::Open { capacity, det } => {
                        *capacity = CAPACITIES[rng.below(CAPACITIES.len() as u64) as usize];
                        *det = rng.chance(0.5);
                    }
                    OpKind::Send { stream, bytes } => {
                        *stream = rng.below(4) as usize;
                        *bytes = SIZES[rng.below(SIZES.len() as u64) as usize];
                    }
                }
            }
        }
        // Re-roll the topology seed (or fall through from a guarded arm).
        _ => s.seed = rng.next_u64(),
    }
    s
}

/// Run the coverage-guided search. Returns the first failing scenario
/// and its report, or `None` if the budget passes clean.
///
/// `force_admission` is inherited from whichever corpus member is
/// mutated, never flipped: it is a debug switch for seeding known bugs,
/// not a search dimension.
pub fn explore(seeds: &[Scenario], cfg: &ExploreConfig) -> Option<(Scenario, RunReport)> {
    assert!(
        !seeds.is_empty(),
        "explore needs at least one seed scenario"
    );
    let mut rng = Rng::new(cfg.mutation_seed);
    let mut corpus: Vec<Scenario> = Vec::new();
    let mut coverage: BTreeSet<(u16, u16)> = BTreeSet::new();
    let mut runs = 0usize;

    let execute = |scenario: Scenario,
                   corpus: &mut Vec<Scenario>,
                   coverage: &mut BTreeSet<(u16, u16)>|
     -> Option<(Scenario, RunReport)> {
        let report = run_scenario(&scenario);
        if report.failed() {
            return Some((scenario, report));
        }
        let novel = report.bigrams.iter().any(|b| !coverage.contains(b));
        if novel {
            coverage.extend(report.bigrams.iter().copied());
            corpus.push(scenario);
        }
        None
    };

    for seed in seeds {
        if runs >= cfg.budget_runs {
            return None;
        }
        runs += 1;
        if let Some(hit) = execute(seed.clone(), &mut corpus, &mut coverage) {
            return Some(hit);
        }
    }
    // Seeds that added no coverage still belong in the corpus — there is
    // nothing else to mutate from.
    if corpus.is_empty() {
        corpus.extend(seeds.iter().cloned());
    }

    while runs < cfg.budget_runs {
        runs += 1;
        let parent = corpus[rng.below(corpus.len() as u64) as usize].clone();
        let child = mutate(&mut rng, &parent);
        if let Some(hit) = execute(child, &mut corpus, &mut coverage) {
            return Some(hit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_scenario_runs_clean_and_replays_identically() {
        let sc = Scenario::baseline(3);
        let a = run_scenario(&sc);
        assert!(
            a.violations.is_empty(),
            "baseline must pass: {:?}",
            a.violations
        );
        assert!(!a.wedged);
        assert!(a.processed > 100, "stack barely ran: {}", a.processed);
        assert!(!a.bigrams.is_empty());
        let b = run_scenario(&sc);
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.bigrams, b.bigrams);
    }

    #[test]
    fn faulted_scenario_still_satisfies_the_oracle() {
        let sc = Scenario {
            fault_seed: Some(11),
            ..Scenario::baseline(11)
        };
        let report = run_scenario(&sc);
        assert!(
            report.violations.is_empty(),
            "chaos within spec must pass: {:?}",
            report.violations
        );
    }

    #[test]
    fn jittered_scenario_is_deterministic_per_jitter_seed() {
        let base = Scenario {
            jitter_seed: 9,
            jitter_max_us: 200,
            ..Scenario::baseline(5)
        };
        let a = run_scenario(&base);
        let b = run_scenario(&base);
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.bigrams, b.bigrams);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        let other = Scenario {
            jitter_seed: 10,
            ..base
        };
        let c = run_scenario(&other);
        // Different jitter seed perturbs the schedule (almost surely a
        // different event count; at minimum not a violation).
        assert!(c.violations.is_empty());
    }

    #[test]
    fn mutation_is_deterministic() {
        let parent = Scenario::baseline(1);
        let a = mutate(&mut Rng::new(42), &parent);
        let b = mutate(&mut Rng::new(42), &parent);
        assert_eq!(a, b);
    }

    #[test]
    fn explore_passes_clean_on_a_small_healthy_budget() {
        let seeds = [Scenario::baseline(1), Scenario::baseline(2)];
        let cfg = ExploreConfig {
            budget_runs: 6,
            mutation_seed: 7,
        };
        assert!(explore(&seeds, &cfg).is_none());
    }
}
