//! Coverage-guided scenario exploration.
//!
//! A [`Scenario`] is the explorer's genome: topology seed, a list of
//! reliable a → b stream [`Flow`]s, an optional fault-plan seed, schedule
//! jitter, and a debug switch. It is a plan, like the macro workloads':
//! [`Scenario::compile`] turns it into a [`dash_apps::scenario::Scenario`]
//! on the dual-homed two-host topology ([`dual_homed`]), so the explorer
//! speaks the one workload language and runs through the one
//! [`scenario::run`]. [`run_scenario`] runs it serially and feeds the
//! captured event stream to the [`crate::oracle()`], returning the
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

use std::collections::BTreeSet;

use dash_apps::scenario::{self, Backend};
use dash_apps::traffic::{Class, Flow};
use dash_net::ids::HostId;
use dash_net::topology::dual_homed;
use dash_sim::obs::ObsSink;
use dash_sim::{ChaosConfig, FaultKind, FaultPlan, Rng, SimDuration, SimTime};
use dash_transport::stream::{StreamProfile, MAX_RETRIES};
use rms_core::DelayBound;

use crate::oracle::{oracle, OracleConfig};

/// The sending and receiving host of every explorer flow: the two hosts
/// [`dual_homed`] builds, in its order.
const A: HostId = HostId(0);
const B: HostId = HostId(1);

/// The one explorer flow: a reliable a → b stream opened `start_ms` into
/// the run that sends `count` messages of `len` bytes, one every
/// `interval_ms` from its open, over an RMS of `capacity` bytes with a
/// deterministic (`det`) or best-effort delay bound. These six fields are
/// what the mutator varies and what a replay file stores.
pub(crate) fn flow(
    start_ms: u64,
    count: u64,
    interval_ms: u64,
    len: u64,
    capacity: u64,
    det: bool,
) -> Flow {
    let mut profile = StreamProfile {
        capacity,
        reliable: true,
        ..StreamProfile::default()
    };
    if det {
        // 2µs/byte clears ethernet's per-byte floor; the 100ms fixed part
        // dominates the implied C/D bandwidth, so large capacities demand
        // real deterministic reservations.
        profile.delay =
            DelayBound::deterministic(SimDuration::from_millis(100), SimDuration::from_micros(2));
    }
    Flow {
        class: Class::Bulk,
        src: A,
        dst: B,
        start: SimDuration::from_millis(start_ms),
        count,
        interval: SimDuration::from_millis(interval_ms),
        len,
        // Accounting only: the oracle, not lateness, judges the run.
        budget: profile.delay.bound_for(len),
        profile,
    }
}

/// A complete, self-contained run input. Equal scenarios produce
/// byte-identical runs — this is what the replay file stores.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Topology seed (link jitter streams etc.).
    pub seed: u64,
    /// The workload: every flow is built by the explorer's one flow
    /// constructor (reliable, a → b).
    pub flows: Vec<Flow>,
    /// Fault-plan seed; `None` runs on a healthy network.
    pub fault_seed: Option<u64>,
    /// Schedule-jitter seed (a [`FaultKind::TimerJitter`] at t = 0).
    pub jitter_seed: u64,
    /// Maximum additive schedule jitter, microseconds. Zero disables.
    pub jitter_max_us: u64,
    /// Debug switch: bypass admission control
    /// ([`dash_net::NetConfig::debug_force_admission`]). Used to verify
    /// the oracle catches what admission control exists to prevent.
    pub force_admission: bool,
}

impl Scenario {
    /// A small benign baseline: two modest streams, three staggered 256 B
    /// sends each, on a healthy, jitter-free network.
    pub fn baseline(seed: u64) -> Scenario {
        Scenario {
            seed,
            flows: vec![
                flow(0, 3, 80, 256, 32 * 1024, false),
                flow(5, 3, 80, 256, 16 * 1024, false),
            ],
            fault_seed: None,
            jitter_seed: 0,
            jitter_max_us: 0,
            force_admission: false,
        }
    }

    /// The seeded chaos preset: three 32 KiB streams opened at once, 30
    /// 256 B sends on each, 40 ms apart (so sends interleave with the
    /// fault window), and a random fault plan drawn from `seed` —
    /// outages, partitions, burst loss, interface stalls and receiver
    /// crashes. No jitter.
    pub fn chaos(seed: u64) -> Scenario {
        Scenario {
            seed,
            flows: vec![flow(0, 30, 40, 256, 32 * 1024, false); 3],
            fault_seed: Some(seed),
            jitter_seed: 0,
            jitter_max_us: 0,
            force_admission: false,
        }
    }

    /// Plan the run: the workload language's scenario, a pure function of
    /// the genome. Jitter is the first fault of the plan; the horizon is
    /// the later of the last planned send and the last fault, plus the
    /// longest flow RTO's full backoff chain (doubling every timeout — an
    /// upper bound on the stream's capped backoff), so a run that still has
    /// work queued there is wedged.
    pub fn compile(&self) -> scenario::Scenario {
        let mut faults = FaultPlan::new();
        if self.jitter_max_us > 0 {
            faults = faults.at(
                SimTime::ZERO,
                FaultKind::TimerJitter {
                    seed: self.jitter_seed,
                    max: SimDuration::from_micros(self.jitter_max_us),
                },
            );
        }
        if let Some(fault_seed) = self.fault_seed {
            let cfg = ChaosConfig {
                networks: vec![0, 1],
                host_pairs: vec![(A.0, B.0)],
                stall_targets: vec![(A.0, 0), (B.0, 1)],
                crash_hosts: vec![B.0],
                min_faults: 2,
                max_faults: 6,
                ..ChaosConfig::default()
            };
            let plan = FaultPlan::random(&mut Rng::new(fault_seed), &cfg);
            faults.events.extend(plan.events);
        }
        let last_send = |f: &Flow| f.start.saturating_add(f.interval.saturating_mul(f.count));
        let last_fault = faults.events.last().map(|e| e.at.since(SimTime::ZERO));
        let busy = self.flows.iter().map(last_send).chain(last_fault).max();
        let rto = self.flows.iter().map(|f| f.profile.rto()).max();
        let rto = rto.unwrap_or_else(|| StreamProfile::default().rto());
        let backoff = rto.saturating_mul((2u64 << MAX_RETRIES) - 1);
        let (seed, force_admission) = (self.seed, self.force_admission);
        scenario::Scenario {
            topo: Box::new(move || {
                let (mut net, a, b) = dual_homed(seed);
                debug_assert_eq!((a, b), (A, B));
                net.config.debug_force_admission = force_admission;
                net
            }),
            groups: Vec::new(),
            plan: self.flows.clone().into(),
            faults,
            seed,
            horizon: SimTime::ZERO
                .saturating_add(busy.unwrap_or_default())
                .saturating_add(backoff),
            cpus: false,
            record_trace: false,
            keep_events: true,
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
    /// Events processed before the horizon.
    pub processed: u64,
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

/// Execute one scenario on the serial backend and judge its event stream
/// with the full oracle. Work still queued at the horizon is a `no-wedge`
/// violation.
pub fn run_scenario(scenario: &Scenario) -> RunReport {
    let scn = scenario.compile();
    let out = scenario::run(&scn, Backend::Serial);
    let (mut sink, handle) = oracle(OracleConfig::default());
    for (t, e) in &out.stream {
        sink.on_event(*t, e);
    }
    if out.pending > 0 {
        handle.report(
            "no-wedge",
            scn.horizon,
            format!(
                "{} events still queued at the horizon, {} processed",
                out.pending, out.events
            ),
        );
    }
    handle.finish(scn.horizon);

    let (delivered, typed_failures) = handle.session_totals();
    RunReport {
        violations: handle.violations(),
        bigrams: handle.bigrams(),
        processed: out.events,
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

/// Workload length cap — mutants stay small enough that a find shrinks
/// quickly.
const MAX_FLOWS: usize = 8;

/// Capacities the mutator draws from. The large deterministic request is
/// the interesting one: it is the kind admission control exists to
/// reject, so scenarios carrying it probe the admission/ledger seam.
const CAPACITIES: [u64; 4] = [8 * 1024, 32 * 1024, 64 * 1024, 200_000];
const COUNTS: [u64; 3] = [1, 3, 10];
const INTERVALS_MS: [u64; 3] = [10, 40, 100];
const SIZES: [u64; 3] = [64, 256, 1024];
const JITTERS_US: [u64; 4] = [0, 50, 200, 1000];

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    *rng.choose(from).expect("non-empty")
}

fn random_flow(rng: &mut Rng) -> Flow {
    flow(
        rng.below(1_500),
        pick(rng, &COUNTS),
        pick(rng, &INTERVALS_MS),
        pick(rng, &SIZES),
        pick(rng, &CAPACITIES),
        rng.chance(0.5),
    )
}

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
            s.jitter_max_us = pick(rng, &JITTERS_US);
        }
        // Insert a flow.
        2 if s.flows.len() < MAX_FLOWS => s.flows.push(random_flow(rng)),
        // Delete a flow.
        3 if !s.flows.is_empty() => {
            let i = rng.below(s.flows.len() as u64) as usize;
            s.flows.remove(i);
        }
        // Perturb a flow in place: its start, or everything else.
        4 if !s.flows.is_empty() => {
            let i = rng.below(s.flows.len() as u64) as usize;
            let f = &mut s.flows[i];
            if rng.chance(0.5) {
                f.start = SimDuration::from_millis(rng.below(1_500));
            } else {
                *f = Flow {
                    start: f.start,
                    ..random_flow(rng)
                };
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
    use crate::oracle::check_stream;

    #[test]
    fn baseline_scenario_runs_clean_and_replays_identically() {
        let sc = Scenario::baseline(3);
        let a = run_scenario(&sc);
        assert!(
            a.violations.is_empty(),
            "baseline must pass: {:?}",
            a.violations
        );
        assert!(a.processed > 100, "stack barely ran: {}", a.processed);
        assert_eq!(a.delivered, 6);
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

    /// Jitter is a fault like any other, so a jittered scenario runs on
    /// `dash-par` too: every replica world applies it, and the run is the
    /// same at one shard and two.
    #[test]
    fn jittered_scenario_is_shard_count_invariant_under_par() {
        let scn = Scenario {
            jitter_seed: 9,
            jitter_max_us: 200,
            ..Scenario::baseline(5)
        }
        .compile();
        let par = |shards| {
            scenario::run(
                &scn,
                Backend::Par {
                    shards,
                    lan_aligned: false,
                },
            )
        };
        let (one, two) = (par(1), par(2));
        assert_eq!(one.determinism_digest(), two.determinism_digest());
        assert!(one.received.iter().sum::<u64>() > 0);
        assert_eq!(check_stream(&two.stream, true), Vec::<String>::new());
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
