//! Coverage-guided exploration of the runner's own plan.
//!
//! A [`Genome`] is a traffic [`Plan`] of every word and a [`FaultPlan`]
//! (schedule jitter included) on the two-host [`dual_homed`] topology;
//! [`run_scenario`] runs its [`Genome::scenario`] serially and adds
//! `no-wedge` if work is still queued at [`Genome::quiet_by`]. [`explore`]
//! runs the seed corpus, then mutates a corpus member per run; a mutant
//! whose event stream shows an unseen (event-kind → event-kind) bigram
//! joins the corpus. The search stops at the first violation (handed to
//! [`crate::shrink()`]) or when the budget is spent.

use std::collections::BTreeSet;

use dash_apps::scenario::{self, Backend, Verdict};
use dash_apps::traffic::{Flow, Plan, Probe, RpcFlow, TcpFlow, TcpWork, WindowFlow};
use dash_check::oracle::{trace_line, Violation, TRACE_WINDOW};
use dash_net::ids::HostId;
use dash_net::topology::dual_homed;
use dash_sim::{ChaosConfig, FaultKind, FaultPlan, Rng, SimDuration, SimTime};
use dash_transport::stream::{StreamProfile, MAX_RETRIES};
use rms_core::DelayBound;

/// The hosts [`dual_homed`] builds, in its order.
pub const A: HostId = HostId(0);
/// See [`A`].
pub const B: HostId = HostId(1);

/// A complete, self-contained run input. Equal genomes produce
/// byte-identical runs — this is what the replay file stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Genome {
    /// Seed of the [`dual_homed`] topology and of the run.
    pub seed: u64,
    /// Debug switch: bypass admission control
    /// ([`dash_net::NetConfig::debug_force_admission`]), so the oracle
    /// can be shown to catch what admission control exists to prevent.
    pub force_admission: bool,
    /// The workload, every word between [`A`] and [`B`].
    pub plan: Plan,
    /// Every fault, schedule jitter (a `TimerJitter` event) included.
    pub faults: FaultPlan,
}

/// Reliable 256 B messages from [`A`] to [`B`]: `count` of them from
/// `start` ms, one every `interval` ms, over `capacity` bytes.
pub(crate) fn paced(start: u64, count: u64, interval: u64, capacity: u64) -> Flow {
    let mut f = Flow::bulk(A, B, count * 256, 256, StreamProfile::default());
    (f.start, f.interval) = (ms(start), ms(interval));
    (f.profile.capacity, f.profile.reliable) = (capacity, true);
    f
}

/// The faults the chaos preset and the mutator draw: outages, partitions,
/// burst loss, interface stalls and receiver crashes, each healed.
fn chaos_config() -> ChaosConfig {
    ChaosConfig {
        networks: vec![0, 1],
        host_pairs: vec![(A.0, B.0)],
        stall_targets: vec![(A.0, 0), (B.0, 1)],
        crash_hosts: vec![B.0],
        min_faults: 2,
        max_faults: 6,
        ..ChaosConfig::default()
    }
}

const fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

impl Genome {
    /// A small benign baseline on a healthy, jitter-free network: two
    /// modest reliable streams of three staggered 256 B sends each.
    pub fn baseline(seed: u64) -> Genome {
        let flows = vec![paced(0, 3, 80, 32 * 1024), paced(5, 3, 80, 16 * 1024)];
        let mut g = Genome::default();
        (g.seed, g.plan) = (seed, flows.into());
        g
    }

    /// The seeded chaos preset: three 32 KiB streams opened at once, 30
    /// 256 B sends on each, 40 ms apart (so sends interleave with the
    /// fault window), and the random fault plan drawn from `seed`.
    pub fn chaos(seed: u64) -> Genome {
        let mut g = Genome::baseline(seed);
        g.plan = vec![paced(0, 30, 40, 32 * 1024); 3].into();
        g.faults = FaultPlan::random(&mut Rng::new(seed), &chaos_config());
        g
    }

    /// When the run must be quiet: the end of the last planned activity or
    /// fault (a pumped flow or TCP connection moving 100 kB/s), plus the
    /// stream's backoff chain, doubling every time, at the flows' longest
    /// RTO (the default profile's if there are none). At every profile
    /// the mutator draws, that chain outlasts RKOM's attempts and TCP's
    /// give-up, so it covers every word.
    pub fn quiet_by(&self) -> SimDuration {
        let p = &self.plan;
        // Saturating: a replay file can hold any numbers.
        let pump = |bytes: u64| SimDuration::from_micros(10).saturating_mul(bytes);
        let paced_end =
            |start: SimDuration, gap: SimDuration, n| start.saturating_add(gap.saturating_mul(n));
        let flows = p.flows.iter().map(|f| {
            let gap = if f.interval.is_zero() {
                pump(f.len)
            } else {
                f.interval
            };
            paced_end(f.start, gap, f.count)
        });
        let rpcs = p
            .rpcs
            .iter()
            .map(|r| paced_end(r.start, r.interval, r.calls));
        let tcp = p.tcp.iter().map(|t| match t.work {
            TcpWork::Bulk(len) => pump(len),
            TcpWork::Rpc {
                calls,
                request,
                reply,
            } => pump(calls.saturating_mul(request.saturating_add(reply))),
        });
        let faults = self.faults.events.iter().map(|e| {
            let stall = match e.kind {
                FaultKind::IfaceStall { duration, .. } => duration,
                _ => SimDuration::ZERO,
            };
            e.at.since(SimTime::ZERO).saturating_add(stall)
        });
        let windows = p.windows.iter().map(|w| w.duration);
        let ends = (flows.chain(rpcs).chain(tcp).chain(faults).chain(windows))
            .chain(p.probes.iter().map(|p| p.end));
        let rto = p.flows.iter().map(|f| f.profile.rto()).max();
        let rto = rto.unwrap_or_else(|| StreamProfile::default().rto());
        let chain = rto.saturating_mul((2u64 << MAX_RETRIES) - 1);
        ends.max().unwrap_or_default().saturating_add(chain)
    }

    /// The runner's scenario on `dual_homed(seed)`, cut at
    /// [`Genome::quiet_by`], its events kept for the coverage signal.
    pub fn scenario(&self) -> scenario::Scenario {
        let (seed, force_admission) = (self.seed, self.force_admission);
        let topo = move || {
            let mut net = dual_homed(seed).0;
            net.config.debug_force_admission = force_admission;
            net
        };
        let plan = self.plan.clone();
        let mut scn = scenario::Scenario::new(topo, plan, self.quiet_by());
        (scn.faults, scn.seed, scn.keep_events) = (self.faults.clone(), seed, true);
        scn
    }

    /// Its entries: the plan's five lists, then the fault events.
    pub(crate) fn len(&self) -> usize {
        let p = &self.plan;
        let plan = p.flows.len() + p.rpcs.len() + p.tcp.len() + p.windows.len();
        plan + p.probes.len() + self.faults.events.len()
    }

    /// Remove entries `from..to`, counted as [`Genome::len`] counts them.
    pub(crate) fn remove(&mut self, mut from: usize, mut to: usize) {
        fn cut<T>(v: &mut Vec<T>, from: &mut usize, to: &mut usize) {
            let n = v.len();
            v.drain((*from).min(n)..(*to).min(n));
            (*from, *to) = (from.saturating_sub(n), to.saturating_sub(n));
        }
        let p = &mut self.plan;
        cut(&mut p.flows, &mut from, &mut to);
        cut(&mut p.rpcs, &mut from, &mut to);
        cut(&mut p.tcp, &mut from, &mut to);
        cut(&mut p.windows, &mut from, &mut to);
        cut(&mut p.probes, &mut from, &mut to);
        cut(&mut self.faults.events, &mut from, &mut to);
    }
}

/// What one [`run_scenario`] produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run's verdict, `no-wedge` included. Clean means it passed.
    pub verdict: Verdict,
    /// Transition bigrams observed (the coverage signal).
    pub bigrams: BTreeSet<(u16, u16)>,
    /// Events processed before the horizon.
    pub processed: u64,
}

/// Execute one genome on the serial backend: its verdict, plus a
/// `no-wedge` violation when work is still queued at the horizon.
pub fn run_scenario(genome: &Genome) -> RunReport {
    let scn = genome.scenario();
    let mut out = scenario::run(&scn, Backend::Serial);
    if out.pending > 0 {
        let tail = &out.stream[out.stream.len().saturating_sub(TRACE_WINDOW)..];
        let (pending, events) = (out.pending, out.events);
        out.verdict.violations.push(Violation {
            invariant: "no-wedge",
            at: scn.horizon,
            detail: format!("{pending} events still queued at the horizon, {events} processed"),
            trace: tail.iter().map(|(t, e)| trace_line(*t, e)).collect(),
        });
    }
    let kinds = out.stream.iter().map(|(_, e)| e.fast_index() as u16);
    let bigrams = kinds.clone().zip(kinds.skip(1)).collect();
    let (verdict, processed) = (out.verdict, out.events);
    RunReport {
        verdict,
        bigrams,
        processed,
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

/// Plan size cap: a find shrinks quickly and a run stays sub-second.
const MAX_ENTRIES: usize = 8;

/// The plan words: [`Flow`]'s four constructors, RPC, TCP, window, probe.
const WORDS: u64 = 8;

/// A large deterministic request probes the admission/ledger seam.
const CAPACITIES: [u64; 4] = [8 * 1024, 32 * 1024, 64 * 1024, 200_000];
const COUNTS: [u64; 3] = [1, 3, 10];
const INTERVALS_MS: [u64; 3] = [10, 40, 100];
const SIZES: [u64; 3] = [64, 256, 1024];
const JITTERS_US: [u64; 4] = [0, 50, 200, 1000];

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    *rng.choose(from).expect("non-empty")
}

/// Append an entry of word `w` (see [`WORDS`]) from `src` to `dst`,
/// drawn small from the word's own constructor.
pub(crate) fn push_word(rng: &mut Rng, plan: &mut Plan, w: u64, (src, dst): (HostId, HostId)) {
    let (start, count) = (ms(rng.below(1_500)), pick(rng, &COUNTS));
    let interval = ms(pick(rng, &INTERVALS_MS));
    let (len, reply, lasts) = (pick(rng, &SIZES), pick(rng, &SIZES), interval * count);
    match w {
        0 => plan.flows.push(Flow::voice(src, dst, 0, lasts)),
        1 => plan.flows.push(Flow::wan_voice(src, dst, 0, lasts)),
        2 => plan.flows.push(Flow::churn(src, dst, start)),
        3 => {
            let mut f = Flow::bulk(src, dst, count * len, len, StreamProfile::default());
            f.profile.reliable = true;
            reask(rng, &mut f);
            plan.flows.push(f);
        }
        4 => plan.rpcs.push(RpcFlow {
            client: src,
            server: dst,
            service: rng.below(1 << 16) as u16,
            calls: count,
            interval,
            start,
            request: len as usize,
            reply: reply as usize,
        }),
        5 => plan.tcp.push(TcpFlow {
            client: src,
            server: dst,
            work: match rng.chance(0.5) {
                true => TcpWork::Bulk(count * len),
                false => TcpWork::Rpc {
                    calls: count,
                    request: len,
                    reply,
                },
            },
        }),
        6 => plan.windows.push(WindowFlow {
            duration: lasts,
            ..WindowFlow::new(src, dst, rng.next_u64())
        }),
        _ => plan.probes.push(Probe {
            a: src,
            b: dst,
            interval,
            end: start,
        }),
    }
}

/// Give `f` another RMS request, a capacity and, half the time, a
/// deterministic delay bound (best effort otherwise), and another start.
fn reask(rng: &mut Rng, f: &mut Flow) {
    f.profile.capacity = pick(rng, &CAPACITIES);
    // The 100 ms fixed part dominates the implied C/D bandwidth;
    // 2 µs/B clears ethernet's per-byte floor.
    let det = DelayBound::deterministic(ms(100), SimDuration::from_micros(2));
    f.profile.delay = match rng.chance(0.5) {
        true => det,
        false => StreamProfile::default().delay,
    };
    f.start = ms(rng.below(1_500));
}

pub(crate) fn mutate(rng: &mut Rng, parent: &Genome) -> Genome {
    let mut g = parent.clone();
    let ends = [(A, B), (B, A)][rng.below(2) as usize];
    let (flows, entries) = (g.plan.flows.len(), g.len() - g.faults.events.len());
    let faults = &mut g.faults;
    match rng.below(8) {
        // Add paired faults and recoveries.
        0 => {
            let batch = FaultPlan::random(rng, &chaos_config());
            faults.events.extend(batch.events);
            faults.events.sort_by_key(|e| e.at);
        }
        // Add schedule jitter from t = 0.
        1 => {
            let (seed, max) = (rng.next_u64(), pick(rng, &JITTERS_US));
            let max = SimDuration::from_micros(max);
            *faults =
                std::mem::take(faults).at(SimTime::ZERO, FaultKind::TimerJitter { seed, max });
        }
        // Add an entry of any word.
        2 | 3 if entries < MAX_ENTRIES => {
            let w = rng.below(WORDS);
            push_word(rng, &mut g.plan, w, ends);
        }
        // Drop an entry or a fault (a recovery too: the fault never heals).
        4 if g.len() > 0 => {
            let i = rng.below(g.len() as u64) as usize;
            g.remove(i, i + 1);
        }
        // Ask a flow for another RMS: the parameters that are the workload.
        5 | 6 if flows > 0 => {
            let i = rng.below(flows as u64) as usize;
            reask(rng, &mut g.plan.flows[i]);
        }
        // Re-roll the topology seed (or fall through from a guarded arm).
        _ => g.seed = rng.next_u64(),
    }
    g
}

/// Run the coverage-guided search: the first failing genome and its
/// report, or `None` if the budget passes clean. `force_admission` is
/// inherited, never flipped: it seeds a known bug, it is not searched.
pub fn explore(seeds: &[Genome], cfg: &ExploreConfig) -> Option<(Genome, RunReport)> {
    assert!(!seeds.is_empty(), "explore needs at least one seed genome");
    let mut rng = Rng::new(cfg.mutation_seed);
    let mut corpus: Vec<Genome> = Vec::new();
    let mut coverage = BTreeSet::new();
    for run in 0..cfg.budget_runs {
        let genome = match seeds.get(run) {
            Some(seed) => seed.clone(),
            // Until a run adds coverage, mutate the seeds.
            None => {
                let from = if corpus.is_empty() { seeds } else { &corpus };
                let i = rng.below(from.len() as u64) as usize;
                mutate(&mut rng, &from[i])
            }
        };
        let report = run_scenario(&genome);
        if !report.verdict.is_clean() {
            return Some((genome, report));
        }
        if report.bigrams.iter().any(|b| !coverage.contains(b)) {
            coverage.extend(report.bigrams.iter().copied());
            corpus.push(genome);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_baseline::TcpConfig;
    use dash_sim::obs::{DropCause, ObsEvent};
    use dash_transport::rkom;

    /// `g` with schedule jitter of up to `max_us` drawn from `seed`.
    pub(crate) fn jittered(g: Genome, seed: u64, max_us: u64) -> Genome {
        let max = SimDuration::from_micros(max_us);
        let faults = FaultPlan::new().at(SimTime::ZERO, FaultKind::TimerJitter { seed, max });
        Genome { faults, ..g }
    }

    #[test]
    fn dual_homed_builds_a_then_b() {
        let (_, a, b) = dual_homed(3);
        assert_eq!((a, b), (A, B));
    }

    #[test]
    fn baseline_genome_runs_clean_and_replays_identically() {
        let g = Genome::baseline(3);
        let a = run_scenario(&g);
        assert!(a.verdict.is_clean(), "baseline must pass: {}", a.verdict);
        assert!(a.processed > 100, "stack barely ran: {}", a.processed);
        assert_eq!(a.verdict.delivered, 6);
        assert!(!a.bigrams.is_empty());
        let b = run_scenario(&g);
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.bigrams, b.bigrams);
    }

    #[test]
    fn faulted_genome_still_satisfies_the_oracle() {
        let g = Genome {
            faults: Genome::chaos(11).faults,
            ..Genome::baseline(11)
        };
        let report = run_scenario(&g);
        assert!(
            report.verdict.is_clean(),
            "chaos within spec must pass: {}",
            report.verdict
        );
    }

    #[test]
    fn jittered_genome_is_deterministic_per_jitter_seed() {
        let base = jittered(Genome::baseline(5), 9, 200);
        let a = run_scenario(&base);
        let b = run_scenario(&base);
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.bigrams, b.bigrams);
        assert!(a.verdict.is_clean(), "{}", a.verdict);
        // Different jitter seed perturbs the schedule (almost surely a
        // different event count; at minimum not a violation).
        let c = run_scenario(&jittered(base, 10, 200));
        assert!(c.verdict.is_clean());
    }

    /// Jitter is a fault like any other, so a jittered genome runs on
    /// `dash-par` too: every replica world applies it, and the run is the
    /// same at one shard and two.
    #[test]
    fn jittered_scenario_is_shard_count_invariant_under_par() {
        let scn = jittered(Genome::baseline(5), 9, 200).scenario();
        let par = |shards| scenario::run(&scn, Backend::Par { shards });
        let (one, two) = (par(1), par(2));
        assert_eq!(one.determinism_digest(), two.determinism_digest());
        assert!(one.acct.flows.values().any(|t| t.received > 0));
        assert!(two.verdict.is_clean(), "{}", two.verdict);
    }

    /// Schedule jitter reorders events, but it cannot put a session's data
    /// ahead of the session: the receiving end is built from the ST
    /// create's opening header before any data is sent.
    #[test]
    fn jitter_never_puts_data_ahead_of_its_session() {
        for seed in 0..4 {
            let g = jittered(Genome::chaos(seed), seed, 500);
            let out = scenario::run(&g.scenario(), Backend::Serial);
            let no_session = out
                .stream
                .iter()
                .filter(|(_, e)| {
                    matches!(
                        e,
                        ObsEvent::Drop {
                            cause: DropCause::NoSession,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(no_session, 0, "seed {seed}");
            assert!(
                out.acct.flows.values().any(|t| t.received > 0),
                "seed {seed}"
            );
        }
    }

    /// At every stream profile [`push_word`] draws, the stream's backoff
    /// chain outlasts RKOM's attempts and TCP's give-up; a pumped flow is
    /// bounded by its bytes.
    #[test]
    fn quiet_by_covers_every_word_in_use() {
        let mut plan = Plan::default();
        for (seed, w) in (0..50).flat_map(|s| (0..4).map(move |w| (s, w))) {
            push_word(&mut Rng::new(seed), &mut plan, w, (A, B));
        }
        let rto = plan.flows.iter().map(|f| f.profile.rto()).min();
        let shortest = rto.expect("flows drawn") * ((2 << MAX_RETRIES) - 1);
        assert!(shortest >= TcpConfig::default().give_up_after());
        assert!(shortest >= rkom::RETRY_TIMEOUT * u64::from(rkom::MAX_RETRIES + 1));
        let mut bulk = Genome::default();
        bulk.plan
            .flows
            .push(Flow::bulk(A, B, 1 << 20, 1024, StreamProfile::default()));
        let chain = StreamProfile::default().rto() * ((2 << MAX_RETRIES) - 1);
        assert_eq!(
            bulk.quiet_by(),
            SimDuration::from_micros(10) * (1 << 20) + chain
        );
    }

    #[test]
    fn mutation_is_deterministic() {
        let parent = Genome::baseline(1);
        let a = mutate(&mut Rng::new(42), &parent);
        let b = mutate(&mut Rng::new(42), &parent);
        assert_eq!(a, b);
    }

    #[test]
    fn explore_passes_clean_on_a_small_healthy_budget() {
        let seeds = [Genome::baseline(1), Genome::baseline(2)];
        let cfg = ExploreConfig {
            budget_runs: 6,
            mutation_seed: 7,
        };
        assert!(explore(&seeds, &cfg).is_none());
    }
}
