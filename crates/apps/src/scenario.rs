//! One scenario, one `run`, three backends, one verdict.
//!
//! A [`Scenario`] is everything a macro run needs: the topology program,
//! the traffic [`Plan`], the fault plan and the run-level settings. It is
//! *data* — a pure function of the parameters that planned it — and the
//! traffic driver acts only on the endpoints its world owns, so the same
//! description serves every execution [`Backend`] — the serial engine,
//! the `dash-par` executor, the wall-paced `dash-rt` scheduler — behind
//! the one [`run`].
//!
//! The serial engine interleaves all hosts through one RNG, one id well
//! and one event heap, so its byte-level schedule is a different (equally
//! valid) sample of the same model as the parallel executor's: the digest
//! contract is replay-identity per backend and shard-count invariance
//! under `Par`, not `Serial == Par`.
//!
//! Every run is judged as it runs: `run` attaches the `dash_check` oracle
//! and returns its [`Verdict`] in [`Outcome::verdict`]. On `Serial` and
//! `Rt` the oracle is a sink in the world, so nothing is captured unless
//! `keep_events` asks; on `Par` the replica worlds' captures are merged
//! by `(time, host, emission index)` and fed to the same oracle at the
//! end.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dash_baseline::tcp::TcpConfig;
use dash_check::oracle::trace_line;
use dash_check::{oracle, OracleConfig, OracleSink, Violation};
use dash_net::fault::schedule_fault_plan;
use dash_net::ids::HostId;
use dash_net::shard::WireEnvelope;
use dash_net::state::NetState;
use dash_par::{
    cross_shard_lookahead, local_lookahead, run_sharded, Lp, ParConfig, ShardPlan, StackLp,
};
use dash_rt::{run_rt, MemConfig, MemDatagram, Monotonic, RtOptions, RtReport, StopReason};
use dash_sim::cpu::SchedPolicy;
use dash_sim::fault::FaultPlan;
use dash_sim::obs::{MetricRegistry, ObsEvent, ObsSink};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_subtransport::st::StConfig;
use dash_transport::stack::{Stack, StackBuilder};

use crate::traffic::{self, Acct, Class, Plan, SharedAcct, Tally};

/// The one input of [`run`]: what to build, what to offer, what to break
/// and how to observe it. Every world of a run — the serial world, each
/// `dash-par` replica — is built from the same scenario, so they all see
/// identical ids, plans and fault times.
pub struct Scenario {
    /// The topology program: every call builds an identical [`NetState`]
    /// (each replica world of a `Par` run calls it once).
    pub topo: Box<dyn Fn() -> NetState + Send + Sync>,
    /// Shard groups for [`Backend::Par`]'s placement: hosts that should
    /// share a shard (a site, with the gateways riding along). Hosts in no
    /// group are hash-placed. Keeping each LAN whole leaves only the WAN
    /// spanning shards, so the epoch is the WAN propagation delay; with no
    /// groups the epoch shrinks to the LAN wire delay — correct, but
    /// orders of magnitude more barriers. Placement never changes a digest.
    pub groups: Vec<Vec<u32>>,
    /// The traffic: stream flows, RKOM pairs, datagram probes.
    pub plan: Plan,
    /// The fault drill (replicated: every world applies all of it).
    pub faults: FaultPlan,
    /// Seed of per-LP randomness (`Par`) and the substrate loss hash (`Rt`).
    pub seed: u64,
    /// Where the run is cut (exclusive).
    pub horizon: SimTime,
    /// The subtransport's configuration on every host.
    pub st: StConfig,
    /// The TCP-like baseline's configuration on every host.
    pub tcp: TcpConfig,
    /// Per-host protocol CPUs: their scheduling policy and context-switch
    /// cost. `None` keeps the stack's default model, one FIFO
    /// run-to-completion CPU per host (`net::state::fifo_charge_cpu`),
    /// which still charges `NetConfig::per_packet_cpu`, the security
    /// mechanisms' costs and `StConfig::st_cpu`.
    pub cpus: Option<(SchedPolicy, SimDuration)>,
    /// Hand the merged event stream back in [`Outcome::stream`], for a
    /// caller that reads events (the explorer, a table counting drops, a
    /// determinism run whose digest renders them); the verdict does not
    /// need it. Plans leave it off.
    pub keep_events: bool,
}

impl Scenario {
    /// `plan` on the network `topo` builds, cut after `length`: no
    /// faults, no shard groups, seed 0, the default subtransport and TCP
    /// baseline, FIFO run-to-completion protocol CPUs (`cpus: None`),
    /// nothing recorded. Struct update syntax sets the rest.
    pub fn new(
        topo: impl Fn() -> NetState + Send + Sync + 'static,
        plan: Plan,
        length: SimDuration,
    ) -> Scenario {
        Scenario {
            topo: Box::new(topo),
            groups: Vec::new(),
            plan,
            faults: FaultPlan::new(),
            seed: 0,
            horizon: SimTime::ZERO.saturating_add(length),
            st: StConfig::default(),
            tcp: TcpConfig::default(),
            cpus: None,
            keep_events: false,
        }
    }
}

/// What executes the workload.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// One world, the serial discrete-event engine (e10).
    Serial,
    /// One logical process per host on the conservative parallel
    /// executor (e12), placed by the scenario's `groups`.
    Par {
        /// Worker threads.
        shards: u32,
    },
    /// The serial world paced 1:1 against the wall clock, wire hops
    /// carried by the threaded in-memory datagram substrate (e13). Counts
    /// are not deterministic here (real carriage timing feeds back into
    /// arrival times); the oracle verdict and the stop reason are what a
    /// real-time run is judged on.
    Rt {
        /// Substrate loss applied to best-effort carriage, per mille.
        loss_per_mille: u32,
    },
}

/// The rt backend's hard wall box; hitting it is a failure
/// ([`StopReason::WallBox`]).
const RT_MAX_WALL: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// A world's observability events as emitted.
type Events = Vec<(SimTime, ObsEvent)>;

/// Event sink capturing a world's typed events. The merged capture of a
/// run is what [`Outcome::stream`] hands back (and the digest renders)
/// and what a `Par` run's oracle reads.
struct CaptureSink {
    out: Rc<RefCell<Events>>,
}

impl ObsSink for CaptureSink {
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        self.out.borrow_mut().push((time, event.clone()));
    }
}

/// The harness's handles into one populated world.
struct Taps {
    acct: SharedAcct,
    /// Filled when the world captures (see [`build_world`]).
    events: Rc<RefCell<Events>>,
}

/// Build a world on `net` and install the plan. With `owner == None` the
/// world is the whole system; with `Some(h)` it is `h`'s replica under
/// `dash-par` and only `h`'s endpoints act. The fault plan is replicated:
/// every world applies it at the same times, so routing and admission
/// see the same topology everywhere. A world without the online `oracle`
/// (a `Par` replica) captures its events for the merged verdict.
fn build_world(
    scn: &Scenario,
    net: NetState,
    owner: Option<HostId>,
    oracle: Option<OracleSink>,
) -> (Sim<Stack>, Taps) {
    let mut builder = StackBuilder::new(net).obs(true).st_config(scn.st.clone());
    if let Some((policy, context_switch)) = scn.cpus {
        builder = builder.cpus(policy, context_switch);
    }
    let events = Rc::new(RefCell::new(Vec::new()));
    if oracle.is_none() || scn.keep_events {
        builder = builder.obs_sink(CaptureSink {
            out: Rc::clone(&events),
        });
    }
    let mut sim = Sim::new(builder.build());
    if let Some(oracle) = oracle {
        sim.state.net.obs.add_boxed_sink(Box::new(oracle));
    }
    sim.state.tcp.config = scn.tcp.clone();
    let acct = traffic::install(&mut sim, &scn.plan, owner);
    schedule_fault_plan(&mut sim, &scn.faults);
    (sim, Taps { acct, events })
}

/// What one finished world contributes to the outcome (`Send`, so a
/// `Par` worker can hand it back).
struct WorldOut {
    host: u32,
    acct: Acct,
    events: u64,
    pending: u64,
    peak_queue: u64,
    cpu_busy: SimDuration,
    registry: MetricRegistry,
    obs: Events,
}

fn finish_world(host: u32, mut sim: Sim<Stack>, taps: Taps) -> WorldOut {
    let peak_queue = sim
        .state
        .net
        .hosts
        .iter()
        .flat_map(|h| h.ifaces.iter())
        .map(|i| i.stats.max_queued_bytes)
        .max()
        .unwrap_or(0);
    let cpu_busy = (sim.state.cpus.iter().flatten())
        .fold(SimDuration::ZERO, |sum, c| sum.saturating_add(c.stats.busy));
    WorldOut {
        host,
        acct: taps.acct.borrow().clone(),
        events: sim.events_processed(),
        pending: sim.events_pending() as u64,
        peak_queue,
        cpu_busy,
        registry: std::mem::take(&mut sim.state.net.obs.registry),
        obs: taps.events.take(),
    }
}

/// A replica world as the executor's logical process.
struct WorldLp {
    lp: StackLp,
    taps: Taps,
}

impl Lp for WorldLp {
    type Env = WireEnvelope;

    fn host(&self) -> u32 {
        self.lp.host()
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.lp.next_event_time()
    }

    fn run_until_horizon(&mut self, horizon: SimTime) {
        self.lp.run_until_horizon(horizon);
    }

    fn drain_outbox(&mut self, sink: &mut Vec<WireEnvelope>) {
        self.lp.drain_outbox(sink);
    }

    fn dst_of(env: &WireEnvelope) -> u32 {
        <StackLp as Lp>::dst_of(env)
    }

    fn inject(&mut self, env: WireEnvelope) {
        self.lp.inject(env);
    }
}

// ---------------------------------------------------------------------------
// The outcome
// ---------------------------------------------------------------------------

/// Everything a run produces, summed over its worlds. Under `Serial` and
/// `Par` every field except `wall_secs` is deterministic for a given
/// [`Scenario`] — under `Par` *including* across shard counts and
/// placements, which is the whole point.
#[derive(Debug)]
pub struct Outcome {
    /// What executed the run.
    pub backend: Backend,
    /// Hosts in the topology.
    pub hosts: usize,
    /// The traffic driver's accounting, merged over worlds: one tally per
    /// plan entry.
    pub acct: Acct,
    /// The metric registry, merged host-ascending over worlds: every
    /// layer's counters and histograms.
    pub registry: MetricRegistry,
    /// Engine events executed, summed over worlds.
    pub events: u64,
    /// Live events still queued at the horizon, summed over worlds
    /// (outside the digest). Nonzero means the cut left work undone — for
    /// a run planned to go quiet first, a wedge.
    pub pending: u64,
    /// Protocol-CPU busy time summed over hosts, context switches
    /// included (outside the digest; zero when the scenario models no
    /// CPUs).
    pub cpu_busy: SimDuration,
    /// Virtual seconds simulated.
    pub sim_secs: f64,
    /// Wall-clock seconds of the run phase (not deterministic).
    pub wall_secs: f64,
    /// Peak interface transmit-queue depth, bytes, across all worlds.
    pub peak_queue_bytes: u64,
    /// Fault events in the drill plan (every world applies all of them).
    pub faults_injected: u64,
    /// The run's event stream (empty unless `keep_events`): the worlds'
    /// captures merged by `(time, owner host, emission index)` — a total
    /// order that is a pure function of the run, so a trace rendered from
    /// it is the same at every shard count and placement.
    pub stream: Vec<(SimTime, ObsEvent)>,
    /// The oracle's judgement, as deterministic as the rest of the outcome.
    pub verdict: Verdict,
    /// The real-time scheduler's report (`Rt` only): stop reason, wall
    /// lag, deadline misses, substrate carriage counts.
    pub rt: Option<RtReport>,
}

impl Outcome {
    /// ST messages delivered to ports (registry `st.deliver`).
    pub fn messages(&self) -> u64 {
        self.registry.counter_value("st.deliver")
    }

    /// Voice-class on-time fraction (voice + WAN voice + churn).
    pub fn voice_on_time(&self) -> f64 {
        use Class::*;
        let voice = [Voice, WanVoice, Churn].map(|c| self.acct.class(c));
        voice.iter().sum::<Tally>().on_time_fraction()
    }

    /// The deterministic portion: byte-identical between replays, and
    /// under `Par` across shard counts and placements. Flow counts are
    /// printed per [`Class`], RKOM calls summed; the trace is
    /// [`Outcome::stream`], one [`trace_line`] per event.
    pub fn determinism_digest(&self) -> String {
        use Class::*;
        let (a, reg) = (&self.acct, &self.registry);
        let classes = [Voice, WanVoice, Bulk, Churn, Heavy].map(|c| a.class(c));
        let per_class = |field: fn(&Tally) -> u64| classes.each_ref().map(field);
        let (streams, calls): (_, Tally) = (a.streams(), a.rpcs.values().sum());
        let trace: String = (self.stream.iter())
            .map(|(t, e)| trace_line(*t, e) + "\n")
            .collect();
        format!(
            "opened={} failed={} events={} messages={} sent={:?} received={:?} \
             late={:?} bytes={:?} drops={} rpc={}/{} sim_secs={:.9} peak_queue={} \
             misses={} evictions={} faults={}\n\
             --- registry ---\n{}--- trace ---\n{}",
            streams.opened,
            streams.failed,
            self.events,
            self.messages(),
            per_class(|t| t.sent),
            per_class(|t| t.received),
            per_class(|t| t.late),
            per_class(|t| t.bytes),
            classes.iter().map(|t| t.dropped).sum::<u64>(),
            calls.received,
            calls.failed,
            self.sim_secs,
            self.peak_queue_bytes,
            reg.counter_value("st.cache_miss"),
            reg.counter_value("st.cache_eviction"),
            self.faults_injected,
            render_registry(reg),
            trace,
        )
    }

    /// FNV-1a of the digest, for printing and cheap comparison.
    pub fn digest_hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.determinism_digest().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// `reg` as JSON lines. Rendering sorts histogram samples in place, so it
/// works on a copy and the outcome's registry stays as merged.
fn render_registry(reg: &MetricRegistry) -> String {
    let mut copy = MetricRegistry::new();
    copy.merge_from(reg);
    copy.to_json_lines()
}

/// What the oracle found in one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Violations in detection order, ending with `clean-stop` if the rt
    /// backend's wall-clock backstop cut the run.
    pub violations: Vec<Violation>,
    /// Stream deliveries the oracle saw, summed over sessions.
    pub delivered: u64,
    /// Sessions that ended in a typed failure (failed end, retries
    /// exhausted, or failed open).
    pub typed_failures: u64,
}

impl Verdict {
    /// No violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether some violation is of `invariant`.
    pub fn names(&self, invariant: &str) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }
}

/// `oracle clean (0 violations)`, or the count and one
/// `[invariant] t=<ns> detail` line per violation.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "oracle clean (0 violations)");
        }
        write!(f, "oracle: {} violations", self.violations.len())?;
        for v in &self.violations {
            let (invariant, at) = (v.invariant, v.at.as_nanos());
            write!(f, "\n  [{invariant}] t={at} {}", v.detail)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Run `scn` on `backend`: the one place a macro world is built, driven,
/// stepped, collected, digested and judged.
///
/// # Panics
///
/// Panics if `Backend::Par` asks for zero shards.
pub fn run(scn: &Scenario, backend: Backend) -> Outcome {
    let net = (scn.topo)();
    let hosts = net.hosts.len();
    // A window's streams are best-effort; `Rt`'s clock is the wall's.
    let reliable = scn.plan.windows.is_empty() && scn.plan.flows.iter().all(|f| f.profile.reliable);
    let wall_paced = matches!(backend, Backend::Rt { .. });
    let (sink, judge) = oracle(OracleConfig::for_run(reliable, wall_paced));
    // Taken by a world that judges online; left for the merged stream.
    let mut sink = Some(sink);
    let (sim_time, wall, outs, rt) = match backend {
        Backend::Serial => {
            let (mut sim, taps) = build_world(scn, net, None, sink.take());
            let started = Instant::now();
            sim.run_until_horizon(scn.horizon);
            let wall = started.elapsed();
            (sim.now(), wall, vec![finish_world(0, sim, taps)], None)
        }
        Backend::Rt { loss_per_mille } => {
            let (mut sim, taps) = build_world(scn, net, None, sink.take());
            // Every wire hop crosses the substrate from t=0, establishment
            // included (control-plane carriage is lossless by the
            // reliability contract — see `Substrate::transmit`).
            sim.state.net.enable_wire_divert();
            let mut driver = Monotonic::start();
            let mut substrate = MemDatagram::new(MemConfig {
                loss_per_mille,
                seed: scn.seed,
            });
            let report = run_rt(
                &mut sim,
                &mut driver,
                &mut substrate,
                &RtOptions {
                    horizon: Some(scn.horizon),
                    max_wall: Some(RT_MAX_WALL),
                    ..RtOptions::default()
                },
            );
            (
                sim.now(),
                report.wall,
                vec![finish_world(0, sim, taps)],
                Some(report),
            )
        }
        Backend::Par { shards } => {
            assert!(shards > 0, "a parallel run needs at least one shard");
            let plan = ShardPlan::grouped(hosts as u32, shards, &scn.groups);
            let cfg = ParConfig {
                horizon: scn.horizon,
                cross_lookahead: cross_shard_lookahead(&net, &plan),
                local_lookahead: local_lookahead(&net),
            };
            drop(net);
            let started = Instant::now();
            let outs = run_sharded(
                &plan,
                &cfg,
                |h| {
                    let owner = HostId(h);
                    let (sim, taps) = build_world(scn, (scn.topo)(), Some(owner), None);
                    WorldLp {
                        lp: StackLp::new(sim, owner, scn.seed),
                        taps,
                    }
                },
                |w: WorldLp| finish_world(w.lp.host(), w.lp.sim, w.taps),
            );
            (scn.horizon, started.elapsed(), outs, None)
        }
    };
    let (sim_secs, wall_secs) = (sim_time.as_secs_f64(), wall.as_secs_f64());
    let wall_box = rt.as_ref().is_some_and(|r| r.stop == StopReason::WallBox);
    let mut out = merge_outcome(scn, backend, hosts, outs, sim_secs, wall_secs, rt);
    if let Some(mut sink) = sink {
        for (t, e) in &out.stream {
            sink.on_event(*t, e);
        }
    }
    // Completion is judged once the run has gone quiet, never at a cut.
    if out.pending == 0 {
        judge.finish(scn.horizon);
    }
    if wall_box {
        let detail = "hit the wall-clock backstop with work outstanding".to_string();
        judge.report("clean-stop", sim_time, detail);
    }
    let (delivered, typed_failures) = judge.session_totals();
    out.verdict = Verdict {
        violations: judge.violations(),
        delivered,
        typed_failures,
    };
    if !scn.keep_events {
        out.stream = Vec::new();
    }
    out
}

/// Sum the worlds. `run_sharded` returns results indexed by host, so the
/// merge order (host ascending) is fixed regardless of the shard plan.
/// The verdict is [`run`]'s to fill in.
fn merge_outcome(
    scn: &Scenario,
    backend: Backend,
    hosts: usize,
    outs: Vec<WorldOut>,
    sim_secs: f64,
    wall_secs: f64,
    rt: Option<RtReport>,
) -> Outcome {
    let mut registry = MetricRegistry::new();
    let mut acct = Acct::default();
    let mut events = 0u64;
    let mut pending = 0u64;
    let mut cpu_busy = SimDuration::ZERO;
    let mut peak_queue_bytes = 0u64;
    let mut stream: Vec<(SimTime, u32, usize, ObsEvent)> = Vec::new();
    for o in outs {
        registry.merge_from(&o.registry);
        acct.merge(&o.acct);
        events += o.events;
        pending += o.pending;
        cpu_busy = cpu_busy.saturating_add(o.cpu_busy);
        peak_queue_bytes = peak_queue_bytes.max(o.peak_queue);
        stream.extend(
            o.obs
                .into_iter()
                .enumerate()
                .map(|(i, (t, e))| (t, o.host, i, e)),
        );
    }
    stream.sort_by_key(|&(t, host, i, _)| (t, host, i));
    Outcome {
        backend,
        hosts,
        acct,
        registry,
        events,
        pending,
        cpu_busy,
        sim_secs,
        wall_secs,
        peak_queue_bytes,
        faults_injected: scn.faults.events.len() as u64,
        stream: stream.into_iter().map(|(t, _, _, e)| (t, e)).collect(),
        verdict: Verdict::default(),
        rt,
    }
}
