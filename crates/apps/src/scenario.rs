//! One scenario, one `run`, three backends.
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
//! This module sits *below* `dash-check` (direction: scenario ← check ←
//! bench): `run` hands the merged, canonically ordered event stream back
//! in [`Outcome::stream`], and whoever wants a verdict feeds it to
//! `dash_check::check_stream`.

use std::cell::RefCell;
use std::fmt::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

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
use dash_transport::stack::{Stack, StackBuilder};

use crate::traffic::{self, Acct, Class, Plan, SharedAcct, CLASSES};

/// The one input of [`run`]: what to build, what to offer, what to break
/// and how to observe it. Every world of a run — the serial world, each
/// `dash-par` replica — is built from the same scenario, so they all see
/// identical ids, plans and fault times.
pub struct Scenario {
    /// The topology program: every call builds an identical [`NetState`]
    /// (each replica world of a `Par` run calls it once).
    pub topo: Box<dyn Fn() -> NetState + Send + Sync>,
    /// Shard groups for [`Backend::Par`]'s aligned placement: hosts that
    /// should share a shard (a site, with the gateways riding along).
    /// Hosts in no group are hash-placed.
    pub groups: Vec<Vec<u32>>,
    /// The traffic: stream flows, RKOM pairs, datagram probes.
    pub plan: Plan,
    /// The fault drill (replicated: every world applies all of it).
    pub faults: FaultPlan,
    /// Seed of per-LP randomness (`Par`) and the substrate loss hash (`Rt`).
    pub seed: u64,
    /// Where the run is cut (exclusive).
    pub horizon: SimTime,
    /// Model per-host protocol CPUs with EDF scheduling.
    pub cpus: bool,
    /// Render the observability trace into the digest (determinism runs;
    /// costly). Plans leave it off.
    pub record_trace: bool,
    /// Hand the merged event stream back in [`Outcome::stream`] — what
    /// the dash-check semantic oracle consumes. Plans leave it off.
    pub keep_events: bool,
}

/// What executes the workload.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// One world, the serial discrete-event engine (e10).
    Serial,
    /// One logical process per host on the conservative parallel
    /// executor (e12).
    Par {
        /// Worker threads.
        shards: u32,
        /// Keep each LAN (hosts + gateway) on one shard, so only the WAN
        /// spans shards and the epoch is the WAN propagation delay. With
        /// `false` hosts are hash-placed and the epoch shrinks to the LAN
        /// wire delay — correct, but orders of magnitude more barriers.
        lan_aligned: bool,
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
/// Wall lag beyond which an event stepped by the rt backend counts as a
/// deadline miss.
const RT_MISS_SLACK: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// A world's observability events as emitted.
type Events = Vec<(SimTime, ObsEvent)>;

/// Event sink capturing a world's typed events. The merged capture of a
/// run is what the determinism trace is rendered from and what the
/// semantic oracle checks — one stream, whatever the backend.
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
    /// Filled when the scenario records a trace or keeps its events.
    events: Rc<RefCell<Events>>,
}

/// Build a world on `net` and install the plan. With `owner == None` the
/// world is the whole system; with `Some(h)` it is `h`'s replica under
/// `dash-par` and only `h`'s endpoints act. The fault plan is replicated:
/// every world applies it at the same times, so routing and admission
/// see the same topology everywhere.
fn build_world(scn: &Scenario, net: NetState, owner: Option<HostId>) -> (Sim<Stack>, Taps) {
    let mut builder = StackBuilder::new(net).obs(true);
    if scn.cpus {
        builder = builder.cpus(SchedPolicy::Edf, SimDuration::from_micros(5));
    }
    let events = Rc::new(RefCell::new(Vec::new()));
    if scn.record_trace || scn.keep_events {
        builder = builder.obs_sink(CaptureSink {
            out: Rc::clone(&events),
        });
    }
    let mut sim = Sim::new(builder.build());
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
    WorldOut {
        host,
        acct: taps.acct.borrow().clone(),
        events: sim.events_processed(),
        pending: sim.events_pending() as u64,
        peak_queue,
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
    /// Hosts in the topology.
    pub hosts: usize,
    /// Sessions opened successfully (RPC excluded — RKOM rides cached
    /// channels, not per-call streams).
    pub streams_opened: u64,
    /// Session opens refused (admission, routing, or faults).
    pub open_failed: u64,
    /// Engine events executed, summed over worlds.
    pub events: u64,
    /// Live events still queued at the horizon, summed over worlds
    /// (outside the digest). Nonzero means the cut left work undone — for
    /// a run planned to go quiet first, a wedge.
    pub pending: u64,
    /// ST messages delivered to ports (registry `st.deliver`).
    pub messages: u64,
    /// Per-class messages sent (source-side accounting).
    pub sent: [u64; CLASSES],
    /// Per-class messages delivered (destination-side accounting).
    pub received: [u64; CLASSES],
    /// Per-class deliveries past the class budget.
    pub late: [u64; CLASSES],
    /// Per-class delivered payload bytes.
    pub bytes: [u64; CLASSES],
    /// Paced frames dropped at the source by sender flow control.
    pub source_drops: u64,
    /// RPC calls issued (outside the digest: it is fixed by the plan).
    pub rpc_issued: u64,
    /// RPC calls completed.
    pub rpc_completed: u64,
    /// RPC calls that returned an error.
    pub rpc_failed: u64,
    /// Virtual seconds simulated.
    pub sim_secs: f64,
    /// Wall-clock seconds of the run phase (not deterministic).
    pub wall_secs: f64,
    /// Peak interface transmit-queue depth, bytes, across all worlds.
    pub peak_queue_bytes: u64,
    /// RMS cache misses (each one is a fresh network-RMS creation — the
    /// churn the short-lived cross-site sessions are there to cause).
    pub cache_misses: u64,
    /// RMS cache evictions (idle slots LRU-evicted beyond the limit).
    pub cache_evictions: u64,
    /// Fault events in the drill plan (every world applies all of them).
    pub faults_injected: u64,
    /// Link-state ads originated (`routing.floods`).
    pub floods: u64,
    /// Lazy route-table recomputations (`routing.recompute`).
    pub recomputes: u64,
    /// Establishments that won on a non-primary alternate
    /// (`routing.alternate_wins`).
    pub alternate_wins: u64,
    /// Subtransport failovers completed (`fault.recovery_latency` count).
    pub recoveries: u64,
    /// Metric-registry dump (JSON lines; host-ascending merge under `Par`).
    pub registry_dump: String,
    /// Observability trace (empty unless `record_trace`).
    pub trace_dump: String,
    /// The run's event stream (empty unless `keep_events` or
    /// `record_trace`): the worlds' captures merged by `(time, owner
    /// host, emission index)` — a total order that is a pure function of
    /// the run, so a trace rendered from it and an oracle's verdict on it
    /// are the same at every shard count and placement.
    pub stream: Vec<(SimTime, ObsEvent)>,
    /// The real-time scheduler's report (`Rt` only): stop reason, wall
    /// lag, deadline misses, substrate carriage counts.
    pub rt: Option<RtReport>,
}

impl Outcome {
    /// Voice-class on-time fraction (voice + WAN voice + churn).
    pub fn voice_on_time(&self) -> f64 {
        let idx = [
            Class::Voice as usize,
            Class::WanVoice as usize,
            Class::Churn as usize,
        ];
        let sent: u64 = idx.iter().map(|&i| self.sent[i]).sum();
        let good: u64 = idx
            .iter()
            .map(|&i| {
                self.received[i]
                    .saturating_sub(self.late[i])
                    .min(self.sent[i])
            })
            .sum();
        if sent == 0 {
            0.0
        } else {
            good as f64 / sent as f64
        }
    }

    /// Whether the run ended the way a healthy run ends: anything but
    /// the rt backend's wall-clock backstop.
    pub fn clean_stop(&self) -> bool {
        self.rt
            .as_ref()
            .is_none_or(|r| r.stop != StopReason::WallBox)
    }

    /// The deterministic portion: byte-identical between replays, and
    /// under `Par` across shard counts and placements.
    pub fn determinism_digest(&self) -> String {
        format!(
            "opened={} failed={} events={} messages={} sent={:?} received={:?} \
             late={:?} bytes={:?} drops={} rpc={}/{} sim_secs={:.9} peak_queue={} \
             misses={} evictions={} faults={}\n\
             --- registry ---\n{}--- trace ---\n{}",
            self.streams_opened,
            self.open_failed,
            self.events,
            self.messages,
            self.sent,
            self.received,
            self.late,
            self.bytes,
            self.source_drops,
            self.rpc_completed,
            self.rpc_failed,
            self.sim_secs,
            self.peak_queue_bytes,
            self.cache_misses,
            self.cache_evictions,
            self.faults_injected,
            self.registry_dump,
            self.trace_dump,
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

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Run `scn` on `backend`: the one place a macro world is built, driven,
/// stepped, collected and digested.
///
/// # Panics
///
/// Panics if `Backend::Par` asks for zero shards.
pub fn run(scn: &Scenario, backend: Backend) -> Outcome {
    let net = (scn.topo)();
    let hosts = net.hosts.len();
    match backend {
        Backend::Serial => {
            let (mut sim, taps) = build_world(scn, net, None);
            let started = Instant::now();
            sim.run_until_horizon(scn.horizon);
            collect_single(scn, hosts, sim, taps, started.elapsed().as_secs_f64(), None)
        }
        Backend::Rt { loss_per_mille } => {
            let (mut sim, taps) = build_world(scn, net, None);
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
                    miss_slack: RT_MISS_SLACK,
                    ..RtOptions::default()
                },
            );
            let wall_secs = report.wall.as_secs_f64();
            collect_single(scn, hosts, sim, taps, wall_secs, Some(report))
        }
        Backend::Par {
            shards,
            lan_aligned,
        } => {
            assert!(shards > 0, "a parallel run needs at least one shard");
            let plan = if lan_aligned {
                ShardPlan::grouped(hosts as u32, shards, &scn.groups)
            } else {
                ShardPlan::hashed(hosts as u32, shards)
            };
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
                    let (sim, taps) = build_world(scn, (scn.topo)(), Some(owner));
                    WorldLp {
                        lp: StackLp::new(sim, owner, scn.seed),
                        taps,
                    }
                },
                |w: WorldLp| finish_world(w.lp.host(), w.lp.sim, w.taps),
            );
            let wall_secs = started.elapsed().as_secs_f64();
            let sim_secs = scn.horizon.as_secs_f64();
            merge_outcome(scn, hosts, outs, sim_secs, wall_secs, None)
        }
    }
}

/// The outcome of a run with one world (`Serial`, `Rt`).
fn collect_single(
    scn: &Scenario,
    hosts: usize,
    sim: Sim<Stack>,
    taps: Taps,
    wall_secs: f64,
    rt: Option<RtReport>,
) -> Outcome {
    let sim_secs = sim.now().as_secs_f64();
    let out = finish_world(0, sim, taps);
    merge_outcome(scn, hosts, vec![out], sim_secs, wall_secs, rt)
}

/// Sum the worlds. `run_sharded` returns results indexed by host, so the
/// merge order (host ascending) is fixed regardless of the shard plan.
fn merge_outcome(
    scn: &Scenario,
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
    let mut peak_queue_bytes = 0u64;
    let mut stream: Vec<(SimTime, u32, usize, ObsEvent)> = Vec::new();
    for o in outs {
        registry.merge_from(&o.registry);
        acct.merge(&o.acct);
        events += o.events;
        pending += o.pending;
        peak_queue_bytes = peak_queue_bytes.max(o.peak_queue);
        stream.extend(
            o.obs
                .into_iter()
                .enumerate()
                .map(|(i, (t, e))| (t, o.host, i, e)),
        );
    }
    stream.sort_by_key(|&(t, host, i, _)| (t, host, i));
    let mut trace_dump = String::new();
    if scn.record_trace {
        for (t, _, _, e) in &stream {
            let _ = writeln!(trace_dump, "{} {} {e:?}", t.as_nanos(), e.name());
        }
    }
    Outcome {
        hosts,
        streams_opened: acct.opened,
        open_failed: acct.failed,
        events,
        pending,
        messages: registry.counter_value("st.deliver"),
        sent: acct.sent,
        received: acct.received,
        late: acct.late,
        bytes: acct.bytes,
        source_drops: acct.source_drops,
        rpc_issued: acct.rpc_issued,
        rpc_completed: acct.rpc_completed,
        rpc_failed: acct.rpc_failed,
        sim_secs,
        wall_secs,
        peak_queue_bytes,
        cache_misses: registry.counter_value("st.cache_miss"),
        cache_evictions: registry.counter_value("st.cache_eviction"),
        faults_injected: scn.faults.events.len() as u64,
        floods: registry.counter_value("routing.floods"),
        recomputes: registry.counter_value("routing.recompute"),
        alternate_wins: registry.counter_value("routing.alternate_wins"),
        recoveries: registry.histogram("fault.recovery_latency").count() as u64,
        registry_dump: registry.to_json_lines(),
        trace_dump,
        stream: stream.into_iter().map(|(t, _, _, e)| (t, e)).collect(),
        rt,
    }
}
