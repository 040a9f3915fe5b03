//! One run of one workload: set-up, run to the virtual horizon, collect.
//!
//! A run happens in a child process of its own (see `cli.rs`), so the
//! peak RSS and allocator state belong to that run alone. The set-up
//! phase builds topology, stack, population and fault plan; the run phase
//! is `Sim::run_until(horizon)` (or the sharded epochs) and nothing else.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dash_net::fault::schedule_fault_plan;
use dash_net::ids::HostId;
use dash_par::{
    cross_shard_lookahead, local_lookahead, run_sharded, ParConfig, ShardPlan, StackLp,
};
use dash_sim::cpu::SchedPolicy;
use dash_sim::engine::Sim;
use dash_sim::obs::MetricRegistry;
use dash_sim::stats::Histogram;
use dash_sim::time::SimDuration;
use dash_transport::stack::{Stack, StackBuilder};

use crate::alloc;
use crate::trace::{self, LayerTimes, TimedLp, TraceDump};
use crate::traffic::{self, Acct, Plan};
use crate::workloads::{Sites, Workload};

/// What a finished world (or the merge of all replica worlds) yields.
pub struct Collected {
    /// Engine events executed.
    pub events: u64,
    /// Traffic accounting.
    pub acct: Acct,
    /// The (merged) metric registry.
    pub registry: MetricRegistry,
    /// Peak interface queue, bytes.
    pub peak_queue_bytes: u64,
    /// Stream data messages first-sent / retransmitted (sender sessions).
    pub stream_sent: u64,
    /// See [`Collected::stream_sent`].
    pub stream_retransmitted: u64,
    /// RKOM request retransmissions.
    pub rkom_retransmits: u64,
    /// RKOM round-trip latencies, seconds.
    pub rkom_rtt: Histogram,
}

/// Wall-clock side of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Walls {
    /// One full set-up: topology, stack, population, fault plan (and,
    /// sharded, every replica world, to the last build end over shards).
    pub setup_s: f64,
    /// The run phase.
    pub run_s: f64,
    /// Heap allocations during the run phase.
    pub run_allocs: u64,
}

/// Per-layer attribution of a traced run.
pub struct Traced {
    /// Wall time and mark counts by layer.
    pub layers: LayerTimes,
    /// Largest pending-event count seen between steps (serial only).
    pub peak_pending: u64,
    /// Oracle violations (each rendered for diagnosis).
    pub violations: Vec<String>,
    /// Sharded runs only: executor-side counts.
    pub par: Option<ParTrace>,
}

/// Executor-side measurements of a traced sharded run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParTrace {
    /// Seconds spent inside LP methods, all LPs.
    pub busy_s: f64,
    /// `run_until_horizon` calls, all LPs.
    pub windows: u64,
    /// Envelopes injected, all LPs.
    pub envelopes: u64,
}

fn build_world(w: &Workload, seed: u64) -> (Sim<Stack>, Sites) {
    let (net, sites) = w.topology(seed);
    let mut builder = StackBuilder::new(net).obs(true);
    if w.cpus {
        builder = builder.cpus(SchedPolicy::Edf, SimDuration::from_micros(5));
    }
    (Sim::new(builder.build()), sites)
}

fn collect(sim: &mut Sim<Stack>, acct: Acct, hosts: impl Iterator<Item = HostId>) -> Collected {
    let peak_queue_bytes = sim
        .state
        .net
        .hosts
        .iter()
        .flat_map(|h| h.ifaces.iter())
        .map(|i| i.stats.max_queued_bytes)
        .max()
        .unwrap_or(0);
    let (mut stream_sent, mut stream_retransmitted) = (0, 0);
    for &(host, session) in acct.sessions() {
        if let Some(s) = sim.state.stream.session(host, session) {
            stream_sent += s.stats.sent.get();
            stream_retransmitted += s.stats.retransmitted.get();
        }
    }
    let mut rkom_retransmits = 0;
    let mut rkom_rtt = Histogram::new();
    for h in hosts {
        let stats = &sim.state.rkom.host(h).stats;
        rkom_retransmits += stats.retransmissions.get();
        rkom_rtt.merge_from(&stats.latency);
    }
    Collected {
        events: sim.events_processed(),
        acct,
        registry: std::mem::take(&mut sim.state.net.obs.registry),
        peak_queue_bytes,
        stream_sent,
        stream_retransmitted,
        rkom_retransmits,
        rkom_rtt,
    }
}

impl Collected {
    fn merge(&mut self, other: Collected) {
        self.events += other.events;
        self.acct.merge(&other.acct);
        self.registry.merge_from(&other.registry);
        self.peak_queue_bytes = self.peak_queue_bytes.max(other.peak_queue_bytes);
        self.stream_sent += other.stream_sent;
        self.stream_retransmitted += other.stream_retransmitted;
        self.rkom_retransmits += other.rkom_retransmits;
        self.rkom_rtt.merge_from(&other.rkom_rtt);
    }
}

/// A serial world is set up this many times (fewer once [`SETUP_BUDGET_S`]
/// is spent) and `setup_s` is the median: one set-up of a small topology
/// takes a millisecond or two, too short to time once.
const SETUP_REPEATS: usize = 15;
const SETUP_BUDGET_S: f64 = 0.25;

/// Run `w` on the serial engine. With `traced`, the benchmark's own step
/// loop and sink attribute the run phase to layers (and `dump` keeps raw
/// spans).
pub fn run_serial(
    w: &Workload,
    seed: u64,
    traced: bool,
    dump: Option<&mut TraceDump>,
) -> (Collected, Walls, Option<Traced>) {
    let horizon = w.horizon();
    let budget = Instant::now();
    let mut setups = Vec::new();
    let (mut sim, acct, tracer) = loop {
        let started = Instant::now();
        let (mut sim, sites) = build_world(w, seed);
        let acct = traffic::install(&mut sim, &w.plan(seed, &sites), None);
        schedule_fault_plan(&mut sim, &w.faults(&sites));
        let tracer = traced.then(|| trace::install(&mut sim, dump.is_some()));
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUP_REPEATS || budget.elapsed().as_secs_f64() > SETUP_BUDGET_S {
            break (sim, acct, tracer);
        }
    };

    let allocs0 = alloc::count();
    let started = Instant::now();
    let traced = match tracer {
        None => {
            sim.run_until(horizon);
            None
        }
        Some(tracer) => {
            let peak_pending = trace::step_until(&mut sim, horizon, &tracer);
            Some((tracer, peak_pending))
        }
    };
    let walls = Walls {
        setup_s: crate::report::median(&setups),
        run_s: started.elapsed().as_secs_f64(),
        run_allocs: alloc::count() - allocs0,
    };
    let traced = traced.map(|(tracer, peak_pending)| {
        let (layers, violations) = tracer.finish(dump);
        Traced {
            layers,
            peak_pending,
            violations,
            par: None,
        }
    });
    let n = sim.state.net.hosts.len() as u32;
    let collected = collect(&mut sim, acct.take(), (0..n).map(HostId));
    (collected, walls, traced)
}

struct LpOut {
    collected: Collected,
    trace: Option<trace::LpTrace>,
}

/// Run `w` under `dash-par` on `shards` LAN-aligned shards.
pub fn run_sharded_workload(
    w: &Workload,
    seed: u64,
    shards: u32,
    traced: bool,
) -> (Collected, Walls, Option<Traced>) {
    let t0 = Instant::now();
    let (proto, sites) = w.topology(seed);
    let shard_plan = ShardPlan::grouped(sites.hosts, shards, &sites.groups);
    let cfg = ParConfig {
        horizon: w.horizon(),
        cross_lookahead: cross_shard_lookahead(&proto, &shard_plan),
        local_lookahead: local_lookahead(&proto),
    };
    drop(proto);
    let plan: Plan = w.plan(seed, &sites);
    let faults = w.faults(&sites);

    // Set-up ends when the last replica world is built: no shard runs an
    // event before every shard has passed the executor's first barrier.
    let last_build: Mutex<(f64, u64)> = Mutex::new((0.0, 0));
    let started = Instant::now();
    let outs = run_sharded(
        &shard_plan,
        &cfg,
        |h| {
            let owner = HostId(h);
            let (mut sim, _) = build_world(w, seed);
            let acct = traffic::install(&mut sim, &plan, Some(owner));
            schedule_fault_plan(&mut sim, &faults);
            let capture = traced.then(|| trace::install_capture(&mut sim));
            let lp = TimedLp::new(StackLp::new(sim, owner, seed), acct, capture);
            let mut last = last_build.lock().expect("build closures do not panic");
            let now = t0.elapsed().as_secs_f64();
            if now > last.0 {
                *last = (now, alloc::count());
            }
            lp
        },
        |lp: TimedLp| {
            let owner = HostId(lp.owner());
            let (mut sim, acct, trace) = lp.into_parts();
            let collected = collect(&mut sim, acct.take(), std::iter::once(owner));
            LpOut { collected, trace }
        },
    );
    let total_s = started.elapsed().as_secs_f64();
    let allocs_end = alloc::count();
    let (setup_s, allocs0) = *last_build.lock().expect("workers have exited");
    let walls = Walls {
        setup_s,
        run_s: total_s - (setup_s - (started - t0).as_secs_f64()),
        run_allocs: allocs_end - allocs0,
    };

    // Merge in host order: the registry merge is order-sensitive for
    // histograms, and host order is what makes P shards equal 1 shard.
    let mut merged: Option<Collected> = None;
    let mut lp_traces = Vec::new();
    for o in outs {
        lp_traces.extend(o.trace);
        match &mut merged {
            None => merged = Some(o.collected),
            Some(m) => m.merge(o.collected),
        }
    }
    let traced = traced.then(|| trace::finish_sharded(lp_traces));
    (merged.expect("a topology has hosts"), walls, traced)
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Application messages delivered: stream deliveries plus answered calls.
pub fn messages(c: &Collected) -> u64 {
    c.registry.counter_value("stream.deliver") + c.registry.counter_value("rkom.completed")
}

/// FNV-1a over the registry dump: the deterministic digest of a run.
pub fn digest(c: &mut Collected) -> String {
    let dump = c.registry.to_json_lines();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dump.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{}:{}:{h:016x}", c.events, messages(c))
}

fn quantile_or_zero(reg: &mut MetricRegistry, name: &str, q: f64) -> f64 {
    if reg.has_histogram(name) {
        reg.histogram(name).quantile(q)
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric a timed run yields, by name: the nine end-to-end metrics
/// and the `[count]` / `[sim]` per-layer rows.
pub fn timed_metrics(
    w: &Workload,
    c: &mut Collected,
    walls: &Walls,
    rss_mb: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let msgs = messages(c) as f64;
    let reg = &mut c.registry;
    let cv = |reg: &MetricRegistry, n: &str| reg.counter_value(n) as f64;
    let sim_s = w.horizon().as_secs_f64();
    let payload = c.acct.payload_bytes_delivered() as f64;
    let events = c.events as f64;

    // End to end.
    m.insert("msgs_per_s", ratio(msgs, walls.run_s));
    m.insert("setup_s", walls.setup_s);
    m.insert("allocs_per_msg", ratio(walls.run_allocs as f64, msgs));
    m.insert("peak_rss_mb", rss_mb);
    m.insert("delay_mean_us", c.acct.delays.mean() * 1e6);
    m.insert("delay_p99_us", c.acct.delays.quantile(0.99) * 1e6);
    m.insert(
        "on_time_frac",
        1.0 - ratio(cv(reg, "st.late_delivery"), cv(reg, "st.deliver")),
    );
    m.insert(
        "op_ok_frac",
        1.0 - ratio(c.acct.ops_failed() as f64, c.acct.ops_attempted() as f64),
    );
    m.insert("goodput_mbps", payload * 8.0 / 1e6 / sim_s);

    // sim
    m.insert("sim.engine.events", events);
    m.insert("sim.engine.events_per_msg", ratio(events, msgs));
    m.insert("sim.engine.events_per_s", ratio(events, walls.run_s));
    m.insert("sim.engine.run_s", walls.run_s);
    // core
    let admitted = cv(reg, "net.admission_admitted");
    let rejected = cv(reg, "net.admission_rejected");
    m.insert("core.admission.admitted", admitted);
    m.insert(
        "core.admission.reject_frac",
        ratio(rejected, admitted + rejected),
    );
    // net
    m.insert("net.packets_sent", cv(reg, "net.packet_sent"));
    m.insert(
        "net.packets_per_msg",
        ratio(cv(reg, "net.packet_sent"), msgs),
    );
    m.insert("net.iface.drops", cv(reg, "net.iface_drop"));
    m.insert("net.iface.peak_queue_bytes", c.peak_queue_bytes as f64);
    m.insert("net.fault.injected", cv(reg, "fault.injected"));
    m.insert(
        "net.iface.queue_wait_p50_us",
        quantile_or_zero(reg, "span.stage.queue", 0.5) * 1e6,
    );
    m.insert(
        "net.iface.queue_wait_p99_us",
        quantile_or_zero(reg, "span.stage.queue", 0.99) * 1e6,
    );
    m.insert(
        "net.wire_p50_us",
        quantile_or_zero(reg, "span.stage.wire", 0.5) * 1e6,
    );
    m.insert(
        "net.fault.recovery_p50_ms",
        quantile_or_zero(reg, "fault.recovery_latency", 0.5) * 1e3,
    );
    m.insert("net.routing.floods", cv(reg, "routing.floods"));
    m.insert("net.routing.recomputes", cv(reg, "routing.recompute"));
    m.insert(
        "net.routing.alternate_wins",
        cv(reg, "routing.alternate_wins"),
    );
    m.insert(
        "net.routing.reconverge_p50_ms",
        quantile_or_zero(reg, "routing.recompute_latency", 0.5) * 1e3,
    );
    // subtransport
    let (bundled, alone) = (cv(reg, "st.msg_bundled"), cv(reg, "st.msg_alone"));
    let (hits, misses) = (cv(reg, "st.cache_hit"), cv(reg, "st.cache_miss"));
    let st_sent = cv(reg, "st.send");
    m.insert("st.msgs_delivered", cv(reg, "st.deliver"));
    m.insert("st.bundled_frac", ratio(bundled, bundled + alone));
    // Network messages per ST message, an unfragmented one counting as 1.
    m.insert(
        "st.frags_per_msg",
        ratio(
            cv(reg, "st.fragment_sent") + st_sent - cv(reg, "st.msg_fragmented"),
            st_sent,
        ),
    );
    m.insert("st.cache_hit_frac", ratio(hits, hits + misses));
    m.insert("st.cache_misses", misses);
    m.insert("st.failovers", cv(reg, "st.failover_completed"));
    m.insert(
        "st.wire_overhead",
        ratio(cv(reg, "st.net_bytes_sent"), payload),
    );
    m.insert(
        "st.tx_stage_p50_us",
        quantile_or_zero(reg, "span.stage.st_tx", 0.5) * 1e6,
    );
    m.insert(
        "st.rx_stage_p50_us",
        quantile_or_zero(reg, "span.stage.st_rx", 0.5) * 1e6,
    );
    // transport
    let delivered = cv(reg, "stream.deliver");
    let calls = cv(reg, "rkom.call");
    m.insert("transport.stream.delivered", delivered);
    m.insert(
        "transport.stream.acks_per_msg",
        ratio(cv(reg, "stream.ack_sent"), delivered),
    );
    m.insert("transport.stream.blocked", cv(reg, "stream.sender_blocked"));
    m.insert(
        "transport.stream.retransmit_frac",
        ratio(c.stream_retransmitted as f64, c.stream_sent as f64),
    );
    m.insert(
        "transport.stream.open_fail_frac",
        ratio(c.acct.opens_failed as f64, c.acct.opens as f64),
    );
    m.insert("transport.rkom.calls", calls);
    m.insert(
        "transport.rkom.completed_frac",
        ratio(cv(reg, "rkom.completed"), calls),
    );
    m.insert("transport.rkom.retransmits", c.rkom_retransmits as f64);
    m.insert(
        "transport.stage_p50_us",
        quantile_or_zero(reg, "span.stage.transport", 0.5) * 1e6,
    );
    m.insert(
        "transport.rkom.rtt_p50_ms",
        if c.rkom_rtt.is_empty() {
            0.0
        } else {
            c.rkom_rtt.median() * 1e3
        },
    );
    m
}

/// Conservation checks on a finished run; each failure is one line.
pub fn conservation(c: &Collected) -> Vec<String> {
    let a = &c.acct;
    let mut bad = Vec::new();
    if a.msgs_delivered() > a.msgs_offered() {
        bad.push(format!(
            "delivered {} > offered {}",
            a.msgs_delivered(),
            a.msgs_offered()
        ));
    }
    if a.payload_bytes_delivered() > a.payload_bytes_offered() {
        bad.push(format!(
            "bytes delivered {} > offered {}",
            a.payload_bytes_delivered(),
            a.payload_bytes_offered()
        ));
    }
    if a.rpc_completed + a.rpc_failed > a.rpc_issued {
        bad.push(format!(
            "calls completed {} + failed {} > issued {}",
            a.rpc_completed, a.rpc_failed, a.rpc_issued
        ));
    }
    bad
}
