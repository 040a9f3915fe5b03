//! e11_routing — the QoS-routing macro-workload.
//!
//! Exercises the distributed routing subsystem end to end on the two
//! topologies the design calls out: a **dumbbell with a backup middle**
//! (two fast LANs joined by parallel single-Ethernet corridors, where
//! admission on the primary corridor saturates and establishment must
//! fall back to the backup) and a **3×3 mesh of LANs** joined by
//! gateways, run under session churn with a mid-run outage of the mesh
//! centre. Both runs count the subsystem's observable work — link-state
//! floods, lazy route recomputations, alternate-path wins, subtransport
//! failovers — and those counts are deterministic, so
//! `tests/determinism.rs` pins them exactly at the CI size.
//!
//! Two sizes: `RoutingParams::full()`, the `e11_routing` binary's
//! default, and `RoutingParams::ci()`, a trace-recording size that
//! `tests/determinism.rs` runs twice and compares byte for byte.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use dash_apps::media::{start_media, MediaSpec, MediaStats};
use dash_apps::taps::Dispatcher;
use dash_net::fault::schedule_fault_plan;
use dash_net::pipeline::send_datagram;
use dash_net::topology::TopologyBuilder;
use dash_net::{HostId, NetworkId, NetworkSpec};
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::mix::{attach_oracle, violation_lines, TraceSink};
use crate::table::Table;

/// Which internetwork shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingTopo {
    /// Two fast LANs joined by two parallel single-Ethernet corridors
    /// (primary + backup) — the alternate-fallback scenario.
    DumbbellBackup,
    /// A 3×3 grid of Ethernet LANs joined by one gateway per adjacent
    /// pair — the reconvergence-under-churn scenario.
    Mesh3x3,
}

impl RoutingTopo {
    /// Short name for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            RoutingTopo::DumbbellBackup => "dumbbell",
            RoutingTopo::Mesh3x3 => "mesh",
        }
    }
}

/// Knobs for one routing run. Every output except wall-clock is a
/// deterministic function of these.
#[derive(Debug, Clone)]
pub struct RoutingParams {
    /// Internetwork shape.
    pub topo: RoutingTopo,
    /// Hosts per edge LAN (gateways are extra).
    pub hosts_per_lan: usize,
    /// Long-lived best-effort voice sessions crossing the internetwork.
    pub voice_pairs: usize,
    /// Deterministic-delay sessions whose admission demand saturates the
    /// primary corridor (each asks for most of a single Ethernet budget).
    pub heavy_streams: usize,
    /// Short-lived cross-site sessions opened per churn wave.
    pub churn_per_wave: usize,
    /// Interval between churn waves.
    pub churn_interval: SimDuration,
    /// Interval between datagram probes (table-routed traffic — the thing
    /// that makes lazy route recomputation actually fire).
    pub probe_interval: SimDuration,
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// Seed for source randomness.
    pub seed: u64,
    /// Run the mid-run outage drill (primary corridor / mesh centre).
    pub fault_drill: bool,
    /// Record the observability trace (determinism runs only; costly).
    pub record_trace: bool,
    /// Check the run with the dash-check semantic oracle.
    pub oracle: bool,
}

impl RoutingParams {
    /// The large size.
    pub fn full() -> Self {
        RoutingParams {
            topo: RoutingTopo::DumbbellBackup,
            hosts_per_lan: 8,
            voice_pairs: 24,
            heavy_streams: 4,
            churn_per_wave: 8,
            churn_interval: SimDuration::from_millis(200),
            probe_interval: SimDuration::from_millis(50),
            duration: SimDuration::from_secs(2),
            seed: 11,
            fault_drill: true,
            record_trace: false,
            oracle: false,
        }
    }

    /// Scaled-down CI size with trace recording, for the golden
    /// determinism test.
    pub fn ci() -> Self {
        RoutingParams {
            hosts_per_lan: 3,
            voice_pairs: 6,
            heavy_streams: 3,
            churn_per_wave: 3,
            churn_interval: SimDuration::from_millis(150),
            probe_interval: SimDuration::from_millis(100),
            duration: SimDuration::from_millis(800),
            record_trace: true,
            ..RoutingParams::full()
        }
    }

    /// The same size, on the mesh topology.
    pub fn on_mesh(mut self) -> Self {
        self.topo = RoutingTopo::Mesh3x3;
        self
    }
}

/// Everything a routing run produces. All fields except `wall_secs` are
/// deterministic for a given [`RoutingParams`].
#[derive(Debug)]
pub struct RoutingOutcome {
    /// Hosts in the topology (edge hosts + gateways).
    pub hosts: usize,
    /// Sessions opened successfully.
    pub streams_opened: u64,
    /// Session opens refused (admission exhausted on every alternate).
    pub open_failed: u64,
    /// Engine events executed.
    pub events: u64,
    /// ST messages delivered to ports (registry `st.deliver`).
    pub messages: u64,
    /// Link-state ads originated (`routing.floods`).
    pub floods: u64,
    /// Lazy route-table recomputations (`routing.recompute`).
    pub recomputes: u64,
    /// Establishments that won on a non-primary alternate
    /// (`routing.alternate_wins`).
    pub alternate_wins: u64,
    /// Subtransport failovers completed (`fault.recovery_latency` count).
    pub recoveries: u64,
    /// Faults injected by the drill.
    pub faults_injected: u64,
    /// Virtual seconds simulated.
    pub sim_secs: f64,
    /// Wall-clock seconds (not deterministic).
    pub wall_secs: f64,
    /// Peak interface transmit-queue depth, bytes.
    pub peak_queue_bytes: u64,
    /// Full metric-registry dump (JSON lines, deterministic ordering).
    pub registry_dump: String,
    /// Observability trace (empty unless `record_trace`).
    pub trace_dump: String,
    /// One line per semantic-oracle violation (empty when the oracle is
    /// off — and, the gate asserts, when it is on).
    pub oracle_violations: Vec<String>,
}

impl RoutingOutcome {
    /// The deterministic portion, for byte-identical replay comparison.
    pub fn determinism_digest(&self) -> String {
        format!(
            "streams={} failed={} events={} messages={} floods={} \
             recomputes={} alt_wins={} recoveries={} faults={} \
             sim_secs={:.9} peak_queue={}\n\
             --- registry ---\n{}--- trace ---\n{}",
            self.streams_opened,
            self.open_failed,
            self.events,
            self.messages,
            self.floods,
            self.recomputes,
            self.alternate_wins,
            self.recoveries,
            self.faults_injected,
            self.sim_secs,
            self.peak_queue_bytes,
            self.registry_dump,
            self.trace_dump,
        )
    }
}

/// A deterministic-delay profile that demands most of one Ethernet
/// corridor's admission budget (≈0.79 of the 1.125 MB/s deterministic
/// share), so the second such stream must fall back to the backup and
/// the third finds both corridors full.
fn heavy_profile() -> StreamProfile {
    StreamProfile {
        capacity: 40 * 1024,
        max_message: 1024,
        delay: DelayBound::deterministic(SimDuration::from_millis(50), SimDuration::from_micros(2)),
        ..StreamProfile::default()
    }
}

/// A cross-corridor voice spec: best-effort delay (no admission demand),
/// budget wide enough to survive gateway hops.
fn cross_voice(duration: SimDuration) -> MediaSpec {
    let mut spec = MediaSpec::voice(duration);
    spec.delay_budget = SimDuration::from_millis(120);
    spec.profile.delay =
        DelayBound::best_effort_with(SimDuration::from_millis(120), SimDuration::from_micros(10));
    spec
}

/// The built topology: per-site edge hosts plus the ids the fault drill
/// and probe traffic need.
struct Topo {
    /// Edge hosts grouped by LAN.
    sites: Vec<Vec<HostId>>,
    /// Total hosts including gateways.
    hosts: usize,
    /// The network the drill takes down mid-run.
    drill_target: NetworkId,
}

fn build_dumbbell(tb: &mut TopologyBuilder, hosts_per_lan: usize) -> Topo {
    let lan_a = tb.network(NetworkSpec::fast_lan("lan-a"));
    let mid_p = tb.network(NetworkSpec::ethernet("mid-primary"));
    let mid_b = tb.network(NetworkSpec::ethernet("mid-backup"));
    let lan_b = tb.network(NetworkSpec::fast_lan("lan-b"));
    let mut side_a = Vec::new();
    let mut side_b = Vec::new();
    for _ in 0..hosts_per_lan {
        side_a.push(tb.host_on(lan_a));
    }
    tb.gateway(lan_a, mid_p);
    tb.gateway(mid_p, lan_b);
    tb.gateway(lan_a, mid_b);
    tb.gateway(mid_b, lan_b);
    for _ in 0..hosts_per_lan {
        side_b.push(tb.host_on(lan_b));
    }
    Topo {
        hosts: 2 * hosts_per_lan + 4,
        sites: vec![side_a, side_b],
        drill_target: mid_p,
    }
}

fn build_mesh3x3(tb: &mut TopologyBuilder, hosts_per_lan: usize) -> Topo {
    let mut nets = Vec::new();
    let mut sites = Vec::new();
    for r in 0..3 {
        for c in 0..3 {
            let net = tb.network(NetworkSpec::ethernet(format!("lan-{r}{c}")));
            let mut hosts = Vec::new();
            for _ in 0..hosts_per_lan {
                hosts.push(tb.host_on(net));
            }
            nets.push(net);
            sites.push(hosts);
        }
    }
    let mut gateways = 0;
    for r in 0..3 {
        for c in 0..3 {
            if c + 1 < 3 {
                tb.gateway(nets[r * 3 + c], nets[r * 3 + c + 1]);
                gateways += 1;
            }
            if r + 1 < 3 {
                tb.gateway(nets[r * 3 + c], nets[(r + 1) * 3 + c]);
                gateways += 1;
            }
        }
    }
    Topo {
        hosts: 9 * hosts_per_lan + gateways,
        sites,
        // The mesh centre: every shortest corner-to-corner path crosses
        // it, so its outage forces reconvergence around the rim.
        drill_target: nets[4],
    }
}

/// Build the topology, load the population, run for `params.duration`
/// virtual seconds (plus drain grace), and collect the outcome.
pub fn run_routing(params: &RoutingParams) -> RoutingOutcome {
    let mut rng = dash_sim::rng::Rng::new(params.seed);
    let mut tb = TopologyBuilder::new();
    tb.seed(params.seed ^ 0x90e11);
    let topo = match params.topo {
        RoutingTopo::DumbbellBackup => build_dumbbell(&mut tb, params.hosts_per_lan),
        RoutingTopo::Mesh3x3 => build_mesh3x3(&mut tb, params.hosts_per_lan),
    };
    let mut builder = StackBuilder::new(tb.build()).obs(true);
    let (sink, trace_buf) = TraceSink::new();
    if params.record_trace {
        builder = builder.obs_sink(sink);
    }
    let mut sim = Sim::new(builder.build());
    // Det-delay stays on: the outage drill's first fault event
    // self-excuses the backlog that drains late across the failover.
    let oracle_handle = params.oracle.then(|| attach_oracle(&mut sim, true));
    let all_hosts: Vec<HostId> = topo.sites.iter().flatten().copied().collect();
    let taps = Dispatcher::install(&mut sim, &all_hosts);

    let sites = &topo.sites;
    let n_sites = sites.len();
    let hpl = params.hosts_per_lan;
    let mut media: Vec<Rc<RefCell<MediaStats>>> = Vec::new();

    // Long-lived voice crossing the internetwork (site i → the "far"
    // site), best-effort so only the heavies exercise admission.
    for v in 0..params.voice_pairs {
        let sl = v % n_sites;
        let dl = (sl + n_sites / 2 + 1 + v % (n_sites - 1)) % n_sites;
        let dl = if dl == sl { (dl + 1) % n_sites } else { dl };
        let src = sites[sl][v % hpl];
        let dst = sites[dl][(v / n_sites + 1) % hpl];
        media.push(start_media(
            &mut sim,
            &taps,
            src,
            dst,
            cross_voice(params.duration),
            rng.next_u64(),
        ));
    }

    // Heavy deterministic streams between distinct corner pairs: the
    // first fills the primary corridor, the second is NAK'd there and
    // wins on the backup, later ones find every alternate full.
    for h in 0..params.heavy_streams {
        let src = sites[0][h % hpl];
        let dst = sites[n_sites - 1][(h + 1) % hpl];
        let mut spec = cross_voice(params.duration);
        spec.profile = heavy_profile();
        spec.frame_bytes = 512;
        spec.interval = SimDuration::from_millis(25);
        media.push(start_media(&mut sim, &taps, src, dst, spec, rng.next_u64()));
    }

    // Churn waves: short-lived sessions between rotating cross-site
    // pairs, so establishment (and its alternate walk) keeps happening
    // while the topology changes underneath it.
    let churned: Rc<RefCell<Vec<Rc<RefCell<MediaStats>>>>> = Rc::new(RefCell::new(Vec::new()));
    if params.churn_per_wave > 0 {
        schedule_churn_wave(
            &mut sim,
            &taps,
            topo.sites.clone(),
            params.clone(),
            Rc::clone(&churned),
            rng.fork(0xc4u64),
            0,
        );
    }

    // Datagram probes: table-routed traffic between the extreme sites.
    // Floods and RMS traffic never consult the route table (they are
    // source-routed or pinned), so these probes are what turns
    // "routes marked dirty" into counted lazy recomputations.
    schedule_probe(
        &mut sim,
        topo.sites.clone(),
        params.probe_interval,
        params.duration,
    );

    // Mid-run outage drill: the primary corridor (dumbbell) or the mesh
    // centre goes dark, then heals — reconvergence, alternate re-homing
    // and recovery latency are all part of the measurement.
    let mut faults = 0u64;
    if params.fault_drill {
        let half =
            SimTime::ZERO.saturating_add(SimDuration::from_nanos(params.duration.as_nanos() / 2));
        let heal = half.saturating_add(SimDuration::from_millis(150));
        let plan = FaultPlan::new()
            .at(
                half,
                FaultKind::NetworkDown {
                    network: topo.drill_target.0,
                },
            )
            .at(
                heal,
                FaultKind::NetworkUp {
                    network: topo.drill_target.0,
                },
            );
        faults = plan.events.len() as u64;
        schedule_fault_plan(&mut sim, &plan);
    }

    let started = Instant::now();
    let horizon = SimTime::ZERO
        .saturating_add(params.duration)
        .saturating_add(SimDuration::from_millis(400));
    sim.run_until(horizon);
    let wall_secs = started.elapsed().as_secs_f64();

    let mut streams_opened = 0u64;
    let mut open_failed = 0u64;
    let churn_sessions = churned.borrow();
    for m in media.iter().chain(churn_sessions.iter()) {
        if m.borrow().failed {
            open_failed += 1;
        } else {
            streams_opened += 1;
        }
    }

    let peak_queue_bytes = sim
        .state
        .net
        .hosts
        .iter()
        .flat_map(|h| h.ifaces.iter())
        .map(|i| i.stats.max_queued_bytes)
        .max()
        .unwrap_or(0);

    let registry = &mut sim.state.net.obs.registry;
    let messages = registry.counter_value("st.deliver");
    let floods = registry.counter_value("routing.floods");
    let recomputes = registry.counter_value("routing.recompute");
    let alternate_wins = registry.counter_value("routing.alternate_wins");
    let recoveries = registry.histogram("fault.recovery_latency").count() as u64;
    let registry_dump = registry.to_json_lines();
    let trace_dump = trace_buf.borrow().clone();

    RoutingOutcome {
        hosts: topo.hosts,
        streams_opened,
        open_failed,
        events: sim.events_processed(),
        messages,
        floods,
        recomputes,
        alternate_wins,
        recoveries,
        faults_injected: faults,
        sim_secs: sim.now().as_secs_f64(),
        wall_secs,
        peak_queue_bytes,
        registry_dump,
        trace_dump,
        oracle_violations: oracle_handle
            .as_ref()
            .map_or_else(Vec::new, violation_lines),
    }
}

fn schedule_churn_wave(
    sim: &mut Sim<Stack>,
    taps: &Dispatcher,
    sites: Vec<Vec<HostId>>,
    params: RoutingParams,
    sink: Rc<RefCell<Vec<Rc<RefCell<MediaStats>>>>>,
    mut rng: dash_sim::rng::Rng,
    wave: usize,
) {
    let end = SimTime::ZERO.saturating_add(params.duration);
    if sim
        .now()
        .saturating_add(params.churn_interval)
        .saturating_add(SimDuration::from_millis(250))
        >= end
    {
        return;
    }
    let taps = taps.clone();
    let interval = params.churn_interval;
    sim.schedule_in(interval, move |sim| {
        let n = sites.len();
        let hpl = params.hosts_per_lan;
        for c in 0..params.churn_per_wave {
            let sl = (wave + c) % n;
            let dl = (sl + 1 + (wave * 2 + c) % (n - 1).max(1)) % n;
            if dl == sl {
                continue;
            }
            let src = sites[sl][(wave * 3 + c) % hpl];
            let dst = sites[dl][(wave + 2 * c) % hpl];
            if src == dst {
                continue;
            }
            let mut spec = cross_voice(SimDuration::from_millis(150));
            spec.interval = SimDuration::from_millis(40);
            spec.profile.capacity = 4 * 1024;
            let stats = start_media(sim, &taps, src, dst, spec, rng.next_u64());
            sink.borrow_mut().push(stats);
        }
        schedule_churn_wave(sim, &taps, sites, params, sink, rng, wave + 1);
    });
}

fn schedule_probe(
    sim: &mut Sim<Stack>,
    sites: Vec<Vec<HostId>>,
    interval: SimDuration,
    duration: SimDuration,
) {
    let end = SimTime::ZERO.saturating_add(duration);
    if sim.now().saturating_add(interval) >= end {
        return;
    }
    sim.schedule_in(interval, move |sim| {
        let a = sites[0][0];
        let b = *sites[sites.len() - 1].last().unwrap();
        send_datagram(sim, a, b, 0x90e1, Bytes::from_static(b"probe").into());
        send_datagram(sim, b, a, 0x90e1, Bytes::from_static(b"probe").into());
        schedule_probe(sim, sites, interval, duration);
    });
}

/// e11_routing — QoS routing under saturation, churn and faults.
///
/// Claim: link-state dissemination plus constrained alternate selection
/// turns admission refusals and mid-run outages into re-homed paths
/// (alternate wins, bounded reconvergence work) instead of failed or
/// stalled sessions.
pub fn e11_routing() -> Table {
    let mut t = Table::new(
        "e11_routing",
        "QoS routing: dumbbell-with-backup saturation + 3x3 mesh under churn, mid-run outage drill",
        "alternates absorb admission refusals and outages; reconvergence work stays bounded and deterministic",
    );
    t.columns(&[
        "topology",
        "opened",
        "refused",
        "alt wins",
        "floods",
        "recomputes",
        "failovers",
        "msgs delivered",
        "events",
    ]);
    for topo in [RoutingTopo::DumbbellBackup, RoutingTopo::Mesh3x3] {
        let mut p = RoutingParams::ci();
        p.topo = topo;
        p.record_trace = false;
        let o = run_routing(&p);
        t.row(vec![
            topo.label().to_string(),
            o.streams_opened.to_string(),
            o.open_failed.to_string(),
            o.alternate_wins.to_string(),
            o.floods.to_string(),
            o.recomputes.to_string(),
            o.recoveries.to_string(),
            o.messages.to_string(),
            o.events.to_string(),
        ]);
    }
    t.note("alt wins = establishments NAK'd on the primary that succeeded on a k-alternate path");
    t.note(
        "floods/recomputes are event-triggered: they spike at the outage and heal, not per-packet",
    );
    t.note("both rows are pinned exactly by tests/determinism.rs; wall and allocation numbers are dash-benchmark's mesh-churn workload");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_dumbbell_exercises_alternates_and_reconvergence() {
        let p = RoutingParams::ci();
        let a = run_routing(&p);
        assert!(a.streams_opened > 5, "opened {}", a.streams_opened);
        assert!(a.alternate_wins >= 1, "alt wins {}", a.alternate_wins);
        assert!(a.floods > 0, "floods {}", a.floods);
        assert!(a.recomputes > 0, "recomputes {}", a.recomputes);
        assert!(a.recoveries > 0, "recoveries {}", a.recoveries);
        assert_eq!(a.faults_injected, 2);
        let b = run_routing(&p);
        assert_eq!(a.determinism_digest(), b.determinism_digest());
    }

    #[test]
    fn ci_mesh_reconverges_around_centre_outage() {
        let p = RoutingParams::ci().on_mesh();
        let a = run_routing(&p);
        assert!(a.streams_opened > 5, "opened {}", a.streams_opened);
        assert!(a.floods > 0, "floods {}", a.floods);
        assert!(a.recomputes > 0, "recomputes {}", a.recomputes);
        let b = run_routing(&p);
        assert_eq!(a.determinism_digest(), b.determinism_digest());
    }
}
