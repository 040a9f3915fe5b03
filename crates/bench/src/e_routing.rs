//! e11_routing — the QoS-routing macro-workload, as a plan for
//! [`dash_apps::scenario::run`].
//!
//! Exercises the distributed routing subsystem end to end on the two
//! topologies the design calls out: a **dumbbell with a backup middle**
//! (two fast LANs joined by parallel single-Ethernet corridors, where
//! admission on the primary corridor saturates and establishment must
//! fall back to the backup) and a **3×3 mesh of LANs** joined by
//! gateways, run under session churn with a mid-run outage of the mesh
//! centre. Both runs count the subsystem's observable work — link-state
//! floods, lazy route recomputations, alternate-path wins, subtransport
//! failovers — in the one `Outcome`, and those counts are
//! deterministic, so `tests/determinism.rs` pins them at the CI size.
//! Only the topology programs, the plan, the presets and the table live
//! here; running it — on any backend — is `mix --size e11-ci|e11-mesh-ci|e11|e11-mesh`.

use dash_apps::scenario::{run, Backend, Scenario};
use dash_apps::traffic::{Class, Flow, Plan, Probe};
use dash_net::state::NetState;
use dash_net::topology::{mesh3x3, TopologyBuilder};
use dash_net::{HostId, NetworkId, NetworkSpec};
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::mix::outage_drill;
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

/// Knobs for one routing run; [`RoutingParams::scenario`] plans it.
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
    /// Virtual duration of the run (a 400 ms drain grace follows).
    pub duration: SimDuration,
    /// Seed of the topology's wire randomness and of the backends.
    pub seed: u64,
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
        }
    }

    /// Scaled-down CI size, for the golden determinism test.
    pub fn ci() -> Self {
        RoutingParams {
            hosts_per_lan: 3,
            voice_pairs: 6,
            heavy_streams: 3,
            churn_per_wave: 3,
            churn_interval: SimDuration::from_millis(150),
            probe_interval: SimDuration::from_millis(100),
            duration: SimDuration::from_millis(800),
            ..RoutingParams::full()
        }
    }

    /// The same size, on the mesh topology.
    pub fn on_mesh(mut self) -> Self {
        self.topo = RoutingTopo::Mesh3x3;
        self
    }

    /// Plan the run: a pure function of the parameters.
    pub fn scenario(&self) -> Scenario {
        let (_, sites, drill_target) = build_topo(self);
        let program = self.clone();
        Scenario {
            plan: Plan {
                flows: plan_flows(self, &sites),
                rpcs: Vec::new(),
                // Table-routed traffic between the extreme sites.
                probes: vec![Probe {
                    a: sites[0][0],
                    b: sites[sites.len() - 1][self.hosts_per_lan - 1],
                    interval: self.probe_interval,
                    end: self.duration,
                }],
            },
            // The primary corridor (dumbbell) or the mesh centre goes
            // dark, then heals: reconvergence, alternate re-homing and
            // recovery latency are all part of the measurement.
            faults: outage_drill(self.duration, drill_target),
            // No aligned placement exists here: every gateway sits on two
            // LANs, so any multi-shard plan splits an Ethernet and the
            // `Par` epoch is its wire delay wherever the hosts land.
            groups: Vec::new(),
            topo: Box::new(move || build_topo(&program).0),
            seed: self.seed,
            horizon: SimTime::ZERO
                .saturating_add(self.duration)
                .saturating_add(SimDuration::from_millis(400)),
            cpus: false,
            record_trace: false,
            keep_events: false,
        }
    }
}

/// The topology program: the network state, the edge hosts by LAN and the
/// network the drill takes down mid-run — identical on every call.
fn build_topo(p: &RoutingParams) -> (NetState, Vec<Vec<HostId>>, NetworkId) {
    let mut tb = TopologyBuilder::new();
    tb.seed(p.seed ^ 0x90e11);
    let (sites, drill_target) = match p.topo {
        RoutingTopo::DumbbellBackup => build_dumbbell(&mut tb, p.hosts_per_lan),
        RoutingTopo::Mesh3x3 => {
            // The drill takes the mesh centre: every shortest
            // corner-to-corner path crosses it, so its outage forces
            // reconvergence around the rim.
            let (nets, sites) = mesh3x3(&mut tb, p.hosts_per_lan);
            (sites, nets[4])
        }
    };
    (tb.build(), sites, drill_target)
}

fn lan(tb: &mut TopologyBuilder, net: NetworkId, hosts: usize) -> Vec<HostId> {
    (0..hosts).map(|_| tb.host_on(net)).collect()
}

fn build_dumbbell(tb: &mut TopologyBuilder, hosts_per_lan: usize) -> (Vec<Vec<HostId>>, NetworkId) {
    let lan_a = tb.network(NetworkSpec::fast_lan("lan-a"));
    let mid_p = tb.network(NetworkSpec::ethernet("mid-primary"));
    let mid_b = tb.network(NetworkSpec::ethernet("mid-backup"));
    let lan_b = tb.network(NetworkSpec::fast_lan("lan-b"));
    let side_a = lan(tb, lan_a, hosts_per_lan);
    tb.gateway(lan_a, mid_p);
    tb.gateway(mid_p, lan_b);
    tb.gateway(lan_a, mid_b);
    tb.gateway(mid_b, lan_b);
    let side_b = lan(tb, lan_b, hosts_per_lan);
    (vec![side_a, side_b], mid_p)
}

/// The stream population: a pure function of the parameters and the ids.
fn plan_flows(p: &RoutingParams, sites: &[Vec<HostId>]) -> Vec<Flow> {
    let n = sites.len();
    let hpl = p.hosts_per_lan;
    let mut flows = Vec::new();

    // Long-lived voice crossing the internetwork (site i → the "far"
    // site), best-effort so only the heavies exercise admission.
    for v in 0..p.voice_pairs {
        let sl = v % n;
        let dl = (sl + n / 2 + 1 + v % (n - 1)) % n;
        let dl = if dl == sl { (dl + 1) % n } else { dl };
        let (src, dst) = (sites[sl][v % hpl], sites[dl][(v / n + 1) % hpl]);
        flows.push(Flow::wan_voice(src, dst, v, p.duration));
    }

    // Heavy deterministic streams between the extreme sites, 10 ms apart
    // so each establishment sees its predecessors' reservations: the
    // first fills the primary corridor, the second is NAK'd there and
    // wins on the backup, later ones find every alternate full. Each
    // demands most of one Ethernet's admission budget: capacity over the
    // 50 ms bound is ≈0.79 of the 1.125 MB/s deterministic share.
    let heavy_interval = SimDuration::from_millis(25);
    let heavy_bound = SimDuration::from_millis(50);
    for h in 0..p.heavy_streams {
        flows.push(Flow {
            class: Class::Heavy,
            src: sites[0][h % hpl],
            dst: sites[n - 1][(h + 1) % hpl],
            start: SimDuration::from_millis(10 * (h as u64 + 1)),
            count: (p.duration.as_nanos() / heavy_interval.as_nanos()).max(1),
            interval: heavy_interval,
            len: 512,
            profile: StreamProfile {
                capacity: 40 * 1024,
                max_message: 1024,
                delay: DelayBound::deterministic(heavy_bound, SimDuration::from_micros(2)),
                ..StreamProfile::default()
            },
            budget: heavy_bound,
        });
    }

    // Churn waves: short-lived sessions between rotating cross-site
    // pairs, so establishment (and its alternate walk) keeps happening
    // while the topology changes underneath it. The last wave starts
    // early enough for its four frames to drain inside the run.
    let tail = SimDuration::from_millis(250).as_nanos();
    for w in 0.. {
        let t = p.churn_interval.as_nanos() * (w as u64 + 1);
        if t + tail >= p.duration.as_nanos() {
            break;
        }
        for c in 0..p.churn_per_wave {
            let sl = (w + c) % n;
            let dl = (sl + 1 + (w * 2 + c) % (n - 1).max(1)) % n;
            let (src, dst) = (sites[sl][(w * 3 + c) % hpl], sites[dl][(w + 2 * c) % hpl]);
            if dl == sl || src == dst {
                continue;
            }
            flows.push(Flow::churn(src, dst, SimDuration::from_nanos(t)));
        }
    }
    flows
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
    for (label, topo) in [
        ("dumbbell", RoutingTopo::DumbbellBackup),
        ("mesh", RoutingTopo::Mesh3x3),
    ] {
        let p = RoutingParams {
            topo,
            ..RoutingParams::ci()
        };
        let o = run(&p.scenario(), Backend::Serial);
        t.row(vec![
            label.to_string(),
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
