//! mix — the e10/e12/e13 macro-workload as a plan for
//! [`dash_apps::scenario::run`].
//!
//! The workload language ([`dash_apps::traffic`]: flows, RKOM pairs,
//! probes, the per-endpoint driver) and the runner
//! ([`dash_apps::scenario`]: `Scenario`, `Backend`, `run`, `Outcome`) are
//! library code in `dash-apps`; the verdict on a run's event stream is
//! [`dash_check::check_stream`]. What lives here is what is specific to
//! this experiment family: [`MixParams`] and its presets, the pure plan
//! function [`MixParams::scenario`] (edge LANs joined by a WAN backbone
//! carrying mostly intra-LAN voice with a WAN-crossing slice, reliable
//! bulk transfers, cross-LAN RKOM calls, churn waves of short-lived
//! sessions and a mid-run fault drill), its topology program and drill,
//! and the e10 (serial engine), e12 (`dash-par`) and e13 (`dash-rt`)
//! tables. `RoutingParams::scenario` in [`crate::e_routing`] is the other
//! plan function (e11). Wall-clock, allocation and per-layer measurements
//! of this workload live in `dash-benchmark`.

use dash_apps::scenario::{run, Backend, Scenario};
use dash_apps::traffic::{Flow, Plan, RpcFlow};
use dash_check::check_stream;
use dash_net::ids::{HostId, NetworkId};
use dash_net::state::NetState;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::rng::Rng;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stream::StreamProfile;

use crate::table::{f, pct, Table};

// ---------------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------------

/// Knobs of the e10/e12/e13 population; [`MixParams::scenario`] plans it.
/// Under [`Backend::Serial`] and [`Backend::Par`] everything in the
/// outcome but `wall_secs` is a deterministic function of these.
#[derive(Debug, Clone)]
pub struct MixParams {
    /// Edge LANs hanging off the WAN backbone.
    pub lans: usize,
    /// Hosts per LAN (the LAN's gateway is extra). Must be at least 2.
    pub hosts_per_lan: usize,
    /// Every k-th LAN is a 100 Mb/s fast LAN instead of 10 Mb/s Ethernet.
    pub fast_every: usize,
    /// Long-lived voice sessions originating per LAN.
    pub voice_per_lan: usize,
    /// Bulk transfers per LAN.
    pub bulk_per_lan: usize,
    /// RPC client/server pairs per LAN (cross-LAN over the WAN).
    pub rpc_per_lan: usize,
    /// Fraction of voice sessions that cross the WAN (admission pressure).
    pub cross_fraction: f64,
    /// Short-lived sessions opened per churn wave (RMS cache churn).
    pub churn_per_wave: usize,
    /// Interval between churn waves.
    pub churn_interval: SimDuration,
    /// Total payload bytes per bulk transfer (4 KiB chunks).
    pub bulk_bytes: u64,
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// Drain grace after `duration` (the horizon is their sum).
    pub grace: SimDuration,
    /// Seed for placement, source randomness and the rt loss hash.
    pub seed: u64,
    /// Run the mid-run fault drill (see [`MixParams::wan_outage`]).
    pub fault_drill: bool,
    /// Drill variant: take the WAN backbone down instead of one LAN +
    /// one host. With [`MixParams::backup_wan`] this exercises the
    /// routing subsystem's alternate-path failover.
    pub wan_outage: bool,
    /// Add a second long-haul network bridging LAN 0 to the WAN, so a
    /// WAN outage has an alternate path to fail over to.
    pub backup_wan: bool,
}

impl MixParams {
    /// The large size: 300 hosts, thousands of concurrent ST streams.
    pub fn full() -> Self {
        MixParams {
            lans: 20,
            hosts_per_lan: 14,
            fast_every: 4,
            voice_per_lan: 100,
            bulk_per_lan: 6,
            rpc_per_lan: 4,
            cross_fraction: 0.06,
            churn_per_wave: 20,
            churn_interval: SimDuration::from_millis(250),
            bulk_bytes: 256 * 1024,
            duration: SimDuration::from_secs(2),
            grace: SimDuration::from_millis(500),
            seed: 10,
            fault_drill: true,
            wan_outage: false,
            backup_wan: false,
        }
    }

    /// Scaled-down CI size, for the golden determinism tests.
    pub fn ci() -> Self {
        MixParams {
            lans: 3,
            hosts_per_lan: 4,
            fast_every: 2,
            voice_per_lan: 6,
            bulk_per_lan: 2,
            rpc_per_lan: 1,
            cross_fraction: 0.25,
            churn_per_wave: 3,
            churn_interval: SimDuration::from_millis(200),
            bulk_bytes: 64 * 1024,
            duration: SimDuration::from_secs(1),
            ..MixParams::full()
        }
    }

    /// The e11-flavored CI variant: a backup long-haul path plus a
    /// mid-run WAN outage, so link-state floods, route recomputations,
    /// and the failover all cross shard boundaries under `Par`.
    pub fn routing_ci() -> Self {
        MixParams {
            wan_outage: true,
            backup_wan: true,
            ..MixParams::ci()
        }
    }

    /// A 150 ms size for hashed (LAN-splitting) placement, whose epochs
    /// are bounded by the LAN wire delay — thousands of barriers, so the
    /// workload must be tiny — and for cross-backend tests that pay the
    /// rt backend's wall time.
    pub fn micro() -> Self {
        MixParams {
            lans: 2,
            hosts_per_lan: 3,
            fast_every: 0,
            voice_per_lan: 3,
            bulk_per_lan: 1,
            rpc_per_lan: 1,
            cross_fraction: 0.5,
            churn_per_wave: 0,
            bulk_bytes: 16 * 1024,
            duration: SimDuration::from_millis(60),
            grace: SimDuration::from_millis(90),
            fault_drill: false,
            ..MixParams::ci()
        }
    }

    /// Plan the run: a pure function of the parameters.
    pub fn scenario(&self) -> Scenario {
        let topo = build_topo(self).1;
        let program = self.clone();
        Scenario {
            faults: make_fault_plan(self, &topo),
            plan: plan_population(self, &topo.lan_hosts),
            groups: topo.groups,
            topo: Box::new(move || build_topo(&program).0),
            seed: self.seed,
            horizon: SimTime::ZERO
                .saturating_add(self.duration)
                .saturating_add(self.grace),
            cpus: true,
            record_trace: false,
            keep_events: false,
        }
    }
}

// ---------------------------------------------------------------------------
// The flow plan
// ---------------------------------------------------------------------------

const BULK_CHUNK: u64 = 4 * 1024;
const RPC_INTERVAL: SimDuration = SimDuration::from_millis(25);

/// Compute the full traffic plan: a pure function of the parameters, so
/// every world of a run computes the identical plan.
fn plan_population(p: &MixParams, lan_hosts: &[Vec<HostId>]) -> Plan {
    assert!(p.hosts_per_lan >= 2, "need at least 2 hosts per LAN");
    let mut rng = Rng::new(p.seed);
    let mut flows = Vec::new();
    let mut rpcs = Vec::new();
    let hpl = p.hosts_per_lan;
    for l in 0..p.lans {
        for v in 0..p.voice_per_lan {
            let src = lan_hosts[l][v % hpl];
            let cross = rng.chance(p.cross_fraction);
            let (dst, voice): (_, fn(_, _, _, _) -> Flow) = if cross && p.lans > 1 {
                let ol = (l + 1 + rng.below(p.lans as u64 - 1) as usize) % p.lans;
                (
                    lan_hosts[ol][rng.below(hpl as u64) as usize],
                    Flow::wan_voice,
                )
            } else {
                let mut d = (v + 1 + rng.below(hpl as u64 - 1) as usize) % hpl;
                if lan_hosts[l][d] == src {
                    d = (d + 1) % hpl;
                }
                (lan_hosts[l][d], Flow::voice)
            };
            if dst == src {
                continue;
            }
            flows.push(voice(src, dst, v, p.duration));
        }
        for b in 0..p.bulk_per_lan {
            let src = lan_hosts[l][b % hpl];
            let dst = lan_hosts[l][(b + hpl / 2) % hpl];
            if src == dst {
                continue;
            }
            flows.push(Flow {
                start: SimDuration::from_millis(1),
                ..Flow::bulk(src, dst, p.bulk_bytes, BULK_CHUNK, StreamProfile::bulk())
            });
        }
        for r in 0..p.rpc_per_lan {
            let client = lan_hosts[l][r % hpl];
            let server = lan_hosts[(l + 1) % p.lans][r % hpl];
            if client == server {
                continue;
            }
            rpcs.push(RpcFlow {
                client,
                server,
                service: (100 + l * p.rpc_per_lan + r) as u16,
                calls: (p.duration.as_nanos() / RPC_INTERVAL.as_nanos()).max(1),
                interval: RPC_INTERVAL,
                start: SimDuration::from_millis(2),
                request: 4,
                reply: 4,
            });
        }
    }
    // Churn waves: short-lived cross-site sessions between rotating
    // pairs, so each wave talks to fresh peers and the subtransport's
    // per-peer RMS cache fills and evicts (§4.2 caching).
    if p.churn_per_wave > 0 {
        let end = p.duration.as_nanos();
        let mut w = 0usize;
        loop {
            let t = p.churn_interval.as_nanos() * (w as u64 + 1);
            if t + SimDuration::from_millis(300).as_nanos() >= end {
                break;
            }
            for c in 0..p.churn_per_wave {
                let l = (w * 3 + c) % p.lans;
                let ol = (l + 1 + (w + c) % p.lans.max(2).saturating_sub(1)) % p.lans;
                let src = lan_hosts[l][(w + c) % hpl];
                let dst = lan_hosts[ol][(w * 2 + c) % hpl];
                if src == dst {
                    continue;
                }
                flows.push(Flow::churn(src, dst, SimDuration::from_nanos(t)));
            }
            w += 1;
        }
    }
    Plan {
        flows,
        rpcs,
        probes: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Topology and fault drill
// ---------------------------------------------------------------------------

/// Host/network ids of one built topology — identical in every world of
/// a run, because every world runs the same builder program.
struct Topo {
    lan_hosts: Vec<Vec<HostId>>,
    lan_ids: Vec<NetworkId>,
    wan: NetworkId,
    /// One shard group per LAN: its hosts and gateway, with the backup-WAN
    /// bridges riding with LAN 0, so no LAN ever spans shards and the
    /// epoch stays at the WAN delay.
    groups: Vec<Vec<u32>>,
}

fn build_topo(p: &MixParams) -> (NetState, Topo) {
    let mut tb = TopologyBuilder::new();
    tb.seed(p.seed ^ 0x5ca1e);
    let wan = tb.network(NetworkSpec::long_haul("wan"));
    let mut lan_ids = Vec::new();
    let mut lan_hosts = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for l in 0..p.lans {
        let spec = if p.fast_every > 0 && l % p.fast_every == p.fast_every - 1 {
            NetworkSpec::fast_lan(format!("fast-{l}"))
        } else {
            NetworkSpec::ethernet(format!("lan-{l}"))
        };
        let net = tb.network(spec);
        lan_ids.push(net);
        let mut hosts = Vec::new();
        for _ in 0..p.hosts_per_lan {
            hosts.push(tb.host_on(net));
        }
        let gateway = tb.gateway(net, wan);
        groups.push(hosts.iter().chain([&gateway]).map(|h| h.0).collect());
        lan_hosts.push(hosts);
    }
    if p.backup_wan {
        // A second long-haul path from LAN 0 to the backbone, so a WAN
        // outage has somewhere to fail over to.
        let wan2 = tb.network(NetworkSpec::long_haul("wan2"));
        groups[0].push(tb.gateway(lan_ids[0], wan2).0);
        groups[0].push(tb.gateway(wan, wan2).0);
    }
    let topo = Topo {
        lan_hosts,
        lan_ids,
        wan,
        groups,
    };
    (tb.build(), topo)
}

/// When a mid-run drill strikes and heals: half of `duration`, and 150 ms
/// later — well before the run ends, so recovery is part of the
/// measurement.
fn drill_window(duration: SimDuration) -> (SimTime, SimTime) {
    let half = SimTime::ZERO.saturating_add(SimDuration::from_nanos(duration.as_nanos() / 2));
    (half, half.saturating_add(SimDuration::from_millis(150)))
}

/// The mid-run outage drill: `network` goes down at half of `duration`
/// and comes back 150 ms later.
pub fn outage_drill(duration: SimDuration, network: NetworkId) -> FaultPlan {
    let (half, heal) = drill_window(duration);
    FaultPlan::new()
        .at(half, FaultKind::NetworkDown { network: network.0 })
        .at(heal, FaultKind::NetworkUp { network: network.0 })
}

/// The mix's drill: the WAN, or one LAN plus one host, goes down at half
/// time and heals 150 ms later. Empty without `fault_drill`.
fn make_fault_plan(p: &MixParams, topo: &Topo) -> FaultPlan {
    if !p.fault_drill {
        return FaultPlan::new();
    }
    if p.wan_outage {
        return outage_drill(p.duration, topo.wan);
    }
    let (half, heal) = drill_window(p.duration);
    let dark_lan = topo.lan_ids[p.lans / 2].0;
    let victim = topo.lan_hosts[0][p.hosts_per_lan - 1].0;
    FaultPlan::new()
        .at(half, FaultKind::NetworkDown { network: dark_lan })
        .at(half, FaultKind::HostCrash { host: victim })
        .at(heal, FaultKind::NetworkUp { network: dark_lan })
        .at(heal, FaultKind::HostRestart { host: victim })
}

// ---------------------------------------------------------------------------
// The experiment tables
// ---------------------------------------------------------------------------

/// e10_scale — scaling shape at increasing stream populations.
///
/// Claim: delivered throughput scales ~linearly with the offered stream
/// population until capacity admission binds (WAN-crossing sessions start
/// being refused), after which refusals grow instead of load.
pub fn e10_scale() -> Table {
    let mut t = Table::new(
        "e10_scale",
        "macro-workload: mixed voice/bulk/RPC over many LANs + WAN",
        "throughput scales ~linearly with streams until capacity admission binds",
    );
    t.columns(&[
        "streams offered",
        "opened",
        "refused",
        "msgs delivered",
        "voice on-time",
        "events",
        "peak queue",
    ]);
    for scale in [1usize, 2, 4] {
        let p = MixParams {
            lans: 4,
            hosts_per_lan: 5,
            voice_per_lan: 6 * scale,
            cross_fraction: 0.35,
            bulk_bytes: 256 * 1024,
            churn_per_wave: 0,
            fault_drill: false,
            ..MixParams::ci()
        };
        let o = run(&p.scenario(), Backend::Serial);
        t.row(vec![
            (p.lans * (p.voice_per_lan + p.bulk_per_lan)).to_string(),
            o.streams_opened.to_string(),
            o.open_failed.to_string(),
            o.messages.to_string(),
            pct(o.voice_on_time()),
            o.events.to_string(),
            format!("{} B", f(o.peak_queue_bytes as f64)),
        ]);
    }
    t.note("refusals are WAN admission at work: offered load beyond the long-haul capacity is rejected, not queued");
    t.note("the 300-host size is `mix --size full`; its wall, allocation and per-layer numbers are dash-benchmark's mixed-scale workload");
    t
}

/// e12_pscale — shard-count invariance of the parallel executor.
///
/// Claim: the merged outcome of the conservative parallel run is
/// byte-identical from 1 shard to P shards; threads change wall-clock
/// only.
pub fn e12_pscale() -> Table {
    let mut t = Table::new(
        "e12_pscale",
        "e10 macro-workload on the conservative parallel executor",
        "P-shard runs merge byte-identical to the 1-shard run; threads change wall-clock only",
    );
    t.columns(&[
        "shards",
        "events",
        "msgs",
        "opened",
        "refused",
        "digest vs 1 shard",
        "wall s",
    ]);
    let mut reference: Option<String> = None;
    for shards in [1u32, 2, 4] {
        let o = run(
            &MixParams::ci().scenario(),
            Backend::Par {
                shards,
                lan_aligned: true,
            },
        );
        let digest = o.determinism_digest();
        let verdict = match &reference {
            None => {
                reference = Some(digest);
                "reference"
            }
            Some(r) if *r == digest => "identical",
            Some(_) => "DIVERGED",
        };
        t.row(vec![
            shards.to_string(),
            o.events.to_string(),
            o.messages.to_string(),
            o.streams_opened.to_string(),
            o.open_failed.to_string(),
            verdict.to_string(),
            format!("{:.2}", o.wall_secs),
        ]);
    }
    t.note("serial reference = the same LP machinery at 1 shard; the single-world engine (e10) is a different (equally valid) schedule of the same plan");
    t.note("speedup per core is measured by dash-benchmark's mixed-par workload, not here");
    t
}

/// e13_rt — the stack on wall-clock time.
///
/// Claim: the unchanged protocol stack runs in real time on `dash-rt`
/// with the oracle clean, voice mostly on time, and — with substrate loss
/// injected — drops demonstrably exercised and still zero violations.
pub fn e13_rt() -> Table {
    let mut t = Table::new(
        "e13_rt",
        "macro-workload on the real-time backend (wall pacing + datagram substrate)",
        "the unchanged stack runs at wall-clock speed: oracle clean, lateness measured not hidden",
    );
    t.columns(&[
        "loss",
        "wall s",
        "sim s",
        "msgs",
        "voice on-time",
        "misses",
        "dropped",
        "stop",
        "oracle",
    ]);
    for loss_per_mille in [0u32, 20] {
        let scenario = Scenario {
            keep_events: true,
            ..MixParams::ci().scenario()
        };
        let o = run(&scenario, Backend::Rt { loss_per_mille });
        let rt = o.rt.as_ref().expect("an rt run carries its report");
        let violations = check_stream(&o.stream, false);
        t.row(vec![
            format!("{:.1}%", loss_per_mille as f64 / 10.0),
            format!("{:.2}", o.wall_secs),
            format!("{:.2}", o.sim_secs),
            o.messages.to_string(),
            pct(o.voice_on_time()),
            rt.deadline_misses.to_string(),
            rt.substrate_dropped.to_string(),
            format!("{:?}", rt.stop).to_lowercase(),
            if violations.is_empty() {
                "clean".into()
            } else {
                format!("{} VIOLATIONS", violations.len())
            },
        ]);
    }
    t.note("wall ≈ sim by construction: the monotonic driver paces events, so this table costs real seconds");
    t.note("loss touches only best-effort carriage (reliability contract); control plane and reliable RMSs cross lossless");
    t.note("counts are not deterministic here (real carriage timing feeds back into the schedule); the oracle verdict and the stop reason are the gated facts");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_apps::traffic::{self, Class, CLASSES};
    use dash_sim::Sim;
    use dash_transport::stack::StackBuilder;

    fn par(shards: u32, lan_aligned: bool) -> Backend {
        Backend::Par {
            shards,
            lan_aligned,
        }
    }

    #[test]
    fn hashed_placement_matches_aligned() {
        // Hashed placement splits LANs across shards, shrinking epochs
        // to the LAN wire delay — tiny workload, same digest.
        let p = MixParams::micro().scenario();
        let a = run(&p, par(1, false));
        assert!(a.messages > 20, "messages {}", a.messages);
        let b = run(&p, par(3, false));
        assert_eq!(a.determinism_digest(), b.determinism_digest());
        let c = run(&p, par(3, true));
        assert_eq!(a.determinism_digest(), c.determinism_digest());
    }

    #[test]
    fn oracle_is_clean_on_the_merged_stream() {
        let scenario = Scenario {
            keep_events: true,
            ..MixParams::ci().scenario()
        };
        let o = run(&scenario, par(2, true));
        let violations = check_stream(&o.stream, true);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// A transfer larger than the bulk profile's 256 KiB receive buffer
    /// completes: the driver's sink consumes at delivery. (Before it did,
    /// every flow stalled at 64 chunks, at any size above the buffer.)
    #[test]
    fn bulk_larger_than_the_receive_buffer_delivers_every_chunk() {
        let p = MixParams {
            bulk_bytes: 1 << 20,
            churn_per_wave: 0,
            fault_drill: false,
            // Two 1 MiB transfers share each 10 Mb/s LAN: ~2 s of wire.
            duration: SimDuration::from_secs(4),
            grace: SimDuration::from_secs(2),
            ..MixParams::ci()
        };
        let scenario = p.scenario();
        let bulk = Class::Bulk as usize;
        let planned: u64 = scenario
            .plan
            .flows
            .iter()
            .filter(|f| f.class == Class::Bulk)
            .map(|f| f.count)
            .sum();
        assert_eq!(planned, 6 * 256);
        for backend in [Backend::Serial, par(2, true)] {
            let o = run(&scenario, backend);
            assert_eq!(o.sent[bulk], planned, "{backend:?}");
            assert_eq!(o.received[bulk], planned, "{backend:?}");
            assert_eq!(o.bytes[bulk], 6 << 20, "{backend:?}");
        }
    }

    /// The ownership filter partitions the plan: what `install(..,
    /// Some(h))` schedules and registers, summed over all hosts, is what
    /// `install(.., None)` does — flow for flow, each host taking exactly
    /// the opens, call loops and services the plan gives it.
    #[test]
    fn per_host_installs_partition_the_plan() {
        let scenario = MixParams::micro().scenario();
        let plan = &scenario.plan;
        let hosts = (scenario.topo)().hosts.len() as u32;
        // (scheduled opens and call loops, which pairs' services exist,
        // planned rx messages)
        let installed = |owner: Option<HostId>| {
            let mut sim = Sim::new(StackBuilder::new((scenario.topo)()).build());
            assert_eq!(sim.events_pending(), 0, "a fresh world is idle");
            let acct = traffic::install(&mut sim, plan, owner);
            let served = |r: &RpcFlow| sim.state.rkom.host(r.server).has_service(r.service);
            let served: Vec<usize> = plan.rpcs.iter().map(|r| served(r) as usize).collect();
            let planned = acct.borrow().planned;
            (sim.events_pending(), served, planned)
        };
        let mut sum = (0, vec![0; plan.rpcs.len()], [0u64; CLASSES]);
        for h in (0..hosts).map(HostId) {
            let (pending, served, planned) = installed(Some(h));
            let mine = plan.flows.iter().filter(|f| f.src == h).count()
                + plan.rpcs.iter().filter(|r| r.client == h).count();
            assert_eq!(pending, mine, "{h:?} scheduled someone else's share");
            for (r, n) in plan.rpcs.iter().zip(&served) {
                assert_eq!(*n, (r.server == h) as usize, "{h:?} service {}", r.service);
            }
            sum.0 += pending;
            sum.1.iter_mut().zip(served).for_each(|(s, n)| *s += n);
            sum.2.iter_mut().zip(planned).for_each(|(s, n)| *s += n);
        }
        assert_eq!(sum, installed(None));
        assert_eq!(sum.0, plan.flows.len() + plan.rpcs.len());
    }
}
