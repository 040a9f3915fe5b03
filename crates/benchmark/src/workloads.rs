//! The five named workloads: topology program, traffic plan, fault plan.
//!
//! Everything here is a pure function of the workload and the seed. The
//! seed feeds placement and source randomness only; sizes are fixed per
//! workload so that results from different machines describe the same
//! simulated world.

use dash_net::ids::{HostId, NetworkId};
use dash_net::state::NetState;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::rng::Rng;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::traffic::{Class, Flow, Plan, Probe, RpcFlow};

/// Drain grace after the sources stop: the horizon is `duration + GRACE`.
pub const GRACE: SimDuration = SimDuration::from_millis(500);

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Topology and population.
    pub shape: Shape,
    /// Virtual time during which sources offer traffic.
    pub duration: SimDuration,
    /// Model per-host protocol CPUs (EDF).
    pub cpus: bool,
    /// `Some(n)`: run by `dash-par` on `n` LAN-aligned shards.
    pub shards: Option<u32>,
}

/// Topology family and its population.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Edge LANs behind gateways on one T1 WAN.
    Star(Star),
    /// 3×3 mesh of Ethernet LANs joined by 12 gateways.
    Mesh(Mesh),
}

/// Population of a [`Shape::Star`] workload, per LAN.
#[derive(Debug, Clone, Default)]
pub struct Star {
    /// Edge LANs.
    pub lans: usize,
    /// Hosts per LAN (its gateway is extra).
    pub hosts_per_lan: usize,
    /// Intra-LAN voice streams.
    pub voice: usize,
    /// Voice streams crossing the WAN.
    pub voice_cross: usize,
    /// Reliable bulk transfers (intra-LAN).
    pub bulk: usize,
    /// Bulk message size.
    pub bulk_chunk: u64,
    /// Most messages per transfer; a transfer also stops offering when
    /// the sources stop.
    pub bulk_msgs: u64,
    /// Intra-LAN RKOM pairs at 40 calls/s.
    pub rpc_local: usize,
    /// WAN-crossing RKOM pairs at 5 calls/s.
    pub rpc_wan: usize,
    /// Short cross-site sessions per churn wave (0 = no churn).
    pub churn: usize,
    /// Interval between churn waves.
    pub churn_interval: SimDuration,
    /// Mid-run LAN-outage + host-crash drill.
    pub drill: bool,
}

/// Population of the [`Shape::Mesh`] workload.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Hosts per LAN.
    pub hosts_per_lan: usize,
    /// Long-lived voice pairs between LANs two hops apart on the rim.
    pub voice_pairs: usize,
    /// Deterministic-delay heavy streams along one rim corridor.
    pub heavy: usize,
    /// Short cross-site sessions per churn wave.
    pub churn: usize,
    /// Interval between churn waves.
    pub churn_interval: SimDuration,
    /// Datagram probe period.
    pub probe_interval: SimDuration,
}

/// Host and network ids of a built topology — the same in every replica
/// world, because every one runs the same builder program.
#[derive(Debug, Clone)]
pub struct Sites {
    /// Traffic hosts, by LAN.
    pub lans: Vec<Vec<HostId>>,
    /// Host groups that must share a shard (each LAN with its gateway).
    pub groups: Vec<Vec<u32>>,
    /// Total hosts.
    pub hosts: u32,
    /// Network the outage drill takes down (carries no traffic).
    pub drill_net: Option<NetworkId>,
    /// Host the crash drill takes down (has no sessions).
    pub drill_host: Option<HostId>,
}

const FAST_EVERY: usize = 4;

/// The five workloads, at benchmark size or (`smoke`) at a size the crate's
/// tests run in about a second each.
pub fn all(smoke: bool) -> Vec<Workload> {
    let ms = SimDuration::from_millis;
    let star = |lans, hosts_per_lan| Star {
        lans,
        hosts_per_lan,
        bulk_chunk: 4 * 1024,
        churn_interval: ms(250),
        ..Star::default()
    };
    vec![
        Workload {
            name: "voice-lan",
            why: "smallest messages on static routes: per-event engine cost and per-packet net/ST cost do nearly all the work",
            shape: Shape::Star(Star {
                voice: if smoke { 12 } else { 200 },
                ..star(if smoke { 2 } else { 8 }, if smoke { 4 } else { 8 })
            }),
            duration: if smoke { ms(400) } else { ms(5000) },
            cpus: true,
            shards: None,
        },
        Workload {
            name: "bulk-frag",
            why: "32 KiB reliable messages: fragmentation, reassembly, flow control and acks do the work; the opposite use of the layers voice-lan exercises",
            shape: Shape::Star(Star {
                bulk: if smoke { 2 } else { 8 },
                bulk_chunk: 32 * 1024,
                bulk_msgs: u64::MAX,
                ..star(if smoke { 2 } else { 8 }, if smoke { 4 } else { 8 })
            }),
            duration: if smoke { ms(600) } else { ms(15_000) },
            cpus: true,
            shards: None,
        },
        Workload {
            name: "mesh-churn",
            why: "routing, admission and establishment dominate: session churn, saturated corridor and outage drills on a mesh whose data path is nearly idle",
            shape: Shape::Mesh(Mesh {
                hosts_per_lan: if smoke { 3 } else { 30 },
                voice_pairs: if smoke { 8 } else { 100 },
                heavy: if smoke { 2 } else { 4 },
                churn: if smoke { 3 } else { 20 },
                churn_interval: ms(200),
                probe_interval: ms(50),
            }),
            duration: if smoke { ms(900) } else { ms(4000) },
            cpus: false,
            shards: None,
        },
        Workload {
            name: "mixed-scale",
            why: "the production mix on 300 hosts: every layer contributes, so a layer-local gain must still show end to end",
            shape: Shape::Star(Star {
                voice: if smoke { 6 } else { 94 },
                voice_cross: if smoke { 1 } else { 6 },
                bulk: if smoke { 1 } else { 6 },
                bulk_msgs: 64,
                rpc_local: if smoke { 1 } else { 3 },
                rpc_wan: 1,
                churn: if smoke { 2 } else { 20 },
                drill: true,
                ..star(if smoke { 3 } else { 20 }, if smoke { 4 } else { 14 })
            }),
            duration: if smoke { ms(800) } else { ms(1500) },
            cpus: true,
            shards: None,
        },
        Workload {
            name: "mixed-par",
            why: "the same mix on 144 hosts run by dash-par on 2 shards: replica-world setup, barriers and envelopes exist in no serial workload",
            shape: Shape::Star(Star {
                voice: if smoke { 6 } else { 56 },
                voice_cross: if smoke { 1 } else { 4 },
                bulk: if smoke { 1 } else { 4 },
                bulk_msgs: 32,
                rpc_local: 1,
                rpc_wan: 1,
                churn: if smoke { 2 } else { 8 },
                drill: true,
                ..star(if smoke { 2 } else { 12 }, if smoke { 4 } else { 11 })
            }),
            duration: if smoke { ms(800) } else { ms(4000) },
            cpus: true,
            shards: Some(2),
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    all(smoke).into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The virtual horizon every run stops at.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            .saturating_add(self.duration)
            .saturating_add(GRACE)
    }

    /// Build the topology. Called once per world (once per replica under
    /// `dash-par`), always with the same result.
    pub fn topology(&self, seed: u64) -> (NetState, Sites) {
        let mut tb = TopologyBuilder::new();
        tb.seed(seed ^ 0x5ca1e);
        let sites = match &self.shape {
            Shape::Star(s) => star_topology(&mut tb, s),
            Shape::Mesh(m) => mesh_topology(&mut tb, m),
        };
        (tb.build(), sites)
    }

    /// The traffic plan over `sites`.
    pub fn plan(&self, seed: u64, sites: &Sites) -> Plan {
        match &self.shape {
            Shape::Star(s) => star_plan(s, self.duration, seed, sites),
            Shape::Mesh(m) => mesh_plan(m, self.duration, seed, sites),
        }
    }

    /// The fault plan over `sites`.
    pub fn faults(&self, sites: &Sites) -> FaultPlan {
        let at = |num: u64, den: u64| {
            SimTime::ZERO.saturating_add(SimDuration::from_nanos(
                self.duration.as_nanos() / den * num,
            ))
        };
        let outage = SimDuration::from_millis(150);
        let mut plan = FaultPlan::new();
        let Some(net) = sites.drill_net else {
            return plan;
        };
        // Star: one drill at T/2. Mesh: two drills, at T/3 and 2T/3.
        let times = match self.shape {
            Shape::Star(_) => vec![at(1, 2)],
            Shape::Mesh(_) => vec![at(1, 3), at(2, 3)],
        };
        for t in times {
            plan = plan.at(t, FaultKind::NetworkDown { network: net.0 }).at(
                t.saturating_add(outage),
                FaultKind::NetworkUp { network: net.0 },
            );
            if let Some(h) = sites.drill_host {
                plan = plan.at(t, FaultKind::HostCrash { host: h.0 }).at(
                    t.saturating_add(outage),
                    FaultKind::HostRestart { host: h.0 },
                );
            }
        }
        plan
    }
}

/// Benchmark links lose nothing on their own: every operation a workload
/// offers must complete, so a failure is always a defect, never a sample
/// of the medium's bit error rate.
pub(crate) fn loss_free(mut spec: NetworkSpec) -> NetworkSpec {
    spec.drop_prob = 0.0;
    spec.caps.raw_ber = 0.0;
    spec
}

fn star_topology(tb: &mut TopologyBuilder, s: &Star) -> Sites {
    let wan = tb.network(loss_free(NetworkSpec::long_haul("wan")));
    let mut lan_nets = Vec::new();
    let mut sites = Sites {
        lans: Vec::new(),
        groups: Vec::new(),
        hosts: 0,
        drill_net: None,
        drill_host: None,
    };
    for l in 0..s.lans {
        let spec = if l % FAST_EVERY == FAST_EVERY - 1 {
            NetworkSpec::fast_lan(format!("fast-{l}"))
        } else {
            NetworkSpec::ethernet(format!("lan-{l}"))
        };
        let net = tb.network(loss_free(spec));
        let hosts: Vec<HostId> = (0..s.hosts_per_lan).map(|_| tb.host_on(net)).collect();
        let gw = tb.gateway(net, wan);
        let mut group: Vec<u32> = hosts.iter().map(|h| h.0).collect();
        group.push(gw.0);
        sites.groups.push(group);
        sites.lans.push(hosts);
        lan_nets.push(net);
    }
    if s.drill {
        // The drill hits a spare LAN and a host that carry no traffic:
        // the floods and route recomputations are the same work as for a
        // loaded LAN, but no offered operation is lost to the outage.
        let spare = tb.network(loss_free(NetworkSpec::ethernet("spare")));
        let idle = tb.host_on(spare);
        let gw = tb.gateway(spare, wan);
        let victim = tb.host_on(lan_nets[0]);
        sites.groups[0].push(victim.0);
        sites.groups.push(vec![idle.0, gw.0]);
        sites.drill_net = Some(spare);
        sites.drill_host = Some(victim);
    }
    sites.hosts = sites.groups.iter().map(|g| g.len() as u32).sum();
    sites
}

fn mesh_topology(tb: &mut TopologyBuilder, m: &Mesh) -> Sites {
    let mut nets = Vec::new();
    let mut lans = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for r in 0..3 {
        for c in 0..3 {
            let net = tb.network(loss_free(NetworkSpec::ethernet(format!("lan-{r}{c}"))));
            let hosts: Vec<HostId> = (0..m.hosts_per_lan).map(|_| tb.host_on(net)).collect();
            groups.push(hosts.iter().map(|h| h.0).collect());
            nets.push(net);
            lans.push(hosts);
        }
    }
    for r in 0..3 {
        for c in 0..3 {
            if c + 1 < 3 {
                let gw = tb.gateway(nets[r * 3 + c], nets[r * 3 + c + 1]);
                groups[r * 3 + c].push(gw.0);
            }
            if r + 1 < 3 {
                let gw = tb.gateway(nets[r * 3 + c], nets[(r + 1) * 3 + c]);
                groups[r * 3 + c].push(gw.0);
            }
        }
    }
    Sites {
        hosts: groups.iter().map(|g| g.len() as u32).sum(),
        lans,
        groups,
        // The mesh centre: its outage makes every gateway reflood and
        // every host recompute, while the rim traffic below never
        // crosses it.
        drill_net: Some(nets[4]),
        drill_host: None,
    }
}

const VOICE_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// A voice profile whose delay bound survives a WAN or multi-LAN path.
fn far_voice_profile(bound_ms: u64) -> StreamProfile {
    StreamProfile {
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(bound_ms),
            SimDuration::from_micros(10),
        ),
        ..StreamProfile::voice()
    }
}

fn voice_flow(
    class: Class,
    src: HostId,
    dst: HostId,
    duration: SimDuration,
    rng: &mut Rng,
    profile: StreamProfile,
) -> Flow {
    // A seed-dependent phase within the first frame interval: spreads the
    // t=0 admission burst and decides which frames share a bundle.
    let start = SimDuration::from_micros(rng.below(VOICE_INTERVAL.as_nanos() / 1000));
    Flow {
        class,
        src,
        dst,
        start,
        end: duration,
        count: u64::MAX,
        interval: VOICE_INTERVAL,
        len: 160,
        profile,
    }
}

/// Short-lived session: four frames 50 ms apart on a tiny reservation,
/// so dozens fit a WAN or a corridor.
fn churn_flow(src: HostId, dst: HostId, start: SimDuration, duration: SimDuration) -> Flow {
    Flow {
        class: Class::Churn,
        src,
        dst,
        start,
        end: duration,
        count: 4,
        interval: SimDuration::from_millis(50),
        len: 160,
        profile: StreamProfile {
            capacity: 4 * 1024,
            ..far_voice_profile(150)
        },
    }
}

/// Start times of the churn waves: every `interval`, the last one early
/// enough that its sessions finish before the sources stop.
fn churn_waves(
    interval: SimDuration,
    duration: SimDuration,
) -> impl Iterator<Item = (usize, SimDuration)> {
    let tail = SimDuration::from_millis(300).as_nanos();
    (0usize..)
        .map(move |w| {
            (
                w,
                SimDuration::from_nanos(interval.as_nanos() * (w as u64 + 1)),
            )
        })
        .take_while(move |(_, t)| t.as_nanos() + tail < duration.as_nanos())
}

fn star_plan(s: &Star, duration: SimDuration, seed: u64, sites: &Sites) -> Plan {
    let mut rng = Rng::new(seed);
    let mut plan = Plan::default();
    let hpl = s.hosts_per_lan;
    assert!(hpl >= 2, "a LAN needs two hosts to talk");
    let other_lan =
        |l: usize, rng: &mut Rng| (l + 1 + rng.below(s.lans as u64 - 1) as usize) % s.lans;
    for (l, hosts) in sites.lans.iter().enumerate() {
        for v in 0..s.voice + s.voice_cross {
            let src = hosts[v % hpl];
            let flow = if v < s.voice {
                let dst = hosts[(v % hpl + 1 + rng.below(hpl as u64 - 1) as usize) % hpl];
                voice_flow(
                    Class::Voice,
                    src,
                    dst,
                    duration,
                    &mut rng,
                    StreamProfile::voice(),
                )
            } else {
                let dst = sites.lans[other_lan(l, &mut rng)][rng.below(hpl as u64) as usize];
                voice_flow(
                    Class::FarVoice,
                    src,
                    dst,
                    duration,
                    &mut rng,
                    far_voice_profile(150),
                )
            };
            plan.flows.push(flow);
        }
        // One seeded shift per LAN: every host sends at most
        // `ceil(bulk / hosts)` transfers and receives as many, whatever
        // the seed, so goodput does not hinge on which receivers collide.
        let shift = 1 + rng.below(hpl as u64 - 1) as usize;
        for b in 0..s.bulk {
            plan.flows.push(Flow {
                class: Class::Bulk,
                src: hosts[b % hpl],
                dst: hosts[(b % hpl + shift) % hpl],
                start: SimDuration::from_millis(1),
                end: duration,
                count: s.bulk_msgs,
                interval: SimDuration::ZERO,
                len: s.bulk_chunk,
                profile: StreamProfile {
                    max_message: s.bulk_chunk.max(8 * 1024),
                    ..StreamProfile::bulk()
                },
            });
        }
        // Clients are a LAN's first hosts and servers the next ones, so no
        // host is both: a pair never creates its two channels at once.
        let pairs = s.rpc_local + s.rpc_wan;
        assert!(
            2 * pairs <= hpl,
            "a LAN needs a host per RKOM client and server"
        );
        for r in 0..pairs {
            let client = hosts[r];
            let slot = pairs + rng.below(pairs as u64) as usize;
            let (server, rate) = if r < s.rpc_local {
                (hosts[slot], 40.0)
            } else {
                (sites.lans[other_lan(l, &mut rng)][slot], 5.0)
            };
            plan.rpcs.push(RpcFlow {
                client,
                server,
                service: (100 + plan.rpcs.len()) as u16,
                rate,
                // After the t=0 burst of session opens has crossed the WAN.
                start: SimDuration::from_millis(300),
                end: duration,
                seed: rng.next_u64(),
            });
        }
    }
    if s.churn > 0 {
        // Each wave talks to fresh peers: that is what churns the
        // subtransport's per-peer RMS cache (§4.2).
        for (w, t) in churn_waves(s.churn_interval, duration) {
            for c in 0..s.churn {
                let l = (w * 3 + c) % s.lans;
                let ol = (l + 1 + (w + c) % (s.lans - 1)) % s.lans;
                let src = sites.lans[l][(w + c) % hpl];
                let dst = sites.lans[ol][(w * 2 + c + rng.below(hpl as u64) as usize) % hpl];
                plan.flows.push(churn_flow(src, dst, t, duration));
            }
        }
    }
    plan
}

/// Rim LANs of the 3×3 mesh in ring order (the centre, index 4, left out).
const RIM: [usize; 8] = [0, 1, 2, 5, 8, 7, 6, 3];

fn mesh_plan(m: &Mesh, duration: SimDuration, seed: u64, sites: &Sites) -> Plan {
    let mut rng = Rng::new(seed);
    let mut plan = Plan::default();
    let hpl = m.hosts_per_lan;
    let pick = |lan: usize, rng: &mut Rng| sites.lans[lan][rng.below(hpl as u64) as usize];
    // Corner to the next corner along the rim: the two-gateway rim path is
    // the unique shortest route, so the centre outage never carries them.
    for v in 0..m.voice_pairs {
        let from = (v % 4) * 2;
        let to = if v % 8 < 4 {
            (from + 2) % 8
        } else {
            (from + 6) % 8
        };
        let (src, dst) = (pick(RIM[from], &mut rng), pick(RIM[to], &mut rng));
        plan.flows.push(voice_flow(
            Class::FarVoice,
            src,
            dst,
            duration,
            &mut rng,
            far_voice_profile(120),
        ));
    }
    // Heavy deterministic streams along the top corridor: the first ones
    // fill the primary path's deterministic budget, later ones are NAK'd
    // there and establish on an alternate.
    for h in 0..m.heavy {
        let mut f = voice_flow(
            Class::Heavy,
            sites.lans[0][h % hpl],
            sites.lans[2][(h + 1) % hpl],
            duration,
            &mut rng,
            StreamProfile {
                capacity: 12 * 1024,
                max_message: 1024,
                delay: DelayBound::deterministic(
                    SimDuration::from_millis(50),
                    SimDuration::from_micros(4),
                ),
                ..StreamProfile::default()
            },
        );
        f.len = 512;
        f.interval = SimDuration::from_millis(25);
        plan.flows.push(f);
    }
    // Churn between rim neighbours, rotating with the wave, so
    // establishment keeps happening while the topology changes under it.
    for (w, t) in churn_waves(m.churn_interval, duration) {
        for c in 0..m.churn {
            // A corner's next corner or a rim neighbour: never a pair
            // with an equal-cost route through the centre.
            let from = (w + c) % 8;
            let hops = if from % 2 == 0 {
                1 + (w * 2 + c) % 2
            } else {
                1
            };
            let to = (from + hops) % 8;
            let (src, dst) = (pick(RIM[from], &mut rng), pick(RIM[to], &mut rng));
            plan.flows.push(churn_flow(src, dst, t, duration));
        }
    }
    plan.probes.push(Probe {
        a: sites.lans[0][0],
        b: sites.lans[8][hpl - 1],
        interval: m.probe_interval,
        end: duration,
    });
    plan
}
