//! mix — the macro-workloads, described once and run on three backends.
//!
//! A [`Scenario`] is everything a macro run needs: the topology program,
//! the traffic plan (stream flows, RKOM pairs, datagram probes), the
//! fault plan and the run-level settings. It is *data* — a pure function
//! of the parameters that planned it — and the per-endpoint driver acts
//! only on the endpoints its world owns, so the same description serves
//! every execution backend behind the one [`run`]. Two plan functions
//! produce scenarios: [`MixParams::scenario`] (e10/e12/e13: edge LANs
//! joined by a WAN backbone carrying mostly intra-LAN voice with a
//! WAN-crossing slice, reliable bulk transfers, cross-LAN RKOM calls,
//! churn waves of short-lived sessions and a mid-run fault drill) and
//! `RoutingParams::scenario` in [`crate::e_routing`] (e11: a saturated
//! corridor and a mesh under churn). The backends:
//!
//! - [`Backend::Serial`] (e10): one world owns every host, stepped by the
//!   discrete-event engine;
//! - [`Backend::Par`] (e12): every host is a `dash-par` logical process
//!   (a replica world that populates only for its owner), sharded over
//!   worker threads; the merged [`Outcome`] is byte-identical at every
//!   shard count and placement;
//! - [`Backend::Rt`] (e13): the serial world paced against the wall clock
//!   by `dash-rt`, every wire hop carried by the threaded datagram
//!   substrate. Counts are not deterministic there (real carriage timing
//!   feeds back into arrival times); the oracle verdict and the stop
//!   reason are what a real-time run is judged on.
//!
//! The serial engine interleaves all hosts through one RNG, one id well
//! and one event heap, so its byte-level schedule is a different (equally
//! valid) sample of the same model as the parallel executor's: the digest
//! contract is replay-identity per backend and shard-count invariance
//! under `Par`, not `Serial == Par`. Wall-clock, allocation and per-layer
//! measurements of this workload live in `dash-benchmark`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dash_check::OracleConfig;
use dash_net::fault::schedule_fault_plan;
use dash_net::ids::{HostId, NetworkId};
use dash_net::pipeline::send_datagram;
use dash_net::shard::WireEnvelope;
use dash_net::state::NetState;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_par::{
    cross_shard_lookahead, local_lookahead, run_sharded, Lp, ParConfig, ShardPlan, StackLp,
};
use dash_rt::{run_rt, MemConfig, MemDatagram, Monotonic, RtOptions, RtReport, StopReason};
use dash_sim::cpu::SchedPolicy;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::obs::{MetricRegistry, ObsEvent, ObsSink};
use dash_sim::rng::Rng;
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_transport::rkom;
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::wire::WireMsg;

use crate::table::{f, pct, Table};

// ---------------------------------------------------------------------------
// Parameters and backends
// ---------------------------------------------------------------------------

/// Knobs of the e10/e12/e13 population; [`MixParams::scenario`] plans it.
/// Under [`Backend::Serial`] and [`Backend::Par`] everything in the
/// [`Outcome`] but `wall_secs` is a deterministic function of these.
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
        let (flows, rpcs) = plan_population(self, &topo.lan_hosts);
        let program = self.clone();
        Scenario {
            faults: make_fault_plan(self, &topo),
            groups: topo.groups,
            sites: topo.lan_hosts,
            flows,
            rpcs,
            probes: Vec::new(),
            topo: Box::new(move || build_topo(&program).0),
            seed: self.seed,
            horizon: SimTime::ZERO
                .saturating_add(self.duration)
                .saturating_add(self.grace),
            cpus: true,
            record_trace: false,
            oracle: false,
        }
    }
}

/// The one input of [`run`]: what to build, what to offer, what to break
/// and how to observe it. Every world of a run — the serial world, each
/// `dash-par` replica — is built from the same scenario, so they all see
/// identical ids, plans and fault times.
pub struct Scenario {
    /// The topology program: every call builds an identical [`NetState`]
    /// (each replica world of a `Par` run calls it once).
    pub topo: Box<dyn Fn() -> NetState + Send + Sync>,
    /// Edge hosts by site (LAN); the stream endpoints.
    pub sites: Vec<Vec<HostId>>,
    /// Shard groups for [`Backend::Par`]'s aligned placement: hosts that
    /// should share a shard (a site, with the gateways riding along).
    /// Hosts in no group are hash-placed.
    pub groups: Vec<Vec<u32>>,
    /// Stream flows.
    pub flows: Vec<Flow>,
    /// RKOM client/server pairs.
    pub rpcs: Vec<RpcFlow>,
    /// Datagram probes.
    pub probes: Vec<Probe>,
    /// The fault drill (replicated: every world applies all of it).
    pub faults: FaultPlan,
    /// Seed of per-LP randomness (`Par`) and the substrate loss hash (`Rt`).
    pub seed: u64,
    /// Where the run is cut (exclusive).
    pub horizon: SimTime,
    /// Model per-host protocol CPUs with EDF scheduling.
    pub cpus: bool,
    /// Record the observability trace (determinism runs; costly). Plans
    /// leave it off.
    pub record_trace: bool,
    /// Check the run with the dash-check semantic oracle. Plans leave it
    /// off.
    pub oracle: bool,
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
    /// carried by the threaded in-memory datagram substrate (e13).
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
// Traffic classes and the flow plan
// ---------------------------------------------------------------------------

/// Traffic class, carried as the first payload byte of every stream
/// message (`tag = class index + 1`) so the receiving endpoint classifies
/// a delivery with no session-level coordination with the sender — under
/// `Par` the two live in different worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Intra-LAN voice: 160 B frames every 20 ms, 40 ms budget.
    Voice = 0,
    /// WAN-crossing voice: same pacing, 150 ms budget.
    WanVoice = 1,
    /// Reliable bulk: 4 KiB chunks, pumped until sender flow control
    /// pushes back, resumed on `Drained`.
    Bulk = 2,
    /// Short-lived churn sessions (RMS cache pressure), 150 ms budget.
    Churn = 3,
    /// Deterministic-delay stream demanding most of one Ethernet's
    /// admission budget: capacity over the 50 ms bound is ≈0.79 of the
    /// 1.125 MB/s deterministic share, so a second one on the same
    /// corridor is refused and must establish on an alternate path.
    Heavy = 4,
}

/// Number of [`Class`] values.
pub const CLASSES: usize = 5;

impl Class {
    fn from_tag(tag: u8) -> Option<Class> {
        [
            Class::Voice,
            Class::WanVoice,
            Class::Bulk,
            Class::Churn,
            Class::Heavy,
        ]
        .get(usize::from(tag).wrapping_sub(1))
        .copied()
    }

    /// Lateness budget for deliveries of this class.
    fn budget(self) -> SimDuration {
        match self {
            Class::Voice => SimDuration::from_millis(40),
            Class::WanVoice | Class::Churn => SimDuration::from_millis(150),
            Class::Bulk => SimDuration::from_millis(500),
            Class::Heavy => SimDuration::from_millis(50),
        }
    }

    fn profile(self) -> StreamProfile {
        match self {
            Class::Voice => StreamProfile::voice(),
            Class::WanVoice => wan_voice_profile(),
            Class::Bulk => StreamProfile::bulk(),
            Class::Churn => {
                let mut p = wan_voice_profile();
                // Tiny capacity so dozens of short sessions fit the WAN.
                p.capacity = 4 * 1024;
                p
            }
            Class::Heavy => StreamProfile {
                capacity: 40 * 1024,
                max_message: 1024,
                delay: DelayBound::deterministic(
                    SimDuration::from_millis(50),
                    SimDuration::from_micros(2),
                ),
                ..StreamProfile::default()
            },
        }
    }
}

/// A voice profile whose delay budget survives the WAN path.
fn wan_voice_profile() -> StreamProfile {
    let mut p = StreamProfile::voice();
    p.delay =
        DelayBound::best_effort_with(SimDuration::from_millis(150), SimDuration::from_micros(10));
    p
}

/// Build a class-tagged payload: one static tag byte, then a static zero
/// body — the same zero-allocation scatter-gather path real payloads take.
fn tagged(class: Class, len: u64) -> Message {
    const TAGS: [u8; CLASSES] = [1, 2, 3, 4, 5];
    static ZERO: [u8; 8192] = [0u8; 8192];
    let i = class as usize;
    let mut w = WireMsg::from_bytes(Bytes::from_static(&TAGS[i..i + 1]));
    if len > 1 {
        w.push(Bytes::from_static(&ZERO[..(len - 1).min(8192) as usize]));
    }
    Message::from_wire(w)
}

const VOICE_INTERVAL: SimDuration = SimDuration::from_millis(20);
const BULK_CHUNK: u64 = 4 * 1024;
const RPC_INTERVAL: SimDuration = SimDuration::from_millis(25);

/// One planned stream flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Traffic class: the stream profile, the lateness budget, the tag.
    pub class: Class,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Open time, as an offset from the run start.
    pub start: SimDuration,
    /// Messages still to send: the plan's total, counted down in the
    /// sender's session table once the flow is open.
    pub count: u64,
    /// Pacing interval; zero means "pump until flow control pushes back".
    pub interval: SimDuration,
    /// Payload length per message, including the tag byte.
    pub len: u64,
}

impl Flow {
    /// A voice-paced flow for `duration`: 160 B frames every 20 ms. The
    /// `index`-keyed stagger spreads the t=0 admission burst.
    pub fn voice(
        class: Class,
        src: HostId,
        dst: HostId,
        index: usize,
        duration: SimDuration,
    ) -> Flow {
        Flow {
            class,
            src,
            dst,
            start: SimDuration::from_micros((index as u64 % 32) * 125),
            count: (duration.as_nanos() / VOICE_INTERVAL.as_nanos()).max(1),
            interval: VOICE_INTERVAL,
            len: 160,
        }
    }

    /// A short-lived churn session opened at `start`: four 160 B frames,
    /// 50 ms apart.
    pub fn churn(src: HostId, dst: HostId, start: SimDuration) -> Flow {
        Flow {
            class: Class::Churn,
            src,
            dst,
            start,
            count: 4,
            interval: SimDuration::from_millis(50),
            len: 160,
        }
    }
}

/// One planned RPC pairing: `calls` echo calls at `interval` pacing.
/// Only the mix plans these, so the fields stay private.
#[derive(Debug, Clone, Copy)]
pub struct RpcFlow {
    client: HostId,
    server: HostId,
    service: u16,
    calls: u64,
    interval: SimDuration,
    start: SimDuration,
}

/// Table-routed datagram probes between two hosts, both ways, every
/// `interval` until `end`. Floods and RMS traffic never consult the route
/// table (they are source-routed or pinned), so probes are what turns
/// "routes marked dirty" into counted lazy recomputations.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// One end.
    pub a: HostId,
    /// The other end.
    pub b: HostId,
    /// Probe period.
    pub interval: SimDuration,
    /// No probe is sent at or after this offset from the run start.
    pub end: SimDuration,
}

/// Compute the full traffic plan: a pure function of the parameters, so
/// every world of a run computes the identical plan.
fn plan_population(p: &MixParams, lan_hosts: &[Vec<HostId>]) -> (Vec<Flow>, Vec<RpcFlow>) {
    assert!(p.hosts_per_lan >= 2, "need at least 2 hosts per LAN");
    let mut rng = Rng::new(p.seed);
    let mut flows = Vec::new();
    let mut rpcs = Vec::new();
    let hpl = p.hosts_per_lan;
    for l in 0..p.lans {
        for v in 0..p.voice_per_lan {
            let src = lan_hosts[l][v % hpl];
            let cross = rng.chance(p.cross_fraction);
            let (dst, class) = if cross && p.lans > 1 {
                let ol = (l + 1 + rng.below(p.lans as u64 - 1) as usize) % p.lans;
                (
                    lan_hosts[ol][rng.below(hpl as u64) as usize],
                    Class::WanVoice,
                )
            } else {
                let mut d = (v + 1 + rng.below(hpl as u64 - 1) as usize) % hpl;
                if lan_hosts[l][d] == src {
                    d = (d + 1) % hpl;
                }
                (lan_hosts[l][d], Class::Voice)
            };
            if dst == src {
                continue;
            }
            flows.push(Flow::voice(class, src, dst, v, p.duration));
        }
        for b in 0..p.bulk_per_lan {
            let src = lan_hosts[l][b % hpl];
            let dst = lan_hosts[l][(b + hpl / 2) % hpl];
            if src == dst {
                continue;
            }
            flows.push(Flow {
                class: Class::Bulk,
                src,
                dst,
                start: SimDuration::from_millis(1),
                count: p.bulk_bytes.div_ceil(BULK_CHUNK),
                interval: SimDuration::ZERO,
                len: BULK_CHUNK,
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
    (flows, rpcs)
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
// The event tap: trace and oracle
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

/// Check a merged event stream with the dash-check semantic oracle; one
/// human-readable line per violation. The configuration is that of a
/// horizon-cut macro run: completion is off (traffic is legitimately in
/// flight at the cut) and FIFO-gap checking is off (unreliable media
/// legitimately skips lost messages). `det_delay` stays on wherever
/// virtual time is the only clock — fault drills self-excuse — and goes
/// off on the rt backend, where wall lag feeds real carriage timing back
/// into arrival times.
fn check_stream<'a>(
    stream: impl Iterator<Item = (SimTime, &'a ObsEvent)>,
    det_delay: bool,
) -> Vec<String> {
    let (mut sink, handle) = dash_check::oracle(OracleConfig {
        check_completion: false,
        check_det_delay: det_delay,
        check_fifo_gaps: false,
    });
    for (t, e) in stream {
        sink.on_event(t, e);
    }
    handle
        .violations()
        .iter()
        .map(|v| format!("[{}] t={} {}", v.invariant, v.at.as_nanos(), v.detail))
        .collect()
}

// ---------------------------------------------------------------------------
// The per-endpoint driver
// ---------------------------------------------------------------------------

/// Per-world accounting, split by traffic class. Tx-side fields populate
/// in the world owning a flow's source, rx-side fields in the world
/// owning its destination; the outcome sums them all.
#[derive(Debug, Default, Clone)]
struct Acct {
    opened: u64,
    failed: u64,
    sent: [u64; CLASSES],
    received: [u64; CLASSES],
    late: [u64; CLASSES],
    bytes: [u64; CLASSES],
    /// Paced messages refused by sender flow control and dropped (voice
    /// semantics: the frame is lost at the source, not retried).
    source_drops: u64,
    rpc_issued: u64,
    rpc_completed: u64,
    rpc_failed: u64,
    /// Tx session -> its flow, `count` running down (lookups only,
    /// never iterated).
    tx: BTreeMap<u64, Flow>,
}

impl Acct {
    fn merge(&mut self, o: &Acct) {
        self.opened += o.opened;
        self.failed += o.failed;
        self.source_drops += o.source_drops;
        self.rpc_issued += o.rpc_issued;
        self.rpc_completed += o.rpc_completed;
        self.rpc_failed += o.rpc_failed;
        for c in 0..CLASSES {
            self.sent[c] += o.sent[c];
            self.received[c] += o.received[c];
            self.late[c] += o.late[c];
            self.bytes[c] += o.bytes[c];
        }
    }
}

type SharedAcct = Rc<RefCell<Acct>>;

fn on_stream_event(sim: &mut Sim<Stack>, host: HostId, ev: StreamEvent, acct: &SharedAcct) {
    match ev {
        StreamEvent::Opened { session } => {
            let pacing = {
                let mut a = acct.borrow_mut();
                a.tx.get(&session).map(|t| t.interval).inspect(|_| {
                    a.opened += 1;
                })
            };
            match pacing {
                Some(iv) if iv.is_zero() => pump_bulk(sim, host, session, acct),
                Some(_) => pace(sim, host, session, Rc::clone(acct)),
                None => {}
            }
        }
        StreamEvent::OpenFailed { session, .. } => {
            let mut a = acct.borrow_mut();
            if a.tx.remove(&session).is_some() {
                a.failed += 1;
            }
        }
        StreamEvent::Drained { session } => {
            let bulk = acct
                .borrow()
                .tx
                .get(&session)
                .is_some_and(|t| t.interval.is_zero());
            if bulk {
                pump_bulk(sim, host, session, acct);
            }
        }
        StreamEvent::Delivered { msg, delay, .. } => {
            let Some(class) = msg.wire().first_byte().and_then(Class::from_tag) else {
                return;
            };
            let mut a = acct.borrow_mut();
            a.received[class as usize] += 1;
            a.bytes[class as usize] += msg.len() as u64;
            if delay > class.budget() {
                a.late[class as usize] += 1;
            }
        }
        StreamEvent::Ended { session, .. } => {
            acct.borrow_mut().tx.remove(&session);
        }
        StreamEvent::Incoming { .. } => {}
    }
}

/// Paced sender (voice/churn): one message per interval; a refusal drops
/// the frame at the source, it is never retried.
fn pace(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: SharedAcct) {
    let step = {
        let mut a = acct.borrow_mut();
        a.tx.get_mut(&session).map(|t| {
            t.count = t.count.saturating_sub(1);
            (t.class, t.len, t.interval, t.count > 0)
        })
    };
    let Some((class, len, interval, more)) = step else {
        return;
    };
    acct.borrow_mut().sent[class as usize] += 1;
    if stream::send(sim, host, session, tagged(class, len)).is_err() {
        acct.borrow_mut().source_drops += 1;
    }
    if more {
        sim.schedule_in(interval, move |sim| pace(sim, host, session, acct));
    }
}

/// Bulk sender: pump chunks until the send port refuses; `Drained`
/// resumes the pump.
fn pump_bulk(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: &SharedAcct) {
    loop {
        let step = {
            let a = acct.borrow();
            match a.tx.get(&session) {
                Some(t) if t.count > 0 => Some((t.class, t.len)),
                _ => None,
            }
        };
        let Some((class, len)) = step else { return };
        if stream::send(sim, host, session, tagged(class, len)).is_err() {
            return;
        }
        let mut a = acct.borrow_mut();
        a.sent[class as usize] += 1;
        if let Some(t) = a.tx.get_mut(&session) {
            t.count -= 1;
        }
    }
}

fn rpc_tick(sim: &mut Sim<Stack>, r: RpcFlow, n: u64, acct: SharedAcct) {
    if n >= r.calls {
        return;
    }
    acct.borrow_mut().rpc_issued += 1;
    let a = Rc::clone(&acct);
    rkom::call(
        sim,
        r.client,
        r.server,
        r.service,
        Bytes::from_static(b"ping"),
        move |_sim, res| {
            let mut acct = a.borrow_mut();
            match res {
                Ok(_) => acct.rpc_completed += 1,
                Err(_) => acct.rpc_failed += 1,
            }
        },
    );
    sim.schedule_in(r.interval, move |sim| rpc_tick(sim, r, n + 1, acct));
}

/// One direction of a [`Probe`], driven by the world owning `from`.
fn probe_tick(sim: &mut Sim<Stack>, from: HostId, to: HostId, p: Probe) {
    if sim.now() >= SimTime::ZERO.saturating_add(p.end) {
        return;
    }
    send_datagram(sim, from, to, 0x90e1, Bytes::from_static(b"probe").into());
    sim.schedule_in(p.interval, move |sim| probe_tick(sim, from, to, p));
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// The harness's handles into one populated world.
struct Taps {
    acct: SharedAcct,
    /// Filled when the scenario records a trace or runs the oracle.
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
    if scn.record_trace || scn.oracle {
        builder = builder.obs_sink(CaptureSink {
            out: Rc::clone(&events),
        });
    }
    let mut sim = Sim::new(builder.build());

    let owned = |h: HostId| owner.is_none_or(|o| o == h);
    let acct: SharedAcct = Rc::new(RefCell::new(Acct::default()));
    for &h in scn.sites.iter().flatten().filter(|h| owned(**h)) {
        let a = Rc::clone(&acct);
        sim.state
            .on_stream(h, move |sim, ev| on_stream_event(sim, h, ev, &a));
    }
    for f in scn.flows.iter().filter(|f| owned(f.src)) {
        let f = f.clone();
        let a = Rc::clone(&acct);
        sim.schedule_in(f.start, move |sim| {
            match stream::open(sim, f.src, f.dst, f.class.profile()) {
                Ok(session) => {
                    a.borrow_mut().tx.insert(session, f);
                }
                Err(_) => a.borrow_mut().failed += 1,
            }
        });
    }
    for r in &scn.rpcs {
        if owned(r.server) {
            rkom::register_service(
                &mut sim.state,
                r.server,
                r.service,
                |_sim, _peer, payload| payload,
            );
        }
        if owned(r.client) {
            let r = *r;
            let a = Rc::clone(&acct);
            sim.schedule_in(r.start, move |sim| rpc_tick(sim, r, 0, a));
        }
    }
    for &p in &scn.probes {
        for (from, to) in [(p.a, p.b), (p.b, p.a)] {
            if owned(from) {
                sim.schedule_in(p.interval, move |sim| probe_tick(sim, from, to, p));
            }
        }
    }
    schedule_fault_plan(&mut sim, &scn.faults);
    (sim, Taps { acct, events })
}

/// What one finished world contributes to the outcome (`Send`, so a
/// `Par` worker can hand it back).
struct WorldOut {
    host: u32,
    acct: Acct,
    events: u64,
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
        peak_queue,
        registry: std::mem::take(&mut sim.state.net.obs.registry),
        obs: taps.events.take(),
    }
}

/// A replica world as the executor's logical process.
struct MixLp {
    lp: StackLp,
    taps: Taps,
}

impl Lp for MixLp {
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
    /// One line per semantic-oracle violation (empty when the oracle is
    /// off — and, every gate asserts, when it is on).
    pub oracle_violations: Vec<String>,
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
                ..MemConfig::default()
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
                    MixLp {
                        lp: StackLp::new(sim, owner, scn.seed),
                        taps,
                    }
                },
                |m: MixLp| finish_world(m.lp.host(), m.lp.sim, m.taps),
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
    let mut peak_queue_bytes = 0u64;
    for o in &outs {
        registry.merge_from(&o.registry);
        acct.merge(&o.acct);
        events += o.events;
        peak_queue_bytes = peak_queue_bytes.max(o.peak_queue);
    }
    // The run's event stream: the worlds' captures merged by `(time,
    // owner host, emission index)` — a total order that is a pure
    // function of the run, so the trace rendered from it and the oracle's
    // verdict on it are the same at every shard count and placement.
    let mut stream: Vec<(SimTime, u32, usize, &ObsEvent)> = Vec::new();
    for o in &outs {
        stream.extend(
            o.obs
                .iter()
                .enumerate()
                .map(|(i, (t, e))| (*t, o.host, i, e)),
        );
    }
    stream.sort_by_key(|&(t, host, i, _)| (t, host, i));
    let mut trace_dump = String::new();
    if scn.record_trace {
        for (t, _, _, e) in &stream {
            let _ = writeln!(trace_dump, "{} {} {e:?}", t.as_nanos(), e.name());
        }
    }
    let oracle_violations = if scn.oracle {
        check_stream(stream.iter().map(|&(t, _, _, e)| (t, e)), rt.is_none())
    } else {
        Vec::new()
    };
    Outcome {
        hosts,
        streams_opened: acct.opened,
        open_failed: acct.failed,
        events,
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
        oracle_violations,
        rt,
    }
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
            oracle: true,
            ..MixParams::ci().scenario()
        };
        let o = run(&scenario, Backend::Rt { loss_per_mille });
        let rt = o.rt.as_ref().expect("an rt run carries its report");
        t.row(vec![
            format!("{:.1}%", loss_per_mille as f64 / 10.0),
            format!("{:.2}", o.wall_secs),
            format!("{:.2}", o.sim_secs),
            o.messages.to_string(),
            pct(o.voice_on_time()),
            rt.deadline_misses.to_string(),
            rt.substrate_dropped.to_string(),
            format!("{:?}", rt.stop).to_lowercase(),
            if o.oracle_violations.is_empty() {
                "clean".into()
            } else {
                format!("{} VIOLATIONS", o.oracle_violations.len())
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
            oracle: true,
            ..MixParams::ci().scenario()
        };
        let o = run(&scenario, par(2, true));
        assert!(o.oracle_violations.is_empty(), "{:?}", o.oracle_violations);
    }
}
