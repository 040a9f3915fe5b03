//! The network layer's world state and the [`NetWorld`] trait that upper
//! layers implement to receive deliveries and events.
//!
//! `NetState` is deliberately non-generic: scheduled actions carry only ids
//! and reach it through `W::net()` — a packet between two protocol steps
//! waits in [`NetState`]'s parking slab, and the action names its slot.
//! Upward calls (deliveries, RMS events)
//! go through the `NetWorld` trait, so the subtransport crate can stack on
//! top without this crate knowing about it (paper Figure 1's
//! network-independent / network-dependent interface).

use rms_core::hash::DetHashMap;

use dash_sim::engine::{Call, Sim, TimerHandle};
use dash_sim::obs::{Obs, ObsEvent};
use dash_sim::rng::Rng;
use dash_sim::slab::Slab;
use dash_sim::time::{SimDuration, SimTime};
use rms_core::compat::RmsRequest;
use rms_core::error::{FailReason, RejectReason};
use rms_core::message::Message;
use rms_core::params::SharedParams;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;

use dash_security::cipher::Key;
use dash_security::cost::CostModel;
use dash_security::suite::MechanismPlan;

use crate::ids::{CreateToken, HostId, NetRmsId, NetworkId};
use crate::iface::{Iface, QueueDiscipline};
use crate::network::Network;
use crate::packet::Packet;
use crate::rms::NetRms;
use crate::routing::{CandidatePath, Lsdb};

/// Creation handshake retry timeout.
pub const CREATE_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// Creation handshake retry budget.
pub const CREATE_RETRIES: u32 = 3;
/// Hop budget before a packet is discarded.
pub const TTL: u8 = 16;

/// Global configuration of the network layer. Gateways always answer a
/// datagram overflow drop with a source quench (the RFC 792/896 baseline
/// behaviour, §4.4); the handshake timing and the hop budget are the
/// constants above.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Queue ordering for interfaces (deadline vs. FIFO baseline).
    pub discipline: QueueDiscipline,
    /// Fixed per-packet protocol CPU cost (send and receive sides), on top
    /// of security mechanism costs.
    pub per_packet_cpu: CostModel,
    /// Fault-seeding hook for the dash-check oracle: when true, interface
    /// ledgers record reservations without any capacity check
    /// ([`rms_core::admission::ResourceLedger::force_admit`]), so admission
    /// can oversubscribe — a deliberate §2.3 violation the semantic oracle
    /// must catch. Never enable outside verification runs.
    pub debug_force_admission: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            discipline: QueueDiscipline::Deadline,
            per_packet_cpu: CostModel::new(SimDuration::from_micros(5), SimDuration::from_nanos(1)),
            debug_force_admission: false,
        }
    }
}

/// A route table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Index into the host's interface list.
    pub iface: usize,
    /// The neighbour the packet is handed to next.
    pub next_hop: HostId,
}

/// A host's first-hop table: one compact slot per destination, indexed by
/// host id (dense because host ids are) — a lookup is an index, and a
/// table costs 8 bytes per destination where a hash map cost several times
/// that, which is what every replica world multiplies by H².
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    /// `slots[dst]` is `(next hop, interface index)`; an interface index
    /// of `u32::MAX` marks a destination with no route.
    slots: Vec<(u32, u32)>,
}

impl RouteTable {
    /// A table for `hosts` destinations, none of them reachable yet.
    pub(crate) fn unreachable(hosts: usize) -> Self {
        RouteTable {
            slots: vec![(0, u32::MAX); hosts],
        }
    }

    pub(crate) fn set(&mut self, dst: HostId, route: Route) {
        self.slots[dst.0 as usize] = (route.next_hop.0, route.iface as u32);
    }

    /// The first hop toward `dst`, if it is reachable.
    pub fn get(&self, dst: HostId) -> Option<Route> {
        let &(next_hop, iface) = self.slots.get(dst.0 as usize)?;
        (iface != u32::MAX).then_some(Route {
            iface: iface as usize,
            next_hop: HostId(next_hop),
        })
    }

    /// Every reachable destination with its first hop, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, Route)> + '_ {
        (0..self.slots.len() as u32).filter_map(|d| Some((HostId(d), self.get(HostId(d))?)))
    }
}

/// An in-flight creation attempt at its creator.
#[derive(Debug)]
pub struct PendingCreate {
    /// The RMS id allocated for the stream.
    pub rms: NetRmsId,
    /// Data-receiver host (peer of the sender).
    pub peer: HostId,
    /// Negotiated parameters being requested along the path.
    pub params: SharedParams,
    /// Attempts so far.
    pub attempts: u32,
    /// Retry timer.
    pub timer: Option<TimerHandle>,
    /// Set if this create answers a peer's invite.
    pub invite: Option<CreateToken>,
    /// Security mechanisms selected for the stream (§2.5).
    pub plan: MechanismPlan,
    /// Stream key the receiver was given on the request.
    pub key: Key,
    /// The original request, kept so a retry can re-resolve candidate
    /// paths after a fault-driven reconvergence.
    pub request: RmsRequest,
    /// Ordered alternate paths resolved by the routing subsystem.
    pub alternates: Vec<CandidatePath>,
    /// Index of the alternate currently being attempted.
    pub alt_idx: usize,
    /// [`NetState::route_generation`] at resolution time: a mismatch on
    /// retry means the topology changed and the alternates are stale.
    pub route_gen: u64,
}

/// An invite (receiver-side create) awaiting the peer's sender-side create.
#[derive(Debug)]
pub struct PendingInvite {
    /// The data-sender host being invited.
    pub peer: HostId,
    /// Parameters requested.
    pub params: SharedParams,
    /// Retry timer.
    pub timer: Option<TimerHandle>,
    /// Attempts so far.
    pub attempts: u32,
}

/// Per-host network-layer state.
#[derive(Debug)]
pub struct NetHost {
    /// This host's id.
    pub id: HostId,
    /// Attached interfaces.
    pub ifaces: Vec<Iface>,
    /// First-hop routes: destination → (interface, next hop). Recomputed
    /// from the LSDB whenever `routes_dirty_since` is set (see
    /// [`crate::routing::ensure_host_routes`]).
    pub routes: RouteTable,
    /// This host's link-state database (one ad per known origin).
    pub lsdb: Lsdb,
    /// Sequence number of the last link-state ad this host originated.
    pub lsa_seq: u64,
    /// When set, `routes` may no longer reflect the LSDB / availability
    /// flags; the value is the earliest trigger time (used to measure
    /// reconvergence latency when the table is lazily rebuilt).
    pub routes_dirty_since: Option<SimTime>,
    /// Pinned next hops for RMSs established through this host: data and
    /// teardown follow the path admission actually reserved, not whatever
    /// the current table says.
    pub rms_next: DetHashMap<NetRmsId, Route>,
    /// Live RMS endpoints (both roles).
    pub rms: DetHashMap<NetRmsId, NetRms>,
    /// Reservations held at this host for streams passing through it:
    /// RMS → (outbound interface index, reserved parameters).
    pub reservations: DetHashMap<NetRmsId, (usize, SharedParams)>,
    /// Creation attempts initiated here.
    pub pending: DetHashMap<CreateToken, PendingCreate>,
    /// Invites initiated here (receiver-side creates).
    pub invites: DetHashMap<CreateToken, PendingInvite>,
    /// When this host's CPU becomes free (used by the default FIFO CPU
    /// model of [`NetWorld::charge_cpu`]).
    pub cpu_free_at: SimTime,
    /// False while the host is crashed (fault injection): it neither sends,
    /// forwards, nor receives, and its packets die on arrival.
    pub up: bool,
}

impl NetHost {
    /// Index of the interface attached to `network`, if any.
    pub fn iface_on(&self, network: NetworkId) -> Option<usize> {
        self.ifaces.iter().position(|i| i.network == network)
    }
}

/// The complete state of the network layer.
#[derive(Debug)]
pub struct NetState {
    /// Configuration.
    pub config: NetConfig,
    /// All networks, indexed by [`NetworkId`].
    pub networks: Vec<Network>,
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<NetHost>,
    /// Deterministic randomness for the wire.
    pub rng: Rng,
    /// Cross-layer observability (see [`dash_sim::obs`]): the metric
    /// registry is the stack's world-level counter and always counts;
    /// message lifecycle spans and sinks wait for [`Obs::enable`] or an
    /// installed sink.
    pub obs: Obs,
    /// Partitioned host pairs (fault injection): traffic between the two
    /// hosts is silently dropped on every network hop. Keys are normalized
    /// `(min, max)` id pairs; a `BTreeSet` keeps iteration deterministic.
    pub partitions: std::collections::BTreeSet<(u32, u32)>,
    /// Bumped by every fault-driven reconvergence
    /// ([`crate::routing::mark_routes_dirty`]); pending creation attempts
    /// compare against it to detect stale candidate paths.
    pub route_generation: u64,
    /// Logical-process context when this world runs as one shard replica
    /// of a parallel run (`None` in ordinary serial execution). Boxed:
    /// the serial hot path pays one pointer, not an outbox.
    pub shard: Option<Box<crate::shard::ShardCtx>>,
    /// Packets between two protocol steps — serializing (the interface
    /// holds the slot), on the wire or a loopback hop toward their arrival
    /// call, or waiting for the CPU job that sends or receives them (the
    /// pending call carries the slot).
    pub(crate) parked: Slab<Packet>,
    next_rms: u64,
    next_token: u64,
}

impl NetState {
    /// Create an empty state (normally built via
    /// [`crate::topology::TopologyBuilder`]).
    pub fn new(config: NetConfig, seed: u64) -> Self {
        NetState {
            config,
            networks: Vec::new(),
            hosts: Vec::new(),
            rng: Rng::new(seed),
            obs: Obs::new(),
            partitions: std::collections::BTreeSet::new(),
            route_generation: 0,
            shard: None,
            parked: Slab::new(),
            next_rms: 1,
            next_token: 1,
        }
    }

    /// Whether this world executes protocol activity for `host`.
    ///
    /// Always true in serial execution; under the parallel executor each
    /// replica owns exactly one host and everything else is reached over
    /// wire envelopes (see [`crate::shard`]).
    #[inline]
    pub fn owns(&self, host: HostId) -> bool {
        match &self.shard {
            None => true,
            Some(s) => s.owns(host),
        }
    }

    /// Whether a wire hop toward `next` is scheduled as a local event.
    /// False means the transmitting side must divert the finished
    /// traversal into the outbox as a [`crate::shard::WireEnvelope`] —
    /// either toward another LP (parallel execution) or toward the
    /// real-time substrate (wire-divert mode).
    #[inline]
    pub fn wire_is_local(&self, next: HostId) -> bool {
        match &self.shard {
            None => true,
            Some(s) => s.wire_is_local(next),
        }
    }

    /// Switch this world into logical-process mode as `owner`'s replica.
    ///
    /// Three things must stop depending on global, cross-host execution
    /// order for a partitioned run to merge byte-identically:
    ///
    /// * the wire RNG — re-seeded as a pure function of `(root_seed,
    ///   owner)`, so each host's draw stream is the same no matter which
    ///   other hosts' draws would have interleaved in a shared world;
    /// * id allocation — rebased to the disjoint namespace
    ///   `(owner + 1) << 40`, so RMS ids and tokens minted independently
    ///   on different shards never collide;
    /// * wire delivery — [`crate::pipeline`] diverts transmissions toward
    ///   unowned hosts into the shard outbox instead of scheduling them.
    pub fn enable_lp_mode(&mut self, owner: HostId, root_seed: u64) {
        self.shard = Some(Box::new(crate::shard::ShardCtx {
            owner: crate::shard::Ownership::Host(owner),
            outbox: Vec::new(),
            out_seq: 0,
        }));
        self.rng = Rng::new(root_seed).fork(owner.0 as u64);
        self.set_id_namespace((owner.0 as u64 + 1) << 40);
    }

    /// Divert every wire hop into the outbox while this world keeps
    /// executing protocol activity for *all* hosts — the real-time
    /// backend's substrate mode. Unlike [`NetState::enable_lp_mode`],
    /// nothing else changes: RNG streams, id allocation, routing, and
    /// fault application are exactly the serial world's.
    pub fn enable_wire_divert(&mut self) {
        self.shard = Some(Box::new(crate::shard::ShardCtx {
            owner: crate::shard::Ownership::AllDivertWire,
            outbox: Vec::new(),
            out_seq: 0,
        }));
    }

    /// Rebase RMS-id and token allocation to start at `base`
    /// (see [`NetState::enable_lp_mode`]).
    pub fn set_id_namespace(&mut self, base: u64) {
        self.next_rms = base;
        self.next_token = base;
    }

    /// Move the wire envelopes diverted toward other logical processes
    /// since the last call onto the end of `sink`. The outbox keeps its
    /// capacity, so a world drained every window stops allocating for it.
    /// A no-op in serial mode.
    pub fn drain_outbox_into(&mut self, sink: &mut Vec<crate::shard::WireEnvelope>) {
        if let Some(s) = &mut self.shard {
            sink.append(&mut s.outbox);
        }
    }

    /// Whether traffic between `a` and `b` is currently partitioned.
    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        self.partitions.contains(&Self::pair(a, b))
    }

    /// Install a partition between `a` and `b` (idempotent).
    pub fn partition(&mut self, a: HostId, b: HostId) {
        self.partitions.insert(Self::pair(a, b));
    }

    /// Remove the partition between `a` and `b` (idempotent).
    pub fn heal_partition(&mut self, a: HostId, b: HostId) {
        self.partitions.remove(&Self::pair(a, b));
    }

    fn pair(a: HostId, b: HostId) -> (u32, u32) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// Shared access to a host.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn host(&self, id: HostId) -> &NetHost {
        &self.hosts[id.0 as usize]
    }

    /// Mutable access to a host.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn host_mut(&mut self, id: HostId) -> &mut NetHost {
        &mut self.hosts[id.0 as usize]
    }

    /// Shared access to a network.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn network(&self, id: NetworkId) -> &Network {
        &self.networks[id.0 as usize]
    }

    /// Mutable access to a network.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn network_mut(&mut self, id: NetworkId) -> &mut Network {
        &mut self.networks[id.0 as usize]
    }

    /// Allocate a fresh, globally unique RMS id.
    pub fn alloc_rms_id(&mut self) -> NetRmsId {
        let id = NetRmsId(self.next_rms);
        self.next_rms += 1;
        id
    }

    /// Allocate a fresh creation token.
    pub fn alloc_token(&mut self) -> CreateToken {
        let t = CreateToken(self.next_token);
        self.next_token += 1;
        t
    }

    /// The hop-by-hop path from `src` to `dst` as `(hop host, iface index,
    /// network, next hop)` tuples, or `None` if unroutable.
    ///
    /// Stale-safe: a hop whose table was marked dirty by the routing layer
    /// is consulted through an ad-hoc recomputation (not cached — this
    /// method takes `&self`), so callers holding only shared access (e.g.
    /// ST negotiation) always see reconverged routes.
    pub fn path(
        &self,
        src: HostId,
        dst: HostId,
    ) -> Option<Vec<(HostId, usize, NetworkId, HostId)>> {
        let mut here = src;
        let mut out = Vec::new();
        let mut hops = 0;
        while here != dst {
            let host = self.host(here);
            let route = if host.routes_dirty_since.is_some() {
                crate::routing::primary_routes(self, here).get(dst)?
            } else {
                host.routes.get(dst)?
            };
            let network = self.host(here).ifaces[route.iface].network;
            out.push((here, route.iface, network, route.next_hop));
            here = route.next_hop;
            hops += 1;
            if hops > TTL {
                return None;
            }
        }
        Some(out)
    }
}

/// Events the network layer reports upward about RMS lifecycle.
#[derive(Debug)]
pub enum NetRmsEvent {
    /// A creation initiated here (sender side, or sender side on behalf of
    /// a peer invite) finished successfully.
    Created {
        /// The creator's token.
        token: CreateToken,
        /// The new stream.
        rms: NetRmsId,
        /// Its negotiated parameters.
        params: SharedParams,
    },
    /// A creation initiated here failed.
    CreateFailed {
        /// The creator's token.
        token: CreateToken,
        /// Why.
        reason: RejectReason,
    },
    /// A receiving endpoint appeared at this host (a peer created a stream
    /// toward us). If `invite` is set, it answers our earlier invite.
    InboundCreated {
        /// The new stream.
        rms: NetRmsId,
        /// The sending peer.
        peer: HostId,
        /// Negotiated parameters.
        params: SharedParams,
        /// Our invite token, when this answers a receiver-side create.
        invite: Option<CreateToken>,
    },
    /// This host now owns the *sending* end of a stream it did not ask for:
    /// it accepted a peer's invite (§2.4 receiver-side creation).
    SenderCreatedByInvite {
        /// The new stream.
        rms: NetRmsId,
        /// The receiving peer (the inviter).
        peer: HostId,
        /// Negotiated parameters.
        params: SharedParams,
    },
    /// An invite we sent was refused or timed out.
    InviteFailed {
        /// Our invite token.
        token: CreateToken,
        /// Why.
        reason: RejectReason,
    },
    /// An RMS endpoint at this host failed (§2 property 3).
    Failed {
        /// The stream.
        rms: NetRmsId,
        /// Why.
        reason: FailReason,
    },
    /// The peer closed the stream.
    Closed {
        /// The stream.
        rms: NetRmsId,
    },
}

/// The world-state contract between the network layer and whatever runs
/// above it.
pub trait NetWorld: Sized + 'static {
    /// The embedded network state.
    fn net(&mut self) -> &mut NetState;
    /// Shared access to the embedded network state.
    fn net_ref(&self) -> &NetState;

    /// Charge protocol CPU time at `host`, then call `cont`.
    ///
    /// The default implementation models a single CPU per host with FIFO
    /// (run-to-completion) scheduling: jobs execute in submission order, so
    /// protocol processing never reorders a stream's packets. Worlds with a
    /// real [`dash_sim::cpu::Cpu`] override this to get deadline-based
    /// short-term scheduling (§4.1); `deadline` and `stream` exist for
    /// those overrides.
    fn charge_cpu(
        sim: &mut Sim<Self>,
        host: HostId,
        cost: SimDuration,
        deadline: SimTime,
        stream: u64,
        cont: Call<Self>,
    ) {
        let _ = (deadline, stream);
        fifo_charge_cpu(sim, host, cost, cont);
    }

    /// A message arrived on a receiving RMS endpoint at `host`.
    fn deliver_up(
        sim: &mut Sim<Self>,
        host: HostId,
        rms: NetRmsId,
        msg: Message,
        info: DeliveryInfo,
    );

    /// An RMS lifecycle event occurred at `host`.
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent);

    /// A raw datagram arrived (baseline traffic). Default: discarded.
    fn deliver_datagram(
        sim: &mut Sim<Self>,
        host: HostId,
        src: HostId,
        proto: u16,
        payload: WireMsg,
        sent_at: SimTime,
    ) {
        let _ = (sim, host, src, proto, payload, sent_at);
    }

    /// A source-quench arrived (baseline congestion signal). Default:
    /// ignored — which is exactly the failure mode the paper ascribes to
    /// ad-hoc congestion control.
    fn deliver_quench(sim: &mut Sim<Self>, host: HostId, proto: u16, dropped_dst: HostId) {
        let _ = (sim, host, proto, dropped_dst);
    }

    /// A network changed availability: `up = false` after
    /// [`crate::pipeline::fail_network`], `up = true` after
    /// [`crate::pipeline::restore_network`]. Layers that cache network
    /// resources (the ST, §4.2) hook this to fail over or re-establish.
    /// Default: ignored.
    fn network_event(sim: &mut Sim<Self>, network: NetworkId, up: bool) {
        let _ = (sim, network, up);
    }
}

/// Record `event` in the world's observability hub at the current virtual
/// time: counted always, span-tracked and forwarded to sinks while the hub
/// is active.
pub fn emit<W: NetWorld>(sim: &mut Sim<W>, event: ObsEvent) {
    let now = sim.now();
    sim.state.net().obs.emit(now, event);
}

/// The default CPU model shared by [`NetWorld::charge_cpu`] implementations:
/// one CPU per host, FIFO run-to-completion. Worlds that override
/// `charge_cpu` (e.g. to use an EDF [`dash_sim::cpu::Cpu`]) can fall back to
/// this for hosts without a modelled CPU.
pub fn fifo_charge_cpu<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    cost: SimDuration,
    cont: Call<W>,
) {
    let now = sim.now();
    let h = sim.state.net().host_mut(host);
    let start = if h.cpu_free_at > now {
        h.cpu_free_at
    } else {
        now
    };
    let finish = start.saturating_add(cost);
    h.cpu_free_at = finish;
    if finish <= now {
        cont.run(sim);
    } else {
        sim.call_at(finish, cont.f, cont.args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_allocation_is_unique() {
        let mut s = NetState::new(NetConfig::default(), 1);
        let a = s.alloc_rms_id();
        let b = s.alloc_rms_id();
        assert_ne!(a, b);
        let t1 = s.alloc_token();
        let t2 = s.alloc_token();
        assert_ne!(t1, t2);
    }

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert_eq!(c.discipline, QueueDiscipline::Deadline);
    }
}
