//! Shard-boundary support for the conservative parallel executor.
//!
//! `dash::par` runs one *logical process* (LP) per host: a full replica
//! world whose protocol state only ever populates for the one host it
//! owns. The single point where LPs interact is the wire — a packet
//! finishing transmission toward a host the world does not own is
//! diverted into the [`ShardCtx::outbox`] as a [`WireEnvelope`] instead
//! of being scheduled locally. The executor routes envelopes to the
//! owning LP, which injects them with
//! [`dash_sim::engine::Sim::schedule_arrival`] under the canonical
//! `(deliver_at, source host, per-source seq)` key, so arrival order is
//! a pure function of what was sent — never of how hosts were grouped
//! onto worker threads or in which batch an envelope crossed a shard.
//!
//! Everything else a world does (fault plans, replicated topology,
//! routing-table rebuilds over the replica LSDB) is computed locally and
//! identically in every LP; see `DESIGN.md` § "Parallel execution model"
//! for the partition-independence argument.

use dash_sim::time::SimTime;

use crate::ids::HostId;
use crate::packet::Packet;

/// A wire delivery crossing a logical-process boundary.
///
/// Ordering is `(deliver_at, src, seq)` — the fixed merge order the
/// executor and the engine's arrival keys agree on.
#[derive(Debug)]
pub struct WireEnvelope {
    /// Absolute arrival time at `dst` (transmission finish + wire delay).
    pub deliver_at: SimTime,
    /// The transmitting host (the owner of the generating LP).
    pub src: HostId,
    /// Per-source monotone sequence number; with `src`, a total tie-break
    /// among co-timed arrivals.
    pub seq: u64,
    /// The receiving host (owner of the LP this envelope must reach).
    pub dst: HostId,
    /// The packet itself, wire effects (corruption flag, ARQ delay)
    /// already applied by the transmitting side.
    pub packet: Packet,
}

impl WireEnvelope {
    /// The engine tie-break key for this envelope's arrival event.
    pub fn arrival_key(&self) -> u64 {
        dash_sim::engine::arrival_key(self.src.0, self.seq)
    }
}

/// Which hosts' protocol activity a diverted world executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ownership {
    /// One host's replica: the parallel executor's LP mode. Everything
    /// toward other hosts leaves through the outbox.
    Host(HostId),
    /// All hosts, but every wire hop still leaves through the outbox —
    /// the real-time backend's substrate mode, where an external carriage
    /// layer (`dash-rt`'s `Substrate`) owns packet delivery.
    AllDivertWire,
}

/// Diversion context: present when wire deliveries leave the world
/// through the outbox instead of being scheduled locally — either because
/// the world is one LP of a parallel run
/// ([`crate::state::NetState::enable_lp_mode`]) or because an external
/// substrate carries its packets
/// ([`crate::state::NetState::enable_wire_divert`]).
#[derive(Debug)]
pub struct ShardCtx {
    /// Whose protocol activity this world executes.
    pub owner: Ownership,
    /// Wire deliveries diverted off-world, accumulated since the last
    /// [`crate::state::NetState::drain_outbox_into`].
    pub outbox: Vec<WireEnvelope>,
    /// Next per-source envelope sequence number.
    pub out_seq: u64,
}

impl ShardCtx {
    /// Whether this world executes protocol activity for `host`.
    pub fn owns(&self, host: HostId) -> bool {
        match self.owner {
            Ownership::Host(h) => h == host,
            Ownership::AllDivertWire => true,
        }
    }

    /// Whether a wire hop toward `next` stays inside this world (is
    /// scheduled as a local event) rather than leaving via the outbox.
    pub fn wire_is_local(&self, next: HostId) -> bool {
        match self.owner {
            Ownership::Host(h) => h == next,
            Ownership::AllDivertWire => false,
        }
    }
}
