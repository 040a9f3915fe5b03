//! Packets: what travels on the simulated wire.

use std::sync::Arc;

use dash_security::cipher::Key;
use dash_security::suite::MechanismPlan;
use dash_sim::time::SimTime;
use rms_core::message::Label;
use rms_core::params::SharedParams;
use rms_core::wire::WireMsg;

use crate::ids::{HostId, NetRmsId, NetworkId};
use crate::routing::lsdb::LinkStateAd;
use crate::routing::{Leg, Path};

/// A route computation's [`Path`] pinned into an establishment packet: a
/// `CreateReq` walks it forward from the creator, and its `CreateAck` or
/// `CreateNak` walks it back, so admission, its answer and its undoing
/// cross exactly the legs route computation chose, whatever each hop's
/// table says meanwhile. Every copy shares the one path.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRoute {
    /// The path, creator to peer.
    pub path: Path,
    /// Legs walked so far: the packet is crossing, or about to cross, the
    /// leg after them.
    pub next: usize,
    /// Which way the packet walks the path.
    pub direction: Direction,
}

/// The way a [`SourceRoute`] walks its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From the creator toward the peer: a `CreateReq`.
    Forward,
    /// Back toward the creator: an answer from the host `path[from].to`.
    Back {
        /// The index of the answering host's leg.
        from: usize,
    },
}

impl SourceRoute {
    /// The leg crossed after `walked` legs, if the route has one. Walking
    /// back, the path's first leg leads to `creator`, which the path does
    /// not list.
    pub fn leg(&self, walked: usize, creator: HostId) -> Option<Leg> {
        match self.direction {
            Direction::Forward => self.path.get(walked).copied(),
            Direction::Back { from } => {
                let i = from.checked_sub(walked)?;
                let network = self.path.get(i)?.network;
                let to = i.checked_sub(1).map_or(creator, |j| self.path[j].to);
                Some(Leg { network, to })
            }
        }
    }

    /// The hosts the route names on the wire: the whole path forward, the
    /// ones back to the creator (the creator included) from an answer.
    fn hosts_named(&self) -> u64 {
        match self.direction {
            Direction::Forward => self.path.len() as u64,
            Direction::Back { from } => from as u64 + 1,
        }
    }
}

/// Base header size (addresses, kind, seq, deadline field) charged to every
/// packet, in bytes. Security mechanisms add their own overhead on top.
pub const BASE_HEADER_BYTES: u64 = 28;

/// Why an RMS creation attempt was refused, in wire-compact form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakReason {
    /// A hop's admission control refused the reservation.
    Admission,
    /// The destination host refused (unknown/limits).
    PeerRefused,
    /// No route toward the destination at some hop.
    NoRoute,
}

/// The payload-bearing part of a data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// The network RMS this packet belongs to.
    pub rms: NetRmsId,
    /// Sender-assigned sequence number on that RMS.
    pub seq: u64,
    /// Payload segments (possibly ciphertext). Scatter-gather: the views
    /// are shared with the sender's buffers, never copied per hop.
    pub payload: WireMsg,
    /// Optional source label (§2: authenticated streams verify it).
    pub source: Option<Label>,
    /// Optional target label.
    pub target: Option<Label>,
    /// Authentication tag, when the RMS's mechanism plan includes a MAC.
    pub mac: Option<u64>,
    /// Software checksum value, when the plan includes one.
    pub checksum: Option<u32>,
    /// Observability span id riding with the payload (`dash_sim::obs`).
    /// Carried only while a sink is active; treated as metadata, not
    /// wire bytes, so enabling observability never perturbs timing.
    pub span: Option<u64>,
}

/// Packet kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// RMS data.
    Data(DataPacket),
    /// Hop-by-hop RMS creation request, reserving resources as it travels
    /// from the data sender toward the data receiver.
    CreateReq {
        /// The RMS id allocated by the sender side (by the inviter, when
        /// the request answers an invite).
        rms: NetRmsId,
        /// The negotiated parameters being reserved.
        params: SharedParams,
        /// Set when this request answers a receiver-side create (invite).
        invite: bool,
    },
    /// Positive reply, routed from receiver back to sender.
    CreateAck {
        /// The created RMS.
        rms: NetRmsId,
    },
    /// Negative reply; hops that reserved for `rms` release on sight.
    CreateNak {
        /// The RMS whose reservations must be released.
        rms: NetRmsId,
        /// Why.
        reason: NakReason,
    },
    /// A receiver-side creator asks the peer to initiate a sender-side
    /// create toward it (§2.4: "the creator of an RMS may act as either the
    /// sender or the receiver").
    Invite {
        /// The RMS id the inviter allocated; the peer's create uses it.
        rms: NetRmsId,
        /// Parameters the receiver-creator wants.
        params: SharedParams,
    },
    /// Teardown, routed sender → receiver; hops release reservations.
    Release {
        /// The RMS being closed.
        rms: NetRmsId,
    },
    /// A raw datagram outside any RMS (baseline traffic, §1's "unreliable,
    /// insecure datagrams").
    Raw {
        /// Demultiplexing tag for the upper layer.
        proto: u16,
        /// Payload segments (scatter-gather, shared with the sender).
        payload: WireMsg,
    },
    /// A link-state advertisement flooded by the routing subsystem
    /// (`crate::routing`). Control-plane: overflow-exempt and sent with
    /// link ARQ like every other control packet.
    LinkStateAd {
        /// The advertisement being disseminated: the one allocation its
        /// origin stamped, shared by every flooded copy and every LSDB
        /// that installs it (`Arc`, since envelopes cross threads).
        ad: Arc<LinkStateAd>,
        /// The network this copy was transmitted on. Receivers re-flood on
        /// every *other* live interface (split horizon): everyone attached
        /// to `via` was already sent a copy by the same transmitter, which
        /// keeps flood cost linear in attachments instead of quadratic.
        via: NetworkId,
    },
    /// ICMP-source-quench-style congestion signal (RFC 792/896), sent by a
    /// gateway to a datagram source on buffer overflow. The paper contrasts
    /// RMS capacity with exactly this "ad hoc and often ineffective"
    /// mechanism (§4.4).
    Quench {
        /// Protocol tag of the dropped datagram.
        proto: u16,
        /// Destination the dropped datagram was headed to.
        dropped_dst: HostId,
    },
}

/// A packet in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Kind + kind-specific fields.
    pub kind: PacketKind,
    /// Transmission deadline used for queueing at every hop (§4.1, §4.3.1).
    pub deadline: SimTime,
    /// When the original send operation started (start of the delay clock).
    pub sent_at: SimTime,
    /// True once the wire has corrupted this packet.
    pub corrupted: bool,
    /// Hops traversed so far (TTL guard).
    pub hops: u8,
    /// Use link-level ARQ on each hop (set for control packets and for data
    /// on reliable RMSs).
    pub reliable: bool,
    /// Out-of-band security material riding on a `CreateReq`: the mechanism
    /// plan and stream key the receiver endpoint must adopt. (A production
    /// system would run a key-exchange protocol here; carrying it on the
    /// handshake keeps the simulation honest about *who knows the key*.)
    pub next_plan: Option<(MechanismPlan, Key)>,
    /// Explicit route chosen by the routing subsystem for RMS establishment
    /// packets; hops forward along it instead of consulting their tables.
    pub source_route: Option<SourceRoute>,
    /// The neighbour this packet was queued toward, frozen at enqueue time
    /// so a route change between enqueue and transmission-finish cannot
    /// deliver it to a host that is not even on the transmitting network.
    /// Metadata, not wire bytes.
    pub next_hop: Option<HostId>,
}

impl Packet {
    /// A control packet `src` originates toward `dst` at `now`: due now,
    /// sent with link ARQ, no hops taken, routed by table. Packets that
    /// differ (a datagram without ARQ, a source-routed request, a flooded
    /// ad) override fields by struct update.
    pub fn control(src: HostId, dst: HostId, kind: PacketKind, now: SimTime) -> Packet {
        Packet {
            src,
            dst,
            kind,
            deadline: now,
            sent_at: now,
            corrupted: false,
            hops: 0,
            reliable: true,
            next_plan: None,
            source_route: None,
            next_hop: None,
        }
    }

    /// Total bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        let route = (self.source_route.as_ref()).map_or(0, |sr| 4 * sr.hosts_named());
        BASE_HEADER_BYTES + route + self.kind_bytes()
    }

    fn kind_bytes(&self) -> u64 {
        let sr = self.source_route.as_ref();
        match &self.kind {
            PacketKind::Data(d) => {
                let mut n = d.payload.len() as u64;
                if d.source.is_some() {
                    n += 8;
                }
                if d.target.is_some() {
                    n += 8;
                }
                if d.mac.is_some() {
                    n += 8;
                }
                if d.checksum.is_some() {
                    n += 4;
                }
                n
            }
            // Control packets: fixed small encodings. A request lists the
            // networks it has crossed, the one it is crossing included, and
            // an ack every network of the path: 4 bytes each, read off the
            // source route they walk.
            PacketKind::CreateReq { .. } => 64 + sr.map_or(0, |sr| 4 * (sr.next as u64 + 1)),
            PacketKind::CreateAck { .. } => 24 + sr.map_or(0, |sr| 4 * sr.path.len() as u64),
            PacketKind::CreateNak { .. } => 24,
            PacketKind::Invite { .. } => 64,
            PacketKind::Release { .. } => 8,
            PacketKind::Raw { payload, .. } => 2 + payload.len() as u64,
            PacketKind::LinkStateAd { ad, .. } => 16 + 20 * ad.links.len() as u64,
            PacketKind::Quench { .. } => 8,
        }
    }

    /// True for control-plane packets (never piggybacked, small).
    pub fn is_control(&self) -> bool {
        !matches!(self.kind, PacketKind::Data(_) | PacketKind::Raw { .. })
    }

    /// Observability span id, when this is a data packet carrying one.
    pub fn span(&self) -> Option<u64> {
        match &self.kind {
            PacketKind::Data(d) => d.span,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_packet(payload_len: usize) -> Packet {
        Packet {
            src: HostId(0),
            dst: HostId(1),
            kind: PacketKind::Data(DataPacket {
                rms: NetRmsId(1),
                seq: 0,
                payload: WireMsg::from(vec![0u8; payload_len]),
                source: None,
                target: None,
                mac: None,
                checksum: None,
                span: None,
            }),
            deadline: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            corrupted: false,
            hops: 0,
            reliable: false,
            next_plan: None,
            source_route: None,
            next_hop: None,
        }
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = data_packet(100);
        assert_eq!(p.wire_bytes(), BASE_HEADER_BYTES + 100);
    }

    #[test]
    fn security_fields_add_overhead() {
        let mut p = data_packet(100);
        if let PacketKind::Data(d) = &mut p.kind {
            d.mac = Some(1);
            d.checksum = Some(2);
            d.source = Some(Label(1));
            d.target = Some(Label(2));
        }
        assert_eq!(p.wire_bytes(), BASE_HEADER_BYTES + 100 + 8 + 4 + 8 + 8);
    }

    #[test]
    fn control_classification() {
        assert!(!data_packet(1).is_control());
        let mut p = data_packet(1);
        p.kind = PacketKind::Release { rms: NetRmsId(1) };
        assert!(p.is_control());
        p.kind = PacketKind::Raw {
            proto: 7,
            payload: WireMsg::new(),
        };
        assert!(!p.is_control());
    }
}
