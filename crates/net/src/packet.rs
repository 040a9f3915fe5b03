//! Packets: what travels on the simulated wire.

use std::sync::Arc;

use dash_security::cipher::Key;
use dash_security::suite::MechanismPlan;
use dash_sim::time::SimTime;
use rms_core::message::Label;
use rms_core::params::SharedParams;
use rms_core::wire::WireMsg;

use crate::ids::{CreateToken, HostId, NetRmsId, NetworkId};
use crate::routing::lsdb::LinkStateAd;

/// An explicit hop-by-hop route pinned into a packet by the creator (or by
/// a replying hop, for the reverse direction). RMS establishment uses this
/// to steer `CreateReq`/`CreateAck`/`CreateNak` along a *chosen* alternate
/// path rather than whatever each hop's table happens to say, so admission
/// walks exactly the path the route computation admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRoute {
    /// Remaining-and-past hops, ending with the final destination. The
    /// originating host is *not* listed. `hops[i]` is reached by crossing
    /// `networks[i]`.
    pub hops: Vec<HostId>,
    /// `networks[i]` connects `hops[i-1]` (or the originator, for `i == 0`)
    /// to `hops[i]`. Same length as `hops`.
    pub networks: Vec<NetworkId>,
    /// Index of the hop the packet is currently traveling toward.
    pub next: usize,
}

impl SourceRoute {
    /// The network the packet must cross next, if any hops remain.
    pub fn next_network(&self) -> Option<NetworkId> {
        self.networks.get(self.next).copied()
    }

    /// The host the packet must be handed to next, if any hops remain.
    pub fn next_hop(&self) -> Option<HostId> {
        self.hops.get(self.next).copied()
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
        /// Creator's correlation token.
        token: CreateToken,
        /// The RMS id allocated by the sender side.
        rms: NetRmsId,
        /// The negotiated parameters being reserved.
        params: SharedParams,
        /// Networks traversed so far (for failure notification).
        path: Vec<crate::ids::NetworkId>,
        /// Set when this request answers a receiver-side create (invite).
        invite: Option<CreateToken>,
    },
    /// Positive reply, routed from receiver back to sender.
    CreateAck {
        /// Echo of the request token.
        token: CreateToken,
        /// The created RMS.
        rms: NetRmsId,
        /// Networks on the forward path (receiver echoes them back).
        path: Vec<crate::ids::NetworkId>,
        /// Echo of the invite token, if any.
        invite: Option<CreateToken>,
    },
    /// Negative reply; hops that reserved for `rms` release on sight.
    CreateNak {
        /// Echo of the request token.
        token: CreateToken,
        /// The RMS whose reservations must be released.
        rms: NetRmsId,
        /// Why.
        reason: NakReason,
        /// Echo of the invite token, if any.
        invite: Option<CreateToken>,
    },
    /// A receiver-side creator asks the peer to initiate a sender-side
    /// create toward it (§2.4: "the creator of an RMS may act as either the
    /// sender or the receiver").
    Invite {
        /// Creator's correlation token (echoed through the whole exchange).
        token: CreateToken,
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
    /// Total bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        let route = self
            .source_route
            .as_ref()
            .map_or(0, |sr| 4 * sr.hops.len() as u64);
        BASE_HEADER_BYTES + route + self.kind_bytes()
    }

    fn kind_bytes(&self) -> u64 {
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
            // Control packets: fixed small encodings.
            PacketKind::CreateReq { path, .. } => 64 + 4 * path.len() as u64,
            PacketKind::CreateAck { path, .. } => 24 + 4 * path.len() as u64,
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
