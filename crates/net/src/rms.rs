//! Per-endpoint state of a network-level RMS.

use std::collections::BTreeMap;

use dash_security::cipher::Key;
use dash_security::suite::MechanismPlan;
use dash_sim::stats::Counter;
use dash_sim::time::SimTime;
use rms_core::message::Message;
use rms_core::params::SharedParams;

use crate::ids::{HostId, NetRmsId};
use crate::routing::Path;

/// Which end of the simplex stream this host holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmsRole {
    /// This host invokes send operations.
    Sender,
    /// This host's port receives deliveries.
    Receiver,
}

/// Delivery statistics kept at the receiving end.
#[derive(Debug, Default)]
pub struct RmsStats {
    /// Messages delivered to the client.
    pub delivered: Counter,
    /// Deliveries later than the RMS delay bound.
    pub late: Counter,
    /// Messages known lost (sequence gaps on an unreliable stream, or
    /// detected-corrupt drops).
    pub lost: Counter,
    /// Corrupted packets delivered (no checksum selected).
    pub corrupt_delivered: Counter,
}

/// When a reliable stream's reorder buffer exceeds this many messages the
/// RMS fails (a persistent gap means a message was lost despite ARQ —
/// reliability can no longer be honoured, §2: failure is notified).
pub const REORDER_FAIL_THRESHOLD: usize = 64;

/// State of one network RMS endpoint.
#[derive(Debug)]
pub struct NetRms {
    /// Stream id (shared by both endpoints).
    pub id: NetRmsId,
    /// This host's role.
    pub role: RmsRole,
    /// The other endpoint.
    pub peer: HostId,
    /// Negotiated parameters (shared with reservations and control state).
    pub params: SharedParams,
    /// Security mechanisms selected at creation (§2.5).
    pub plan: MechanismPlan,
    /// Stream key for encryption/MAC (distributed during creation; a real
    /// system would run a key exchange here).
    pub key: Key,
    /// The path the stream was established on, creator to peer: the
    /// creator's chosen candidate, shared by both endpoints (failure
    /// notification reads it).
    pub path: Path,
    /// Sender side: next sequence number.
    pub next_seq: u64,
    /// Sender side: minimum transmission deadline for the next packet
    /// (§4.3.1 ordering rule, maintained by the provider for its own sends).
    pub last_tx_deadline: SimTime,
    /// Monotone floor for send-side CPU-job deadlines (deadline-based
    /// process scheduling must not reorder one stream's packets, §4.1).
    pub last_send_job_deadline: SimTime,
    /// Monotone floor for receive-side CPU-job deadlines.
    pub last_recv_job_deadline: SimTime,
    /// Receiver side: highest sequence delivered so far.
    pub last_delivered: Option<u64>,
    /// Receiver side, reliable streams: out-of-order arrivals, decrypted
    /// and verified, by sequence number, each with its original send time.
    pub reorder: BTreeMap<u64, (Message, SimTime)>,
    /// Receiver-side statistics.
    pub stats: RmsStats,
}

impl NetRms {
    /// Fresh endpoint state.
    pub fn new(
        id: NetRmsId,
        role: RmsRole,
        peer: HostId,
        params: SharedParams,
        plan: MechanismPlan,
        key: Key,
        path: Path,
    ) -> Self {
        NetRms {
            id,
            role,
            peer,
            params,
            plan,
            key,
            path,
            next_seq: 0,
            last_tx_deadline: SimTime::ZERO,
            last_send_job_deadline: SimTime::ZERO,
            last_recv_job_deadline: SimTime::ZERO,
            last_delivered: None,
            reorder: BTreeMap::new(),
            stats: RmsStats::default(),
        }
    }

    /// The host that created the stream and chose its path, this endpoint
    /// being at `here`: the sending end (an invited sender creates too).
    pub fn creator(&self, here: HostId) -> HostId {
        match self.role {
            RmsRole::Sender => here,
            RmsRole::Receiver => self.peer,
        }
    }

    /// Allocate the next send sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// True if `seq` would be stale (≤ the newest delivered) on an
    /// unreliable stream.
    pub fn is_stale(&self, seq: u64) -> bool {
        matches!(self.last_delivered, Some(last) if seq <= last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rms(role: RmsRole) -> NetRms {
        NetRms::new(
            NetRmsId(1),
            role,
            HostId(2),
            rms_core::params::RmsParams::builder(10_000, 1_000)
                .build()
                .unwrap()
                .shared(),
            MechanismPlan::NONE,
            Key(1),
            Path::default(),
        )
    }

    #[test]
    fn seq_allocation_is_monotone() {
        let mut r = rms(RmsRole::Sender);
        assert_eq!(r.alloc_seq(), 0);
        assert_eq!(r.alloc_seq(), 1);
        assert_eq!(r.alloc_seq(), 2);
    }

    #[test]
    fn staleness() {
        let mut r = rms(RmsRole::Receiver);
        assert!(!r.is_stale(0));
        r.last_delivered = Some(5);
        assert!(r.is_stale(5));
        assert!(r.is_stale(3));
        assert!(!r.is_stale(6));
    }
}
