//! Network interfaces with deadline-ordered transmission queues.
//!
//! Paper §4.1: "For network RMS, the deadlines are used to determine the
//! order in which packets are queued for transmission on a network
//! interface." §2.5: "if packet queueing in an internetwork gateway is done
//! using RMS-specified deadlines, then a low-delay packet can be sent
//! before high-delay packets that would otherwise cause it to be delivered
//! late."
//!
//! Ties are broken by enqueue order, which also yields plain FIFO when all
//! deadlines are equal (the baseline mode used by the scheduling
//! experiment).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dash_sim::stats::Counter;
use dash_sim::time::SimTime;
use rms_core::admission::ResourceLedger;

use crate::ids::NetworkId;
use crate::packet::Packet;

/// How an interface orders its transmit queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Earliest transmission deadline first (the RMS design).
    #[default]
    Deadline,
    /// Arrival order, ignoring deadlines (the baseline).
    Fifo,
}

#[derive(Debug)]
struct Queued {
    key: SimTime,
    seq: u64,
    packet: Packet,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (key, seq).
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// Interface statistics for the experiments. Queueing delay is the
/// registry's `span.stage.queue`.
#[derive(Debug, Default)]
pub struct IfaceStats {
    /// Packets dropped because the queue byte limit was hit.
    pub overflow_drops: Counter,
    /// High-water mark of queued bytes.
    pub max_queued_bytes: u64,
}

/// One attachment of a host to a network: the transmit side.
#[derive(Debug)]
pub struct Iface {
    /// The network this interface is attached to.
    pub network: NetworkId,
    discipline: QueueDiscipline,
    queue: BinaryHeap<Queued>,
    queued_bytes: u64,
    queue_limit_bytes: Option<u64>,
    next_seq: u64,
    /// The packet being serialized onto the wire, if any, as its slot in
    /// the world's parking slab: an inline packet would add its 336 bytes
    /// to every interface of every host, in every replica world.
    on_wire: Option<u32>,
    /// Transmitter frozen until this instant (fault injection): queued
    /// packets wait, nothing is dropped by the stall itself.
    pub stalled_until: SimTime,
    /// Admission-control ledger for streams reserved through this
    /// interface.
    pub ledger: ResourceLedger,
    /// Measurement counters.
    pub stats: IfaceStats,
}

impl Iface {
    /// A new interface on `network` with the given ledger and optional
    /// queue byte limit.
    pub fn new(
        network: NetworkId,
        discipline: QueueDiscipline,
        ledger: ResourceLedger,
        queue_limit_bytes: Option<u64>,
    ) -> Self {
        Iface {
            network,
            discipline,
            queue: BinaryHeap::new(),
            queued_bytes: 0,
            queue_limit_bytes,
            next_seq: 0,
            on_wire: None,
            stalled_until: SimTime::ZERO,
            ledger,
            stats: IfaceStats::default(),
        }
    }

    /// True while the transmitter is frozen by an injected stall.
    pub fn is_stalled(&self, now: SimTime) -> bool {
        now < self.stalled_until
    }

    /// The queue ordering in force.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Bytes currently waiting (not counting the packet on the wire).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently waiting.
    pub fn queued_packets(&self) -> usize {
        self.queue.len()
    }

    /// True while a packet is being serialized onto the wire.
    pub fn is_busy(&self) -> bool {
        self.on_wire.is_some()
    }

    /// Start serializing the packet parked at `slot` (driven by the
    /// pipeline).
    pub(crate) fn begin_tx(&mut self, slot: u32) {
        debug_assert!(self.on_wire.is_none(), "transmitter already busy");
        self.on_wire = Some(slot);
    }

    /// Finish serializing: the transmitter is idle again, and the parked
    /// packet's slot is returned.
    pub(crate) fn end_tx(&mut self) -> Option<u32> {
        self.on_wire.take()
    }

    /// Enqueue a packet for transmission at `now`.
    ///
    /// Returns `false` (and counts an overflow drop) if the byte limit
    /// would be exceeded. Control packets are always accepted: they are
    /// tiny, and dropping reservations/teardowns wedges the protocol state
    /// machines the same way real networks prioritize control traffic.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> bool {
        let bytes = packet.wire_bytes();
        if !packet.is_control() {
            if let Some(limit) = self.queue_limit_bytes {
                if self.queued_bytes + bytes > limit {
                    self.stats.overflow_drops.incr();
                    return false;
                }
            }
        }
        let key = match self.discipline {
            QueueDiscipline::Deadline => packet.deadline,
            QueueDiscipline::Fifo => now,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queued_bytes += bytes;
        self.stats.max_queued_bytes = self.stats.max_queued_bytes.max(self.queued_bytes);
        self.queue.push(Queued { key, seq, packet });
        true
    }

    /// Pop the next packet to transmit. The queue keeps no timestamps, so
    /// `_now` is unused: queueing delay is the registry's
    /// `span.stage.queue`.
    pub fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let q = self.queue.pop()?;
        self.queued_bytes -= q.packet.wire_bytes();
        Some(q.packet)
    }

    /// Drop everything queued (host crash), returning how many packets
    /// were discarded.
    pub fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        self.queued_bytes = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, NetRmsId};
    use crate::packet::{DataPacket, PacketKind};
    use rms_core::wire::WireMsg;

    fn ledger() -> ResourceLedger {
        ResourceLedger::new(10e6 / 8.0, 1 << 20)
    }

    fn packet(deadline_ns: u64, len: usize) -> Packet {
        Packet {
            src: HostId(0),
            dst: HostId(1),
            kind: PacketKind::Data(DataPacket {
                rms: NetRmsId(0),
                seq: 0,
                payload: WireMsg::from(vec![0u8; len]),
                source: None,
                target: None,
                mac: None,
                checksum: None,
                span: None,
            }),
            deadline: SimTime::from_nanos(deadline_ns),
            sent_at: SimTime::ZERO,
            corrupted: false,
            hops: 0,
            reliable: false,
            next_plan: None,
            source_route: None,
            next_hop: None,
        }
    }

    fn release_packet() -> Packet {
        Packet {
            src: HostId(0),
            dst: HostId(1),
            kind: PacketKind::Release { rms: NetRmsId(0) },
            deadline: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            corrupted: false,
            hops: 0,
            reliable: true,
            next_plan: None,
            source_route: None,
            next_hop: None,
        }
    }

    #[test]
    fn deadline_order_lets_urgent_overtake() {
        let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Deadline, ledger(), None);
        iface.enqueue(SimTime::ZERO, packet(1_000_000, 10)); // lazy
        iface.enqueue(SimTime::ZERO, packet(1_000, 10)); // urgent, enqueued later
        let first = iface.dequeue(SimTime::ZERO).unwrap();
        assert_eq!(first.deadline, SimTime::from_nanos(1_000));
    }

    #[test]
    fn fifo_ignores_deadlines() {
        let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Fifo, ledger(), None);
        iface.enqueue(SimTime::ZERO, packet(1_000_000, 10));
        iface.enqueue(SimTime::ZERO, packet(1_000, 10));
        let first = iface.dequeue(SimTime::ZERO).unwrap();
        assert_eq!(first.deadline, SimTime::from_nanos(1_000_000));
    }

    #[test]
    fn equal_deadlines_preserve_arrival_order() {
        let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Deadline, ledger(), None);
        for len in [1usize, 2, 3] {
            iface.enqueue(SimTime::ZERO, packet(500, len));
        }
        for expect in [1usize, 2, 3] {
            let p = iface.dequeue(SimTime::ZERO).unwrap();
            if let PacketKind::Data(d) = p.kind {
                assert_eq!(d.payload.len(), expect);
            } else {
                panic!("not data");
            }
        }
    }

    #[test]
    fn byte_limit_drops_data_but_not_control() {
        let limit = packet(0, 100).wire_bytes() + 10;
        let mut iface = Iface::new(
            NetworkId(0),
            QueueDiscipline::Deadline,
            ledger(),
            Some(limit),
        );
        assert!(iface.enqueue(SimTime::ZERO, packet(0, 100)));
        assert!(!iface.enqueue(SimTime::ZERO, packet(0, 100)));
        assert_eq!(iface.stats.overflow_drops.get(), 1);
        // Control packets bypass the limit.
        assert!(iface.enqueue(SimTime::ZERO, release_packet()));
    }

    #[test]
    fn byte_accounting_through_dequeue() {
        let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Deadline, ledger(), None);
        iface.enqueue(SimTime::ZERO, packet(0, 100));
        let before = iface.queued_bytes();
        assert!(before > 100);
        iface.dequeue(SimTime::from_nanos(10)).unwrap();
        assert_eq!(iface.queued_bytes(), 0);
        assert_eq!(iface.queued_packets(), 0);
        assert_eq!(iface.stats.max_queued_bytes, before);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Deadline, ledger(), None);
        assert!(iface.dequeue(SimTime::ZERO).is_none());
    }
}
