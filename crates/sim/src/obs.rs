//! Cross-layer observability: typed events, a metric registry, and message
//! lifecycle spans.
//!
//! The paper's central quantitative claims are about *where time goes
//! inside the stack* (per-layer delay budgets, Fig. 3 / §3.4 / §4.1), so
//! measurement cannot be an afterthought bolted onto each experiment.
//! This module is the measurement plane every layer reports into:
//!
//! - [`ObsEvent`]: one typed event enum with a variant per interesting
//!   occurrence in every layer (admission decisions, interface queueing,
//!   fragmentation, piggybacking, caching, ST/stream/RKOM sends and
//!   deliveries, TCP retransmissions).
//! - [`MetricRegistry`]: named counters and histograms fed automatically
//!   from events. Every world-level number is a registry counter; the
//!   per-endpoint stats structs of the layers keep only the fields
//!   something reads.
//! - Lifecycle spans: a message allocated a span id at transport `send`
//!   carries it through ST, fragmentation, the interface queue, the wire,
//!   and reassembly to port delivery. Each [`Stage`] is timestamped on
//!   first occurrence, yielding a per-stage latency breakdown
//!   ([`SpanRecord`]) that regenerates the Fig. 2/Fig. 3 budget tables.
//!
//! Counting is always on: [`Obs::emit`] applies every event to the
//! registry whether or not the hub is active, so the registry is the
//! stack's one world-level counter and a run counts the same with
//! observability off as with it on. What activation ([`Obs::enable`], or
//! installing a sink) adds is what costs wire bytes or memory: span ids
//! (frames carrying one grow by 8 bytes — an honest, visible
//! instrumentation cost), the span tracker, and the sinks. While inactive
//! [`Obs::start_span`] mints nothing, so wire images and timing are those
//! of a run that never heard of spans.
//!
//! Every discard has exactly one typed event: [`ObsEvent::IfaceDrop`]
//! (queue overflow), [`ObsEvent::WireDrop`] (wire loss or damage), and
//! [`ObsEvent::Drop`] with a [`DropCause`] for the rest.
//!
//! Sinks ([`ObsSink`]) observe the raw stream, in installation order:
//! [`JsonLinesSink`] exports JSON-Lines for offline analysis.

use std::collections::BTreeMap;
use std::io::Write;

use crate::stats::{Counter, Histogram};
use crate::time::{SimDuration, SimTime};

/// Open spans are capped at this many; beyond it the oldest (smallest id)
/// is discarded. Messages lost on the wire never complete their span, and
/// a bounded tracker keeps long lossy runs from accumulating state.
const MAX_OPEN_SPANS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Stages and events
// ---------------------------------------------------------------------------

/// A named instant in a message's lifecycle, ordered top-of-stack to
/// delivery. Each stage is recorded at most once per span (the first
/// occurrence wins, so fragments and retransmissions do not distort the
/// breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The stream transport accepted the message (`stream::send` pump).
    TransportSend,
    /// The ST engine accepted the message (`engine::send`); this instant is
    /// also the frame's `sent_at`, the delay-clock origin of §2.2.
    StSend,
    /// The network layer accepted the carrying message (`send_on_rms`).
    NetSend,
    /// The packet joined an interface transmit queue.
    IfaceEnqueue,
    /// The packet left the queue and started serializing onto the wire.
    WireTx,
    /// The packet reached the destination host's network layer.
    NetRecv,
    /// The ST engine delivered the (reassembled) message to its port; this
    /// instant equals `DeliveryInfo::delivered_at`.
    StDeliver,
}

impl Stage {
    /// How many stages there are: a span's stage list never holds more.
    const COUNT: usize = 7;

    /// Short stable identifier (used in JSON export and metric names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::TransportSend => "transport_send",
            Stage::StSend => "st_send",
            Stage::NetSend => "net_send",
            Stage::IfaceEnqueue => "iface_enqueue",
            Stage::WireTx => "wire_tx",
            Stage::NetRecv => "net_recv",
            Stage::StDeliver => "st_deliver",
        }
    }

    /// Name of the latency interval that *starts* at this stage, e.g. the
    /// queueing delay starts at [`Stage::IfaceEnqueue`]. Used as the
    /// registry histogram name `span.stage.<interval>`.
    pub fn interval(self) -> &'static str {
        match self {
            Stage::TransportSend => "transport",
            Stage::StSend => "st_tx",
            Stage::NetSend => "net_tx",
            Stage::IfaceEnqueue => "queue",
            Stage::WireTx => "wire",
            Stage::NetRecv => "st_rx",
            Stage::StDeliver => "delivered",
        }
    }
}

/// Why a piggyback slot was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The coalescing timer expired (§4.2 deadline-driven flush).
    Timer,
    /// The pending bundle would exceed the network message size.
    Overflow,
    /// An incompatible frame (deadline/parameter conflict) forced it out.
    Conflict,
    /// A fragmented message required exclusive use of the channel.
    Fragment,
    /// The slot was closing.
    Close,
}

impl FlushReason {
    /// Short stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Timer => "timer",
            FlushReason::Overflow => "overflow",
            FlushReason::Conflict => "conflict",
            FlushReason::Fragment => "fragment",
            FlushReason::Close => "close",
        }
    }
}

/// What made a reliable stream sender retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransmitCause {
    /// The retransmission timer fired.
    Rto,
    /// The first duplicate cumulative ack (entering recovery).
    DupAck,
    /// A partial ack inside recovery exposed the next hole.
    PartialAck,
}

impl RetransmitCause {
    /// Short stable name, used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            RetransmitCause::Rto => "rto",
            RetransmitCause::DupAck => "dup_ack",
            RetransmitCause::PartialAck => "partial_ack",
        }
    }
}

/// Why a packet or message was discarded, for the discards that are
/// neither a queue overflow ([`ObsEvent::IfaceDrop`]) nor wire loss
/// ([`ObsEvent::WireDrop`]). Each cause belongs to the layer that drops and
/// is counted as `<layer>.drop.<cause>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Net: the originating host, or the host a packet arrives at, is
    /// crashed.
    HostDown,
    /// Net: no route toward the packet's destination.
    NoRoute,
    /// Net: the packet's hop budget ran out.
    Ttl,
    /// ST: a network message that does not decode as an ST frame.
    Malformed,
    /// ST: a control-channel Hello or HelloAck failed authentication.
    AuthFailed,
    /// ST: a data frame for an ST RMS this host does not receive on
    /// (unknown, or failed).
    NoStream,
    /// Stream transport: data for a session this host does not hold.
    NoSession,
}

/// Slot of [`DropCause::HostDown`] in [`EVENT_NAMES`]; the other causes
/// follow in declaration order.
const DROP_BASE: usize = 50;

/// One typed observability event. Variants carry raw ids (`u32` hosts,
/// `u64` streams/sequences) because this crate sits below the layers that
/// define the id newtypes.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// An admission-control decision at a hop's interface ledger (§2.3).
    AdmissionDecision {
        /// Deciding host.
        host: u32,
        /// Whether the reservation was admitted.
        admitted: bool,
        /// Deterministic bandwidth reserved at the ledger *after* the
        /// decision, in bytes/sec. Lets an external oracle check the §2.3
        /// invariant (reservations never exceed the deterministic budget)
        /// without reaching into the ledger.
        reserved_bps: f64,
        /// The ledger's deterministic budget (capacity × share), bytes/sec.
        budget_bps: f64,
    },
    /// A packet joined an interface transmit queue.
    IfaceEnqueue {
        /// Queueing host.
        host: u32,
        /// Interface index at that host.
        iface: usize,
        /// Span of the carried data, if any.
        span: Option<u64>,
        /// Packets waiting after the enqueue.
        queued_packets: usize,
        /// Bytes waiting after the enqueue.
        queued_bytes: u64,
    },
    /// A packet left the queue and started transmitting ([`Stage::WireTx`]).
    IfaceDequeue {
        /// Transmitting host.
        host: u32,
        /// Interface index at that host.
        iface: usize,
        /// Span of the carried data, if any.
        span: Option<u64>,
        /// Packets still waiting after the dequeue.
        queued_packets: usize,
        /// Bytes still waiting after the dequeue.
        queued_bytes: u64,
    },
    /// A packet was dropped at an interface for queue overflow.
    IfaceDrop {
        /// Dropping host.
        host: u32,
        /// Interface index at that host.
        iface: usize,
    },
    /// The wire's loss model took a packet after transmission: lost
    /// outright, or damaged (a damaged packet is discarded at the receiver
    /// when its RMS carries a checksum or MAC).
    WireDrop {
        /// Transmitting host.
        host: u32,
        /// The network it was lost on.
        network: u32,
    },
    /// The network layer accepted a message for transmission.
    NetSend {
        /// Sending host.
        host: u32,
        /// Network RMS id.
        rms: u64,
        /// Payload bytes.
        bytes: u64,
        /// Span of the message, if any.
        span: Option<u64>,
    },
    /// A data packet reached the destination host's network layer.
    NetRecv {
        /// Receiving host.
        host: u32,
        /// Network RMS id.
        rms: u64,
        /// Packet sequence number.
        seq: u64,
        /// Span of the message, if any.
        span: Option<u64>,
    },
    /// A packet was handed to an interface (counted once at the source).
    NetPacketSent {
        /// Sending host.
        host: u32,
    },
    /// A packet was delivered in sequence to a receiving RMS endpoint.
    NetPacketDelivered {
        /// Receiving host.
        host: u32,
        /// Network RMS id.
        rms: u64,
        /// Packet sequence number.
        seq: u64,
        /// Span of the message, if any.
        span: Option<u64>,
    },
    /// The ST engine accepted a client message ([`Stage::StSend`]).
    StSend {
        /// Sending host.
        host: u32,
        /// ST RMS id.
        st_rms: u64,
        /// Message sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u64,
        /// The message's span.
        span: Option<u64>,
    },
    /// The ST engine delivered a message to its port
    /// ([`Stage::StDeliver`], completing the span).
    StDeliver {
        /// Receiving host.
        host: u32,
        /// ST RMS id.
        st_rms: u64,
        /// Message sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u64,
        /// Whether delivery exceeded the negotiated delay bound.
        late: bool,
        /// Whether the stream's delay bound is deterministic class — a
        /// late deterministic delivery is a contract violation (§2.2), a
        /// late statistical one is merely a tail sample.
        det: bool,
        /// The message's span.
        span: Option<u64>,
    },
    /// A message was split into fragments (§4.3).
    Fragment {
        /// Fragmenting host.
        host: u32,
        /// ST RMS id.
        st_rms: u64,
        /// Message sequence number.
        seq: u64,
        /// Number of fragments produced.
        count: u32,
        /// The message's span.
        span: Option<u64>,
    },
    /// Fragments were reassembled into a complete message (§4.3).
    Reassemble {
        /// Reassembling host.
        host: u32,
        /// ST RMS id.
        st_rms: u64,
        /// Message sequence number.
        seq: u64,
        /// The message's span.
        span: Option<u64>,
    },
    /// A frame was coalesced into a pending piggyback bundle (§4.2).
    PiggybackCoalesce {
        /// Coalescing host.
        host: u32,
        /// Carrying network RMS id.
        net_rms: u64,
        /// Frames pending after the coalesce.
        pending: usize,
    },
    /// A piggyback slot was flushed to the network (§4.2).
    PiggybackFlush {
        /// Flushing host.
        host: u32,
        /// Carrying network RMS id.
        net_rms: u64,
        /// Frames in the flushed bundle.
        frames: usize,
        /// Why the flush happened.
        reason: FlushReason,
    },
    /// An ST channel-cache lookup hit (§3.2 connection caching).
    CacheHit {
        /// Host performing the lookup.
        host: u32,
    },
    /// An ST channel-cache lookup missed.
    CacheMiss {
        /// Host performing the lookup.
        host: u32,
    },
    /// An idle cached channel was evicted.
    CacheEvict {
        /// Evicting host.
        host: u32,
    },
    /// The ST engine handed one network message (frame or bundle) down.
    StNetMsg {
        /// Sending host.
        host: u32,
        /// Carrying network RMS id.
        net_rms: u64,
        /// Encoded bytes.
        bytes: u64,
        /// Span carried, if any.
        span: Option<u64>,
    },
    /// A fast acknowledgement was sent (§3.2).
    FastAckSent {
        /// Acknowledging host.
        host: u32,
        /// Acknowledged ST RMS id.
        st_rms: u64,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// A per-peer control channel finished creation (§3.2).
    ControlCreated {
        /// Local host.
        host: u32,
        /// Peer host.
        peer: u32,
    },
    /// An authentication hello was sent (§3.2).
    HelloSent {
        /// Sending host.
        host: u32,
        /// Peer host.
        peer: u32,
    },
    /// An ST RMS creation was requested (§2.4).
    CreateRequested {
        /// Requesting host.
        host: u32,
        /// Peer host.
        peer: u32,
    },
    /// The stream transport sent a message ([`Stage::TransportSend`]).
    TransportSend {
        /// Sending host.
        host: u32,
        /// Stream session id.
        session: u64,
        /// Stream sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u64,
        /// The span allocated for the message.
        span: Option<u64>,
    },
    /// The stream transport delivered a message in order.
    StreamDeliver {
        /// Receiving host.
        host: u32,
        /// Stream session id.
        session: u64,
        /// Stream sequence number.
        seq: u64,
    },
    /// The stream transport sent a window acknowledgement.
    StreamAck {
        /// Acknowledging host.
        host: u32,
        /// Stream session id.
        session: u64,
    },
    /// A stream sender was blocked by flow control.
    StreamBlocked {
        /// Blocked host.
        host: u32,
        /// Stream session id.
        session: u64,
    },
    /// A reliable stream sender gave up after its retry budget.
    StreamRetriesExhausted {
        /// Sending host.
        host: u32,
        /// Stream session id.
        session: u64,
    },
    /// A reliable stream sender retransmitted a message.
    StreamRetransmit {
        /// Sending host.
        host: u32,
        /// Stream session id.
        session: u64,
        /// Stream sequence number resent.
        seq: u64,
        /// What triggered it.
        cause: RetransmitCause,
    },
    /// An RKOM call was issued (§3.3).
    RkomSend {
        /// Calling host.
        host: u32,
        /// Callee host.
        peer: u32,
        /// Call id.
        call: u64,
    },
    /// An RKOM call completed with a reply (§3.3).
    RkomDeliver {
        /// Calling host.
        host: u32,
        /// Call id.
        call: u64,
    },
    /// An RKOM call's retry timer expired on a ready channel and the
    /// request was resent on the high-delay RMS (§3.3).
    RkomRetransmit {
        /// Calling host.
        host: u32,
        /// Call id.
        call: u64,
    },
    /// A TCP baseline connection retransmitted segments.
    TcpRetransmit {
        /// Retransmitting host.
        host: u32,
        /// Connection id.
        conn: u64,
        /// Segments resent.
        segments: u64,
    },
    /// A fault was injected (fault-injection subsystem, `dash_sim::fault`).
    FaultInjected {
        /// The fault kind's short name ([`crate::fault::FaultKind::name`]);
        /// also increments a per-kind `fault.<kind>` counter.
        kind: &'static str,
    },
    /// A network went down; RMSs over it failed.
    NetworkFailed {
        /// The network.
        network: u32,
    },
    /// A network came back up; routes over it are usable again.
    NetworkRestored {
        /// The network.
        network: u32,
    },
    /// A host crashed, losing its protocol state.
    HostCrashed {
        /// The host.
        host: u32,
    },
    /// A crashed host restarted with empty protocol state.
    HostRestarted {
        /// The host.
        host: u32,
    },
    /// The ST began failing streams over to a new network RMS after their
    /// network RMS died.
    FailoverStarted {
        /// The host performing failover.
        host: u32,
        /// How many ST streams are being moved.
        streams: u32,
    },
    /// One ST stream completed failover onto a replacement network RMS.
    FailoverCompleted {
        /// The host.
        host: u32,
        /// The recovered ST stream.
        st_rms: u64,
        /// Failure-to-recovery latency in seconds (also recorded in the
        /// `fault.recovery_latency` histogram).
        latency_s: f64,
    },
    /// A host originated a link-state flood (routing subsystem): its
    /// interfaces' delay/capacity/headroom advertisement starts spreading.
    RoutingFlood {
        /// The originating host.
        origin: u32,
        /// The advertisement's sequence number at the origin.
        seq: u64,
    },
    /// A host recomputed its route table from its link-state database.
    RoutingRecompute {
        /// The recomputing host.
        host: u32,
        /// Seconds from the triggering change (fault or advertisement
        /// origination) to this recompute, in simulated time (also recorded
        /// in the `routing.recompute_latency` histogram).
        latency_s: f64,
    },
    /// An RMS was established over a non-primary alternate path (the
    /// shortest path refused it, a fallback admitted it).
    RoutingAlternateWin {
        /// The creating host.
        host: u32,
        /// Index of the winning candidate in the creator's alternate list.
        alternate: u32,
    },
    /// A stream session ended (close or typed failure). Together with
    /// [`ObsEvent::TransportSend`] / [`ObsEvent::StreamDeliver`] this lets
    /// an external oracle check exactly-once-or-typed-failure delivery.
    StreamEnd {
        /// The host observing the end.
        host: u32,
        /// Stream session id.
        session: u64,
        /// True for a typed failure (retries exhausted, channel failed),
        /// false for an orderly close.
        failed: bool,
    },
    /// A stream open failed before the session was established.
    StreamOpenFailed {
        /// The opening host.
        host: u32,
        /// The session id the open would have used.
        session: u64,
    },
    /// An RMS creation pinned its source route: the exact host sequence
    /// packets will traverse. Lets an external oracle check that chosen
    /// alternates are loop-free.
    RoutingPathPinned {
        /// The creating host.
        host: u32,
        /// The full hop sequence, source first, destination last.
        hops: Vec<u32>,
    },
    /// A gateway answered a datagram overflow drop with a source quench
    /// (the §4.4 baseline).
    QuenchSent {
        /// The quenching host.
        host: u32,
    },
    /// A packet or message was discarded (see [`DropCause`]).
    Drop {
        /// The discarding host.
        host: u32,
        /// Why.
        cause: DropCause,
    },
}

/// Every distinct event counter name, indexed by [`ObsEvent::fast_index`].
/// The registry keeps these counts in a plain array so the per-event fast
/// path is an indexed increment — no map lookup, no allocation.
pub const EVENT_NAMES: [&str; 57] = [
    "net.admission_admitted",
    "net.admission_rejected",
    "net.iface_enqueue",
    "net.iface_dequeue",
    "net.iface_drop",
    "net.send",
    "net.recv",
    "net.packet_sent",
    "net.packet_delivered",
    "st.send",
    "st.deliver",
    "st.msg_fragmented",
    "st.reassembled",
    "st.coalesced",
    "st.flush",
    "st.cache_hit",
    "st.cache_miss",
    "st.cache_eviction",
    "st.net_msg_sent",
    "st.fast_ack_sent",
    "st.control_created",
    "st.hello_sent",
    "st.create_requested",
    "stream.send",
    "stream.deliver",
    "stream.ack_sent",
    "stream.sender_blocked",
    "stream.retries_exhausted",
    "rkom.call",
    "rkom.completed",
    "tcp.retransmit",
    "fault.injected",
    "net.network_failed",
    "net.network_restored",
    "net.host_crashed",
    "net.host_restarted",
    "st.failover_started",
    "st.failover_completed",
    "routing.floods",
    "routing.recompute",
    "routing.alternate_wins",
    "stream.end",
    "stream.open_failed",
    "net.path_pinned",
    "net.wire_drop",
    "stream.retransmit.rto",
    "stream.retransmit.dup_ack",
    "stream.retransmit.partial_ack",
    "rkom.retransmit",
    "net.quench_sent",
    "net.drop.host_down",
    "net.drop.no_route",
    "net.drop.ttl",
    "st.drop.malformed",
    "st.drop.auth_failed",
    "st.drop.no_stream",
    "stream.drop.no_session",
];

impl ObsEvent {
    /// This event's slot in [`EVENT_NAMES`] (and in the registry's fast
    /// counter array).
    pub fn fast_index(&self) -> usize {
        match self {
            ObsEvent::AdmissionDecision { admitted: true, .. } => 0,
            ObsEvent::AdmissionDecision {
                admitted: false, ..
            } => 1,
            ObsEvent::IfaceEnqueue { .. } => 2,
            ObsEvent::IfaceDequeue { .. } => 3,
            ObsEvent::IfaceDrop { .. } => 4,
            ObsEvent::NetSend { .. } => 5,
            ObsEvent::NetRecv { .. } => 6,
            ObsEvent::NetPacketSent { .. } => 7,
            ObsEvent::NetPacketDelivered { .. } => 8,
            ObsEvent::StSend { .. } => 9,
            ObsEvent::StDeliver { .. } => 10,
            ObsEvent::Fragment { .. } => 11,
            ObsEvent::Reassemble { .. } => 12,
            ObsEvent::PiggybackCoalesce { .. } => 13,
            ObsEvent::PiggybackFlush { .. } => 14,
            ObsEvent::CacheHit { .. } => 15,
            ObsEvent::CacheMiss { .. } => 16,
            ObsEvent::CacheEvict { .. } => 17,
            ObsEvent::StNetMsg { .. } => 18,
            ObsEvent::FastAckSent { .. } => 19,
            ObsEvent::ControlCreated { .. } => 20,
            ObsEvent::HelloSent { .. } => 21,
            ObsEvent::CreateRequested { .. } => 22,
            ObsEvent::TransportSend { .. } => 23,
            ObsEvent::StreamDeliver { .. } => 24,
            ObsEvent::StreamAck { .. } => 25,
            ObsEvent::StreamBlocked { .. } => 26,
            ObsEvent::StreamRetriesExhausted { .. } => 27,
            ObsEvent::RkomSend { .. } => 28,
            ObsEvent::RkomDeliver { .. } => 29,
            ObsEvent::TcpRetransmit { .. } => 30,
            ObsEvent::FaultInjected { .. } => 31,
            ObsEvent::NetworkFailed { .. } => 32,
            ObsEvent::NetworkRestored { .. } => 33,
            ObsEvent::HostCrashed { .. } => 34,
            ObsEvent::HostRestarted { .. } => 35,
            ObsEvent::FailoverStarted { .. } => 36,
            ObsEvent::FailoverCompleted { .. } => 37,
            ObsEvent::RoutingFlood { .. } => 38,
            ObsEvent::RoutingRecompute { .. } => 39,
            ObsEvent::RoutingAlternateWin { .. } => 40,
            ObsEvent::StreamEnd { .. } => 41,
            ObsEvent::StreamOpenFailed { .. } => 42,
            ObsEvent::RoutingPathPinned { .. } => 43,
            ObsEvent::WireDrop { .. } => 44,
            ObsEvent::StreamRetransmit { cause, .. } => match cause {
                RetransmitCause::Rto => 45,
                RetransmitCause::DupAck => 46,
                RetransmitCause::PartialAck => 47,
            },
            ObsEvent::RkomRetransmit { .. } => 48,
            ObsEvent::QuenchSent { .. } => 49,
            ObsEvent::Drop { cause, .. } => DROP_BASE + *cause as usize,
        }
    }

    /// The registry counter this event increments (also the JSON `name`).
    pub fn name(&self) -> &'static str {
        EVENT_NAMES[self.fast_index()]
    }

    /// The lifecycle stage this event timestamps, when it carries a span.
    pub fn span_stage(&self) -> Option<(u64, Stage)> {
        match self {
            ObsEvent::TransportSend { span, .. } => span.map(|s| (s, Stage::TransportSend)),
            ObsEvent::StSend { span, .. } => span.map(|s| (s, Stage::StSend)),
            ObsEvent::NetSend { span, .. } => span.map(|s| (s, Stage::NetSend)),
            ObsEvent::IfaceEnqueue { span, .. } => span.map(|s| (s, Stage::IfaceEnqueue)),
            // Dequeue and transmission start are the same instant.
            ObsEvent::IfaceDequeue { span, .. } => span.map(|s| (s, Stage::WireTx)),
            ObsEvent::NetRecv { span, .. } => span.map(|s| (s, Stage::NetRecv)),
            ObsEvent::StDeliver { span, .. } => span.map(|s| (s, Stage::StDeliver)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// Counters [`MetricRegistry::apply`] bumps *beyond* the per-event name,
/// slot-indexed by the `D_*` constants below.
const DERIVED_NAMES: [&str; 13] = [
    "st.fragment_sent",
    "st.flush_timer",
    "st.flush_overflow",
    "st.flush_conflict",
    "st.flush_fragment",
    "st.flush_close",
    "st.bundle_sent",
    "st.msg_bundled",
    "st.msg_alone",
    "st.net_bytes_sent",
    "st.late_delivery",
    "tcp.segments_retransmitted",
    "st.failover_streams",
];
const D_FRAGMENT_SENT: usize = 0;
const D_FLUSH_TIMER: usize = 1;
const D_FLUSH_OVERFLOW: usize = 2;
const D_FLUSH_CONFLICT: usize = 3;
const D_FLUSH_FRAGMENT: usize = 4;
const D_FLUSH_CLOSE: usize = 5;
const D_BUNDLE_SENT: usize = 6;
const D_MSG_BUNDLED: usize = 7;
const D_MSG_ALONE: usize = 8;
const D_NET_BYTES_SENT: usize = 9;
const D_LATE_DELIVERY: usize = 10;
const D_TCP_SEGMENTS: usize = 11;
const D_FAILOVER_STREAMS: usize = 12;

/// Histograms fed from the event/span hot paths, slot-indexed. The
/// `span.stage.*` block is laid out in [`Stage`] declaration order so a
/// stage's slot is `H_STAGE_BASE + stage as usize`.
const FAST_HIST_NAMES: [&str; 12] = [
    "span.e2e",
    "span.st",
    "span.net",
    "span.stage.transport",
    "span.stage.st_tx",
    "span.stage.net_tx",
    "span.stage.queue",
    "span.stage.wire",
    "span.stage.st_rx",
    "span.stage.delivered",
    "fault.recovery_latency",
    "routing.recompute_latency",
];
const H_SPAN_E2E: usize = 0;
const H_SPAN_ST: usize = 1;
const H_SPAN_NET: usize = 2;
const H_STAGE_BASE: usize = 3;
const H_RECOVERY_LATENCY: usize = 10;
const H_ROUTING_RECOMPUTE: usize = 11;

/// `fault.<kind>` counters, one per [`crate::fault::FaultKind::name`].
const FAULT_NAMES: [&str; 10] = [
    "fault.network_down",
    "fault.network_up",
    "fault.partition",
    "fault.heal_partition",
    "fault.burst_loss_start",
    "fault.burst_loss_end",
    "fault.iface_stall",
    "fault.host_crash",
    "fault.host_restart",
    "fault.timer_jitter",
];

/// The `fault.<kind>` slot of a fault kind's short name.
fn fault_slot(kind: &str) -> Option<usize> {
    FAULT_NAMES
        .iter()
        .position(|n| n.strip_prefix("fault.") == Some(kind))
}

/// Named counters and histograms. Every metric lives in a fixed
/// slot-indexed array — the event names, the counters derived from event
/// fields, one counter per fault kind, and the span and recovery
/// histograms — so the per-event path is an indexed add: no name hashing,
/// no map walk, no allocation. Lookup by name routes to the slot, and
/// iteration merges the tables sorted by name.
#[derive(Debug)]
pub struct MetricRegistry {
    event_counts: [Counter; EVENT_NAMES.len()],
    derived_counts: [Counter; DERIVED_NAMES.len()],
    fault_counts: [Counter; FAULT_NAMES.len()],
    fast_hists: [Histogram; FAST_HIST_NAMES.len()],
}

impl Default for MetricRegistry {
    fn default() -> Self {
        MetricRegistry {
            event_counts: [Counter::new(); EVENT_NAMES.len()],
            derived_counts: [Counter::new(); DERIVED_NAMES.len()],
            fault_counts: [Counter::new(); FAULT_NAMES.len()],
            fast_hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl MetricRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Current value of a counter (0 if it was never touched).
    ///
    /// A misspelt name would silently read 0 and let an `== 0` assertion
    /// pass without testing anything, so debug builds panic on a name that
    /// is neither a fixed slot nor a member of the `fault.<kind>` family.
    pub fn counter_value(&self, name: &str) -> u64 {
        if let Some(i) = EVENT_NAMES.iter().position(|n| *n == name) {
            return self.event_counts[i].get();
        }
        if let Some(i) = DERIVED_NAMES.iter().position(|n| *n == name) {
            return self.derived_counts[i].get();
        }
        if let Some(kind) = name.strip_prefix("fault.") {
            return fault_slot(kind).map_or(0, |i| self.fault_counts[i].get());
        }
        debug_assert!(false, "no counter named {name:?} (misspelt?)");
        0
    }

    /// The histogram named `name`. Mutable access also serves reads:
    /// quantiles sort the backing sample in place.
    ///
    /// # Panics
    ///
    /// On a name that is not a registry histogram; ask
    /// [`Self::has_histogram`] first when the name is not known to be one.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        let i = FAST_HIST_NAMES.iter().position(|n| *n == name);
        &mut self.fast_hists[i.unwrap_or_else(|| panic!("no histogram named {name:?}"))]
    }

    /// True if a histogram named `name` has recorded samples.
    pub fn has_histogram(&self, name: &str) -> bool {
        FAST_HIST_NAMES
            .iter()
            .position(|n| *n == name)
            .is_some_and(|i| self.fast_hists[i].count() > 0)
    }

    /// All counters, sorted by name. Slots that were never touched are
    /// omitted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let event = EVENT_NAMES.iter().zip(&self.event_counts);
        let derived = DERIVED_NAMES.iter().zip(&self.derived_counts);
        let fault = FAULT_NAMES.iter().zip(&self.fault_counts);
        let mut all: Vec<(&str, u64)> = event
            .chain(derived)
            .chain(fault)
            .filter(|(_, c)| c.get() > 0)
            .map(|(n, c)| (*n, c.get()))
            .collect();
        all.sort_unstable();
        all.into_iter()
    }

    /// Dump every metric as one JSON object per line (counters, then
    /// histogram summaries with quantiles), each group sorted by name.
    pub fn to_json_lines(&mut self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}\n"
            ));
        }
        let mut hists: Vec<(&str, &mut Histogram)> = self
            .fast_hists
            .iter_mut()
            .enumerate()
            .map(|(i, h)| (FAST_HIST_NAMES[i], h))
            .collect();
        hists.sort_unstable_by_key(|(n, _)| *n);
        for (name, h) in hists {
            if h.count() == 0 {
                continue;
            }
            let (mean, p50, p99) = (h.mean(), h.median(), h.quantile(0.99));
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\
                 \"mean\":{mean},\"p50\":{p50},\"p99\":{p99}}}\n",
                h.count()
            ));
        }
        out
    }

    /// Fold `other` into this registry, deterministically.
    ///
    /// The parallel executor keeps one registry per logical process and
    /// merges them in canonical (host-id) order after the run: counters
    /// add, and histograms concatenate their sample vectors in merge
    /// order. Merging the shard-local registries of a P-way run therefore
    /// yields byte-identical [`Self::to_json_lines`] output to the 1-way
    /// run of the same scenario.
    pub fn merge_from(&mut self, other: &MetricRegistry) {
        for (mine, theirs) in self.event_counts.iter_mut().zip(&other.event_counts) {
            mine.add(theirs.get());
        }
        for (mine, theirs) in self.derived_counts.iter_mut().zip(&other.derived_counts) {
            mine.add(theirs.get());
        }
        for (mine, theirs) in self.fault_counts.iter_mut().zip(&other.fault_counts) {
            mine.add(theirs.get());
        }
        for (mine, theirs) in self.fast_hists.iter_mut().zip(&other.fast_hists) {
            mine.merge_from(theirs);
        }
    }

    /// Record the registry-side effects of one event. Pure slot arithmetic.
    fn apply(&mut self, event: &ObsEvent) {
        self.event_counts[event.fast_index()].incr();
        match event {
            ObsEvent::Fragment { count, .. } => {
                self.derived_counts[D_FRAGMENT_SENT].add(*count as u64);
            }
            ObsEvent::PiggybackFlush { frames, reason, .. } => {
                let slot = match reason {
                    FlushReason::Timer => D_FLUSH_TIMER,
                    FlushReason::Overflow => D_FLUSH_OVERFLOW,
                    FlushReason::Conflict => D_FLUSH_CONFLICT,
                    FlushReason::Fragment => D_FLUSH_FRAGMENT,
                    FlushReason::Close => D_FLUSH_CLOSE,
                };
                self.derived_counts[slot].incr();
                if *frames > 1 {
                    self.derived_counts[D_BUNDLE_SENT].incr();
                    self.derived_counts[D_MSG_BUNDLED].add(*frames as u64);
                } else {
                    self.derived_counts[D_MSG_ALONE].incr();
                }
            }
            ObsEvent::StNetMsg { bytes, .. } => {
                self.derived_counts[D_NET_BYTES_SENT].add(*bytes);
            }
            ObsEvent::StDeliver { late: true, .. } => {
                self.derived_counts[D_LATE_DELIVERY].incr();
            }
            ObsEvent::TcpRetransmit { segments, .. } => {
                self.derived_counts[D_TCP_SEGMENTS].add(*segments);
            }
            ObsEvent::FaultInjected { kind } => match fault_slot(kind) {
                Some(i) => self.fault_counts[i].incr(),
                None => debug_assert!(false, "no fault kind {kind:?}"),
            },
            ObsEvent::FailoverStarted { streams, .. } => {
                self.derived_counts[D_FAILOVER_STREAMS].add(u64::from(*streams));
            }
            ObsEvent::FailoverCompleted { latency_s, .. } => {
                self.fast_hists[H_RECOVERY_LATENCY].record(*latency_s);
            }
            ObsEvent::RoutingRecompute { latency_s, .. } => {
                self.fast_hists[H_ROUTING_RECOMPUTE].record(*latency_s);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A completed message lifecycle: the stages it passed through, in the
/// order they were first observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span id.
    pub span: u64,
    /// The ST RMS it was delivered on.
    pub stream: u64,
    /// The delivered message's ST sequence number.
    pub seq: u64,
    /// `(stage, first occurrence)` pairs in observation order.
    pub stages: Vec<(Stage, SimTime)>,
}

impl SpanRecord {
    /// When `stage` was first observed, if it was.
    pub fn stage_time(&self, stage: Stage) -> Option<SimTime> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, t)| *t)
    }

    /// Elapsed time between two observed stages (`None` if either is
    /// missing, saturating at zero).
    pub fn between(&self, from: Stage, to: Stage) -> Option<SimDuration> {
        let a = self.stage_time(from)?;
        let b = self.stage_time(to)?;
        Some(b.saturating_since(a))
    }

    /// End-to-end latency: first observed stage to last.
    pub fn e2e(&self) -> SimDuration {
        match (self.stages.first(), self.stages.last()) {
            (Some((_, a)), Some((_, b))) => b.saturating_since(*a),
            _ => SimDuration::ZERO,
        }
    }
}

#[derive(Debug)]
struct OpenSpan {
    stages: Vec<(Stage, SimTime)>,
}

/// Tracks open spans and closes them on [`Stage::StDeliver`].
#[derive(Debug, Default)]
struct SpanTracker {
    open: BTreeMap<u64, OpenSpan>,
    /// Open spans discarded because the tracker was full.
    dropped: u64,
}

impl SpanTracker {
    /// Record `stage` for `span` (first occurrence only). Returns the
    /// completed record when the stage closes the span.
    fn record(
        &mut self,
        span: u64,
        stage: Stage,
        time: SimTime,
        stream: u64,
        seq: u64,
    ) -> Option<SpanRecord> {
        let entry = self.open.entry(span).or_insert_with(|| OpenSpan {
            stages: Vec::with_capacity(Stage::COUNT),
        });
        if !entry.stages.iter().any(|(s, _)| *s == stage) {
            entry.stages.push((stage, time));
        }
        if stage == Stage::StDeliver {
            let done = self.open.remove(&span).expect("span just touched");
            return Some(SpanRecord {
                span,
                stream,
                seq,
                stages: done.stages,
            });
        }
        if self.open.len() > MAX_OPEN_SPANS {
            self.open.pop_first();
            self.dropped += 1;
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A consumer of the raw observability stream. Installed via
/// [`Obs::add_boxed_sink`]; both hooks default to no-ops so a sink may care
/// about only events or only spans.
pub trait ObsSink {
    /// An event was emitted at `time`.
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        let _ = (time, event);
    }

    /// A message lifecycle completed.
    fn on_span(&mut self, record: &SpanRecord) {
        let _ = record;
    }
}

/// Writes the stream as JSON-Lines: one `{"type":"span",...}` object per
/// delivered message. Hand-rolled serialization — the workspace carries
/// no JSON dependency.
pub struct JsonLinesSink {
    out: Box<dyn Write>,
}

impl JsonLinesSink {
    /// Span records only (one line per delivered message).
    pub fn new(out: impl Write + 'static) -> Self {
        JsonLinesSink { out: Box::new(out) }
    }
}

impl ObsSink for JsonLinesSink {
    fn on_event(&mut self, _time: SimTime, _event: &ObsEvent) {}

    fn on_span(&mut self, record: &SpanRecord) {
        let stages: Vec<String> = record
            .stages
            .iter()
            .map(|(s, t)| format!("{{\"stage\":\"{}\",\"t_ns\":{}}}", s.name(), t.as_nanos()))
            .collect();
        let _ = writeln!(
            self.out,
            "{{\"type\":\"span\",\"span\":{},\"stream\":{},\"seq\":{},\"e2e_ns\":{},\"stages\":[{}]}}",
            record.span,
            record.stream,
            record.seq,
            record.e2e().as_nanos(),
            stages.join(","),
        );
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// The observability hub
// ---------------------------------------------------------------------------

/// The per-world observability hub: holds the activation flag, the metric
/// registry, the span tracker, and the sinks. Lives in the network
/// layer's state so every layer reaches it through `W::net()`.
pub struct Obs {
    active: bool,
    sinks: Vec<Box<dyn ObsSink>>,
    /// The metric registry; it counts whether or not the hub is active.
    pub registry: MetricRegistry,
    tracker: SpanTracker,
    retain: bool,
    completed: Vec<SpanRecord>,
    next_span: u64,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("active", &self.active)
            .field("sinks", &self.sinks.len())
            .field("open_spans", &self.tracker.open.len())
            .field("completed_spans", &self.completed.len())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            active: false,
            sinks: Vec::new(),
            registry: MetricRegistry::new(),
            tracker: SpanTracker::default(),
            retain: false,
            completed: Vec::new(),
            next_span: 1,
        }
    }
}

impl Obs {
    /// Inactive hub (the default embedded in every world): it counts, and
    /// mints no span.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Turn spans on without installing a sink (the registry counts
    /// either way).
    pub fn enable(&mut self) {
        self.active = true;
    }

    /// Install a sink and activate emission. Sinks see each event and
    /// span in installation order, so an online checker (e.g. the
    /// dash-check oracle) can observe a run next to a sink a bench or test
    /// already installed.
    pub fn add_boxed_sink(&mut self, sink: Box<dyn ObsSink>) {
        self.sinks.push(sink);
        self.active = true;
    }

    /// True when span ids, span tracking and sinks are on. Counting does
    /// not depend on it: only a site whose event costs an allocation to
    /// build consults it.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Keep completed [`SpanRecord`]s in memory (off by default; sinks see
    /// them either way).
    pub fn retain_spans(&mut self, on: bool) {
        self.retain = on;
    }

    /// Completed spans retained so far (see [`Obs::retain_spans`]).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.completed
    }

    /// Open spans discarded because the tracker was full.
    pub fn spans_dropped(&self) -> u64 {
        self.tracker.dropped
    }

    /// Rebase span-id allocation to start at `base`.
    ///
    /// The parallel executor gives each logical process a disjoint id
    /// namespace (`(host + 1) << 40`), so span ids minted independently
    /// on different shards never collide when their event streams merge.
    pub fn set_span_namespace(&mut self, base: u64) {
        self.next_span = base;
    }

    /// Allocate a fresh span id, or `None` while inactive — so an idle run
    /// never pays for (or wire-encodes) span ids.
    pub fn start_span(&mut self) -> Option<u64> {
        if !self.active {
            return None;
        }
        let id = self.next_span;
        self.next_span += 1;
        Some(id)
    }

    /// Emit one event: counts it in the registry and, while active,
    /// advances the event's span stage (closing the span on
    /// [`Stage::StDeliver`]) and forwards it to the sinks.
    pub fn emit(&mut self, time: SimTime, event: ObsEvent) {
        self.registry.apply(&event);
        if !self.active {
            return;
        }
        if let Some((span, stage)) = event.span_stage() {
            let (stream, seq) = match &event {
                ObsEvent::StDeliver { st_rms, seq, .. } => (*st_rms, *seq),
                _ => (0, 0),
            };
            if let Some(record) = self.tracker.record(span, stage, time, stream, seq) {
                self.finish_span(&record);
                if self.retain {
                    self.completed.push(record);
                }
            }
        }
        for sink in &mut self.sinks {
            sink.on_event(time, &event);
        }
    }

    /// Feed a completed span into the latency histograms and the sinks.
    /// All target histograms live in fixed registry slots, so closing a
    /// span performs no name formatting or map walks.
    fn finish_span(&mut self, record: &SpanRecord) {
        let reg = &mut self.registry;
        reg.fast_hists[H_SPAN_E2E].record(record.e2e().as_secs_f64());
        if let Some(d) = record.between(Stage::StSend, Stage::StDeliver) {
            reg.fast_hists[H_SPAN_ST].record(d.as_secs_f64());
        }
        if let Some(d) = record.between(Stage::NetSend, Stage::NetRecv) {
            reg.fast_hists[H_SPAN_NET].record(d.as_secs_f64());
        }
        for pair in record.stages.windows(2) {
            let (stage, t0) = pair[0];
            let (_, t1) = pair[1];
            reg.fast_hists[H_STAGE_BASE + stage as usize]
                .record(t1.saturating_since(t0).as_secs_f64());
        }
        for sink in &mut self.sinks {
            sink.on_span(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver_event(span: u64) -> ObsEvent {
        ObsEvent::StDeliver {
            host: 1,
            st_rms: 9,
            seq: 4,
            bytes: 10,
            late: false,
            det: false,
            span: Some(span),
        }
    }

    /// A sink counting the events it is handed.
    struct Tally(std::rc::Rc<std::cell::Cell<u32>>);
    impl ObsSink for Tally {
        fn on_event(&mut self, _time: SimTime, _event: &ObsEvent) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn inactive_obs_counts_mints_no_span_and_calls_no_sink() {
        let mut obs = Obs::new();
        obs.retain_spans(true);
        assert!(!obs.is_active());
        assert_eq!(obs.start_span(), None);
        obs.emit(SimTime::ZERO, ObsEvent::CacheHit { host: 0 });
        // A span-carrying pair tracks nothing while inactive.
        obs.emit(
            SimTime::ZERO,
            ObsEvent::StSend {
                host: 0,
                st_rms: 9,
                seq: 4,
                bytes: 10,
                span: Some(1),
            },
        );
        obs.emit(SimTime::from_nanos(5), deliver_event(1));
        assert_eq!(obs.registry.counter_value("st.cache_hit"), 1);
        assert_eq!(obs.registry.counter_value("st.deliver"), 1);
        assert!(obs.spans().is_empty());
        assert!(!obs.registry.has_histogram("span.e2e"));
        // Installing a sink activates the hub: it sees what is emitted from
        // then on, nothing of what was counted before, and ids start at 1.
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        obs.add_boxed_sink(Box::new(Tally(std::rc::Rc::clone(&seen))));
        assert_eq!(seen.get(), 0);
        assert_eq!(obs.start_span(), Some(1));
        obs.emit(SimTime::ZERO, ObsEvent::CacheHit { host: 0 });
        assert_eq!(seen.get(), 1);
        assert_eq!(obs.registry.counter_value("st.cache_hit"), 2);
    }

    #[test]
    fn sinks_see_each_event_in_installation_order() {
        struct Tag(u8, std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
        impl ObsSink for Tag {
            fn on_event(&mut self, _time: SimTime, _event: &ObsEvent) {
                self.1.borrow_mut().push(self.0);
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut obs = Obs::new();
        obs.add_boxed_sink(Box::new(Tag(1, std::rc::Rc::clone(&seen))));
        obs.add_boxed_sink(Box::new(Tag(2, std::rc::Rc::clone(&seen))));
        obs.emit(SimTime::ZERO, ObsEvent::CacheHit { host: 0 });
        obs.emit(SimTime::ZERO, ObsEvent::CacheMiss { host: 0 });
        assert_eq!(*seen.borrow(), [1, 2, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "misspelt")]
    #[cfg(debug_assertions)]
    fn misspelt_counter_name_panics_in_debug() {
        let reg = MetricRegistry::new();
        let _ = reg.counter_value("st.cache_hits");
    }

    /// Lateness is counted world-wide only (`st.late_delivery`); there is
    /// no per-RMS family to read.
    #[test]
    #[should_panic(expected = "misspelt")]
    #[cfg(debug_assertions)]
    fn per_rms_late_name_is_unknown() {
        let reg = MetricRegistry::new();
        let _ = reg.counter_value("st.late.42");
    }

    #[test]
    fn untouched_and_unknown_family_members_read_zero() {
        let reg = MetricRegistry::new();
        assert_eq!(reg.counter_value("fault.partition"), 0);
        assert_eq!(reg.counter_value("fault.no_such_kind"), 0);
        assert_eq!(reg.counter_value("net.drop.ttl"), 0);
        assert!(!reg.has_histogram("no.such.histogram"));
    }

    #[test]
    #[should_panic(expected = "no histogram named")]
    fn histogram_outside_the_table_panics() {
        MetricRegistry::new().histogram("h");
    }

    /// Every fault kind owns a `fault.<kind>` slot.
    #[test]
    fn every_fault_kind_has_a_slot() {
        use crate::fault::{FaultKind, GilbertElliott};
        let d = SimDuration::ZERO;
        let kinds = [
            FaultKind::NetworkDown { network: 0 },
            FaultKind::NetworkUp { network: 0 },
            FaultKind::Partition { a: 0, b: 1 },
            FaultKind::HealPartition { a: 0, b: 1 },
            FaultKind::BurstLossStart {
                network: 0,
                model: GilbertElliott::new(0.1, 0.1, 0.0, 1.0),
            },
            FaultKind::BurstLossEnd { network: 0 },
            FaultKind::IfaceStall {
                host: 0,
                network: 0,
                duration: d,
            },
            FaultKind::HostCrash { host: 0 },
            FaultKind::HostRestart { host: 0 },
            FaultKind::TimerJitter { seed: 0, max: d },
        ];
        let mut slots: Vec<usize> = kinds
            .iter()
            .map(|k| fault_slot(k.name()).unwrap())
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..FAULT_NAMES.len()).collect::<Vec<_>>());
    }

    #[test]
    fn events_feed_counters() {
        let mut obs = Obs::new();
        obs.enable();
        obs.emit(SimTime::ZERO, ObsEvent::CacheHit { host: 0 });
        obs.emit(SimTime::ZERO, ObsEvent::CacheHit { host: 0 });
        obs.emit(
            SimTime::ZERO,
            ObsEvent::Fragment {
                host: 0,
                st_rms: 1,
                seq: 0,
                count: 5,
                span: None,
            },
        );
        assert_eq!(obs.registry.counter_value("st.cache_hit"), 2);
        assert_eq!(obs.registry.counter_value("st.msg_fragmented"), 1);
        assert_eq!(obs.registry.counter_value("st.fragment_sent"), 5);
    }

    /// The fast-slot layout invariants `apply`/`finish_span` index by.
    #[test]
    fn fast_slot_tables_are_consistent() {
        // No duplicate names anywhere across the fast tables.
        let mut all: Vec<&str> = EVENT_NAMES
            .iter()
            .chain(DERIVED_NAMES.iter())
            .chain(FAULT_NAMES.iter())
            .chain(FAST_HIST_NAMES.iter())
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate name across fast tables");

        // The span.stage block is laid out in Stage declaration order.
        for stage in [
            Stage::TransportSend,
            Stage::StSend,
            Stage::NetSend,
            Stage::IfaceEnqueue,
            Stage::WireTx,
            Stage::NetRecv,
            Stage::StDeliver,
        ] {
            assert_eq!(
                FAST_HIST_NAMES[H_STAGE_BASE + stage as usize],
                format!("span.stage.{}", stage.interval()),
            );
        }
        assert_eq!(
            FAST_HIST_NAMES[H_RECOVERY_LATENCY],
            "fault.recovery_latency"
        );

        // Each drop cause owns the slot named after its layer and cause.
        for (cause, name) in [
            (DropCause::HostDown, "net.drop.host_down"),
            (DropCause::NoRoute, "net.drop.no_route"),
            (DropCause::Ttl, "net.drop.ttl"),
            (DropCause::Malformed, "st.drop.malformed"),
            (DropCause::AuthFailed, "st.drop.auth_failed"),
            (DropCause::NoStream, "st.drop.no_stream"),
            (DropCause::NoSession, "stream.drop.no_session"),
        ] {
            assert_eq!(ObsEvent::Drop { host: 0, cause }.name(), name);
        }
        assert_eq!(
            DROP_BASE + DropCause::NoSession as usize + 1,
            EVENT_NAMES.len()
        );
    }

    /// Name lookups route to the same cells the event stream feeds, for
    /// every slot table (event slot, derived slot, fault kind).
    #[test]
    fn counter_lookup_routes_to_fast_slots() {
        let mut obs = Obs::new();
        obs.enable();
        obs.emit(SimTime::ZERO, ObsEvent::FaultInjected { kind: "partition" });
        obs.emit(
            SimTime::ZERO,
            ObsEvent::StDeliver {
                host: 1,
                st_rms: 7,
                seq: 0,
                bytes: 10,
                late: true,
                det: false,
                span: None,
            },
        );
        let reg = &obs.registry;
        assert_eq!(reg.counter_value("fault.injected"), 1); // event slot
        assert_eq!(reg.counter_value("fault.partition"), 1); // per-kind slot
        assert_eq!(reg.counter_value("st.late_delivery"), 1); // derived slot

        // The merged iterator exports them all, sorted by name.
        let names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        for want in [
            "fault.injected",
            "fault.partition",
            "st.deliver",
            "st.late_delivery",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn span_life_cycle_records_stages_in_order() {
        let mut obs = Obs::new();
        obs.enable();
        obs.retain_spans(true);
        let span = obs.start_span().unwrap();
        let t = |ns| SimTime::from_nanos(ns);
        obs.emit(
            t(10),
            ObsEvent::StSend {
                host: 0,
                st_rms: 9,
                seq: 4,
                bytes: 10,
                span: Some(span),
            },
        );
        obs.emit(
            t(20),
            ObsEvent::NetSend {
                host: 0,
                rms: 1,
                bytes: 40,
                span: Some(span),
            },
        );
        // A second fragment hitting the same stage must not overwrite.
        obs.emit(
            t(25),
            ObsEvent::NetSend {
                host: 0,
                rms: 1,
                bytes: 40,
                span: Some(span),
            },
        );
        obs.emit(t(60), deliver_event(span));
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        let rec = &spans[0];
        assert_eq!(rec.stream, 9);
        assert_eq!(rec.seq, 4);
        assert_eq!(rec.stage_time(Stage::NetSend), Some(t(20)));
        assert_eq!(rec.e2e(), SimDuration::from_nanos(50));
        assert_eq!(
            rec.between(Stage::StSend, Stage::StDeliver),
            Some(SimDuration::from_nanos(50))
        );
        assert!(obs.registry.has_histogram("span.e2e"));
        assert!(obs.registry.has_histogram("span.st"));
    }

    #[test]
    fn json_lines_sink_emits_one_span_line_per_delivery() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let mut obs = Obs::new();
        obs.add_boxed_sink(Box::new(JsonLinesSink::new(shared.clone())));
        for _ in 0..3 {
            let span = obs.start_span().unwrap();
            obs.emit(
                SimTime::from_nanos(1),
                ObsEvent::StSend {
                    host: 0,
                    st_rms: 9,
                    seq: 0,
                    bytes: 1,
                    span: Some(span),
                },
            );
            obs.emit(SimTime::from_nanos(2), deliver_event(span));
        }
        let buf = shared.0.borrow();
        let text = std::str::from_utf8(&buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            assert!(line.starts_with("{\"type\":\"span\""), "bad line: {line}");
            assert!(line.contains("\"stage\":\"st_send\""));
        }
    }

    #[test]
    fn tracker_caps_open_spans() {
        let mut obs = Obs::new();
        obs.enable();
        for _ in 0..(MAX_OPEN_SPANS + 10) {
            let span = obs.start_span().unwrap();
            obs.emit(
                SimTime::ZERO,
                ObsEvent::StSend {
                    host: 0,
                    st_rms: 1,
                    seq: 0,
                    bytes: 1,
                    span: Some(span),
                },
            );
        }
        assert!(obs.spans_dropped() > 0);
    }

    #[test]
    fn registry_json_dump_is_line_per_metric() {
        let mut reg = MetricRegistry::new();
        reg.apply(&ObsEvent::CacheHit { host: 0 });
        reg.histogram("span.e2e").record(0.25);
        let dump = reg.to_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"counter\""));
        assert!(lines[1].contains("\"histogram\""));
    }
}
