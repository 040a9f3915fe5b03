//! Stream transport protocols over ST RMSs (paper §2.5, §3.3, §4.4).
//!
//! A stream session couples:
//!
//! - a **data ST RMS** (high capacity, profile-chosen delay bound),
//! - optionally a reverse **acknowledgement ST RMS** ("reliability
//!   acknowledgements should use low capacity, high delay RMS's; flow
//!   control acknowledgements should use a low delay, low capacity RMS" —
//!   when both are needed we carry them on one low-delay stream), and
//! - the §4.4 flow-control suite, each mechanism present only when the
//!   profile asks for it: rate-based or acknowledgement-based RMS capacity
//!   enforcement, receiver flow control with a finite receive buffer, and
//!   sender flow control through a bounded [`SendPort`].
//!
//! A session is a function of the profile's mechanisms and its delay
//! bound, nothing else. The receiving end learns the mechanisms from the
//! Hello — one flags byte (reliable, receiver flow control) and the buffer
//! size — so it runs exactly what the sender's profile names; the RTO
//! ([`StreamProfile::rto`]) and the receive buffer
//! ([`StreamProfile::receive_buffer`]) derive from the contract.
//!
//! Every lane is claimed when it is created. The Hello is the opening
//! header of the data lane's ST create, and the ack lane's create names
//! the session it acknowledges the same way, so the receiving end holds
//! the session (or binds the lane to it) before any data can be sent on
//! the lane. Both ends bind each lane to the session as its ST client
//! ([`Client`] `{ proto: 0xD6, id: session }`); which lane of the session
//! an event is about follows from the session's role, so the module keeps
//! no map of its lanes.
//!
//! Acknowledgement-based capacity enforcement is clocked by the ST's *fast
//! acknowledgement* service (§3.2), exercising the paper's claim that it
//! reduces response time and RMS establishment overhead (no reverse RMS
//! needed just for capacity clocking).
//!
//! Reliability is loss-driven repair, present only on a `reliable` session:
//!
//! - **Receiver — an in-window hold and an honest ack.** Out-of-order
//!   arrivals are kept (bounded by the receive buffer) and each is answered
//!   at once with the cumulative ack; the in-order arrival releases the
//!   held run through the ordinary delivery path, so one lost message costs
//!   one retransmission and one round trip. Every ack says whether the
//!   receiver has seen data past `cum_seq` (`gap`): that, and nothing else,
//!   is loss evidence. A re-ack of the same `cum_seq` for a *duplicate*
//!   arrival, or a window update from [`consume`], carries no `gap` and is
//!   never mistaken for one.
//! - **Sender — never more than the receiver can hold.** Unacknowledged
//!   bytes stay within the receive buffer the Hello announces, so the hold
//!   never has to refuse data the sender will only resend.
//! - **Sender — one recovery state.** `repairing` names the hole already
//!   resent. A `gap` ack whose hole (the head of `unacked`) is not the one
//!   being repaired resends the head once — a *duplicate* ack when it
//!   acknowledges nothing new, a *partial* ack when it advances and exposes
//!   the next hole. Everything else an ack can say retransmits nothing. A
//!   retransmission timeout resends the head when evidence cannot arrive (a
//!   lost tail, a lost retransmission, lost acks) and presumes nothing
//!   about the rest of the window: acks already in flight must not be read
//!   as answers to it.
//!
//! The pitfall the ack arm encodes: a progressing ack cancels the RTO, so
//! it must re-arm it whenever data is still outstanding, even with an empty
//! send port — a lost tail is repaired by nothing else.

use std::collections::{BTreeMap, VecDeque};

use rms_core::hash::DetHashMap;

use bytes::{BufMut, Bytes};
use dash_net::ids::HostId;
use dash_net::state::emit;
use dash_sim::engine::{Args, Sim, TimerHandle};
use dash_sim::obs::{DropCause, ObsEvent, RetransmitCause};
use dash_sim::stats::Counter;
use dash_sim::time::{SimDuration, SimTime};
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::StEvent;
use rms_core::delay::DelayBound;
use rms_core::error::{FailReason, RmsError};
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::wire::{self, WireMsg};
use rms_core::RmsRequest;

use crate::flow::{AckWindow, CapacityEnforcement, RateLimiter, ReceiverWindow};
use crate::sendport::{SendPort, WouldBlock};
use crate::stack::{Stack, MAGIC_STREAM};

/// Stream session profile: the data stream's contract and the §4.4
/// mechanisms to run over it. Everything else a session does — its
/// retransmission timeout, its receive buffer — derives from these.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// RMS capacity of the data stream, bytes.
    pub capacity: u64,
    /// Maximum message size on the data stream.
    pub max_message: u64,
    /// Delay bound requested for the data stream.
    pub delay: DelayBound,
    /// Capacity-enforcement mechanism.
    pub enforcement: CapacityEnforcement,
    /// Retransmit lost messages (adds the reverse ack stream).
    pub reliable: bool,
    /// Receiver flow control (adds the reverse ack stream and a finite
    /// receive buffer).
    pub receiver_fc: bool,
    /// Sender-side IPC port limit (§4.4 sender flow control).
    pub send_port_limit: u64,
}

impl Default for StreamProfile {
    fn default() -> Self {
        StreamProfile {
            capacity: 32 * 1024,
            max_message: 1024,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(100),
                SimDuration::from_micros(10),
            ),
            enforcement: CapacityEnforcement::None,
            reliable: false,
            receiver_fc: false,
            send_port_limit: 64 * 1024,
        }
    }
}

/// Consecutive retransmission timeouts (no ack progress) before a reliable
/// sender gives up and ends the session with
/// [`EndReason::RetriesExhausted`] — a typed outcome instead of an
/// unbounded stall when the peer is gone.
pub const MAX_RETRIES: u32 = 8;
/// A receiver sends a cumulative ack every this many in-order deliveries...
const ACK_EVERY: u32 = 4;
/// ...or this long after the first unacknowledged one.
const ACK_DELAY: SimDuration = SimDuration::from_millis(5);

impl StreamProfile {
    /// Retransmission timeout: twice the round trip the contract admits
    /// to — the data lane's bound for a full message plus the ack lane's
    /// bound for one ack. This is RKOM's `retry_period` rule; the data
    /// request accepts no other delay bound than the one it desires, so
    /// this is also the negotiated round trip.
    pub fn rto(&self) -> SimDuration {
        let data = self.delay.bound_for(self.max_message + DATA_HEADER);
        let ack = ack_params().delay.bound_for(ACK_LEN);
        data.saturating_add(ack).saturating_mul(2)
    }

    /// The receiver's buffer: two capacities' worth, so a full window can
    /// be in flight while the application holds another.
    pub fn receive_buffer(&self) -> u64 {
        2 * self.capacity
    }

    /// What the receiving end must run, as the Hello carries it.
    fn mechanisms(&self) -> Mechanisms {
        Mechanisms {
            reliable: self.reliable,
            receiver_fc: self.receiver_fc,
            receive_buffer: self.receive_buffer(),
        }
    }

    /// Bulk-transfer profile (§2.5): high capacity/delay data stream,
    /// reliable, ack-based capacity enforcement.
    pub fn bulk() -> Self {
        StreamProfile {
            capacity: 128 * 1024,
            max_message: 8 * 1024,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(500),
                SimDuration::from_micros(10),
            ),
            enforcement: CapacityEnforcement::AckBased,
            reliable: true,
            receiver_fc: true,
            ..StreamProfile::default()
        }
    }

    /// Digitized-voice profile (§2.5): high capacity, low delay, loss
    /// tolerated, no reliability machinery at all.
    pub fn voice() -> Self {
        StreamProfile {
            capacity: 16 * 1024,
            max_message: 256,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(40),
                SimDuration::from_micros(10),
            ),
            enforcement: CapacityEnforcement::RateBased,
            reliable: false,
            receiver_fc: false,
            ..StreamProfile::default()
        }
    }
}

/// Events surfaced to the application via the per-host stream tap.
#[derive(Debug)]
pub enum StreamEvent {
    /// A session we opened is ready to send.
    Opened {
        /// The session.
        session: u64,
    },
    /// A session we opened could not be established.
    OpenFailed {
        /// The session.
        session: u64,
        /// Why.
        reason: RmsError,
    },
    /// A peer opened a session toward us.
    Incoming {
        /// The session.
        session: u64,
        /// The sending peer.
        peer: HostId,
    },
    /// An in-order message arrived (receiver side).
    Delivered {
        /// The session.
        session: u64,
        /// The message.
        msg: Message,
        /// Its sequence number.
        seq: u64,
        /// End-to-end delay from the sender's `send` call.
        delay: SimDuration,
    },
    /// The send port has space again after refusing an offer.
    Drained {
        /// The session.
        session: u64,
    },
    /// The session failed or the peer closed it.
    Ended {
        /// The session.
        session: u64,
        /// Why.
        reason: EndReason,
    },
}

/// Why a session ended ([`StreamEvent::Ended`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The peer closed the stream.
    Closed,
    /// The carrying ST stream failed (e.g. its network died with no
    /// alternate to fail over to).
    ChannelFailed(FailReason),
    /// A reliable sender hit [`MAX_RETRIES`] consecutive retransmission
    /// timeouts without acknowledgement progress.
    RetriesExhausted,
}

/// Second byte of a Hello: the opening header, never a lane message.
const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_ACK: u8 = 3;
/// An ack from a receiver that has seen data past `cum_seq`.
const KIND_GAP_ACK: u8 = 4;

/// Hello flag bits: the receiver-side mechanisms the sender's profile names.
const FLAG_RELIABLE: u8 = 1;
const FLAG_RECEIVER_FC: u8 = 2;

/// Bytes of an ack on the wire (magic + kind + session + cum_seq +
/// consumed): the message the RTO's ack-lane term is bounded at.
const ACK_LEN: u64 = 26;

/// The receiving end's share of the §4.4 suite: what the sender's profile
/// names and its Hello carries, and all a receiving session is built from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Mechanisms {
    /// Hold out-of-order arrivals and report gaps in acks.
    reliable: bool,
    /// Account delivered bytes against the buffer until the application
    /// consumes them, and announce each `consume` with a window update.
    receiver_fc: bool,
    /// Bounds the hold and, with `receiver_fc`, the unconsumed bytes.
    receive_buffer: u64,
}

impl Mechanisms {
    /// Either mechanism needs the reverse acknowledgement stream.
    fn acked(&self) -> bool {
        self.reliable || self.receiver_fc
    }
}

/// Bytes of a Hello on the wire: magic, kind, session, flags, receive
/// buffer and acknowledged session.
const HELLO_LEN: usize = 27;

/// A stream lane's opening header, carried by its ST create
/// ([`HELLO_LEN`] bytes, carved from the shared header store). A data
/// lane's Hello names the mechanisms the receiving end must run; an ack
/// lane's names the session it acknowledges.
#[derive(Debug, PartialEq)]
struct Hello {
    session: u64,
    mech: Mechanisms,
    ack_is_for: Option<u64>,
}

impl Hello {
    fn encode(&self) -> Bytes {
        wire::header(HELLO_LEN, |b| {
            b.put_u8(MAGIC_STREAM);
            b.put_u8(KIND_HELLO);
            b.put_u64(self.session);
            let flag = |on: bool, bit: u8| if on { bit } else { 0 };
            let mech = &self.mech;
            b.put_u8(flag(mech.reliable, FLAG_RELIABLE) | flag(mech.receiver_fc, FLAG_RECEIVER_FC));
            b.put_u64(mech.receive_buffer);
            b.put_u64(self.ack_is_for.map_or(u64::MAX, |s| s));
        })
    }

    fn decode(header: &Bytes) -> Option<Hello> {
        let wire = WireMsg::from_bytes(header.clone());
        let mut b = wire.cursor();
        if b.get_u8().ok()? != MAGIC_STREAM || b.get_u8().ok()? != KIND_HELLO {
            return None;
        }
        let session = b.get_u64().ok()?;
        let flags = b.get_u8().ok()?;
        if flags & !(FLAG_RELIABLE | FLAG_RECEIVER_FC) != 0 {
            return None;
        }
        let mech = Mechanisms {
            reliable: flags & FLAG_RELIABLE != 0,
            receiver_fc: flags & FLAG_RECEIVER_FC != 0,
            receive_buffer: b.get_u64().ok()?,
        };
        let raw = b.get_u64().ok()?;
        Some(Hello {
            session,
            mech,
            ack_is_for: (raw != u64::MAX).then_some(raw),
        })
    }
}

/// A message on a stream lane.
#[derive(Debug, PartialEq)]
enum StreamMsg {
    Data {
        session: u64,
        seq: u64,
        sent_at: SimTime,
        payload: WireMsg,
    },
    Ack {
        session: u64,
        cum_seq: Option<u64>,
        consumed: u64,
        /// The receiver has seen a message past `cum_seq`: the one right
        /// after it is missing.
        gap: bool,
    },
}

/// Encode into a scatter-gather wire body: one header carved from the
/// shared header store, followed (for `Data`) by the payload's segments
/// shared as-is — the payload bytes are never copied.
fn encode_msg(m: &StreamMsg) -> WireMsg {
    let hdr = wire::header(32, |b| {
        b.put_u8(MAGIC_STREAM);
        match m {
            StreamMsg::Data {
                session,
                seq,
                sent_at,
                payload,
            } => {
                b.put_u8(KIND_DATA);
                b.put_u64(*session);
                b.put_u64(*seq);
                b.put_u64(sent_at.as_nanos());
                b.put_u32(payload.len() as u32);
            }
            StreamMsg::Ack {
                session,
                cum_seq,
                consumed,
                gap,
            } => {
                b.put_u8(if *gap { KIND_GAP_ACK } else { KIND_ACK });
                b.put_u64(*session);
                b.put_u64(cum_seq.map_or(u64::MAX, |s| s));
                b.put_u64(*consumed);
            }
        }
    });
    let mut out = WireMsg::from_bytes(hdr);
    if let StreamMsg::Data { payload, .. } = m {
        out.append(payload);
    }
    out
}

/// Cursor-decode a scatter-gather body; `Data` payloads are sliced out of
/// the shared segments, not copied.
fn decode_msg(wire: &WireMsg) -> Option<StreamMsg> {
    let mut b = wire.cursor();
    if b.get_u8().ok()? != MAGIC_STREAM {
        return None;
    }
    match b.get_u8().ok()? {
        KIND_DATA => {
            let session = b.get_u64().ok()?;
            let seq = b.get_u64().ok()?;
            let sent_at = SimTime::from_nanos(b.get_u64().ok()?);
            let len = b.get_u32().ok()? as usize;
            Some(StreamMsg::Data {
                session,
                seq,
                sent_at,
                payload: b.take_wire(len).ok()?,
            })
        }
        kind @ (KIND_ACK | KIND_GAP_ACK) => {
            let session = b.get_u64().ok()?;
            let raw = b.get_u64().ok()?;
            let consumed = b.get_u64().ok()?;
            Some(StreamMsg::Ack {
                session,
                cum_seq: (raw != u64::MAX).then_some(raw),
                consumed,
                gap: kind == KIND_GAP_ACK,
            })
        }
        _ => None,
    }
}

/// Which end of the session this host holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StreamRole {
    /// We send data.
    Tx,
    /// We receive data.
    #[default]
    Rx,
}

/// Per-session statistics.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Data messages sent (first transmissions).
    pub sent: Counter,
    /// Retransmissions.
    pub retransmitted: Counter,
    /// Messages delivered in order to the application.
    pub delivered: Counter,
    /// Payload bytes delivered.
    pub bytes_delivered: Counter,
    /// Cumulative acks sent.
    pub acks_sent: Counter,
    /// Offers refused by the send port (sender blocked).
    pub sender_blocked: Counter,
    /// Messages dropped at the receiver for buffer overflow.
    pub buffer_drops: Counter,
    /// Messages found missing upstream (sequence numbers skipped by an
    /// arrival; a reliable session counts each once, when first skipped).
    pub gaps: Counter,
}

/// One stream session endpoint.
#[derive(Default)]
pub struct Session {
    /// Globally unique session id (shared by both ends).
    pub id: u64,
    /// The other host.
    pub peer: HostId,
    /// Our role.
    pub role: StreamRole,
    /// Statistics.
    pub stats: SessionStats,
    /// The mechanisms in force: the sender's from its profile, the
    /// receiver's from the Hello.
    mech: Mechanisms,

    // Tx side.
    enforcement: CapacityEnforcement,
    rto: SimDuration,
    data_out: Option<StRmsId>,
    port: SendPort,
    next_seq: u64,
    unacked: VecDeque<(u64, Message, SimTime)>,
    /// Payload bytes in `unacked`.
    unacked_bytes: u64,
    rate: Option<RateLimiter>,
    ackwin: Option<AckWindow>,
    rwin: Option<ReceiverWindow>,
    rto_timer: Option<TimerHandle>,
    rto_backoff: u32,
    /// Loss recovery: the hole (sequence number) already resent, so one
    /// piece of evidence repeated by many acks costs one retransmission.
    repairing: Option<u64>,
    rate_timer_armed: bool,
    was_blocked: bool,

    // Rx side.
    ack_out: Option<StRmsId>,
    next_expected: u64,
    /// One past the highest sequence seen (reliable sessions): where the
    /// next gap would start, and — while ahead of `next_expected` — the
    /// loss evidence every ack reports.
    frontier: u64,
    /// Out-of-order arrivals awaiting the in-order one (reliable sessions).
    held: BTreeMap<u64, (SimTime, WireMsg)>,
    held_bytes: u64,
    pending_buffer_bytes: u64,
    consumed_total: u64,
    since_last_ack: u32,
    ack_timer: Option<TimerHandle>,
    pending_acks: Vec<WireMsg>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("role", &self.role)
            .field("peer", &self.peer)
            .finish()
    }
}

impl Session {
    /// A receiving endpoint, built from the Hello alone.
    fn rx(id: u64, peer: HostId, mech: Mechanisms) -> Self {
        Session {
            id,
            peer,
            mech,
            ..Session::default()
        }
    }

    /// A sending endpoint running what `profile` names. Capacity
    /// enforcement waits for the *negotiated* parameters (the provider may
    /// grant less capacity than desired); the receiver's window is known
    /// now.
    fn tx(id: u64, peer: HostId, profile: &StreamProfile) -> Self {
        let mech = profile.mechanisms();
        Session {
            role: StreamRole::Tx,
            enforcement: profile.enforcement,
            rto: profile.rto(),
            port: SendPort::new(profile.send_port_limit),
            rwin: mech
                .receiver_fc
                .then(|| ReceiverWindow::new(mech.receive_buffer)),
            ..Session::rx(id, peer, mech)
        }
    }

    /// Bytes occupying the receive buffer (delivered, not yet consumed).
    pub fn receive_buffer_pending(&self) -> u64 {
        self.pending_buffer_bytes
    }

    /// Bytes of out-of-order arrivals held for the in-order one; together
    /// with [`Self::receive_buffer_pending`] never above the receive buffer.
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes
    }

    /// True once this endpoint's outbound ack channel is established.
    ///
    /// Until then acks are parked in `pending_acks`, so a receiver that
    /// loses data before this point cannot drive the sender's ARQ.
    pub fn ack_ready(&self) -> bool {
        self.ack_out.is_some()
    }
}

pub(crate) type StreamTap = Box<dyn FnMut(&mut Sim<Stack>, StreamEvent)>;

/// Per-host stream-protocol state.
#[derive(Default)]
pub struct StreamHost {
    sessions: DetHashMap<u64, Session>,
    tap: Option<StreamTap>,
}

impl std::fmt::Debug for StreamHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHost")
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

/// The stream module's state.
#[derive(Debug)]
pub struct StreamState {
    hosts: Vec<StreamHost>,
    next_session: u64,
}

impl StreamState {
    /// State for `n` hosts.
    pub fn new(n: usize) -> Self {
        StreamState {
            hosts: (0..n).map(|_| StreamHost::default()).collect(),
            next_session: 1,
        }
    }

    /// Rebase session-id allocation to start at `base` (disjoint per
    /// logical process under the parallel executor; see
    /// [`crate::stack::Stack::enable_lp_mode`]).
    pub fn set_id_namespace(&mut self, base: u64) {
        self.next_session = base;
    }

    /// Access a host's sessions.
    pub fn host(&self, id: HostId) -> &StreamHost {
        &self.hosts[id.0 as usize]
    }

    /// Mutable access to a host's sessions.
    pub fn host_mut(&mut self, id: HostId) -> &mut StreamHost {
        &mut self.hosts[id.0 as usize]
    }

    /// A session by id at `host`.
    pub fn session(&self, host: HostId, session: u64) -> Option<&Session> {
        self.host(host).sessions.get(&session)
    }

    /// Mutable session access.
    pub fn session_mut(&mut self, host: HostId, session: u64) -> Option<&mut Session> {
        self.host_mut(host).sessions.get_mut(&session)
    }
}

impl StreamHost {
    /// Slot setter shared by the tap-installation APIs.
    pub(crate) fn install_tap(&mut self, tap: StreamTap) {
        self.tap = Some(tap);
    }
}

fn fire(sim: &mut Sim<Stack>, host: HostId, event: StreamEvent) {
    if let Some(mut tap) = sim.state.stream.host_mut(host).tap.take() {
        tap(sim, event);
        let slot = &mut sim.state.stream.host_mut(host).tap;
        if slot.is_none() {
            *slot = Some(tap);
        }
    }
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

/// Open a stream session from `host` to `peer`. The result arrives at the
/// host's stream tap as [`StreamEvent::Opened`] / [`StreamEvent::OpenFailed`].
///
/// # Errors
///
/// Fails synchronously when the underlying ST creation does.
pub fn open(
    sim: &mut Sim<Stack>,
    host: HostId,
    peer: HostId,
    profile: StreamProfile,
) -> Result<u64, RmsError> {
    let session_id = {
        let s = &mut sim.state.stream;
        let id = s.next_session;
        s.next_session += 1;
        id
    };
    let session = Session::tx(session_id, peer, &profile);
    sim.state
        .stream
        .host_mut(host)
        .sessions
        .insert(session_id, session);
    let fast_ack = profile.enforcement == CapacityEnforcement::AckBased;
    let hello = Hello {
        session: session_id,
        mech: profile.mechanisms(),
        ack_is_for: None,
    };
    let request = data_request(&profile);
    let (client, header) = (lane_client(session_id), hello.encode());
    st_engine::create(sim, host, peer, &request, fast_ack, client, header).inspect_err(|_| {
        sim.state.stream.host_mut(host).sessions.remove(&session_id);
    })?;
    Ok(session_id)
}

/// The ST client of every lane of `session`, at both ends.
fn lane_client(session: u64) -> Client {
    Client {
        proto: MAGIC_STREAM,
        id: session,
    }
}

/// Bytes of stream-protocol header on a data message (magic + kind +
/// session + seq + sent_at + length).
pub const DATA_HEADER: u64 = 30;

fn data_params(profile: &StreamProfile) -> RmsParams {
    let mms = profile.max_message + DATA_HEADER;
    // A reliable stream asks the provider for a tight error rate so
    // corruption is caught by checksums and surfaces as clean loss the
    // retransmission machinery can repair; a lossy stream tolerates errors
    // and skips the checksum work (§2.5).
    let ber = if profile.reliable { 1e-9 } else { 1e-4 };
    RmsParams {
        reliability: rms_core::Reliability::Unreliable,
        security: rms_core::SecurityParams::NONE,
        capacity: profile.capacity.max(mms),
        max_message_size: mms,
        delay: profile.delay,
        error_rate: rms_core::BitErrorRate::new(ber).expect("valid"),
    }
}

fn data_request(profile: &StreamProfile) -> RmsRequest {
    let desired = data_params(profile);
    // Floor: the full message size and the delay bound are non-negotiable
    // (the RTO is derived from the bound), but less in-flight capacity is
    // survivable — the flow-control windows adapt to whatever was actually
    // granted.
    let mut acceptable = desired.clone();
    acceptable.capacity = desired.max_message_size;
    RmsRequest::new(desired, acceptable).expect("desired covers floor")
}

fn ack_params() -> RmsParams {
    // Low capacity, low delay: serves flow-control acks; reliability acks
    // tolerate it ("low capacity, high delay" would also do, §2.5).
    RmsParams {
        reliability: rms_core::Reliability::Unreliable,
        security: rms_core::SecurityParams::NONE,
        capacity: 8 * 1024,
        max_message_size: 256,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(50),
            SimDuration::from_micros(10),
        ),
        error_rate: rms_core::BitErrorRate::new(1e-4).expect("valid"),
    }
}

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

/// Offer a message on a Tx session. Refusal ([`WouldBlock`]) is the §4.4
/// sender-flow-control condition; the tap gets [`StreamEvent::Drained`]
/// when space is available again.
///
/// # Errors
///
/// [`WouldBlock`] when the send port is full.
pub fn send(
    sim: &mut Sim<Stack>,
    host: HostId,
    session: u64,
    msg: Message,
) -> Result<(), WouldBlock> {
    let blocked = {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            return Ok(()); // unknown or ended session: drop silently
        };
        match s.port.offer(msg) {
            Ok(()) => None,
            Err(e) => {
                s.was_blocked = true;
                s.stats.sender_blocked.incr();
                Some(e)
            }
        }
    };
    if let Some(e) = blocked {
        emit(
            sim,
            ObsEvent::StreamBlocked {
                host: host.0,
                session,
            },
        );
        return Err(e);
    }
    pump(sim, host, session);
    Ok(())
}

/// The rate limiter's release timer of `(host, session)` fired.
fn rate_release(sim: &mut Sim<Stack>, (host, session): Args) {
    let host = HostId(host);
    if let Some(s) = sim.state.stream.session_mut(host, session) {
        s.rate_timer_armed = false;
    }
    pump(sim, host, session);
}

/// Try to move messages from the send port onto the data stream, honouring
/// every active flow-control gate.
fn pump(sim: &mut Sim<Stack>, host: HostId, session: u64) {
    let now = sim.now();
    loop {
        // Gate check + dequeue under one borrow.
        let (st_rms, seq, msg) = {
            let Some(s) = sim.state.stream.session_mut(host, session) else {
                return;
            };
            let Some(st_rms) = s.data_out else { return };
            let Some(next) = s.port.peek() else {
                // Port drained: wake a blocked sender.
                if s.was_blocked {
                    s.was_blocked = false;
                    fire(sim, host, StreamEvent::Drained { session });
                }
                return;
            };
            let len = next.len() as u64;
            let mut blocked_by_rate = false;
            if let Some(rate) = &mut s.rate {
                if !rate.may_send(now, len) {
                    blocked_by_rate = true;
                }
            }
            if blocked_by_rate {
                // Re-try when budget returns.
                let at = s
                    .rate
                    .as_ref()
                    .and_then(|r| r.next_release())
                    .unwrap_or(now + SimDuration::from_millis(1));
                if !s.rate_timer_armed {
                    s.rate_timer_armed = true;
                    let delay = at.saturating_since(now).max(SimDuration::from_nanos(1));
                    sim.call_in(delay, rate_release, (host.0, session));
                }
                return;
            }
            if let Some(w) = &s.ackwin {
                if !w.may_send(len) {
                    return; // unblocked by future acks
                }
            }
            if let Some(w) = &s.rwin {
                if !w.may_send(len) {
                    return; // unblocked by window updates
                }
            }
            if s.mech.reliable
                && !s.unacked.is_empty()
                && s.unacked_bytes + len > s.mech.receive_buffer
            {
                return; // the receiver could not hold it: unblocked by acks
            }
            let msg = s.port.pop().expect("peeked");
            let seq = s.next_seq;
            s.next_seq += 1;
            if let Some(rate) = &mut s.rate {
                rate.record_send(now, len);
            }
            if let Some(w) = &mut s.rwin {
                w.record_send(len);
            }
            s.stats.sent.incr();
            if s.mech.reliable {
                s.unacked.push_back((seq, msg.clone(), now));
                s.unacked_bytes += len;
            }
            (st_rms, seq, msg)
        };
        let bytes = encode_msg(&StreamMsg::Data {
            session,
            seq,
            sent_at: now,
            payload: msg.wire().clone(),
        });
        let len = msg.len() as u64;
        let mut wire = Message::from_wire(bytes);
        // Open the lifecycle span here so it records the TransportSend stage
        // ahead of StSend (the ST engine adopts an existing span instead of
        // opening its own).
        wire.span = sim.state.net.obs.start_span();
        emit(
            sim,
            ObsEvent::TransportSend {
                host: host.0,
                session,
                seq,
                bytes: len,
                span: wire.span,
            },
        );
        match st_engine::send(sim, host, st_rms, wire) {
            Ok(st_seq) => {
                // Ack-based capacity enforcement is clocked by ST fast
                // acknowledgements, which echo the ST sequence number.
                if let Some(s) = sim.state.stream.session_mut(host, session) {
                    if let Some(w) = &mut s.ackwin {
                        w.record_send(st_seq, len);
                    }
                }
            }
            Err(_) => {
                // The data lane failed (no carrier was left to fail over
                // to) or is gone; its `Failed`/`Closed` event ends the
                // session. Count the message as a gap.
                if let Some(s) = sim.state.stream.session_mut(host, session) {
                    s.stats.gaps.incr();
                }
            }
        }
        ensure_rto(sim, host, session);
    }
}

fn ensure_rto(sim: &mut Sim<Stack>, host: HostId, session: u64) {
    let rto = {
        let Some(s) = sim.state.stream.session(host, session) else {
            return;
        };
        if !s.mech.reliable || s.unacked.is_empty() || s.rto_timer.is_some() {
            return;
        }
        // Exponential backoff keeps spurious retransmissions from melting
        // down a slow path.
        s.rto.saturating_mul(1u64 << s.rto_backoff.min(6))
    };
    let handle = sim.call_timer(rto, on_rto, (host.0, session));
    if let Some(s) = sim.state.stream.session_mut(host, session) {
        s.rto_timer = Some(handle);
    }
}

fn on_rto(sim: &mut Sim<Stack>, (host, session): Args) {
    let host = HostId(host);
    // A timeout resends only the *oldest* unacknowledged message. Blasting
    // the whole window on every timeout floods a slow bottleneck with
    // duplicate bursts faster than it drains, and the timeout is evidence
    // about the head alone; whatever else was lost is reported by the
    // receiver once the head arrives.
    let give_up = {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            return;
        };
        s.rto_timer = None;
        if s.unacked.is_empty() {
            return;
        }
        // Bounded retry: past it the peer (or the path) is gone — surface
        // a typed outcome instead of backing off forever.
        let give_up = s.rto_backoff >= MAX_RETRIES;
        if !give_up {
            s.rto_backoff += 1;
        }
        give_up
    };
    if !give_up {
        retransmit_head(sim, host, session, RetransmitCause::Rto);
        return;
    }
    emit(
        sim,
        ObsEvent::StreamRetriesExhausted {
            host: host.0,
            session,
        },
    );
    end(sim, host, session, EndReason::RetriesExhausted);
}

/// Resend the head of the unacked queue and remember it as the hole being
/// repaired — the one repair action, taken for exactly the three `cause`s.
fn retransmit_head(sim: &mut Sim<Stack>, host: HostId, session: u64, cause: RetransmitCause) {
    let item = {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            return;
        };
        match (s.data_out, s.unacked.front().cloned()) {
            (Some(st_rms), Some(head)) => {
                s.stats.retransmitted.incr();
                s.repairing = Some(head.0);
                Some((st_rms, head))
            }
            _ => None,
        }
    };
    if let Some((st_rms, (seq, msg, sent_at))) = item {
        emit(
            sim,
            ObsEvent::StreamRetransmit {
                host: host.0,
                session,
                seq,
                cause,
            },
        );
        let bytes = encode_msg(&StreamMsg::Data {
            session,
            seq,
            sent_at,
            payload: msg.wire().clone(),
        });
        let _ = st_engine::send(sim, host, st_rms, Message::from_wire(bytes));
    }
    ensure_rto(sim, host, session);
}

/// Receiver side: the application consumed `bytes` from the session's
/// buffer, opening the receiver-flow-control window.
/// A session without receiver flow control keeps no account to open.
pub fn consume(sim: &mut Sim<Stack>, host: HostId, session: u64, bytes: u64) {
    let Some(s) = sim.state.stream.session_mut(host, session) else {
        return;
    };
    if !s.mech.receiver_fc {
        return;
    }
    s.pending_buffer_bytes = s.pending_buffer_bytes.saturating_sub(bytes);
    s.consumed_total += bytes;
    send_ack(sim, host, session, true);
}

// ---------------------------------------------------------------------------
// Receiving
// ---------------------------------------------------------------------------

/// Handle an ST lifecycle event on a lane of the session `client` names:
/// the data lane at a sender, the ack lane at a receiver — or, for
/// `Failed`/`Closed`, either lane at either end.
pub fn on_st_event(sim: &mut Sim<Stack>, host: HostId, client: Client, event: StEvent) {
    let session = client.id;
    let Some(role) = sim.state.stream.session(host, session).map(|s| s.role) else {
        return;
    };
    match (event, role) {
        (StEvent::Created { st_rms, params }, StreamRole::Tx) => {
            {
                let s = (sim.state.stream.session_mut(host, session)).expect("looked up above");
                s.data_out = Some(st_rms);
                // Build capacity enforcement from the *actual* negotiated
                // parameters (§4.4).
                match s.enforcement {
                    CapacityEnforcement::None => {}
                    CapacityEnforcement::RateBased => {
                        s.rate = Some(RateLimiter::new(&params));
                    }
                    CapacityEnforcement::AckBased => {
                        s.ackwin = Some(AckWindow::new(params.capacity));
                    }
                }
            }
            fire(sim, host, StreamEvent::Opened { session });
            pump(sim, host, session);
        }
        (StEvent::Created { st_rms, .. }, StreamRole::Rx) => {
            let pending = {
                let s = (sim.state.stream.session_mut(host, session)).expect("looked up above");
                s.ack_out = Some(st_rms);
                std::mem::take(&mut s.pending_acks)
            };
            for bytes in pending {
                let _ = st_engine::send(sim, host, st_rms, Message::from_wire(bytes));
            }
        }
        (StEvent::CreateFailed { reason }, StreamRole::Tx) => {
            sim.state.stream.host_mut(host).sessions.remove(&session);
            emit(
                sim,
                ObsEvent::StreamOpenFailed {
                    host: host.0,
                    session,
                },
            );
            fire(
                sim,
                host,
                StreamEvent::OpenFailed {
                    session,
                    reason: RmsError::CreationRejected(reason),
                },
            );
        }
        (StEvent::Failed { reason, .. }, _) => {
            end(sim, host, session, EndReason::ChannelFailed(reason));
        }
        // A sender closed with sends still unacknowledged has not
        // delivered them: that end is a typed failure, not a close.
        (StEvent::Closed { .. }, role) => {
            let outstanding = role == StreamRole::Tx
                && (sim.state.stream.session(host, session)).is_some_and(|s| !s.unacked.is_empty());
            let reason = if outstanding {
                EndReason::ChannelFailed(FailReason::ClosedByPeer)
            } else {
                EndReason::Closed
            };
            end(sim, host, session, reason);
        }
        (StEvent::FastAck { seq, .. }, _) => {
            if let Some(s) = sim.state.stream.session_mut(host, session) {
                if let Some(w) = &mut s.ackwin {
                    w.ack_through(seq);
                }
            }
            pump(sim, host, session);
        }
        // The ack lane could not be created: acks stay parked, and a
        // reliable sender's retries end the session.
        (StEvent::CreateFailed { .. }, StreamRole::Rx) => {}
    }
}

/// Tear down `session` once: cancel its timers, remove it — the events of
/// its other lanes and every later send, ack or delivery find no session —
/// and surface a typed [`StreamEvent::Ended`] to the application.
fn end(sim: &mut Sim<Stack>, host: HostId, session: u64, reason: EndReason) {
    let Some(s) = sim.state.stream.host_mut(host).sessions.remove(&session) else {
        return;
    };
    for timer in [s.rto_timer, s.ack_timer].into_iter().flatten() {
        timer.cancel();
    }
    emit(
        sim,
        ObsEvent::StreamEnd {
            host: host.0,
            session,
            failed: !matches!(reason, EndReason::Closed),
        },
    );
    fire(sim, host, StreamEvent::Ended { session, reason });
}

/// A stream lane appeared at `host`, opened by `peer` with `header`: build
/// the receiving session from a data lane's Hello, or bind the peer's ack
/// lane to the session it names. Returns the lane's client if the header
/// is a Hello this host accepts — not one naming a session it already
/// holds.
pub fn on_inbound(
    sim: &mut Sim<Stack>,
    host: HostId,
    peer: HostId,
    header: &Bytes,
) -> Option<Client> {
    let hello = Hello::decode(header)?;
    if let Some(session) = hello.ack_is_for {
        // The peer's acknowledgement lane for a session we send on.
        return Some(lane_client(session));
    }
    let session = hello.session;
    let sh = sim.state.stream.host_mut(host);
    if sh.sessions.contains_key(&session) {
        return None;
    }
    sh.sessions
        .insert(session, Session::rx(session, peer, hello.mech));
    if hello.mech.acked() {
        // Create the reverse acknowledgement stream (§2.5); its Hello names
        // the session it acknowledges.
        let ack_hello = Hello {
            session,
            mech: Mechanisms::default(),
            ack_is_for: Some(session),
        };
        let request = RmsRequest::exact(ack_params());
        let client = lane_client(session);
        let _ = st_engine::create(sim, host, peer, &request, false, client, ack_hello.encode());
    }
    fire(sim, host, StreamEvent::Incoming { session, peer });
    Some(lane_client(session))
}

/// Handle an ST delivery on a stream lane. Every lane message names its
/// session.
pub fn on_delivery(sim: &mut Sim<Stack>, host: HostId, msg: Message) {
    let Some(decoded) = decode_msg(msg.wire()) else {
        return;
    };
    match decoded {
        StreamMsg::Data {
            session,
            seq,
            sent_at,
            payload,
        } => handle_data(sim, host, session, seq, sent_at, payload),
        StreamMsg::Ack {
            session,
            cum_seq,
            consumed,
            gap,
        } => {
            let repair = {
                let Some(s) = sim.state.stream.session_mut(host, session) else {
                    return;
                };
                let mut progressed = false;
                if let Some(cum) = cum_seq {
                    while s.unacked.front().is_some_and(|&(sq, _, _)| sq <= cum) {
                        let (_, acked, _) = s.unacked.pop_front().expect("front exists");
                        s.unacked_bytes -= acked.len() as u64;
                        progressed = true;
                    }
                }
                if progressed {
                    s.rto_backoff = 0;
                    // Restart the clock for the remaining tail (re-armed
                    // below, once the pump has run).
                    if let Some(t) = s.rto_timer.take() {
                        t.cancel();
                    }
                }
                if let Some(w) = &mut s.rwin {
                    w.update_consumed(consumed);
                }
                // The receiver has seen past `cum_seq`, so our head is a
                // hole: resend it, unless this hole was resent already.
                let hole = s.unacked.front().map(|&(sq, _, _)| sq);
                match hole {
                    Some(_) if gap && hole != s.repairing => Some(if progressed {
                        RetransmitCause::PartialAck
                    } else {
                        RetransmitCause::DupAck
                    }),
                    _ => None,
                }
            };
            if let Some(cause) = repair {
                retransmit_head(sim, host, session, cause);
            }
            pump(sim, host, session);
            // Outstanding data always has a running clock, even when the
            // port is empty and the pump sent nothing.
            ensure_rto(sim, host, session);
        }
    }
}

fn handle_data(
    sim: &mut Sim<Stack>,
    host: HostId,
    session: u64,
    seq: u64,
    sent_at: SimTime,
    payload: WireMsg,
) {
    // Accept the arrival (and, on a reliable session, the held run it
    // releases) or refuse it; `next_expected` moves past the whole run
    // before any of it reaches the application, so an ack sent from inside
    // a delivery (`consume`) already covers everything received.
    let accepted = {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            // Data naming a session this host does not hold.
            emit(
                sim,
                ObsEvent::Drop {
                    host: host.0,
                    cause: DropCause::NoSession,
                },
            );
            return;
        };
        let len = payload.len() as u64;
        if s.mech.reliable {
            if seq > s.frontier {
                s.stats.gaps.add(seq - s.frontier);
            }
            s.frontier = s.frontier.max(seq + 1);
        }
        if seq < s.next_expected {
            // Duplicate of something already delivered.
            None
        } else if seq > s.next_expected {
            if s.mech.reliable {
                // Out of order: hold it for the retransmission of what is
                // missing, within the receive buffer; a duplicate of a held
                // message is dropped.
                if !s.held.contains_key(&seq) {
                    if s.pending_buffer_bytes + s.held_bytes + len <= s.mech.receive_buffer {
                        s.held_bytes += len;
                        s.held.insert(seq, (sent_at, payload));
                    } else {
                        s.stats.buffer_drops.incr();
                    }
                }
                None
            } else {
                // Lossy stream: count what was skipped and carry on.
                s.stats.gaps.add(seq - s.next_expected);
                s.next_expected = seq + 1;
                Some((payload, Vec::new()))
            }
        } else {
            if s.mech.receiver_fc {
                // The in-order message outranks anything held: make room
                // from the far end of the hold before refusing it.
                while s.pending_buffer_bytes + s.held_bytes + len > s.mech.receive_buffer {
                    let Some((_, (_, evicted))) = s.held.pop_last() else {
                        break;
                    };
                    s.held_bytes -= evicted.len() as u64;
                    s.stats.buffer_drops.incr();
                }
            }
            if s.mech.receiver_fc && s.pending_buffer_bytes + len > s.mech.receive_buffer {
                // Receive buffer full: drop; the sender's window should have
                // prevented this (counted to make violations visible).
                s.stats.buffer_drops.incr();
                None
            } else {
                s.next_expected = seq + 1;
                let mut run = Vec::new();
                while let Some(e) = s.held.first_entry() {
                    if *e.key() != s.next_expected {
                        break;
                    }
                    let (at, held) = e.remove();
                    s.held_bytes -= held.len() as u64;
                    run.push((s.next_expected, at, held));
                    s.next_expected += 1;
                }
                Some((payload, run))
            }
        }
    };
    let Some((payload, run)) = accepted else {
        // Duplicate, gap or refusal: re-send the cumulative ack at once. Past
        // a gap it is the sender's loss evidence; for a duplicate it lets a
        // retransmitting sender converge even when its last ack was lost.
        let needs = sim
            .state
            .stream
            .session(host, session)
            .is_some_and(|s| s.mech.acked());
        if needs {
            send_ack(sim, host, session, true);
        }
        return;
    };
    let filled_gap = !run.is_empty();
    deliver(sim, host, session, seq, sent_at, payload);
    for (seq, sent_at, payload) in run {
        deliver(sim, host, session, seq, sent_at, payload);
    }
    if filled_gap {
        // The sender is waiting on this repair: acknowledge it now (unless
        // a `consume` inside the deliveries already did).
        send_ack(sim, host, session, false);
    } else {
        maybe_ack(sim, host, session);
    }
}

/// Hand one in-order message to the application.
fn deliver(
    sim: &mut Sim<Stack>,
    host: HostId,
    session: u64,
    seq: u64,
    sent_at: SimTime,
    payload: WireMsg,
) {
    let now = sim.now();
    let delay = now.saturating_since(sent_at);
    {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            return;
        };
        let len = payload.len() as u64;
        s.stats.delivered.incr();
        s.stats.bytes_delivered.add(len);
        if s.mech.receiver_fc {
            s.pending_buffer_bytes += len;
        }
        s.since_last_ack += 1;
    }
    emit(
        sim,
        ObsEvent::StreamDeliver {
            host: host.0,
            session,
            seq,
        },
    );
    fire(
        sim,
        host,
        StreamEvent::Delivered {
            session,
            msg: Message::from_wire(payload),
            seq,
            delay,
        },
    );
}

fn maybe_ack(sim: &mut Sim<Stack>, host: HostId, session: u64) {
    let Some(s) = sim.state.stream.session(host, session) else {
        return;
    };
    if !s.mech.acked() {
        return;
    }
    if s.since_last_ack >= ACK_EVERY {
        send_ack(sim, host, session, false);
    } else if s.since_last_ack > 0 && s.ack_timer.is_none() {
        let handle = sim.call_timer(ACK_DELAY, delayed_ack, (host.0, session));
        if let Some(s) = sim.state.stream.session_mut(host, session) {
            s.ack_timer = Some(handle);
        }
    }
}

/// The delayed-ack timer of `(host, session)` fired.
fn delayed_ack(sim: &mut Sim<Stack>, (host, session): Args) {
    let host = HostId(host);
    if let Some(s) = sim.state.stream.session_mut(host, session) {
        s.ack_timer = None;
    }
    send_ack(sim, host, session, false);
}

fn send_ack(sim: &mut Sim<Stack>, host: HostId, session: u64, force: bool) {
    let (bytes, target) = {
        let Some(s) = sim.state.stream.session_mut(host, session) else {
            return;
        };
        if !force && s.since_last_ack == 0 {
            return;
        }
        s.since_last_ack = 0;
        if let Some(t) = s.ack_timer.take() {
            t.cancel();
        }
        s.stats.acks_sent.incr();
        let cum = s.next_expected.checked_sub(1);
        let bytes = encode_msg(&StreamMsg::Ack {
            session,
            cum_seq: cum,
            consumed: s.consumed_total,
            gap: s.frontier > s.next_expected,
        });
        (bytes, s.ack_out)
    };
    emit(
        sim,
        ObsEvent::StreamAck {
            host: host.0,
            session,
        },
    );
    match target {
        Some(st_rms) => {
            let _ = st_engine::send(sim, host, st_rms, Message::from_wire(bytes));
        }
        None => {
            // Ack stream not ready yet: hold the ack.
            if let Some(s) = sim.state.stream.session_mut(host, session) {
                s.pending_acks.push(bytes);
                if s.pending_acks.len() > 16 {
                    s.pending_acks.remove(0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Hello round-trips in 27 bytes — its flags byte took the place
    /// of a one-byte boolean — within the room it takes from the header
    /// store, and fits the ST's opening-header bound.
    #[test]
    fn hello_round_trips() {
        let mech = |reliable, receiver_fc| Mechanisms {
            reliable,
            receiver_fc,
            receive_buffer: 4096,
        };
        let hellos = [
            Hello {
                session: 5,
                mech: mech(true, true),
                ack_is_for: None,
            },
            Hello {
                session: 5,
                mech: mech(true, false),
                ack_is_for: None,
            },
            Hello {
                session: 6,
                mech: Mechanisms::default(),
                ack_is_for: Some(5),
            },
        ];
        for h in hellos {
            let header = h.encode();
            assert_eq!(header.len(), 27, "{h:?}");
            assert!(header.len() <= HELLO_LEN);
            assert!(header.len() <= dash_subtransport::wire::MAX_OPENING_HEADER);
            assert_eq!(Hello::decode(&header), Some(h));
        }
    }

    /// Every lane message round-trips, and each kind keeps its frame length.
    #[test]
    fn wire_round_trips() {
        let payload = WireMsg::from_bytes(bytes::Bytes::from_static(b"body"));
        let msgs = [
            (
                DATA_HEADER + 4,
                StreamMsg::Data {
                    session: 5,
                    seq: 9,
                    sent_at: SimTime::from_nanos(77),
                    payload,
                },
            ),
            (
                ACK_LEN,
                StreamMsg::Ack {
                    session: 5,
                    cum_seq: Some(8),
                    consumed: 1000,
                    gap: false,
                },
            ),
            (
                ACK_LEN,
                StreamMsg::Ack {
                    session: 5,
                    cum_seq: None,
                    consumed: 0,
                    gap: true,
                },
            ),
        ];
        for (len, m) in msgs {
            let wire = encode_msg(&m);
            assert_eq!(wire.len() as u64, len, "{m:?}");
            assert_eq!(decode_msg(&wire), Some(m));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            decode_msg(&WireMsg::from_bytes(bytes::Bytes::from_static(b"xy"))),
            None
        );
        assert_eq!(
            decode_msg(&WireMsg::from_bytes(bytes::Bytes::from_static(&[
                MAGIC_STREAM,
                9
            ]))),
            None
        );
        // A Hello is an opening header, never a lane message.
        let hello = Hello {
            session: 5,
            mech: Mechanisms::default(),
            ack_is_for: None,
        };
        assert_eq!(decode_msg(&WireMsg::from_bytes(hello.encode())), None);
        // A Hello naming a mechanism this end does not know, a truncated
        // one, and RKOM's header.
        let mut unknown = vec![MAGIC_STREAM, KIND_HELLO];
        unknown.extend_from_slice(&5u64.to_be_bytes());
        unknown.push(FLAG_RELIABLE | 4);
        unknown.extend_from_slice(&[0; 16]);
        let truncated = hello.encode().slice(..26);
        for header in [Bytes::from(unknown), truncated, Bytes::from_static(&[0xD5])] {
            assert_eq!(Hello::decode(&header), None, "{header:?}");
        }
    }

    /// A receiving endpoint with no wire under it: arrivals are injected
    /// straight into `handle_data` (acks park, the ack stream never exists).
    fn receiver(receive_buffer: u64) -> (Sim<Stack>, HostId, u64) {
        let (net, a, b) = dash_net::topology::two_hosts_ethernet();
        let mut sim = Sim::new(crate::stack::StackBuilder::new(net).build());
        let mech = Mechanisms {
            reliable: true,
            receiver_fc: true,
            receive_buffer,
        };
        let rx = Session::rx(7, a, mech);
        sim.state.stream.host_mut(b).sessions.insert(7, rx);
        (sim, b, 7)
    }

    #[test]
    fn hold_is_bounded_drops_duplicates_and_yields_to_the_in_order_arrival() {
        let (mut sim, b, session) = receiver(4000);
        let arrive = |sim: &mut Sim<Stack>, seq: u64| {
            let payload = WireMsg::from_bytes(bytes::Bytes::from(vec![seq as u8; 1000]));
            handle_data(sim, b, session, seq, SimTime::ZERO, payload);
        };
        let stats = |sim: &Sim<Stack>| {
            let s = sim.state.stream.session(b, session).unwrap();
            (
                s.stats.delivered.get(),
                s.held_bytes(),
                s.receive_buffer_pending(),
                s.stats.buffer_drops.get(),
            )
        };
        // #0 and #1 are missing; #2 is held, and held once.
        arrive(&mut sim, 2);
        arrive(&mut sim, 2);
        assert_eq!(stats(&sim), (0, 1000, 0, 0));
        // The hold fills the buffer and refuses what does not fit.
        for seq in [3, 4, 5, 6] {
            arrive(&mut sim, seq);
        }
        assert_eq!(stats(&sim), (0, 4000, 0, 1));
        // The in-order arrival evicts from the far end to land...
        arrive(&mut sim, 0);
        assert_eq!(stats(&sim), (1, 3000, 1000, 2));
        // ...and the next one releases the held run behind it, in order.
        arrive(&mut sim, 1);
        assert_eq!(stats(&sim), (4, 0, 4000, 3));
        let s = sim.state.stream.session(b, session).unwrap();
        assert_eq!(s.next_expected, 4);
        assert_eq!(s.stats.gaps.get(), 2, "#0 and #1, counted once");
        // Six out-of-order arrivals re-acked at once, and the arrival that
        // closed the gap acknowledged without waiting for `ack_every`.
        assert_eq!(s.stats.acks_sent.get(), 7);
    }

    /// Data naming a session this host does not hold is not delivered: it
    /// is dropped with a typed cause the registry counts.
    #[test]
    fn data_for_an_unknown_session_is_a_typed_drop() {
        let (mut sim, b, _) = receiver(4000);
        let delivered = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let tap = std::rc::Rc::clone(&delivered);
        sim.state.on_stream(b, move |_sim, ev| {
            if let StreamEvent::Delivered { .. } = ev {
                tap.set(tap.get() + 1);
            }
        });
        let data = encode_msg(&StreamMsg::Data {
            session: 99,
            seq: 0,
            sent_at: SimTime::ZERO,
            payload: WireMsg::from_bytes(bytes::Bytes::from_static(b"early")),
        });
        on_delivery(&mut sim, b, Message::from_wire(data));
        let reg = &sim.state.net.obs.registry;
        assert_eq!(reg.counter_value("stream.drop.no_session"), 1);
        assert_eq!(reg.counter_value("stream.deliver"), 0);
        assert_eq!(delivered.get(), 0);
    }

    #[test]
    fn profiles_reflect_paper_table() {
        let bulk = StreamProfile::bulk();
        assert!(bulk.reliable && bulk.receiver_fc);
        assert!(bulk.mechanisms().acked());
        let voice = StreamProfile::voice();
        assert!(!voice.reliable && !voice.mechanisms().acked());
        assert_eq!(voice.enforcement, CapacityEnforcement::RateBased);
        assert!(voice.delay.fixed < bulk.delay.fixed);
    }

    /// RTO and receive buffer follow from the contract: 2 × (500 ms +
    /// 10 µs × (8 KiB + 30 B) + 50 ms + 10 µs × 26 B) for `bulk()`.
    #[test]
    fn rto_and_buffer_derive_from_the_contract() {
        let us = SimDuration::from_micros;
        assert_eq!(StreamProfile::bulk().rto(), us(1_264_960));
        assert_eq!(StreamProfile::default().rto(), us(321_600));
        assert_eq!(StreamProfile::bulk().receive_buffer(), 256 * 1024);
        assert_eq!(StreamProfile::default().receive_buffer(), 64 * 1024);
    }
}
