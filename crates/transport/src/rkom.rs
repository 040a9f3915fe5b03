//! RKOM — the Remote Kernel Operation Mechanism (paper §3.3).
//!
//! "All request/reply communication uses the DASH Remote Kernel Operation
//! Mechanism (RKOM). ... The RKOM module maintains an RKOM channel to each
//! active peer. Such a channel consists of four ST RMS's, one low-delay and
//! one high-delay RMS in each direction. The low-delay RMS's are used for
//! initial request and reply messages, and the high-delay RMS's are used
//! for retransmissions and acknowledgements."
//!
//! Semantics: at-most-once execution via a per-(client, call) duplicate
//! cache at the server, released by a reply acknowledgement on the
//! high-delay RMS.
//!
//! Each lane's ST create carries the opening header `[0xD5]`. A callee
//! claims the lane when it is created and starts its own half of the
//! channel then, so the reverse lanes are being created while the first
//! request is still in flight. A lane's ST client names its peer and, for
//! an outgoing lane, which half of the channel it is, so RKOM keeps no map
//! of its lanes.

use rms_core::hash::DetHashMap;

use bytes::{BufMut, Bytes};
use dash_net::ids::HostId;
use dash_net::state::emit;
use dash_sim::engine::{Args, Sim, TimerHandle};
use dash_sim::obs::ObsEvent;
use dash_sim::stats::{Counter, Histogram};
use dash_sim::time::{SimDuration, SimTime};
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::{StEvent, StWorld as _};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::wire::{self, WireMsg};
use rms_core::{RmsError, RmsRequest};

use crate::stack::{Stack, MAGIC_RKOM};

/// Why a call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RkomError {
    /// No reply after every retransmission.
    Timeout,
    /// The server has no handler for the service.
    NoSuchService,
    /// The RKOM channel could not be established.
    ChannelFailed(RmsError),
}

impl std::fmt::Display for RkomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RkomError::Timeout => write!(f, "call timed out"),
            RkomError::NoSuchService => write!(f, "no such service"),
            RkomError::ChannelFailed(e) => write!(f, "channel failed: {e}"),
        }
    }
}

impl std::error::Error for RkomError {}

/// Retransmission timeout of an outstanding call (the floor of its retry
/// period, see `retry_period`).
pub const RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(200);
/// Retransmissions before a call gives up with [`RkomError::Timeout`].
pub const MAX_RETRIES: u32 = 4;

/// Delay bound requested for the low-delay (initial) RMSs.
const LOW_DELAY: SimDuration = SimDuration::from_millis(20);
/// Delay bound requested for the high-delay (retransmission/ack) RMSs.
const HIGH_DELAY: SimDuration = SimDuration::from_millis(200);
/// Capacity of each channel RMS ("may be large, unless it is known that
/// request or reply messages will be small and infrequent", §2.5).
const CHANNEL_CAPACITY: u64 = 64 * 1024;
/// Maximum request/reply payload size.
const MAX_MESSAGE: u64 = 16 * 1024;

/// The opening header of every channel lane.
const OPENING_HEADER: &[u8] = &[MAGIC_RKOM];

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_REPLY_ACK: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_NO_SERVICE: u8 = 1;

#[derive(Debug, Clone, PartialEq)]
enum RkomMsg {
    Request {
        call: u64,
        service: u16,
        payload: Bytes,
    },
    Reply {
        call: u64,
        status: u8,
        payload: Bytes,
    },
    ReplyAck {
        call: u64,
    },
}

/// Encode into a scatter-gather wire body: one header carved from the
/// shared header store plus the caller's payload handle shared as a
/// segment (no copy).
fn encode_msg(m: &RkomMsg) -> WireMsg {
    let hdr = wire::header(32, |b| {
        b.put_u8(MAGIC_RKOM);
        match m {
            RkomMsg::Request {
                call,
                service,
                payload,
            } => {
                b.put_u8(KIND_REQUEST);
                b.put_u64(*call);
                b.put_u16(*service);
                b.put_u32(payload.len() as u32);
            }
            RkomMsg::Reply {
                call,
                status,
                payload,
            } => {
                b.put_u8(KIND_REPLY);
                b.put_u64(*call);
                b.put_u8(*status);
                b.put_u32(payload.len() as u32);
            }
            RkomMsg::ReplyAck { call } => {
                b.put_u8(KIND_REPLY_ACK);
                b.put_u64(*call);
            }
        }
    });
    let mut out = WireMsg::from_bytes(hdr);
    if let RkomMsg::Request { payload, .. } | RkomMsg::Reply { payload, .. } = m {
        out.push(payload.clone());
    }
    out
}

fn decode_msg(wire: &WireMsg) -> Option<RkomMsg> {
    let mut b = wire.cursor();
    if b.get_u8().ok()? != MAGIC_RKOM {
        return None;
    }
    match b.get_u8().ok()? {
        KIND_REQUEST => {
            let call = b.get_u64().ok()?;
            let service = b.get_u16().ok()?;
            let len = b.get_u32().ok()? as usize;
            Some(RkomMsg::Request {
                call,
                service,
                payload: b.take_bytes(len).ok()?,
            })
        }
        KIND_REPLY => {
            let call = b.get_u64().ok()?;
            let status = b.get_u8().ok()?;
            let len = b.get_u32().ok()? as usize;
            Some(RkomMsg::Reply {
                call,
                status,
                payload: b.take_bytes(len).ok()?,
            })
        }
        KIND_REPLY_ACK => Some(RkomMsg::ReplyAck {
            call: b.get_u64().ok()?,
        }),
        _ => None,
    }
}

/// Which half of a channel an ST RMS implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Low,
    High,
}

impl Lane {
    /// The ST client of this lane of the channel to `peer`: the peer, and
    /// the lane in the low bit. An incoming lane is bound as `Low`: only
    /// its peer matters.
    fn client(self, peer: HostId) -> Client {
        Client {
            proto: MAGIC_RKOM,
            id: u64::from(peer.0) << 1 | u64::from(self == Lane::High),
        }
    }

    /// The peer and lane a client of [`Lane::client`] names.
    fn of(client: Client) -> (HostId, Lane) {
        let lane = if client.id & 1 == 0 {
            Lane::Low
        } else {
            Lane::High
        };
        (HostId((client.id >> 1) as u32), lane)
    }
}

/// The outgoing half of an RKOM channel to one peer.
#[derive(Debug, Default)]
struct Channel {
    low_out: Option<StRmsId>,
    high_out: Option<StRmsId>,
    creating: bool,
    /// Encoded messages waiting for the channel (lane, bytes).
    waiting: Vec<(Lane, WireMsg)>,
}

impl Channel {
    fn ready(&self) -> bool {
        self.low_out.is_some() && self.high_out.is_some()
    }
}

/// A service handler: consumes the request payload, returns the reply.
pub type Handler = Box<dyn FnMut(&mut Sim<Stack>, HostId, Bytes) -> Bytes>;

/// Completion callback of a call.
pub type CallCallback = Box<dyn FnOnce(&mut Sim<Stack>, Result<Bytes, RkomError>)>;

struct Call {
    peer: HostId,
    service: u16,
    payload: Bytes,
    attempts: u32,
    timer: Option<TimerHandle>,
    started: SimTime,
    cb: CallCallback,
}

/// RKOM statistics (per host). Calls issued and completed are the
/// registry's `rkom.call` / `rkom.completed`.
#[derive(Debug, Default)]
pub struct RkomStats {
    /// Calls failed.
    pub failed: Counter,
    /// Request retransmissions (on the high-delay RMS).
    pub retransmissions: Counter,
    /// Duplicate requests served from the reply cache.
    pub duplicates_served: Counter,
    /// Requests handled by services.
    pub served: Counter,
    /// Round-trip latencies of completed calls, seconds.
    pub latency: Histogram,
}

/// Per-host RKOM state.
#[derive(Default)]
pub struct RkomHost {
    channels: DetHashMap<HostId, Channel>,
    services: DetHashMap<u16, Option<Handler>>,
    calls: DetHashMap<u64, Call>,
    reply_cache: DetHashMap<(HostId, u64), WireMsg>,
    /// Statistics.
    pub stats: RkomStats,
}

impl RkomHost {
    /// True when `service` is registered on this host.
    pub fn has_service(&self, service: u16) -> bool {
        self.services.contains_key(&service)
    }

    /// Outstanding calls to `peer`, oldest first.
    fn calls_to(&self, peer: HostId) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .calls
            .iter()
            .filter(|(_, c)| c.peer == peer)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

impl std::fmt::Debug for RkomHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RkomHost")
            .field("channels", &self.channels.len())
            .field("calls", &self.calls.len())
            .finish()
    }
}

/// The RKOM module's state.
#[derive(Debug)]
pub struct RkomState {
    hosts: Vec<RkomHost>,
    next_call: u64,
}

impl RkomState {
    /// State for `n` hosts.
    pub fn new(n: usize) -> Self {
        RkomState {
            hosts: (0..n).map(|_| RkomHost::default()).collect(),
            next_call: 1,
        }
    }

    /// Rebase call-id allocation to start at `base` (disjoint per
    /// logical process under the parallel executor; see
    /// [`crate::stack::Stack::enable_lp_mode`]).
    pub fn set_id_namespace(&mut self, base: u64) {
        self.next_call = base;
    }

    /// Access a host's RKOM state.
    pub fn host(&self, id: HostId) -> &RkomHost {
        &self.hosts[id.0 as usize]
    }

    /// Mutable access to a host's RKOM state.
    pub fn host_mut(&mut self, id: HostId) -> &mut RkomHost {
        &mut self.hosts[id.0 as usize]
    }
}

/// Register a service handler at `host` under `service`.
pub fn register_service(
    stack: &mut Stack,
    host: HostId,
    service: u16,
    handler: impl FnMut(&mut Sim<Stack>, HostId, Bytes) -> Bytes + 'static,
) {
    stack
        .rkom
        .host_mut(host)
        .services
        .insert(service, Some(Box::new(handler)));
}

/// Issue a request/reply call from `host` to `service` at `peer`. The
/// completion callback receives the reply payload or an [`RkomError`].
pub fn call(
    sim: &mut Sim<Stack>,
    host: HostId,
    peer: HostId,
    service: u16,
    payload: Bytes,
    cb: impl FnOnce(&mut Sim<Stack>, Result<Bytes, RkomError>) + 'static,
) -> u64 {
    let call_id = {
        let r = &mut sim.state.rkom;
        let id = r.next_call;
        r.next_call += 1;
        id
    };
    let now = sim.now();
    sim.state.rkom.host_mut(host).calls.insert(
        call_id,
        Call {
            peer,
            service,
            payload: payload.clone(),
            attempts: 0,
            timer: None,
            started: now,
            cb: Box::new(cb),
        },
    );
    emit(
        sim,
        ObsEvent::RkomSend {
            host: host.0,
            peer: peer.0,
            call: call_id,
        },
    );
    let msg = encode_msg(&RkomMsg::Request {
        call: call_id,
        service,
        payload,
    });
    send_on_channel(sim, host, peer, Lane::Low, msg);
    arm_call_timer(sim, host, call_id);
    call_id
}

/// How long a call waits before its next attempt.
///
/// The retry clock of a request is meaningful only once the request is on
/// the wire: on a ready channel the period is [`RETRY_TIMEOUT`] or,
/// when the path is slower than that, twice what the *negotiated*
/// low-delay RMS promises for a message of this size — a round trip the
/// provider itself admits to is not evidence of loss. While the channel is
/// still being created the request sits in `Channel::waiting`; the timer
/// then only meters the creation against the attempt budget.
fn retry_period(sim: &Sim<Stack>, host: HostId, call: &Call) -> SimDuration {
    let low = (sim.state.rkom.host(host))
        .channels
        .get(&call.peer)
        .filter(|ch| ch.ready())
        .and_then(|ch| ch.low_out)
        .and_then(|st_rms| sim.state.st_ref().host(host).streams.get(&st_rms));
    match low {
        Some(stream) => {
            let size = RKOM_HEADER + call.payload.len() as u64;
            RETRY_TIMEOUT.max(stream.params.delay.bound_for(size).saturating_mul(2))
        }
        None => RETRY_TIMEOUT,
    }
}

fn arm_call_timer(sim: &mut Sim<Stack>, host: HostId, call_id: u64) {
    let Some(period) = sim
        .state
        .rkom
        .host(host)
        .calls
        .get(&call_id)
        .map(|c| retry_period(sim, host, c))
    else {
        return;
    };
    let handle = sim.call_timer(period, on_call_timeout, (host.0, call_id));
    let c = sim
        .state
        .rkom
        .host_mut(host)
        .calls
        .get_mut(&call_id)
        .expect("looked up above");
    if let Some(t) = c.timer.replace(handle) {
        t.cancel();
    }
}

fn on_call_timeout(sim: &mut Sim<Stack>, (host, call_id): Args) {
    let host = HostId(host);
    let rh = sim.state.rkom.host_mut(host);
    let Some(c) = rh.calls.get_mut(&call_id) else {
        return;
    };
    c.attempts += 1;
    if c.attempts > MAX_RETRIES {
        fail_call(sim, host, call_id, RkomError::Timeout);
        return;
    }
    let peer = c.peer;
    // A request still queued behind channel creation was never sent: the
    // expiry spent an attempt of the budget, but there is nothing to
    // retransmit and no second copy to queue.
    let resend = rh.channels.get(&peer).is_some_and(Channel::ready).then(|| {
        rh.stats.retransmissions.incr();
        encode_msg(&RkomMsg::Request {
            call: call_id,
            service: c.service,
            payload: c.payload.clone(),
        })
    });
    if let Some(msg) = resend {
        emit(
            sim,
            ObsEvent::RkomRetransmit {
                host: host.0,
                call: call_id,
            },
        );
        // Retransmissions travel on the high-delay RMS (§3.3).
        send_on_channel(sim, host, peer, Lane::High, msg);
    }
    arm_call_timer(sim, host, call_id);
}

fn fail_call(sim: &mut Sim<Stack>, host: HostId, call_id: u64, err: RkomError) {
    let call = {
        let rh = sim.state.rkom.host_mut(host);
        rh.stats.failed.incr();
        rh.calls.remove(&call_id)
    };
    if let Some(c) = call {
        if let Some(t) = c.timer {
            t.cancel();
        }
        (c.cb)(sim, Err(err));
    }
}

// ---------------------------------------------------------------------------
// Channel maintenance
// ---------------------------------------------------------------------------

/// Bytes of RKOM header on a request/reply (magic + kind + call + service +
/// length).
const RKOM_HEADER: u64 = 16;

fn channel_request(fixed: SimDuration) -> RmsRequest {
    let mms = MAX_MESSAGE + RKOM_HEADER;
    let desired = RmsParams {
        reliability: rms_core::Reliability::Unreliable,
        security: rms_core::SecurityParams::NONE,
        capacity: CHANNEL_CAPACITY.max(mms),
        max_message_size: mms,
        delay: DelayBound::best_effort_with(fixed, SimDuration::from_micros(10)),
        error_rate: rms_core::BitErrorRate::new(1e-4).expect("valid"),
    };
    let mut acceptable = desired.clone();
    acceptable.capacity = mms;
    // The desired delay is aspirational ("low delay"); accept whatever the
    // path can actually do, up to the high-delay budget (§2.4: the provider
    // matches the desired parameters as closely as possible).
    acceptable.delay =
        DelayBound::best_effort_with(HIGH_DELAY.max(fixed), SimDuration::from_micros(20));
    RmsRequest::new(desired, acceptable).expect("desired covers floor")
}

fn send_on_channel(sim: &mut Sim<Stack>, host: HostId, peer: HostId, lane: Lane, bytes: WireMsg) {
    ensure_channel(sim, host, peer);
    let target = {
        let ch = sim
            .state
            .rkom
            .host_mut(host)
            .channels
            .entry(peer)
            .or_default();
        if ch.ready() {
            match lane {
                Lane::Low => ch.low_out,
                Lane::High => ch.high_out,
            }
        } else {
            ch.waiting.push((lane, bytes));
            return;
        }
    };
    if let Some(st_rms) = target {
        let _ = st_engine::send(sim, host, st_rms, Message::from_wire(bytes));
    }
}

fn ensure_channel(sim: &mut Sim<Stack>, host: HostId, peer: HostId) {
    let need = {
        let ch = sim
            .state
            .rkom
            .host_mut(host)
            .channels
            .entry(peer)
            .or_default();
        !ch.ready() && !ch.creating
    };
    if !need {
        return;
    }
    sim.state
        .rkom
        .host_mut(host)
        .channels
        .get_mut(&peer)
        .expect("just inserted")
        .creating = true;
    for (lane, fixed) in [(Lane::Low, LOW_DELAY), (Lane::High, HIGH_DELAY)] {
        let request = channel_request(fixed);
        let header = Bytes::from_static(OPENING_HEADER);
        let client = lane.client(peer);
        if let Err(e) = st_engine::create(sim, host, peer, &request, false, client, header) {
            fail_channel(sim, host, peer, RkomError::ChannelFailed(e));
            return;
        }
    }
}

fn fail_channel(sim: &mut Sim<Stack>, host: HostId, peer: HostId, err: RkomError) {
    let rh = sim.state.rkom.host_mut(host);
    rh.channels.remove(&peer);
    for id in rh.calls_to(peer) {
        fail_call(sim, host, id, err.clone());
    }
}

// ---------------------------------------------------------------------------
// Routing hooks used by `Stack`
// ---------------------------------------------------------------------------

/// A channel lane from `peer` appeared at `host`: claim it and start this
/// host's half of the channel if it has none. Returns the lane's client if
/// `header` is RKOM's.
pub fn on_inbound(
    sim: &mut Sim<Stack>,
    host: HostId,
    peer: HostId,
    header: &Bytes,
) -> Option<Client> {
    if header.as_ref() != OPENING_HEADER {
        return None;
    }
    ensure_channel(sim, host, peer);
    Some(Lane::Low.client(peer))
}

/// Handle an ST lifecycle event on a lane bound to `client`.
///
/// A stale event is harmless: a lane fails the channel only while it is
/// still one of the channel's outgoing lanes.
pub fn on_st_event(sim: &mut Sim<Stack>, host: HostId, client: Client, event: StEvent) {
    let (peer, lane) = Lane::of(client);
    match event {
        StEvent::Created { st_rms, .. } => {
            let flush = {
                let ch = sim
                    .state
                    .rkom
                    .host_mut(host)
                    .channels
                    .entry(peer)
                    .or_default();
                match lane {
                    Lane::Low => ch.low_out = Some(st_rms),
                    Lane::High => ch.high_out = Some(st_rms),
                }
                if ch.ready() {
                    ch.creating = false;
                    std::mem::take(&mut ch.waiting)
                } else {
                    Vec::new()
                }
            };
            let became_ready = !flush.is_empty();
            for (lane, bytes) in flush {
                send_on_channel(sim, host, peer, lane, bytes);
            }
            if became_ready {
                // Every outstanding call to this peer was queued behind the
                // creation; its retry clock starts now that it is sent.
                for id in sim.state.rkom.host(host).calls_to(peer) {
                    arm_call_timer(sim, host, id);
                }
            }
        }
        StEvent::CreateFailed { reason } => {
            let err = RkomError::ChannelFailed(RmsError::CreationRejected(reason));
            fail_channel(sim, host, peer, err);
        }
        StEvent::Failed { st_rms, reason } => {
            // Typed channel failure (e.g. the network died with no
            // alternate), not a generic timeout.
            let ours = (sim.state.rkom.host(host).channels.get(&peer))
                .is_some_and(|ch| [ch.low_out, ch.high_out].contains(&Some(st_rms)));
            if ours {
                let err = RkomError::ChannelFailed(RmsError::Failed(reason));
                fail_channel(sim, host, peer, err);
            }
        }
        // The peer closed a lane of its half: ours, and the calls on it,
        // are untouched. RKOM asks for no fast acknowledgements.
        StEvent::Closed { .. } | StEvent::FastAck { .. } => {}
    }
}

/// Handle an ST delivery on a lane bound to `client`.
pub fn on_delivery(sim: &mut Sim<Stack>, host: HostId, client: Client, msg: Message) {
    let Some(decoded) = decode_msg(msg.wire()) else {
        return;
    };
    let (peer, _) = Lane::of(client);
    match decoded {
        RkomMsg::Request {
            call,
            service,
            payload,
        } => handle_request(sim, host, peer, call, service, payload),
        RkomMsg::Reply {
            call,
            status,
            payload,
        } => handle_reply(sim, host, peer, call, status, payload),
        RkomMsg::ReplyAck { call } => {
            sim.state
                .rkom
                .host_mut(host)
                .reply_cache
                .remove(&(peer, call));
        }
    }
}

fn handle_request(
    sim: &mut Sim<Stack>,
    host: HostId,
    client: HostId,
    call: u64,
    service: u16,
    payload: Bytes,
) {
    // Duplicate? Serve from the cache (at-most-once execution).
    if let Some(cached) = sim
        .state
        .rkom
        .host(host)
        .reply_cache
        .get(&(client, call))
        .cloned()
    {
        sim.state.rkom.host_mut(host).stats.duplicates_served.incr();
        // Cached replies are retransmissions: high-delay lane (§3.3).
        send_on_channel(sim, host, client, Lane::High, cached);
        return;
    }
    // Take the handler out while it runs (it may issue nested calls).
    let handler = sim
        .state
        .rkom
        .host_mut(host)
        .services
        .get_mut(&service)
        .and_then(|h| h.take());
    let (status, reply_payload) = match handler {
        Some(mut h) => {
            let out = h(sim, client, payload);
            // Put the handler back unless it was replaced meanwhile.
            if let Some(slot) = sim.state.rkom.host_mut(host).services.get_mut(&service) {
                if slot.is_none() {
                    *slot = Some(h);
                }
            }
            sim.state.rkom.host_mut(host).stats.served.incr();
            (STATUS_OK, out)
        }
        None => (STATUS_NO_SERVICE, Bytes::new()),
    };
    let reply = encode_msg(&RkomMsg::Reply {
        call,
        status,
        payload: reply_payload,
    });
    sim.state
        .rkom
        .host_mut(host)
        .reply_cache
        .insert((client, call), reply.clone());
    // Initial replies travel on the low-delay RMS (§3.3).
    send_on_channel(sim, host, client, Lane::Low, reply);
}

fn handle_reply(
    sim: &mut Sim<Stack>,
    host: HostId,
    server: HostId,
    call: u64,
    status: u8,
    payload: Bytes,
) {
    let Some(c) = sim.state.rkom.host_mut(host).calls.remove(&call) else {
        // Duplicate reply; ack it again so the server can clean up.
        let ack = encode_msg(&RkomMsg::ReplyAck { call });
        send_on_channel(sim, host, server, Lane::High, ack);
        return;
    };
    if let Some(t) = c.timer {
        t.cancel();
    }
    let rtt = sim.now().saturating_since(c.started);
    sim.state
        .rkom
        .host_mut(host)
        .stats
        .latency
        .record(rtt.as_secs_f64());
    emit(sim, ObsEvent::RkomDeliver { host: host.0, call });
    // Acknowledge on the high-delay RMS so the server drops its cache.
    let ack = encode_msg(&RkomMsg::ReplyAck { call });
    send_on_channel(sim, host, server, Lane::High, ack);
    let result = if status == STATUS_OK {
        Ok(payload)
    } else {
        Err(RkomError::NoSuchService)
    };
    (c.cb)(sim, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn wire_round_trips() {
        let msgs = [
            RkomMsg::Request {
                call: 7,
                service: 3,
                payload: Bytes::from_static(b"ping"),
            },
            RkomMsg::Reply {
                call: 7,
                status: 0,
                payload: Bytes::from_static(b"pong"),
            },
            RkomMsg::ReplyAck { call: 7 },
        ];
        for m in msgs {
            assert_eq!(decode_msg(&encode_msg(&m)), Some(m));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            decode_msg(&WireMsg::from_bytes(Bytes::from_static(b""))),
            None
        );
        assert_eq!(
            decode_msg(&WireMsg::from_bytes(Bytes::from_static(b"\x00\x01"))),
            None
        );
        assert_eq!(
            decode_msg(&WireMsg::from_bytes(Bytes::from_static(&[MAGIC_RKOM, 99]))),
            None
        );
        // Truncated payload length.
        let mut b = BytesMut::new();
        b.put_u8(MAGIC_RKOM);
        b.put_u8(KIND_REQUEST);
        b.put_u64(1);
        b.put_u16(1);
        b.put_u32(100); // claims 100 bytes, none follow
        assert_eq!(decode_msg(&WireMsg::from_bytes(b.freeze())), None);
    }
}
