//! The subtransport engine: control channel, ST RMS creation, multiplexed
//! sends with piggybacking and fragmentation, delivery, fast acks, and
//! network-RMS caching (paper §3.2, §4.2, §4.3).
//!
//! All functions are generic over `W:`[`StWorld`]. The world's
//! [`dash_net::state::NetWorld`] implementation must forward network
//! deliveries and events here via [`on_net_deliver`] / [`on_net_event`].
//! Every action scheduled here is an unboxed call (function plus ids); a
//! message waiting for its CPU job waits in [`crate::st::StState`]'s job
//! slabs, and the job's continuation names the slot.

use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::pipeline as net;
use dash_net::state::{emit, NetRmsEvent};
use dash_sim::engine::{Args, Call, Sim};
use dash_sim::obs::{DropCause, FlushReason, ObsEvent};
use dash_sim::time::{SimDuration, SimTime};
use rms_core::compat::{negotiate, RmsRequest, ServiceTable};
use rms_core::delay::DelayBoundKind;
use rms_core::error::{FailReason, RejectReason, RmsError};
use rms_core::message::Message;
use rms_core::params::{RmsParams, SharedParams};
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;

use dash_security::mac;

use crate::frag::{fragment, FragSpec, Reassembly};
use crate::ids::{StRmsId, StToken};
use crate::piggyback::{PendingEntry, PiggybackQueue, PushOutcome};
use crate::st::{
    control_params, DataOut, NetPurpose, NetUse, PeerState, StEvent, StPending, StRole, StStream,
    StWorld, AUTH_TIMEOUT, DATA_CAPACITY_DEFAULT, ST_MAX_MESSAGE_SIZE,
};
use crate::wire::{decode, encode, ControlMsg, DataFrame, Frame};

const NAK_REASON_LIMITS: u8 = 1;

// ---------------------------------------------------------------------------
// Negotiation
// ---------------------------------------------------------------------------

/// Total delay the ST stage adds on top of the network stage: piggyback
/// queueing slack plus send+receive ST processing (§4.1: the upper-level
/// delay is divided among the stages).
fn stage_slack<W: StWorld>(state: &W) -> (SimDuration, SimDuration) {
    let cfg = &state.st_ref().config;
    let fixed = cfg
        .piggyback_slack
        .saturating_add(cfg.st_cpu.fixed.saturating_mul(2));
    let per_byte = cfg.st_cpu.per_byte.saturating_mul(2);
    (fixed, per_byte)
}

/// Negotiate ST-level parameters for a stream from `host` to `peer`: the
/// network path's combined service table, shifted by the ST stage's own
/// delay contribution, with the maximum message size raised to the ST's
/// fragmentation-backed offer (§4.3).
///
/// # Errors
///
/// [`RmsError`] if there is no route or no combination satisfies the
/// request.
pub fn st_negotiate<W: StWorld>(
    sim: &Sim<W>,
    host: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<RmsParams, RmsError> {
    let path = sim
        .state
        .net_ref()
        .path(host, peer)
        .ok_or(RmsError::CreationRejected(RejectReason::NoRoute))?;
    let net_table = net::combined_service_table(&sim.state, &path);
    let (slack_fixed, slack_per_byte) = stage_slack(&sim.state);
    let mut shifted = ServiceTable::new();
    for (rel, sec, limits) in net_table.iter() {
        let mut l = *limits;
        l.min_fixed_delay = l.min_fixed_delay.saturating_add(slack_fixed);
        l.min_per_byte_delay = l.min_per_byte_delay.saturating_add(slack_per_byte);
        l.max_message_size = l
            .max_message_size
            .max(ST_MAX_MESSAGE_SIZE)
            .min(l.max_capacity);
        shifted.support(*rel, *sec, l);
    }
    Ok(negotiate(&shifted, request)?)
}

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

/// Create an ST RMS from `host` (sender) to `peer` (receiver).
///
/// Triggers control-channel establishment and authentication on first
/// contact (§3.2). Completion is reported as [`StEvent::Created`] /
/// [`StEvent::CreateFailed`] with the returned token.
///
/// # Errors
///
/// Fails synchronously when there is no route, negotiation cannot succeed,
/// or no pair key is provisioned for the control-channel authentication.
pub fn create<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    request: &RmsRequest,
    fast_ack: bool,
) -> Result<StToken, RmsError> {
    let params = st_negotiate(sim, host, peer, request)?;
    let st = sim.state.st();
    if st.pair_key(host, peer).is_none() {
        return Err(RmsError::CreationRejected(
            RejectReason::AuthenticationFailed,
        ));
    }
    let token = st.alloc_token();
    st.host_mut(host).pending.insert(
        token,
        StPending {
            peer,
            params: params.clone().shared(),
            fast_ack,
        },
    );
    emit(
        sim,
        ObsEvent::CreateRequested {
            host: host.0,
            peer: peer.0,
        },
    );
    send_ctrl(
        sim,
        host,
        peer,
        ControlMsg::StCreateReq {
            token,
            params,
            fast_ack,
        },
    );
    Ok(token)
}

/// Close an ST RMS from its sender side. The underlying data network RMS
/// stays cached for reuse (§4.2).
///
/// # Errors
///
/// [`RmsError::UnknownStream`] if the stream does not exist here, or
/// [`RmsError::WrongDirection`] if this host is the receiver.
pub fn close<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) -> Result<(), RmsError> {
    let (peer, slot) = {
        let sth = sim.state.st().host_mut(host);
        let stream = sth.streams.get(&st_rms).ok_or(RmsError::UnknownStream)?;
        if stream.role != StRole::Sender {
            return Err(RmsError::WrongDirection);
        }
        (stream.peer, stream.slot)
    };
    // Flush any queued frames of this stream before it disappears.
    if let Some(slot) = slot {
        flush_slot(sim, host, peer, slot, FlushReason::Close);
    }
    {
        let sth = sim.state.st().host_mut(host);
        sth.streams.remove(&st_rms);
        if let (Some(slot), Some(p)) = (slot, sth.peers.get_mut(&peer)) {
            if let Some(d) = p.data.get_mut(&slot) {
                d.assigned.retain(|s| *s != st_rms);
            }
        }
    }
    recompute_slot_capacity(sim, host, peer, slot);
    send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
    evict_idle_cache(sim, host, peer);
    Ok(())
}

fn recompute_slot_capacity<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    slot: Option<u32>,
) {
    let Some(slot) = slot else { return };
    let st = sim.state.st();
    let assigned: Vec<StRmsId> = match st
        .host(host)
        .peers
        .get(&peer)
        .and_then(|p| p.data.get(&slot))
    {
        Some(d) => d.assigned.clone(),
        None => return,
    };
    let total: u64 = assigned
        .iter()
        .filter_map(|s| st.host(host).streams.get(s))
        .map(|s| s.params.capacity)
        .sum();
    if let Some(d) = st
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
    {
        d.assigned_capacity = total;
    }
}

// ---------------------------------------------------------------------------
// Control channel (§3.2)
// ---------------------------------------------------------------------------

fn peer_state<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) -> &mut PeerState {
    sim.state.st().host_mut(host).peers.entry(peer).or_default()
}

fn ensure_control<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    let need_create = {
        let p = peer_state(sim, host, peer);
        p.control_out.is_none() && !p.control_creating
    };
    if !need_create {
        return;
    }
    peer_state(sim, host, peer).control_creating = true;
    match net::create_rms(sim, host, peer, &RmsRequest::exact(control_params())) {
        Ok(token) => {
            sim.state
                .st()
                .host_mut(host)
                .net_pending
                .insert(token, NetPurpose::ControlOut(peer));
        }
        Err(e) => {
            peer_state(sim, host, peer).control_creating = false;
            fail_queued_creates(sim, host, peer, reject_of(&e));
        }
    }
}

fn reject_of(e: &RmsError) -> RejectReason {
    match e {
        RmsError::CreationRejected(r) => r.clone(),
        _ => RejectReason::PeerRejected,
    }
}

/// Queue (or emit) a control message toward `peer`, establishing and
/// authenticating the control channel first if needed.
fn send_ctrl<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, msg: ControlMsg) {
    ensure_control(sim, host, peer);
    let ready = {
        let p = peer_state(sim, host, peer);
        p.control_out.is_some() && p.authed
    };
    if ready {
        emit_ctrl(sim, host, peer, msg);
    } else {
        peer_state(sim, host, peer).queued_ctrl.push(msg);
        arm_auth_timer(sim, host, peer);
    }
}

fn arm_auth_timer<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    let already = peer_state(sim, host, peer).auth_timer.is_some();
    if already {
        return;
    }
    let handle = sim.call_timer(AUTH_TIMEOUT, auth_timeout::<W>, (host.0, u64::from(peer.0)));
    peer_state(sim, host, peer).auth_timer = Some(handle);
}

/// The authentication timer of `(host, peer)` fired.
fn auth_timeout<W: StWorld>(sim: &mut Sim<W>, (host, peer): Args) {
    let (host, peer) = (HostId(host), HostId(peer as u32));
    let authed = peer_state(sim, host, peer).authed;
    peer_state(sim, host, peer).auth_timer = None;
    if !authed {
        fail_queued_creates(sim, host, peer, RejectReason::AuthenticationFailed);
    }
}

fn fail_queued_creates<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    reason: RejectReason,
) {
    let queued = std::mem::take(&mut peer_state(sim, host, peer).queued_ctrl);
    for msg in queued {
        if let ControlMsg::StCreateReq { token, .. } = msg {
            sim.state.st().host_mut(host).pending.remove(&token);
            W::st_event(
                sim,
                host,
                StEvent::CreateFailed {
                    token,
                    reason: reason.clone(),
                },
            );
        }
    }
}

/// Actually put a control message on the wire (control channel must exist).
fn emit_ctrl<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, msg: ControlMsg) {
    let Some(rms) = peer_state(sim, host, peer).control_out else {
        // Channel vanished; requeue.
        peer_state(sim, host, peer).queued_ctrl.push(msg);
        return;
    };
    let payload = encode(&Frame::Ctrl(msg));
    let now = sim.now();
    let _ = net::send_on_rms(sim, host, rms, Message::from_wire(payload), Some(now), None);
}

/// Emit a pre-authentication frame (Hello/HelloAck) if the channel exists,
/// else hold it.
fn emit_pre_auth<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, msg: ControlMsg) {
    if peer_state(sim, host, peer).control_out.is_some() {
        emit_ctrl(sim, host, peer, msg);
    } else {
        peer_state(sim, host, peer).pre_auth.push(msg);
        ensure_control(sim, host, peer);
    }
}

fn send_hello<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    let key = sim.state.st_ref().pair_key(host, peer);
    let nonce = sim.state.st().alloc_nonce();
    peer_state(sim, host, peer).my_nonce = nonce;
    let tag = key.map(|k| mac::sign(k, nonce, b"hello").0).unwrap_or(0);
    emit(
        sim,
        ObsEvent::HelloSent {
            host: host.0,
            peer: peer.0,
        },
    );
    emit_ctrl(
        sim,
        host,
        peer,
        ControlMsg::Hello {
            host: host.0,
            nonce,
            tag,
        },
    );
}

// ---------------------------------------------------------------------------
// Sending (§4.2, §4.3)
// ---------------------------------------------------------------------------

/// Send a message on an ST RMS. Per §2.2 the ST (as provider) enforces the
/// maximum message size; capacity is the *client's* responsibility (§4.4).
///
/// Returns the message's per-stream sequence number — the value the ST's
/// fast acknowledgement service (§3.2) will echo back to the sender, so
/// transports can clock windows off it.
///
/// # Errors
///
/// [`RmsError`] if the stream is unknown, not ready, failed, not a sender
/// endpoint, or the message is too large.
pub fn send<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    st_rms: StRmsId,
    mut msg: Message,
) -> Result<u64, RmsError> {
    let now = sim.now();
    let (peer, slot, st_params, fast_ack, seq) = {
        let sth = sim.state.st().host_mut(host);
        let stream = sth
            .streams
            .get_mut(&st_rms)
            .ok_or(RmsError::UnknownStream)?;
        if stream.role != StRole::Sender {
            return Err(RmsError::WrongDirection);
        }
        if stream.failed {
            return Err(RmsError::Failed(FailReason::NetworkDown));
        }
        let slot = stream.slot.ok_or(RmsError::UnknownStream)?;
        if msg.len() as u64 > stream.params.max_message_size {
            return Err(RmsError::MessageTooLarge {
                size: msg.len() as u64,
                limit: stream.params.max_message_size,
            });
        }
        let seq = stream.alloc_seq();
        (
            stream.peer,
            slot,
            stream.params.clone(),
            stream.fast_ack,
            seq,
        )
    };
    let len = msg.len() as u64;
    // Open (or adopt) the message's lifecycle span. `now` here equals the
    // frame's `sent_at`, so the StSend→StDeliver span interval matches
    // `DeliveryInfo::delay` exactly.
    if msg.span.is_none() {
        msg.span = sim.state.net().obs.start_span();
    }
    emit(
        sim,
        ObsEvent::StSend {
            host: host.0,
            st_rms: st_rms.0,
            seq,
            bytes: len,
            span: msg.span,
        },
    );
    let cost = sim.state.st_ref().config.st_cpu.cost_for(len);
    let cpu_deadline = {
        let d = now.saturating_add(st_params.delay.bound_for(len));
        let sth = sim.state.st().host_mut(host);
        match sth.streams.get_mut(&st_rms) {
            Some(s) => {
                let d = d.max(s.last_send_job_deadline);
                s.last_send_job_deadline = d;
                d
            }
            None => d,
        }
    };
    let job = sim.state.st().send_jobs.insert(SendJob {
        peer,
        slot,
        st_rms,
        st_params,
        fast_ack,
        seq,
        msg,
        sent_at: now,
    });
    W::charge_cpu(
        sim,
        host,
        cost,
        cpu_deadline,
        st_rms.0,
        Call::new(dispatch_send::<W>, (host.0, u64::from(job))),
    );
    Ok(seq)
}

/// Everything `send` resolves before the CPU charge that the deferred
/// dispatch needs again once the protocol processor gets to it.
#[derive(Debug)]
pub(crate) struct SendJob {
    peer: HostId,
    slot: u32,
    st_rms: StRmsId,
    st_params: SharedParams,
    fast_ack: bool,
    seq: u64,
    msg: Message,
    sent_at: SimTime,
}

/// A send's CPU job finished: dispatch the message parked at `job`.
fn dispatch_send<W: StWorld>(sim: &mut Sim<W>, (host, job): Args) {
    let host = HostId(host);
    let SendJob {
        peer,
        slot,
        st_rms,
        st_params,
        fast_ack,
        seq,
        msg,
        sent_at,
    } = sim.state.st().send_jobs.take(job as u32);
    let now = sim.now();
    // The slot (and its network parameters) may have vanished meanwhile.
    let (net_params, net_rms) = {
        let st = sim.state.st();
        match st
            .host(host)
            .peers
            .get(&peer)
            .and_then(|p| p.data.get(&slot))
        {
            Some(d) => match d.net_rms {
                Some(r) => (d.params.clone(), r),
                None => return,
            },
            None => return,
        }
    };
    let len = msg.len() as u64;
    let source = msg.source;
    let target = msg.target;
    let span = msg.span;
    let payload_wire = msg.into_wire();
    let net_mms = net_params.max_message_size;

    // Encode the unfragmented frame up front (payload segments are shared,
    // not copied); its wire length — the single size authority — decides
    // between the whole-message and fragmentation paths.
    let wire = encode(&Frame::Data(DataFrame {
        st_rms,
        seq,
        frag: None,
        sent_at,
        fast_ack,
        source,
        target,
        span,
        payload: payload_wire.clone(),
    }));
    let frame_len = wire.len() as u64;

    if frame_len > net_mms {
        // Fragmentation path (§4.3): never piggybacked; flush the queue
        // first so per-stream ordering survives.
        flush_slot(sim, host, peer, slot, FlushReason::Fragment);
        // Per-fragment header: the whole-message header plus the 8 bytes
        // the frag flag adds (index + count).
        let header = (frame_len - len) + 8;
        let chunk = (net_mms.saturating_sub(header)).max(1) as usize;
        let frames = fragment(
            &FragSpec {
                st_rms,
                seq,
                sent_at,
                fast_ack,
                source,
                target,
                span,
            },
            &payload_wire,
            chunk,
        );
        let max_deadline = tx_max_deadline(now, &st_params, &net_params, len);
        let deadline = clamp_stream_deadline(sim, host, st_rms, max_deadline);
        emit(
            sim,
            ObsEvent::Fragment {
                host: host.0,
                st_rms: st_rms.0,
                seq,
                count: frames.len() as u32,
                span,
            },
        );
        for f in frames {
            let payload = encode(&Frame::Data(f));
            send_net(sim, host, net_rms, payload, deadline, sent_at, span);
        }
        touch_slot(sim, host, peer, slot, now);
        return;
    }

    let max_deadline = tx_max_deadline(now, &st_params, &net_params, len);
    let piggyback = sim.state.st_ref().config.piggyback;
    if !piggyback {
        let deadline = clamp_stream_deadline(sim, host, st_rms, max_deadline);
        send_net(sim, host, net_rms, wire, deadline, sent_at, span);
        touch_slot(sim, host, peer, slot, now);
        return;
    }

    // Piggyback path (§4.3.1).
    let min_deadline = sim
        .state
        .st_ref()
        .host(host)
        .streams
        .get(&st_rms)
        .map(|s| s.last_tx_deadline)
        .unwrap_or(SimTime::ZERO);
    let entry = PendingEntry {
        wire,
        st_rms,
        sent_at,
        span,
        min_deadline,
        max_deadline,
    };
    push_with_flush(sim, host, peer, slot, entry, net_mms);
    let pending = with_slot_queue(sim, host, peer, slot, |q| q.len()).unwrap_or(0);
    emit(
        sim,
        ObsEvent::PiggybackCoalesce {
            host: host.0,
            net_rms: net_rms.0,
            pending,
        },
    );
    touch_slot(sim, host, peer, slot, now);
}

/// §4.3.1: maximum transmission deadline = arrival + (ST bound − network
/// bound), clamped to "now" at minimum.
fn tx_max_deadline(
    now: SimTime,
    st_params: &RmsParams,
    net_params: &RmsParams,
    len: u64,
) -> SimTime {
    let st_bound = st_params.delay.bound_for(len);
    let net_bound = net_params.delay.bound_for(len);
    now.saturating_add(st_bound.saturating_sub(net_bound))
}

/// Enforce per-stream monotone deadlines (§4.3.1 minimum rule) and record
/// the actual deadline used.
fn clamp_stream_deadline<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    st_rms: StRmsId,
    deadline: SimTime,
) -> SimTime {
    let sth = sim.state.st().host_mut(host);
    if let Some(stream) = sth.streams.get_mut(&st_rms) {
        let d = deadline.max(stream.last_tx_deadline);
        stream.last_tx_deadline = d;
        d
    } else {
        deadline
    }
}

fn push_with_flush<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    slot: u32,
    entry: PendingEntry,
    net_mms: u64,
) {
    let now = sim.now();
    let mut outcome = with_slot_queue(sim, host, peer, slot, |q| {
        q.try_push(entry.clone(), net_mms)
    });
    // A refused push flushes the queue and retries once into the empty
    // queue, which always takes it.
    let refused = match outcome {
        Some(PushOutcome::WouldOverflow) => Some(FlushReason::Overflow),
        Some(PushOutcome::DeadlineConflict) => Some(FlushReason::Conflict),
        _ => None,
    };
    if let Some(reason) = refused {
        flush_slot(sim, host, peer, slot, reason);
        outcome = with_slot_queue(sim, host, peer, slot, |q| q.try_push(entry, net_mms));
        debug_assert!(
            matches!(outcome, Some(PushOutcome::Queued { .. })),
            "entry must fit an empty queue"
        );
    }
    if let Some(PushOutcome::Queued { flush_at }) = outcome {
        if flush_at <= now {
            flush_slot(sim, host, peer, slot, FlushReason::Timer);
        } else {
            arm_flush_timer(sim, host, peer, slot, flush_at);
        }
    }
}

fn with_slot_queue<W: StWorld, T>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    slot: u32,
    f: impl FnOnce(&mut PiggybackQueue) -> T,
) -> Option<T> {
    sim.state
        .st()
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
        .map(|d| f(&mut d.queue))
}

fn arm_flush_timer<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    slot: u32,
    flush_at: SimTime,
) {
    let now = sim.now();
    let rearm = {
        let st = sim.state.st();
        match st
            .host(host)
            .peers
            .get(&peer)
            .and_then(|p| p.data.get(&slot))
            .and_then(|d| d.flush_timer.as_ref())
        {
            Some((_, at)) => flush_at < *at,
            None => true,
        }
    };
    if !rearm {
        return;
    }
    // Cancel any existing timer.
    if let Some(d) = sim
        .state
        .st()
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
    {
        if let Some((t, _)) = d.flush_timer.take() {
            t.cancel();
        }
    }
    let delay = flush_at.saturating_since(now);
    let peer_slot = (u64::from(peer.0) << 32) | u64::from(slot);
    let handle = sim.call_timer(delay, flush_timeout::<W>, (host.0, peer_slot));
    if let Some(d) = sim
        .state
        .st()
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
    {
        d.flush_timer = Some((handle, flush_at));
    }
}

/// The flush timer of `(host, peer << 32 | slot)` fired.
fn flush_timeout<W: StWorld>(sim: &mut Sim<W>, (host, peer_slot): Args) {
    let (host, peer, slot) = (
        HostId(host),
        HostId((peer_slot >> 32) as u32),
        peer_slot as u32,
    );
    if let Some(d) = sim
        .state
        .st()
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
    {
        d.flush_timer = None;
    }
    flush_slot(sim, host, peer, slot, FlushReason::Timer);
}

fn flush_slot<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    slot: u32,
    reason: FlushReason,
) {
    let (bundle, net_rms) = {
        let st = sim.state.st();
        let Some(d) = st
            .host_mut(host)
            .peers
            .get_mut(&peer)
            .and_then(|p| p.data.get_mut(&slot))
        else {
            return;
        };
        if let Some((t, _)) = d.flush_timer.take() {
            t.cancel();
        }
        let Some(bundle) = d.queue.flush() else {
            return;
        };
        let Some(net_rms) = d.net_rms else { return };
        (bundle, net_rms)
    };
    let deadline = bundle.deadline;
    // The bundle's deadline becomes each component stream's actual
    // transmission deadline (ordering floor for their next messages).
    let streams: Vec<StRmsId> = bundle.entries.iter().map(|e| e.st_rms).collect();
    let earliest_sent = bundle
        .entries
        .iter()
        .map(|e| e.sent_at)
        .min()
        .unwrap_or_else(|| sim.now());
    // The network-layer leg of a bundle is attributed to the span of its
    // oldest frame; the other frames' spans skip the net stages and close
    // at delivery.
    let bundle_span = bundle
        .entries
        .iter()
        .min_by_key(|e| e.sent_at)
        .and_then(|e| e.span);
    {
        let sth = sim.state.st().host_mut(host);
        for s in streams {
            if let Some(stream) = sth.streams.get_mut(&s) {
                stream.last_tx_deadline = stream.last_tx_deadline.max(deadline);
            }
        }
    }
    emit(
        sim,
        ObsEvent::PiggybackFlush {
            host: host.0,
            net_rms: net_rms.0,
            frames: bundle.entries.len(),
            reason,
        },
    );
    let payload = bundle.encode();
    send_net(
        sim,
        host,
        net_rms,
        payload,
        deadline,
        earliest_sent,
        bundle_span,
    );
}

fn send_net<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    net_rms: NetRmsId,
    payload: WireMsg,
    deadline: SimTime,
    sent_at: SimTime,
    span: Option<u64>,
) {
    emit(
        sim,
        ObsEvent::StNetMsg {
            host: host.0,
            net_rms: net_rms.0,
            bytes: payload.len() as u64,
            span,
        },
    );
    let mut msg = Message::from_wire(payload);
    msg.span = span;
    let _ = net::send_on_rms(sim, host, net_rms, msg, Some(deadline), Some(sent_at));
}

fn touch_slot<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, slot: u32, now: SimTime) {
    if let Some(d) = sim
        .state
        .st()
        .host_mut(host)
        .peers
        .get_mut(&peer)
        .and_then(|p| p.data.get_mut(&slot))
    {
        d.last_used = now;
    }
}

// ---------------------------------------------------------------------------
// Multiplexing and caching (§4.2)
// ---------------------------------------------------------------------------

/// §4.2 multiplexing rules: can an ST RMS with `st` parameters ride on a
/// network RMS with `net` parameters that already carries
/// `assigned_capacity` of ST capacity?
pub fn can_multiplex(st: &RmsParams, net: &RmsParams, assigned_capacity: u64) -> bool {
    let kind_ok = match st.delay.kind {
        // "A deterministic ST RMS can be multiplexed only onto a
        // deterministic network RMS."
        DelayBoundKind::Deterministic => {
            matches!(net.delay.kind, DelayBoundKind::Deterministic)
        }
        // "A statistical ST RMS can be multiplexed only onto a
        // deterministic or statistical network RMS."
        DelayBoundKind::Statistical(_) => !matches!(net.delay.kind, DelayBoundKind::BestEffort),
        DelayBoundKind::BestEffort => true,
    };
    kind_ok
        // "The delay bound parameters of the ST RMS's must be at least
        // those of the network RMS."
        && net.delay.fixed <= st.delay.fixed
        && net.delay.per_byte <= st.delay.per_byte
        // Security/reliability/error-rate must be covered by the carrier.
        && net.security.includes(st.security)
        && net.reliability.includes(st.reliability)
        && net.error_rate <= st.error_rate
        // "The capacity of the network RMS must be at least the sum of the
        // capacities of the ST RMS's."
        && assigned_capacity + st.capacity <= net.capacity
}

/// Find or create a data network RMS for a new sender stream; returns true
/// if the stream is immediately ready (cache hit on a ready slot).
fn assign_slot<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) -> bool {
    let (peer, st_params) = {
        let stream = &sim.state.st_ref().host(host).streams[&st_rms];
        (stream.peer, stream.params.clone())
    };
    // Try existing slots (ready first, then creating).
    let candidate = {
        let st = sim.state.st_ref();
        let empty = Default::default();
        let p = st.host(host).peers.get(&peer).unwrap_or(&empty);
        let mut best: Option<(u32, bool)> = None;
        for (slot, d) in &p.data {
            if can_multiplex(&st_params, &d.params, d.assigned_capacity) {
                let ready = d.net_rms.is_some();
                match best {
                    Some((_, best_ready)) if best_ready || !ready => {}
                    _ => best = Some((*slot, ready)),
                }
            }
        }
        best
    };
    if let Some((slot, ready)) = candidate {
        emit(sim, ObsEvent::CacheHit { host: host.0 });
        let sth = sim.state.st().host_mut(host);
        if let Some(d) = sth.peers.get_mut(&peer).and_then(|p| p.data.get_mut(&slot)) {
            d.assigned.push(st_rms);
            d.assigned_capacity += st_params.capacity;
        }
        if let Some(s) = sth.streams.get_mut(&st_rms) {
            s.slot = Some(slot);
        }
        return ready;
    }

    // Create a new network RMS (§4.2: "it is slow and costly to create
    // network RMS's" — this is the miss path).
    emit(sim, ObsEvent::CacheMiss { host: host.0 });
    let (slack_fixed, slack_per_byte) = stage_slack(&sim.state);
    let mut net_desired = (*st_params).clone();
    // Capacity headroom invites future multiplexing (§4.2) — but for
    // deterministic streams headroom is a real bandwidth reservation, so
    // request exactly what the stream needs.
    net_desired.capacity = match st_params.delay.kind {
        DelayBoundKind::Deterministic => st_params.capacity,
        _ => st_params.capacity.max(DATA_CAPACITY_DEFAULT),
    };
    net_desired.max_message_size = net_desired.capacity.min(64 * 1024);
    net_desired.delay.fixed = st_params.delay.fixed.saturating_sub(slack_fixed);
    net_desired.delay.per_byte = st_params.delay.per_byte.saturating_sub(slack_per_byte);
    let mut net_floor = net_desired.clone();
    net_floor.capacity = st_params.capacity;
    net_floor.max_message_size = 256.min(net_floor.capacity);
    let request = RmsRequest {
        desired: net_desired,
        acceptable: net_floor,
    };
    match net::create_rms(sim, host, peer, &request) {
        Ok(token) => {
            let sth = sim.state.st().host_mut(host);
            let p = sth.peers.entry(peer).or_default();
            let slot = p.next_slot;
            p.next_slot += 1;
            p.data.insert(
                slot,
                DataOut {
                    net_rms: None,
                    token: Some(token),
                    // While creating, advertise the *desired* parameters for
                    // multiplex matching; Created{params} replaces them with
                    // the negotiated actuals and spills streams if the
                    // grant came back smaller.
                    params: request.desired.clone().shared(),
                    assigned: vec![st_rms],
                    assigned_capacity: st_params.capacity,
                    queue: PiggybackQueue::new(),
                    flush_timer: None,
                    last_used: SimTime::ZERO,
                },
            );
            sth.net_pending
                .insert(token, NetPurpose::DataOut(peer, slot));
            if let Some(s) = sth.streams.get_mut(&st_rms) {
                s.slot = Some(slot);
            }
            false
        }
        Err(e) => {
            // Report failure through the pending token; an established
            // stream (re-admitting after its carrier died) has none, so it
            // stays behind marked failed — later sends return a typed
            // [`RmsError::Failed`] — and the client hears a typed event.
            let token = sim
                .state
                .st()
                .host_mut(host)
                .streams
                .get_mut(&st_rms)
                .and_then(|s| s.pending_token.take());
            if let Some(token) = token {
                sim.state.st().host_mut(host).streams.remove(&st_rms);
                let reason = reject_of(&e);
                W::st_event(sim, host, StEvent::CreateFailed { token, reason });
            } else {
                if let Some(s) = sim.state.st().host_mut(host).streams.get_mut(&st_rms) {
                    s.failed = true;
                    s.failover_since = None;
                }
                W::st_event(
                    sim,
                    host,
                    StEvent::Failed {
                        st_rms,
                        reason: FailReason::NetworkDown,
                    },
                );
            }
            send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
            false
        }
    }
}

/// Evict least-recently-used idle cached network RMSs beyond the limit.
fn evict_idle_cache<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    let limit = sim.state.st_ref().config.cache_idle_limit;
    let mut idle: Vec<(u32, SimTime, NetRmsId)> = {
        let st = sim.state.st_ref();
        match st.host(host).peers.get(&peer) {
            Some(p) => p
                .data
                .iter()
                .filter(|(_, d)| d.assigned.is_empty() && d.net_rms.is_some() && d.queue.is_empty())
                .map(|(slot, d)| (*slot, d.last_used, d.net_rms.expect("checked")))
                .collect(),
            None => return,
        }
    };
    if idle.len() <= limit {
        return;
    }
    idle.sort_by_key(|(_, used, _)| *used);
    let excess = idle.len() - limit;
    for (slot, _, net_rms) in idle.into_iter().take(excess) {
        emit(sim, ObsEvent::CacheEvict { host: host.0 });
        {
            let sth = sim.state.st().host_mut(host);
            sth.by_net.remove(&net_rms);
            if let Some(p) = sth.peers.get_mut(&peer) {
                p.data.remove(&slot);
            }
        }
        let _ = net::close_rms(sim, host, net_rms);
    }
}

// ---------------------------------------------------------------------------
// Upcalls from the network layer
// ---------------------------------------------------------------------------

/// The world's `NetWorld::deliver_up` must forward here.
pub fn on_net_deliver<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    net_rms: NetRmsId,
    msg: Message,
    _info: DeliveryInfo,
) {
    let Ok(frame) = decode(msg.wire()) else {
        drop_frame(sim, host, DropCause::Malformed);
        return;
    };
    match frame {
        Frame::Ctrl(c) => handle_ctrl(sim, host, net_rms, c),
        Frame::Data(d) => handle_data(sim, host, net_rms, d),
        Frame::Bundle(frames) => {
            for d in frames {
                handle_data(sim, host, net_rms, d);
            }
        }
        Frame::FastAck { st_rms, seq } => {
            let known = sim
                .state
                .st_ref()
                .host(host)
                .streams
                .get(&st_rms)
                .map(|s| s.role == StRole::Sender)
                .unwrap_or(false);
            if known {
                W::st_event(sim, host, StEvent::FastAck { st_rms, seq });
            }
        }
    }
}

fn net_peer_of<W: StWorld>(sim: &Sim<W>, host: HostId, net_rms: NetRmsId) -> Option<HostId> {
    sim.state
        .net_ref()
        .host(host)
        .rms
        .get(&net_rms)
        .map(|r| r.peer)
}

fn handle_ctrl<W: StWorld>(sim: &mut Sim<W>, host: HostId, net_rms: NetRmsId, msg: ControlMsg) {
    let Some(peer) = net_peer_of(sim, host, net_rms) else {
        return;
    };
    // Lazily register this network RMS as the peer's control-in half.
    sim.state
        .st()
        .host_mut(host)
        .by_net
        .entry(net_rms)
        .or_insert(NetUse::ControlIn(peer));
    match msg {
        ControlMsg::Hello {
            host: claimed,
            nonce,
            tag,
        } => {
            let key = sim.state.st_ref().pair_key(host, peer);
            let ok = claimed == peer.0
                && key
                    .map(|k| mac::verify(k, nonce, b"hello", mac::Tag(tag)))
                    .unwrap_or(false);
            if !ok {
                drop_frame(sim, host, DropCause::AuthFailed);
                return;
            }
            peer_state(sim, host, peer).control_in = Some(net_rms);
            let ack_tag = key
                .map(|k| mac::sign(k, nonce.wrapping_add(1), b"hello-ack").0)
                .unwrap_or(0);
            emit_pre_auth(
                sim,
                host,
                peer,
                ControlMsg::HelloAck {
                    host: host.0,
                    nonce,
                    tag: ack_tag,
                },
            );
        }
        ControlMsg::HelloAck {
            host: claimed,
            nonce,
            tag,
        } => {
            let key = sim.state.st_ref().pair_key(host, peer);
            let my_nonce = peer_state(sim, host, peer).my_nonce;
            let ok = claimed == peer.0
                && nonce == my_nonce
                && key
                    .map(|k| mac::verify(k, nonce.wrapping_add(1), b"hello-ack", mac::Tag(tag)))
                    .unwrap_or(false);
            if !ok {
                drop_frame(sim, host, DropCause::AuthFailed);
                return;
            }
            let queued = {
                let p = peer_state(sim, host, peer);
                p.authed = true;
                if let Some(t) = p.auth_timer.take() {
                    t.cancel();
                }
                std::mem::take(&mut p.queued_ctrl)
            };
            for m in queued {
                emit_ctrl(sim, host, peer, m);
            }
        }
        ControlMsg::StCreateReq {
            token,
            params,
            fast_ack,
        } => {
            // Receiver-side accept policy: parameters were negotiated by
            // the sender against the real path; we only enforce our own
            // client-facing limits.
            if params.max_message_size > ST_MAX_MESSAGE_SIZE {
                send_ctrl(
                    sim,
                    host,
                    peer,
                    ControlMsg::StCreateNak {
                        token,
                        reason: NAK_REASON_LIMITS,
                    },
                );
                return;
            }
            let st_rms = sim.state.st().alloc_st_rms();
            let params = params.shared();
            let stream = new_stream(st_rms, peer, StRole::Receiver, params.clone(), fast_ack);
            sim.state.st().host_mut(host).streams.insert(st_rms, stream);
            send_ctrl(sim, host, peer, ControlMsg::StCreateAck { token, st_rms });
            W::st_event(
                sim,
                host,
                StEvent::InboundCreated {
                    st_rms,
                    peer,
                    params,
                    fast_ack,
                },
            );
        }
        ControlMsg::StCreateAck { token, st_rms } => {
            let Some(pending) = sim.state.st().host_mut(host).pending.remove(&token) else {
                return;
            };
            let mut stream = new_stream(
                st_rms,
                pending.peer,
                StRole::Sender,
                pending.params.clone(),
                pending.fast_ack,
            );
            stream.pending_token = Some(token);
            sim.state.st().host_mut(host).streams.insert(st_rms, stream);
            let ready = assign_slot(sim, host, st_rms);
            if ready {
                if let Some(s) = sim.state.st().host_mut(host).streams.get_mut(&st_rms) {
                    s.pending_token = None;
                }
                W::st_event(
                    sim,
                    host,
                    StEvent::Created {
                        token,
                        st_rms,
                        params: pending.params,
                    },
                );
            }
        }
        ControlMsg::StCreateNak { token, reason: _ } => {
            if sim
                .state
                .st()
                .host_mut(host)
                .pending
                .remove(&token)
                .is_some()
            {
                W::st_event(
                    sim,
                    host,
                    StEvent::CreateFailed {
                        token,
                        reason: RejectReason::PeerRejected,
                    },
                );
            }
        }
        ControlMsg::StClose { st_rms } => {
            let existed = sim.state.st().host_mut(host).streams.remove(&st_rms);
            if existed.is_some() {
                W::st_event(sim, host, StEvent::Closed { st_rms });
            }
        }
    }
}

fn new_stream(
    id: StRmsId,
    peer: HostId,
    role: StRole,
    params: SharedParams,
    fast_ack: bool,
) -> StStream {
    StStream {
        id,
        peer,
        role,
        params,
        fast_ack,
        slot: None,
        pending_token: None,
        next_seq: 0,
        last_tx_deadline: SimTime::ZERO,
        last_send_job_deadline: SimTime::ZERO,
        last_recv_job_deadline: SimTime::ZERO,
        reassembly: Reassembly::new(),
        in_net: None,
        failed: false,
        failover_since: None,
    }
}

fn handle_data<W: StWorld>(sim: &mut Sim<W>, host: HostId, net_rms: NetRmsId, d: DataFrame) {
    let Some(peer) = net_peer_of(sim, host, net_rms) else {
        return;
    };
    sim.state
        .st()
        .host_mut(host)
        .by_net
        .entry(net_rms)
        .or_insert(NetUse::DataIn(peer));
    let st_rms = d.st_rms;
    let exists = {
        let sth = sim.state.st().host_mut(host);
        match sth.streams.get_mut(&st_rms) {
            Some(s) if s.role == StRole::Receiver && !s.failed => {
                s.in_net = Some(net_rms);
                true
            }
            _ => false,
        }
    };
    if !exists {
        drop_frame(sim, host, DropCause::NoStream);
        return;
    }
    let len = d.payload.len() as u64;
    let cost = sim.state.st_ref().config.st_cpu.cost_for(len);
    // §4.1: stage deadline = current time + stage allocation (monotone per
    // stream; see the send path for why).
    let cpu_deadline = {
        let now = sim.now();
        let sth = sim.state.st().host_mut(host);
        match sth.streams.get_mut(&st_rms) {
            Some(s) => {
                let dl = now
                    .saturating_add(s.params.delay.bound_for(len))
                    .max(s.last_recv_job_deadline);
                s.last_recv_job_deadline = dl;
                dl
            }
            None => now.saturating_add(SimDuration::ZERO),
        }
    };
    let job = sim.state.st().recv_jobs.insert((peer, d));
    W::charge_cpu(
        sim,
        host,
        cost,
        cpu_deadline,
        st_rms.0,
        Call::new(deliver_data::<W>, (host.0, u64::from(job))),
    );
}

/// A receive's CPU job finished: deliver the frame parked at `job`.
fn deliver_data<W: StWorld>(sim: &mut Sim<W>, (host, job): Args) {
    let host = HostId(host);
    let (peer, d) = sim.state.st().recv_jobs.take(job as u32);
    let now = sim.now();
    let st_rms = d.st_rms;
    let was_frag = d.frag.is_some();
    // Reassemble if fragmented.
    let complete = {
        let sth = sim.state.st().host_mut(host);
        let Some(stream) = sth.streams.get_mut(&st_rms) else {
            return;
        };
        if was_frag {
            stream.reassembly.push(d).map(|r| {
                let mut m = Message::from_wire(r.payload);
                m.source = r.source;
                m.target = r.target;
                m.span = r.span;
                (m, r.seq, r.sent_at, r.fast_ack)
            })
        } else {
            let mut m = Message::from_wire(d.payload);
            m.source = d.source;
            m.target = d.target;
            m.span = d.span;
            Some((m, d.seq, d.sent_at, d.fast_ack))
        }
    };
    let Some((msg, seq, sent_at, fast_ack)) = complete else {
        return;
    };
    // Lateness, carried by the `StDeliver` event (and counted there).
    let (late, det) = {
        let sth = sim.state.st_ref().host(host);
        if let Some(stream) = sth.streams.get(&st_rms) {
            let late =
                now.saturating_since(sent_at) > stream.params.delay.bound_for(msg.len() as u64);
            let det = matches!(
                stream.params.delay.kind,
                rms_core::delay::DelayBoundKind::Deterministic
            );
            (late, det)
        } else {
            (false, false)
        }
    };
    // `now` here equals `DeliveryInfo::delivered_at`, closing the span
    // exactly at the delay clock's end.
    if was_frag {
        emit(
            sim,
            ObsEvent::Reassemble {
                host: host.0,
                st_rms: st_rms.0,
                seq,
                span: msg.span,
            },
        );
    }
    emit(
        sim,
        ObsEvent::StDeliver {
            host: host.0,
            st_rms: st_rms.0,
            seq,
            bytes: msg.len() as u64,
            late,
            det,
            span: msg.span,
        },
    );
    // Fast acknowledgement (§3.2): a small frame on the control channel.
    if fast_ack {
        let ctrl_out = peer_state(sim, host, peer).control_out;
        if let Some(rms) = ctrl_out {
            emit(
                sim,
                ObsEvent::FastAckSent {
                    host: host.0,
                    st_rms: st_rms.0,
                    seq,
                },
            );
            let payload = encode(&Frame::FastAck { st_rms, seq });
            let now = sim.now();
            let _ = net::send_on_rms(sim, host, rms, Message::from_wire(payload), Some(now), None);
        }
    }
    let info = DeliveryInfo {
        sent_at,
        delivered_at: now,
        stream: st_rms.0,
        seq,
    };
    W::st_deliver(sim, host, st_rms, msg, info);
}

/// The world's `NetWorld::rms_event` must forward here.
pub fn on_net_event<W: StWorld>(sim: &mut Sim<W>, host: HostId, event: &NetRmsEvent) {
    match event {
        NetRmsEvent::Created { token, rms, params } => {
            let purpose = sim.state.st().host_mut(host).net_pending.remove(token);
            match purpose {
                Some(NetPurpose::ControlOut(peer)) => {
                    sim.state
                        .st()
                        .host_mut(host)
                        .by_net
                        .insert(*rms, NetUse::ControlOut(peer));
                    emit(
                        sim,
                        ObsEvent::ControlCreated {
                            host: host.0,
                            peer: peer.0,
                        },
                    );
                    {
                        let p = peer_state(sim, host, peer);
                        p.control_out = Some(*rms);
                        p.control_creating = false;
                    }
                    // Authenticate (§3.2), then flush any pre-auth frames.
                    send_hello(sim, host, peer);
                    let pre = std::mem::take(&mut peer_state(sim, host, peer).pre_auth);
                    for m in pre {
                        emit_ctrl(sim, host, peer, m);
                    }
                }
                Some(NetPurpose::DataOut(peer, slot)) => {
                    // Adopt the actual parameters; if the grant is smaller
                    // than the multiplexed demand (§4.2 capacity rule),
                    // spill the newest streams to other slots.
                    let (ready_streams, spilled) = {
                        let sth = sim.state.st().host_mut(host);
                        sth.by_net.insert(*rms, NetUse::DataOut(peer, slot));
                        let mut assigned =
                            match sth.peers.get_mut(&peer).and_then(|p| p.data.get_mut(&slot)) {
                                Some(d) => {
                                    d.net_rms = Some(*rms);
                                    d.token = None;
                                    d.params = params.clone();
                                    d.assigned.clone()
                                }
                                None => Vec::new(),
                            };
                        let cap_of = |sth: &crate::st::StHost, sid: &StRmsId| {
                            sth.streams.get(sid).map(|s| s.params.capacity).unwrap_or(0)
                        };
                        let mut sum: u64 = assigned.iter().map(|sid| cap_of(sth, sid)).sum();
                        let mut spilled = Vec::new();
                        while sum > params.capacity && assigned.len() > 1 {
                            let victim = assigned.pop().expect("len > 1");
                            sum -= cap_of(sth, &victim);
                            spilled.push(victim);
                        }
                        if let Some(d) =
                            sth.peers.get_mut(&peer).and_then(|p| p.data.get_mut(&slot))
                        {
                            d.assigned = assigned.clone();
                            d.assigned_capacity = sum;
                        }
                        let mut out = Vec::new();
                        for sid in &assigned {
                            if let Some(s) = sth.streams.get_mut(sid) {
                                out.push((s.id, s.pending_token.take(), s.params.clone()));
                            }
                        }
                        (out, spilled)
                    };
                    for (st_rms, token, st_params) in ready_streams {
                        if let Some(token) = token {
                            W::st_event(
                                sim,
                                host,
                                StEvent::Created {
                                    token,
                                    st_rms,
                                    params: st_params,
                                },
                            );
                        }
                        complete_failover_if_pending(sim, host, st_rms);
                    }
                    for st_rms in spilled {
                        if let Some(s) = sim.state.st().host_mut(host).streams.get_mut(&st_rms) {
                            s.slot = None;
                        }
                        let ready = assign_slot(sim, host, st_rms);
                        if ready {
                            let (token, st_params) = {
                                let sth = sim.state.st().host_mut(host);
                                match sth.streams.get_mut(&st_rms) {
                                    Some(s) => (s.pending_token.take(), s.params.clone()),
                                    None => (
                                        None,
                                        RmsParams::builder(1, 1).build().expect("valid").shared(),
                                    ),
                                }
                            };
                            if let Some(token) = token {
                                W::st_event(
                                    sim,
                                    host,
                                    StEvent::Created {
                                        token,
                                        st_rms,
                                        params: st_params,
                                    },
                                );
                            }
                            complete_failover_if_pending(sim, host, st_rms);
                        }
                    }
                }
                None => {}
            }
        }
        NetRmsEvent::CreateFailed { token, reason } => {
            let purpose = sim.state.st().host_mut(host).net_pending.remove(token);
            match purpose {
                Some(NetPurpose::ControlOut(peer)) => {
                    peer_state(sim, host, peer).control_creating = false;
                    fail_queued_creates(sim, host, peer, reason.clone());
                }
                Some(NetPurpose::DataOut(peer, slot)) => {
                    let victims: Vec<(StRmsId, Option<StToken>)> = {
                        let sth = sim.state.st().host_mut(host);
                        let assigned = sth
                            .peers
                            .get_mut(&peer)
                            .and_then(|p| p.data.remove(&slot))
                            .map(|d| d.assigned)
                            .unwrap_or_default();
                        let mut out = Vec::new();
                        for sid in assigned {
                            if !sth.streams.contains_key(&sid) {
                                continue;
                            }
                            let tok = sth
                                .streams
                                .get_mut(&sid)
                                .and_then(|s| s.pending_token.take());
                            if tok.is_some() {
                                // Never-established create: forget it.
                                sth.streams.remove(&sid);
                            } else if let Some(s) = sth.streams.get_mut(&sid) {
                                // Established stream whose failover carrier
                                // could not be created: keep it marked
                                // failed so sends return a typed error.
                                s.failed = true;
                                s.failover_since = None;
                                s.slot = None;
                            }
                            out.push((sid, tok));
                        }
                        out
                    };
                    for (st_rms, tok) in victims {
                        send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
                        if let Some(tok) = tok {
                            W::st_event(
                                sim,
                                host,
                                StEvent::CreateFailed {
                                    token: tok,
                                    reason: reason.clone(),
                                },
                            );
                        } else {
                            W::st_event(
                                sim,
                                host,
                                StEvent::Failed {
                                    st_rms,
                                    reason: FailReason::NetworkDown,
                                },
                            );
                        }
                    }
                }
                None => {}
            }
        }
        NetRmsEvent::Failed { rms, reason } => {
            handle_net_failure(sim, host, *rms, *reason);
        }
        NetRmsEvent::Closed { rms } => {
            let use_ = sim.state.st().host_mut(host).by_net.remove(rms);
            if let Some(NetUse::ControlIn(peer)) = use_ {
                peer_state(sim, host, peer).control_in = None;
            }
        }
        // The ST does not use invites or raw inbound notifications.
        NetRmsEvent::InboundCreated { .. }
        | NetRmsEvent::SenderCreatedByInvite { .. }
        | NetRmsEvent::InviteFailed { .. } => {}
    }
}

fn handle_net_failure<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    _reason: FailReason,
) {
    let use_ = sim.state.st().host_mut(host).by_net.remove(&rms);
    match use_ {
        Some(NetUse::ControlOut(peer)) => {
            {
                let p = peer_state(sim, host, peer);
                p.control_out = None;
                p.authed = false;
            }
            fail_queued_creates(sim, host, peer, RejectReason::Timeout);
            // An alternate network may still connect the two hosts:
            // re-establish eagerly so later creates don't pay the setup.
            ensure_control(sim, host, peer);
        }
        Some(NetUse::ControlIn(peer)) => {
            peer_state(sim, host, peer).control_in = None;
        }
        Some(NetUse::DataOut(peer, slot)) => {
            // Failover (§4.2): the carrier died, but the ST streams on it
            // are still live contracts with their clients. Detach them and
            // re-run admission over whatever routes remain — a cached
            // network RMS on an alternate network, or a fresh creation
            // whose `dash_net::routing` candidate walk re-homes the path
            // across the surviving k-alternates (admission NAKs on one
            // alternate fall through to the next). Only when every
            // alternate is exhausted does the client see a typed failure
            // (via assign_slot / CreateFailed).
            let now = sim.now();
            let victims: Vec<StRmsId> = {
                let sth = sim.state.st().host_mut(host);
                let assigned = sth
                    .peers
                    .get_mut(&peer)
                    .and_then(|p| p.data.remove(&slot))
                    .map(|d| d.assigned)
                    .unwrap_or_default();
                let mut out = Vec::new();
                for sid in &assigned {
                    if let Some(s) = sth.streams.get_mut(sid) {
                        s.slot = None;
                        if s.failover_since.is_none() {
                            s.failover_since = Some(now);
                        }
                        out.push(s.id);
                    }
                }
                out
            };
            if !victims.is_empty() {
                emit(
                    sim,
                    ObsEvent::FailoverStarted {
                        host: host.0,
                        streams: victims.len() as u32,
                    },
                );
            }
            for st_rms in victims {
                if assign_slot(sim, host, st_rms) {
                    complete_failover_if_pending(sim, host, st_rms);
                }
            }
        }
        Some(NetUse::DataIn(_peer)) => {
            // Receiver side: the inbound carrier died, but the sender may
            // fail over to a replacement; the binding is re-learned from
            // the first frame on the new carrier (handle_data). Forget it.
            let sth = sim.state.st().host_mut(host);
            for s in sth.streams.values_mut() {
                if s.role == StRole::Receiver && s.in_net == Some(rms) {
                    s.in_net = None;
                }
            }
        }
        None => {}
    }
}

/// If `st_rms` was failing over, close the failover span: record the
/// recovery latency and emit [`ObsEvent::FailoverCompleted`].
fn complete_failover_if_pending<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) {
    let since = sim
        .state
        .st()
        .host_mut(host)
        .streams
        .get_mut(&st_rms)
        .and_then(|s| s.failover_since.take());
    let Some(since) = since else {
        return;
    };
    let latency_s = sim.now().saturating_since(since).as_secs_f64();
    emit(
        sim,
        ObsEvent::FailoverCompleted {
            host: host.0,
            st_rms: st_rms.0,
            latency_s,
        },
    );
}

/// Count an arriving frame the ST discards, with its cause.
fn drop_frame<W: StWorld>(sim: &mut Sim<W>, host: HostId, cause: DropCause) {
    emit(
        sim,
        ObsEvent::Drop {
            host: host.0,
            cause,
        },
    );
}

/// The world's `NetWorld::network_event` must forward here.
///
/// On recovery (`up = true`) every host re-establishes control channels the
/// failure tore down, so stream creation toward those peers works again
/// without waiting for client traffic. Failure (`up = false`) needs no
/// extra work: [`on_net_event`] already saw `Failed` for every RMS on the
/// dead network.
pub fn on_network_event<W: StWorld>(sim: &mut Sim<W>, network: NetworkId, up: bool) {
    let _ = network;
    if !up {
        return;
    }
    let work: Vec<(HostId, HostId)> = {
        let state = &sim.state;
        let st = state.st_ref();
        let mut out = Vec::new();
        for (h, sth) in st.hosts.iter().enumerate() {
            let host = HostId(h as u32);
            if !state.net_ref().host(host).up {
                continue;
            }
            let mut peers: Vec<HostId> = sth
                .peers
                .iter()
                .filter(|(peer, p)| {
                    p.control_out.is_none()
                        && !p.control_creating
                        && (!p.data.is_empty()
                            || !p.queued_ctrl.is_empty()
                            || sth.streams.values().any(|s| s.peer == **peer))
                })
                .map(|(peer, _)| *peer)
                .collect();
            // `peers` is a HashMap: sort for deterministic replay.
            peers.sort();
            for peer in peers {
                out.push((host, peer));
            }
        }
        out
    };
    for (host, peer) in work {
        ensure_control(sim, host, peer);
    }
}
