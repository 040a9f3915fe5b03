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

use bytes::Bytes;
use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::pipeline as net;
use dash_net::state::{emit, NetRmsEvent};
use dash_sim::engine::{Args, Call, Sim};
use dash_sim::obs::{DropCause, FlushReason, ObsEvent};
use dash_sim::time::{SimDuration, SimTime};
use rms_core::compat::{negotiate, RmsRequest};
use rms_core::delay::DelayBoundKind;
use rms_core::error::{FailReason, RejectReason, RmsError};
use rms_core::message::Message;
use rms_core::params::{RmsParams, SharedParams};
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;

use dash_security::mac;

use crate::frag::{fragment, FragSpec, Reassembly};
use crate::ids::{Client, StRmsId};
use crate::piggyback::{PendingEntry, PiggybackQueue, PushOutcome};
use crate::st::{
    control_params, Carrier, DataOut, PeerState, StEvent, StHost, StRole, StStream, StWorld,
    AUTH_TIMEOUT, DATA_CAPACITY_DEFAULT, ST_MAX_MESSAGE_SIZE,
};
use crate::wire::{decode_into, encode, ControlMsg, DataFrame, Frame, MAX_OPENING_HEADER};

// ---------------------------------------------------------------------------
// Negotiation
// ---------------------------------------------------------------------------

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
    let mut table = net::combined_service_table(sim.state.net_ref(), &path);
    let (slack_fixed, slack_per_byte) = sim.state.st_ref().config.stage_slack();
    table.retain_mut(|_, _, l| {
        l.min_fixed_delay = l.min_fixed_delay.saturating_add(slack_fixed);
        l.min_per_byte_delay = l.min_per_byte_delay.saturating_add(slack_per_byte);
        l.max_message_size = l
            .max_message_size
            .max(ST_MAX_MESSAGE_SIZE)
            .min(l.max_capacity);
        true
    });
    Ok(negotiate(&table, request)?)
}

// ---------------------------------------------------------------------------
// Creation
// ---------------------------------------------------------------------------

/// Create an ST RMS from `host` (sender) to `peer` (receiver), bound at
/// this end to `client`. The stream's id is chosen here; both ends file
/// the stream under it, and the request and its answer name it.
///
/// Triggers control-channel establishment and authentication on first
/// contact (§3.2). Completion is reported to `client` as
/// [`StEvent::Created`] / [`StEvent::CreateFailed`]. The opening `header`
/// rides the create request on the reliable control channel; the receiving
/// world binds the lane to a client from it
/// ([`StWorld::st_inbound`]) before any data sent on the stream arrives.
///
/// # Errors
///
/// Fails synchronously when there is no route, negotiation cannot succeed,
/// no pair key is provisioned for the control-channel authentication, or
/// the header is longer than [`MAX_OPENING_HEADER`].
pub fn create<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    peer: HostId,
    request: &RmsRequest,
    fast_ack: bool,
    client: Client,
    header: Bytes,
) -> Result<(), RmsError> {
    if header.len() > MAX_OPENING_HEADER {
        return Err(RmsError::MessageTooLarge {
            size: header.len() as u64,
            limit: MAX_OPENING_HEADER as u64,
        });
    }
    let params = st_negotiate(sim, host, peer, request)?;
    let st = sim.state.st();
    if st.pair_key(host, peer).is_none() {
        return Err(RmsError::CreationRejected(
            RejectReason::AuthenticationFailed,
        ));
    }
    let st_rms = st.alloc_st_rms();
    let stream = new_stream(
        st_rms,
        peer,
        StRole::Sender,
        client,
        params.clone().shared(),
        fast_ack,
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
            st_rms,
            params,
            fast_ack,
            header,
        },
    );
    // Filed once the request is sent or queued: a control channel that
    // cannot be created fails the creates already waiting, while this one
    // waits for the authentication timer, so `create` never reports an
    // outcome before it returns.
    sim.state.st().host_mut(host).streams.insert(st_rms, stream);
    Ok(())
}

/// Close an ST RMS from its sender side. The underlying data network RMS
/// stays cached for reuse (§4.2).
///
/// # Errors
///
/// [`RmsError::UnknownStream`] if the stream does not exist here, or
/// [`RmsError::WrongDirection`] if this host is the receiver.
pub fn close<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) -> Result<(), RmsError> {
    let (peer, carrier) = {
        let sth = sim.state.st().host_mut(host);
        let stream = sth.streams.get(&st_rms).ok_or(RmsError::UnknownStream)?;
        if stream.role != StRole::Sender {
            return Err(RmsError::WrongDirection);
        }
        (stream.peer, stream.carrier)
    };
    // Flush any queued frames of this stream before it disappears.
    if let Some(carrier) = carrier {
        flush_carrier(sim, host, carrier, FlushReason::Close);
    }
    sim.state.st().host_mut(host).streams.remove(&st_rms);
    if let Some(carrier) = carrier {
        if let Some(d) = data_out(sim, host, carrier) {
            d.assigned.retain(|s| *s != st_rms);
        }
        recompute_capacity(sim, host, carrier);
    }
    send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
    evict_idle_cache(sim, host, peer);
    Ok(())
}

/// The multiplexing state of `host`'s data carrier `carrier`, if it has one.
fn data_out<W: StWorld>(sim: &mut Sim<W>, host: HostId, carrier: NetRmsId) -> Option<&mut DataOut> {
    let c = sim.state.st().host_mut(host).carriers.get_mut(&carrier)?;
    c.data.as_mut()
}

fn recompute_capacity<W: StWorld>(sim: &mut Sim<W>, host: HostId, carrier: NetRmsId) {
    let StHost {
        carriers, streams, ..
    } = sim.state.st().host_mut(host);
    if let Some(d) = carriers.get_mut(&carrier).and_then(|c| c.data.as_mut()) {
        d.assigned_capacity = (d.assigned.iter())
            .filter_map(|s| streams.get(s))
            .map(|s| s.params.capacity)
            .sum();
    }
}

// ---------------------------------------------------------------------------
// Control channel (§3.2)
// ---------------------------------------------------------------------------

fn peer_state<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) -> &mut PeerState {
    sim.state.st().host_mut(host).peers.entry(peer).or_default()
}

/// Our control-channel half toward `peer`, once the network created it.
fn control_out<W: StWorld>(sim: &Sim<W>, host: HostId, peer: HostId) -> Option<NetRmsId> {
    let sth = sim.state.st_ref().host(host);
    let rms = sth.peers.get(&peer)?.control_out?;
    sth.carriers.get(&rms)?.ready.then_some(rms)
}

fn ensure_control<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    if peer_state(sim, host, peer).control_out.is_some() {
        return;
    }
    match net::create_rms(sim, host, peer, &RmsRequest::exact(control_params())) {
        Ok(rms) => {
            let carrier = Carrier {
                peer,
                ready: false,
                data: None,
            };
            sim.state.st().host_mut(host).carriers.insert(rms, carrier);
            peer_state(sim, host, peer).control_out = Some(rms);
        }
        Err(e) => fail_creates(sim, host, peer, reject_of(&e)),
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
    if control_out(sim, host, peer).is_some() && peer_state(sim, host, peer).authed {
        emit_ctrl(sim, host, peer, msg);
    } else {
        peer_state(sim, host, peer).queued.push(msg);
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
        fail_creates(sim, host, peer, RejectReason::AuthenticationFailed);
    }
}

/// The control channel to `peer` failed or did not authenticate: every
/// create to `peer` still awaiting its answer fails, sent or queued, and
/// the messages waiting for authentication are dropped.
fn fail_creates<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, reason: RejectReason) {
    peer_state(sim, host, peer).queued.retain(is_pre_auth);
    let streams = &mut sim.state.st().host_mut(host).streams;
    let mut failed: Vec<StRmsId> = (streams.values())
        .filter(|s| s.peer == peer && s.awaiting_answer())
        .map(|s| s.id)
        .collect();
    // In the order the creates were requested.
    failed.sort_unstable();
    for st_rms in failed {
        give_up_stream(sim, host, st_rms, reason.clone());
    }
}

/// `host`'s stream `st_rms` will get no carrier: it is removed, and its
/// client hears once — a create still waiting for its outcome fails with
/// `reason`, an established stream (failing over) with
/// [`FailReason::NetworkDown`]. Later sends on it find no stream.
fn give_up_stream<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    st_rms: StRmsId,
    reason: RejectReason,
) {
    let streams = &mut sim.state.st().host_mut(host).streams;
    let Some(s) = streams.remove(&st_rms) else {
        return;
    };
    let event = if s.creating {
        StEvent::CreateFailed { reason }
    } else {
        StEvent::Failed {
            st_rms,
            reason: FailReason::NetworkDown,
        }
    };
    W::st_event(sim, host, s.client, event);
}

/// A frame sent before authentication: the answer to the peer's Hello.
fn is_pre_auth(msg: &ControlMsg) -> bool {
    matches!(msg, ControlMsg::HelloAck { .. })
}

/// Actually put a control message on the wire (control channel must exist).
fn emit_ctrl<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, msg: ControlMsg) {
    let Some(rms) = control_out(sim, host, peer) else {
        // Channel vanished; requeue.
        peer_state(sim, host, peer).queued.push(msg);
        return;
    };
    let payload = encode(&Frame::Ctrl(msg));
    let now = sim.now();
    let _ = net::send_on_rms(sim, host, rms, Message::from_wire(payload), Some(now), None);
}

/// Emit a pre-authentication frame (a HelloAck) if the channel exists,
/// else queue it for the channel.
fn emit_pre_auth<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, msg: ControlMsg) {
    if control_out(sim, host, peer).is_some() {
        emit_ctrl(sim, host, peer, msg);
    } else {
        peer_state(sim, host, peer).queued.push(msg);
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
/// [`RmsError`] if the stream is unknown (a failed or closed stream is
/// gone), not ready, not a sender endpoint, or the message is too large.
pub fn send<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    st_rms: StRmsId,
    mut msg: Message,
) -> Result<u64, RmsError> {
    let now = sim.now();
    let (carrier, st_params, fast_ack, seq) = {
        let sth = sim.state.st().host_mut(host);
        let stream = sth
            .streams
            .get_mut(&st_rms)
            .ok_or(RmsError::UnknownStream)?;
        if stream.role != StRole::Sender {
            return Err(RmsError::WrongDirection);
        }
        let carrier = stream.carrier.ok_or(RmsError::UnknownStream)?;
        if msg.len() as u64 > stream.params.max_message_size {
            return Err(RmsError::MessageTooLarge {
                size: msg.len() as u64,
                limit: stream.params.max_message_size,
            });
        }
        let seq = stream.alloc_seq();
        (carrier, stream.params.clone(), stream.fast_ack, seq)
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
        carrier,
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
    carrier: NetRmsId,
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
        carrier,
        st_rms,
        st_params,
        fast_ack,
        seq,
        msg,
        sent_at,
    } = sim.state.st().send_jobs.take(job as u32);
    let now = sim.now();
    // The carrier may have died meanwhile, or the carrier the stream
    // failed over to may still be waiting for its network RMS: the message
    // is lost, and counted.
    let net_params = (sim.state.st_ref().host(host).carriers.get(&carrier))
        .filter(|c| c.ready)
        .and_then(|c| Some(c.data.as_ref()?.params.clone()));
    let Some(net_params) = net_params else {
        drop_frame(sim, host, DropCause::NoCarrier);
        return;
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
        flush_carrier(sim, host, carrier, FlushReason::Fragment);
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
            send_net(sim, host, carrier, payload, deadline, sent_at, span);
        }
        touch_carrier(sim, host, carrier, now);
        return;
    }

    let max_deadline = tx_max_deadline(now, &st_params, &net_params, len);
    let piggyback = sim.state.st_ref().config.piggyback;
    if !piggyback {
        let deadline = clamp_stream_deadline(sim, host, st_rms, max_deadline);
        send_net(sim, host, carrier, wire, deadline, sent_at, span);
        touch_carrier(sim, host, carrier, now);
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
    push_with_flush(sim, host, carrier, entry, net_mms);
    let pending = data_out(sim, host, carrier).map_or(0, |d| d.queue.len());
    emit(
        sim,
        ObsEvent::PiggybackCoalesce {
            host: host.0,
            net_rms: carrier.0,
            pending,
        },
    );
    touch_carrier(sim, host, carrier, now);
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
    carrier: NetRmsId,
    entry: PendingEntry,
    net_mms: u64,
) {
    let now = sim.now();
    let push = |sim: &mut Sim<W>, entry: PendingEntry| {
        data_out(sim, host, carrier).map(|d| d.queue.try_push(entry, net_mms))
    };
    // A refused push hands the entry back: flush the queue and retry once
    // into the empty queue, which always takes it.
    let outcome = match push(sim, entry) {
        Some(PushOutcome::WouldOverflow(entry)) => {
            flush_carrier(sim, host, carrier, FlushReason::Overflow);
            push(sim, entry)
        }
        Some(PushOutcome::DeadlineConflict(entry)) => {
            flush_carrier(sim, host, carrier, FlushReason::Conflict);
            push(sim, entry)
        }
        first => first,
    };
    debug_assert!(
        matches!(outcome, None | Some(PushOutcome::Queued { .. })),
        "entry must fit an empty queue"
    );
    if let Some(PushOutcome::Queued { flush_at }) = outcome {
        if flush_at <= now {
            flush_carrier(sim, host, carrier, FlushReason::Timer);
        } else {
            arm_flush_timer(sim, host, carrier, flush_at);
        }
    }
}

fn arm_flush_timer<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    carrier: NetRmsId,
    flush_at: SimTime,
) {
    let delay = flush_at.saturating_since(sim.now());
    let Some(d) = data_out(sim, host, carrier) else {
        return;
    };
    match d.flush_timer.take() {
        Some((t, at)) if flush_at >= at => {
            d.flush_timer = Some((t, at));
            return;
        }
        Some((t, _)) => t.cancel(),
        None => {}
    }
    let handle = sim.call_timer(delay, flush_timeout::<W>, (host.0, carrier.0));
    if let Some(d) = data_out(sim, host, carrier) {
        d.flush_timer = Some((handle, flush_at));
    }
}

/// The flush timer of `(host, carrier)` fired.
fn flush_timeout<W: StWorld>(sim: &mut Sim<W>, (host, carrier): Args) {
    let (host, carrier) = (HostId(host), NetRmsId(carrier));
    if let Some(d) = data_out(sim, host, carrier) {
        d.flush_timer = None;
    }
    flush_carrier(sim, host, carrier, FlushReason::Timer);
}

fn flush_carrier<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    carrier: NetRmsId,
    reason: FlushReason,
) {
    let now = sim.now();
    let StHost {
        carriers, streams, ..
    } = sim.state.st().host_mut(host);
    let Some(Carrier {
        ready: true,
        data: Some(d),
        ..
    }) = carriers.get_mut(&carrier)
    else {
        return;
    };
    if let Some((t, _)) = d.flush_timer.take() {
        t.cancel();
    }
    let Some(bundle) = d.queue.flush() else {
        return;
    };
    let deadline = bundle.deadline;
    let entries = bundle.entries();
    // The bundle's deadline becomes each component stream's actual
    // transmission deadline (ordering floor for their next messages).
    for e in entries {
        if let Some(stream) = streams.get_mut(&e.st_rms) {
            stream.last_tx_deadline = stream.last_tx_deadline.max(deadline);
        }
    }
    let earliest_sent = entries.iter().map(|e| e.sent_at).min().unwrap_or(now);
    // The network-layer leg of a bundle is attributed to the span of its
    // oldest frame; the other frames' spans skip the net stages and close
    // at delivery.
    let bundle_span = entries
        .iter()
        .min_by_key(|e| e.sent_at)
        .and_then(|e| e.span);
    let frames = entries.len();
    let payload = bundle.encode();
    emit(
        sim,
        ObsEvent::PiggybackFlush {
            host: host.0,
            net_rms: carrier.0,
            frames,
            reason,
        },
    );
    send_net(
        sim,
        host,
        carrier,
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

fn touch_carrier<W: StWorld>(sim: &mut Sim<W>, host: HostId, carrier: NetRmsId, now: SimTime) {
    if let Some(d) = data_out(sim, host, carrier) {
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

/// Find or create a data carrier for a new sender stream; returns true if
/// the stream is immediately ready (cache hit on a ready carrier). Of the
/// cached carriers to the peer that can take the stream, a ready one wins
/// over one still being created, then the lowest [`NetRmsId`].
fn assign_carrier<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) -> bool {
    let (peer, st_params) = {
        let stream = &sim.state.st_ref().host(host).streams[&st_rms];
        (stream.peer, stream.params.clone())
    };
    let candidate = (sim.state.st_ref().host(host).carriers.iter())
        .filter(|(_, c)| c.peer == peer)
        .filter_map(|(id, c)| Some((*id, c.ready, c.data.as_ref()?)))
        .filter(|(_, _, d)| can_multiplex(&st_params, &d.params, d.assigned_capacity))
        .min_by_key(|(id, ready, _)| (!ready, *id))
        .map(|(id, ready, _)| (id, ready));
    if let Some((carrier, ready)) = candidate {
        emit(sim, ObsEvent::CacheHit { host: host.0 });
        if let Some(d) = data_out(sim, host, carrier) {
            d.assigned.push(st_rms);
            d.assigned_capacity += st_params.capacity;
        }
        if let Some(s) = sim.state.st().host_mut(host).streams.get_mut(&st_rms) {
            s.carrier = Some(carrier);
        }
        return ready;
    }

    // Create a new network RMS (§4.2: "it is slow and costly to create
    // network RMS's" — this is the miss path).
    emit(sim, ObsEvent::CacheMiss { host: host.0 });
    let (slack_fixed, slack_per_byte) = sim.state.st_ref().config.stage_slack();
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
        Ok(carrier) => {
            let created = Carrier {
                peer,
                ready: false,
                data: Some(DataOut {
                    // While creating, advertise the *desired* parameters
                    // for multiplex matching; Created{params} replaces them
                    // with the negotiated actuals and spills streams if the
                    // grant came back smaller.
                    params: request.desired.clone().shared(),
                    assigned: vec![st_rms],
                    assigned_capacity: st_params.capacity,
                    queue: PiggybackQueue::new(),
                    flush_timer: None,
                    last_used: SimTime::ZERO,
                }),
            };
            let sth = sim.state.st().host_mut(host);
            sth.carriers.insert(carrier, created);
            if let Some(s) = sth.streams.get_mut(&st_rms) {
                s.carrier = Some(carrier);
            }
            false
        }
        Err(e) => {
            give_up_stream(sim, host, st_rms, reject_of(&e));
            send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
            false
        }
    }
}

/// Evict least-recently-used idle cached data carriers to `peer` beyond
/// the limit; of two used last at the same instant, the lower
/// [`NetRmsId`] goes first.
fn evict_idle_cache<W: StWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId) {
    let limit = sim.state.st_ref().config.cache_idle_limit;
    let mut idle: Vec<(SimTime, NetRmsId)> = (sim.state.st_ref().host(host).carriers.iter())
        .filter(|(_, c)| c.peer == peer && c.ready)
        .filter_map(|(id, c)| Some((*id, c.data.as_ref()?)))
        .filter(|(_, d)| d.assigned.is_empty() && d.queue.is_empty())
        .map(|(id, d)| (d.last_used, id))
        .collect();
    if idle.len() <= limit {
        return;
    }
    idle.sort_unstable();
    let excess = idle.len() - limit;
    for (_, carrier) in idle.into_iter().take(excess) {
        emit(sim, ObsEvent::CacheEvict { host: host.0 });
        sim.state.st().host_mut(host).carriers.remove(&carrier);
        let _ = net::close_rms(sim, host, carrier);
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
    // A bundle's frames come back in the ST's kept list, which is empty
    // between uses; a malformed bundle is dropped before any of it runs.
    let mut frames = std::mem::take(&mut sim.state.st().bundle_frames);
    let decoded = decode_into(msg.wire(), &mut frames);
    if decoded.is_ok() {
        for d in frames.drain(..) {
            handle_data(sim, host, net_rms, d);
        }
    }
    frames.clear();
    sim.state.st().bundle_frames = frames;
    let frame = match decoded {
        Ok(Some(frame)) => frame,
        Ok(None) => return,
        Err(_) => {
            drop_frame(sim, host, DropCause::Malformed);
            return;
        }
    };
    match frame {
        Frame::Ctrl(c) => handle_ctrl(sim, host, net_rms, c),
        Frame::Data(d) => handle_data(sim, host, net_rms, d),
        Frame::Bundle(_) => unreachable!("decode_into returns a bundle's frames in its list"),
        Frame::FastAck { st_rms, seq } => {
            let client = (sim.state.st_ref().host(host).streams.get(&st_rms))
                .filter(|s| s.role == StRole::Sender)
                .map(|s| s.client);
            if let Some(client) = client {
                W::st_event(sim, host, client, StEvent::FastAck { st_rms, seq });
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
                std::mem::take(&mut p.queued)
            };
            for m in queued {
                emit_ctrl(sim, host, peer, m);
            }
        }
        ControlMsg::StCreateReq {
            st_rms,
            params,
            fast_ack,
            header,
        } => {
            // Receiver-side accept policy: parameters were negotiated by
            // the sender against the real path; we only enforce our own
            // client-facing limits. An id this host already holds is
            // refused and the stream holding it left alone: a repeated
            // request opens no second stream.
            let held = sim.state.st_ref().host(host).streams.contains_key(&st_rms);
            if held || params.max_message_size > ST_MAX_MESSAGE_SIZE {
                send_ctrl(sim, host, peer, ControlMsg::StCreateNak { st_rms });
                return;
            }
            send_ctrl(sim, host, peer, ControlMsg::StCreateAck { st_rms });
            // Bound once, here, for the lane's life.
            let client = W::st_inbound(sim, host, st_rms, peer, &header);
            let role = StRole::Receiver;
            let stream = new_stream(st_rms, peer, role, client, params.shared(), fast_ack);
            sim.state.st().host_mut(host).streams.insert(st_rms, stream);
        }
        // An answer counts only from the stream's peer, and only while the
        // stream awaits it.
        ControlMsg::StCreateAck { st_rms } => {
            if awaits_answer(sim, host, peer, st_rms) && assign_carrier(sim, host, st_rms) {
                report_created(sim, host, st_rms);
            }
        }
        ControlMsg::StCreateNak { st_rms } => {
            if awaits_answer(sim, host, peer, st_rms) {
                give_up_stream(sim, host, st_rms, RejectReason::PeerRejected);
            }
        }
        // Only the sender closes a stream, and only its receiving end.
        ControlMsg::StClose { st_rms } => {
            let streams = &mut sim.state.st().host_mut(host).streams;
            let ours = (streams.get(&st_rms))
                .is_some_and(|s| s.peer == peer && s.role == StRole::Receiver);
            if let Some(s) = ours.then(|| streams.remove(&st_rms)).flatten() {
                W::st_event(sim, host, s.client, StEvent::Closed { st_rms });
            }
        }
    }
}

/// `host`'s stream `st_rms` to `peer` awaits the answer to its request.
fn awaits_answer<W: StWorld>(sim: &Sim<W>, host: HostId, peer: HostId, st_rms: StRmsId) -> bool {
    (sim.state.st_ref().host(host).streams.get(&st_rms))
        .is_some_and(|s| s.peer == peer && s.awaiting_answer())
}

fn new_stream(
    id: StRmsId,
    peer: HostId,
    role: StRole,
    client: Client,
    params: SharedParams,
    fast_ack: bool,
) -> StStream {
    StStream {
        id,
        peer,
        role,
        client,
        params,
        fast_ack,
        carrier: None,
        creating: role == StRole::Sender,
        next_seq: 0,
        last_tx_deadline: SimTime::ZERO,
        last_send_job_deadline: SimTime::ZERO,
        last_recv_job_deadline: SimTime::ZERO,
        reassembly: Reassembly::new(),
        failover_since: None,
    }
}

fn handle_data<W: StWorld>(sim: &mut Sim<W>, host: HostId, net_rms: NetRmsId, d: DataFrame) {
    let Some(peer) = net_peer_of(sim, host, net_rms) else {
        return;
    };
    let st_rms = d.st_rms;
    let exists = (sim.state.st_ref().host(host).streams.get(&st_rms))
        .is_some_and(|s| s.role == StRole::Receiver);
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
    let mut discarded = 0;
    let (client, complete) = {
        let sth = sim.state.st().host_mut(host);
        let Some(stream) = sth.streams.get_mut(&st_rms) else {
            return;
        };
        let complete = if was_frag {
            let before = stream.reassembly.partials_discarded;
            let done = stream.reassembly.push(d);
            discarded = stream.reassembly.partials_discarded - before;
            done.map(|r| {
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
        };
        (stream.client, complete)
    };
    // Each partial message a fragment of another one (or a gap) cut short
    // is a lost message.
    for _ in 0..discarded {
        drop_frame(sim, host, DropCause::Reassembly);
    }
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
        if let Some(rms) = control_out(sim, host, peer) {
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
    W::st_deliver(sim, host, client, st_rms, msg, info);
}

/// The world's `NetWorld::rms_event` must forward here.
pub fn on_net_event<W: StWorld>(sim: &mut Sim<W>, host: HostId, event: &NetRmsEvent) {
    match event {
        NetRmsEvent::Created { rms, params } => carrier_created(sim, host, *rms, params),
        NetRmsEvent::CreateFailed { rms, reason } => {
            carrier_create_failed(sim, host, *rms, reason);
        }
        NetRmsEvent::Failed { rms, .. } => carrier_failed(sim, host, *rms),
        // Inbound network RMSs keep no state here (a frame names its ST
        // RMS, and the network layer its peer), and the ST uses no
        // invites.
        NetRmsEvent::Closed { .. }
        | NetRmsEvent::InboundCreated { .. }
        | NetRmsEvent::SenderCreatedByInvite { .. }
        | NetRmsEvent::InviteFailed { .. } => {}
    }
}

/// The network created our carrier `rms`.
fn carrier_created<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    params: &SharedParams,
) {
    let StHost {
        carriers, streams, ..
    } = sim.state.st().host_mut(host);
    let Some(carrier) = carriers.get_mut(&rms) else {
        return;
    };
    carrier.ready = true;
    let peer = carrier.peer;
    let Some(d) = carrier.data.as_mut() else {
        emit(
            sim,
            ObsEvent::ControlCreated {
                host: host.0,
                peer: peer.0,
            },
        );
        // Authenticate (§3.2), then answer the peer's Hellos; the rest
        // waits for authentication.
        send_hello(sim, host, peer);
        let p = peer_state(sim, host, peer);
        let (pre, rest) = std::mem::take(&mut p.queued)
            .into_iter()
            .partition(is_pre_auth);
        p.queued = rest;
        for m in pre {
            emit_ctrl(sim, host, peer, m);
        }
        return;
    };
    // Adopt the actual parameters; if the grant is smaller than the
    // multiplexed demand (§4.2 capacity rule), spill the newest streams to
    // other carriers.
    d.params = params.clone();
    let cap_of = |sid: &StRmsId| streams.get(sid).map_or(0, |s| s.params.capacity);
    let mut sum: u64 = d.assigned.iter().map(cap_of).sum();
    let mut spilled = Vec::new();
    while sum > params.capacity && d.assigned.len() > 1 {
        let victim = d.assigned.pop().expect("len > 1");
        sum -= cap_of(&victim);
        spilled.push(victim);
    }
    d.assigned_capacity = sum;
    let ready_streams = d.assigned.clone();
    for st_rms in ready_streams {
        report_created(sim, host, st_rms);
        complete_failover_if_pending(sim, host, st_rms);
    }
    for st_rms in spilled {
        reassign(sim, host, st_rms);
    }
}

/// The network could not create our carrier `rms`.
fn carrier_create_failed<W: StWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    reason: &RejectReason,
) {
    let Some(carrier) = sim.state.st().host_mut(host).carriers.remove(&rms) else {
        return;
    };
    let peer = carrier.peer;
    let Some(d) = carrier.data else {
        peer_state(sim, host, peer).control_out = None;
        fail_creates(sim, host, peer, reason.clone());
        return;
    };
    for st_rms in d.assigned {
        if sim.state.st_ref().host(host).streams.contains_key(&st_rms) {
            send_ctrl(sim, host, peer, ControlMsg::StClose { st_rms });
            give_up_stream(sim, host, st_rms, reason.clone());
        }
    }
}

/// Our established carrier `rms` failed (an inbound network RMS failing
/// needs nothing here: its sender fails over).
fn carrier_failed<W: StWorld>(sim: &mut Sim<W>, host: HostId, rms: NetRmsId) {
    let Some(carrier) = sim.state.st().host_mut(host).carriers.remove(&rms) else {
        return;
    };
    let peer = carrier.peer;
    let Some(d) = carrier.data else {
        {
            let p = peer_state(sim, host, peer);
            p.control_out = None;
            p.authed = false;
        }
        fail_creates(sim, host, peer, RejectReason::Timeout);
        // An alternate network may still connect the two hosts:
        // re-establish eagerly so later creates don't pay the setup.
        ensure_control(sim, host, peer);
        return;
    };
    // Failover (§4.2): the carrier died, but the ST streams on it are still
    // live contracts with their clients. Detach them and re-run admission
    // over whatever routes remain — a cached network RMS on an alternate
    // network, or a fresh creation whose `dash_net::routing` candidate walk
    // re-homes the path across the surviving k-alternates (admission NAKs
    // on one alternate fall through to the next). Only when every
    // alternate is exhausted does the client see a typed failure
    // (`give_up_stream`).
    let now = sim.now();
    let streams = &mut sim.state.st().host_mut(host).streams;
    let mut victims = Vec::new();
    for sid in &d.assigned {
        if let Some(s) = streams.get_mut(sid) {
            s.failover_since.get_or_insert(now);
            victims.push(s.id);
        }
    }
    // Messages still waiting in the dead carrier's piggyback queue never
    // left the host.
    for _ in 0..d.queue.len() {
        drop_frame(sim, host, DropCause::NoCarrier);
    }
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
        reassign(sim, host, st_rms);
    }
}

/// Detach `st_rms` from its carrier and assign it again (§4.2); if the
/// carrier it lands on is ready, a create is reported and a failover
/// completed now, else when that carrier's network RMS is created.
fn reassign<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) {
    if let Some(s) = sim.state.st().host_mut(host).streams.get_mut(&st_rms) {
        s.carrier = None;
    }
    if assign_carrier(sim, host, st_rms) {
        report_created(sim, host, st_rms);
        complete_failover_if_pending(sim, host, st_rms);
    }
}

/// Report a creation whose carrier just became ready to its client (once: a
/// stream failing over was reported long ago).
fn report_created<W: StWorld>(sim: &mut Sim<W>, host: HostId, st_rms: StRmsId) {
    let created = (sim.state.st().host_mut(host).streams.get_mut(&st_rms))
        .filter(|s| s.creating)
        .map(|s| {
            s.creating = false;
            (s.client, s.params.clone())
        });
    if let Some((client, params)) = created {
        W::st_event(sim, host, client, StEvent::Created { st_rms, params });
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

/// Count a frame or message the ST discards, with its cause.
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
                        && (p.queued.iter().any(|m| !is_pre_auth(m))
                            || sth.carriers.values().any(|c| c.peer == **peer)
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
