//! The network-layer protocol engine: RMS creation with hop-by-hop
//! admission, deadline-queued transmission, forwarding, and delivery.
//!
//! All functions are generic over the world `W: NetWorld`, so the
//! subtransport layer (and test harnesses) stack on top without this crate
//! knowing their shape. Every action this module schedules is an unboxed
//! call (function plus ids): a packet between two steps — serializing, on
//! the wire, or waiting for its CPU job — waits in [`NetState`]'s parking
//! slab, never inside an event. A transmission's completion names the
//! interface, which holds its packet's slot.

use dash_security::cipher::{decrypt, encrypt, Key};
use dash_security::mac;
use dash_security::suite::{MechanismPlan, NetworkCapabilities};
use dash_sim::engine::{Args, Call, Sim};
use dash_sim::obs::{DropCause, ObsEvent};
use dash_sim::time::{SimDuration, SimTime};
use rms_core::admission::Admission;
use rms_core::compat::{negotiate, RmsRequest, ServiceTable};
use rms_core::error::{FailReason, RejectReason, RmsError};
use rms_core::message::Message;
use rms_core::params::{BitErrorRate, Reliability, SharedParams};
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;

use crate::ids::{CreateToken, HostId, NetRmsId, NetworkId};
use crate::network::WireOutcome;
use crate::packet::{DataPacket, NakReason, Packet, PacketKind, SourceRoute};
use crate::rms::{Buffered, NetRms, RmsRole, REORDER_FAIL_THRESHOLD};
use crate::routing;
use crate::state::{
    emit, NetRmsEvent, NetState, NetWorld, PendingCreate, PendingInvite, Route, CREATE_RETRIES,
    CREATE_TIMEOUT, TTL,
};

// ---------------------------------------------------------------------------
// Path-wide negotiation helpers
// ---------------------------------------------------------------------------

/// Combine the service tables of every network along `path` (store-and-
/// forward: fixed and per-byte delays add, capacities take the minimum,
/// error rates accumulate, the weakest kind wins). Only combinations
/// supported by *every* hop survive.
pub fn combined_service_table<W: NetWorld>(
    state: &W,
    path: &[(HostId, usize, NetworkId, HostId)],
) -> ServiceTable {
    combined_service_table_on(state.net_ref(), path)
}

/// [`combined_service_table`] against a bare [`NetState`] (used by the
/// routing subsystem, which negotiates per candidate path).
pub fn combined_service_table_on(
    net: &NetState,
    path: &[(HostId, usize, NetworkId, HostId)],
) -> ServiceTable {
    let mut out = ServiceTable::new();
    if path.is_empty() {
        return out;
    }
    let tables: Vec<ServiceTable> = path
        .iter()
        .map(|(_, _, n, _)| net.network(*n).spec.service_table())
        .collect();
    for (rel, sec, first) in tables[0].iter() {
        let mut acc = *first;
        let mut ok = true;
        for t in &tables[1..] {
            match t.limits(*rel, *sec) {
                Some(l) => {
                    acc.min_fixed_delay = acc.min_fixed_delay.saturating_add(l.min_fixed_delay);
                    acc.min_per_byte_delay =
                        acc.min_per_byte_delay.saturating_add(l.min_per_byte_delay);
                    acc.max_capacity = acc.max_capacity.min(l.max_capacity);
                    acc.max_message_size = acc.max_message_size.min(l.max_message_size);
                    let combined_ber =
                        (acc.min_error_rate.rate() + l.min_error_rate.rate()).clamp(0.0, 1.0);
                    acc.min_error_rate =
                        BitErrorRate::new(combined_ber).expect("valid combined rate");
                    acc.max_kind_strength = acc.max_kind_strength.min(l.max_kind_strength);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            out.support(*rel, *sec, acc);
        }
    }
    out
}

/// Combine the security capabilities seen along `path`: the conservative
/// intersection (everything must be trusted for the path to be trusted; the
/// raw error rates accumulate).
pub fn combined_capabilities_on(
    net: &NetState,
    path: &[(HostId, usize, NetworkId, HostId)],
) -> NetworkCapabilities {
    let mut caps = NetworkCapabilities {
        trusted: true,
        link_encryption: true,
        hardware_checksum: true,
        physical_broadcast: true,
        raw_ber: 0.0,
    };
    for (_, _, n, _) in path {
        let c = net.network(*n).spec.caps;
        caps.trusted &= c.trusted;
        caps.link_encryption &= c.link_encryption;
        caps.hardware_checksum &= c.hardware_checksum;
        caps.physical_broadcast &= c.physical_broadcast;
        caps.raw_ber = (caps.raw_ber + c.raw_ber).clamp(0.0, 1.0);
    }
    caps
}

fn nak_to_reject(reason: NakReason) -> RejectReason {
    match reason {
        NakReason::Admission => RejectReason::AdmissionDenied {
            detail: "a hop's admission control refused the reservation".into(),
        },
        NakReason::PeerRefused => RejectReason::PeerRejected,
        NakReason::NoRoute => RejectReason::NoRoute,
    }
}

// ---------------------------------------------------------------------------
// RMS creation (sender side)
// ---------------------------------------------------------------------------

/// Create a network RMS from `creator` (the data **sender**) to `peer` (the
/// data receiver). The routing subsystem resolves up to
/// [`routing::K_ALTERNATES`] loop-free candidate paths, each negotiated
/// against its own combined service table (§2.4); admission control then
/// reserves hop by hop as the `CreateReq` travels the chosen path (§2.3),
/// and a NAK makes the creator fall back to the next alternate instead of
/// failing outright. The result arrives asynchronously as a
/// [`NetRmsEvent::Created`] / [`NetRmsEvent::CreateFailed`] carrying the
/// returned token.
///
/// # Errors
///
/// Fails synchronously if there is no route or negotiation cannot succeed
/// on any candidate path.
pub fn create_rms<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<CreateToken, RmsError> {
    if creator == peer {
        return Err(RmsError::CreationRejected(RejectReason::NoRoute));
    }
    let alternates = routing::candidate_paths(sim.state.net_ref(), creator, peer, request)?;

    let net = sim.state.net();
    let token = net.alloc_token();
    let rms = net.alloc_rms_id();
    let key = Key(net.rng.next_u64());
    let route_gen = net.route_generation;
    let first = &alternates[0];
    let (params, plan) = (first.params.clone(), first.plan);
    net.host_mut(creator).pending.insert(
        token,
        PendingCreate {
            rms,
            peer,
            params,
            attempts: 0,
            timer: None,
            invite: None,
            plan,
            key,
            request: request.clone(),
            alternates,
            alt_idx: 0,
            route_gen,
        },
    );
    // Deferred so the caller records the returned token before any
    // failure/success event can fire.
    sim.call_in(SimDuration::ZERO, create_attempt::<W>, (creator.0, token.0));
    Ok(token)
}

/// Create a network RMS with `creator` as the data **receiver** (§2.4: the
/// creator may act as either end). Sends an `Invite`; the peer initiates
/// the reserving `CreateReq` back toward us. Completion surfaces as
/// [`NetRmsEvent::InboundCreated`] with `invite = Some(token)` (or
/// [`NetRmsEvent::InviteFailed`]).
///
/// # Errors
///
/// Fails synchronously if there is no route or negotiation cannot succeed.
pub fn create_rms_as_receiver<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<CreateToken, RmsError> {
    if creator == peer {
        return Err(RmsError::CreationRejected(RejectReason::NoRoute));
    }
    // Data flows peer -> creator; negotiate along that direction.
    let path = sim
        .state
        .net_ref()
        .path(peer, creator)
        .ok_or(RmsError::CreationRejected(RejectReason::NoRoute))?;
    let table = combined_service_table(&sim.state, &path);
    let params = negotiate(&table, request)?.shared();

    let token = sim.state.net().alloc_token();
    sim.state.net().host_mut(creator).invites.insert(
        token,
        PendingInvite {
            peer,
            params: params.clone(),
            timer: None,
            attempts: 0,
        },
    );
    sim.call_in(SimDuration::ZERO, invite_attempt::<W>, (creator.0, token.0));
    Ok(token)
}

/// The call form of [`start_invite_attempt`]: `(creator, token)`.
fn invite_attempt<W: NetWorld>(sim: &mut Sim<W>, (creator, token): Args) {
    start_invite_attempt(sim, HostId(creator), CreateToken(token));
}

/// The call form of [`start_create_attempt`]: `(creator, token)`.
fn create_attempt<W: NetWorld>(sim: &mut Sim<W>, (creator, token): Args) {
    start_create_attempt(sim, HostId(creator), CreateToken(token));
}

fn start_invite_attempt<W: NetWorld>(sim: &mut Sim<W>, creator: HostId, token: CreateToken) {
    let now = sim.now();
    let (peer, params, attempts) = {
        let inv = match sim.state.net().host_mut(creator).invites.get_mut(&token) {
            Some(i) => i,
            None => return,
        };
        inv.attempts += 1;
        (inv.peer, inv.params.clone(), inv.attempts)
    };
    if attempts > CREATE_RETRIES {
        sim.state.net().host_mut(creator).invites.remove(&token);
        W::rms_event(
            sim,
            creator,
            NetRmsEvent::InviteFailed {
                token,
                reason: RejectReason::Timeout,
            },
        );
        return;
    }
    let packet = Packet {
        src: creator,
        dst: peer,
        kind: PacketKind::Invite { token, params },
        deadline: now,
        sent_at: now,
        corrupted: false,
        hops: 0,
        reliable: true,
        next_plan: None,
        source_route: None,
        next_hop: None,
    };
    route_and_enqueue(sim, creator, packet);
    // Retry while the invite is still pending (the CreateReq arriving at
    // us removes it).
    let timer = sim.call_timer(CREATE_TIMEOUT, invite_attempt::<W>, (creator.0, token.0));
    if let Some(inv) = sim.state.net().host_mut(creator).invites.get_mut(&token) {
        inv.timer = Some(timer);
    } else {
        timer.cancel();
    }
}

fn start_create_attempt<W: NetWorld>(sim: &mut Sim<W>, creator: HostId, token: CreateToken) {
    let now = sim.now();
    let (rms, peer, invite, attempts) = {
        let p = match sim.state.net().host_mut(creator).pending.get_mut(&token) {
            Some(p) => p,
            None => return,
        };
        p.attempts += 1;
        (p.rms, p.peer, p.invite, p.attempts)
    };
    if attempts > CREATE_RETRIES {
        // Give up: clean any partial reservations and report.
        sim.state.net().host_mut(creator).pending.remove(&token);
        release_local_and_send_release(sim, creator, rms, peer);
        W::rms_event(
            sim,
            creator,
            NetRmsEvent::CreateFailed {
                token,
                reason: RejectReason::Timeout,
            },
        );
        return;
    }

    // A retry timer may fire after the topology changed under us (network
    // death, host crash): candidate paths captured at create time can then
    // name dead first hops. Detect staleness via the route generation and
    // re-resolve alternates from the original request instead of blindly
    // resending into a black hole.
    let stale = {
        let net = sim.state.net_ref();
        net.host(creator)
            .pending
            .get(&token)
            .is_some_and(|p| p.route_gen != net.route_generation)
    };
    if stale {
        release_hop(sim.state.net(), creator, rms);
        let request = match sim.state.net_ref().host(creator).pending.get(&token) {
            Some(p) => p.request.clone(),
            None => return,
        };
        match routing::candidate_paths(sim.state.net_ref(), creator, peer, &request) {
            Ok(candidates) => {
                let gen = sim.state.net_ref().route_generation;
                let net = sim.state.net();
                if let Some(p) = net.host_mut(creator).pending.get_mut(&token) {
                    p.params = candidates[0].params.clone();
                    p.plan = candidates[0].plan;
                    p.alternates = candidates;
                    p.alt_idx = 0;
                    p.route_gen = gen;
                }
            }
            Err(err) => {
                sim.state.net().host_mut(creator).pending.remove(&token);
                let reason = match err {
                    RmsError::CreationRejected(r) => r,
                    _ => RejectReason::NoRoute,
                };
                W::rms_event(sim, creator, NetRmsEvent::CreateFailed { token, reason });
                return;
            }
        }
    }

    // Walk the alternates from the current cursor: reserve on our own
    // outbound interface (hop 0), idempotently, advancing past candidates
    // whose first hop is down or refuses admission.
    let mut admission_detail: Option<String> = None;
    let chosen = loop {
        let (first_net_id, first_hop, params, plan) = {
            let net = sim.state.net_ref();
            let p = match net.host(creator).pending.get(&token) {
                Some(p) => p,
                None => return,
            };
            match p.alternates.get(p.alt_idx) {
                Some(c) => (c.networks[0], c.hops[0], c.params.clone(), c.plan),
                None => break None,
            }
        };
        let net = sim.state.net();
        if net.network(first_net_id).down {
            release_hop(net, creator, rms);
            if let Some(p) = net.host_mut(creator).pending.get_mut(&token) {
                p.alt_idx += 1;
            }
            continue;
        }
        let iface = match net.host(creator).iface_on(first_net_id) {
            Some(i) => i,
            None => {
                if let Some(p) = net.host_mut(creator).pending.get_mut(&token) {
                    p.alt_idx += 1;
                }
                continue;
            }
        };
        if let Err(detail) = admit_hop(net, now, creator, iface, rms, &params) {
            admission_detail = Some(detail);
            if let Some(p) = net.host_mut(creator).pending.get_mut(&token) {
                p.alt_idx += 1;
            }
            continue;
        }
        net.host_mut(creator).rms_next.insert(
            rms,
            Route {
                iface,
                next_hop: first_hop,
            },
        );
        if let Some(p) = net.host_mut(creator).pending.get_mut(&token) {
            p.params = params.clone();
            p.plan = plan;
        }
        break Some((first_net_id, params, plan));
    };
    let Some((first_net, params, plan)) = chosen else {
        sim.state.net().host_mut(creator).pending.remove(&token);
        let reason = match admission_detail {
            Some(detail) => RejectReason::AdmissionDenied { detail },
            None => RejectReason::NoRoute,
        };
        W::rms_event(sim, creator, NetRmsEvent::CreateFailed { token, reason });
        return;
    };

    let (key, source_route) = {
        let net = sim.state.net_ref();
        let p = match net.host(creator).pending.get(&token) {
            Some(p) => p,
            None => return,
        };
        let c = &p.alternates[p.alt_idx];
        (
            p.key,
            SourceRoute {
                hops: c.hops.clone(),
                networks: c.networks.clone(),
                next: 0,
            },
        )
    };
    if sim.state.net().obs.is_active() {
        // Announce the pinned source route (creator first) so an external
        // oracle can check the chosen alternate is loop-free. The one
        // guarded emit: the hop list costs an allocation per creation.
        let mut hops: Vec<u32> = Vec::with_capacity(source_route.hops.len() + 1);
        hops.push(creator.0);
        hops.extend(source_route.hops.iter().map(|h| h.0));
        sim.state.net().obs.emit(
            now,
            ObsEvent::RoutingPathPinned {
                host: creator.0,
                hops,
            },
        );
    }
    let packet = Packet {
        src: creator,
        dst: peer,
        kind: PacketKind::CreateReq {
            token,
            rms,
            params,
            path: vec![first_net],
            invite,
        },
        deadline: now,
        sent_at: now,
        corrupted: false,
        hops: 0,
        reliable: true,
        next_plan: Some((plan, key)),
        source_route: Some(source_route),
        next_hop: None,
    };
    route_and_enqueue(sim, creator, packet);
    let timer = sim.call_timer(CREATE_TIMEOUT, create_attempt::<W>, (creator.0, token.0));
    if let Some(p) = sim.state.net().host_mut(creator).pending.get_mut(&token) {
        p.timer = Some(timer);
    } else {
        timer.cancel();
    }
}

/// Release `host`'s reservation for `rms`, if it holds one, and drop its
/// `rms_next` forwarding pin, which is returned (teardown follows it).
fn release_hop(net: &mut NetState, host: HostId, rms: NetRmsId) -> Option<Route> {
    let h = net.host_mut(host);
    if let Some((iface, params)) = h.reservations.remove(&rms) {
        h.ifaces[iface].ledger.release(&params);
    }
    h.rms_next.remove(&rms)
}

/// One hop's admission (§2.3): reserve `params` for `rms` on `host`'s
/// outbound interface `iface`, idempotently — a retry that finds the
/// reservation in place passes without asking the ledger again. A fresh
/// decision is announced; a refusal returns the ledger's explanation.
fn admit_hop(
    net: &mut NetState,
    now: SimTime,
    host: HostId,
    iface: usize,
    rms: NetRmsId,
    params: &SharedParams,
) -> Result<(), String> {
    let force = net.config.debug_force_admission;
    let h = net.host_mut(host);
    if h.reservations.contains_key(&rms) {
        return Ok(());
    }
    let ledger = &mut h.ifaces[iface].ledger;
    let admitted = if force {
        ledger.force_admit(params)
    } else {
        ledger.admit(params)
    };
    let (reserved_bps, budget_bps) = (ledger.reserved_bps(), ledger.deterministic_budget_bps());
    let verdict = match admitted {
        Admission::Admitted => {
            h.reservations.insert(rms, (iface, params.clone()));
            Ok(())
        }
        Admission::Denied { detail } => Err(detail),
    };
    net.obs.emit(
        now,
        ObsEvent::AdmissionDecision {
            host: host.0,
            admitted: verdict.is_ok(),
            reserved_bps,
            budget_bps,
        },
    );
    verdict
}

fn release_local_and_send_release<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    peer: HostId,
) {
    let now = sim.now();
    let pin = release_hop(sim.state.net(), host, rms);
    let mut packet = Packet {
        src: host,
        dst: peer,
        kind: PacketKind::Release { rms },
        deadline: now,
        sent_at: now,
        corrupted: false,
        hops: 0,
        reliable: true,
        next_plan: None,
        source_route: None,
        next_hop: None,
    };
    // Tear down along the pinned path when we still have it, so the
    // release follows the reservations it is undoing even after routes
    // moved elsewhere.
    match pin {
        Some(route) => {
            packet.next_hop = Some(route.next_hop);
            enqueue_on(sim, host, route.iface, packet);
        }
        None => {
            route_and_enqueue(sim, host, packet);
        }
    }
}

/// Close an RMS from its sender side: releases reservations along the path
/// and notifies the receiver ([`NetRmsEvent::Closed`] at the peer).
pub fn close_rms<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
) -> Result<(), RmsError> {
    let peer = {
        let net = sim.state.net();
        let state = net
            .host_mut(host)
            .rms
            .remove(&rms)
            .ok_or(RmsError::UnknownStream)?;
        state.peer
    };
    release_local_and_send_release(sim, host, rms, peer);
    Ok(())
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

/// Send a message on a sending RMS endpoint.
///
/// `tx_deadline` is the transmission deadline used for queueing at every
/// hop (§4.1); it defaults to "now" (maximally urgent) and is clamped to be
/// monotone per stream, preserving in-order delivery (§4.3.1). `sent_at`
/// lets a higher layer date the delay clock from the original client send
/// operation; it defaults to now.
///
/// # Errors
///
/// [`RmsError`] if the stream is unknown, failed, not a sender endpoint, or
/// the message exceeds the maximum message size.
pub fn send_on_rms<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    msg: Message,
    tx_deadline: Option<SimTime>,
    sent_at: Option<SimTime>,
) -> Result<(), RmsError> {
    let now = sim.now();
    let (seq, params, plan, peer, deadline) = {
        let net = sim.state.net();
        let state = net
            .host_mut(host)
            .rms
            .get_mut(&rms)
            .ok_or(RmsError::UnknownStream)?;
        if state.role != RmsRole::Sender {
            return Err(RmsError::WrongDirection);
        }
        if state.failed {
            return Err(RmsError::Failed(FailReason::NetworkDown));
        }
        if msg.len() as u64 > state.params.max_message_size {
            return Err(RmsError::MessageTooLarge {
                size: msg.len() as u64,
                limit: state.params.max_message_size,
            });
        }
        let mut deadline = tx_deadline.unwrap_or(now);
        // §4.3.1: per-stream transmission deadlines must be monotone so the
        // network's deadline-ordered delivery preserves message order.
        if deadline < state.last_tx_deadline {
            deadline = state.last_tx_deadline;
        }
        state.last_tx_deadline = deadline;
        // Interfaces order packets by *delivery* deadline — the handoff
        // deadline plus this stream's own bound. This is what makes §2.5's
        // example work: a low-delay stream's packets overtake high-delay
        // packets "that would otherwise cause it to be delivered late",
        // even when both were handed over equally promptly. The offset is
        // evaluated at the maximum message size so it is constant per
        // stream, preserving the §4.3.1 ordering guarantee.
        let queue_deadline =
            deadline.saturating_add(state.params.delay.bound_for(state.params.max_message_size));
        (
            state.alloc_seq(),
            state.params.clone(),
            state.plan,
            state.peer,
            queue_deadline,
        )
    };
    let sent_at = sent_at.unwrap_or(now);
    let len = msg.len() as u64;
    emit(
        sim,
        ObsEvent::NetSend {
            host: host.0,
            rms: rms.0,
            bytes: len,
            span: msg.span,
        },
    );
    let cost = sim
        .state
        .net_ref()
        .config
        .per_packet_cpu
        .plus(plan.cost())
        .cost_for(len);
    // §4.1: a stage's deadline is the *current* real time plus the delay
    // allocated to the stage (not the origin time plus the total bound —
    // retransmissions would otherwise carry overdue deadlines and starve
    // everything else under EDF). Clamped monotone per stream so a short
    // message cannot overtake its predecessors.
    let cpu_deadline = {
        let d = now.saturating_add(params.delay.bound_for(len));
        let state = sim
            .state
            .net()
            .host_mut(host)
            .rms
            .get_mut(&rms)
            .expect("checked above");
        let d = d.max(state.last_send_job_deadline);
        state.last_send_job_deadline = d;
        d
    };
    // The packet waits for its CPU job parked, unsealed: the job's
    // continuation applies the stream's plan.
    let packet = Packet {
        src: host,
        dst: peer,
        kind: PacketKind::Data(DataPacket {
            rms,
            seq,
            source: msg.source,
            target: msg.target,
            span: msg.span,
            payload: msg.into_wire(),
            mac: None,
            checksum: None,
        }),
        deadline,
        sent_at,
        corrupted: false,
        hops: 0,
        reliable: params.reliability == Reliability::Reliable,
        next_plan: None,
        source_route: None,
        next_hop: None,
    };
    let slot = sim.state.net().parked.insert(packet);
    W::charge_cpu(
        sim,
        host,
        cost,
        cpu_deadline,
        rms.0,
        Call::new(transmit_parked::<W>, (host.0, u64::from(slot))),
    );
    Ok(())
}

/// A send's CPU job finished: seal the data packet parked at `slot` with
/// its stream's mechanisms and route it — unless the stream failed while
/// the job waited.
fn transmit_parked<W: NetWorld>(sim: &mut Sim<W>, (host, slot): Args) {
    let host = HostId(host);
    let mut packet = sim.state.net().parked.take(slot as u32);
    let PacketKind::Data(d) = &mut packet.kind else {
        unreachable!("only data packets wait for a send job")
    };
    let (plan, key) = match sim.state.net_ref().host(host).rms.get(&d.rms) {
        Some(s) if !s.failed => (s.plan, s.key),
        _ => return,
    };
    // Secured paths flatten the body once for the byte-stream transforms;
    // the common unsecured path forwards the sender's segments untouched.
    if plan.encrypt {
        d.payload = WireMsg::from_bytes(encrypt(key, d.seq, &d.payload.contiguous()));
    }
    if plan.mac {
        let context = d.seq ^ d.source.map(|l| l.0).unwrap_or(0).rotate_left(17);
        d.mac = Some(mac::sign(key, context, &d.payload.contiguous()).0);
    }
    d.checksum = plan
        .checksum
        .map(|alg| alg.compute(&d.payload.contiguous()));
    route_and_enqueue(sim, host, packet);
}

/// Send a raw datagram outside any RMS (the baseline primitive, §1).
/// Queued FIFO-equivalent (deadline = now) and never reserved for.
pub fn send_datagram<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    dst: HostId,
    proto: u16,
    payload: WireMsg,
) {
    let now = sim.now();
    let packet = Packet {
        src: host,
        dst,
        kind: PacketKind::Raw { proto, payload },
        deadline: now,
        sent_at: now,
        corrupted: false,
        hops: 0,
        reliable: false,
        next_plan: None,
        source_route: None,
        next_hop: None,
    };
    route_and_enqueue(sim, host, packet);
}

// ---------------------------------------------------------------------------
// Transmission machinery
// ---------------------------------------------------------------------------

/// Route `packet` out of `host` and enqueue it on the proper interface,
/// starting the transmitter if idle. Loopback destinations deliver
/// immediately. Returns `false` if the packet was dropped (no route or
/// queue overflow).
///
/// Resolution order: a pinned [`SourceRoute`] (creation traffic) wins, then
/// the per-RMS next-hop pin established at admission time (data and
/// release follow their reservations), then the host's first-hop table —
/// recomputed on demand if reconvergence marked it dirty.
pub fn route_and_enqueue<W: NetWorld>(sim: &mut Sim<W>, host: HostId, mut packet: Packet) -> bool {
    let now = sim.now();
    if !sim.state.net_ref().host(host).up {
        // A crashed host originates and forwards nothing.
        drop_packet(sim, host, DropCause::HostDown);
        return false;
    }
    if packet.dst == host {
        // Loopback: no wire involved.
        let args = park(sim, host, packet);
        sim.call_in(SimDuration::ZERO, arrive::<W>, args);
        return true;
    }
    let route = if let Some(sr) = packet.source_route.as_ref() {
        let net = sim.state.net_ref();
        sr.next_network()
            .and_then(|n| net.host(host).iface_on(n))
            .zip(sr.next_hop())
            .map(|(iface, next_hop)| Route { iface, next_hop })
    } else {
        let pinned = match &packet.kind {
            PacketKind::Data(d) => sim.state.net_ref().host(host).rms_next.get(&d.rms).copied(),
            PacketKind::Release { rms } => {
                sim.state.net_ref().host(host).rms_next.get(rms).copied()
            }
            _ => None,
        };
        pinned.or_else(|| {
            routing::ensure_host_routes(sim.state.net(), now, host);
            sim.state.net_ref().host(host).routes.get(packet.dst)
        })
    };
    let route = match route {
        Some(r) => r,
        None => {
            drop_packet(sim, host, DropCause::NoRoute);
            return false;
        }
    };
    // Freeze the next hop now: by the time the transmitter finishes, the
    // routing table may point somewhere not even on this network.
    packet.next_hop = Some(route.next_hop);
    enqueue_on(sim, host, route.iface, packet)
}

/// Enqueue `packet` on `host`'s interface `iface_idx` (no route lookup —
/// the caller resolved, pinned, or flooded). Handles stats, observability,
/// overflow quench, and kicks the transmitter. Returns `false` on overflow.
pub(crate) fn enqueue_on<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    iface_idx: usize,
    packet: Packet,
) -> bool {
    let now = sim.now();
    let (accepted, quench) = {
        let net = sim.state.net();
        let is_raw = matches!(packet.kind, PacketKind::Raw { .. });
        let src = packet.src;
        let proto = match &packet.kind {
            PacketKind::Raw { proto, .. } => *proto,
            _ => 0,
        };
        let dst = packet.dst;
        let span = packet.span();
        let ok = net.host_mut(host).ifaces[iface_idx].enqueue(now, packet);
        net.obs.emit(now, ObsEvent::NetPacketSent { host: host.0 });
        if ok {
            let iface = &net.host(host).ifaces[iface_idx];
            let (queued_packets, queued_bytes) = (iface.queued_packets(), iface.queued_bytes());
            net.obs.emit(
                now,
                ObsEvent::IfaceEnqueue {
                    host: host.0,
                    iface: iface_idx,
                    span,
                    queued_packets,
                    queued_bytes,
                },
            );
            (true, None)
        } else {
            net.obs.emit(
                now,
                ObsEvent::IfaceDrop {
                    host: host.0,
                    iface: iface_idx,
                },
            );
            let quench = (is_raw && src != host).then_some((src, proto, dst));
            (false, quench)
        }
    };
    if let Some((to, proto, dropped_dst)) = quench {
        send_quench(sim, host, to, proto, dropped_dst);
    }
    if accepted {
        start_tx(sim, host, iface_idx);
    }
    accepted
}

fn send_quench<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    to: HostId,
    proto: u16,
    dropped_dst: HostId,
) {
    let now = sim.now();
    emit(sim, ObsEvent::QuenchSent { host: host.0 });
    let packet = Packet {
        src: host,
        dst: to,
        kind: PacketKind::Quench { proto, dropped_dst },
        deadline: now,
        sent_at: now,
        corrupted: false,
        hops: 0,
        reliable: false,
        next_plan: None,
        source_route: None,
        next_hop: None,
    };
    route_and_enqueue(sim, host, packet);
}

/// Start transmitting from `host`'s interface `iface_idx` if it is idle and
/// has queued packets.
pub fn start_tx<W: NetWorld>(sim: &mut Sim<W>, host: HostId, iface_idx: usize) {
    let now = sim.now();
    let tx_time = {
        let net = sim.state.net();
        let iface = &mut net.host_mut(host).ifaces[iface_idx];
        if iface.is_busy() || iface.is_stalled(now) {
            // A stalled transmitter holds its queue; `stall_iface` schedules
            // the restart kick when the stall expires.
            return;
        }
        let packet = match iface.dequeue(now) {
            Some(p) => p,
            None => return,
        };
        let network_id = iface.network;
        let (queued_packets, queued_bytes) = (iface.queued_packets(), iface.queued_bytes());
        let bytes = packet.wire_bytes();
        let span = packet.span();
        let slot = net.parked.insert(packet);
        net.host_mut(host).ifaces[iface_idx].begin_tx(slot);
        let rate = net.network(network_id).spec.rate_bps;
        let tx_time = SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate);
        net.obs.emit(
            now,
            ObsEvent::IfaceDequeue {
                host: host.0,
                iface: iface_idx,
                span,
                queued_packets,
                queued_bytes,
            },
        );
        tx_time
    };
    sim.call_in(tx_time, finish_tx::<W>, (host.0, iface_idx as u64));
}

/// The call form of [`start_tx`]: `(host, iface index)`.
pub(crate) fn kick_tx<W: NetWorld>(sim: &mut Sim<W>, (host, iface_idx): Args) {
    start_tx(sim, HostId(host), iface_idx as usize);
}

/// The transmission on `(host, iface index)` finished: the packet leaves
/// the interface for the wire, and the transmitter moves on to the queue.
fn finish_tx<W: NetWorld>(sim: &mut Sim<W>, (host, iface_idx): Args) {
    let (host, iface_idx) = (HostId(host), iface_idx as usize);
    // Wire effects.
    let (mut packet, network_id, outcome, next_hop) = {
        let net = sim.state.net();
        let iface = &mut net.host_mut(host).ifaces[iface_idx];
        let network_id = iface.network;
        let slot = iface
            .end_tx()
            .expect("a finishing transmission has a packet");
        let packet = net.parked.take(slot);
        // Frozen at enqueue time: re-resolving from the routing table here
        // could name a host that is not even attached to this network.
        let next_hop = packet.next_hop;
        // Record what an eavesdropper on this network sees (flattened:
        // the wire carries a byte stream, not our segment bookkeeping).
        // Only pay for the flatten when a tap is actually installed.
        if net.network(network_id).wiretap.is_some() {
            if let PacketKind::Data(d) = &packet.kind {
                let payload = d.payload.contiguous();
                if let Some(tap) = net.network_mut(network_id).wiretap.as_mut() {
                    tap.push(payload);
                }
            }
        }
        let bytes = packet.wire_bytes();
        let reliable = packet.reliable;
        let crashed = !net.host(host).up;
        let partitioned = next_hop.is_some_and(|next| net.is_partitioned(host, next));
        let outcome = if crashed || partitioned {
            // The sender died mid-transmission, or a partition filter sits
            // between the two hosts: the packet never makes it across.
            WireOutcome::Lost
        } else {
            // Disjoint field borrows: the network (burst channel state)
            // mutates alongside the RNG.
            let NetState {
                ref mut rng,
                ref mut networks,
                ..
            } = *net;
            networks[network_id.0 as usize].sample_traversal(rng, bytes, reliable)
        };
        (packet, network_id, outcome, next_hop)
    };
    if !matches!(outcome, WireOutcome::Delivered { .. }) {
        emit(
            sim,
            ObsEvent::WireDrop {
                host: host.0,
                network: network_id.0,
            },
        );
    }
    match (outcome, next_hop) {
        (WireOutcome::Lost, _) | (_, None) => {}
        (WireOutcome::Delivered { delay }, Some(next)) => {
            deliver_or_divert(sim, host, next, delay, packet);
        }
        (WireOutcome::Corrupted { delay }, Some(next)) => {
            packet.corrupted = true;
            deliver_or_divert(sim, host, next, delay, packet);
        }
    }
    // Continue with the queue.
    start_tx(sim, host, iface_idx);
}

/// Hand a surviving packet to its next hop: scheduled locally in serial
/// execution, diverted into the shard outbox as a [`crate::shard::WireEnvelope`]
/// when `next` belongs to another logical process or when the world runs
/// in wire-divert mode (an external substrate carries its packets). Wire
/// effects (delay, corruption, ARQ) were already applied by the
/// transmitting side, so the envelope carries a finished traversal — the
/// receiving side just runs [`on_arrival`] at `deliver_at`.
fn deliver_or_divert<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    next: HostId,
    delay: SimDuration,
    packet: Packet,
) {
    if sim.state.net().wire_is_local(next) {
        let args = park(sim, next, packet);
        sim.call_in(delay, arrive::<W>, args);
        return;
    }
    let deliver_at = sim.now().saturating_add(delay);
    let shard = sim
        .state
        .net()
        .shard
        .as_mut()
        .expect("diverted next hop implies a shard context");
    let seq = shard.out_seq;
    shard.out_seq += 1;
    shard.outbox.push(crate::shard::WireEnvelope {
        deliver_at,
        src: host,
        seq,
        dst: next,
        packet,
    });
}

// ---------------------------------------------------------------------------
// Arrival / forwarding / per-kind handlers
// ---------------------------------------------------------------------------

/// Park `packet` until its arrival at `host`, returning the arrival call's
/// ids.
fn park<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) -> Args {
    (host.0, u64::from(sim.state.net().parked.insert(packet)))
}

/// The arrival call: the packet parked at `slot` reaches `host`.
fn arrive<W: NetWorld>(sim: &mut Sim<W>, (host, slot): Args) {
    let packet = sim.state.net().parked.take(slot as u32);
    on_arrival(sim, HostId(host), packet);
}

/// Inject a packet that another engine carried: it arrives at `host` at
/// `at`, ordered among co-timed arrivals by `key` (see
/// [`Sim::schedule_arrival`]). The parallel executor and the real-time
/// scheduler deliver wire envelopes through this, parked the same way as
/// a local wire hop.
pub fn inject_arrival<W: NetWorld>(
    sim: &mut Sim<W>,
    at: SimTime,
    key: u64,
    host: HostId,
    packet: Packet,
) {
    let args = park(sim, host, packet);
    sim.call_arrival(at, key, arrive::<W>, args);
}

/// A packet arrived at `host` (off the wire or via loopback).
pub fn on_arrival<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    if !sim.state.net_ref().host(host).up {
        // Packets addressed to (or through) a crashed host die on arrival.
        drop_packet(sim, host, DropCause::HostDown);
        return;
    }
    match &packet.kind {
        PacketKind::LinkStateAd { .. } => routing::handle_lsa(sim, host, packet),
        PacketKind::CreateReq { .. } => handle_create_req(sim, host, packet),
        PacketKind::CreateNak { .. } => handle_create_nak(sim, host, packet),
        PacketKind::Release { .. } => handle_release(sim, host, packet),
        _ if packet.dst != host => forward(sim, host, packet),
        PacketKind::Data(_) => handle_data(sim, host, packet),
        PacketKind::CreateAck { .. } => handle_create_ack(sim, host, packet),
        PacketKind::Invite { .. } => handle_invite(sim, host, packet),
        PacketKind::Raw { .. } => {
            let (proto, payload) = match packet.kind {
                PacketKind::Raw { proto, payload } => (proto, payload),
                _ => unreachable!(),
            };
            W::deliver_datagram(sim, host, packet.src, proto, payload, packet.sent_at);
        }
        PacketKind::Quench { .. } => {
            let (proto, dropped_dst) = match packet.kind {
                PacketKind::Quench { proto, dropped_dst } => (proto, dropped_dst),
                _ => unreachable!(),
            };
            W::deliver_quench(sim, host, proto, dropped_dst);
        }
    }
}

/// Count a packet `host` discards, with its cause.
fn drop_packet<W: NetWorld>(sim: &mut Sim<W>, host: HostId, cause: DropCause) {
    emit(
        sim,
        ObsEvent::Drop {
            host: host.0,
            cause,
        },
    );
}

fn forward<W: NetWorld>(sim: &mut Sim<W>, host: HostId, mut packet: Packet) {
    packet.hops += 1;
    if packet.hops > TTL {
        drop_packet(sim, host, DropCause::Ttl);
        return;
    }
    // A source-routed packet arriving here finished the hop it was
    // traveling; advance the cursor to the next leg.
    if let Some(sr) = packet.source_route.as_mut() {
        sr.next += 1;
    }
    route_and_enqueue(sim, host, packet);
}

/// Build the reverse of `sr` as seen from the host at `sr.hops[at_index]`
/// (or, for the receiver endpoint, the final hop): the path back to
/// `creator` over exactly the networks the request traveled, so ACKs and
/// NAKs retrace the reservations they confirm or undo.
fn reverse_route(sr: &SourceRoute, at_index: usize, creator: HostId) -> SourceRoute {
    let mut hops = Vec::with_capacity(at_index + 1);
    let mut networks = Vec::with_capacity(at_index + 1);
    for j in (0..at_index).rev() {
        hops.push(sr.hops[j]);
        networks.push(sr.networks[j + 1]);
    }
    hops.push(creator);
    networks.push(sr.networks[0]);
    SourceRoute {
        hops,
        networks,
        next: 0,
    }
}

fn handle_create_req<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    // Take the packet apart by value: the kind's params and path move out
    // once instead of being cloned just to destructure.
    let Packet {
        src,
        dst,
        kind,
        deadline,
        sent_at,
        corrupted,
        hops,
        reliable,
        next_plan,
        source_route,
        next_hop: _,
    } = packet;
    let (token, rms, params, mut path, invite) = match kind {
        PacketKind::CreateReq {
            token,
            rms,
            params,
            path,
            invite,
        } => (token, rms, params, path, invite),
        _ => unreachable!(),
    };
    let (plan, key) = next_plan.unwrap_or((MechanismPlan::NONE, Key(0)));

    if dst == host {
        // Receiver endpoint. Idempotent: a retry of an already-accepted
        // request just re-acks.
        let is_new = !sim.state.net_ref().host(host).rms.contains_key(&rms);
        if is_new {
            let endpoint = NetRms::new(
                rms,
                RmsRole::Receiver,
                src,
                params.clone(),
                plan,
                key,
                path.clone(),
            );
            sim.state.net().host_mut(host).rms.insert(rms, endpoint);
        }
        let now = sim.now();
        // Retrace the request's own path so the confirmation cannot be
        // detoured by a concurrent route change.
        let back = source_route
            .as_ref()
            .map(|sr| reverse_route(sr, sr.next, src));
        let ack = Packet {
            src: host,
            dst: src,
            kind: PacketKind::CreateAck {
                token,
                rms,
                path: path.clone(),
                invite,
            },
            deadline: now,
            sent_at: now,
            corrupted: false,
            hops: 0,
            reliable: true,
            next_plan: None,
            source_route: back,
            next_hop: None,
        };
        route_and_enqueue(sim, host, ack);
        if is_new {
            // If this answers our invite, resolve it.
            if let Some(inv_token) = invite {
                if let Some(inv) = sim.state.net().host_mut(host).invites.remove(&inv_token) {
                    if let Some(t) = inv.timer {
                        t.cancel();
                    }
                }
            }
            W::rms_event(
                sim,
                host,
                NetRmsEvent::InboundCreated {
                    rms,
                    peer: src,
                    params,
                    invite,
                },
            );
        }
        return;
    }

    // Intermediate hop: reserve on the outbound interface named by the
    // creator's source route and forward. The creator pinned the path; the
    // next leg must exist, be up, and be reachable from one of our
    // interfaces.
    let now = sim.now();
    let verdict = {
        let net = sim.state.net();
        let next = source_route.as_ref().and_then(|sr| {
            let next_idx = sr.next + 1;
            match (sr.networks.get(next_idx), sr.hops.get(next_idx)) {
                (Some(&n), Some(&h)) if !net.network(n).down => net
                    .host(host)
                    .iface_on(n)
                    .map(|iface| Route { iface, next_hop: h }),
                _ => None,
            }
        });
        match next {
            None => Err(NakReason::NoRoute),
            Some(route) => admit_hop(net, now, host, route.iface, rms, &params)
                .map(|()| route)
                .map_err(|_| NakReason::Admission),
        }
    };
    match verdict {
        Ok(route) => {
            let net = sim.state.net();
            // Pin this stream's forwarding so data and teardown follow the
            // reservation even after reconvergence moves the table.
            net.host_mut(host).rms_next.insert(rms, route);
            let network = net.host(host).ifaces[route.iface].network;
            path.push(network);
            if hops < TTL {
                let fwd_route = source_route.map(|mut sr| {
                    sr.next += 1;
                    sr
                });
                let fwd = Packet {
                    src,
                    dst,
                    kind: PacketKind::CreateReq {
                        token,
                        rms,
                        params,
                        path,
                        invite,
                    },
                    deadline,
                    sent_at,
                    corrupted,
                    hops: hops + 1,
                    reliable,
                    next_plan: Some((plan, key)),
                    source_route: fwd_route,
                    next_hop: None,
                };
                route_and_enqueue(sim, host, fwd);
            } else {
                drop_packet(sim, host, DropCause::Ttl);
            }
        }
        Err(reason) => {
            // Our own partial state must not outlive the refusal: a retry
            // may have reserved here on an earlier attempt.
            release_hop(sim.state.net(), host, rms);
            let back = source_route
                .as_ref()
                .map(|sr| reverse_route(sr, sr.next, src));
            let nak = Packet {
                src: host,
                dst: src,
                kind: PacketKind::CreateNak {
                    token,
                    rms,
                    reason,
                    invite,
                },
                deadline: now,
                sent_at: now,
                corrupted: false,
                hops: 0,
                reliable: true,
                next_plan: None,
                source_route: back,
                next_hop: None,
            };
            route_and_enqueue(sim, host, nak);
        }
    }
}

fn handle_create_nak<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    // All interesting fields are `Copy`; match by reference so the packet
    // stays whole for the forwarding case below.
    let (token, rms, reason) = match &packet.kind {
        PacketKind::CreateNak {
            token, rms, reason, ..
        } => (*token, *rms, *reason),
        _ => unreachable!(),
    };
    // Every hop holding a reservation for this stream releases it (and
    // drops its forwarding pin).
    release_hop(sim.state.net(), host, rms);
    if packet.dst != host {
        forward(sim, host, packet);
        return;
    }
    // At the creator: walk to the next alternate if the refusal is the kind
    // another path might not repeat (admission pressure, a dead hop);
    // otherwise report failure.
    let retryable = matches!(reason, NakReason::Admission | NakReason::NoRoute);
    if retryable {
        let advanced = {
            let net = sim.state.net();
            match net.host_mut(host).pending.get_mut(&token) {
                Some(p) if p.alt_idx + 1 < p.alternates.len() => {
                    p.alt_idx += 1;
                    p.attempts = 0;
                    let c = &p.alternates[p.alt_idx];
                    p.params = c.params.clone();
                    p.plan = c.plan;
                    if let Some(t) = p.timer.take() {
                        t.cancel();
                    }
                    true
                }
                _ => false,
            }
        };
        if advanced {
            start_create_attempt(sim, host, token);
            return;
        }
    }
    if let Some(p) = sim.state.net().host_mut(host).pending.remove(&token) {
        if let Some(t) = p.timer {
            t.cancel();
        }
        W::rms_event(
            sim,
            host,
            NetRmsEvent::CreateFailed {
                token,
                reason: nak_to_reject(reason),
            },
        );
    }
}

fn handle_release<W: NetWorld>(sim: &mut Sim<W>, host: HostId, mut packet: Packet) {
    let rms = match packet.kind {
        PacketKind::Release { rms } => rms,
        _ => unreachable!(),
    };
    // Capture the forwarding pin before tearing down: the release must
    // chase the reservations along the path they were made on.
    let pin = release_hop(sim.state.net(), host, rms);
    if packet.dst != host {
        packet.hops += 1;
        if packet.hops > TTL {
            drop_packet(sim, host, DropCause::Ttl);
            return;
        }
        match pin {
            Some(route) => {
                packet.next_hop = Some(route.next_hop);
                enqueue_on(sim, host, route.iface, packet);
            }
            None => {
                route_and_enqueue(sim, host, packet);
            }
        }
        return;
    }
    if sim.state.net().host_mut(host).rms.remove(&rms).is_some() {
        W::rms_event(sim, host, NetRmsEvent::Closed { rms });
    }
}

fn handle_create_ack<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    // The ack is consumed here; move the path out instead of cloning it.
    let (token, rms, path) = match packet.kind {
        PacketKind::CreateAck {
            token, rms, path, ..
        } => (token, rms, path),
        _ => unreachable!(),
    };
    let pending = match sim.state.net().host_mut(host).pending.remove(&token) {
        Some(p) => p,
        None => return, // duplicate ack
    };
    if let Some(t) = pending.timer {
        t.cancel();
    }
    // Record when a fallback path (not the shortest candidate) carried the
    // establishment to completion.
    if pending
        .alternates
        .get(pending.alt_idx)
        .is_some_and(|c| !c.is_primary)
    {
        emit(
            sim,
            ObsEvent::RoutingAlternateWin {
                host: host.0,
                alternate: pending.alt_idx as u32,
            },
        );
    }
    // The plan and key were chosen at request time and carried to the
    // receiver; adopt the same ones here.
    let endpoint = NetRms::new(
        rms,
        RmsRole::Sender,
        pending.peer,
        pending.params.clone(),
        pending.plan,
        pending.key,
        path,
    );
    sim.state.net().host_mut(host).rms.insert(rms, endpoint);
    let event = if pending.invite.is_some() {
        NetRmsEvent::SenderCreatedByInvite {
            rms,
            peer: pending.peer,
            params: pending.params,
        }
    } else {
        NetRmsEvent::Created {
            token,
            rms,
            params: pending.params,
        }
    };
    W::rms_event(sim, host, event);
}

fn handle_invite<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let inviter = packet.src;
    let (token, params) = match packet.kind {
        PacketKind::Invite { token, params } => (token, params),
        _ => unreachable!(),
    };
    // Already answering this invite? Then this is a retransmitted invite.
    let already = sim
        .state
        .net_ref()
        .host(host)
        .pending
        .values()
        .any(|p| p.invite == Some(token));
    if already {
        return;
    }
    // Resolve candidates for the data direction (us -> inviter); a
    // fresh negotiation per path keeps each alternate's parameters honest.
    let request = RmsRequest::exact((*params).clone());
    let Ok(alternates) = routing::candidate_paths(sim.state.net_ref(), host, inviter, &request)
    else {
        // No viable path back: let the inviter's own retry/timeout decide.
        return;
    };
    let net = sim.state.net();
    let local_token = net.alloc_token();
    let rms = net.alloc_rms_id();
    let key = Key(net.rng.next_u64());
    let route_gen = net.route_generation;
    let first = &alternates[0];
    let (params, plan) = (first.params.clone(), first.plan);
    net.host_mut(host).pending.insert(
        local_token,
        PendingCreate {
            rms,
            peer: inviter,
            params,
            attempts: 0,
            timer: None,
            invite: Some(token),
            plan,
            key,
            request,
            alternates,
            alt_idx: 0,
            route_gen,
        },
    );
    start_create_attempt(sim, host, local_token);
    // (Invite-answering creates have no caller waiting on the token, so a
    // synchronous first attempt is fine here.)
}

fn handle_data<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let PacketKind::Data(data) = &packet.kind else {
        unreachable!()
    };
    let rms = data.rms;
    let (plan, params) = {
        let net = sim.state.net();
        match net.host(host).rms.get(&rms) {
            Some(s) if s.role == RmsRole::Receiver && !s.failed => (s.plan, s.params.clone()),
            _ => return, // unknown/failed/wrong-role: silently dropped
        }
    };
    let len = data.payload.len() as u64;
    emit(
        sim,
        ObsEvent::NetRecv {
            host: host.0,
            rms: rms.0,
            seq: data.seq,
            span: data.span,
        },
    );
    let cost = sim
        .state
        .net_ref()
        .config
        .per_packet_cpu
        .plus(plan.cost())
        .cost_for(len);
    let cpu_deadline = {
        let now = sim.now();
        let d = now.saturating_add(params.delay.bound_for(len));
        let state = sim
            .state
            .net()
            .host_mut(host)
            .rms
            .get_mut(&rms)
            .expect("checked above");
        let d = d.max(state.last_recv_job_deadline);
        state.last_recv_job_deadline = d;
        d
    };
    let slot = sim.state.net().parked.insert(packet);
    W::charge_cpu(
        sim,
        host,
        cost,
        cpu_deadline,
        rms.0,
        Call::new(deliver_parked::<W>, (host.0, u64::from(slot))),
    );
}

/// A receive's CPU job finished: verify, order and deliver the data packet
/// parked at `slot`.
fn deliver_parked<W: NetWorld>(sim: &mut Sim<W>, (host, slot): Args) {
    let packet = sim.state.net().parked.take(slot as u32);
    let PacketKind::Data(data) = packet.kind else {
        unreachable!("only data packets wait for a receive job")
    };
    deliver_data(sim, HostId(host), data, packet.corrupted, packet.sent_at);
}

fn deliver_data<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    data: DataPacket,
    corrupted: bool,
    sent_at: SimTime,
) {
    let now = sim.now();
    let DataPacket {
        rms: rms_id,
        seq,
        mut payload,
        source,
        target,
        mac: tag,
        checksum,
        span,
    } = data;
    // Stage 1: verification + ordering, against the endpoint state. The
    // head is the arriving message when it is deliverable now; `drained`
    // holds what it releases from the reorder buffer (almost always
    // nothing, so it never allocates).
    let mut head: Option<Message> = None;
    let mut drained: Vec<(u64, Message, SimTime)> = Vec::new();
    let mut failed_stream = false;
    {
        let net = sim.state.net();
        let Some(state) = net.host_mut(host).rms.get_mut(&rms_id) else {
            return;
        };
        if state.failed {
            return;
        }
        let plan = state.plan;
        let key = state.key;

        // Integrity: a corrupted packet is caught by checksum or MAC when
        // present; otherwise it is delivered corrupted (§2.2's error-rate
        // contract covers this case).
        if corrupted {
            if plan.checksum.is_some() || plan.mac {
                state.stats.corrupt_dropped.incr();
                state.stats.lost.incr();
                return;
            }
            // Visible, deterministic corruption of the delivered bytes.
            let mut v = payload.contiguous().to_vec();
            if let Some(b) = v.first_mut() {
                *b ^= 0xff;
            }
            payload = WireMsg::from(v);
            state.stats.corrupt_delivered.incr();
        } else {
            // Authentication: verify tag and source label (§2.1). The
            // byte-stream transforms flatten once; unsecured streams (the
            // common case) never take these branches.
            if plan.mac {
                let context = seq ^ source.map(|l| l.0).unwrap_or(0).rotate_left(17);
                let ok = tag
                    .map(|m| mac::verify(key, context, &payload.contiguous(), mac::Tag(m)))
                    .unwrap_or(false);
                if !ok {
                    state.stats.corrupt_dropped.incr();
                    return;
                }
            }
            if let (Some(alg), Some(sum)) = (plan.checksum, checksum) {
                if !alg.verify(&payload.contiguous(), sum) {
                    state.stats.corrupt_dropped.incr();
                    state.stats.lost.incr();
                    return;
                }
            }
        }
        if plan.encrypt {
            payload = WireMsg::from_bytes(decrypt(key, seq, &payload.contiguous()));
        }

        // Ordering (§2 property 2: delivered in sequence).
        let reliable = state.params.reliability == Reliability::Reliable;
        if state.is_stale(seq) {
            state.stats.stale_dropped.incr();
            return;
        }
        let expected = state.last_delivered.map_or(0, |l| l + 1);
        let mk_msg = |payload: WireMsg| {
            let mut m = Message::from_wire(payload);
            m.source = source;
            m.target = target;
            m.span = span;
            m
        };
        if reliable {
            if seq == expected {
                head = Some(mk_msg(payload));
                state.last_delivered = Some(seq);
                // Drain the reorder buffer.
                while let Some(next) = state.last_delivered.map(|l| l + 1) {
                    match state.reorder.remove(&next) {
                        Some(b) => {
                            let mut m = Message::from_wire(b.payload);
                            m.source = b.source;
                            m.target = b.target;
                            m.span = b.span;
                            drained.push((next, m, b.sent_at));
                            state.last_delivered = Some(next);
                        }
                        None => break,
                    }
                }
            } else {
                state.reorder.insert(
                    seq,
                    Buffered {
                        payload,
                        source,
                        target,
                        sent_at,
                        span,
                    },
                );
                if state.reorder.len() > REORDER_FAIL_THRESHOLD {
                    state.failed = true;
                    failed_stream = true;
                }
            }
        } else {
            // Unreliable: deliver newest-in-order; count the gap as loss.
            let gap = seq.saturating_sub(expected);
            state.stats.lost.add(gap);
            state.last_delivered = Some(seq);
            head = Some(mk_msg(payload));
        }

        // Per-delivery stats.
        let head = head.as_ref().map(|m| (m, sent_at));
        for (msg, s_at) in head
            .into_iter()
            .chain(drained.iter().map(|(_, m, t)| (m, *t)))
        {
            state.stats.delivered.incr();
            let delay = now.saturating_since(s_at);
            if delay > state.params.delay.bound_for(msg.len() as u64) {
                state.stats.late.incr();
            }
        }
    }
    if failed_stream {
        W::rms_event(
            sim,
            host,
            NetRmsEvent::Failed {
                rms: rms_id,
                reason: FailReason::GuaranteeViolated,
            },
        );
        return;
    }
    // Stage 2: hand off to the world.
    let head = head.map(|msg| (seq, msg, sent_at));
    for (seq, msg, s_at) in head.into_iter().chain(drained) {
        emit(
            sim,
            ObsEvent::NetPacketDelivered {
                host: host.0,
                rms: rms_id.0,
                seq,
                span: msg.span,
            },
        );
        let info = DeliveryInfo {
            sent_at: s_at,
            delivered_at: now,
            stream: rms_id.0,
            seq,
        };
        W::deliver_up(sim, host, rms_id, msg, info);
    }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

/// Bring a network down: in-flight and future packets on it are lost, and
/// every RMS whose path traverses it fails with
/// [`FailReason::NetworkDown`] (§2 property 3: "clients are notified of an
/// RMS failure").
///
/// Reconvergence is event-driven and scoped: tables are only marked dirty
/// (lazily recomputed at first use) and the hosts that witnessed the
/// failure — those attached to the dead network — re-flood their link
/// state so the rest of the internetwork learns the new headroom picture.
pub fn fail_network<W: NetWorld>(sim: &mut Sim<W>, network: NetworkId) {
    let now = sim.now();
    let mut failures: Vec<(HostId, NetRmsId)> = Vec::new();
    {
        let net = sim.state.net();
        if net.network(network).down {
            return;
        }
        net.network_mut(network).down = true;
        for host in &mut net.hosts {
            for (id, state) in host.rms.iter_mut() {
                if !state.failed && state.path.contains(&network) {
                    state.failed = true;
                    failures.push((host.id, *id));
                }
            }
        }
        // `NetHost::rms` is a HashMap: sort so notification order (and thus
        // everything downstream of it) is identical across runs of a seed.
        failures.sort_by_key(|(h, r)| (h.0, r.0));
        routing::mark_routes_dirty(net, now);
        net.obs
            .emit(now, ObsEvent::NetworkFailed { network: network.0 });
    }
    // Scoped re-flood from the failure's witnesses (`attached` is in build
    // order, ascending, so flood order is deterministic).
    let witnesses: Vec<HostId> = {
        let net = sim.state.net_ref();
        net.network(network)
            .attached
            .iter()
            .copied()
            .filter(|h| net.host(*h).up)
            .collect()
    };
    for h in witnesses {
        routing::flood_from(sim, h);
    }
    for (host, rms) in failures {
        W::rms_event(
            sim,
            host,
            NetRmsEvent::Failed {
                rms,
                reason: FailReason::NetworkDown,
            },
        );
    }
    W::network_event(sim, network, false);
}

/// Restore a failed network. Existing RMSs stay failed (clients must create
/// new ones, §4.4); new creations will succeed again. Upper layers hear
/// about the recovery through [`NetWorld::network_event`]. Like
/// [`fail_network`], reconvergence is scoped: dirty tables plus a re-flood
/// from the restored network's attached hosts.
pub fn restore_network<W: NetWorld>(sim: &mut Sim<W>, network: NetworkId) {
    let now = sim.now();
    {
        let net = sim.state.net();
        if !net.network(network).down {
            return;
        }
        net.network_mut(network).down = false;
        routing::mark_routes_dirty(net, now);
        net.obs
            .emit(now, ObsEvent::NetworkRestored { network: network.0 });
    }
    let witnesses: Vec<HostId> = {
        let net = sim.state.net_ref();
        net.network(network)
            .attached
            .iter()
            .copied()
            .filter(|h| net.host(*h).up)
            .collect()
    };
    for h in witnesses {
        routing::flood_from(sim, h);
    }
    W::network_event(sim, network, true);
}
