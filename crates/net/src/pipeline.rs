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

use crate::ids::{HostId, NetRmsId, NetworkId};
use crate::network::WireOutcome;
use crate::packet::{DataPacket, Direction, NakReason, Packet, PacketKind, SourceRoute};
use crate::rms::{NetRms, RmsRole, REORDER_FAIL_THRESHOLD};
use crate::routing::{self, CandidatePath, Leg, Path};
use crate::state::{
    emit, Hold, NetRmsEvent, NetState, NetWorld, PendingCreate, PendingInvite, Route,
    CREATE_RETRIES, CREATE_TIMEOUT, TTL,
};

// ---------------------------------------------------------------------------
// Path-wide negotiation helpers
// ---------------------------------------------------------------------------

/// Combine the service tables of every network along `path` (store-and-
/// forward: fixed and per-byte delays add, capacities take the minimum,
/// error rates accumulate, the weakest kind wins). Only combinations
/// supported by *every* hop survive. Folds hop by hop into one table.
pub fn combined_service_table(net: &NetState, path: &[Leg]) -> ServiceTable {
    let Some((first, rest)) = path.split_first() else {
        return ServiceTable::new();
    };
    let mut out = net.network(first.network).service_table().clone();
    for leg in rest {
        let hop = net.network(leg.network).service_table();
        out.retain_mut(|rel, sec, acc| {
            let Some(l) = hop.limits(rel, sec) else {
                return false;
            };
            acc.min_fixed_delay = acc.min_fixed_delay.saturating_add(l.min_fixed_delay);
            acc.min_per_byte_delay = acc.min_per_byte_delay.saturating_add(l.min_per_byte_delay);
            acc.max_capacity = acc.max_capacity.min(l.max_capacity);
            acc.max_message_size = acc.max_message_size.min(l.max_message_size);
            let combined_ber =
                (acc.min_error_rate.rate() + l.min_error_rate.rate()).clamp(0.0, 1.0);
            acc.min_error_rate = BitErrorRate::new(combined_ber).expect("valid combined rate");
            acc.max_kind_strength = acc.max_kind_strength.min(l.max_kind_strength);
            true
        });
    }
    out
}

/// Combine the security capabilities of the networks `path` crosses: the
/// conservative intersection (everything must be trusted for the path to
/// be trusted; the raw error rates accumulate).
pub fn combined_capabilities(net: &NetState, path: &[Leg]) -> NetworkCapabilities {
    let mut caps = NetworkCapabilities {
        trusted: true,
        link_encryption: true,
        hardware_checksum: true,
        physical_broadcast: true,
        raw_ber: 0.0,
    };
    for leg in path {
        let c = net.network(leg.network).spec.caps;
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
/// failing outright. Returns the RMS id allocated for the stream; the
/// result arrives asynchronously as a [`NetRmsEvent::Created`] /
/// [`NetRmsEvent::CreateFailed`] naming it.
///
/// # Errors
///
/// Fails synchronously if `creator` is crashed, there is no route, or
/// negotiation cannot succeed on any candidate path.
pub fn create_rms<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<NetRmsId, RmsError> {
    if creator == peer || !sim.state.net_ref().host(creator).up {
        return Err(RmsError::CreationRejected(RejectReason::NoRoute));
    }
    let alternates = routing::candidate_paths(sim.state.net_ref(), creator, peer, request)?;
    let net = sim.state.net();
    let rms = net.alloc_rms_id();
    begin_create(net, creator, rms, peer, false, request.clone(), alternates);
    // Deferred so the caller records the returned id before any
    // failure/success event can fire.
    sim.call_in(SimDuration::ZERO, create_attempt::<W>, (creator.0, rms.0));
    Ok(rms)
}

/// File the record of a create `creator` starts toward `peer` under `rms`,
/// at the first of its `alternates`, and draw the stream key the receiver
/// will be given.
fn begin_create(
    net: &mut NetState,
    creator: HostId,
    rms: NetRmsId,
    peer: HostId,
    invite: bool,
    request: RmsRequest,
    alternates: Vec<CandidatePath>,
) {
    let key = Key(net.rng.next_u64());
    let route_gen = net.route_generation;
    net.host_mut(creator).pending.insert(
        rms,
        PendingCreate {
            peer,
            attempts: 0,
            timer: None,
            invite,
            key,
            request,
            alternates,
            alt_idx: 0,
            route_gen,
        },
    );
}

/// Create a network RMS with `creator` as the data **receiver** (§2.4: the
/// creator may act as either end). Sends an `Invite`; the peer initiates
/// the reserving `CreateReq` back toward us, under the RMS id allocated
/// here and returned. Completion surfaces as
/// [`NetRmsEvent::InboundCreated`] with `invite` set (or
/// [`NetRmsEvent::InviteFailed`]).
///
/// # Errors
///
/// Fails synchronously if `creator` is crashed, there is no route, or
/// negotiation cannot succeed.
pub fn create_rms_as_receiver<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<NetRmsId, RmsError> {
    if creator == peer || !sim.state.net_ref().host(creator).up {
        return Err(RmsError::CreationRejected(RejectReason::NoRoute));
    }
    // Data flows peer -> creator; negotiate along that direction.
    let path = sim
        .state
        .net_ref()
        .path(peer, creator)
        .ok_or(RmsError::CreationRejected(RejectReason::NoRoute))?;
    let table = combined_service_table(sim.state.net_ref(), &path);
    let params = negotiate(&table, request)?.shared();

    let rms = sim.state.net().alloc_rms_id();
    sim.state.net().host_mut(creator).invites.insert(
        rms,
        PendingInvite {
            peer,
            params: params.clone(),
            timer: None,
            attempts: 0,
        },
    );
    sim.call_in(SimDuration::ZERO, invite_attempt::<W>, (creator.0, rms.0));
    Ok(rms)
}

/// The call form of [`start_invite_attempt`]: `(creator, rms)`.
fn invite_attempt<W: NetWorld>(sim: &mut Sim<W>, (creator, rms): Args) {
    start_invite_attempt(sim, HostId(creator), NetRmsId(rms));
}

/// The call form of [`start_create_attempt`]: `(creator, rms)`.
fn create_attempt<W: NetWorld>(sim: &mut Sim<W>, (creator, rms): Args) {
    start_create_attempt(sim, HostId(creator), NetRmsId(rms));
}

fn start_invite_attempt<W: NetWorld>(sim: &mut Sim<W>, creator: HostId, rms: NetRmsId) {
    let now = sim.now();
    let (peer, params, attempts) = {
        let inv = match sim.state.net().host_mut(creator).invites.get_mut(&rms) {
            Some(i) => i,
            None => return,
        };
        inv.attempts += 1;
        (inv.peer, inv.params.clone(), inv.attempts)
    };
    if attempts > CREATE_RETRIES {
        give_up_invite(sim, creator, rms, RejectReason::Timeout);
        return;
    }
    let packet = Packet::control(creator, peer, PacketKind::Invite { rms, params }, now);
    route_and_enqueue(sim, creator, packet);
    // Retry while the invite is still pending (the CreateReq arriving at
    // us removes it).
    let timer = sim.call_timer(CREATE_TIMEOUT, invite_attempt::<W>, (creator.0, rms.0));
    if let Some(inv) = sim.state.net().host_mut(creator).invites.get_mut(&rms) {
        inv.timer = Some(timer);
    } else {
        timer.cancel();
    }
}

fn start_create_attempt<W: NetWorld>(sim: &mut Sim<W>, creator: HostId, rms: NetRmsId) {
    let now = sim.now();
    let net = sim.state.net();
    let route_gen = net.route_generation;
    let Some(p) = net.host_mut(creator).pending.get_mut(&rms) else {
        return;
    };
    p.attempts += 1;
    let (peer, attempts) = (p.peer, p.attempts);
    if attempts > CREATE_RETRIES {
        // Give up: clean any partial reservations and report.
        release_local_and_send_release(sim, creator, rms, peer);
        give_up_create(sim, creator, rms, RejectReason::Timeout);
        return;
    }

    // A retry timer may fire after the topology changed under us (network
    // death, host crash): candidate paths captured at create time can then
    // name dead first hops. Detect staleness via the route generation and
    // re-resolve alternates from the original request instead of blindly
    // resending into a black hole.
    if p.route_gen != route_gen {
        let request = p.request.clone();
        release_hop(net, creator, rms);
        match routing::candidate_paths(net, creator, peer, &request) {
            Ok(alternates) => {
                let p = net.host_mut(creator).pending.get_mut(&rms).expect("filed");
                p.alternates = alternates;
                p.alt_idx = 0;
                p.route_gen = route_gen;
            }
            Err(err) => {
                let reason = match err {
                    RmsError::CreationRejected(r) => r,
                    _ => RejectReason::NoRoute,
                };
                give_up_create(sim, creator, rms, reason);
                return;
            }
        }
    }

    // Walk the alternates from the current cursor, taking our own first
    // leg's reservation step like every hop does, and advance past
    // candidates a fault has cut or whose first leg refuses admission.
    let mut admission_detail = None;
    loop {
        let p = &sim.state.net_ref().host(creator).pending[&rms];
        let Some(c) = p.alternates.get(p.alt_idx) else {
            let reason = match admission_detail {
                Some(detail) => RejectReason::AdmissionDenied { detail },
                None => RejectReason::NoRoute,
            };
            give_up_create(sim, creator, rms, reason);
            return;
        };
        let (path, params) = (c.path.clone(), c.params.clone());
        match reserve_leg(sim, creator, rms, creator, &path, 0, &params) {
            Ok(_) => break,
            Err(detail) => {
                admission_detail = detail.or(admission_detail);
                let p = sim.state.net().host_mut(creator).pending.get_mut(&rms);
                p.expect("filed").alt_idx += 1;
            }
        }
    }

    let net = sim.state.net();
    let p = &net.host(creator).pending[&rms];
    let c = &p.alternates[p.alt_idx];
    // Announce the pinned source route (creator first) so an external
    // oracle can check the chosen alternate is loop-free. The one guarded
    // emit: the hop list costs an allocation per creation.
    let pinned: Option<Vec<u32>> = (net.obs.is_active()).then(|| {
        std::iter::once(creator.0)
            .chain(c.path.iter().map(|l| l.to.0))
            .collect()
    });
    let kind = PacketKind::CreateReq {
        rms,
        params: c.params.clone(),
        invite: p.invite,
    };
    let source_route = SourceRoute {
        path: c.path.clone(),
        next: 0,
        direction: Direction::Forward,
    };
    let packet = Packet {
        next_plan: Some((c.plan, p.key)),
        source_route: Some(source_route),
        ..Packet::control(creator, peer, kind, now)
    };
    if let Some(hops) = pinned {
        let event = ObsEvent::RoutingPathPinned {
            host: creator.0,
            hops,
        };
        net.obs.emit(now, event);
    }
    route_and_enqueue(sim, creator, packet);
    let timer = sim.call_timer(CREATE_TIMEOUT, create_attempt::<W>, (creator.0, rms.0));
    if let Some(p) = sim.state.net().host_mut(creator).pending.get_mut(&rms) {
        p.timer = Some(timer);
    } else {
        timer.cancel();
    }
}

/// Give up the create `creator` started under `rms`, if it is still
/// pending: drop its record, cancel its retry timer and tell the creator
/// (§2 property 3: once). Releasing what the attempt reserved is the
/// caller's step.
pub(crate) fn give_up_create<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    rms: NetRmsId,
    reason: RejectReason,
) {
    let Some(p) = sim.state.net().host_mut(creator).pending.remove(&rms) else {
        return;
    };
    if let Some(t) = p.timer {
        t.cancel();
    }
    W::rms_event(sim, creator, NetRmsEvent::CreateFailed { rms, reason });
}

/// [`give_up_create`] for an invite `creator` sent under `rms`.
pub(crate) fn give_up_invite<W: NetWorld>(
    sim: &mut Sim<W>,
    creator: HostId,
    rms: NetRmsId,
    reason: RejectReason,
) {
    let Some(inv) = sim.state.net().host_mut(creator).invites.remove(&rms) else {
        return;
    };
    if let Some(t) = inv.timer {
        t.cancel();
    }
    W::rms_event(sim, creator, NetRmsEvent::InviteFailed { rms, reason });
}

/// One hop's step of establishment, the same at the creator's first hop
/// and at every transit hop: `host` takes leg `at` of the `path` that
/// `creator` chose for `rms`, which must leave from one of `host`'s
/// interfaces on a path no fault has cut ([`is_whole`]); admission (§2.3,
/// [`admit_hop`]) then reserves `params` there, and `rms` is pinned to the
/// leg so data and teardown follow the reservation even after
/// reconvergence moves the table. A refused leg leaves nothing held here
/// and says why: `None` when there is no usable leg, the ledger's
/// explanation when admission refused.
fn reserve_leg<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    rms: NetRmsId,
    creator: HostId,
    path: &Path,
    at: usize,
    params: &SharedParams,
) -> Result<(), Option<String>> {
    let now = sim.now();
    let net = sim.state.net();
    let route = path
        .get(at)
        .filter(|_| is_whole(net, path))
        .and_then(|leg| {
            let iface = net.host(host).iface_on(leg.network)?;
            Some(Route {
                iface,
                next_hop: leg.to,
            })
        });
    let verdict = match route {
        Some(route) => {
            let hold = Hold {
                params: params.clone(),
                route,
                creator,
                path: path.clone(),
            };
            admit_hop(net, now, host, rms, hold).map_err(Some)
        }
        None => Err(None),
    };
    if verdict.is_err() {
        release_hop(net, host, rms);
    }
    verdict
}

/// Whether no fault has cut `path`: each leg crosses an up network into an
/// up host. Its last host, the peer, may be down, since a crashed host
/// forwards nothing but a create's retries may outlast its peer's
/// restart. Every world applies every fault, so any host can tell.
fn is_whole(net: &NetState, path: &[Leg]) -> bool {
    let last = path.len().saturating_sub(1);
    path.iter().enumerate().all(|(i, leg)| {
        (net.networks.get(leg.network.0 as usize)).is_some_and(|n| !n.down)
            && (i == last || net.hosts.get(leg.to.0 as usize).is_some_and(|h| h.up))
    })
}

/// Release `host`'s hold on `rms`, if it has one: its reservation goes
/// back to the ledger and its forwarding pin is returned (teardown
/// follows it).
fn release_hop(net: &mut NetState, host: HostId, rms: NetRmsId) -> Option<Route> {
    let h = net.host_mut(host);
    let hold = h.holds.remove(&rms)?;
    h.ifaces[hold.route.iface].ledger.release(&hold.params);
    Some(hold.route)
}

/// One hop's admission (§2.3): reserve `hold.params` for `rms` on
/// `host`'s outbound interface `hold.route.iface` and file `hold`,
/// idempotently — a retry that finds the hold on the same interface moves
/// only the pin and the path, without asking the ledger again. A retry
/// along another leg gives the old reservation back first: the
/// reservation moves with the pin, and the new leg's ledger decides. A
/// fresh decision is announced; a refusal returns the ledger's
/// explanation.
fn admit_hop(
    net: &mut NetState,
    now: SimTime,
    host: HostId,
    rms: NetRmsId,
    hold: Hold,
) -> Result<(), String> {
    if let Some(held) = net.host_mut(host).holds.get_mut(&rms) {
        if held.route.iface == hold.route.iface {
            held.route = hold.route;
            held.path = hold.path;
            return Ok(());
        }
        release_hop(net, host, rms);
    }
    let force = net.config.debug_force_admission;
    let h = net.host_mut(host);
    let ledger = &mut h.ifaces[hold.route.iface].ledger;
    let admitted = if force {
        ledger.force_admit(&hold.params)
    } else {
        ledger.admit(&hold.params)
    };
    let (reserved_bps, budget_bps) = (ledger.reserved_bps(), ledger.deterministic_budget_bps());
    let verdict = match admitted {
        Admission::Admitted => {
            h.holds.insert(rms, hold);
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
    let packet = Packet::control(host, peer, PacketKind::Release { rms }, now);
    send_release(sim, host, pin, packet);
}

/// Send a `Release` on from `host` along the pin its stream had here, so
/// teardown follows the reservations it is undoing even after routes
/// moved elsewhere; by table when there was none.
fn send_release<W: NetWorld>(sim: &mut Sim<W>, host: HostId, pin: Option<Route>, packet: Packet) {
    match pin {
        Some(route) => {
            let packet = Packet {
                next_hop: Some(route.next_hop),
                ..packet
            };
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
/// [`RmsError`] if the stream is unknown (a failed or closed stream is
/// gone), not a sender endpoint, or the message exceeds the maximum
/// message size.
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
/// its stream's mechanisms and route it — unless the stream failed or
/// closed while the job waited, which drops it.
fn transmit_parked<W: NetWorld>(sim: &mut Sim<W>, (host, slot): Args) {
    let host = HostId(host);
    let mut packet = sim.state.net().parked.take(slot as u32);
    let PacketKind::Data(d) = &mut packet.kind else {
        unreachable!("only data packets wait for a send job")
    };
    let (plan, key) = match sim.state.net_ref().host(host).rms.get(&d.rms) {
        Some(s) => (s.plan, s.key),
        None => return drop_packet(sim, host, DropCause::NoRms),
    };
    // Encryption flattens the body once, since it writes a new buffer
    // anyway; the MAC and the checksum read the segments in place.
    if plan.encrypt {
        d.payload = WireMsg::from_bytes(encrypt(key, d.seq, &d.payload.contiguous()));
    }
    if plan.mac {
        let context = d.seq ^ d.source.map(|l| l.0).unwrap_or(0).rotate_left(17);
        d.mac = Some(mac::sign_segments(key, context, d.payload.segments().map(|s| &s[..])).0);
    }
    d.checksum = plan
        .checksum
        .map(|alg| alg.compute_segments(d.payload.segments().map(|s| &s[..])));
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
        reliable: false,
        ..Packet::control(host, dst, PacketKind::Raw { proto, payload }, now)
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
        sr.leg(sr.next, packet.dst).and_then(|leg| {
            let iface = sim.state.net_ref().host(host).iface_on(leg.network)?;
            Some(Route {
                iface,
                next_hop: leg.to,
            })
        })
    } else {
        let rms = match &packet.kind {
            PacketKind::Data(d) => Some(&d.rms),
            PacketKind::Release { rms } => Some(rms),
            _ => None,
        };
        let holds = &sim.state.net_ref().host(host).holds;
        let pinned = rms.and_then(|rms| holds.get(rms)).map(|hold| hold.route);
        pinned.or_else(|| {
            let net = sim.state.net();
            routing::ensure_host_routes(net, now, host);
            net.routes(host).get(packet.dst)
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
        reliable: false,
        ..Packet::control(host, to, PacketKind::Quench { proto, dropped_dst }, now)
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
/// [`Sim::call_arrival`]). The parallel executor and the real-time
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

fn handle_create_req<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let PacketKind::CreateReq {
        rms, ref params, ..
    } = packet.kind
    else {
        unreachable!()
    };
    // Only a forged request lacks the route.
    let Some(sr) = packet.source_route.as_ref() else {
        return drop_packet(sim, host, DropCause::NoRoute);
    };
    // The peer opens its end on a path no fault has cut; a transit hop
    // takes the reservation step on the next leg of the creator's source
    // route and forwards the request in place. Either may refuse.
    let verdict = if packet.dst != host {
        reserve_leg(sim, host, rms, packet.src, &sr.path, sr.next + 1, params)
    } else if is_whole(sim.state.net_ref(), &sr.path) {
        return accept_create_req(sim, host, packet);
    } else {
        Err(None)
    };
    match verdict {
        Ok(()) => forward(sim, host, packet),
        Err(detail) => {
            let reason = match detail {
                Some(_) => NakReason::Admission,
                None => NakReason::NoRoute,
            };
            let nak = PacketKind::CreateNak { rms, reason };
            answer_creator(sim, host, packet.src, sr, nak);
        }
    }
}

/// Answer a `CreateReq` from `host` to its creator `src`, walking the
/// request's source route `sr` back from here so the answer cannot be
/// detoured by a concurrent route change.
fn answer_creator<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    src: HostId,
    sr: &SourceRoute,
    kind: PacketKind,
) {
    let now = sim.now();
    let source_route = SourceRoute {
        path: sr.path.clone(),
        next: 0,
        direction: Direction::Back { from: sr.next },
    };
    let packet = Packet {
        source_route: Some(source_route),
        ..Packet::control(host, src, kind, now)
    };
    route_and_enqueue(sim, host, packet);
}

/// A request reached its receiver: open the receiving endpoint, once (a
/// retry of a request whose endpoint is live is just re-acked; one whose
/// endpoint failed meanwhile finds it gone and opens a fresh one), and
/// confirm.
fn accept_create_req<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let src = packet.src;
    let PacketKind::CreateReq {
        rms,
        params,
        invite,
    } = packet.kind
    else {
        unreachable!()
    };
    let sr = packet.source_route.as_ref().expect("checked on arrival");
    let is_new = !sim.state.net_ref().host(host).rms.contains_key(&rms);
    if is_new {
        let (plan, key) = packet.next_plan.unwrap_or((MechanismPlan::NONE, Key(0)));
        let path = sr.path.clone();
        let endpoint = NetRms::new(rms, RmsRole::Receiver, src, params.clone(), plan, key, path);
        sim.state.net().host_mut(host).rms.insert(rms, endpoint);
    }
    answer_creator(sim, host, src, sr, PacketKind::CreateAck { rms });
    if !is_new {
        return;
    }
    // If this answers our invite, resolve it.
    if invite {
        if let Some(inv) = sim.state.net().host_mut(host).invites.remove(&rms) {
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

fn handle_create_nak<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    // All interesting fields are `Copy`; match by reference so the packet
    // stays whole for the forwarding case below.
    let PacketKind::CreateNak { rms, reason } = packet.kind else {
        unreachable!()
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
            match net.host_mut(host).pending.get_mut(&rms) {
                Some(p) if p.alt_idx + 1 < p.alternates.len() => {
                    p.alt_idx += 1;
                    p.attempts = 0;
                    if let Some(t) = p.timer.take() {
                        t.cancel();
                    }
                    true
                }
                _ => false,
            }
        };
        if advanced {
            start_create_attempt(sim, host, rms);
            return;
        }
    }
    give_up_create(sim, host, rms, nak_to_reject(reason));
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
        send_release(sim, host, pin, packet);
        return;
    }
    if sim.state.net().host_mut(host).rms.remove(&rms).is_some() {
        W::rms_event(sim, host, NetRmsEvent::Closed { rms });
    }
}

fn handle_create_ack<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let PacketKind::CreateAck { rms } = packet.kind else {
        unreachable!()
    };
    // Only the stream's peer answers its request; anything else is a
    // duplicate (the create already finished) or not ours to accept. An
    // answer that was past the break when a fault cut its path finds the
    // creator's hold given back, and the create's retry re-resolves.
    let h = sim.state.net().host_mut(host);
    if !h.holds.contains_key(&rms) || h.pending.get(&rms).is_none_or(|p| p.peer != packet.src) {
        return;
    }
    let mut pending = h.pending.remove(&rms).expect("checked above");
    if let Some(t) = pending.timer {
        t.cancel();
    }
    // Record when a fallback path (not the shortest candidate) carried the
    // establishment to completion.
    let c = pending.alternates.swap_remove(pending.alt_idx);
    if !c.is_primary {
        emit(
            sim,
            ObsEvent::RoutingAlternateWin {
                host: host.0,
                alternate: pending.alt_idx as u32,
            },
        );
    }
    // The chosen alternate's path, plan and the key were carried to the
    // receiver at request time; adopt the same ones here.
    let (peer, params) = (pending.peer, c.params);
    let endpoint = NetRms::new(
        rms,
        RmsRole::Sender,
        peer,
        params.clone(),
        c.plan,
        pending.key,
        c.path,
    );
    sim.state.net().host_mut(host).rms.insert(rms, endpoint);
    let event = if pending.invite {
        NetRmsEvent::SenderCreatedByInvite { rms, peer, params }
    } else {
        NetRmsEvent::Created { rms, params }
    };
    W::rms_event(sim, host, event);
}

fn handle_invite<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let inviter = packet.src;
    let PacketKind::Invite { rms, params } = packet.kind else {
        unreachable!()
    };
    // A retransmitted invite we are answering (or have answered) names a
    // stream this host already knows.
    let h = sim.state.net_ref().host(host);
    if inviter == host || h.pending.contains_key(&rms) || h.rms.contains_key(&rms) {
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
    begin_create(
        sim.state.net(),
        host,
        rms,
        inviter,
        true,
        request,
        alternates,
    );
    // Nobody waits on the id of an invite-answering create, so the first
    // attempt runs synchronously.
    start_create_attempt(sim, host, rms);
}

fn handle_data<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let PacketKind::Data(data) = &packet.kind else {
        unreachable!()
    };
    let rms = data.rms;
    let (plan, params) = {
        let net = sim.state.net();
        match net.host(host).rms.get(&rms) {
            Some(s) if s.role == RmsRole::Receiver => (s.plan, s.params.clone()),
            _ => return drop_packet(sim, host, DropCause::NoRms),
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
    let mut dropped = None;
    'verify: {
        let net = sim.state.net();
        let Some(state) = net.host_mut(host).rms.get_mut(&rms_id) else {
            // The stream failed or closed while the receive job waited.
            dropped = Some(DropCause::NoRms);
            break 'verify;
        };
        let plan = state.plan;
        let key = state.key;

        // Integrity: a corrupted packet is caught by checksum or MAC when
        // present; otherwise it is delivered corrupted (§2.2's error-rate
        // contract covers this case).
        if corrupted {
            if plan.checksum.is_some() || plan.mac {
                state.stats.lost.incr();
                dropped = Some(DropCause::Corrupt);
                break 'verify;
            }
            // Visible, deterministic corruption of the delivered bytes.
            let mut v = payload.contiguous().to_vec();
            if let Some(b) = v.first_mut() {
                *b ^= 0xff;
            }
            payload = WireMsg::from(v);
            state.stats.corrupt_delivered.incr();
        } else {
            // Authentication: verify tag and source label (§2.1). The MAC
            // and the checksum read the segments in place; unsecured
            // streams (the common case) never take these branches.
            let segments = || payload.segments().map(|s| &s[..]);
            if plan.mac {
                let context = seq ^ source.map(|l| l.0).unwrap_or(0).rotate_left(17);
                let ok = tag
                    .map(|m| mac::sign_segments(key, context, segments()) == mac::Tag(m))
                    .unwrap_or(false);
                if !ok {
                    dropped = Some(DropCause::Corrupt);
                    break 'verify;
                }
            }
            if let (Some(alg), Some(sum)) = (plan.checksum, checksum) {
                if alg.compute_segments(segments()) != sum {
                    state.stats.lost.incr();
                    dropped = Some(DropCause::Corrupt);
                    break 'verify;
                }
            }
        }
        if plan.encrypt {
            payload = WireMsg::from_bytes(decrypt(key, seq, &payload.contiguous()));
        }

        // Ordering (§2 property 2: delivered in sequence).
        let reliable = state.params.reliability == Reliability::Reliable;
        if state.is_stale(seq) {
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
                    let Some((m, s_at)) = state.reorder.remove(&next) else {
                        break;
                    };
                    drained.push((next, m, s_at));
                    state.last_delivered = Some(next);
                }
            } else {
                state.reorder.insert(seq, (mk_msg(payload), sent_at));
                failed_stream = state.reorder.len() > REORDER_FAIL_THRESHOLD;
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
    if let Some(cause) = dropped {
        return drop_packet(sim, host, cause);
    }
    if failed_stream {
        report_failed(sim, &mut [(host, rms_id)], FailReason::GuaranteeViolated);
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
/// every RMS whose path traverses it ends: every hop gives back what it
/// held for it, and both ends fail with
/// [`FailReason::NetworkDown`] (§2 property 3: "clients are notified of an
/// RMS failure").
///
/// Reconvergence is event-driven and scoped: tables are only marked dirty
/// (lazily recomputed at first use) and the hosts that witnessed the
/// failure — those attached to the dead network — re-flood their link
/// state so the rest of the internetwork learns the new headroom picture.
pub fn fail_network<W: NetWorld>(sim: &mut Sim<W>, network: NetworkId) {
    let net = sim.state.net();
    if net.network(network).down {
        return;
    }
    net.network_mut(network).down = true;
    let witnesses = witnesses_on(net, network);
    let event = ObsEvent::NetworkFailed { network: network.0 };
    let crosses = |_, path: &[Leg]| path.iter().any(|leg| leg.network == network);
    fail_cut(sim, event, &witnesses, FailReason::NetworkDown, crosses);
    W::network_event(sim, network, false);
}

/// Restore a failed network. The RMSs it failed are gone (clients must
/// create new ones, §4.4); new creations will succeed again. Upper layers
/// hear about the recovery through [`NetWorld::network_event`]. Like
/// [`fail_network`], reconvergence is scoped: dirty tables plus a re-flood
/// from the restored network's attached hosts.
pub fn restore_network<W: NetWorld>(sim: &mut Sim<W>, network: NetworkId) {
    let net = sim.state.net();
    if !net.network(network).down {
        return;
    }
    net.network_mut(network).down = false;
    let witnesses = witnesses_on(net, network);
    let event = ObsEvent::NetworkRestored { network: network.0 };
    reconverge(sim, event, &witnesses);
    W::network_event(sim, network, true);
}

/// The up hosts attached to `network`, in build order (ascending): the
/// witnesses of a change to it.
pub(crate) fn witnesses_on(net: &NetState, network: NetworkId) -> Vec<HostId> {
    (net.network(network).attached.iter().copied())
        .filter(|h| net.host(*h).up)
        .collect()
}

/// Reconverge after the fault or recovery `event` announces: every host's
/// table is marked dirty (bumping the route generation, so a create retry
/// re-resolves its alternates), the event is emitted, and each of
/// `witnesses` re-floods its link state, in the order given.
pub(crate) fn reconverge<W: NetWorld>(sim: &mut Sim<W>, event: ObsEvent, witnesses: &[HostId]) {
    let now = sim.now();
    let net = sim.state.net();
    routing::mark_routes_dirty(net, now);
    net.obs.emit(now, event);
    for &host in witnesses {
        routing::flood_from(sim, host);
    }
}

/// End every RMS record the fault `event` cuts: `cuts(creator, path)`
/// says whether it cuts an RMS `creator` established along `path`. Each
/// host is judged by its own records alone, since a `dash-par` replica
/// has the holds of a transit host but not the endpoints. First every
/// hold the cut covers is given back ([`release_hop`]: reservation and
/// pin), so the witnesses' floods and every upcall see the freed
/// headroom; then the routes reconverge ([`reconverge`] with `event` and
/// `witnesses`), and every endpoint the cut covers is removed and its
/// owner told that it failed for `reason` ([`report_failed`]).
pub(crate) fn fail_cut<W: NetWorld>(
    sim: &mut Sim<W>,
    event: ObsEvent,
    witnesses: &[HostId],
    reason: FailReason,
    cuts: impl Fn(HostId, &[Leg]) -> bool,
) {
    let net = sim.state.net();
    let (mut holds, mut failed) = (Vec::new(), Vec::new());
    for h in &net.hosts {
        let held = (h.holds.iter()).filter(|(_, hold)| cuts(hold.creator, &hold.path));
        holds.extend(held.map(|(rms, _)| (h.id, *rms)));
        let ends = (h.rms.iter()).filter(|(_, end)| cuts(end.creator(h.id), &end.path));
        failed.extend(ends.map(|(rms, _)| (h.id, *rms)));
    }
    // Ascending, so a ledger's sum does not depend on hash-map order.
    holds.sort_unstable();
    for (host, rms) in holds {
        release_hop(net, host, rms);
    }
    reconverge(sim, event, witnesses);
    report_failed(sim, &mut failed, reason);
}

/// Remove each endpoint in `failed`, then tell its owner that it failed
/// for `reason` (§2 property 3), in ascending `(host, rms)` order:
/// endpoints are collected from hash maps, and replay must not depend on
/// their iteration order. A failed endpoint keeps no record, so nothing
/// is sent or delivered on it afterwards.
pub(crate) fn report_failed<W: NetWorld>(
    sim: &mut Sim<W>,
    failed: &mut [(HostId, NetRmsId)],
    reason: FailReason,
) {
    failed.sort_unstable();
    let net = sim.state.net();
    for &(host, rms) in &*failed {
        net.host_mut(host).rms.remove(&rms);
    }
    for &(host, rms) in &*failed {
        W::rms_event(sim, host, NetRmsEvent::Failed { rms, reason });
    }
}
