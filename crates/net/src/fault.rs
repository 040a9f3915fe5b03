//! Applying [`FaultPlan`]s to a live network simulation.
//!
//! [`dash_sim::fault`] describes *what* goes wrong and when; this module
//! knows *how* each fault lands on the network state: dead networks fail
//! RMSs and reroute (§2 property 3), partitions filter the wire, burst
//! models replace i.i.d. loss, stalls freeze transmitters, a host crash
//! empties the host's transmit queues, ends every RMS whose path touches
//! it and answers the creates and invites it drops, and timer jitter
//! perturbs the engine's schedule. An RMS a fault ends leaves no record
//! anywhere: every hop gives back its reservation and pin, and both ends
//! are removed and fail ([`crate::pipeline::fail_network`]'s walk, which
//! both faults share). Every application is announced as an
//! [`ObsEvent::FaultInjected`] so chaos harnesses can account for
//! injected faults in the metric registry.

use dash_sim::engine::Sim;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::obs::ObsEvent;
use dash_sim::time::SimDuration;
use rms_core::error::{FailReason, RejectReason};

use crate::ids::{HostId, NetRmsId, NetworkId};
use crate::pipeline::{
    fail_cut, fail_network, give_up_create, give_up_invite, kick_tx, reconverge, restore_network,
    witnesses_on,
};
use crate::routing::{self, Leg};
use crate::state::{emit, NetWorld};

/// Schedule every event of `plan` against the simulation. Events fire at
/// their recorded times in plan order (ties broken by scheduling sequence,
/// which is deterministic).
pub fn schedule_fault_plan<W: NetWorld>(sim: &mut Sim<W>, plan: &FaultPlan) {
    for ev in &plan.events {
        let kind = ev.kind.clone();
        sim.schedule_at(ev.at, move |sim| apply_fault(sim, &kind));
    }
}

/// Apply a single fault to the network right now.
pub fn apply_fault<W: NetWorld>(sim: &mut Sim<W>, kind: &FaultKind) {
    emit(sim, ObsEvent::FaultInjected { kind: kind.name() });
    match kind {
        FaultKind::NetworkDown { network } => fail_network(sim, NetworkId(*network)),
        FaultKind::NetworkUp { network } => restore_network(sim, NetworkId(*network)),
        FaultKind::Partition { a, b } => {
            sim.state.net().partition(HostId(*a), HostId(*b));
            // Partitions filter the wire, not the graph (SPF ignores
            // them), but a re-flood refreshes the headroom picture so
            // constrained selection reacts.
            routing::flood_from(sim, HostId(*a));
            routing::flood_from(sim, HostId(*b));
        }
        FaultKind::HealPartition { a, b } => {
            sim.state.net().heal_partition(HostId(*a), HostId(*b));
            routing::flood_from(sim, HostId(*a));
            routing::flood_from(sim, HostId(*b));
        }
        FaultKind::BurstLossStart { network, model } => {
            sim.state.net().network_mut(NetworkId(*network)).burst = Some(model.clone());
        }
        FaultKind::BurstLossEnd { network } => {
            sim.state.net().network_mut(NetworkId(*network)).burst = None;
        }
        FaultKind::IfaceStall {
            host,
            network,
            duration,
        } => stall_iface(sim, HostId(*host), NetworkId(*network), *duration),
        FaultKind::HostCrash { host } => crash_host(sim, HostId(*host)),
        FaultKind::HostRestart { host } => restart_host(sim, HostId(*host)),
        FaultKind::TimerJitter { seed, max } => sim.set_schedule_jitter(*seed, *max),
    }
}

/// Freeze the transmitter `host` has on `network` for `duration`. Queued
/// packets wait (nothing is dropped by the stall itself) and transmission
/// resumes automatically when the stall lifts.
pub fn stall_iface<W: NetWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    network: NetworkId,
    duration: SimDuration,
) {
    let now = sim.now();
    let until = now.saturating_add(duration);
    let net = sim.state.net();
    let Some(idx) = net.host(host).iface_on(network) else {
        return;
    };
    let iface = &mut net.host_mut(host).ifaces[idx];
    if until > iface.stalled_until {
        iface.stalled_until = until;
    }
    // Kick the transmitter back to life once the stall expires; start_tx
    // is a no-op if a concurrent transmission already restarted it.
    sim.call_at(until, kick_tx::<W>, (host.0, idx as u64));
}

/// Crash `host`: its transmit queues are discarded, every RMS whose path
/// touches the host — its own, its peers' toward it, and every RMS routed
/// through it — ends: every hop gives back its reservation and pin, and
/// both ends are removed and fail with [`FailReason::ResourcesRevoked`].
/// Routing tables are marked dirty so the crashed host is no longer used
/// as transit (its up neighbours re-flood to spread the word), and a hop
/// refuses a request whose path enters it, so one still on its way is
/// NAKed back hop by hop. Its creation attempts and invites are abandoned
/// and answered after the endpoint failures, in ascending id order: a
/// create with [`crate::state::NetRmsEvent::CreateFailed`], an invite
/// with [`crate::state::NetRmsEvent::InviteFailed`], both `NoRoute`,
/// since a crashed host routes nothing, and the host keeps no record of
/// any RMS. Idempotent.
pub fn crash_host<W: NetWorld>(sim: &mut Sim<W>, host: HostId) {
    let net = sim.state.net();
    let h = net.host_mut(host);
    if !h.up {
        return;
    }
    h.up = false;
    for iface in &mut h.ifaces {
        // Pending finish_tx events still fire; they see the host down,
        // treat the packet as lost, and release the transmitter.
        iface.clear();
    }
    let mut dropped: Vec<NetRmsId> = h.pending.keys().chain(h.invites.keys()).copied().collect();
    dropped.sort_unstable();
    // The witnesses are the crashed host's up neighbours, each once, in
    // ascending order.
    let ifaces = &net.host(host).ifaces;
    let mut witnesses: Vec<HostId> = (ifaces.iter())
        .flat_map(|iface| witnesses_on(net, iface.network))
        .collect();
    witnesses.sort_unstable();
    witnesses.dedup();
    let event = ObsEvent::HostCrashed { host: host.0 };
    let touches = |creator, path: &[Leg]| creator == host || path.iter().any(|leg| leg.to == host);
    let reason = FailReason::ResourcesRevoked;
    fail_cut(sim, event, &witnesses, reason, touches);
    // Each routine passes over an id that names none of its records.
    for rms in dropped {
        give_up_create(sim, host, rms, RejectReason::NoRoute);
        give_up_invite(sim, host, rms, RejectReason::NoRoute);
    }
}

/// Bring a crashed host back. It starts empty: [`crash_host`] ended every
/// RMS it had a part in and answered its creation attempts and invites,
/// so it holds no endpoint, reservation, pin, create or invite. Routing
/// may use the host as transit again once it re-announces itself by
/// flooding fresh link state. Idempotent.
pub fn restart_host<W: NetWorld>(sim: &mut Sim<W>, host: HostId) {
    let h = sim.state.net().host_mut(host);
    if h.up {
        return;
    }
    h.up = true;
    reconverge(sim, ObsEvent::HostRestarted { host: host.0 }, &[host]);
}
