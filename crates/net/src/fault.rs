//! Applying [`FaultPlan`]s to a live network simulation.
//!
//! [`dash_sim::fault`] describes *what* goes wrong and when; this module
//! knows *how* each fault lands on the network state: dead networks fail
//! RMSs and reroute (§2 property 3), partitions filter the wire, burst
//! models replace i.i.d. loss, stalls freeze transmitters, host crashes
//! wipe per-host protocol state, and timer jitter perturbs the engine's
//! schedule. Every application is announced as an
//! [`ObsEvent::FaultInjected`] so chaos harnesses can account for injected
//! faults in the metric registry.

use dash_sim::engine::Sim;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::obs::ObsEvent;
use dash_sim::time::SimDuration;
use rms_core::error::FailReason;

use crate::ids::{HostId, NetRmsId, NetworkId};
use crate::pipeline::{fail_network, kick_tx, restore_network};
use crate::routing;
use crate::state::{emit, NetRmsEvent, NetWorld};

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

/// Crash `host`: its transmit queues are discarded, its creation attempts
/// and invites are abandoned (timers cancelled), every local RMS endpoint
/// fails with [`FailReason::ResourcesRevoked`], and routing tables are
/// marked dirty so the crashed host is no longer used as transit (its
/// neighbours re-flood to spread the word). Idempotent.
pub fn crash_host<W: NetWorld>(sim: &mut Sim<W>, host: HostId) {
    let now = sim.now();
    let mut failures: Vec<NetRmsId> = Vec::new();
    {
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
        for (_, p) in h.pending.drain() {
            if let Some(t) = p.timer {
                t.cancel();
            }
        }
        for (_, i) in h.invites.drain() {
            if let Some(t) = i.timer {
                t.cancel();
            }
        }
        for (id, st) in h.rms.iter_mut() {
            if !st.failed {
                st.failed = true;
                failures.push(*id);
            }
        }
        // `rms` is a HashMap: sort the notifications for deterministic
        // replay.
        failures.sort();
        routing::mark_routes_dirty(net, now);
        net.obs.emit(now, ObsEvent::HostCrashed { host: host.0 });
    }
    // The crashed host's up neighbours witnessed the failure: they
    // re-flood (ascending host order for deterministic replay).
    let witnesses: Vec<HostId> = {
        let net = sim.state.net_ref();
        let mut seen = std::collections::BTreeSet::new();
        for iface in &net.host(host).ifaces {
            for peer in &net.network(iface.network).attached {
                if *peer != host && net.host(*peer).up {
                    seen.insert(*peer);
                }
            }
        }
        seen.into_iter().collect()
    };
    for w in witnesses {
        routing::flood_from(sim, w);
    }
    for rms in failures {
        W::rms_event(
            sim,
            host,
            NetRmsEvent::Failed {
                rms,
                reason: FailReason::ResourcesRevoked,
            },
        );
    }
}

/// Bring a crashed host back. Its protocol state starts empty (RMSs lost
/// in the crash stay failed); routing may use it as transit again once it
/// re-announces itself by flooding fresh link state. Idempotent.
pub fn restart_host<W: NetWorld>(sim: &mut Sim<W>, host: HostId) {
    let now = sim.now();
    {
        let net = sim.state.net();
        let h = net.host_mut(host);
        if h.up {
            return;
        }
        h.up = true;
        routing::mark_routes_dirty(net, now);
        net.obs.emit(now, ObsEvent::HostRestarted { host: host.0 });
    }
    routing::flood_from(sim, host);
}
