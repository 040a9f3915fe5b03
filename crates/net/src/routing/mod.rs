//! Distributed QoS routing: link-state dissemination, constrained
//! multipath selection, and admission-aware re-routing.
//!
//! The original reproduction computed one static shortest-hop table
//! out-of-band at build time and rebuilt it globally on failure. This
//! module replaces that with a routing *subsystem*:
//!
//! - **Dissemination** ([`lsdb`], [`flood_from`]): hosts flood
//!   sequence-numbered, TTL-bounded [`lsdb::LinkStateAd`] control packets
//!   (overflow-exempt and link-ARQ'd like all control traffic) carrying
//!   per-interface static delay, capacity, and residual admission headroom
//!   sampled from the interface ledgers. Floods are triggered by fault
//!   events, use deterministic per-interface/per-peer order, and apply
//!   split horizon on the arrival network so cost stays linear.
//! - **Computation** ([`spf`]): a deterministic shortest-hop table for
//!   datagram forwarding plus up to [`spf::K_ALTERNATES`] loop-free
//!   alternate paths per destination with a fixed `(length, hop sequence)`
//!   tie-break, filtered per-request by negotiating the `A + B·size` delay
//!   bound and capacity demand against each path's combined service table.
//! - **Admission-aware establishment** ([`candidate_paths`] +
//!   `pipeline::create_rms`): RMS creation walks the alternates in order —
//!   advertised-headroom-sufficient paths first — and falls back to the
//!   next one on a creation NAK instead of failing outright.
//! - **On-demand tables and event-driven reconvergence**
//!   ([`mark_routes_dirty`] + [`ensure_host_routes`]): a host's graph and
//!   first-hop table are built when first read and dropped whenever its
//!   LSDB or the availability flags change; fault events bump a route
//!   generation and trigger scoped re-floods, and the next table-routed
//!   packet at each host records the reconvergence latency in the
//!   `routing.recompute_latency` histogram.
//!
//! Determinism: the LSDB is an origin-indexed table, flood order follows interface
//! and attachment order, sequence numbers deduplicate re-floods, and every
//! tie-break is total — replays are byte-identical.

pub mod lsdb;
pub mod spf;

pub use lsdb::{LinkInfo, LinkStateAd, Lsdb};
pub use spf::{k_paths, primary_routes, AltPath, K_ALTERNATES};

use std::sync::Arc;

use dash_sim::engine::Sim;
use dash_sim::obs::ObsEvent;
use dash_sim::time::SimTime;
use rms_core::bandwidth::implied_bandwidth;
use rms_core::compat::{negotiate, RmsRequest};
use rms_core::delay::DelayBoundKind;
use rms_core::error::{RejectReason, RmsError};
use rms_core::params::RmsParams;

use dash_security::suite::{select_mechanisms, MechanismPlan};

use crate::ids::{HostId, NetworkId};
use crate::packet::{Packet, PacketKind};
use crate::pipeline::{combined_capabilities, combined_service_table, enqueue_on};
use crate::state::{NetState, NetWorld, TTL};

/// One leg of a [`Path`]: the network crossed and the host it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// The network crossed.
    pub network: NetworkId,
    /// The host reached.
    pub to: HostId,
}

/// A path from a network RMS's creator (its data sender) to its peer: the
/// legs in order, the creator not listed. Route computation builds each
/// path once, in one allocation ([`k_paths`], [`NetState::path`]); the
/// create attempt, the request and answers that walk it
/// ([`crate::packet::SourceRoute`]) and both endpoints of the RMS it
/// carries share that one value.
pub type Path = Arc<[Leg]>;

/// One viable alternate for an RMS creation: the path, the parameters and
/// security plan negotiated against *that* path, and its ranking inputs.
#[derive(Debug, Clone)]
pub struct CandidatePath {
    /// The path, creator to peer.
    pub path: Path,
    /// Parameters negotiated against this path's combined service table.
    pub params: rms_core::params::SharedParams,
    /// Security mechanisms selected for this path's combined capabilities.
    pub plan: MechanismPlan,
    /// Smallest advertised admission headroom along the path, bytes/s.
    pub min_headroom_bps: f64,
    /// True for the pure `(length, hops)` shortest path: establishing on
    /// any other candidate counts as a `routing.alternate_wins`.
    pub is_primary: bool,
}

/// Average bandwidth a stream with `params` will load its path with,
/// bytes/s — the quantity admission control reserves (deterministic) or
/// records (statistical). Used to rank candidates against advertised
/// headroom.
pub fn demand_bps(params: &RmsParams) -> f64 {
    match &params.delay.kind {
        DelayBoundKind::Deterministic => implied_bandwidth(params),
        DelayBoundKind::Statistical(spec) => spec.average_load,
        DelayBoundKind::BestEffort => 0.0,
    }
}

/// Snapshot `host`'s local link state (per-interface static figures plus
/// the current admission headroom of each ledger).
pub fn local_links(state: &NetState, host: HostId) -> Vec<LinkInfo> {
    state
        .host(host)
        .ifaces
        .iter()
        .map(|iface| {
            let network = state.network(iface.network);
            LinkInfo {
                network: iface.network,
                up: !network.down,
                fixed_delay: network.spec.propagation,
                per_byte_delay: network.spec.per_byte_delay(),
                capacity_bps: network.spec.rate_bps,
                headroom_bps: iface.ledger.headroom_bps(),
                headroom_buffer: iface.ledger.headroom_buffer(),
            }
        })
        .collect()
}

/// Seed every host's LSDB with a fresh ad from every host (build time and
/// full rebuilds). Sequence numbers keep advancing, so every fresh ad
/// supersedes whatever a host learned from live floods: each host ends up
/// holding exactly the fresh set, which is therefore built once and handed
/// to all of them as one shared backing. Every host's routes are dropped
/// with its old database.
pub fn seed_lsdbs(state: &mut NetState) {
    let mut seeded = Lsdb::default();
    for h in 0..state.hosts.len() {
        let id = HostId(h as u32);
        state.hosts[h].lsa_seq += 1;
        seeded.install(LinkStateAd {
            origin: id,
            seq: state.hosts[h].lsa_seq,
            stamped_at: SimTime::ZERO,
            links: local_links(state, id),
        });
    }
    for host in &mut state.hosts {
        host.lsdb = seeded.clone();
        host.routes.take();
    }
}

/// Bump the route generation and drop every host's routes as of `now`.
/// Called by fault events (network down/up, host crash/restart): live
/// availability flags changed, so every table may be wrong. Each is
/// rebuilt when next read; in-flight creation attempts notice the
/// generation bump and re-resolve their candidates.
pub fn mark_routes_dirty(state: &mut NetState, now: SimTime) {
    state.route_generation += 1;
    for host in &mut state.hosts {
        host.mark_routes_dirty(now);
    }
}

/// Bring `host`'s table up to date for a table-routed packet: build it if
/// it was dropped, and if it was marked dirty since the last such packet,
/// count a `routing.recompute` and record the reconvergence latency
/// (trigger → first table-routed packet) in `routing.recompute_latency`.
pub fn ensure_host_routes(state: &mut NetState, now: SimTime, host: HostId) {
    state.routes(host);
    let Some(dirty_since) = state.host_mut(host).routes_dirty_since.take() else {
        return;
    };
    state.obs.emit(
        now,
        ObsEvent::RoutingRecompute {
            host: host.0,
            latency_s: now.saturating_since(dirty_since).as_secs_f64(),
        },
    );
}

/// Build and flood `origin`'s current link-state ad to its neighbours:
/// one reliable control packet per attached peer, interface-major then
/// attachment order (both deterministic). No-op while `origin` is crashed.
pub fn flood_from<W: NetWorld>(sim: &mut Sim<W>, origin: HostId) {
    let now = sim.now();
    let ad = {
        let net = sim.state.net();
        // Under the parallel executor every replica applies the same
        // fault plan locally, so the witness loops in fail/restore would
        // flood from every attached host in every replica. Only the
        // owning logical process may *originate* packets for a host; the
        // other replicas learn of the flood when its LSA envelopes arrive.
        if !net.owns(origin) {
            return;
        }
        if !net.host(origin).up {
            return;
        }
        net.host_mut(origin).lsa_seq += 1;
        let seq = net.host(origin).lsa_seq;
        let ad = Arc::new(LinkStateAd {
            origin,
            seq,
            stamped_at: now,
            links: local_links(net, origin),
        });
        let h = net.host_mut(origin);
        h.lsdb.install(Arc::clone(&ad));
        h.mark_routes_dirty(now);
        net.obs.emit(
            now,
            ObsEvent::RoutingFlood {
                origin: origin.0,
                seq,
            },
        );
        ad
    };
    flood_ad(sim, origin, &ad, 0, None);
}

/// Transmit `ad` from `from` to every attached peer (each packet shares
/// the one allocation), skipping down networks and (for re-floods) the
/// arrival network.
fn flood_ad<W: NetWorld>(
    sim: &mut Sim<W>,
    from: HostId,
    ad: &Arc<LinkStateAd>,
    hops: u8,
    exclude: Option<NetworkId>,
) {
    let now = sim.now();
    for iface_idx in 0..sim.state.net_ref().host(from).ifaces.len() {
        let via = sim.state.net_ref().host(from).ifaces[iface_idx].network;
        if Some(via) == exclude || sim.state.net_ref().network(via).down {
            continue;
        }
        // Enqueueing never changes who is attached, so the list can be
        // re-read by index instead of collected.
        for at in 0..sim.state.net_ref().network(via).attached.len() {
            let peer = sim.state.net_ref().network(via).attached[at];
            if peer == from {
                continue;
            }
            let ad = PacketKind::LinkStateAd {
                ad: Arc::clone(ad),
                via,
            };
            let packet = Packet {
                hops,
                next_hop: Some(peer),
                ..Packet::control(from, peer, ad, now)
            };
            enqueue_on(sim, from, iface_idx, packet);
        }
    }
}

/// An LSA arrived at `host`: install it, mark the table stale if it was
/// fresh, and re-flood on every other live interface while the hop budget
/// lasts. Duplicates (stale sequence numbers) die here, bounding each
/// flood at one re-transmission per host.
pub(crate) fn handle_lsa<W: NetWorld>(sim: &mut Sim<W>, host: HostId, packet: Packet) {
    let (ad, via) = match packet.kind {
        PacketKind::LinkStateAd { ad, via } => (ad, via),
        _ => unreachable!(),
    };
    let hops = packet.hops;
    let fresh = {
        let net = sim.state.net();
        let h = net.host_mut(host);
        if h.lsdb.install(Arc::clone(&ad)) {
            h.mark_routes_dirty(ad.stamped_at);
            true
        } else {
            false
        }
    };
    if !fresh {
        return;
    }
    if hops < TTL {
        flood_ad(sim, host, &ad, hops + 1, Some(via));
    }
}

/// Resolve the ordered alternate list for an RMS creation from `creator`
/// to `peer`: up to [`K_ALTERNATES`] loop-free paths, each negotiated
/// against its own combined service table (dropping paths that cannot meet
/// the delay bound or capacity demand), ranked with
/// advertised-headroom-sufficient paths first and the `(length, hops)`
/// order preserved within each group.
///
/// # Errors
///
/// [`RejectReason::NoRoute`] when no live path exists; otherwise the first
/// path's negotiation error when none negotiates.
pub fn candidate_paths(
    state: &NetState,
    creator: HostId,
    peer: HostId,
    request: &RmsRequest,
) -> Result<Vec<CandidatePath>, RmsError> {
    let paths = spf::k_paths(state, creator, peer, K_ALTERNATES);
    if paths.is_empty() {
        return Err(RmsError::CreationRejected(RejectReason::NoRoute));
    }
    let mut first_err: Option<RmsError> = None;
    let mut viable: Vec<CandidatePath> = Vec::with_capacity(paths.len());
    for (i, p) in paths.into_iter().enumerate() {
        // Every hop must hold the interface the path assumes.
        let senders = std::iter::once(creator).chain(p.path.iter().map(|l| l.to));
        if !(senders.zip(&*p.path)).all(|(h, l)| state.host(h).iface_on(l.network).is_some()) {
            continue;
        }
        match negotiate(&combined_service_table(state, &p.path), request) {
            Ok(negotiated) => {
                let params = negotiated.shared();
                let caps = combined_capabilities(state, &p.path);
                let (plan, _) = select_mechanisms(&params, &caps);
                viable.push(CandidatePath {
                    path: p.path,
                    params,
                    plan,
                    min_headroom_bps: p.min_headroom_bps,
                    is_primary: i == 0,
                });
            }
            Err(e) => {
                first_err.get_or_insert(e.into());
            }
        }
    }
    if viable.is_empty() {
        return Err(first_err.unwrap_or(RmsError::CreationRejected(RejectReason::NoRoute)));
    }
    // Stable partition: paths whose advertised headroom covers the demand
    // first. `false < true`, and the sort is stable, so the `(length,
    // hops)` order survives within each group.
    viable.sort_by_key(|c| demand_bps(&c.params) > c.min_headroom_bps);
    Ok(viable)
}
