//! Reservation bookkeeping under admission pressure and faults: on a 3×3
//! mesh of Ethernets, random mixes of sender-side creates, receiver-side
//! creates (invites), closes, networks going down and up and gateways
//! crashing and restarting, with deterministic demands large enough that
//! gateways refuse (the creator walks its alternates after the NAK) and a
//! creator's own first hop refuses. Once the run drains, every reservation
//! and forwarding pin any host holds belongs to a live endpoint or a
//! pending create, and every interface ledger's reserved bandwidth and
//! buffer are exactly the sums over the reservations it holds. Across the
//! cases at least one NAK walk and one first-hop refusal happen, and a
//! fault ends an RMS that held a transit reservation, so the invariant is
//! checked where establishment backs out and where a fault cuts.
//!
//! Run wider with `PROPTEST_CASES=2000 cargo test --release -p dash-net
//! --test reservations`.

mod world;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use dash_net::fault::apply_fault;
use dash_net::ids::{HostId, NetRmsId};
use dash_net::pipeline::{close_rms, create_rms, create_rms_as_receiver};
use dash_net::state::{NetRmsEvent, NetState};
use dash_net::topology::{mesh3x3, TopologyBuilder};
use dash_sim::fault::FaultKind;
use dash_sim::obs::{ObsEvent, ObsSink};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use proptest::prelude::*;
use rms_core::bandwidth::implied_bandwidth;
use rms_core::delay::DelayBound;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;
use world::World;

/// One step of a case: what to do, then how long to let the world run
/// before the next step (short enough that handshakes overlap).
#[derive(Debug, Clone)]
enum Op {
    /// `create_rms` from plain host `from` to plain host `to`.
    Create { from: usize, to: usize, demand: u8 },
    /// `create_rms_as_receiver`: `to` receives, `from` is invited to send.
    Invite { from: usize, to: usize, demand: u8 },
    /// `close_rms` at the sender of the `n`-th live RMS (modulo their number).
    Close(usize),
    /// Take network `n` down, or bring it back up.
    Network { n: usize, up: bool },
    /// Crash gateway `g` (of the twelve), or restart it.
    Gateway { g: usize, up: bool },
}

/// Deterministic parameters over 64 KiB of buffer, with a per-byte bound
/// (10 µs) that the mesh's longest paths still meet. Demand level 0 takes
/// about 94 % of an Ethernet interface's deterministic budget, level 1
/// 57 % (a second one on the same interface is refused), level 3 29 %;
/// every level fits four to an interface's buffer.
fn params(demand: u8) -> RmsParams {
    let fixed_ms = [52, 92, 142, 192][demand as usize % 4];
    RmsParams::builder(64 * 1024, 1024)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(fixed_ms),
            SimDuration::from_micros(10),
        ))
        .build()
        .expect("valid")
}

fn op() -> impl Strategy<Value = Op> {
    let ends = (0usize..9, 0usize..9, 0u8..4);
    prop_oneof![
        ends.clone()
            .prop_map(|(from, to, demand)| Op::Create { from, to, demand }),
        ends.clone()
            .prop_map(|(from, to, demand)| Op::Create { from, to, demand }),
        ends.prop_map(|(from, to, demand)| Op::Invite { from, to, demand }),
        (0usize..16).prop_map(Op::Close),
        (0usize..9, any::<bool>()).prop_map(|(n, up)| Op::Network { n, up }),
        (0usize..12, any::<bool>()).prop_map(|(g, up)| Op::Gateway { g, up }),
    ]
}

/// Admission refusals by host, as the ledgers announce them.
#[derive(Clone, Default)]
struct Refusals(Rc<RefCell<Vec<u32>>>);

impl ObsSink for Refusals {
    fn on_event(&mut self, _time: SimTime, event: &ObsEvent) {
        if let ObsEvent::AdmissionDecision {
            host,
            admitted: false,
            ..
        } = event
        {
            self.0.borrow_mut().push(*host);
        }
    }
}

/// What one case exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Refusals at a creator's own first hop (a plain host: only gateways
    /// forward, so a plain host refuses only its own creates).
    first_hop_refusals: usize,
    /// Refusals at a gateway, each answered by a NAK to the creator.
    transit_refusals: usize,
    /// Creates NAKed on a path that completed on a later alternate.
    alternate_wins: u64,
    /// Streams established, and closed again before the run drained.
    established: usize,
    closed: usize,
    /// RMSs a fault ended that held a reservation at a gateway just before.
    transit_cut: usize,
}

/// Run `ops` on a fresh `mesh3x3` with one plain host per LAN, drain it,
/// check the bookkeeping invariant and report what was exercised.
fn run_case(ops: &[(Op, u64)]) -> Coverage {
    let mut tb = TopologyBuilder::new();
    let (nets, lans) = mesh3x3(&mut tb, 1);
    let plain: Vec<HostId> = lans.iter().map(|lan| lan[0]).collect();
    let mut world = World::new(tb.build());
    let refusals = Refusals::default();
    world.net.obs.add_boxed_sink(Box::new(refusals.clone()));
    let gateways: Vec<HostId> = (world.net.hosts.iter())
        .map(|h| h.id)
        .filter(|h| !plain.contains(h))
        .collect();
    let mut sim = Sim::new(world);

    // Sender ends of established streams, in establishment order.
    let mut live: Vec<(HostId, NetRmsId)> = Vec::new();
    let (mut seen_events, mut closed, mut transit_cut) = (0, 0, 0);
    for (op, gap_us) in ops {
        match *op {
            Op::Create { from, to, demand } => {
                let request = RmsRequest::exact(params(demand));
                let _ = create_rms(&mut sim, plain[from], plain[to], &request);
            }
            Op::Invite { from, to, demand } => {
                let request = RmsRequest::exact(params(demand));
                let _ = create_rms_as_receiver(&mut sim, plain[to], plain[from], &request);
            }
            Op::Close(n) if !live.is_empty() => {
                let (host, rms) = live.remove(n % live.len());
                close_rms(&mut sim, host, rms).expect("a live sender end closes");
                closed += 1;
            }
            Op::Close(_) => {}
            Op::Network { n, up } => {
                let network = nets[n].0;
                let fault = if up {
                    FaultKind::NetworkUp { network }
                } else {
                    FaultKind::NetworkDown { network }
                };
                transit_cut += inject(&mut sim, &gateways, &fault);
            }
            Op::Gateway { g, up } => {
                let host = gateways[g].0;
                let fault = if up {
                    FaultKind::HostRestart { host }
                } else {
                    FaultKind::HostCrash { host }
                };
                transit_cut += inject(&mut sim, &gateways, &fault);
            }
        }
        let until = sim.now().saturating_add(SimDuration::from_micros(*gap_us));
        sim.run_until(until);
        collect_senders(&sim.state.events[seen_events..], &mut live);
        seen_events = sim.state.events.len();
    }
    sim.run();

    let net = &sim.state.net;
    check_bookkeeping(net, ops);
    let refused = refusals.0.borrow();
    let first_hop_refusals = refused
        .iter()
        .filter(|&&h| plain.contains(&HostId(h)))
        .count();
    Coverage {
        first_hop_refusals,
        transit_refusals: refused.len() - first_hop_refusals,
        alternate_wins: net.obs.registry.counter_value("routing.alternate_wins"),
        established: (sim.state.events.iter())
            .filter(|(_, event)| {
                matches!(
                    event,
                    NetRmsEvent::Created { .. } | NetRmsEvent::SenderCreatedByInvite { .. }
                )
            })
            .count(),
        closed,
        transit_cut,
    }
}

/// Apply `fault` and count the RMSs it ended that held a reservation at
/// one of `gateways` just before.
fn inject(sim: &mut Sim<World>, gateways: &[HostId], fault: &FaultKind) -> usize {
    let net = &sim.state.net;
    let transit: BTreeSet<NetRmsId> = (gateways.iter())
        .flat_map(|g| net.host(*g).holds.keys())
        .copied()
        .collect();
    let before = sim.state.events.len();
    apply_fault(sim, fault);
    let ended: BTreeSet<NetRmsId> = (sim.state.events[before..].iter())
        .filter_map(|(_, event)| match event {
            NetRmsEvent::Failed { rms, .. } => Some(*rms),
            _ => None,
        })
        .collect();
    ended.intersection(&transit).count()
}

/// Add the sender end of every stream `events` report established, and
/// drop the ones they report failed.
fn collect_senders(events: &[(HostId, NetRmsEvent)], live: &mut Vec<(HostId, NetRmsId)>) {
    for (host, event) in events {
        match event {
            NetRmsEvent::Created { rms, .. } | NetRmsEvent::SenderCreatedByInvite { rms, .. } => {
                live.push((*host, *rms))
            }
            NetRmsEvent::Failed { rms, .. } => live.retain(|end| *end != (*host, *rms)),
            _ => {}
        }
    }
}

/// Every reservation and pin belongs to a live endpoint or a pending
/// create, and every ledger holds exactly the sum of its reservations.
/// A violation names the case's `ops`.
fn check_bookkeeping(net: &NetState, ops: &[(Op, u64)]) {
    let owners: BTreeSet<NetRmsId> = (net.hosts.iter())
        .flat_map(|h| h.rms.keys().chain(h.pending.keys()))
        .copied()
        .collect();
    for h in &net.hosts {
        for rms in h.holds.keys() {
            prop_assert!(
                owners.contains(rms),
                "host {:?} holds a reservation and pin for {:?}, which has no endpoint \
                 and no pending create; ops: {ops:?}",
                h.id,
                rms
            );
        }
        for (i, iface) in h.ifaces.iter().enumerate() {
            let held = (h.holds.values()).filter(|hold| hold.route.iface == i);
            let (bps, buffer) = held.fold((0.0, 0), |(bps, buffer), hold| {
                (
                    bps + implied_bandwidth(&hold.params),
                    buffer + hold.params.capacity,
                )
            });
            let ledger = &iface.ledger;
            prop_assert!(
                (ledger.reserved_bps() - bps).abs() <= 1e-6 * ledger.deterministic_budget_bps(),
                "host {:?} iface {}: ledger reserves {} B/s, its reservations {} B/s; ops: {ops:?}",
                h.id,
                i,
                ledger.reserved_bps(),
                bps
            );
            prop_assert_eq!(ledger.reserved_buffer(), buffer, "ops: {:?}", ops);
        }
    }
}

#[test]
fn reservations_belong_to_live_streams_and_ledgers_match() {
    let mut rng = proptest::TestRng::new();
    let case = collection::vec((op(), 0u64..30_000), 8..32);
    let mut total = Coverage::default();
    for _ in 0..proptest::num_cases() {
        let ops = case.generate(&mut rng);
        let cov = run_case(&ops);
        total.first_hop_refusals += cov.first_hop_refusals;
        total.transit_refusals += cov.transit_refusals;
        total.alternate_wins += cov.alternate_wins;
        total.established += cov.established;
        total.closed += cov.closed;
        total.transit_cut += cov.transit_cut;
    }
    eprintln!("reservations: {total:?}");
    // The invariant must have been checked where establishment backs out.
    assert!(
        total.first_hop_refusals > 0,
        "no first-hop refusal: {total:?}"
    );
    assert!(
        total.transit_refusals > 0,
        "no NAK from a gateway: {total:?}"
    );
    assert!(total.alternate_wins > 0, "no NAK walk completed: {total:?}");
    assert!(
        total.transit_cut > 0,
        "no fault ended an RMS holding a transit reservation: {total:?}"
    );
}
