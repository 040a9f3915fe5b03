//! Hostile handshake input: forged and duplicated `CreateReq`, `CreateAck`,
//! `CreateNak`, `Invite` and `Release` packets, injected through
//! `pipeline::inject_arrival` into a world with one create in flight and
//! one live RMS. Their rms ids lean toward those two, and their sources,
//! destinations and arrival hosts range over every host. Whatever arrives,
//! nothing panics, the run drains, the in-flight create reports exactly one
//! outcome, a `CreateAck` from anyone but the create's peer never creates
//! it, and a duplicate ack for the live RMS reports nothing.
//!
//! Run wider with `PROPTEST_CASES=2000 cargo test --release -p dash-net
//! --test hostile_handshake`.

mod world;

use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::network::NetworkSpec;
use dash_net::packet::{Direction, NakReason, Packet, PacketKind, SourceRoute};
use dash_net::pipeline::{create_rms, inject_arrival};
use dash_net::routing::Leg;
use dash_net::state::NetRmsEvent;
use dash_net::topology::TopologyBuilder;
use dash_sim::engine::arrival_key;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use proptest::prelude::*;
use rms_core::delay::DelayBound;
use rms_core::params::{RmsParams, SharedParams};
use rms_core::RmsRequest;
use world::{establish, World};

/// Events a case may take to drain: the handshake, its retries and the
/// forged packets' consequences are a few hundred.
const EVENT_BOUND: u64 = 100_000;

/// `a` — lan0 — `g` — lan1 — `b`, `c`: the creates run from `a` to `b`
/// across the gateway, and `c` is a bystander on `b`'s LAN.
const HOSTS: u32 = 4;
const A: HostId = HostId(0);
const G: HostId = HostId(1);
const B: HostId = HostId(2);

fn topology() -> World {
    let mut t = TopologyBuilder::new();
    let lan0 = t.network(NetworkSpec::ethernet("lan0"));
    let lan1 = t.network(NetworkSpec::ethernet("lan1"));
    assert_eq!(t.host_on(lan0), A);
    assert_eq!(t.gateway(lan0, lan1), G);
    assert_eq!(t.host_on(lan1), B);
    t.host_on(lan1);
    World::new(t.build())
}

fn params(deterministic: bool) -> SharedParams {
    let mut p = RmsParams::builder(64 * 1024, 1024);
    if deterministic {
        // Half of an Ethernet's reservable budget: the second one along a
        // path is refused.
        p = p.delay(DelayBound::deterministic(
            SimDuration::from_millis(100),
            SimDuration::from_micros(2),
        ));
    }
    p.build().expect("valid").shared()
}

/// What a forged packet names: the live RMS, the in-flight one, the id the
/// next create would get, or any small id.
#[derive(Debug, Clone, Copy)]
enum Id {
    Live,
    InFlight,
    Next,
    Other(u64),
}

#[derive(Debug, Clone)]
enum Kind {
    Req { invite: bool, deterministic: bool },
    Ack,
    Nak(NakReason),
    Invite { deterministic: bool },
    Release,
}

#[derive(Debug, Clone)]
struct Forged {
    kind: Kind,
    id: Id,
    src: u32,
    dst: u32,
    at_host: u32,
    at_us: u64,
    route: Option<ForgedRoute>,
}

/// A source route's legs as `(network, host)`, the legs walked, and the
/// index of the answering host's leg when it walks back.
type ForgedRoute = (Vec<(u32, u32)>, usize, Option<usize>);

fn host() -> impl Strategy<Value = u32> {
    0..HOSTS
}

fn forged() -> impl Strategy<Value = Forged> {
    // Acks are the kind a forger gains most by: three shares in seven.
    let kind = prop_oneof![
        (any::<bool>(), any::<bool>()).prop_map(|(invite, deterministic)| Kind::Req {
            invite,
            deterministic
        }),
        Just(Kind::Ack),
        Just(Kind::Ack),
        Just(Kind::Ack),
        prop_oneof![
            Just(NakReason::Admission),
            Just(NakReason::PeerRefused),
            Just(NakReason::NoRoute)
        ]
        .prop_map(Kind::Nak),
        any::<bool>().prop_map(|deterministic| Kind::Invite { deterministic }),
        Just(Kind::Release),
    ];
    let id = prop_oneof![
        Just(Id::Live),
        Just(Id::InFlight),
        Just(Id::InFlight),
        Just(Id::Next),
        (0u64..8).prop_map(Id::Other),
    ];
    // Mostly table-routed; sometimes a source route whose legs need not
    // join up, walked either way from any cursor.
    let route = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        (
            collection::vec((0u32..3, host()), 0..4),
            0usize..4,
            prop_oneof![Just(None), (0usize..4).prop_map(Some)]
        )
            .prop_map(Some),
    ];
    // Half of the packets are addressed to the creator.
    let dst = prop_oneof![Just(A.0), host()];
    (kind, id, host(), dst, host(), 0u64..60_000, route).prop_map(
        |(kind, id, src, dst, at_host, at_us, route)| Forged {
            kind,
            id,
            src,
            dst,
            at_host,
            at_us,
            route,
        },
    )
}

fn named(id: Id, live: NetRmsId, in_flight: NetRmsId) -> NetRmsId {
    match id {
        Id::Live => live,
        Id::InFlight => in_flight,
        Id::Next => NetRmsId(in_flight.0 + 1),
        Id::Other(n) => NetRmsId(n),
    }
}

fn packet(f: &Forged, live: NetRmsId, in_flight: NetRmsId) -> Packet {
    let rms = named(f.id, live, in_flight);
    let kind = match f.kind {
        Kind::Req {
            invite,
            deterministic,
        } => PacketKind::CreateReq {
            rms,
            params: params(deterministic),
            invite,
        },
        Kind::Ack => PacketKind::CreateAck { rms },
        Kind::Nak(reason) => PacketKind::CreateNak { rms, reason },
        Kind::Invite { deterministic } => PacketKind::Invite {
            rms,
            params: params(deterministic),
        },
        Kind::Release => PacketKind::Release { rms },
    };
    let source_route = f.route.as_ref().map(|(legs, next, back)| SourceRoute {
        path: (legs.iter())
            .map(|&(network, to)| Leg {
                network: NetworkId(network),
                to: HostId(to),
            })
            .collect(),
        next: *next,
        direction: back.map_or(Direction::Forward, |from| Direction::Back { from }),
    });
    Packet {
        src: HostId(f.src),
        dst: HostId(f.dst),
        kind,
        deadline: dash_sim::SimTime::ZERO,
        sent_at: dash_sim::SimTime::ZERO,
        corrupted: false,
        hops: 0,
        reliable: true,
        next_plan: None,
        source_route,
        next_hop: None,
    }
}

/// Outcomes `host` heard for `rms`.
fn outcomes(sim: &Sim<World>, host: HostId, rms: NetRmsId) -> usize {
    let ours = |e: &NetRmsEvent| match e {
        NetRmsEvent::Created { rms: r, .. } | NetRmsEvent::CreateFailed { rms: r, .. } => *r == rms,
        _ => false,
    };
    (sim.state.events.iter())
        .filter(|(h, e)| *h == host && ours(e))
        .count()
}

proptest! {
    #[test]
    fn forged_handshake_packets_cannot_fake_or_repeat_an_outcome(
        forged in collection::vec(forged(), 1..9),
        isolated in any::<bool>(),
    ) {
        let mut sim = Sim::new(topology());
        let live = establish(&mut sim, A, B, RmsParams::builder(64 * 1024, 1024).build().unwrap());
        if isolated {
            // Nothing crosses the wire to or from the peer, on any path:
            // no genuine ack can ever reach the creator.
            for h in (0..HOSTS).map(HostId).filter(|h| *h != B) {
                sim.state.net.partition(h, B);
            }
        }
        let request = RmsRequest::exact(RmsParams::builder(32 * 1024, 1024).build().unwrap());
        let in_flight = create_rms(&mut sim, A, B, &request).expect("creatable");
        let now = sim.now();
        for (key, f) in forged.iter().enumerate() {
            let at = now.saturating_add(SimDuration::from_micros(f.at_us));
            let key = arrival_key(f.src, key as u64);
            inject_arrival(&mut sim, at, key, HostId(f.at_host), packet(f, live, in_flight));
        }
        let mut events = 0;
        while sim.step() {
            events += 1;
            prop_assert!(events <= EVENT_BOUND, "the run does not drain");
        }

        prop_assert_eq!(outcomes(&sim, A, in_flight), 1, "{:?}", sim.state.events);
        let created = sim.state.created().contains(&(A, in_flight));
        let acked_by_peer = forged.iter().any(|f| {
            matches!(f.kind, Kind::Ack) && named(f.id, live, in_flight) == in_flight && f.src == B.0
        });
        prop_assert!(
            !isolated || !created || acked_by_peer,
            "an ack from a host other than the peer created the stream: {:?}",
            forged
        );
        // The live RMS's one outcome is its `Created` during setup.
        prop_assert_eq!(outcomes(&sim, A, live), 1, "a duplicate ack re-reported it");
    }
}
