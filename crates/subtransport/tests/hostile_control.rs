//! Hostile control-channel input: forged, duplicated and replayed
//! `StCreateReq`, `StCreateAck`, `StCreateNak` and `StClose` messages,
//! handed to `engine::on_net_deliver` on a 3-host LAN while one create is
//! in flight from `a` to `b` and one stream between them is live. They
//! come from the peer and from the bystander `c`, and name the live
//! stream, the create in flight, the next id or any small id. Whatever
//! arrives, nothing panics, every create ends in exactly one `Created` or
//! `CreateFailed` for its client, a host binds a receiving lane only under
//! an id it does not hold (so a repeated request opens no second stream),
//! and an answer from a host other than the stream's peer changes nothing
//! at all: the run without those answers is the same run. Forged bundle
//! headers, whose frame counts promise frames that are not there, are
//! dropped as malformed and change nothing either.
//!
//! Run wider with `PROPTEST_CASES=2000 cargo test --release -p
//! dash-subtransport --test hostile_control`.

use std::collections::BTreeSet;

use bytes::Bytes;
use dash_net::ids::{HostId, NetRmsId};
use dash_net::network::NetworkSpec;
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_net::topology::TopologyBuilder;
use dash_sim::time::SimTime;
use dash_sim::Sim;
use dash_subtransport::engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::{StConfig, StEvent, StState, StWorld};
use dash_subtransport::wire::{encode, ControlMsg, DataFrame, Frame};
use proptest::prelude::*;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;
use rms_core::RmsRequest;

const A: HostId = HostId(0);
const B: HostId = HostId(1);
const C: HostId = HostId(2);

/// Events a case may take to drain: setup, the create in flight and the
/// forged messages' consequences are a few hundred.
const EVENT_BOUND: u64 = 100_000;

/// Forged messages arrive within this many simulation steps of the
/// create in flight starting; undisturbed, it completes at step 10.
const LAST_STEP: u32 = 40;

struct World {
    net: NetState,
    st: StState,
    /// `(host, client, event)` of every ST event and every receiving lane
    /// bound (`Inbound { st_rms: .. }`), in order.
    events: Vec<(HostId, Client, String)>,
}

impl NetWorld for World {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }
    fn deliver_up(sim: &mut Sim<Self>, host: HostId, rms: NetRmsId, m: Message, i: DeliveryInfo) {
        engine::on_net_deliver(sim, host, rms, m, i);
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        engine::on_net_event(sim, host, &event);
    }
}

impl StWorld for World {
    fn st(&mut self) -> &mut StState {
        &mut self.st
    }
    fn st_ref(&self) -> &StState {
        &self.st
    }
    fn st_inbound(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        _peer: HostId,
        header: &Bytes,
    ) -> Client {
        let id = header.first().copied().map_or(0, u64::from);
        let client = Client { proto: 1, id };
        let bound = format!("Inbound {{ st_rms: {st_rms:?} }}");
        sim.state.events.push((host, client, bound));
        client
    }
    fn st_deliver(
        _: &mut Sim<Self>,
        _: HostId,
        _: Client,
        _: StRmsId,
        _: Message,
        _: DeliveryInfo,
    ) {
    }
    fn st_event(sim: &mut Sim<Self>, host: HostId, client: Client, event: StEvent) {
        sim.state.events.push((host, client, format!("{event:?}")));
    }
}

fn creator(id: u64) -> Client {
    Client { proto: 2, id }
}

fn request() -> RmsRequest {
    RmsRequest::exact(RmsParams::builder(8 * 1024, 1024).build().unwrap())
}

/// Create a stream from `from` to `to` for `client` and run until it is
/// up; returns its id.
fn establish(sim: &mut Sim<World>, from: HostId, to: HostId, client: Client) -> StRmsId {
    let st_rms = create(sim, from, to, client);
    sim.run();
    assert_eq!(
        outcomes(sim, client),
        vec![format!("Created {{ st_rms: {st_rms:?}")]
    );
    st_rms
}

/// Start a create from `from` to `to` for `client`; returns the id it
/// filed the stream under.
fn create(sim: &mut Sim<World>, from: HostId, to: HostId, client: Client) -> StRmsId {
    engine::create(sim, from, to, &request(), false, client, Bytes::new()).expect("accepted");
    let streams = &sim.state.st.host(from).streams;
    (streams.values().find(|s| s.client == client))
        .expect("filed at create")
        .id
}

/// The start of each outcome event `client` heard, up to the stream id.
fn outcomes(sim: &Sim<World>, client: Client) -> Vec<String> {
    (sim.state.events.iter())
        .filter(|(_, c, e)| *c == client && e.starts_with("Create"))
        .map(|(_, _, e)| e.split(", params").next().unwrap_or(e).to_string())
        .collect()
}

/// The stream a logged `Inbound` or `Closed` names.
fn named_in<'a>(event: &'a str, what: &str) -> Option<&'a str> {
    let rest = event.strip_prefix(what)?.strip_prefix(" { st_rms: ")?;
    rest.split(' ').next()
}

/// What a forged message names.
#[derive(Debug, Clone, Copy)]
enum Id {
    Live,
    InFlight,
    Next,
    Other(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Req { header: u8 },
    Ack,
    Nak,
    Close,
}

#[derive(Debug, Clone)]
struct Forged {
    kind: Kind,
    id: Id,
    from: HostId,
    to: HostId,
    /// Simulation steps after the create in flight starts.
    at_step: u32,
}

fn forged() -> impl Strategy<Value = Forged> {
    let kind = prop_oneof![
        (0u8..3).prop_map(|header| Kind::Req { header }),
        Just(Kind::Ack),
        Just(Kind::Ack),
        Just(Kind::Nak),
        Just(Kind::Close),
    ];
    let id = prop_oneof![
        Just(Id::Live),
        Just(Id::InFlight),
        Just(Id::InFlight),
        Just(Id::Next),
        (0u64..8).prop_map(Id::Other),
    ];
    // Every ordered pair of distinct hosts; half of the messages go to the
    // creator.
    let pair = prop_oneof![
        Just((B, A)),
        Just((C, A)),
        prop_oneof![Just((A, B)), Just((C, B)), Just((A, C)), Just((B, C))],
    ];
    (kind, id, pair, 0..LAST_STEP).prop_map(|(kind, id, (from, to), at_step)| Forged {
        kind,
        id,
        from,
        to,
        at_step,
    })
}

struct Ids {
    live: StRmsId,
    in_flight: StRmsId,
}

impl Ids {
    fn named(&self, id: Id) -> StRmsId {
        match id {
            Id::Live => self.live,
            Id::InFlight => self.in_flight,
            Id::Next => StRmsId(self.in_flight.0 + 1),
            Id::Other(n) => StRmsId(n),
        }
    }
}

fn message(f: &Forged, st_rms: StRmsId) -> ControlMsg {
    match f.kind {
        Kind::Req { header } => ControlMsg::StCreateReq {
            st_rms,
            params: RmsParams::builder(8 * 1024, 1024).build().unwrap(),
            fast_ack: false,
            header: Bytes::from(vec![header; usize::from(header)]),
        },
        Kind::Ack => ControlMsg::StCreateAck { st_rms },
        Kind::Nak => ControlMsg::StCreateNak { st_rms },
        Kind::Close => ControlMsg::StClose { st_rms },
    }
}

/// Deliver `msg` at `to` as if it arrived from `from`, on the lowest
/// network RMS `to` shares with `from`.
fn inject(sim: &mut Sim<World>, from: HostId, to: HostId, msg: ControlMsg) {
    inject_wire(sim, from, to, encode(&Frame::Ctrl(msg)));
}

/// [`inject`] for a message of any bytes.
fn inject_wire(sim: &mut Sim<World>, from: HostId, to: HostId, wire: WireMsg) {
    let rms = (sim.state.net.host(to).rms.values())
        .filter(|r| r.peer == from)
        .map(|r| r.id)
        .min()
        .expect("the setup connects every pair");
    let now = sim.now();
    let info = DeliveryInfo {
        sent_at: now,
        delivered_at: now,
        stream: rms.0,
        seq: 0,
    };
    engine::on_net_deliver(sim, to, rms, Message::from_wire(wire), info);
}

/// What a case left behind.
#[derive(Debug, PartialEq)]
struct Run {
    events: Vec<(HostId, Client, String)>,
    streams: Vec<Vec<StRmsId>>,
    /// `(creator, peer, id)` of each genuine create: the live stream first,
    /// the create in flight last.
    creates: Vec<(HostId, HostId, StRmsId)>,
}

/// Connect every pair, open the live stream, start the create in flight and
/// deliver `forged` while it runs.
fn run(forged: &[Forged]) -> Run {
    run_with(forged, &[]).0
}

/// [`run`], also delivering each `(step, from, to, message)` of `raw`;
/// returns the malformed frames the ST dropped too.
fn run_with(forged: &[Forged], raw: &[(u32, HostId, HostId, WireMsg)]) -> (Run, u64) {
    let mut t = TopologyBuilder::new();
    let lan = t.network(NetworkSpec::ethernet("lan"));
    for h in [A, B, C] {
        assert_eq!(t.host_on(lan), h);
    }
    let net = t.build();
    let mut st = StState::new(StConfig::default(), 3);
    st.provision_all_keys(3);
    let world = World {
        net,
        st,
        events: Vec::new(),
    };
    let mut sim = Sim::new(world);
    let mut creates = Vec::new();
    for (id, (from, to)) in [(A, B), (C, A), (C, B)].into_iter().enumerate() {
        let st_rms = establish(&mut sim, from, to, creator(id as u64));
        creates.push((from, to, st_rms));
    }
    let in_flight = create(&mut sim, A, B, creator(3));
    creates.push((A, B, in_flight));
    let ids = Ids {
        live: creates[0].2,
        in_flight,
    };
    // Every forged message is delivered, at its step or once the run has
    // drained.
    let mut step = 0;
    loop {
        for f in forged.iter().filter(|f| f.at_step == step) {
            inject(&mut sim, f.from, f.to, message(f, ids.named(f.id)));
        }
        for (_, from, to, wire) in raw.iter().filter(|r| r.0 == step) {
            inject_wire(&mut sim, *from, *to, wire.clone());
        }
        if !sim.step() && step >= LAST_STEP {
            break;
        }
        step += 1;
        assert!(u64::from(step) <= EVENT_BOUND, "the run does not drain");
    }
    let streams = (sim.state.st.hosts.iter())
        .map(|h| h.streams.keys().copied().collect::<BTreeSet<_>>())
        .map(|s| s.into_iter().collect())
        .collect();
    let malformed = sim
        .state
        .net
        .obs
        .registry
        .counter_value("st.drop.malformed");
    let run = Run {
        events: std::mem::take(&mut sim.state.events),
        streams,
        creates,
    };
    (run, malformed)
}

/// Forged bundle headers — the three bytes `[0x02, 0xFF, 0xFF]`, and a
/// real bundle whose count claims 65 535 frames — from the peer and from
/// the bystander, during the create in flight and after it: each is
/// dropped whole as malformed, and nothing else about the run changes.
/// (`wire`'s `a_forged_bundle_count_does_not_size_the_frame_list` checks
/// that the count does not size the ST's kept frame list.)
#[test]
fn forged_bundle_counts_are_dropped_as_malformed() {
    let header = WireMsg::from_bytes(Bytes::from_static(&[0x02, 0xFF, 0xFF]));
    let frame = |seq| DataFrame {
        st_rms: StRmsId(1),
        seq,
        frag: None,
        sent_at: SimTime::ZERO,
        fast_ack: false,
        source: None,
        target: None,
        span: None,
        payload: WireMsg::from(vec![7u8; 16]),
    };
    let mut lying = encode(&Frame::Bundle(vec![frame(0), frame(1)]))
        .contiguous()
        .to_vec();
    lying[1..3].copy_from_slice(&u16::MAX.to_be_bytes());
    let lying = WireMsg::from(lying);
    let raw: Vec<_> = [(3, B, A), (5, C, B), (LAST_STEP, A, B)]
        .into_iter()
        .flat_map(|(step, from, to)| {
            [header.clone(), lying.clone()].map(|wire| (step, from, to, wire))
        })
        .collect();
    let (got, malformed) = run_with(&[], &raw);
    assert_eq!(malformed, raw.len() as u64);
    assert_eq!(got, run(&[]), "a forged bundle changed the run");
}

proptest! {
    #[test]
    fn forged_control_messages_cannot_fake_or_repeat_a_stream(
        forged in collection::vec(forged(), 1..9),
    ) {
        let got = run(&forged);
        let ids = Ids {
            live: got.creates[0].2,
            in_flight: got.creates[3].2,
        };

        // Every create ends in exactly one outcome for its client, and no
        // one else hears an outcome.
        for id in 0..4 {
            let n = (got.events.iter())
                .filter(|(_, c, e)| *c == creator(id) && e.starts_with("Create"))
                .count();
            prop_assert_eq!(n, 1, "client {} heard {} outcomes: {:?}", id, n, got.events);
        }
        prop_assert!(
            (got.events.iter()).all(|(_, c, e)| c.proto == 2 || !e.starts_with("Create")),
            "a receiving client heard an outcome: {:?}", got.events
        );

        // A host binds a lane only under an id it does not hold; an id
        // comes free again only when its stream closes. Nor does a host
        // bind more lanes than the distinct request names that reached it
        // and the lanes closed there.
        let mut names: BTreeSet<(HostId, StRmsId)> =
            got.creates.iter().map(|(_, peer, id)| (*peer, *id)).collect();
        for f in forged.iter().filter(|f| matches!(f.kind, Kind::Req { .. })) {
            names.insert((f.to, ids.named(f.id)));
        }
        for h in [A, B, C] {
            let (mut held, mut lanes, mut closed) = (BTreeSet::new(), 0, 0);
            for (_, _, e) in got.events.iter().filter(|(at, _, _)| *at == h) {
                if let Some(id) = named_in(e, "Inbound") {
                    prop_assert!(held.insert(id), "{:?} bound {} twice: {:?}", h, id, got.events);
                    lanes += 1;
                } else if let Some(id) = named_in(e, "Closed") {
                    held.remove(id);
                    closed += 1;
                }
            }
            let asked = names.iter().filter(|(at, _)| *at == h).count();
            prop_assert!(
                lanes <= asked + closed,
                "{:?} bound {} lanes for {} names and {} closes", h, lanes, asked, closed
            );
        }

        // An answer from a host other than the peer of the create it names
        // changes nothing: without those answers, the run is the same.
        let from_peer: Vec<Forged> = forged
            .iter()
            .filter(|f| {
                !matches!(f.kind, Kind::Ack | Kind::Nak)
                    || got.creates.contains(&(f.to, f.from, ids.named(f.id)))
            })
            .cloned()
            .collect();
        prop_assert_eq!(run(&from_peer), got, "an answer from a non-peer changed the run");
    }
}
