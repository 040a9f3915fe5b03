//! Hostile opening headers: arbitrary 0–64-byte headers ride ST creates
//! to a `Stack` host, biased toward what a transport might mistake for its
//! own — `0xD5`/`0xD6` prefixes, RKOM's exact header, Hellos that are
//! truncated, carry trailing bytes or unknown flag bits, or name a session
//! the host already holds. Whatever arrives, nothing panics, the creator
//! sees its lane created, each inbound lane is bound to the one client the
//! header earns, no session id gets a second receiving session, and a
//! header no transport decodes leaves the lane with the application.
//!
//! Run wider with `PROPTEST_CASES=2000 cargo test --release -p
//! dash-transport --test hostile_headers`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use bytes::Bytes;
use dash_net::topology::two_hosts_ethernet;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::{StEvent, StRole};
use dash_subtransport::wire::MAX_OPENING_HEADER;
use dash_transport::stack::{AppEvent, Stack, StackBuilder, MAGIC_RKOM, MAGIC_STREAM, PROTO_APP};
use dash_transport::stream::{self, StreamProfile, StreamRole};
use proptest::prelude::*;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;

/// A stream Hello as the stream protocol lays it out: magic, kind 1,
/// session, flags (bit 0 reliable, bit 1 receiver flow control), receive
/// buffer, and the session an ack lane acknowledges (`u64::MAX` for a data
/// lane) — 27 bytes.
fn hello(session: u64, flags: u8, buffer: u64, ack_is_for: u64) -> Vec<u8> {
    let mut h = vec![MAGIC_STREAM, 1];
    h.extend_from_slice(&session.to_be_bytes());
    h.push(flags);
    h.extend_from_slice(&buffer.to_be_bytes());
    h.extend_from_slice(&ack_is_for.to_be_bytes());
    h
}

/// The client a lane with `header` must be bound to at the receiver, given
/// the sessions the receiver `held` before (updated with a session the
/// header opens). `None` is the application's client.
fn expected(header: &[u8], held: &mut BTreeSet<u64>) -> Option<Client> {
    let stream = |id| {
        Some(Client {
            proto: MAGIC_STREAM,
            id,
        })
    };
    if header == [MAGIC_RKOM] {
        return Some(Client {
            proto: MAGIC_RKOM,
            id: 0,
        });
    }
    let word = |at: usize| u64::from_be_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let is_hello = header.len() >= 27 && header[..2] == [MAGIC_STREAM, 1] && header[10] & !3 == 0;
    if !is_hello {
        return None;
    }
    let (session, ack_is_for) = (word(2), word(19));
    if ack_is_for != u64::MAX {
        stream(ack_is_for)
    } else if held.insert(session) {
        stream(session)
    } else {
        None
    }
}

/// Session ids the receiver holds (1 receiving, 2 sending), ones a case
/// may open (7, 8), and any other.
fn session() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2u64), Just(7u64), Just(8u64), any::<u64>()]
}

fn prefixed(first: u8, tail: Vec<u8>) -> Vec<u8> {
    let mut h = vec![first];
    h.extend(tail);
    h
}

fn header() -> impl Strategy<Value = Vec<u8>> {
    let tail = || collection::vec(any::<u8>(), 0..MAX_OPENING_HEADER);
    prop_oneof![
        collection::vec(any::<u8>(), 0..MAX_OPENING_HEADER + 1),
        tail().prop_map(|t| prefixed(MAGIC_RKOM, t)),
        tail().prop_map(|t| prefixed(MAGIC_STREAM, t)),
        Just(vec![MAGIC_RKOM]),
        // Data and ack Hellos, with known or arbitrary flag bits.
        (
            session(),
            prop_oneof![0u8..4, any::<u8>()],
            any::<u64>(),
            prop_oneof![Just(u64::MAX), session()],
        )
            .prop_map(|(s, flags, buffer, ack)| hello(s, flags, buffer, ack)),
        // Truncated Hellos.
        (session(), 0u8..4, 0usize..27).prop_map(|(s, flags, cut)| {
            let mut h = hello(s, flags, 4096, u64::MAX);
            h.truncate(cut);
            h
        }),
        // Hellos with trailing bytes, up to the header bound.
        (session(), 0u8..4, collection::vec(any::<u8>(), 1..38)).prop_map(|(s, flags, t)| {
            let mut h = hello(s, flags, 4096, u64::MAX);
            h.extend(t);
            h
        }),
    ]
}

proptest! {
    #[test]
    fn every_inbound_lane_is_bound_to_the_client_its_header_earns(
        headers in collection::vec(header(), 1..6),
    ) {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let created: Rc<RefCell<Vec<(u64, StRmsId)>>> = Rc::default();
        let log = Rc::clone(&created);
        sim.state.on_app(move |_sim, ev| {
            if let AppEvent::StEvent { client, event: StEvent::Created { st_rms, .. }, .. } = ev {
                log.borrow_mut().push((client.id, st_rms));
            }
        });
        // b receives session 1 (reliable, so it runs an ack lane) and
        // sends session 2.
        let reliable = StreamProfile { reliable: true, ..StreamProfile::default() };
        let rx = stream::open(&mut sim, a, b, reliable).unwrap();
        let tx = stream::open(&mut sim, b, a, StreamProfile::default()).unwrap();
        prop_assert_eq!((rx, tx), (1, 2));
        sim.run();
        stream::send(&mut sim, a, rx, Message::zeroes(64)).unwrap();
        sim.run();
        let delivered = |sim: &Sim<Stack>| {
            sim.state.stream.session(b, rx).map(|s| (s.role, s.stats.delivered.get()))
        };
        prop_assert_eq!(delivered(&sim), Some((StreamRole::Rx, 1)));

        let request = RmsRequest::exact(RmsParams::builder(8 * 1024, 1024).build().unwrap());
        for (i, h) in headers.iter().enumerate() {
            let app = Client { proto: PROTO_APP, id: i as u64 };
            let header = Bytes::from(h.clone());
            st_engine::create(&mut sim, a, b, &request, false, app, header).unwrap();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(1));

        let created = created.borrow();
        let ids: Vec<u64> = created.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(ids, (0..headers.len() as u64).collect::<Vec<_>>());
        let mut held = BTreeSet::from([rx, tx]);
        for ((_, st_rms), h) in created.iter().zip(&headers) {
            let lane = &sim.state.st.host(b).streams[st_rms];
            prop_assert_eq!(lane.role, StRole::Receiver);
            let app = Client { proto: PROTO_APP, id: st_rms.0 };
            match expected(h, &mut held) {
                Some(Client { proto: MAGIC_RKOM, .. }) => {
                    prop_assert_eq!(lane.client.proto, MAGIC_RKOM, "{:?}", h);
                }
                want => prop_assert_eq!(lane.client, want.unwrap_or(app), "{:?}", h),
            }
        }
        // A session the receiver already held is untouched, a session a
        // Hello opened is a receiving one, and the first stream still runs.
        prop_assert_eq!(sim.state.stream.session(b, tx).map(|s| s.role), Some(StreamRole::Tx));
        for s in held.iter().filter(|s| ![rx, tx].contains(s)) {
            let session = sim.state.stream.session(b, *s).expect("opened by its Hello");
            prop_assert_eq!((session.role, session.peer), (StreamRole::Rx, a));
        }
        stream::send(&mut sim, a, rx, Message::zeroes(64)).unwrap();
        sim.run_until(sim.now() + SimDuration::from_secs(1));
        prop_assert_eq!(delivered(&sim), Some((StreamRole::Rx, 2)));
    }
}
