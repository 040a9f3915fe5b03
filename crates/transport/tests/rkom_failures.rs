//! RKOM failure paths: what happens when the request/reply protocol does
//! NOT go right. Complements the happy-path coverage in `transport_e2e`:
//! a reply landing after the caller exhausted its retries, duplicate
//! replies from the server's at-most-once cache, and a channel dying
//! under an outstanding call.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dash_net::topology::dumbbell;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_transport::rkom::{self, RkomError};
use dash_transport::stack::{Stack, StackBuilder};
use rms_core::error::FailReason;
use rms_core::RmsError;

/// Calls completed with a reply, world-wide (only `a` calls in these tests).
fn completed(sim: &Sim<Stack>) -> u64 {
    sim.state.net.obs.registry.counter_value("rkom.completed")
}

/// A reply arriving after the client gave up must not resurrect the call:
/// the callback fires exactly once (with `Timeout`), and the late reply is
/// absorbed silently — acknowledged so the server can release its cache,
/// never delivered to application code.
#[test]
fn late_reply_after_retries_exhausted_is_absorbed() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    // Give up long before the ~70 ms WAN round trip: the request reaches
    // the server and is served, but the reply lands on a dead call.
    sim.state.rkom.config.retry_timeout = SimDuration::from_millis(20);
    sim.state.rkom.config.max_retries = 0;
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    rkom::register_service(&mut sim.state, b, 1, |_s, _c, _req| {
        Bytes::from_static(b"too late")
    });
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"op"),
        move |_s, res| {
            o2.borrow_mut().push(res);
        },
    );
    sim.run();
    // The server did execute the request — this is precisely the window
    // where a buggy client would complete a call it already failed.
    assert_eq!(sim.state.rkom.host(b).stats.served.get(), 1);
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1, "callback must fire exactly once: {got:?}");
    assert_eq!(got[0], Err(RkomError::Timeout));
    let stats = &sim.state.rkom.host(a).stats;
    assert_eq!(stats.failed.get(), 1);
    assert_eq!(completed(&sim), 0, "late reply must not count");
}

/// Duplicate replies (the server re-serving from its at-most-once cache
/// after a retransmitted request) complete the call exactly once at the
/// client; the extra reply is acked and dropped.
#[test]
fn duplicate_reply_is_suppressed_at_client() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    // Retransmit before the first reply can cross the WAN (channel
    // establishment plus the round trip take well over 80 ms), so the
    // server sees duplicate requests and re-sends the cached reply.
    sim.state.rkom.config.retry_timeout = SimDuration::from_millis(80);
    sim.state.rkom.config.max_retries = 10;
    let executions = Rc::new(RefCell::new(0u32));
    let ex2 = Rc::clone(&executions);
    rkom::register_service(&mut sim.state, b, 1, move |_s, _c, _req| {
        *ex2.borrow_mut() += 1;
        Bytes::from_static(b"reply")
    });
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"op"),
        move |_s, res| {
            o2.borrow_mut().push(res);
        },
    );
    sim.run();
    // The server was asked at least twice but executed once, and the
    // cached second reply really was sent.
    assert_eq!(*executions.borrow(), 1, "at-most-once violated");
    assert!(
        sim.state.rkom.host(b).stats.duplicates_served.get() >= 1,
        "scenario must actually produce a duplicate reply"
    );
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1, "callback must fire exactly once: {got:?}");
    assert_eq!(got[0], Ok(Bytes::from_static(b"reply")));
    let stats = &sim.state.rkom.host(a).stats;
    assert_eq!(completed(&sim), 1);
    assert_eq!(stats.failed.get(), 0);
}

/// A network failure while a call is outstanding surfaces as a typed
/// `ChannelFailed` (not a generic timeout), and fails the call exactly
/// once even though both lanes of the channel die.
#[test]
fn channel_failure_mid_call_fails_typed() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    rkom::register_service(&mut sim.state, b, 1, |_s, _c, _req| {
        Bytes::from_static(b"pong")
    });
    // Warm up: establish the channel with a successful call.
    let warm = Rc::new(RefCell::new(false));
    let w2 = Rc::clone(&warm);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"warm"),
        move |_s, res| {
            assert!(res.is_ok());
            *w2.borrow_mut() = true;
        },
    );
    sim.run();
    assert!(*warm.borrow());
    // Second call: let the request get onto the WAN, then kill the WAN.
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"doomed"),
        move |_s, res| {
            o2.borrow_mut().push(res);
        },
    );
    sim.run_until(sim.now() + SimDuration::from_millis(10));
    assert!(outcomes.borrow().is_empty(), "call must still be in flight");
    // The dumbbell's WAN is the only path between the sides: no failover.
    dash_net::pipeline::fail_network(&mut sim, dash_net::NetworkId(1));
    sim.run();
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1, "callback must fire exactly once: {got:?}");
    assert_eq!(
        got[0],
        Err(RkomError::ChannelFailed(RmsError::Failed(
            FailReason::NetworkDown
        )))
    );
    assert_eq!(sim.state.rkom.host(a).stats.failed.get(), 1);
}

/// The retry clock of a request starts when the request is handed to the
/// ST, not when `call` queues it behind channel creation: the first call
/// to a fresh peer across the WAN (creation alone outlasts the 200 ms
/// retry timeout) completes without a single retransmission, and the
/// server sees the request once.
#[test]
fn first_call_to_a_fresh_wan_peer_is_not_retransmitted() {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    rkom::register_service(&mut sim.state, b, 1, |_s, _c, _req| {
        Bytes::from_static(b"pong")
    });
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    let issued = sim.now();
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"ping"),
        move |s, res| {
            o2.borrow_mut().push((s.now(), res));
        },
    );
    sim.run();
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, Ok(Bytes::from_static(b"pong")));
    assert!(
        got[0].0.saturating_since(issued) > sim.state.rkom.config.retry_timeout,
        "the scenario must outlast the retry timeout to mean anything"
    );
    assert_eq!(sim.state.rkom.host(a).stats.retransmissions.get(), 0);
    assert_eq!(sim.state.rkom.host(b).stats.served.get(), 1);
    assert_eq!(sim.state.rkom.host(b).stats.duplicates_served.get(), 0);
}

/// While the channel cannot be created the attempt budget still runs — the
/// call ends with a typed failure after `max_retries + 1` periods — but
/// nothing was ever sent, so nothing is counted (or queued) as a
/// retransmission.
#[test]
fn an_unready_channel_spends_the_budget_without_retransmitting() {
    let (net, a, b, g1, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    sim.state.rkom.config.retry_timeout = SimDuration::from_millis(50);
    sim.state.rkom.config.max_retries = 3;
    // Nothing leaves a's LAN: the creation request never gets an answer.
    sim.state.net.partition(a, g1);
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    let issued = sim.now();
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"op"),
        move |s, res| {
            o2.borrow_mut().push((s.now(), res));
        },
    );
    sim.run();
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1, "callback must fire exactly once: {got:?}");
    assert_eq!(got[0].1, Err(RkomError::Timeout));
    assert_eq!(
        got[0].0.saturating_since(issued),
        SimDuration::from_millis(200)
    );
    let stats = &sim.state.rkom.host(a).stats;
    assert_eq!(stats.retransmissions.get(), 0);
    assert_eq!(stats.failed.get(), 1);
}

/// Loss is still repaired: a request lost on a ready channel is resent
/// when its retry period expires, and the call completes exactly once.
#[test]
fn a_lost_request_is_retried_and_completes_exactly_once() {
    let (net, a, b, g1, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    let executions = Rc::new(RefCell::new(0u32));
    let ex2 = Rc::clone(&executions);
    rkom::register_service(&mut sim.state, b, 1, move |_s, _c, _req| {
        *ex2.borrow_mut() += 1;
        Bytes::from_static(b"pong")
    });
    // Warm up: both halves of the channel exist.
    rkom::call(&mut sim, a, b, 1, Bytes::from_static(b"warm"), |_s, res| {
        assert!(res.is_ok());
    });
    sim.run();
    assert_eq!(*executions.borrow(), 1);
    // The request dies on its first hop; the path heals before the retry.
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let o2 = Rc::clone(&outcomes);
    sim.state.net.partition(a, g1);
    rkom::call(
        &mut sim,
        a,
        b,
        1,
        Bytes::from_static(b"op"),
        move |_s, res| {
            o2.borrow_mut().push(res);
        },
    );
    sim.run_until(sim.now() + SimDuration::from_millis(20));
    assert_eq!(
        sim.state.net.obs.registry.counter_value("net.wire_drop"),
        1,
        "the request was lost"
    );
    sim.state.net.heal_partition(a, g1);
    sim.run();
    let got = outcomes.borrow();
    assert_eq!(got.len(), 1, "callback must fire exactly once: {got:?}");
    assert_eq!(got[0], Ok(Bytes::from_static(b"pong")));
    assert_eq!(*executions.borrow(), 2, "the retried request ran once");
    let stats = &sim.state.rkom.host(a).stats;
    assert_eq!(stats.retransmissions.get(), 1);
    assert_eq!(completed(&sim), 2);
}
