//! Pay only for the mechanisms the contract calls for (§2.5/§4): on a run
//! with loss-free links and no fault plan, the reliability machinery does
//! no repair work at all.
//!
//! The `mix` CI plan — voice, WAN voice, churn, bulk transfers, RPC — runs
//! with every network's drop probability and bit error rate at zero and
//! the fault drill off, on the serial engine and on the parallel executor.
//! Reliable streams must not retransmit once (by evidence *or* by
//! timeout), the oracle must be clean, and no RKOM call may be resent
//! while its channel is still being created. An RKOM retransmission on a
//! *ready* channel is a timeout the path earned (its round trip outlasted
//! the period derived from the negotiated bound); those are printed with
//! their measured round trip rather than hidden, and bounded.

use std::collections::BTreeMap;

use dash::apps::scenario::{run, Backend, Outcome, Scenario};
use dash::apps::traffic::Tally;
use dash_bench::mix::MixParams;
use dash_sim::obs::ObsEvent;
use dash_sim::time::SimTime;

/// The CI plan with the drill off, on links that lose and damage nothing.
fn loss_free_ci() -> Scenario {
    let scn = MixParams {
        fault_drill: false,
        ..MixParams::ci()
    }
    .scenario();
    assert!(scn.faults.events.is_empty(), "no fault plan");
    let topo = scn.topo;
    Scenario {
        topo: Box::new(move || {
            let mut net = topo();
            for n in &mut net.networks {
                n.spec.drop_prob = 0.0;
                n.spec.caps.raw_ber = 0.0;
            }
            net
        }),
        keep_events: true,
        ..scn
    }
}

/// One RKOM retransmission of a run.
struct Resend {
    call: u64,
    at: SimTime,
    issued: SimTime,
    completed: Option<SimTime>,
    /// The call was the first from its host to its peer: it was queued
    /// behind the creation of the channel.
    cold: bool,
}

fn rkom_retransmissions(o: &Outcome) -> Vec<Resend> {
    let mut issued = BTreeMap::new();
    let mut completed = BTreeMap::new();
    let mut first_to_peer = BTreeMap::new();
    for (t, e) in &o.stream {
        match e {
            ObsEvent::RkomSend { host, peer, call } => {
                issued.insert(*call, *t);
                first_to_peer.entry((*host, *peer)).or_insert(*call);
            }
            ObsEvent::RkomDeliver { call, .. } => {
                completed.insert(*call, *t);
            }
            _ => {}
        }
    }
    o.stream
        .iter()
        .filter_map(|(t, e)| match e {
            ObsEvent::RkomRetransmit { host, call } => Some(Resend {
                call: *call,
                at: *t,
                issued: issued[call],
                completed: completed.get(call).copied(),
                cold: first_to_peer
                    .iter()
                    .any(|((h, _), c)| h == host && c == call),
            }),
            _ => None,
        })
        .collect()
}

fn assert_no_spurious_work(name: &str, o: &Outcome) {
    let received: u64 = o.acct.flows.values().map(|t| t.received).sum();
    assert!(received > 500, "{name}: the plan ran");
    let calls: Tally = o.acct.rpcs.values().sum();
    assert!(calls.received >= 40, "{name}: {} calls", calls.received);
    let lost = o
        .stream
        .iter()
        .filter(|(_, e)| matches!(e, ObsEvent::WireDrop { .. } | ObsEvent::IfaceDrop { .. }))
        .count();
    assert_eq!(lost, 0, "{name}: the run must be loss-free");

    let resent: Vec<_> = o
        .stream
        .iter()
        .filter(|(_, e)| matches!(e, ObsEvent::StreamRetransmit { .. }))
        .collect();
    assert!(
        resent.is_empty(),
        "{name}: stream retransmissions {resent:?}"
    );
    assert!(o.verdict.is_clean(), "{name}: {}", o.verdict);

    // RKOM: the retry clock of a call queued behind channel creation
    // starts when the channel is ready, so its first resend comes strictly
    // later than one period after the call was issued (the old clock fired
    // at exactly one period, on a request that had never been sent). What
    // is left is a timeout on a ready channel, and is reported.
    let retry = dash::transport::rkom::RETRY_TIMEOUT;
    let rkom = rkom_retransmissions(o);
    for r in &rkom {
        let waited = r.at.saturating_since(r.issued);
        let round_trip = r.completed.map(|c| c.saturating_since(r.issued));
        println!(
            "{name}: rkom call {} (cold: {}) resent {waited} after issue on a ready \
             channel (period >= {retry}); measured round trip {round_trip:?}",
            r.call, r.cold
        );
        assert!(
            if r.cold {
                waited > retry
            } else {
                waited >= retry
            },
            "{name}: call {} resent while its channel was still being created",
            r.call
        );
    }
    assert!(
        rkom.len() as u64 * 20 <= calls.sent,
        "{name}: {} RKOM retransmissions for {} calls",
        rkom.len(),
        calls.sent
    );
}

#[test]
fn loss_free_mix_does_no_repair_work_on_serial_and_par() {
    let scn = loss_free_ci();
    assert_no_spurious_work("serial", &run(&scn, Backend::Serial));
    for shards in [1, 2] {
        let par = Backend::Par { shards };
        assert_no_spurious_work(&format!("par({shards})"), &run(&scn, par));
    }
}
