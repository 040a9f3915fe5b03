//! The reliable stream's recovery machine, driven by *scheduled* loss.
//!
//! Nothing here is left to a drop probability: the links are loss-free and
//! a [`Rig`] loses exactly the packets a test names. It labels every
//! stream message by its lifecycle span (`TransportSend` /
//! `StreamRetransmit` / `StreamAck` → `StSend` → `IfaceDequeue`), and while
//! a doomed packet is on its sender's transmitter the rig partitions that
//! hop, so the wire loses it. A loss the plan did not name (the partition
//! is per host pair, so a packet crossing the other way in the same
//! instant dies too) is *collateral*; the exact tests assert there is none.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use dash_net::topology::TopologyBuilder;
use dash_net::{HostId, NetworkSpec};
use dash_sim::obs::{ObsEvent, ObsSink, RetransmitCause};
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::{self, EndReason, StreamEvent, StreamProfile, MAX_RETRIES};
use proptest::prelude::*;
use rms_core::message::Message;

/// What a packet leaving an endpoint carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pkt {
    /// Stream data `seq`; `resend` 0 is the first transmission.
    Data { seq: u64, resend: u32 },
    /// A stream acknowledgement.
    Ack,
    /// Anything else (ST control).
    Other,
}

/// Shared between the obs sink (which sees every event as it happens) and
/// the rig's stepping loop (which owns the simulator).
struct Wire {
    ends: [u32; 2],
    lose: Box<dyn FnMut(Pkt) -> bool>,
    /// Span → what the message is.
    labels: BTreeMap<u64, Pkt>,
    /// Label for the next unlabelled `StSend` of each endpoint.
    next_label: [Option<Pkt>; 2],
    resends: BTreeMap<u64, u32>,
    /// The packet each endpoint is transmitting must die.
    doomed: [bool; 2],
    /// Planned losses that happened, in order.
    lost: Vec<(SimTime, Pkt)>,
    /// Losses nobody planned.
    collateral: u32,
    /// Retransmissions, in order.
    resent: Vec<(SimTime, u64, RetransmitCause)>,
}

struct WireSink(Rc<RefCell<Wire>>);

impl ObsSink for WireSink {
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        let w = &mut *self.0.borrow_mut();
        let end = |host: &u32| w.ends.iter().position(|h| h == host);
        match event {
            ObsEvent::TransportSend {
                host,
                seq,
                span: Some(span),
                ..
            } if end(host).is_some() => {
                w.labels.insert(
                    *span,
                    Pkt::Data {
                        seq: *seq,
                        resend: 0,
                    },
                );
                w.next_label[end(host).unwrap()] = None;
            }
            ObsEvent::StreamRetransmit {
                host, seq, cause, ..
            } => {
                w.resent.push((time, *seq, *cause));
                let n = w.resends.entry(*seq).or_default();
                *n += 1;
                let resend = *n;
                if let Some(e) = end(host) {
                    w.next_label[e] = Some(Pkt::Data { seq: *seq, resend });
                }
            }
            ObsEvent::StreamAck { host, .. } => {
                if let Some(e) = end(host) {
                    w.next_label[e] = Some(Pkt::Ack);
                }
            }
            ObsEvent::StSend {
                host,
                span: Some(span),
                ..
            } => {
                if let Some(label) = end(host).and_then(|e| w.next_label[e]) {
                    w.labels.entry(*span).or_insert(label);
                }
            }
            ObsEvent::IfaceDequeue { host, span, .. } => {
                if let Some(e) = end(host) {
                    let pkt = span
                        .and_then(|s| w.labels.get(&s).copied())
                        .unwrap_or(Pkt::Other);
                    w.doomed[e] = (w.lose)(pkt);
                    if w.doomed[e] {
                        w.lost.push((time, pkt));
                    }
                }
            }
            ObsEvent::WireDrop { host, .. } => match end(host) {
                Some(e) if w.doomed[e] => {
                    w.doomed[e] = false;
                    // The loss happens when the packet leaves the wire.
                    w.lost.last_mut().expect("doomed implies logged").0 = time;
                }
                _ => w.collateral += 1,
            },
            _ => {}
        }
    }
}

/// A sender `a`, a receiver `b`, one open reliable session between them and
/// a wire that loses what it is told to.
struct Rig {
    sim: Sim<Stack>,
    a: HostId,
    b: HostId,
    /// Each endpoint's first hop (the peer on a LAN, its gateway on a WAN).
    hops: [HostId; 2],
    session: u64,
    wire: Rc<RefCell<Wire>>,
    /// `(seq, when)` in delivery order.
    delivered: Rc<RefCell<Vec<(u64, SimTime)>>>,
    ended: Rc<RefCell<Vec<EndReason>>>,
    /// Whether the receiving application consumes each message as it is
    /// delivered (on by default).
    consume_at_delivery: Rc<Cell<bool>>,
    /// Send-to-delivery time of the warm-up message: the path, measured.
    one_way: SimDuration,
}

fn clean(mut spec: NetworkSpec) -> NetworkSpec {
    spec.drop_prob = 0.0;
    spec.caps.raw_ber = 0.0;
    spec
}

impl Rig {
    /// Two hosts on one loss-free Ethernet.
    fn lan(profile: StreamProfile) -> Rig {
        let mut t = TopologyBuilder::new();
        let n = t.network(clean(NetworkSpec::ethernet("lan")));
        let (a, b) = (t.host_on(n), t.host_on(n));
        Rig::open(t, a, b, [b, a], profile)
    }

    /// Two loss-free Ethernets joined by a loss-free long-haul link (a
    /// ~65 ms round trip).
    fn wan(profile: StreamProfile) -> Rig {
        let mut t = TopologyBuilder::new();
        let lan_a = t.network(clean(NetworkSpec::ethernet("lan-a")));
        let wan = t.network(clean(NetworkSpec::long_haul("wan")));
        let lan_b = t.network(clean(NetworkSpec::ethernet("lan-b")));
        let a = t.host_on(lan_a);
        let g1 = t.gateway(lan_a, wan);
        let g2 = t.gateway(wan, lan_b);
        let b = t.host_on(lan_b);
        Rig::open(t, a, b, [g1, g2], profile)
    }

    /// Build the stack, open the session and send one warm-up message
    /// (sequence 0) so the ack stream exists and has carried an ack; the
    /// scenario's messages start at sequence 1.
    fn open(
        t: TopologyBuilder,
        a: HostId,
        b: HostId,
        hops: [HostId; 2],
        profile: StreamProfile,
    ) -> Rig {
        let wire = Rc::new(RefCell::new(Wire {
            ends: [a.0, b.0],
            lose: Box::new(|_| false),
            labels: BTreeMap::new(),
            next_label: [None; 2],
            resends: BTreeMap::new(),
            doomed: [false; 2],
            lost: Vec::new(),
            collateral: 0,
            resent: Vec::new(),
        }));
        let stack = StackBuilder::new(t.build())
            .obs_sink(WireSink(Rc::clone(&wire)))
            .build();
        let mut sim = Sim::new(stack);
        // One message, one packet: no bundling to blur the labels.
        sim.state.st.config.piggyback = false;
        let delivered = Rc::new(RefCell::new(Vec::new()));
        let ended = Rc::new(RefCell::new(Vec::new()));
        let consume_at_delivery = Rc::new(Cell::new(true));
        let (d, c) = (Rc::clone(&delivered), Rc::clone(&consume_at_delivery));
        sim.state.on_stream(b, move |sim, ev| {
            if let StreamEvent::Delivered {
                session, seq, msg, ..
            } = ev
            {
                d.borrow_mut().push((seq, sim.now()));
                if c.get() {
                    stream::consume(sim, b, session, msg.len() as u64);
                }
            }
        });
        let e = Rc::clone(&ended);
        sim.state.on_stream(a, move |_, ev| {
            if let StreamEvent::Ended { reason, .. } = ev {
                e.borrow_mut().push(reason);
            }
        });
        let session = stream::open(&mut sim, a, b, profile).unwrap();
        let mut rig = Rig {
            sim,
            a,
            b,
            hops,
            session,
            wire,
            delivered,
            ended,
            consume_at_delivery,
            one_way: SimDuration::ZERO,
        };
        rig.run();
        let sent_at = rig.sim.now();
        rig.send(1, 100);
        rig.run();
        assert_eq!(rig.seqs(), [0], "warm-up");
        rig.one_way = rig.delivered.borrow()[0].1.saturating_since(sent_at);
        rig
    }

    /// Lose every packet `lose` accepts from now on.
    fn lose(&mut self, lose: impl FnMut(Pkt) -> bool + 'static) {
        self.wire.borrow_mut().lose = Box::new(lose);
    }

    fn send(&mut self, n: usize, len: usize) {
        for _ in 0..n {
            stream::send(&mut self.sim, self.a, self.session, Message::zeroes(len)).unwrap();
        }
    }

    /// One event, with the hop of any doomed in-flight packet cut.
    fn step(&mut self) -> bool {
        let doomed = self.wire.borrow().doomed;
        let net = &mut self.sim.state.net;
        let cuts = [(self.a, self.hops[0]), (self.b, self.hops[1])];
        for (end, hop) in cuts {
            net.heal_partition(end, hop);
        }
        for ((end, hop), doomed) in cuts.into_iter().zip(doomed) {
            if doomed {
                net.partition(end, hop);
            }
        }
        self.sim.step()
    }

    /// To quiescence.
    fn run(&mut self) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 5_000_000, "the run does not quiesce");
        }
    }

    fn run_for(&mut self, d: SimDuration) {
        let until = self.sim.now() + d;
        while self.sim.next_event_time().is_some_and(|t| t <= until) {
            self.step();
        }
    }

    fn rx(&self) -> &stream::Session {
        self.sim.state.stream.session(self.b, self.session).unwrap()
    }

    fn seqs(&self) -> Vec<u64> {
        self.delivered.borrow().iter().map(|d| d.0).collect()
    }

    fn retransmitted(&self) -> u64 {
        let tx = self.sim.state.stream.session(self.a, self.session).unwrap();
        tx.stats.retransmitted.get()
    }

    fn resent(&self) -> Vec<(u64, RetransmitCause)> {
        let w = self.wire.borrow();
        w.resent.iter().map(|r| (r.1, r.2)).collect()
    }

    fn assert_no_collateral(&self) {
        assert_eq!(self.wire.borrow().collateral, 0, "unplanned loss");
    }
}

/// Reliable, nothing else; the RTO (≈322 ms, from the default delay bound)
/// clears the WAN rig's ~65 ms round trip.
fn reliable() -> StreamProfile {
    StreamProfile {
        reliable: true,
        max_message: 1024,
        ..StreamProfile::default()
    }
}

fn first_send_of(seq: u64) -> impl FnMut(Pkt) -> bool {
    move |p| p == Pkt::Data { seq, resend: 0 }
}

/// (i) The acks for everything before a lost tail cancel the RTO and leave
/// the send port empty: the ack arm itself must put the clock back, or
/// nothing ever repairs the tail.
#[test]
fn tail_loss_with_an_empty_port_rearms_the_rto_and_completes() {
    let mut rig = Rig::wan(reliable());
    rig.lose(first_send_of(5));
    rig.send(5, 1000);
    rig.run();
    assert_eq!(rig.seqs(), [0, 1, 2, 3, 4, 5]);
    assert_eq!(rig.resent(), [(5, RetransmitCause::Rto)]);
    assert_eq!(rig.retransmitted(), 1);
    assert!(rig.ended.borrow().is_empty());
    rig.assert_no_collateral();
}

/// (ii) One loss in the middle of a window costs exactly one
/// retransmission, sent on the receiver's evidence, and the receiver's
/// hold makes everything behind it deliverable the moment it lands.
#[test]
fn one_mid_window_loss_costs_one_retransmission_and_no_timeout() {
    let mut rig = Rig::wan(reliable());
    rig.lose(first_send_of(4));
    rig.send(10, 200);
    rig.run();
    assert_eq!(rig.seqs(), (0..=10).collect::<Vec<u64>>());
    assert_eq!(rig.retransmitted(), 1);
    let resent = rig.resent();
    assert_eq!(resent.len(), 1);
    assert_eq!(resent[0].0, 4);
    assert_ne!(resent[0].1, RetransmitCause::Rto);
    // Completion within two round trips of the loss.
    let (lost_at, _) = rig.wire.borrow().lost[0];
    let done_at = rig.delivered.borrow().last().unwrap().1;
    let rtt = rig.one_way.saturating_mul(2);
    assert!(
        done_at.saturating_since(lost_at) <= rtt.saturating_mul(2),
        "lost at {lost_at}, done at {done_at}, rtt {rtt}"
    );
    rig.assert_no_collateral();
}

/// (iii) A retransmission that is lost too is not asked for twice: the
/// hole is already being repaired, so the timeout is what resends it.
#[test]
fn a_lost_retransmission_falls_back_to_the_rto() {
    let mut rig = Rig::wan(reliable());
    rig.lose(|p| matches!(p, Pkt::Data { seq: 4, resend } if resend < 2));
    rig.send(10, 200);
    rig.run();
    assert_eq!(rig.seqs(), (0..=10).collect::<Vec<u64>>());
    let resent = rig.resent();
    assert_eq!(resent.len(), 2, "{resent:?}");
    assert_eq!(resent[0].0, 4);
    assert_ne!(resent[0].1, RetransmitCause::Rto);
    assert_eq!(resent[1], (4, RetransmitCause::Rto));
    assert_eq!(rig.retransmitted(), 2);
    rig.assert_no_collateral();
}

/// (iii) With the peer gone the timeouts back off exponentially and
/// `MAX_RETRIES` ends the session with a typed reason.
#[test]
fn a_dead_path_backs_off_and_exhausts_the_retry_budget() {
    let rto = reliable().rto();
    let mut rig = Rig::wan(reliable());
    rig.lose(|p| matches!(p, Pkt::Data { .. }));
    let sent_at = rig.sim.now();
    rig.send(3, 200);
    rig.run();
    assert_eq!(rig.seqs(), [0], "nothing gets through");
    assert_eq!(*rig.ended.borrow(), [EndReason::RetriesExhausted]);
    let times: Vec<SimDuration> = {
        let w = rig.wire.borrow();
        assert!(w
            .resent
            .iter()
            .all(|r| (r.1, r.2) == (1, RetransmitCause::Rto)));
        w.resent
            .iter()
            .map(|r| r.0.saturating_since(sent_at))
            .collect()
    };
    // rto, then 2·rto, 4·rto, ... after the previous one, the factor
    // capped at 64.
    let mut want = Vec::new();
    let mut at = SimDuration::ZERO;
    for n in 0..MAX_RETRIES {
        at = at.saturating_add(rto.saturating_mul(1 << n.min(6)));
        want.push(at);
    }
    assert_eq!(times, want, "backoff");
}

/// An ended sender is gone. With every data packet after the first lost,
/// the sender exhausts its retries while the receiving application still
/// holds the one message that got through; when it consumes it, the
/// window update reaches a sender that has ended, and schedules nothing.
#[test]
fn a_late_ack_for_an_ended_sender_schedules_nothing() {
    let mut rig = Rig::wan(StreamProfile {
        receiver_fc: true,
        ..reliable()
    });
    rig.consume_at_delivery.set(false);
    rig.lose(|p| matches!(p, Pkt::Data { seq, .. } if seq >= 2));
    rig.send(3, 200);
    rig.run();
    assert_eq!(rig.seqs(), [0, 1]);
    assert_eq!(*rig.ended.borrow(), [EndReason::RetriesExhausted]);
    assert_eq!(rig.sim.events_pending(), 0);
    stream::consume(&mut rig.sim, rig.b, rig.session, 200);
    let acked = rig.one_way.saturating_mul(4);
    rig.run_for(acked);
    assert_eq!(rig.sim.events_pending(), 0, "the late ack armed a timer");
    assert!(rig.sim.state.stream.session(rig.a, rig.session).is_none());
}

/// (iv) Losing acks is not losing data. A later cumulative ack covers a
/// lost one; with every ack lost the only retransmission is the timeout's,
/// and the re-ack its duplicate draws (same `cum_seq`, no gap) asks for
/// nothing more.
#[test]
fn lost_acks_alone_never_retransmit_before_an_rto() {
    let mut rig = Rig::wan(reliable());
    let mut acks = 0;
    rig.lose(move |p| {
        acks += u32::from(p == Pkt::Ack);
        p == Pkt::Ack && acks == 1
    });
    rig.send(8, 200);
    rig.run();
    assert_eq!(rig.wire.borrow().lost.len(), 1, "one ack was lost");
    assert_eq!(rig.retransmitted(), 0, "the next ack covered it");

    let deaf = Rc::new(Cell::new(true));
    let d = Rc::clone(&deaf);
    rig.lose(move |p| p == Pkt::Ack && d.get());
    let sent_at = rig.sim.now();
    rig.send(8, 200);
    // Every ack of the burst is lost; the path heals once the RTO has fired.
    let rto = reliable().rto();
    rig.run_for(rto.saturating_add(SimDuration::from_millis(10)));
    deaf.set(false);
    rig.run();
    assert_eq!(rig.seqs(), (0..=16).collect::<Vec<u64>>());
    let w = rig.wire.borrow();
    assert_eq!(w.resent.len(), 1, "{:?}", w.resent);
    let (at, seq, cause) = w.resent[0];
    assert_eq!((seq, cause), (9, RetransmitCause::Rto));
    assert_eq!(at.saturating_since(sent_at), rto);
    assert_eq!(w.collateral, 0, "unplanned loss");
}

/// (v) A window update repeats `cum_seq` while data is in flight; it is
/// not a duplicate ack and does not start a repair.
#[test]
fn window_updates_with_unchanged_cum_seq_do_not_enter_recovery() {
    let mut rig = Rig::wan(StreamProfile {
        receiver_fc: true,
        capacity: 4 * 1024, // an 8 KiB receive buffer
        ..reliable()
    });
    rig.consume_at_delivery.set(false);
    rig.send(2, 200);
    rig.run();
    assert_eq!(rig.rx().receive_buffer_pending(), 400);
    // Two more in flight; meanwhile the application drains the first two
    // in four sips, each one a forced ack with the same `cum_seq`.
    rig.send(2, 200);
    let acks_before = rig.rx().stats.acks_sent.get();
    for _ in 0..4 {
        stream::consume(&mut rig.sim, rig.b, rig.session, 100);
        rig.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(rig.rx().stats.acks_sent.get(), acks_before + 4);
    assert_eq!(rig.seqs(), [0, 1, 2], "the second pair is still in flight");
    rig.run();
    assert_eq!(rig.seqs(), [0, 1, 2, 3, 4]);
    assert_eq!(rig.retransmitted(), 0);
    assert!(rig.resent().is_empty());
}

/// (vi) The hold lives inside the receive buffer, and a reliable sender
/// never has more unacknowledged than that buffer (no receiver flow
/// control on either side): the messages behind a loss are held, none is
/// refused, the in-order arrival goes straight to the application and
/// releases the hold behind it, and everything is repaired on evidence —
/// no timeout.
#[test]
fn the_hold_never_exceeds_the_receive_buffer() {
    let mut rig = Rig::wan(StreamProfile {
        capacity: 2000, // a 4 000 B receive buffer
        ..reliable()
    });
    rig.lose(first_send_of(1));
    rig.send(8, 1000);
    let mut peak = 0;
    while rig.step() {
        let rx = rig.rx();
        let used = rx.receive_buffer_pending() + rx.held_bytes();
        assert!(used <= 4000, "{used} bytes buffered");
        peak = peak.max(rx.held_bytes());
    }
    assert_eq!(peak, 3000, "the hold filled behind the loss");
    assert_eq!(rig.seqs(), (0..=8).collect::<Vec<u64>>());
    // #1..#4 filled the sender's window; #2..#4 were held, nothing was
    // refused, and #1 took no buffer space to land.
    assert_eq!(rig.rx().stats.buffer_drops.get(), 0);
    let resent = rig.resent();
    assert_eq!(resent.iter().map(|r| r.0).collect::<Vec<_>>(), [1]);
    assert!(resent.iter().all(|r| r.1 != RetransmitCause::Rto));
    rig.assert_no_collateral();
}

proptest! {
    /// Any finite set of lost data and ack packets: every message is
    /// delivered exactly once and in order, the session neither wedges nor
    /// fails, and the repair work is proportional to the loss — with and
    /// without receiver flow control, and with a receive buffer the
    /// messages overrun (40 × 1 000 B against 8 KiB).
    #[test]
    fn random_loss_is_repaired_exactly_once_in_order_and_in_proportion(
        messages in 5usize..40,
        doomed in proptest::collection::vec(0u32..150, 0..14),
    ) {
        let with_fc = StreamProfile {
            receiver_fc: true,
            capacity: 8 * 1024, // a 16 KiB receive buffer
            ..reliable()
        };
        let small_buffer = StreamProfile {
            capacity: 4 * 1024, // an 8 KiB receive buffer
            ..reliable()
        };
        for profile in [reliable(), with_fc, small_buffer] {
            let mut rig = Rig::lan(profile);
            let doomed = doomed.clone();
            let mut nth = 0;
            rig.lose(move |p| {
                if p == Pkt::Other {
                    return false;
                }
                nth += 1;
                doomed.contains(&nth)
            });
            rig.send(messages, 1000);
            rig.run();
            prop_assert_eq!(rig.seqs(), (0..=messages as u64).collect::<Vec<u64>>());
            prop_assert!(rig.ended.borrow().is_empty());
            let w = rig.wire.borrow();
            let drops = w.lost.len() as u64 + u64::from(w.collateral);
            let rtos = w.resent.iter().filter(|r| r.2 == RetransmitCause::Rto).count() as u64;
            prop_assert!(
                rig.retransmitted() <= 2 * drops + rtos,
                "{} retransmissions for {} drops and {} timeouts",
                rig.retransmitted(), drops, rtos
            );
        }
    }
}
