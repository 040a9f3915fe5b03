//! The traffic plan: what every workload offers to the stack.
//!
//! A [`Plan`] is a pure function of the workload's parameters and the
//! seed, so the serial world and every replica world of a sharded run
//! compute the same plan and each acts only on the endpoints it owns
//! (`dash-par` requires exactly that). Senders tag the first payload byte
//! with the traffic class, so a receiver classifies a delivery without
//! knowing which session the sender minted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use dash_net::ids::HostId;
use dash_net::pipeline::send_datagram;
use dash_sim::engine::Sim;
use dash_sim::rng::Rng;
use dash_sim::stats::Histogram;
use dash_sim::time::SimDuration;
use dash_transport::rkom;
use dash_transport::stack::Stack;
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::message::Message;
use rms_core::wire::WireMsg;

/// Traffic class of a stream flow; `tag = class + 1` is the first payload
/// byte of every message of the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Intra-LAN voice, 160 B every 20 ms, open loop.
    Voice = 0,
    /// Voice whose delay bound survives a WAN or multi-LAN path.
    FarVoice = 1,
    /// Reliable bulk transfer, closed loop (window/ack clocked).
    Bulk = 2,
    /// Short-lived cross-site session (RMS cache and establishment churn).
    Churn = 3,
    /// Deterministic-delay stream sized to saturate a corridor's budget.
    Heavy = 4,
}

/// Number of [`Class`] values.
pub const CLASSES: usize = 5;

impl Class {
    fn from_tag(tag: u8) -> Option<Class> {
        [
            Class::Voice,
            Class::FarVoice,
            Class::Bulk,
            Class::Churn,
            Class::Heavy,
        ]
        .get(usize::from(tag).wrapping_sub(1))
        .copied()
    }
}

/// One planned stream flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Traffic class (accounting and payload tag).
    pub class: Class,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// When the session is opened, from the run start.
    pub start: SimDuration,
    /// Nothing is offered at or after this time: sources stop here even
    /// when the session opened late.
    pub end: SimDuration,
    /// Most messages to offer (`u64::MAX`: until `end`).
    pub count: u64,
    /// Pacing interval; zero means "offer until flow control pushes back,
    /// resume on `Drained`" (closed loop).
    pub interval: SimDuration,
    /// Payload bytes per message, tag included.
    pub len: u64,
    /// Stream profile to open.
    pub profile: StreamProfile,
}

/// One planned RKOM client/server pair: Poisson arrivals at `rate` calls
/// per second (open loop) from `start` until `end`.
#[derive(Debug, Clone, Copy)]
pub struct RpcFlow {
    /// Calling host.
    pub client: HostId,
    /// Serving host.
    pub server: HostId,
    /// Service number, unique per pair.
    pub service: u16,
    /// Mean calls per second.
    pub rate: f64,
    /// First call no earlier than this.
    pub start: SimDuration,
    /// No call is issued at or after this.
    pub end: SimDuration,
    /// Seed of the arrival process.
    pub seed: u64,
}

/// Request and reply payload sizes of every RKOM call.
pub const RPC_REQUEST_BYTES: usize = 64;
/// See [`RPC_REQUEST_BYTES`].
pub const RPC_REPLY_BYTES: usize = 256;

/// Table-routed datagram probes between two hosts, both ways, every
/// `interval` until `end`: the traffic that turns "routes marked dirty"
/// into counted lazy recomputations.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// One end.
    pub a: HostId,
    /// The other end.
    pub b: HostId,
    /// Probe period.
    pub interval: SimDuration,
    /// No probe is sent at or after this.
    pub end: SimDuration,
}

/// Everything a workload offers.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Stream flows.
    pub flows: Vec<Flow>,
    /// RKOM pairs.
    pub rpcs: Vec<RpcFlow>,
    /// Datagram probes.
    pub probes: Vec<Probe>,
}

/// Per-world accounting, by traffic class. Sender-side fields fill in the
/// world owning the source, receiver-side fields in the world owning the
/// destination; a sharded run sums them.
#[derive(Debug, Default, Clone)]
pub struct Acct {
    /// Session opens attempted.
    pub opens: u64,
    /// Session opens refused or failed.
    pub opens_failed: u64,
    /// Messages offered (paced frames whether accepted or not; bulk
    /// chunks once the send port accepted them).
    pub offered: [u64; CLASSES],
    /// Messages delivered.
    pub delivered: [u64; CLASSES],
    /// Payload bytes offered.
    pub bytes_offered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// RKOM calls issued.
    pub rpc_issued: u64,
    /// RKOM calls answered.
    pub rpc_completed: u64,
    /// RKOM calls that returned an error.
    pub rpc_failed: u64,
    /// Delay of every delivered stream message, seconds: from the
    /// sender's `stream::send` (the time rides in the message, so this is
    /// end to end on every backend) to in-order delivery.
    pub delays: Histogram,
    /// Sender sessions opened here, for reading their `SessionStats`.
    sessions: Vec<(HostId, u64)>,
    tx: BTreeMap<u64, TxState>,
}

#[derive(Debug, Clone)]
struct TxState {
    class: Class,
    end: SimDuration,
    remaining: u64,
    interval: SimDuration,
    len: u64,
}

impl Acct {
    /// Fold another world's accounting into this one.
    pub fn merge(&mut self, other: &Acct) {
        self.opens += other.opens;
        self.opens_failed += other.opens_failed;
        for c in 0..CLASSES {
            self.offered[c] += other.offered[c];
            self.delivered[c] += other.delivered[c];
        }
        self.bytes_offered += other.bytes_offered;
        self.bytes_delivered += other.bytes_delivered;
        self.rpc_issued += other.rpc_issued;
        self.rpc_completed += other.rpc_completed;
        self.rpc_failed += other.rpc_failed;
        self.delays.merge_from(&other.delays);
    }

    /// Sender sessions this world opened, as `(host, session)`.
    pub fn sessions(&self) -> &[(HostId, u64)] {
        &self.sessions
    }

    /// Stream messages offered, all classes.
    pub fn msgs_offered(&self) -> u64 {
        self.offered.iter().sum()
    }

    /// Stream messages delivered, all classes.
    pub fn msgs_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Operations attempted: one per session open, message offered and
    /// call issued.
    pub fn ops_attempted(&self) -> u64 {
        self.opens + self.msgs_offered() + self.rpc_issued
    }

    /// Operations that were refused, errored, or not delivered/answered
    /// by the horizon.
    pub fn ops_failed(&self) -> u64 {
        self.opens_failed
            + self.msgs_offered().saturating_sub(self.msgs_delivered())
            + self.rpc_issued.saturating_sub(self.rpc_completed)
    }

    /// Application payload bytes delivered (stream payloads plus the
    /// request and reply of every answered call).
    pub fn payload_bytes_delivered(&self) -> u64 {
        self.bytes_delivered + self.rpc_completed * (RPC_REQUEST_BYTES + RPC_REPLY_BYTES) as u64
    }

    /// Application payload bytes offered, same accounting.
    pub fn payload_bytes_offered(&self) -> u64 {
        self.bytes_offered + self.rpc_issued * (RPC_REQUEST_BYTES + RPC_REPLY_BYTES) as u64
    }
}

const ZERO_LEN: usize = 32 * 1024;
static ZERO: [u8; ZERO_LEN] = [0u8; ZERO_LEN];

/// A class-tagged payload: one static tag byte, then a static zero body —
/// the same zero-allocation scatter-gather path real payloads take.
fn tagged(class: Class, len: u64) -> Message {
    const TAGS: [u8; CLASSES] = [1, 2, 3, 4, 5];
    let i = class as usize;
    let mut w = WireMsg::from_bytes(Bytes::from_static(&TAGS[i..i + 1]));
    if len > 1 {
        w.push(Bytes::from_static(
            &ZERO[..(len as usize - 1).min(ZERO_LEN)],
        ));
    }
    Message::from_wire(w)
}

type SharedAcct = Rc<RefCell<Acct>>;

/// Install `plan` on a world. With `owner == None` the world is the whole
/// system; with `Some(h)` it is `h`'s replica under `dash-par` and only
/// `h`'s endpoints act. Returns the world's accounting.
pub fn install(sim: &mut Sim<Stack>, plan: &Plan, owner: Option<HostId>) -> SharedAcct {
    let acct: SharedAcct = Rc::new(RefCell::new(Acct::default()));
    let owned = |h: HostId| owner.is_none_or(|o| o == h);

    let mut tapped: Vec<HostId> = plan
        .flows
        .iter()
        .flat_map(|f| [f.src, f.dst])
        .filter(|h| owned(*h))
        .collect();
    tapped.sort_unstable();
    tapped.dedup();
    for h in tapped {
        let a = Rc::clone(&acct);
        sim.state
            .on_stream(h, move |sim, ev| on_stream_event(sim, h, ev, &a));
    }

    for f in plan.flows.iter().filter(|f| owned(f.src)) {
        let f = f.clone();
        let a = Rc::clone(&acct);
        sim.schedule_in(f.start, move |sim| open_flow(sim, f, &a));
    }
    for r in &plan.rpcs {
        if owned(r.server) {
            rkom::register_service(&mut sim.state, r.server, r.service, |_sim, _peer, _req| {
                Bytes::from_static(&ZERO[..RPC_REPLY_BYTES])
            });
        }
        if owned(r.client) {
            let r = *r;
            let a = Rc::clone(&acct);
            let mut rng = Rng::new(r.seed);
            let first = r.start + SimDuration::from_secs_f64(rng.exp(1.0 / r.rate));
            sim.schedule_in(first, move |sim| rpc_tick(sim, r, rng, a));
        }
    }
    for p in plan.probes.iter().filter(|p| owned(p.a)) {
        let p = *p;
        sim.schedule_in(p.interval, move |sim| probe_tick(sim, p));
    }
    acct
}

fn open_flow(sim: &mut Sim<Stack>, f: Flow, acct: &SharedAcct) {
    acct.borrow_mut().opens += 1;
    match stream::open(sim, f.src, f.dst, f.profile) {
        Ok(session) => {
            let mut a = acct.borrow_mut();
            a.sessions.push((f.src, session));
            a.tx.insert(
                session,
                TxState {
                    class: f.class,
                    end: f.end,
                    remaining: f.count,
                    interval: f.interval,
                    len: f.len,
                },
            );
        }
        Err(_) => acct.borrow_mut().opens_failed += 1,
    }
}

fn on_stream_event(sim: &mut Sim<Stack>, host: HostId, ev: StreamEvent, acct: &SharedAcct) {
    match ev {
        StreamEvent::Opened { session } => {
            let pacing = acct.borrow().tx.get(&session).map(|t| t.interval);
            match pacing {
                Some(iv) if iv.is_zero() => pump(sim, host, session, acct),
                Some(_) => pace(sim, host, session, Rc::clone(acct)),
                None => {}
            }
        }
        StreamEvent::OpenFailed { session, .. } => {
            let mut a = acct.borrow_mut();
            if a.tx.remove(&session).is_some() {
                a.opens_failed += 1;
            }
        }
        StreamEvent::Drained { session } => {
            let closed_loop = acct
                .borrow()
                .tx
                .get(&session)
                .is_some_and(|t| t.interval.is_zero());
            if closed_loop {
                pump(sim, host, session, acct);
            }
        }
        StreamEvent::Delivered {
            session,
            msg,
            delay,
            ..
        } => {
            let Some(class) = msg.wire().first_byte().and_then(Class::from_tag) else {
                return;
            };
            {
                let mut a = acct.borrow_mut();
                a.delivered[class as usize] += 1;
                a.bytes_delivered += msg.len() as u64;
                a.delays.record(delay.as_secs_f64());
            }
            // Disk-speed sink: consume at once so receiver flow control
            // (a no-op on profiles without it) never throttles a transfer.
            stream::consume(sim, host, session, msg.len() as u64);
        }
        StreamEvent::Ended { session, .. } => {
            acct.borrow_mut().tx.remove(&session);
        }
        StreamEvent::Incoming { .. } => {}
    }
}

/// Paced sender: one message per interval; a refusal loses the frame at
/// the source, it is never retried (open loop).
fn pace(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: SharedAcct) {
    let now = sim.now().as_nanos();
    let step = {
        let mut a = acct.borrow_mut();
        a.tx.get_mut(&session)
            .filter(|t| t.remaining > 0 && now < t.end.as_nanos())
            .map(|t| {
                t.remaining -= 1;
                (t.class, t.len, t.interval, t.remaining > 0)
            })
    };
    let Some((class, len, interval, more)) = step else {
        return;
    };
    {
        let mut a = acct.borrow_mut();
        a.offered[class as usize] += 1;
        a.bytes_offered += len;
    }
    // A refusal loses the frame at the source: it stays offered and
    // undelivered, which is how the accounting sees it.
    let _ = stream::send(sim, host, session, tagged(class, len));
    if more {
        sim.schedule_in(interval, move |sim| pace(sim, host, session, acct));
    }
}

/// Closed-loop sender: offer until the send port refuses; `Drained`
/// resumes it.
fn pump(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: &SharedAcct) {
    let now = sim.now().as_nanos();
    loop {
        let step = acct
            .borrow()
            .tx
            .get(&session)
            .filter(|t| t.remaining > 0 && now < t.end.as_nanos())
            .map(|t| (t.class, t.len));
        let Some((class, len)) = step else { return };
        if stream::send(sim, host, session, tagged(class, len)).is_err() {
            return;
        }
        let mut a = acct.borrow_mut();
        a.offered[class as usize] += 1;
        a.bytes_offered += len;
        if let Some(t) = a.tx.get_mut(&session) {
            t.remaining -= 1;
        }
    }
}

fn rpc_tick(sim: &mut Sim<Stack>, r: RpcFlow, mut rng: Rng, acct: SharedAcct) {
    if sim.now().as_nanos() >= r.end.as_nanos() {
        return;
    }
    acct.borrow_mut().rpc_issued += 1;
    let a = Rc::clone(&acct);
    rkom::call(
        sim,
        r.client,
        r.server,
        r.service,
        Bytes::from_static(&ZERO[..RPC_REQUEST_BYTES]),
        move |_sim, res| {
            let mut acct = a.borrow_mut();
            match res {
                Ok(_) => acct.rpc_completed += 1,
                Err(_) => acct.rpc_failed += 1,
            }
        },
    );
    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / r.rate));
    sim.schedule_in(gap, move |sim| rpc_tick(sim, r, rng, acct));
}

fn probe_tick(sim: &mut Sim<Stack>, p: Probe) {
    if sim.now().as_nanos() >= p.end.as_nanos() {
        return;
    }
    send_datagram(sim, p.a, p.b, 0x90e1, Bytes::from_static(b"probe").into());
    send_datagram(sim, p.b, p.a, 0x90e1, Bytes::from_static(b"probe").into());
    sim.schedule_in(p.interval, move |sim| probe_tick(sim, p));
}
