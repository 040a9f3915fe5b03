//! The traffic plan and its one per-endpoint driver.
//!
//! The paper defines its workloads — digitized voice, bulk transfer, RPC
//! (§1, §2.5) — only by the RMS parameters they pick, so a workload here
//! is data: a [`Flow`] is `(StreamProfile, pacing, size)` between two
//! hosts, an [`RpcFlow`] a paced RKOM client/server pair, a [`Probe`] a
//! table-routed datagram pair, and a [`Plan`] a list of each. A plan is a
//! pure function of whatever planned it, so the serial world and every
//! replica world of a `dash-par` run hold the same plan and
//! [`install`] makes each act only on the endpoints it owns. Senders tag
//! the first payload byte with the flow's [`Class`], so a receiver
//! accounts a delivery without knowing which session the sender minted —
//! under `dash-par` the two live in different worlds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use dash_net::ids::HostId;
use dash_net::pipeline::send_datagram;
use dash_sim::engine::Sim;
use dash_sim::stats::Histogram;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::rkom;
use dash_transport::stack::Stack;
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::wire::WireMsg;

use crate::taps::Dispatcher;

/// The payload tag (`tag = class index + 1`, first byte of every stream
/// message) and accounting bucket of a flow. What a flow *asks of the
/// stack* is its [`Flow::profile`]; the class only names the bucket its
/// messages are counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Intra-LAN voice.
    Voice = 0,
    /// Voice whose delay bound survives a WAN or multi-LAN path.
    WanVoice = 1,
    /// Reliable bulk transfer.
    Bulk = 2,
    /// Short-lived churn sessions (RMS cache and establishment pressure).
    Churn = 3,
    /// Deterministic-delay streams sized to saturate an admission budget.
    Heavy = 4,
}

/// Number of [`Class`] values.
pub const CLASSES: usize = 5;

impl Class {
    fn from_tag(tag: u8) -> Option<Class> {
        [
            Class::Voice,
            Class::WanVoice,
            Class::Bulk,
            Class::Churn,
            Class::Heavy,
        ]
        .get(usize::from(tag).wrapping_sub(1))
        .copied()
    }
}

const ZERO_LEN: usize = 8192;
static ZERO: [u8; ZERO_LEN] = [0u8; ZERO_LEN];

/// Build a class-tagged payload: one static tag byte, then a static zero
/// body — the same zero-allocation scatter-gather path real payloads take.
fn tagged(class: Class, len: u64) -> Message {
    const TAGS: [u8; CLASSES] = [1, 2, 3, 4, 5];
    let i = class as usize;
    let mut w = WireMsg::from_bytes(Bytes::from_static(&TAGS[i..i + 1]));
    if len > 1 {
        w.push(Bytes::from_static(
            &ZERO[..(len - 1).min(ZERO_LEN as u64) as usize],
        ));
    }
    Message::from_wire(w)
}

const VOICE_INTERVAL: SimDuration = SimDuration::from_millis(20);
const WAN_VOICE_BUDGET: SimDuration = SimDuration::from_millis(150);

/// One planned stream flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Payload tag and accounting bucket.
    pub class: Class,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Open time, as an offset from the run start.
    pub start: SimDuration,
    /// Messages to send: the plan's total, counted down in the sender's
    /// session table once the flow is open.
    pub count: u64,
    /// Pacing interval; zero means "pump until flow control pushes back,
    /// resume on `Drained`".
    pub interval: SimDuration,
    /// Payload length per message, including the tag byte.
    pub len: u64,
    /// Stream profile to open: the RMS parameters that *are* the workload.
    pub profile: StreamProfile,
    /// Lateness budget: a delivery slower than this counts as late. Flows
    /// of one class towards one world share one budget.
    pub budget: SimDuration,
}

impl Flow {
    /// 64 kb/s telephone voice for `duration`: 160 B frames every 20 ms,
    /// 40 ms mouth-to-ear budget. The `index`-keyed stagger spreads a
    /// population's t=0 admission burst.
    pub fn voice(src: HostId, dst: HostId, index: usize, duration: SimDuration) -> Flow {
        Flow {
            class: Class::Voice,
            src,
            dst,
            start: SimDuration::from_micros((index as u64 % 32) * 125),
            count: (duration.as_nanos() / VOICE_INTERVAL.as_nanos()).max(1),
            interval: VOICE_INTERVAL,
            len: 160,
            profile: StreamProfile::voice(),
            budget: SimDuration::from_millis(40),
        }
    }

    /// [`Flow::voice`] with a 150 ms delay bound and budget, which
    /// survive a WAN path.
    pub fn wan_voice(src: HostId, dst: HostId, index: usize, duration: SimDuration) -> Flow {
        Flow {
            class: Class::WanVoice,
            profile: wan_voice_profile(),
            budget: WAN_VOICE_BUDGET,
            ..Flow::voice(src, dst, index, duration)
        }
    }

    /// A short-lived churn session opened at `start`: four 160 B frames,
    /// 50 ms apart, on a capacity small enough that dozens fit a WAN.
    pub fn churn(src: HostId, dst: HostId, start: SimDuration) -> Flow {
        Flow {
            class: Class::Churn,
            src,
            dst,
            start,
            count: 4,
            interval: SimDuration::from_millis(50),
            len: 160,
            profile: StreamProfile {
                capacity: 4 * 1024,
                ..wan_voice_profile()
            },
            budget: WAN_VOICE_BUDGET,
        }
    }

    /// Move `total_bytes` in `chunk`-byte messages over `profile`, pumped
    /// as fast as sender flow control allows (§2.5: "a high capacity,
    /// high delay RMS"). The receiver is a disk-speed sink.
    pub fn bulk(
        src: HostId,
        dst: HostId,
        total_bytes: u64,
        chunk: u64,
        profile: StreamProfile,
    ) -> Flow {
        Flow {
            class: Class::Bulk,
            src,
            dst,
            start: SimDuration::ZERO,
            count: total_bytes.div_ceil(chunk),
            interval: SimDuration::ZERO,
            len: chunk,
            profile,
            budget: SimDuration::from_millis(500),
        }
    }
}

/// A voice profile whose delay bound survives the WAN path.
fn wan_voice_profile() -> StreamProfile {
    StreamProfile {
        delay: DelayBound::best_effort_with(WAN_VOICE_BUDGET, SimDuration::from_micros(10)),
        ..StreamProfile::voice()
    }
}

/// One planned RKOM pairing (§3.3): `calls` calls at `interval` pacing
/// from `start`, `request` bytes out and `reply` bytes back.
#[derive(Debug, Clone, Copy)]
pub struct RpcFlow {
    /// Calling host.
    pub client: HostId,
    /// Serving host.
    pub server: HostId,
    /// Service number, unique per pair.
    pub service: u16,
    /// Calls to issue.
    pub calls: u64,
    /// Pacing interval.
    pub interval: SimDuration,
    /// First call, as an offset from the run start.
    pub start: SimDuration,
    /// Request payload bytes.
    pub request: usize,
    /// Reply payload bytes.
    pub reply: usize,
}

/// Table-routed datagram probes between two hosts, both ways, every
/// `interval` until `end`. Floods and RMS traffic never consult the route
/// table (they are source-routed or pinned), so probes are what turns
/// "routes marked dirty" into counted lazy recomputations.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// One end.
    pub a: HostId,
    /// The other end.
    pub b: HostId,
    /// Probe period.
    pub interval: SimDuration,
    /// No probe is sent at or after this offset from the run start.
    pub end: SimDuration,
}

/// Everything a workload offers.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Stream flows.
    pub flows: Vec<Flow>,
    /// RKOM client/server pairs.
    pub rpcs: Vec<RpcFlow>,
    /// Datagram probes.
    pub probes: Vec<Probe>,
}

/// A plan of stream flows only.
impl From<Vec<Flow>> for Plan {
    fn from(flows: Vec<Flow>) -> Plan {
        Plan {
            flows,
            ..Plan::default()
        }
    }
}

/// Per-world accounting, split by traffic class (index with
/// `class as usize`). Tx-side fields populate in the world owning a
/// flow's source, rx-side fields in the world owning its destination; a
/// sharded run [`merge`](Acct::merge)s them all.
#[derive(Debug, Default, Clone)]
pub struct Acct {
    /// Sessions opened successfully.
    pub opened: u64,
    /// Session opens refused or failed.
    pub failed: u64,
    /// Messages the plan sends towards receivers this world owns.
    pub planned: [u64; CLASSES],
    /// Messages sent (paced frames whether accepted or not; pumped
    /// chunks once the send port accepted them).
    pub sent: [u64; CLASSES],
    /// Messages delivered.
    pub received: [u64; CLASSES],
    /// Deliveries past the flow's budget.
    pub late: [u64; CLASSES],
    /// Delivered payload bytes.
    pub bytes: [u64; CLASSES],
    /// Paced messages refused by sender flow control and dropped (voice
    /// semantics: the frame is lost at the source, not retried).
    pub source_drops: u64,
    /// RKOM calls issued.
    pub rpc_issued: u64,
    /// RKOM calls answered.
    pub rpc_completed: u64,
    /// RKOM calls that returned an error.
    pub rpc_failed: u64,
    /// End-to-end delay of every delivery, seconds.
    pub delays: [Histogram; CLASSES],
    /// When the first message of each class was sent.
    pub first_send: [Option<SimTime>; CLASSES],
    /// When the latest message of each class was delivered.
    pub last_delivery: [Option<SimTime>; CLASSES],
    /// Round-trip latency of every answered RKOM call, seconds.
    pub rpc_latency: Histogram,
    /// Sender sessions opened here, as `(source host, session)`.
    sessions: Vec<(HostId, u64)>,
    /// Lateness budget per class, from the flows this world receives.
    budget: [SimDuration; CLASSES],
    /// Tx session -> its flow, `count` running down (lookups only,
    /// never iterated).
    tx: BTreeMap<u64, Flow>,
}

impl Acct {
    /// Fold another world's accounting into this one.
    pub fn merge(&mut self, o: &Acct) {
        self.opened += o.opened;
        self.failed += o.failed;
        self.source_drops += o.source_drops;
        self.rpc_issued += o.rpc_issued;
        self.rpc_completed += o.rpc_completed;
        self.rpc_failed += o.rpc_failed;
        self.rpc_latency.merge_from(&o.rpc_latency);
        for c in 0..CLASSES {
            self.planned[c] += o.planned[c];
            self.sent[c] += o.sent[c];
            self.received[c] += o.received[c];
            self.late[c] += o.late[c];
            self.bytes[c] += o.bytes[c];
            self.delays[c].merge_from(&o.delays[c]);
            self.first_send[c] = match (self.first_send[c], o.first_send[c]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.last_delivery[c] = self.last_delivery[c].max(o.last_delivery[c]);
        }
    }

    /// Sender sessions this world opened, as `(source host, session)` in
    /// open order.
    pub fn sessions(&self) -> &[(HostId, u64)] {
        &self.sessions
    }

    /// Fraction of `class`'s sent messages that arrived within budget.
    pub fn on_time_fraction(&self, class: Class) -> f64 {
        let c = class as usize;
        if self.sent[c] == 0 {
            0.0
        } else {
            self.received[c].saturating_sub(self.late[c]) as f64 / self.sent[c] as f64
        }
    }

    /// True once every message planned for `class` was delivered.
    pub fn complete(&self, class: Class) -> bool {
        let c = class as usize;
        self.planned[c] > 0 && self.received[c] >= self.planned[c]
    }

    /// Seconds from `class`'s first send to its last delivery (`None`
    /// until [`complete`](Acct::complete)).
    pub fn transfer_secs(&self, class: Class) -> Option<f64> {
        let c = class as usize;
        let (first, last) = (self.first_send[c]?, self.last_delivery[c]?);
        self.complete(class)
            .then(|| last.saturating_since(first).as_secs_f64())
    }

    /// Goodput of `class` in bytes/second over
    /// [`transfer_secs`](Acct::transfer_secs).
    pub fn goodput(&self, class: Class) -> Option<f64> {
        self.transfer_secs(class).map(|dt| {
            if dt > 0.0 {
                self.bytes[class as usize] as f64 / dt
            } else {
                f64::INFINITY
            }
        })
    }

    fn count_sent(&mut self, class: Class, now: SimTime) {
        self.sent[class as usize] += 1;
        self.first_send[class as usize].get_or_insert(now);
    }
}

/// A world's accounting, shared with the handlers that fill it.
pub type SharedAcct = Rc<RefCell<Acct>>;

/// Install `plan` on a world. With `owner == None` the world is the whole
/// system; with `Some(h)` it is `h`'s replica under `dash-par` and only
/// `h`'s endpoints act. Returns the world's accounting.
pub fn install(sim: &mut Sim<Stack>, plan: &Plan, owner: Option<HostId>) -> SharedAcct {
    let mut hosts: Vec<HostId> = plan
        .flows
        .iter()
        .flat_map(|f| [f.src, f.dst])
        .filter(|h| owner.is_none_or(|o| o == *h))
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    let taps = Dispatcher::install(sim, &hosts);
    install_on(sim, &taps, plan, owner)
}

/// [`install`] on hosts `taps` already covers: the plan's flows take the
/// stream events no session handler registered with `taps` claims, so
/// planned traffic and ad-hoc [`Dispatcher`] sessions share a host.
pub fn install_on(
    sim: &mut Sim<Stack>,
    taps: &Dispatcher,
    plan: &Plan,
    owner: Option<HostId>,
) -> SharedAcct {
    let owned = |h: HostId| owner.is_none_or(|o| o == h);
    let acct: SharedAcct = Rc::new(RefCell::new(Acct::default()));
    {
        let mut a = acct.borrow_mut();
        for f in plan.flows.iter().filter(|f| owned(f.dst)) {
            a.planned[f.class as usize] += f.count;
            a.budget[f.class as usize] = f.budget;
        }
    }
    let a = Rc::clone(&acct);
    taps.on_unclaimed(move |sim, host, ev| on_stream_event(sim, host, ev, &a));
    for f in plan.flows.iter().filter(|f| owned(f.src)) {
        let f = f.clone();
        let a = Rc::clone(&acct);
        sim.schedule_in(f.start, move |sim| {
            match stream::open(sim, f.src, f.dst, f.profile.clone()) {
                Ok(session) => {
                    let mut a = a.borrow_mut();
                    a.sessions.push((f.src, session));
                    a.tx.insert(session, f);
                }
                Err(_) => a.borrow_mut().failed += 1,
            }
        });
    }
    for r in &plan.rpcs {
        if owned(r.server) {
            let reply = Bytes::from_static(&ZERO[..r.reply]);
            rkom::register_service(
                &mut sim.state,
                r.server,
                r.service,
                move |_sim, _peer, _req| reply.clone(),
            );
        }
        if owned(r.client) {
            let r = *r;
            let a = Rc::clone(&acct);
            sim.schedule_in(r.start, move |sim| rpc_tick(sim, r, 0, a));
        }
    }
    for &p in &plan.probes {
        for (from, to) in [(p.a, p.b), (p.b, p.a)] {
            if owned(from) {
                sim.schedule_in(p.interval, move |sim| probe_tick(sim, from, to, p));
            }
        }
    }
    acct
}

/// Step `sim` until every message planned for `class` was delivered, the
/// world goes quiet, or `deadline` passes. Returns true on completion.
pub fn run_until_delivered(
    sim: &mut Sim<Stack>,
    acct: &SharedAcct,
    class: Class,
    deadline: SimDuration,
) -> bool {
    let end = sim.now().saturating_add(deadline);
    while !acct.borrow().complete(class) && sim.next_event_time().is_some_and(|t| t <= end) {
        sim.step();
    }
    acct.borrow().complete(class)
}

fn on_stream_event(sim: &mut Sim<Stack>, host: HostId, ev: StreamEvent, acct: &SharedAcct) {
    match ev {
        StreamEvent::Opened { session } => {
            let pacing = {
                let mut a = acct.borrow_mut();
                a.tx.get(&session).map(|t| t.interval).inspect(|_| {
                    a.opened += 1;
                })
            };
            match pacing {
                Some(iv) if iv.is_zero() => pump(sim, host, session, acct),
                Some(_) => pace(sim, host, session, Rc::clone(acct)),
                None => {}
            }
        }
        StreamEvent::OpenFailed { session, .. } => {
            let mut a = acct.borrow_mut();
            if a.tx.remove(&session).is_some() {
                a.failed += 1;
            }
        }
        StreamEvent::Drained { session } => {
            let pumped = acct
                .borrow()
                .tx
                .get(&session)
                .is_some_and(|t| t.interval.is_zero());
            if pumped {
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
            let c = class as usize;
            {
                let mut a = acct.borrow_mut();
                a.received[c] += 1;
                a.bytes[c] += msg.len() as u64;
                a.delays[c].record(delay.as_secs_f64());
                a.last_delivery[c] = Some(sim.now());
                if delay > a.budget[c] {
                    a.late[c] += 1;
                }
            }
            // Disk-speed sink: consume at once so receiver flow control
            // (a no-op on profiles without it) never throttles a transfer
            // larger than the receive buffer.
            stream::consume(sim, host, session, msg.len() as u64);
        }
        StreamEvent::Ended { session, .. } => {
            acct.borrow_mut().tx.remove(&session);
        }
        StreamEvent::Incoming { .. } => {}
    }
}

/// Paced sender (voice/churn): one message per interval; a refusal drops
/// the frame at the source, it is never retried.
fn pace(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: SharedAcct) {
    let step = {
        let mut a = acct.borrow_mut();
        a.tx.get_mut(&session).map(|t| {
            t.count = t.count.saturating_sub(1);
            (t.class, t.len, t.interval, t.count > 0)
        })
    };
    let Some((class, len, interval, more)) = step else {
        return;
    };
    acct.borrow_mut().count_sent(class, sim.now());
    if stream::send(sim, host, session, tagged(class, len)).is_err() {
        acct.borrow_mut().source_drops += 1;
    }
    if more {
        sim.schedule_in(interval, move |sim| pace(sim, host, session, acct));
    }
}

/// Pumped sender (bulk): offer messages until the send port refuses;
/// `Drained` resumes the pump.
fn pump(sim: &mut Sim<Stack>, host: HostId, session: u64, acct: &SharedAcct) {
    loop {
        let step = {
            let a = acct.borrow();
            match a.tx.get(&session) {
                Some(t) if t.count > 0 => Some((t.class, t.len)),
                _ => None,
            }
        };
        let Some((class, len)) = step else { return };
        if stream::send(sim, host, session, tagged(class, len)).is_err() {
            return;
        }
        let mut a = acct.borrow_mut();
        a.count_sent(class, sim.now());
        if let Some(t) = a.tx.get_mut(&session) {
            t.count -= 1;
        }
    }
}

fn rpc_tick(sim: &mut Sim<Stack>, r: RpcFlow, n: u64, acct: SharedAcct) {
    if n >= r.calls {
        return;
    }
    acct.borrow_mut().rpc_issued += 1;
    let a = Rc::clone(&acct);
    let started = sim.now();
    rkom::call(
        sim,
        r.client,
        r.server,
        r.service,
        Bytes::from_static(&ZERO[..r.request]),
        move |sim, res| {
            let mut acct = a.borrow_mut();
            match res {
                Ok(_) => {
                    acct.rpc_completed += 1;
                    let rtt = sim.now().saturating_since(started);
                    acct.rpc_latency.record(rtt.as_secs_f64());
                }
                Err(_) => acct.rpc_failed += 1,
            }
        },
    );
    sim.schedule_in(r.interval, move |sim| rpc_tick(sim, r, n + 1, acct));
}

/// One direction of a [`Probe`], driven by the world owning `from`.
fn probe_tick(sim: &mut Sim<Stack>, from: HostId, to: HostId, p: Probe) {
    if sim.now() >= SimTime::ZERO.saturating_add(p.end) {
        return;
    }
    send_datagram(sim, from, to, 0x90e1, Bytes::from_static(b"probe").into());
    sim.schedule_in(p.interval, move |sim| probe_tick(sim, from, to, p));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_net::topology::two_hosts_ethernet;
    use dash_transport::stack::StackBuilder;

    /// A quiet 10 Mb/s Ethernet with `flows` installed on it.
    fn lan(plan: impl FnOnce(HostId, HostId) -> Plan) -> (Sim<Stack>, SharedAcct) {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let acct = install(&mut sim, &plan(a, b), None);
        (sim, acct)
    }

    #[test]
    fn bulk_completes_on_lan() {
        let (mut sim, acct) = lan(|a, b| {
            Plan::from(vec![Flow::bulk(
                a,
                b,
                256 * 1024,
                4 * 1024,
                StreamProfile::bulk(),
            )])
        });
        let done = run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(30));
        let a = acct.borrow();
        assert!(done, "transfer incomplete: {a:?}");
        assert_eq!(a.bytes[Class::Bulk as usize], 256 * 1024);
        assert_eq!((a.opened, a.failed), (1, 0));
        // 10 Mb/s Ethernet: goodput should be a meaningful fraction.
        let goodput = a.goodput(Class::Bulk).expect("complete");
        assert!(
            goodput > 200_000.0,
            "goodput {goodput} B/s too low for a 10 Mb/s LAN"
        );
    }

    #[test]
    fn voice_on_quiet_lan_is_on_time() {
        let (mut sim, acct) =
            lan(|a, b| Plan::from(vec![Flow::voice(a, b, 0, SimDuration::from_secs(2))]));
        sim.run();
        let a = acct.borrow();
        let v = Class::Voice as usize;
        // 2 s of 20 ms frames ≈ 100 frames.
        assert!(a.sent[v] >= 95, "sent {}", a.sent[v]);
        assert!(a.received[v] as f64 >= a.sent[v] as f64 * 0.98);
        assert_eq!(a.late[v], 0, "quiet LAN must meet the 40 ms budget");
        assert!(a.on_time_fraction(Class::Voice) > 0.97);
        assert!(a.delays[v].mean() > 0.0);
    }

    #[test]
    fn rkom_rpc_workload_completes() {
        let (mut sim, acct) = lan(|a, b| Plan {
            rpcs: vec![RpcFlow {
                client: a,
                server: b,
                service: 0x0101,
                calls: 200,
                interval: SimDuration::from_millis(10),
                start: SimDuration::ZERO,
                request: 64,
                reply: 256,
            }],
            ..Plan::default()
        });
        sim.run();
        let a = acct.borrow();
        assert_eq!(a.rpc_issued, 200);
        assert_eq!(a.rpc_failed, 0);
        assert_eq!(a.rpc_completed, a.rpc_issued);
        assert!(a.rpc_latency.mean() > 0.0);
        assert!(a.rpc_latency.mean() < 0.05, "LAN RPC should be fast");
    }

    #[test]
    fn acct_fractions_and_merge() {
        let v = Class::Voice;
        let mut a = Acct::default();
        assert_eq!(a.on_time_fraction(v), 0.0);
        a.sent[0] = 10;
        a.received[0] = 8;
        a.late[0] = 2;
        assert!((a.on_time_fraction(v) - 0.6).abs() < 1e-9);
        // More late than received cannot go negative.
        a.late[0] = 9;
        assert_eq!(a.on_time_fraction(v), 0.0);

        // Tx side in one world, rx side in another: the merge is whole.
        let at = |ms| Some(SimTime::ZERO.saturating_add(SimDuration::from_millis(ms)));
        let mut tx = Acct::default();
        tx.sent[2] = 4;
        tx.first_send[2] = at(5);
        let mut rx = Acct::default();
        rx.planned[2] = 4;
        rx.received[2] = 4;
        rx.bytes[2] = 4000;
        rx.last_delivery[2] = at(1005);
        assert!(rx.goodput(Class::Bulk).is_none(), "no first send here");
        tx.merge(&rx);
        assert!(tx.complete(Class::Bulk));
        assert!((tx.goodput(Class::Bulk).unwrap() - 4000.0).abs() < 1e-6);
    }
}
