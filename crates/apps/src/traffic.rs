//! The traffic plan and its one per-endpoint driver.
//!
//! The paper defines its workloads — digitized voice, bulk transfer, RPC
//! (§1, §2.5) — only by the RMS parameters they pick, so a workload here
//! is data: a [`Flow`] is `(StreamProfile, pacing, size)` between two
//! hosts, an [`RpcFlow`] a paced RKOM client/server pair, a [`TcpFlow`]
//! a bulk transfer or request/reply pair over the TCP-like baseline §1
//! argues against, a [`WindowFlow`] a network window system (§2.5), a
//! [`Probe`] a table-routed datagram pair, and a [`Plan`] a list of each.
//! A plan is a pure function of whatever planned it, so the serial world
//! and every replica world of a `dash-par` run hold the same plan and
//! [`install`] makes each act only on the endpoints it owns. Senders tag
//! the first payload byte with the flow's [`Class`] (a window's messages
//! with a tag of their own), so a receiver accounts a delivery without
//! knowing which session the sender minted — under `dash-par` the two
//! live in different worlds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use dash_baseline::tcp::{self, TcpEvent};
use dash_net::ids::HostId;
use dash_net::pipeline::send_datagram;
use dash_sim::engine::Sim;
use dash_sim::rng::Rng;
use dash_sim::stats::Histogram;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::rkom;
use dash_transport::stack::Stack;
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::wire::WireMsg;

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
        use Class::*;
        let classes = [Voice, WanVoice, Bulk, Churn, Heavy];
        classes.get(usize::from(tag).wrapping_sub(1)).copied()
    }
}

const ZERO_LEN: u64 = 64 * 1024;
static ZERO: [u8; ZERO_LEN as usize] = [0u8; ZERO_LEN as usize];

/// Build a class-tagged payload of `len` bytes: one static tag byte, then
/// a static zero body (one segment per 64 KiB) — the same zero-allocation
/// scatter-gather path real payloads take.
fn tagged(class: Class, len: u64) -> Message {
    const TAGS: [u8; CLASSES] = [1, 2, 3, 4, 5];
    let i = class as usize;
    let mut w = WireMsg::from_bytes(Bytes::from_static(&TAGS[i..i + 1]));
    let mut body = len.saturating_sub(1);
    while body > 0 {
        let n = body.min(ZERO_LEN);
        w.push(Bytes::from_static(&ZERO[..n as usize]));
        body -= n;
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
    /// `Some(seed)`: Poisson pacing — each gap is an exponential draw
    /// with mean `interval` from a generator the flow carries (the draw
    /// advances the seed), so the gaps are a pure function of the plan
    /// on every backend. `None`: every gap is `interval`.
    pub poisson: Option<u64>,
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
            poisson: None,
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
            poisson: None,
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
            poisson: None,
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

/// One planned connection over the TCP-like baseline (§1's comparator):
/// `client` connects to `server` at the run start and, once connected,
/// does its [`TcpWork`]. The `i`-th of a plan's connections listens on
/// port [`TCP_PORT_BASE`]` + i`.
#[derive(Debug, Clone, Copy)]
pub struct TcpFlow {
    /// Connecting host.
    pub client: HostId,
    /// Listening host.
    pub server: HostId,
    /// What the connection carries.
    pub work: TcpWork,
}

/// What a [`TcpFlow`] carries, counted where its RMS counterpart counts.
#[derive(Debug, Clone, Copy)]
pub enum TcpWork {
    /// A transfer of this many bytes, written at once: one [`Class::Bulk`]
    /// message (a byte stream stamps none, so no delay is recorded) whose
    /// bytes count as they arrive.
    Bulk(u64),
    /// Sequential echo calls, counted in the `rpc_*` fields: each request
    /// leaves when the previous reply is whole — the pattern §1 says
    /// request/reply primitives force.
    Rpc {
        /// Calls to issue.
        calls: u64,
        /// Request payload bytes.
        request: u64,
        /// Reply payload bytes.
        reply: u64,
    },
}

/// The listening port of a plan's first [`TcpFlow`].
pub const TCP_PORT_BASE: u16 = 8000;

/// One planned network window system (§2.5, ref \[7\]): input events go
/// user → app on a low-capacity RMS, graphics updates come back on a
/// higher-capacity one. The user's world sends Poisson events from the run
/// start until `duration` is up; the app's world answers each with a
/// Pareto-sized update that echoes the event's send time, and the user's
/// world counts the interaction in [`Acct`]'s `window_*` fields.
#[derive(Debug, Clone, Copy)]
pub struct WindowFlow {
    /// The host with the mouse, keyboard and screen.
    pub user: HostId,
    /// The application's host.
    pub app: HostId,
    /// Mean input-event rate, events/second.
    pub event_rate: f64,
    /// Input event size, bytes (at least the 13 the event carries).
    pub event_bytes: u64,
    /// Mean graphics update size, bytes (Pareto-tailed).
    pub graphics_bytes: u64,
    /// Event → screen-update latency past which an interaction is late.
    pub budget: SimDuration,
    /// No event is sent at or after this offset from the run start.
    pub duration: SimDuration,
    /// Seed of the event gaps and, derived, of the update sizes.
    pub seed: u64,
}

impl WindowFlow {
    /// A user typing and pointing at 50 events/s of 32 B for 2 s,
    /// answered by 2 KiB updates on average, within a 100 ms budget.
    pub fn new(user: HostId, app: HostId, seed: u64) -> WindowFlow {
        WindowFlow {
            user,
            app,
            event_rate: 50.0,
            event_bytes: 32,
            graphics_bytes: 2 * 1024,
            budget: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(2),
            seed,
        }
    }
}

/// First byte of a window system's input event and of the graphics
/// update answering it; [`Class::from_tag`] claims neither. Both carry
/// the window's plan index (4 bytes) and the event's send time (8 bytes)
/// behind the tag.
const EVENT_TAG: u8 = 0xE0;
const UPDATE_TAG: u8 = 0xE1;

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
    /// Connections over the TCP-like baseline.
    pub tcp: Vec<TcpFlow>,
    /// Network window systems.
    pub windows: Vec<WindowFlow>,
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
    /// Window-system input events sent.
    pub window_events: u64,
    /// Window-system input events delivered to the app's world.
    pub window_received: u64,
    /// Answered window interactions past their window's budget.
    pub window_late: u64,
    /// Event → screen-update latency of every answered window
    /// interaction, seconds: its count is the interactions answered.
    pub window_latency: Histogram,
    /// Sender sessions opened here, as `(source host, session)`.
    sessions: Vec<(HostId, u64)>,
    /// Lateness budget per class, from the flows this world receives.
    budget: [SimDuration; CLASSES],
    /// Tx session -> its flow, `count` running down (lookups only,
    /// never iterated).
    tx: BTreeMap<u64, Flow>,
    /// Client TCP connection -> its flow and when its current call (or
    /// transfer) started (lookups only, never iterated).
    tcp: BTreeMap<(HostId, u64), (TcpFlow, SimTime)>,
    /// The plan's window systems, by plan index.
    windows: Vec<Window>,
}

/// A planned window system as the worlds holding its ends see it.
#[derive(Debug, Clone)]
struct Window {
    flow: WindowFlow,
    /// The graphics session, once the app's world opened it.
    graphics: Option<u64>,
    /// The update-size generator, drawn in the app's world.
    sizes: Rng,
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
        self.window_events += o.window_events;
        self.window_received += o.window_received;
        self.window_late += o.window_late;
        self.window_latency.merge_from(&o.window_latency);
        for c in 0..CLASSES {
            self.planned[c] += o.planned[c];
            self.sent[c] += o.sent[c];
            self.received[c] += o.received[c];
            self.late[c] += o.late[c];
            self.bytes[c] += o.bytes[c];
            self.delays[c].merge_from(&o.delays[c]);
            self.first_send[c] = self.first_send[c].into_iter().chain(o.first_send[c]).min();
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

    /// Seconds from `class`'s first send to its latest delivery so far
    /// (`None` before both); whether that was the last planned delivery is
    /// [`complete`](Acct::complete).
    pub fn transfer_secs(&self, class: Class) -> Option<f64> {
        let c = class as usize;
        let (first, last) = (self.first_send[c]?, self.last_delivery[c]?);
        Some(last.saturating_since(first).as_secs_f64())
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
/// `h`'s endpoints act. The driver claims the stream tap of every host
/// with an owned stream end. Returns the world's accounting.
pub fn install(sim: &mut Sim<Stack>, plan: &Plan, owner: Option<HostId>) -> SharedAcct {
    let owned = |h: HostId| owner.is_none_or(|o| o == h);
    let acct = SharedAcct::default();
    {
        let mut a = acct.borrow_mut();
        for f in plan.flows.iter().filter(|f| owned(f.dst)) {
            a.planned[f.class as usize] += f.count;
            a.budget[f.class as usize] = f.budget;
        }
        a.windows = (plan.windows.iter())
            .map(|&flow| Window {
                flow,
                graphics: None,
                sizes: Rng::new(flow.seed.wrapping_mul(0x9e37_79b9).wrapping_add(0xA44)),
            })
            .collect();
    }
    let flow_ends = plan.flows.iter().flat_map(|f| [f.src, f.dst]);
    let window_ends = plan.windows.iter().flat_map(|w| [w.user, w.app]);
    let mut hosts: Vec<HostId> = flow_ends.chain(window_ends).filter(|&h| owned(h)).collect();
    hosts.sort_unstable();
    hosts.dedup();
    for h in hosts {
        let a = Rc::clone(&acct);
        sim.state
            .on_stream(h, move |sim, ev| on_stream_event(sim, h, ev, &a));
    }
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
    if !plan.tcp.is_empty() {
        let flows = plan.tcp.iter().zip(TCP_PORT_BASE..);
        for (t, port) in flows.clone().filter(|(t, _)| owned(t.server)) {
            tcp::listen(sim, t.server, port);
            if let TcpWork::Bulk(_) = t.work {
                acct.borrow_mut().planned[Class::Bulk as usize] += 1;
            }
        }
        let (plan_tcp, a) = (plan.tcp.clone(), Rc::clone(&acct));
        sim.state
            .on_tcp(move |sim, host, ev| on_tcp_event(sim, host, ev, &plan_tcp, &a));
        for (&t, port) in flows.filter(|(t, _)| owned(t.client)) {
            let a = Rc::clone(&acct);
            // At the run start, not now: a connect sends at once, and the
            // world is still being set up (a `Par` replica is not yet one).
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                let conn = tcp::connect(sim, t.client, t.server, port);
                a.borrow_mut().tcp.insert((t.client, conn), (t, sim.now()));
            });
        }
    }
    for &p in &plan.probes {
        for (from, to) in [(p.a, p.b), (p.b, p.a)] {
            if owned(from) {
                sim.schedule_in(p.interval, move |sim| probe_tick(sim, from, to, p));
            }
        }
    }
    for (i, w) in (0..).zip(&plan.windows) {
        if owned(w.user) || owned(w.app) {
            let a = Rc::clone(&acct);
            // At the run start, as the TCP connects above.
            sim.schedule_in(SimDuration::ZERO, move |sim| open_window(sim, i, owner, a));
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
            match msg.wire().first_byte() {
                Some(EVENT_TAG) => answer_window_event(sim, &msg, acct),
                Some(UPDATE_TAG) => count_window_update(sim, &msg, acct),
                tag => {
                    let Some(class) = tag.and_then(Class::from_tag) else {
                        return;
                    };
                    let c = class as usize;
                    let mut a = acct.borrow_mut();
                    a.received[c] += 1;
                    a.bytes[c] += msg.len() as u64;
                    a.delays[c].record(delay.as_secs_f64());
                    a.last_delivery[c] = Some(sim.now());
                    if delay > a.budget[c] {
                        a.late[c] += 1;
                    }
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
            (t.class, t.len, next_gap(t), t.count > 0)
        })
    };
    let Some((class, len, gap, more)) = step else {
        return;
    };
    acct.borrow_mut().count_sent(class, sim.now());
    if stream::send(sim, host, session, tagged(class, len)).is_err() {
        acct.borrow_mut().source_drops += 1;
    }
    if more {
        sim.schedule_in(gap, move |sim| pace(sim, host, session, acct));
    }
}

/// The gap before a paced flow's next message (see [`Flow::poisson`]).
fn next_gap(f: &mut Flow) -> SimDuration {
    let Some(seed) = f.poisson else {
        return f.interval;
    };
    let mut rng = Rng::new(seed);
    let gap = rng.exp(f.interval.as_secs_f64());
    f.poisson = Some(rng.next_u64());
    SimDuration::from_secs_f64(gap)
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

/// The TCP baseline's driver: a client writes its transfer or first
/// request once connected and the next request when a reply is whole; a
/// server counts transfer bytes or answers each whole request. Both read
/// every arrival at once.
fn on_tcp_event(
    sim: &mut Sim<Stack>,
    host: HostId,
    ev: TcpEvent,
    flows: &[TcpFlow],
    acct: &SharedAcct,
) {
    let now = sim.now();
    let (conn, bytes) = match ev {
        TcpEvent::Connected { conn } => (conn, 0),
        TcpEvent::Data { conn, bytes } => (conn, bytes),
        _ => return,
    };
    let Some(c) = sim.state.tcp.conn_mut(host, conn) else {
        return;
    };
    c.read();
    let (total, port) = (c.stats.bytes_delivered.get(), c.local_port);
    // How many whole `unit`-byte messages this arrival completed.
    let completed = |unit: u64| total / unit - (total - bytes) / unit;
    let mut guard = acct.borrow_mut();
    let a = &mut *guard;
    let write = if let Some((t, started)) = a.tcp.get_mut(&(host, conn)) {
        match t.work {
            TcpWork::Bulk(len) => {
                a.count_sent(Class::Bulk, now);
                len
            }
            TcpWork::Rpc {
                calls,
                request,
                reply,
            } => {
                if bytes > 0 {
                    // A reply: the next request waits until it is whole.
                    if completed(reply) == 0 {
                        return;
                    }
                    a.rpc_completed += 1;
                    a.rpc_latency
                        .record(now.saturating_since(*started).as_secs_f64());
                    if total / reply >= calls {
                        return;
                    }
                }
                *started = now;
                a.rpc_issued += 1;
                request
            }
        }
    } else {
        let flow = flows.get(usize::from(port.wrapping_sub(TCP_PORT_BASE)));
        let Some(t) = flow.filter(|t| t.server == host && bytes > 0) else {
            return;
        };
        match t.work {
            TcpWork::Bulk(len) => {
                let b = Class::Bulk as usize;
                a.bytes[b] += bytes;
                a.received[b] += completed(len);
                a.last_delivery[b] = Some(now);
                return;
            }
            TcpWork::Rpc { request, reply, .. } => completed(request) * reply,
        }
    };
    drop(guard);
    if write > 0 {
        tcp::send(sim, host, conn, &vec![0; write as usize]);
    }
}

/// Open window `i`'s streams at the run start (§2.5): the app's world its
/// graphics stream, the user's world its event stream and input source.
fn open_window(sim: &mut Sim<Stack>, i: u32, owner: Option<HostId>, acct: SharedAcct) {
    let owned = |h: HostId| owner.is_none_or(|o| o == h);
    let w = acct.borrow().windows[i as usize].flow;
    if owned(w.app) {
        match stream::open(sim, w.app, w.user, window_profile(64 * 1024, 16 * 1024, 60)) {
            Ok(s) => acct.borrow_mut().windows[i as usize].graphics = Some(s),
            Err(_) => acct.borrow_mut().failed += 1,
        }
    }
    if owned(w.user) {
        match stream::open(sim, w.user, w.app, window_profile(4 * 1024, 256, 30)) {
            Ok(s) => window_events(sim, i, s, Rng::new(w.seed), acct),
            Err(_) => acct.borrow_mut().failed += 1,
        }
    }
}

/// A best-effort window stream profile: `ms` plus 10 µs per byte.
fn window_profile(capacity: u64, max_message: u64, ms: u64) -> StreamProfile {
    let delay = SimDuration::from_millis(ms);
    StreamProfile {
        capacity,
        max_message,
        delay: DelayBound::best_effort_with(delay, SimDuration::from_micros(10)),
        ..StreamProfile::default()
    }
}

/// Window `i`'s input source in the user's world: one event after each
/// exponential gap of mean `1 / event_rate`, until `duration` is up.
fn window_events(sim: &mut Sim<Stack>, i: u32, session: u64, mut rng: Rng, acct: SharedAcct) {
    let w = acct.borrow().windows[i as usize].flow;
    if sim.now() >= SimTime::ZERO.saturating_add(w.duration) {
        return;
    }
    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / w.event_rate));
    sim.schedule_in(gap, move |sim| {
        acct.borrow_mut().window_events += 1;
        let event = window_msg(EVENT_TAG, i, sim.now(), w.event_bytes);
        let _ = stream::send(sim, w.user, session, event);
        window_events(sim, i, session, rng, acct);
    });
}

/// A window message: `tag`, the window's plan index and an event's send
/// time, zero-padded to `len` bytes.
fn window_msg(tag: u8, i: u32, sent: SimTime, len: u64) -> Message {
    let mut p = vec![0u8; (len as usize).max(13)];
    p[0] = tag;
    p[1..5].copy_from_slice(&i.to_be_bytes());
    p[5..13].copy_from_slice(&sent.as_nanos().to_be_bytes());
    Message::new(p)
}

/// A window message's plan index and event send time.
fn window_header(msg: &Message) -> Option<(u32, SimTime)> {
    let p = msg.payload();
    let i = u32::from_be_bytes(p.get(1..5)?.try_into().ok()?);
    let sent = u64::from_be_bytes(p.get(5..13)?.try_into().ok()?);
    Some((i, SimTime::from_nanos(sent)))
}

/// An input event reached the app's world: count it and answer with a
/// Pareto-sized graphics update that echoes its send time.
fn answer_window_event(sim: &mut Sim<Stack>, msg: &Message, acct: &SharedAcct) {
    let Some((i, sent)) = window_header(msg) else {
        return;
    };
    let mut a = acct.borrow_mut();
    a.window_received += 1;
    let Some(w) = a.windows.get_mut(i as usize) else {
        return;
    };
    let len = (w.flow.graphics_bytes as f64 * w.sizes.pareto(0.45, 1.8)).clamp(256.0, 15_000.0);
    let (Some(session), app) = (w.graphics, w.flow.app) else {
        return;
    };
    drop(a);
    let update = window_msg(UPDATE_TAG, i, sent, len as u64);
    let _ = stream::send(sim, app, session, update);
}

/// A graphics update reached the user's world: count the interaction.
fn count_window_update(sim: &Sim<Stack>, msg: &Message, acct: &SharedAcct) {
    let Some((i, sent)) = window_header(msg) else {
        return;
    };
    let mut a = acct.borrow_mut();
    let Some(w) = a.windows.get(i as usize) else {
        return;
    };
    let (budget, latency) = (w.flow.budget, sim.now().saturating_since(sent));
    a.window_latency.record(latency.as_secs_f64());
    a.window_late += u64::from(latency > budget);
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

    /// A TCP connection from `a` to `b` carrying `work`.
    fn tcp_flow(a: HostId, b: HostId, work: TcpWork) -> TcpFlow {
        TcpFlow {
            client: a,
            server: b,
            work,
        }
    }

    #[test]
    fn tcp_rpc_sequential_calls_complete() {
        let (calls, request, reply) = (20, 64, 256);
        let (mut sim, acct) = lan(|a, b| Plan {
            tcp: vec![tcp_flow(
                a,
                b,
                TcpWork::Rpc {
                    calls,
                    request,
                    reply,
                },
            )],
            ..Plan::default()
        });
        sim.run();
        let a = acct.borrow();
        assert_eq!((a.rpc_issued, a.rpc_completed, a.rpc_failed), (20, 20, 0));
        assert_eq!(a.rpc_latency.count(), 20);
        // One call at a time: the run lasts at least the calls' sum.
        let sum = a.rpc_latency.mean() * 20.0;
        assert!(sim.now().as_secs_f64() >= sum, "{sum} s of calls");
    }

    #[test]
    fn tcp_bulk_beside_tcp_rpc_on_one_server() {
        let (mut sim, acct) = lan(|a, b| Plan {
            tcp: vec![
                tcp_flow(a, b, TcpWork::Bulk(100_000)),
                tcp_flow(
                    a,
                    b,
                    TcpWork::Rpc {
                        calls: 3,
                        request: 8,
                        reply: 8,
                    },
                ),
            ],
            ..Plan::default()
        });
        sim.run();
        let a = acct.borrow();
        assert!(a.complete(Class::Bulk), "{a:?}");
        let b = Class::Bulk as usize;
        assert_eq!((a.sent[b], a.received[b], a.bytes[b]), (1, 1, 100_000));
        assert!(a.goodput(Class::Bulk).unwrap() > 200_000.0);
        assert_eq!(a.rpc_completed, 3);
    }

    #[test]
    fn interactive_loop_on_lan_is_snappy() {
        let (mut sim, acct) = lan(|user, app| Plan {
            windows: vec![WindowFlow::new(user, app, 21)],
            ..Plan::default()
        });
        sim.run();
        let a = acct.borrow();
        assert_eq!(a.failed, 0);
        let sent = a.window_events;
        assert!(sent > 50, "events {sent}");
        let received = a.window_received;
        assert!(received as f64 > sent as f64 * 0.9, "{received} of {sent}");
        let answered = a.window_latency.count();
        assert!(answered as f64 > sent as f64 * 0.8, "{answered} of {sent}");
        assert_eq!(a.window_late, 0, "LAN interactions inside 100 ms");
        assert!(a.window_latency.mean() < 0.05);
        // The window's messages are counted in no class.
        assert_eq!((a.sent, a.received), ([0; CLASSES], [0; CLASSES]));
    }

    #[test]
    fn a_tagged_payload_has_the_length_asked_for() {
        for len in [1, 2, 8193, 8194, ZERO_LEN + 1, ZERO_LEN + 2, 3 * ZERO_LEN] {
            let msg = tagged(Class::Heavy, len);
            assert_eq!(msg.len() as u64, len);
            assert_eq!(msg.wire().first_byte(), Some(Class::Heavy as u8 + 1));
        }
    }

    #[test]
    fn poisson_gaps_are_a_pure_function_of_the_seed() {
        let flow = |seed| Flow {
            interval: SimDuration::from_millis(2),
            poisson: Some(seed),
            ..Flow::voice(HostId(0), HostId(1), 0, SimDuration::ZERO)
        };
        let gaps = |mut f: Flow| (0..2_000).map(|_| next_gap(&mut f)).collect::<Vec<_>>();
        let (a, b) = (gaps(flow(7)), gaps(flow(8)));
        assert_eq!(a, gaps(flow(7)), "same seed, same gaps");
        assert_ne!(a, b);
        let mean = a.iter().map(|g| g.as_secs_f64()).sum::<f64>() / a.len() as f64;
        assert!((mean - 0.002).abs() < 0.0002, "mean gap {mean}");
        let fixed = Flow {
            poisson: None,
            ..flow(7)
        };
        assert!(gaps(fixed)
            .iter()
            .all(|g| *g == SimDuration::from_millis(2)));
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
