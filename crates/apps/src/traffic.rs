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
//! [`install`] makes each act only on the endpoints it owns.
//!
//! Every plan entry is counted in one [`Tally`], and [`Acct`] holds one
//! tally list per plan list, keyed by plan index. Every stream message the
//! driver sends starts with a kind byte and its entry's plan index, so a
//! receiver counts a delivery against its own entry — budget included —
//! without knowing which session the sender minted: under `dash-par` the
//! two live in different worlds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::iter::Sum;
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
use rms_core::wire::{self, WireMsg};

/// A grouping of flows for reports: what a flow *asks of the stack* is
/// its [`Flow::profile`], and what it did is its own [`Tally`];
/// [`Acct::class`] sums the tallies of one class's flows.
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

/// First byte of every stream message the driver sends: a flow's message,
/// a window's input event, or the graphics update answering one. The
/// entry's plan index (4 bytes) follows; a window's messages then carry
/// the event's send time (8 bytes).
const FLOW: u8 = 0xF0;
const EVENT: u8 = 0xE0;
const UPDATE: u8 = 0xE1;

const ZERO_LEN: u64 = 64 * 1024;
static ZERO: [u8; ZERO_LEN as usize] = [0u8; ZERO_LEN as usize];

/// A stream message of `len` bytes (at least its header): `kind`, plan
/// index `i` and, on a window's messages, the event's `sent` time, carved
/// from the shared header store, then a static zero body (one segment per
/// 64 KiB) — the zero-allocation scatter-gather path real payloads take.
fn stamped(kind: u8, i: u32, sent: Option<SimTime>, len: u64) -> Message {
    let head = wire::header(13, |b| {
        b.extend_from_slice(&[kind]);
        b.extend_from_slice(&i.to_be_bytes());
        if let Some(t) = sent {
            b.extend_from_slice(&t.as_nanos().to_be_bytes());
        }
    });
    let mut body = len.saturating_sub(head.len() as u64);
    let mut w = WireMsg::from_bytes(head);
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
    /// The report grouping the flow's tally is summed into.
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
    /// Payload length per message, including the 5-byte header (a
    /// shorter length still sends the header).
    pub len: u64,
    /// Stream profile to open: the RMS parameters that *are* the workload.
    pub profile: StreamProfile,
    /// Lateness budget: a delivery slower than this counts as late.
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpFlow {
    /// Connecting host.
    pub client: HostId,
    /// Listening host.
    pub server: HostId,
    /// What the connection carries.
    pub work: TcpWork,
}

/// What a [`TcpFlow`] carries, counted where its RMS counterpart counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TcpWork {
    /// A transfer of this many bytes, written at once: one message (a
    /// byte stream stamps none, so no delay is recorded) whose bytes count
    /// as they arrive.
    Bulk(u64),
    /// Sequential echo calls, counted like an [`RpcFlow`]'s: each request
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
/// world counts the interaction in the window's [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Table-routed datagram probes between two hosts, both ways, every
/// `interval` until `end`. Floods and RMS traffic never consult the route
/// table (they are source-routed or pinned), so probes are what turns
/// "routes marked dirty" into counted lazy recomputations.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// What one plan entry did, counted by the worlds owning its ends and
/// [`merge`](Tally::merge)d. A [`Flow`] counts its messages; an
/// [`RpcFlow`] counts calls issued as `sent`, answers as `received`, errors
/// as `failed` and round trips as `delays`; a [`TcpFlow`] counts like
/// either; a [`WindowFlow`] counts input events sent as `sent`, events
/// reaching the app as `received`, event → update latencies as `delays`
/// (their count is the interactions answered) and answers past its budget
/// as `late`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Messages (or calls) planned, counted where they are received.
    pub planned: u64,
    /// Sessions (or TCP connections) opened.
    pub opened: u64,
    /// Session opens refused or failed; calls that returned an error.
    pub failed: u64,
    /// Messages sent (paced ones whether accepted or not, pumped ones
    /// once accepted).
    pub sent: u64,
    /// Messages delivered.
    pub received: u64,
    /// Deliveries past the entry's budget.
    pub late: u64,
    /// Delivered payload bytes.
    pub bytes: u64,
    /// Paced messages refused by sender flow control: lost at the source.
    pub dropped: u64,
    /// End-to-end delay of every delivery, seconds.
    pub delays: Histogram,
    /// When the first message was sent.
    pub first_send: Option<SimTime>,
    /// When the latest message was delivered.
    pub last_delivery: Option<SimTime>,
}

impl Tally {
    /// Fold another world's tally of the same entry (or another entry's,
    /// for a sum) into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.planned += o.planned;
        self.opened += o.opened;
        self.failed += o.failed;
        self.sent += o.sent;
        self.received += o.received;
        self.late += o.late;
        self.bytes += o.bytes;
        self.dropped += o.dropped;
        self.delays.merge_from(&o.delays);
        self.first_send = self.first_send.into_iter().chain(o.first_send).min();
        self.last_delivery = self.last_delivery.max(o.last_delivery);
    }

    /// Fraction of the sent messages that arrived within budget.
    pub fn on_time_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.received.saturating_sub(self.late) as f64 / self.sent as f64
        }
    }

    /// True once every planned message was delivered.
    pub fn complete(&self) -> bool {
        self.planned > 0 && self.received >= self.planned
    }

    /// Seconds from the first send to the latest delivery so far (`None`
    /// before both); whether that was the last planned delivery is
    /// [`complete`](Tally::complete).
    pub fn transfer_secs(&self) -> Option<f64> {
        let (first, last) = (self.first_send?, self.last_delivery?);
        Some(last.saturating_since(first).as_secs_f64())
    }

    /// Goodput in bytes/second over [`transfer_secs`](Tally::transfer_secs)
    /// (infinite if that is zero).
    pub fn goodput(&self) -> Option<f64> {
        Some(self.bytes as f64 / self.transfer_secs()?)
    }

    fn count_sent(&mut self, now: SimTime) {
        self.sent += 1;
        self.first_send.get_or_insert(now);
    }
}

/// The [`merge`](Tally::merge) of every tally.
impl<'a> Sum<&'a Tally> for Tally {
    fn sum<I: Iterator<Item = &'a Tally>>(tallies: I) -> Tally {
        tallies.fold(Tally::default(), |mut sum, t| {
            sum.merge(t);
            sum
        })
    }
}

/// Per-world accounting: a tally for each plan entry this world counts an
/// end of (an RPC's server counts nothing); [`merge`](Acct::merge)d over a
/// run's worlds, every entry's.
#[derive(Debug, Default, Clone)]
pub struct Acct {
    /// [`Plan::flows`]' tallies.
    pub flows: BTreeMap<u32, Tally>,
    /// [`Plan::rpcs`]' tallies.
    pub rpcs: BTreeMap<u32, Tally>,
    /// [`Plan::tcp`]'s tallies.
    pub tcp: BTreeMap<u32, Tally>,
    /// [`Plan::windows`]' tallies.
    pub windows: BTreeMap<u32, Tally>,
    /// The class and lateness budget of each flow in `flows`.
    flow_kinds: BTreeMap<u32, (Class, SimDuration)>,
    /// Sender sessions opened here, as `(source host, session)`.
    sessions: Vec<(HostId, u64)>,
    /// Tx session -> its flow's plan index and the flow, `count` running
    /// down (lookups only, never iterated).
    tx: BTreeMap<u64, (u32, Flow)>,
    /// Client TCP connection -> its plan index and when its current call
    /// (or transfer) started (lookups only, never iterated).
    conns: BTreeMap<(HostId, u64), (u32, SimTime)>,
    /// The window systems with an end here, by plan index.
    ends: BTreeMap<u32, Window>,
}

/// A planned window system as the worlds holding its ends see it.
#[derive(Debug, Clone)]
struct Window {
    flow: WindowFlow,
    /// The graphics session, once the app's world opened it.
    graphics: Option<u64>,
    /// The event session, once the user's world opened it.
    events: Option<u64>,
    /// The update-size generator, drawn in the app's world.
    sizes: Rng,
}

impl Acct {
    /// Fold another world's accounting into this one.
    pub fn merge(&mut self, o: &Acct) {
        let lists = [
            (&mut self.flows, &o.flows),
            (&mut self.rpcs, &o.rpcs),
            (&mut self.tcp, &o.tcp),
            (&mut self.windows, &o.windows),
        ];
        for (mine, theirs) in lists {
            for (&i, t) in theirs {
                mine.entry(i).or_default().merge(t);
            }
        }
        self.flow_kinds.extend(&o.flow_kinds);
    }

    /// The sum of `class`'s flow tallies.
    pub fn class(&self, class: Class) -> Tally {
        (self.flows.iter())
            .filter(|(i, _)| self.flow_kinds.get(i).is_some_and(|k| k.0 == class))
            .map(|(_, t)| t)
            .sum()
    }

    /// The sum of every flow's and window's tally: the stream sessions
    /// opened, and the opens refused or failed.
    pub fn streams(&self) -> Tally {
        self.flows.values().chain(self.windows.values()).sum()
    }

    /// Sender sessions this world opened, as `(source host, session)` in
    /// open order.
    pub fn sessions(&self) -> &[(HostId, u64)] {
        &self.sessions
    }

    /// The tally of the flow or window that opened sending session
    /// `session` here, and the flow's pacing interval.
    fn opener(&mut self, session: u64) -> Option<(&mut Tally, Option<SimDuration>)> {
        if let Some((i, f)) = self.tx.get(&session) {
            return Some((self.flows.entry(*i).or_default(), Some(f.interval)));
        }
        let (&i, _) = (self.ends.iter())
            .find(|(_, w)| w.graphics == Some(session) || w.events == Some(session))?;
        Some((self.windows.entry(i).or_default(), None))
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
    for (i, f) in (0..).zip(&plan.flows) {
        if owned(f.src) || owned(f.dst) {
            let mut a = acct.borrow_mut();
            a.flows.entry(i).or_default().planned = if owned(f.dst) { f.count } else { 0 };
            a.flow_kinds.insert(i, (f.class, f.budget));
        }
        if !owned(f.src) {
            continue;
        }
        let f = f.clone();
        let a = Rc::clone(&acct);
        sim.schedule_in(f.start, move |sim| {
            let opened = stream::open(sim, f.src, f.dst, f.profile.clone());
            let mut a = a.borrow_mut();
            match opened {
                Ok(session) => {
                    a.sessions.push((f.src, session));
                    a.tx.insert(session, (i, f));
                }
                Err(_) => a.flows.entry(i).or_default().failed += 1,
            }
        });
    }
    for (i, r) in (0..).zip(&plan.rpcs) {
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
            acct.borrow_mut().rpcs.entry(i).or_default().planned = r.calls;
            let a = Rc::clone(&acct);
            sim.schedule_in(r.start, move |sim| rpc_tick(sim, i, r, 0, a));
        }
    }
    if !plan.tcp.is_empty() {
        let flows = (0..).zip(&plan.tcp).zip(TCP_PORT_BASE..);
        for ((i, t), port) in flows.clone().filter(|((_, t), _)| owned(t.server)) {
            tcp::listen(sim, t.server, port);
            if let TcpWork::Bulk(_) = t.work {
                acct.borrow_mut().tcp.entry(i).or_default().planned = 1;
            }
        }
        let (plan_tcp, a) = (plan.tcp.clone(), Rc::clone(&acct));
        sim.state
            .on_tcp(move |sim, host, ev| on_tcp_event(sim, host, ev, &plan_tcp, &a));
        for ((i, &t), port) in flows.filter(|((_, t), _)| owned(t.client)) {
            let a = Rc::clone(&acct);
            // At the run start, not now: a connect sends at once, and the
            // world is still being set up (a `Par` replica is not yet one).
            sim.schedule_in(SimDuration::ZERO, move |sim| {
                let conn = tcp::connect(sim, t.client, t.server, port);
                let mut a = a.borrow_mut();
                a.tcp.entry(i).or_default();
                a.conns.insert((t.client, conn), (i, sim.now()));
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
    for (i, &flow) in (0..).zip(&plan.windows) {
        if owned(flow.user) || owned(flow.app) {
            let sizes = Rng::new(flow.seed.wrapping_mul(0x9e37_79b9).wrapping_add(0xA44));
            let (graphics, events) = (None, None);
            let window = Window {
                flow,
                graphics,
                events,
                sizes,
            };
            let mut a = acct.borrow_mut();
            a.windows.insert(i, Tally::default());
            a.ends.insert(i, window);
            let a = Rc::clone(&acct);
            // At the run start, as the TCP connects above.
            sim.schedule_in(SimDuration::ZERO, move |sim| open_window(sim, i, owner, a));
        }
    }
    acct
}

fn on_stream_event(sim: &mut Sim<Stack>, host: HostId, ev: StreamEvent, acct: &SharedAcct) {
    match ev {
        StreamEvent::Opened { session } => {
            let pacing = {
                let mut a = acct.borrow_mut();
                a.opener(session).and_then(|(t, pacing)| {
                    t.opened += 1;
                    pacing
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
            if let Some((t, _)) = a.opener(session) {
                t.failed += 1;
            }
            a.tx.remove(&session);
            // A window's failed stream carries nothing more.
            for w in a.ends.values_mut() {
                w.graphics = w.graphics.filter(|&s| s != session);
                w.events = w.events.filter(|&s| s != session);
            }
        }
        StreamEvent::Drained { session } => {
            let pumped = acct
                .borrow()
                .tx
                .get(&session)
                .is_some_and(|(_, t)| t.interval.is_zero());
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
            let answer = count_delivery(&mut acct.borrow_mut(), &msg, delay, sim.now());
            if let Some((app, graphics, update)) = answer {
                let _ = stream::send(sim, app, graphics, update);
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
        let mut guard = acct.borrow_mut();
        let a = &mut *guard;
        a.tx.get_mut(&session).map(|(i, t)| {
            t.count = t.count.saturating_sub(1);
            a.flows.entry(*i).or_default().count_sent(sim.now());
            (*i, t.len, next_gap(t), t.count > 0)
        })
    };
    let Some((i, len, gap, more)) = step else {
        return;
    };
    if stream::send(sim, host, session, stamped(FLOW, i, None, len)).is_err() {
        acct.borrow_mut().flows.entry(i).or_default().dropped += 1;
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
        let step = match acct.borrow().tx.get(&session) {
            Some(&(i, ref t)) if t.count > 0 => Some((i, t.len)),
            _ => None,
        };
        let Some((i, len)) = step else { return };
        if stream::send(sim, host, session, stamped(FLOW, i, None, len)).is_err() {
            return;
        }
        let mut guard = acct.borrow_mut();
        let a = &mut *guard;
        a.flows.entry(i).or_default().count_sent(sim.now());
        if let Some((_, t)) = a.tx.get_mut(&session) {
            t.count -= 1;
        }
    }
}

fn rpc_tick(sim: &mut Sim<Stack>, i: u32, r: RpcFlow, n: u64, acct: SharedAcct) {
    if n >= r.calls {
        return;
    }
    let started = sim.now();
    let mut a = acct.borrow_mut();
    a.rpcs.entry(i).or_default().count_sent(started);
    drop(a);
    let a = Rc::clone(&acct);
    rkom::call(
        sim,
        r.client,
        r.server,
        r.service,
        Bytes::from_static(&ZERO[..r.request]),
        move |sim, res| {
            let mut a = a.borrow_mut();
            let t = a.rpcs.entry(i).or_default();
            match res {
                Ok(_) => {
                    t.received += 1;
                    let rtt = sim.now().saturating_since(started);
                    t.delays.record(rtt.as_secs_f64());
                }
                Err(_) => t.failed += 1,
            }
        },
    );
    sim.schedule_in(r.interval, move |sim| rpc_tick(sim, i, r, n + 1, acct));
}

/// The TCP baseline's driver: a client writes its transfer or first
/// request once connected and the next request when a reply is whole; a
/// server counts transfer bytes or answers each whole request. Both read
/// every arrival at once. A client connection that closes (it gave up)
/// before its work is done counts as failed.
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
        TcpEvent::Closed { conn } => {
            let c = sim.state.tcp.conn(host, conn);
            let unacked = c.map_or(0, |c| c.in_flight() + c.backlog());
            let mut guard = acct.borrow_mut();
            let a = &mut *guard;
            if let Some((i, _)) = a.conns.remove(&(host, conn)) {
                let t = a.tcp.entry(i).or_default();
                let done = match flows[i as usize].work {
                    TcpWork::Bulk(_) => t.opened > 0 && unacked == 0,
                    TcpWork::Rpc { calls, .. } => t.received >= calls,
                };
                t.failed += u64::from(!done);
            }
            return;
        }
        TcpEvent::Accepted { .. } => return,
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
    let write = if let Some((i, started)) = a.conns.get_mut(&(host, conn)) {
        let t = a.tcp.entry(*i).or_default();
        t.opened += u64::from(bytes == 0);
        match flows[*i as usize].work {
            TcpWork::Bulk(len) => {
                t.count_sent(now);
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
                    t.received += 1;
                    t.delays
                        .record(now.saturating_since(*started).as_secs_f64());
                    if total / reply >= calls {
                        return;
                    }
                }
                *started = now;
                t.count_sent(now);
                request
            }
        }
    } else {
        let i = port.wrapping_sub(TCP_PORT_BASE);
        let flow = flows.get(usize::from(i));
        let Some(f) = flow.filter(|f| f.server == host && bytes > 0) else {
            return;
        };
        match f.work {
            TcpWork::Bulk(len) => {
                let t = a.tcp.entry(u32::from(i)).or_default();
                t.bytes += bytes;
                t.received += completed(len);
                t.last_delivery = Some(now);
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
    let w = acct.borrow().ends[&i].flow;
    if owned(w.app) {
        match stream::open(sim, w.app, w.user, window_profile(64 * 1024, 16 * 1024, 60)) {
            Ok(s) => acct.borrow_mut().ends.get_mut(&i).unwrap().graphics = Some(s),
            Err(_) => acct.borrow_mut().windows.entry(i).or_default().failed += 1,
        }
    }
    if owned(w.user) {
        match stream::open(sim, w.user, w.app, window_profile(4 * 1024, 256, 30)) {
            Ok(s) => {
                acct.borrow_mut().ends.get_mut(&i).unwrap().events = Some(s);
                window_events(sim, i, s, Rng::new(w.seed), acct);
            }
            Err(_) => acct.borrow_mut().windows.entry(i).or_default().failed += 1,
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
/// exponential gap of mean `1 / event_rate`, until `duration` is up or the
/// event stream's open fails. A refused event is dropped at the source.
fn window_events(sim: &mut Sim<Stack>, i: u32, session: u64, mut rng: Rng, acct: SharedAcct) {
    let w = acct.borrow().ends[&i].flow;
    if sim.now() >= SimTime::ZERO.saturating_add(w.duration) {
        return;
    }
    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / w.event_rate));
    sim.schedule_in(gap, move |sim| {
        if acct.borrow().ends[&i].events != Some(session) {
            return;
        }
        let now = sim.now();
        let refused = stream::send(
            sim,
            w.user,
            session,
            stamped(EVENT, i, Some(now), w.event_bytes),
        );
        let mut a = acct.borrow_mut();
        let t = a.windows.entry(i).or_default();
        t.count_sent(now);
        t.dropped += u64::from(refused.is_err());
        drop(a);
        window_events(sim, i, session, rng, acct);
    });
}

/// Count a delivery against its plan entry: a flow's message against the
/// flow's budget, a window's input event as received, a window's update as
/// an answered interaction. An input event's answer comes back: the app,
/// its graphics session and a Pareto-sized update echoing the event's send
/// time.
fn count_delivery(
    a: &mut Acct,
    msg: &Message,
    delay: SimDuration,
    now: SimTime,
) -> Option<(HostId, u64, Message)> {
    let mut head = msg.wire().cursor();
    let (kind, i) = (head.get_u8().ok()?, head.get_u32().ok()?);
    let sent = head.get_u64().map(SimTime::from_nanos);
    match (kind, sent) {
        (FLOW, _) => {
            let budget = a.flow_kinds.get(&i)?.1;
            let t = a.flows.get_mut(&i)?;
            t.received += 1;
            t.bytes += msg.len() as u64;
            t.delays.record(delay.as_secs_f64());
            t.last_delivery = Some(now);
            t.late += u64::from(delay > budget);
        }
        (EVENT, Ok(sent)) => {
            let (t, w) = (a.windows.get_mut(&i)?, a.ends.get_mut(&i)?);
            t.received += 1;
            let len = w.flow.graphics_bytes as f64 * w.sizes.pareto(0.45, 1.8);
            let update = stamped(UPDATE, i, Some(sent), len.clamp(256.0, 15_000.0) as u64);
            return Some((w.flow.app, w.graphics?, update));
        }
        (UPDATE, Ok(sent)) => {
            let (t, w) = (a.windows.get_mut(&i)?, a.ends.get(&i)?);
            let latency = now.saturating_since(sent);
            t.delays.record(latency.as_secs_f64());
            t.late += u64::from(latency > w.flow.budget);
        }
        _ => {}
    }
    None
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
    use dash_net::fault::crash_host;
    use dash_net::topology::{dumbbell, two_hosts_ethernet};
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
        sim.run();
        let a = acct.borrow();
        let bulk = &a.flows[&0];
        assert!(bulk.complete(), "transfer incomplete: {a:?}");
        assert_eq!(bulk.bytes, 256 * 1024);
        assert_eq!((bulk.opened, bulk.failed), (1, 0));
        // 10 Mb/s Ethernet: goodput should be a meaningful fraction.
        let goodput = bulk.goodput().expect("complete");
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
        let v = &a.flows[&0];
        // 2 s of 20 ms frames ≈ 100 frames.
        assert!(v.sent >= 95, "sent {}", v.sent);
        assert!(v.received as f64 >= v.sent as f64 * 0.98);
        assert_eq!(v.late, 0, "quiet LAN must meet the 40 ms budget");
        assert!(v.on_time_fraction() > 0.97);
        assert!(v.delays.mean() > 0.0);
    }

    /// Two voice flows into one world, one with a budget no delivery can
    /// meet and one every delivery meets: each is judged by its own.
    #[test]
    fn each_flow_is_judged_against_its_own_budget() {
        let (net, a, b, _, _) = dumbbell();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let voice = |index, budget| Flow {
            budget,
            ..Flow::wan_voice(a, b, index, SimDuration::from_millis(500))
        };
        let plan = Plan::from(vec![
            voice(0, SimDuration::from_millis(1)),
            voice(1, SimDuration::from_secs(1)),
        ]);
        let acct = install(&mut sim, &plan, None);
        sim.run();
        let acct = acct.borrow();
        let (tight, loose) = (&acct.flows[&0], &acct.flows[&1]);
        assert!(tight.received > 20, "{tight:?}");
        assert_eq!(tight.late, tight.received, "a WAN path takes over 1 ms");
        assert!(loose.received > 20, "{loose:?}");
        assert_eq!(loose.late, 0, "no delivery takes 1 s");
        assert_eq!(acct.class(Class::WanVoice).late, tight.late);
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
        let r = &a.rpcs[&0];
        assert_eq!((r.sent, r.received, r.failed), (200, 200, 0));
        assert!(r.complete());
        assert!(r.delays.mean() > 0.0);
        assert!(r.delays.mean() < 0.05, "LAN RPC should be fast");
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
        let t = &a.tcp[&0];
        assert_eq!((t.opened, t.sent, t.received, t.failed), (1, 20, 20, 0));
        assert_eq!(t.delays.count(), 20);
        // One call at a time: the run lasts at least the calls' sum.
        let sum = t.delays.mean() * 20.0;
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
        let bulk = &a.tcp[&0];
        assert!(bulk.complete(), "{a:?}");
        assert_eq!((bulk.sent, bulk.received, bulk.bytes), (1, 1, 100_000));
        assert!(bulk.goodput().unwrap() > 200_000.0);
        assert_eq!(a.tcp[&1].received, 3);
        // A connection is counted in its own tally, in no class.
        assert_eq!(a.class(Class::Bulk).sent, 0);
    }

    /// `tcp` from `a` to `b`, with `b` crashed `crash_at` into the run and
    /// never restarted; the world cut after ten minutes.
    fn tcp_to_a_dead_server(crash_at: SimDuration, work: TcpWork) -> (Sim<Stack>, Tally) {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        sim.schedule_in(crash_at, move |sim| crash_host(sim, b));
        let plan = Plan {
            tcp: vec![tcp_flow(a, b, work)],
            ..Plan::default()
        };
        let acct = install(&mut sim, &plan, None);
        sim.run_until_horizon(SimTime::ZERO.saturating_add(SimDuration::from_secs(600)));
        let t = acct.borrow().tcp[&0].clone();
        (sim, t)
    }

    /// A connect to a host that is down gives up in `SynSent`, and the
    /// give-up is the entry's typed failure.
    #[test]
    fn a_tcp_connect_that_gives_up_is_counted_failed() {
        let (sim, t) = tcp_to_a_dead_server(SimDuration::ZERO, TcpWork::Bulk(64 * 1024));
        assert_eq!((t.opened, t.sent, t.received, t.failed), (0, 0, 0, 1));
        assert_eq!(sim.events_pending(), 0);
    }

    /// An established transfer whose server dies mid-way gives up after
    /// `tcp::MAX_RETRIES` unanswered timeouts instead of rewinding forever.
    #[test]
    fn an_established_tcp_connection_to_a_dead_server_gives_up() {
        let crash = SimDuration::from_millis(100);
        let (sim, t) = tcp_to_a_dead_server(crash, TcpWork::Bulk(4 << 20));
        assert_eq!((t.opened, t.failed), (1, 1), "{t:?}");
        assert!(t.bytes > 0 && t.bytes < 4 << 20, "{} B", t.bytes);
        assert_eq!(sim.events_pending(), 0, "the connection still retries");
    }

    #[test]
    fn interactive_loop_on_lan_is_snappy() {
        let (mut sim, acct) = lan(|user, app| Plan {
            windows: vec![WindowFlow::new(user, app, 21)],
            ..Plan::default()
        });
        sim.run();
        let a = acct.borrow();
        let w = &a.windows[&0];
        assert_eq!((w.opened, w.failed), (2, 0));
        assert!(w.sent > 50, "events {}", w.sent);
        assert!(w.received * 10 > w.sent * 9, "{} of {}", w.received, w.sent);
        let answered = w.delays.count() as u64;
        assert!(answered * 5 > w.sent * 4, "{answered} of {}", w.sent);
        assert_eq!(w.late, 0, "LAN interactions inside 100 ms");
        assert!(w.delays.mean() < 0.05);
        assert!(a.flows.is_empty());
    }

    /// The app's host is down from the start: both of the window's
    /// streams fail, the user's only after `stream::open` returned `Ok`;
    /// both failures land in the window's tally, and no event is sent once
    /// the event stream has failed.
    #[test]
    fn a_window_stream_whose_open_fails_later_is_counted() {
        let (net, user, app) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        sim.schedule_in(SimDuration::ZERO, move |sim| crash_host(sim, app));
        let plan = Plan {
            windows: vec![WindowFlow::new(user, app, 21)],
            ..Plan::default()
        };
        let acct = install(&mut sim, &plan, None);
        sim.run();
        let a = acct.borrow();
        let w = &a.windows[&0];
        assert_eq!((w.opened, w.failed), (0, 2), "{w:?}");
        assert_eq!(a.streams().failed, 2);
        assert_eq!((w.received, w.delays.count()), (0, 0));
        // The input source stops when its stream fails: 2 s at 50 events/s
        // would send about 100.
        assert!(w.sent < 50, "{} events into a failed stream", w.sent);
    }

    #[test]
    fn a_stamped_payload_has_the_length_asked_for() {
        for len in [
            13,
            14,
            8193,
            8194,
            ZERO_LEN + 1,
            ZERO_LEN + 13,
            3 * ZERO_LEN,
        ] {
            let msg = stamped(FLOW, 7, None, len);
            assert_eq!(msg.len() as u64, len);
            let mut head = msg.wire().cursor();
            assert_eq!((head.get_u8(), head.get_u32()), (Ok(FLOW), Ok(7)));
            let sent = SimTime::from_nanos(123_456);
            let update = stamped(UPDATE, 9, Some(sent), len);
            let mut head = update.wire().cursor();
            assert_eq!((head.get_u8(), head.get_u32()), (Ok(UPDATE), Ok(9)));
            assert_eq!(head.get_u64().map(SimTime::from_nanos), Ok(sent));
        }
        assert_eq!(stamped(FLOW, 0, None, 1).len(), 5, "the header is sent");
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
    fn tally_fractions_and_merge() {
        let mut t = Tally::default();
        assert_eq!(t.on_time_fraction(), 0.0);
        t.sent = 10;
        t.received = 8;
        t.late = 2;
        assert!((t.on_time_fraction() - 0.6).abs() < 1e-9);
        // More late than received cannot go negative.
        t.late = 9;
        assert_eq!(t.on_time_fraction(), 0.0);

        // Tx side in one world, rx side in another: the merge is whole.
        let at = |ms| Some(SimTime::ZERO.saturating_add(SimDuration::from_millis(ms)));
        let tx = Tally {
            sent: 4,
            first_send: at(5),
            ..Tally::default()
        };
        let rx = Tally {
            planned: 4,
            received: 4,
            bytes: 4000,
            last_delivery: at(1005),
            ..Tally::default()
        };
        assert!(rx.goodput().is_none(), "no first send here");
        let mut worlds = [Acct::default(), Acct::default()];
        worlds[0].flows.insert(3, tx);
        worlds[1].flows.insert(3, rx);
        let mut merged = Acct::default();
        worlds.iter().for_each(|w| merged.merge(w));
        assert!(merged.flows[&3].complete());
        assert!((merged.flows[&3].goodput().unwrap() - 4000.0).abs() < 1e-6);
    }
}
