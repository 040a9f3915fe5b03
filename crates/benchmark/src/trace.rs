//! The traced run: boundary-mark attribution of wall time to layers,
//! recorded from outside the stack.
//!
//! The benchmark drives the world with its own loop (`next_event_time` →
//! `step`) and installs its own [`ObsSink`]. Each step is a root span;
//! each [`ObsEvent`] the sink sees is a boundary mark whose name prefix
//! gives the layer, and the wall interval *ending* at a mark is a child
//! span charged to that mark's layer. The tail after a step's last mark
//! goes to the last mark's layer; a step with no mark, and the loop's own
//! time between steps, go to `sim.unmarked`. The sink wraps the
//! `dash-check` oracle and times its `on_event` apart, as `check.oracle`.
//! Every nanosecond between loop start and loop end lands in exactly one
//! row. This is attribution by marks, not self-time: a layer that emits
//! no event while it works is invisible and its time lands on whichever
//! layer marks next.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use dash_check::{OracleConfig, OracleHandle, OracleSink};
use dash_net::shard::WireEnvelope;
use dash_par::{Lp, StackLp};
use dash_sim::engine::Sim;
use dash_sim::obs::{ObsEvent, ObsSink, EVENT_NAMES};
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stack::Stack;

use crate::run::{ParTrace, Traced};
use crate::traffic::Acct;

/// Rows of the wall-time attribution.
pub const LAYERS: [&str; 6] = [
    "sim.unmarked",
    "net",
    "net.routing",
    "st",
    "transport",
    "check.oracle",
];
const UNMARKED: usize = 0;
/// Index of the `check.oracle` row in [`LAYERS`] (the last one).
pub const ORACLE: usize = 5;

/// The layer an event name belongs to.
fn layer_of_name(name: &str) -> usize {
    match name.split('.').next() {
        Some("routing") => 2,
        Some("st") => 3,
        Some("stream" | "rkom" | "tcp") => 4,
        // `net.*` and `fault.*`.
        _ => 1,
    }
}

fn layer_table() -> [u8; EVENT_NAMES.len()] {
    std::array::from_fn(|i| layer_of_name(EVENT_NAMES[i]) as u8)
}

/// Wall nanoseconds and boundary marks per row of [`LAYERS`].
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Nanoseconds charged to each row.
    pub ns: [u64; LAYERS.len()],
    /// Marks seen per row (for `check.oracle`: events the oracle consumed).
    pub marks: [u64; LAYERS.len()],
}

impl LayerTimes {
    /// Total attributed nanoseconds (the traced loop's wall, by
    /// construction).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn add(&mut self, other: &LayerTimes) {
        for i in 0..LAYERS.len() {
            self.ns[i] += other.ns[i];
            self.marks[i] += other.marks[i];
        }
    }
}

/// One raw span, kept only when a dump was asked for.
struct RawSpan {
    layer: u8,
    start_ns: u64,
    end_ns: u64,
    /// Ordinal of the step (root span) this interval belongs to.
    step: u64,
    /// Message span id carried by the mark, if any.
    msg: Option<u64>,
}

/// Raw spans of a traced run, written as JSON lines by [`TraceDump::write`].
#[derive(Default)]
pub struct TraceDump {
    spans: Vec<RawSpan>,
}

/// Most raw spans a dump keeps.
const MAX_RAW_SPANS: usize = 1_000_000;

impl TraceDump {
    /// Write `<dir>/<workload>.spans.jsonl`.
    pub fn write(&self, dir: &str, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(format!("{dir}/{workload}.spans.jsonl"))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            // A step's own (root) span carries the out-of-range layer.
            let (name, parent) = match LAYERS.get(s.layer as usize) {
                Some(layer) => (*layer, s.step.to_string()),
                None => ("step", "null".to_string()),
            };
            let msg = s.msg.map_or("null".to_string(), |m| m.to_string());
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"step\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"msg\":{msg}}}",
                s.step, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct TraceState {
    table: [u8; EVENT_NAMES.len()],
    origin: Instant,
    /// End of the last charged interval.
    last: Instant,
    /// Layer of the last mark in the current step.
    last_layer: Option<usize>,
    step: u64,
    step_start: Instant,
    times: LayerTimes,
    raw: Option<Vec<RawSpan>>,
}

impl TraceState {
    fn new(keep_raw: bool) -> Self {
        let now = Instant::now();
        TraceState {
            table: layer_table(),
            origin: now,
            last: now,
            last_layer: None,
            step: 0,
            step_start: now,
            times: LayerTimes::default(),
            raw: keep_raw.then(|| Vec::with_capacity(MAX_RAW_SPANS)),
        }
    }

    fn charge(&mut self, layer: usize, until: Instant, msg: Option<u64>) {
        let ns = until.duration_since(self.last).as_nanos() as u64;
        self.times.ns[layer] += ns;
        if let Some(raw) = self.raw.as_mut().filter(|r| r.len() < MAX_RAW_SPANS) {
            let end_ns = until.duration_since(self.origin).as_nanos() as u64;
            raw.push(RawSpan {
                layer: layer as u8,
                start_ns: end_ns - ns,
                end_ns,
                step: self.step,
                msg,
            });
        }
        self.last = until;
    }

    /// The loop is about to call into the world: what elapsed since the
    /// last step ended was the loop's own work.
    fn begin_step(&mut self) {
        let now = Instant::now();
        self.charge(UNMARKED, now, None);
        self.step += 1;
        self.step_start = now;
        self.last_layer = None;
    }

    fn end_step(&mut self) {
        let now = Instant::now();
        self.charge(self.last_layer.unwrap_or(UNMARKED), now, None);
        if let Some(raw) = self.raw.as_mut().filter(|r| r.len() < MAX_RAW_SPANS) {
            raw.push(RawSpan {
                layer: LAYERS.len() as u8,
                start_ns: self.step_start.duration_since(self.origin).as_nanos() as u64,
                end_ns: now.duration_since(self.origin).as_nanos() as u64,
                step: self.step,
                msg: None,
            });
        }
    }

    fn mark(&mut self, event: &ObsEvent) {
        let now = Instant::now();
        let layer = self.table[event.fast_index()] as usize;
        self.charge(layer, now, event.span_stage().map(|(span, _)| span));
        self.times.marks[layer] += 1;
        self.last_layer = Some(layer);
    }
}

/// Oracle settings of the macro-runs: completion off (the run is cut at a
/// horizon with traffic legitimately in flight), deterministic-delay on,
/// FIFO-gap off (unreliable media legitimately skips lost messages).
fn oracle_config() -> OracleConfig {
    OracleConfig {
        check_completion: false,
        check_det_delay: true,
        check_fifo_gaps: false,
    }
}

fn render_violations(handle: &OracleHandle) -> Vec<String> {
    handle
        .violations()
        .iter()
        .map(|v| format!("[{}] t={} {}", v.invariant, v.at.as_nanos(), v.detail))
        .collect()
}

/// Sink of the serial traced run: marks, then the oracle, timed apart.
struct TraceSink {
    state: Rc<RefCell<TraceState>>,
    oracle: OracleSink,
}

impl ObsSink for TraceSink {
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        let mut st = self.state.borrow_mut();
        st.mark(event);
        self.oracle.on_event(time, event);
        let now = Instant::now();
        st.charge(ORACLE, now, None);
        st.times.marks[ORACLE] += 1;
    }
}

/// Handle on a serial world's tracing state.
pub struct Tracer {
    state: Rc<RefCell<TraceState>>,
    oracle: OracleHandle,
}

/// Install the tracing sink (and, inside it, the oracle) on a world.
pub fn install(sim: &mut Sim<Stack>, keep_raw: bool) -> Tracer {
    let state = Rc::new(RefCell::new(TraceState::new(keep_raw)));
    let (oracle, handle) = dash_check::oracle(oracle_config());
    sim.state.net.obs.add_boxed_sink(Box::new(TraceSink {
        state: Rc::clone(&state),
        oracle,
    }));
    Tracer {
        state,
        oracle: handle,
    }
}

/// The benchmark's own run loop: same events as `Sim::run_until(horizon)`,
/// one root span per step. Returns the largest pending-event count seen.
pub fn step_until(sim: &mut Sim<Stack>, horizon: SimTime, tracer: &Tracer) -> u64 {
    let mut peak_pending = 0;
    {
        let mut st = tracer.state.borrow_mut();
        let now = Instant::now();
        st.origin = now;
        st.last = now;
    }
    while sim.next_event_time().is_some_and(|t| t <= horizon) {
        peak_pending = peak_pending.max(sim.events_pending() as u64);
        tracer.state.borrow_mut().begin_step();
        sim.step();
        tracer.state.borrow_mut().end_step();
    }
    // Leave the clock where `run_until` would.
    sim.run_until(horizon);
    let mut st = tracer.state.borrow_mut();
    let now = Instant::now();
    st.charge(UNMARKED, now, None);
    peak_pending
}

impl Tracer {
    /// Per-layer totals and the oracle's verdict; raw spans move into
    /// `dump` when one was asked for.
    pub fn finish(self, dump: Option<&mut TraceDump>) -> (LayerTimes, Vec<String>) {
        let mut st = self.state.borrow_mut();
        if let (Some(dump), Some(raw)) = (dump, st.raw.take()) {
            dump.spans = raw;
        }
        (st.times.clone(), render_violations(&self.oracle))
    }
}

// ---------------------------------------------------------------------------
// Sharded runs
// ---------------------------------------------------------------------------

/// Sink of a replica world in a traced sharded run: marks, plus a copy of
/// every event for the oracle, which must see all worlds' events merged.
struct CaptureSink {
    state: Rc<RefCell<TraceState>>,
    events: Rc<RefCell<Vec<(u64, ObsEvent)>>>,
}

impl ObsSink for CaptureSink {
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        self.state.borrow_mut().mark(event);
        self.events
            .borrow_mut()
            .push((time.as_nanos(), event.clone()));
    }
}

/// Handle on a replica world's tracing state.
pub struct Capture {
    state: Rc<RefCell<TraceState>>,
    events: Rc<RefCell<Vec<(u64, ObsEvent)>>>,
}

/// Install the capturing sink on a replica world.
pub fn install_capture(sim: &mut Sim<Stack>) -> Capture {
    let state = Rc::new(RefCell::new(TraceState::new(false)));
    let events = Rc::new(RefCell::new(Vec::new()));
    sim.state.net.obs.add_boxed_sink(Box::new(CaptureSink {
        state: Rc::clone(&state),
        events: Rc::clone(&events),
    }));
    Capture { state, events }
}

/// What a traced replica world hands back (`Send`, unlike the world).
pub struct LpTrace {
    host: u32,
    times: LayerTimes,
    windows: u64,
    envelopes: u64,
    events: Vec<(u64, ObsEvent)>,
}

/// `StackLp` behind the benchmark's own [`Lp`] impl. In a traced run every
/// executor call is a root span of the replica's tracing state, so the
/// time inside `run_until_horizon` is attributed by marks and the time in
/// `inject` / `drain_outbox` / `next_event_time` goes to `sim.unmarked`.
pub struct TimedLp {
    lp: StackLp,
    acct: Rc<RefCell<Acct>>,
    capture: Option<Capture>,
    windows: u64,
    envelopes: u64,
}

impl TimedLp {
    /// Wrap a replica world.
    pub fn new(lp: StackLp, acct: Rc<RefCell<Acct>>, capture: Option<Capture>) -> Self {
        if let Some(c) = &capture {
            let mut st = c.state.borrow_mut();
            st.last = Instant::now();
        }
        TimedLp {
            lp,
            acct,
            capture,
            windows: 0,
            envelopes: 0,
        }
    }

    /// The owner host.
    pub fn owner(&self) -> u32 {
        self.lp.host()
    }

    /// Take the world, its accounting and its trace apart.
    pub fn into_parts(self) -> (Sim<Stack>, Rc<RefCell<Acct>>, Option<LpTrace>) {
        let host = self.lp.host();
        let trace = self.capture.map(|c| LpTrace {
            host,
            times: c.state.borrow().times.clone(),
            windows: self.windows,
            envelopes: self.envelopes,
            events: std::mem::take(&mut c.events.borrow_mut()),
        });
        (self.lp.sim, self.acct, trace)
    }

    /// Run `f` as one root span. Time between executor calls (barriers,
    /// the other replicas of this shard) is not this replica's: the span
    /// starts at the call.
    fn spanned<R>(&mut self, f: impl FnOnce(&mut StackLp) -> R) -> R {
        let Some(c) = &self.capture else {
            return f(&mut self.lp);
        };
        {
            let mut st = c.state.borrow_mut();
            st.last = Instant::now();
            st.step += 1;
            st.last_layer = None;
        }
        let r = f(&mut self.lp);
        c.state.borrow_mut().end_step();
        r
    }
}

impl Lp for TimedLp {
    type Env = WireEnvelope;

    fn host(&self) -> u32 {
        self.lp.host()
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.spanned(|lp| lp.next_event_time())
    }

    fn run_until_horizon(&mut self, horizon: SimTime) {
        self.windows += 1;
        self.spanned(|lp| lp.run_until_horizon(horizon));
    }

    fn drain_outbox(&mut self, sink: &mut Vec<WireEnvelope>) {
        self.spanned(|lp| lp.drain_outbox(sink));
    }

    fn dst_of(env: &WireEnvelope) -> u32 {
        <StackLp as Lp>::dst_of(env)
    }

    fn inject(&mut self, env: WireEnvelope) {
        self.envelopes += 1;
        self.spanned(|lp| lp.inject(env));
    }
}

/// Merge the replica traces: sum the rows, then feed the oracle the
/// `(time, host, emission index)`-ordered union of all events, timed.
pub fn finish_sharded(lps: Vec<LpTrace>) -> Traced {
    let mut layers = LayerTimes::default();
    let mut par = ParTrace::default();
    let mut all: Vec<(u64, u32, usize, &ObsEvent)> = Vec::new();
    for lp in &lps {
        layers.add(&lp.times);
        par.windows += lp.windows;
        par.envelopes += lp.envelopes;
        all.extend(
            lp.events
                .iter()
                .enumerate()
                .map(|(i, (t, e))| (*t, lp.host, i, e)),
        );
    }
    par.busy_s = layers.total_ns() as f64 / 1e9;
    all.sort_unstable_by_key(|a| (a.0, a.1, a.2));
    let (mut oracle, handle) = dash_check::oracle(oracle_config());
    let started = Instant::now();
    for (t, _, _, e) in &all {
        oracle.on_event(SimTime::ZERO.saturating_add(SimDuration::from_nanos(*t)), e);
    }
    layers.ns[ORACLE] = started.elapsed().as_nanos() as u64;
    layers.marks[ORACLE] = all.len() as u64;
    Traced {
        layers,
        peak_pending: 0,
        violations: render_violations(&handle),
        par: Some(par),
    }
}
