//! What the span tracker allocates: with obs on, a span's life — opened by
//! its first stage, closed by `StDeliver` — costs no allocation once the
//! tracker is warm, and a tracker past its cap still discards the
//! smallest open id first, whichever namespace it came from.
//!
//! `dash_sim::alloc::Counting` counts per thread (the test harness runs
//! tests on threads of their own), reallocations included.

use std::collections::BTreeSet;

use dash_sim::alloc::{counted, Counting};
use dash_sim::obs::{Obs, ObsEvent, Stage};
use dash_sim::time::SimTime;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tracker's cap on open spans (`obs::MAX_OPEN_SPANS`).
const MAX_OPEN_SPANS: usize = 1 << 16;

/// Span-id namespace base of logical process `lp`, as dash-par assigns
/// them (`Obs::set_span_namespace`).
fn namespace(lp: u64) -> u64 {
    (lp + 1) << 40
}

fn st_send(span: u64) -> ObsEvent {
    ObsEvent::StSend {
        host: 0,
        st_rms: 1,
        seq: 0,
        bytes: 160,
        span: Some(span),
    }
}

fn st_deliver(span: u64) -> ObsEvent {
    ObsEvent::StDeliver {
        host: 1,
        st_rms: 1,
        seq: 0,
        bytes: 160,
        late: false,
        det: false,
        span: Some(span),
    }
}

/// A span's four stages at `t` ns onward: ST send, network send and
/// receive, ST delivery.
fn life(span: u64, t: u64) -> [(SimTime, ObsEvent); 4] {
    let at = |dt| SimTime::from_nanos(t + dt);
    [
        (at(0), st_send(span)),
        (
            at(10),
            ObsEvent::NetSend {
                host: 0,
                rms: 2,
                bytes: 200,
                span: Some(span),
            },
        ),
        (
            at(500),
            ObsEvent::NetRecv {
                host: 1,
                rms: 2,
                seq: 0,
                span: Some(span),
            },
        ),
        (at(600), st_deliver(span)),
    ]
}

/// Spans in flight at once, alternating between two namespaces: enough
/// that an ordered map's nodes would split and merge as spans come and go.
const IN_FLIGHT: u64 = 64;

/// Cycle `n`: open span `n` and close span `n - IN_FLIGHT`.
fn cycle(obs: &mut Obs, n: u64) {
    let id = |n: u64| namespace(n % 2) + n;
    let t = n * 1_000;
    let [open, send, recv, _] = life(id(n), t);
    for (at, ev) in [open, send, recv] {
        obs.emit(at, ev);
    }
    if n >= IN_FLIGHT {
        let [.., (_, deliver)] = life(id(n - IN_FLIGHT), t);
        obs.emit(SimTime::from_nanos(t + 600), deliver);
    }
}

/// After warm-up, 10 000 spans opened and delivered allocate nothing.
///
/// The registry's span histograms keep every sample (exact quantiles) and
/// double their buffers as they fill; 20 000 warm-up cycles leave them
/// room for 32 768 samples, so the measured cycles count the tracker's
/// own work. Its open-span table, eviction heap and stage lists keep
/// their capacity.
#[test]
fn a_span_allocates_nothing_once_the_tracker_is_warm() {
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 10_000;
    let mut obs = Obs::new();
    obs.enable();
    for n in 0..WARMUP {
        cycle(&mut obs, n);
    }
    let ((), spent) = counted(|| {
        for n in WARMUP..WARMUP + MEASURED {
            cycle(&mut obs, n);
        }
    });
    let allocs = spent.allocs;
    println!("{allocs} allocations over {MEASURED} span lives");
    let closed = obs.registry.histogram("span.e2e").count() as u64;
    assert_eq!(
        closed,
        WARMUP + MEASURED - IN_FLIGHT,
        "every cycle closed a span"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED} span lives: the tracker allocates per span"
    );
}

/// A tracker past its cap discards the smallest open id, across
/// namespaces and whatever order the spans opened in: a reference model
/// (an ordered set that drops its first element whenever it holds more
/// than the cap) names the spans discarded, and exactly those later close
/// with only their delivery stage.
#[test]
fn a_full_tracker_evicts_the_smallest_open_id_first() {
    let extra = 300;
    let total = MAX_OPEN_SPANS + extra;
    let mut ids: Vec<u64> = (0..total as u64)
        .map(|n| namespace(n % 3) + n / 3)
        .collect();
    // A fixed Fisher–Yates shuffle: spans open out of id order.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..ids.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ids.swap(i, (state % (i as u64 + 1)) as usize);
    }

    let mut obs = Obs::new();
    obs.enable();
    obs.retain_spans(true);
    let mut model = BTreeSet::new();
    let mut evicted = BTreeSet::new();
    for &id in &ids {
        obs.emit(SimTime::ZERO, st_send(id));
        model.insert(id);
        if model.len() > MAX_OPEN_SPANS {
            evicted.extend(model.pop_first());
        }
    }
    assert_eq!(obs.spans_dropped(), extra as u64);
    for &id in &ids {
        obs.emit(SimTime::from_nanos(1), st_deliver(id));
    }

    let spans = obs.spans();
    assert_eq!(spans.len(), total);
    let cut: BTreeSet<u64> = spans
        .iter()
        .filter(|r| r.stage_time(Stage::StSend).is_none())
        .map(|r| r.span)
        .collect();
    assert_eq!(cut.len(), extra);
    assert_eq!(
        cut, evicted,
        "the tracker discarded other spans than the smallest"
    );
}
