//! Wall-clock timing guarantees of the monotonic driver.
//!
//! Three promises, each load-bearing for real-time use:
//!
//! * **Never early** — an event scheduled at virtual `t` does not execute
//!   before the wall clock passes `anchor + t`, however the OS schedules
//!   the thread.
//! * **Honest lateness** — deadline-miss accounting comes from measured
//!   per-event wall lag, agrees with the recorded lags exactly, detects
//!   genuine overload, and is monotone in the slack threshold.
//! * **No wedging** — a jittered run on a real protocol workload still
//!   quiesces inside a wall box; lateness degrades timing, never
//!   liveness.

use std::time::{Duration, Instant};

use dash_apps::traffic::{self, Class, Flow, Plan};
use dash_net::ids::HostId;
use dash_net::state::{NetConfig, NetRmsEvent, NetState, NetWorld};
use dash_net::topology::two_hosts_ethernet;
use dash_rt::{run_rt, Monotonic, RtOptions, SimLinks};
use dash_sim::engine::Sim;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stack::StackBuilder;
use dash_transport::stream::StreamProfile;

/// The smallest world the scheduler accepts: timers only, no protocols.
struct TimerWorld {
    net: NetState,
    fired: Vec<(SimTime, Instant)>,
}

impl NetWorld for TimerWorld {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }
    fn deliver_up(
        _sim: &mut Sim<Self>,
        _host: HostId,
        _rms: dash_net::ids::NetRmsId,
        _msg: rms_core::message::Message,
        _info: rms_core::port::DeliveryInfo,
    ) {
    }
    fn rms_event(_sim: &mut Sim<Self>, _host: HostId, _event: NetRmsEvent) {}
}

fn timer_world() -> Sim<TimerWorld> {
    Sim::new(TimerWorld {
        net: NetState::new(NetConfig::default(), 1),
        fired: Vec::new(),
    })
}

#[test]
fn timers_never_fire_early() {
    let mut sim = timer_world();
    // A cadence of timers over ~100 ms of virtual time; each records the
    // wall instant at which it actually ran.
    for k in 1..=10u64 {
        let at = SimTime::from_nanos(k * 10_000_000); // every 10 ms
        sim.schedule_at(at, move |sim| {
            sim.state.fired.push((at, Instant::now()));
        });
    }
    let anchor = Instant::now();
    let mut driver = Monotonic::anchored_at(anchor);
    let mut links = SimLinks;
    let report = run_rt(&mut sim, &mut driver, &mut links, &RtOptions::default());
    assert!(report.quiesced());
    assert_eq!(sim.state.fired.len(), 10);
    for &(at, wall) in &sim.state.fired {
        let due = anchor + Duration::from_nanos(at.as_nanos());
        assert!(
            wall >= due,
            "event at {at} ran {:?} early",
            due.duration_since(wall)
        );
    }
    // 100 ms of virtual cadence took at least 100 ms of wall time.
    assert!(
        report.wall >= Duration::from_millis(100),
        "{:?}",
        report.wall
    );
}

#[test]
fn overload_is_detected_and_miss_accounting_is_monotone_in_slack() {
    let mut sim = timer_world();
    // Ten co-timed events each burning ~2 ms of real work: after the
    // first, the wall clock has left the virtual instant behind, so a
    // tight slack must report misses.
    for _ in 0..10 {
        sim.schedule_at(SimTime::from_nanos(1_000_000), |sim| {
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            sim.state.fired.push((sim.now(), Instant::now()));
        });
    }
    let mut driver = Monotonic::start();
    let mut links = SimLinks;
    let opts = RtOptions {
        miss_slack: Duration::from_micros(500),
        record_lags: true,
        ..RtOptions::default()
    };
    let report = run_rt(&mut sim, &mut driver, &mut links, &opts);
    assert!(report.quiesced());
    assert_eq!(report.events, 10);
    assert_eq!(report.lags.len(), 10);
    // Genuine overload: ~18 ms of work behind a single virtual instant.
    assert!(
        report.deadline_misses > 0,
        "expected misses, max lag {:?}",
        report.max_lag
    );
    assert!(report.miss_rate() > 0.0);
    // The report's count is exactly the lag census at its slack...
    let over = |slack: Duration| report.lags.iter().filter(|&&l| l > slack).count() as u64;
    assert_eq!(report.deadline_misses, over(opts.miss_slack));
    assert_eq!(report.max_lag, *report.lags.iter().max().unwrap());
    // ...and loosening the slack never invents misses: the census is
    // non-increasing across growing thresholds, reaching zero beyond the
    // observed maximum.
    let slacks = [
        Duration::ZERO,
        Duration::from_micros(500),
        Duration::from_millis(2),
        Duration::from_millis(8),
        report.max_lag,
    ];
    for pair in slacks.windows(2) {
        assert!(over(pair[0]) >= over(pair[1]), "{pair:?}");
    }
    assert_eq!(over(report.max_lag), 0);
}

#[test]
fn jittered_realtime_run_quiesces_within_the_wall_box() {
    // A real protocol workload — reliable bulk over ethernet — with the
    // engine's schedule jitter perturbing co-timed event order, run on
    // wall time. The run must drain (no wedge) inside a generous box and
    // still deliver every byte.
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(StackBuilder::new(net).build());
    sim.set_schedule_jitter(0xBAD_5EED, SimDuration::from_micros(50));
    // Jitter-induced reordering forces retransmissions, and every RTO wait
    // is real wall time under 1:1 pacing — keep the transfer small and the
    // delay bound, and so the RTO derived from it, tight so the jittered
    // run stays seconds, not minutes.
    let profile = StreamProfile {
        delay: rms_core::DelayBound::best_effort_with(
            SimDuration::from_millis(5),
            SimDuration::from_micros(1),
        ),
        ..StreamProfile::bulk()
    };
    let plan = Plan::from(vec![Flow::bulk(a, b, 64 * 1024, 4 * 1024, profile)]);
    let bulk = traffic::install(&mut sim, &plan, None);
    let mut driver = Monotonic::start();
    let mut links = SimLinks;
    let report = run_rt(
        &mut sim,
        &mut driver,
        &mut links,
        &RtOptions {
            max_wall: Some(Duration::from_secs(60)),
            ..RtOptions::default()
        },
    );
    assert!(
        report.quiesced(),
        "run wedged: stop {:?} after {:?}, {} events",
        report.stop,
        report.wall,
        report.events
    );
    let s = bulk.borrow();
    assert!(s.complete(Class::Bulk), "bulk incomplete: {s:?}");
}
