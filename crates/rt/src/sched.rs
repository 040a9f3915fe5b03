//! The real-time scheduler: one loop that drains due events and substrate
//! deliveries through the *unchanged* protocol entry points.
//!
//! [`run_rt`] owns three obligations per iteration, in order:
//!
//! 1. **Departures** — every envelope the world diverted since the last
//!    iteration
//!    ([`drain_outbox_into`](dash_net::state::NetState::drain_outbox_into))
//!    is handed to the substrate
//!    with its wall deadline ([`TimeDriver::wall_deadline`]).
//! 2. **Arrivals** — every envelope the substrate has finished carrying
//!    is injected with [`pipeline::inject_arrival`] under its canonical
//!    arrival key, exactly like the parallel executor's LPs, so ordering
//!    among co-timed arrivals stays a pure function of what was sent.
//!    Late carriage (real queueing) lands at the driver's *current*
//!    position, never in the past.
//! 3. **The next event** — if [`TimeDriver::wait_budget`] for the
//!    earliest pending event is zero, step it (accounting wall lag
//!    against the miss slack); otherwise wait out the budget on the
//!    substrate and re-evaluate from the top. Stepping only on a zero
//!    budget is what guarantees timers never fire early: under the
//!    monotonic driver a zero budget *means* the wall clock passed the
//!    event's mapped instant.
//!
//! With the [`VirtualDriver`](dash_sim::driver::VirtualDriver) and the
//! null [`SimLinks`](crate::substrate::SimLinks) substrate every budget
//! is zero and the outbox stays empty, so the loop degenerates to
//! `sim.run()` — same pop order, same events, byte-for-byte. That
//! degenerate case is the conformance baseline the monotonic driver is
//! tested against.

use std::time::{Duration, Instant};

use dash_net::pipeline;
use dash_net::shard::WireEnvelope;
use dash_net::state::NetWorld;
use dash_sim::driver::TimeDriver;
use dash_sim::engine::Sim;
use dash_sim::time::SimTime;

use crate::substrate::{Carried, Substrate};

/// How long one idle wait on the substrate lasts when the event queue is
/// empty but envelopes are still in flight.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Knobs for one [`run_rt`] call.
#[derive(Debug, Clone)]
pub struct RtOptions {
    /// Stop once the earliest pending event lies beyond this virtual
    /// instant (exclusive), like [`Sim::run_until_horizon`]. `None` runs
    /// to quiescence.
    pub horizon: Option<SimTime>,
    /// Hard wall-clock box: stop (non-quiescent if work remains) once
    /// this much wall time has elapsed. The backstop that turns a wedged
    /// run into a report instead of a hang.
    pub max_wall: Option<Duration>,
    /// Wall lag beyond which stepping an event counts as a deadline
    /// miss. Lag below this is scheduler noise, not a miss.
    pub miss_slack: Duration,
    /// Record every event's wall lag in [`RtReport::lags`] (tests only;
    /// unbounded memory on long runs).
    pub record_lags: bool,
}

impl Default for RtOptions {
    fn default() -> Self {
        RtOptions {
            horizon: None,
            max_wall: None,
            miss_slack: Duration::from_millis(5),
            record_lags: false,
        }
    }
}

/// Why [`run_rt`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Event queue empty and substrate drained: the run completed.
    Quiesced,
    /// The earliest pending event lies beyond [`RtOptions::horizon`].
    Horizon,
    /// [`RtOptions::max_wall`] elapsed with work still outstanding.
    WallBox,
}

/// What one [`run_rt`] call did.
#[derive(Debug)]
pub struct RtReport {
    /// Events stepped by this call.
    pub events: u64,
    /// Envelopes handed to the substrate.
    pub transmitted: u64,
    /// Envelopes received from the substrate and injected.
    pub injected: u64,
    /// Substrate drop count at return (loss + overflow).
    pub substrate_dropped: u64,
    /// Events stepped with wall lag above [`RtOptions::miss_slack`].
    pub deadline_misses: u64,
    /// Largest wall lag observed on any stepped event.
    pub max_lag: Duration,
    /// Wall time the call took.
    pub wall: Duration,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Per-event wall lags when [`RtOptions::record_lags`] was set.
    pub lags: Vec<Duration>,
}

impl RtReport {
    /// Whether the run drained completely (queue empty, substrate idle).
    pub fn quiesced(&self) -> bool {
        self.stop == StopReason::Quiesced
    }

    /// Deadline misses as a fraction of stepped events (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.events as f64
        }
    }
}

/// Inject a carried envelope, clamped so arrivals never land in the past
/// — neither the sim's (co-timed work may already have run) nor the
/// driver's (carriage that took longer than modelled arrives *now*, and
/// the extra latency is visible to the protocols above).
/// The reliability contract of `env`, read from the sender's RMS table:
/// only best-effort RMS data and raw datagrams may be dropped by a
/// substrate's loss model (see [`Substrate::transmit`]). Reliable-RMS
/// packets and the control plane (creates, invites, releases, routing)
/// are carried losslessly, exactly as the DES wire carries them —
/// establishment and reliable delivery have no under-layer
/// retransmission to recover a hole with.
fn may_lose<W: NetWorld>(sim: &Sim<W>, env: &WireEnvelope) -> bool {
    use dash_net::packet::PacketKind;
    match &env.packet.kind {
        PacketKind::Data(d) => sim
            .state
            .net_ref()
            .host(env.src)
            .rms
            .get(&d.rms)
            .is_some_and(|s| s.params.reliability == rms_core::params::Reliability::Unreliable),
        PacketKind::Raw { .. } => true,
        _ => false,
    }
}

fn inject<W: NetWorld>(sim: &mut Sim<W>, driver: &mut dyn TimeDriver, env: WireEnvelope) {
    let key = env.arrival_key();
    let WireEnvelope {
        deliver_at,
        dst,
        packet,
        ..
    } = env;
    let at = deliver_at.max(driver.now()).max(sim.now());
    pipeline::inject_arrival(sim, at, key, dst, packet);
}

/// Run `sim` against wall time: see the module docs for the loop's
/// obligations and the never-early argument.
pub fn run_rt<W: NetWorld>(
    sim: &mut Sim<W>,
    driver: &mut dyn TimeDriver,
    substrate: &mut dyn Substrate,
    opts: &RtOptions,
) -> RtReport {
    let started = Instant::now();
    let mut report = RtReport {
        events: 0,
        transmitted: 0,
        injected: 0,
        substrate_dropped: 0,
        deadline_misses: 0,
        max_lag: Duration::ZERO,
        wall: Duration::ZERO,
        stop: StopReason::Quiesced,
        lags: Vec::new(),
    };
    let mut departures: Vec<WireEnvelope> = Vec::new();
    loop {
        let wall_left = opts.max_wall.map(|m| m.saturating_sub(started.elapsed()));
        if wall_left == Some(Duration::ZERO) {
            report.stop = StopReason::WallBox;
            break;
        }

        // 1. Departures: everything diverted since last iteration.
        sim.state.net().drain_outbox_into(&mut departures);
        for env in departures.drain(..) {
            let due = driver.wall_deadline(env.deliver_at);
            let lossable = may_lose(sim, &env);
            report.transmitted += 1;
            substrate.transmit(env, due, lossable);
        }

        // 2. Arrivals already due: inject without waiting, then
        // re-evaluate (an arrival may precede the pending local event).
        let mut arrived = false;
        while let Carried::Delivered(env) = substrate.recv(Duration::ZERO) {
            inject(sim, driver, env);
            report.injected += 1;
            arrived = true;
        }
        if arrived {
            continue;
        }

        // 3. The next local event, if its time has come.
        match sim.next_event_time() {
            Some(t) => {
                if opts.horizon.is_some_and(|h| t > h) {
                    report.stop = StopReason::Horizon;
                    break;
                }
                let budget = driver.wait_budget(t);
                if budget > Duration::ZERO {
                    // Not due yet: wait the budget out on the substrate
                    // (an earlier arrival would unblock us) and re-check.
                    let wait = wall_left.map_or(budget, |w| budget.min(w));
                    if let Carried::Delivered(env) = substrate.recv(wait) {
                        inject(sim, driver, env);
                        report.injected += 1;
                    }
                    continue;
                }
                let lag =
                    Duration::from_nanos(driver.now().as_nanos().saturating_sub(t.as_nanos()));
                if lag > report.max_lag {
                    report.max_lag = lag;
                }
                if lag > opts.miss_slack {
                    report.deadline_misses += 1;
                }
                if opts.record_lags {
                    report.lags.push(lag);
                }
                sim.step();
                report.events += 1;
            }
            None => {
                if substrate.in_flight() == 0 {
                    report.stop = StopReason::Quiesced;
                    break;
                }
                // Queue empty but envelopes still carried: wait for one.
                let wait = wall_left.map_or(IDLE_WAIT, |w| IDLE_WAIT.min(w));
                if let Carried::Delivered(env) = substrate.recv(wait) {
                    inject(sim, driver, env);
                    report.injected += 1;
                }
            }
        }
    }
    report.substrate_dropped = substrate.dropped();
    report.wall = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_sim::driver::VirtualDriver;
    use dash_sim::time::SimDuration;

    use crate::substrate::SimLinks;

    /// A minimal world: the scheduler only needs `NetWorld`.
    struct World {
        net: dash_net::state::NetState,
        fired: Vec<u64>,
    }

    impl NetWorld for World {
        fn net(&mut self) -> &mut dash_net::state::NetState {
            &mut self.net
        }
        fn net_ref(&self) -> &dash_net::state::NetState {
            &self.net
        }
        fn deliver_up(
            _sim: &mut Sim<Self>,
            _host: dash_net::ids::HostId,
            _rms: dash_net::ids::NetRmsId,
            _msg: rms_core::message::Message,
            _info: rms_core::port::DeliveryInfo,
        ) {
        }
        fn rms_event(
            _sim: &mut Sim<Self>,
            _host: dash_net::ids::HostId,
            _event: dash_net::state::NetRmsEvent,
        ) {
        }
    }

    fn world() -> Sim<World> {
        Sim::new(World {
            net: dash_net::state::NetState::new(dash_net::state::NetConfig::default(), 1),
            fired: Vec::new(),
        })
    }

    #[test]
    fn virtual_driver_runs_to_quiescence_in_order() {
        let mut sim = world();
        for ms in [30u64, 10, 20] {
            sim.schedule_at(SimTime::from_nanos(ms * 1_000_000), move |sim| {
                sim.state.fired.push(ms);
            });
        }
        let mut driver = VirtualDriver::new();
        let mut links = SimLinks;
        let report = run_rt(&mut sim, &mut driver, &mut links, &RtOptions::default());
        assert!(report.quiesced());
        assert_eq!(report.events, 3);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(sim.state.fired, vec![10, 20, 30]);
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut sim = world();
        for ms in [5u64, 50] {
            sim.schedule_at(SimTime::from_nanos(ms * 1_000_000), move |sim| {
                sim.state.fired.push(ms);
            });
        }
        let mut driver = VirtualDriver::new();
        let mut links = SimLinks;
        let report = run_rt(
            &mut sim,
            &mut driver,
            &mut links,
            &RtOptions {
                horizon: Some(SimTime::ZERO + SimDuration::from_millis(10)),
                ..RtOptions::default()
            },
        );
        assert_eq!(report.stop, StopReason::Horizon);
        assert_eq!(sim.state.fired, vec![5]);
    }
}
