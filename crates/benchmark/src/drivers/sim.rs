//! Engine and observability drivers (reported where `voice-lan`'s
//! per-event cost dominates).

use std::collections::BTreeMap;
use std::hint::black_box;

use dash_sim::engine::Sim;
use dash_sim::obs::{Obs, ObsEvent};
use dash_sim::rng::Rng;
use dash_sim::time::{SimDuration, SimTime};

use super::Size;
use crate::alloc;

/// Pending events the engine driver keeps queued, as a loaded world does.
const PENDING: usize = 10_000;

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    // Schedule + pop at a steady 10 k pending. The closure does nothing
    // but captures 32 bytes, as a wire-arrival or timer event does, so
    // the engine's one box per event is counted.
    let mut sim: Sim<u64> = Sim::new(0);
    let mut rng = Rng::new(1);
    let schedule = |sim: &mut Sim<u64>, rng: &mut Rng| {
        let captured = [rng.next_u64(); 4];
        let gap = SimDuration::from_nanos(1 + captured[0] % 1_000_000);
        sim.schedule_in(gap, move |s| s.state ^= captured[3]);
    };
    for _ in 0..PENDING {
        schedule(&mut sim, &mut rng);
    }
    let allocs0 = alloc::count();
    let events0 = sim.events_processed();
    let ns = size.ns_per_op(4096, || {
        schedule(&mut sim, &mut rng);
        sim.step();
    });
    let events = (sim.events_processed() - events0).max(1);
    out.insert("sim.engine.drv.ns_per_event", ns);
    out.insert(
        "sim.engine.drv.allocs_per_event",
        (alloc::count() - allocs0) as f64 / events as f64,
    );
    black_box(sim.state);

    // Arm and cancel a timer (the protocol-timer pattern: most RTOs and
    // flush timers are cancelled, not fired), reaped by the next step.
    let ns = size.ns_per_op(4096, || {
        let t = sim.schedule_timer(SimDuration::from_millis(300), |s| s.state += 1);
        t.cancel();
        sim.schedule_in(SimDuration::from_nanos(1), |s| s.state += 1);
        sim.step();
    });
    out.insert("sim.engine.drv.timer_cancel_ns", ns);

    // Obs::emit with the registry only (no sink), over the event kinds a
    // voice frame's hop emits.
    let mut obs = Obs::new();
    obs.enable();
    let mut i = 0u64;
    let ns = size.ns_per_op(4096, || {
        i += 1;
        let event = match i % 4 {
            0 => ObsEvent::NetPacketSent { host: 1 },
            1 => ObsEvent::StNetMsg {
                host: 1,
                net_rms: 7,
                bytes: 220,
                span: None,
            },
            2 => ObsEvent::CacheHit { host: 1 },
            _ => ObsEvent::NetPacketDelivered {
                host: 2,
                rms: 7,
                seq: i,
                span: None,
            },
        };
        obs.emit(SimTime::from_nanos(i), event);
    });
    out.insert("sim.obs.drv.emit_ns", ns);
    black_box(obs.registry.counter_value("net.packet_sent"));
}
