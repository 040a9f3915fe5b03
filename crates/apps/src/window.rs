//! Network window system traffic (paper §2.5, ref \[7\]).
//!
//! "The RMS from user to application carries mouse and keyboard events, and
//! can have low capacity. The RMS in the opposite direction carries graphic
//! information, and generally requires higher capacity." Interactive
//! traffic "can tolerate a moderate amount of delay because of human
//! perceptual limitations."

use std::cell::RefCell;
use std::rc::Rc;

use dash_net::ids::HostId;
use dash_sim::engine::Sim;
use dash_sim::rng::Rng;
use dash_sim::stats::Histogram;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stack::Stack;
use dash_transport::stream::{self, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;

use crate::taps::Dispatcher;

/// Window-system workload parameters.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// Mean input-event rate (mouse/keyboard), events/second (Poisson).
    pub event_rate: f64,
    /// Input event size, bytes.
    pub event_bytes: u64,
    /// Mean graphics response size, bytes (Pareto-tailed).
    pub graphics_bytes: u64,
    /// Human-perceptible budget for event → screen-update latency.
    pub interaction_budget: SimDuration,
    /// Workload duration.
    pub duration: SimDuration,
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec {
            event_rate: 50.0,
            event_bytes: 32,
            graphics_bytes: 2 * 1024,
            interaction_budget: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(2),
        }
    }
}

/// Window-system results.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// Input events sent by the user host.
    pub events_sent: u64,
    /// Events that reached the application host.
    pub events_received: u64,
    /// Graphics updates painted back at the user host.
    pub updates_received: u64,
    /// Event → screen-update round-trip latencies, seconds.
    pub interaction_latency: Histogram,
    /// Interactions beyond the perceptual budget.
    pub late_interactions: u64,
    /// Set on failure.
    pub failed: bool,
}

/// Start a window-system pair: events flow `user → app` on a low-capacity
/// stream; each event triggers a graphics update `app → user` on a
/// higher-capacity stream.
pub fn start_window_system(
    sim: &mut Sim<Stack>,
    taps: &Dispatcher,
    user: HostId,
    app: HostId,
    spec: WindowSpec,
    seed: u64,
) -> Rc<RefCell<WindowStats>> {
    let stats = Rc::new(RefCell::new(WindowStats::default()));

    // §2.5 parameter choices: events = low capacity, moderate delay.
    let event_profile = StreamProfile {
        capacity: 4 * 1024,
        max_message: 256,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(30),
            SimDuration::from_micros(10),
        ),
        ..StreamProfile::default()
    };
    // Graphics = higher capacity.
    let gfx_profile = StreamProfile {
        capacity: 64 * 1024,
        max_message: 16 * 1024,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(60),
            SimDuration::from_micros(10),
        ),
        ..StreamProfile::default()
    };

    let Ok(event_stream) = stream::open(sim, user, app, event_profile) else {
        stats.borrow_mut().failed = true;
        return stats;
    };
    let Ok(gfx_stream) = stream::open(sim, app, user, gfx_profile) else {
        stats.borrow_mut().failed = true;
        return stats;
    };

    // App side: every event triggers a graphics update echoing the event's
    // send timestamp so the user side can measure the full interaction.
    let st_app = Rc::clone(&stats);
    let mut rng_app = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(0xA44));
    let mean_gfx = spec.graphics_bytes as f64;
    taps.register(event_stream, move |sim, ev| {
        st_app.borrow_mut().events_received += 1;
        // Echo the 8-byte send timestamp so the user side can measure
        // the full event→paint interaction; pad to a Pareto-tailed
        // graphics-update size.
        let mut payload = ev.msg.payload().to_vec();
        let gfx_len = (mean_gfx * rng_app.pareto(0.45, 1.8)).clamp(256.0, 15_000.0) as usize;
        payload.resize(gfx_len.max(payload.len()), 0);
        let _ = stream::send(sim, app, gfx_stream, Message::new(payload));
    });

    // User side: receive graphics, measure interaction latency.
    let st_user = Rc::clone(&stats);
    let budget = spec.interaction_budget;
    taps.register(gfx_stream, move |sim, ev| {
        let mut s = st_user.borrow_mut();
        s.updates_received += 1;
        if ev.msg.len() >= 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&ev.msg.payload()[..8]);
            let sent = SimTime::from_nanos(u64::from_be_bytes(b));
            let rtt = sim.now().saturating_since(sent);
            s.interaction_latency.record(rtt.as_secs_f64());
            if rtt > budget {
                s.late_interactions += 1;
            }
        }
    });

    // User input source: Poisson events.
    let end = sim.now().saturating_add(spec.duration);
    let rng = Rng::new(seed);
    schedule_event(sim, user, event_stream, spec, end, rng, Rc::clone(&stats));
    stats
}

fn schedule_event(
    sim: &mut Sim<Stack>,
    user: HostId,
    event_stream: u64,
    spec: WindowSpec,
    end: SimTime,
    mut rng: Rng,
    stats: Rc<RefCell<WindowStats>>,
) {
    if sim.now() >= end {
        return;
    }
    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / spec.event_rate));
    sim.schedule_in(gap, move |sim| {
        let mut payload = vec![0u8; spec.event_bytes.max(8) as usize];
        payload[..8].copy_from_slice(&sim.now().as_nanos().to_be_bytes());
        stats.borrow_mut().events_sent += 1;
        let _ = stream::send(sim, user, event_stream, Message::new(payload));
        schedule_event(sim, user, event_stream, spec, end, rng, stats);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_net::topology::two_hosts_ethernet;
    use dash_transport::stack::StackBuilder;

    #[test]
    fn interactive_loop_on_lan_is_snappy() {
        let (net, user, app) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let taps = Dispatcher::install(&mut sim, &[user, app]);
        let stats = start_window_system(&mut sim, &taps, user, app, WindowSpec::default(), 21);
        sim.run();
        let s = stats.borrow();
        assert!(!s.failed);
        assert!(s.events_sent > 50, "events {}", s.events_sent);
        assert!(s.events_received as f64 > s.events_sent as f64 * 0.9);
        assert!(s.updates_received as f64 > s.events_sent as f64 * 0.8);
        assert_eq!(s.late_interactions, 0, "LAN interactions inside 100 ms");
        assert!(s.interaction_latency.mean() < 0.05);
    }
}
