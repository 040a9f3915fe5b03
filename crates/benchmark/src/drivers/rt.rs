//! `dash-rt` driver: what the real-time scheduler's loop costs per event
//! when it never has to wait — `run_rt` under `VirtualDriver` + `SimLinks`
//! against `Sim::run_until` on the same small voice population. Paced
//! runs are not benchmarked: their lag and miss numbers do not repeat
//! within a tenth on a shared 2-core box.

use std::collections::BTreeMap;
use std::time::Instant;

use dash_rt::{run_rt, RtOptions, SimLinks, VirtualDriver};
use dash_sim::engine::Sim;
use dash_sim::time::SimDuration;
use dash_transport::stack::{Stack, StackBuilder};

use super::Size;
use crate::report::median;
use crate::traffic;
use crate::workloads::{self, Workload};

fn world(w: &Workload) -> Sim<Stack> {
    let (net, sites) = w.topology(1);
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    traffic::install(&mut sim, &w.plan(1, &sites), None);
    sim
}

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    let mut w = workloads::by_name("voice-lan", true).expect("workload exists");
    w.duration = SimDuration::from_millis(if size.smoke { 200 } else { 2000 });
    let horizon = w.horizon();
    let opts = RtOptions {
        // `run_rt`'s horizon is exclusive; the serial run's is not.
        horizon: Some(horizon.saturating_add(SimDuration::from_nanos(1))),
        ..RtOptions::default()
    };

    // Alternate the two loops and take each one's median, so drift of the
    // machine between them does not read as scheduler cost.
    let (mut serial_ns, mut rt_ns, mut events) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let mut serial = world(&w);
        let started = Instant::now();
        serial.run_until(horizon);
        serial_ns.push(started.elapsed().as_nanos() as f64);

        let mut rt = world(&w);
        let started = Instant::now();
        let report = run_rt(&mut rt, &mut VirtualDriver::new(), &mut SimLinks, &opts);
        rt_ns.push(started.elapsed().as_nanos() as f64);
        assert_eq!(
            report.events,
            serial.events_processed(),
            "rt and serial runs diverged"
        );
        events = report.events.max(1);
    }
    out.insert(
        "rt.sched.drv.overhead_ns_per_event",
        (median(&rt_ns) - median(&serial_ns)) / events as f64,
    );
}
