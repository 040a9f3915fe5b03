//! Layer drivers: one loop per `[drv]` row of the per-layer table.
//!
//! Each driver calls a layer's public functions directly, on inputs shaped
//! like the workload where that layer dominates, and is the standalone
//! reproducer for its row (`dash-benchmark drivers` runs them alone).
//! Timings are medians over batches, so one preempted batch does not move
//! the row.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

mod core;
mod net;
mod rt;
mod security;
mod sim;
mod st;
mod transport;

/// How much work a driver does.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Wall budget of one timing loop.
    budget: Duration,
    /// Tests run the drivers at a size that only shows they work.
    smoke: bool,
}

impl Size {
    /// Median nanoseconds per call of `op`, timed in batches of `batch`
    /// calls for the budget (at least three batches).
    fn ns_per_op(&self, batch: usize, mut op: impl FnMut()) -> f64 {
        let batch = if self.smoke {
            batch.div_ceil(64)
        } else {
            batch
        };
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || started.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        crate::report::median(&samples)
    }
}

/// Run every driver; one entry per `[drv]` row.
pub fn run_all(smoke: bool) -> BTreeMap<&'static str, f64> {
    let size = Size {
        budget: Duration::from_millis(if smoke { 1 } else { 60 }),
        smoke,
    };
    let mut out = BTreeMap::new();
    sim::run(&size, &mut out);
    core::run(&size, &mut out);
    security::run(&size, &mut out);
    net::run(&size, &mut out);
    st::run(&size, &mut out);
    transport::run(&size, &mut out);
    rt::run(&size, &mut out);
    out
}
