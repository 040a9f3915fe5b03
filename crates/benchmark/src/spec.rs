//! The metric tables: every name the benchmark reports, with unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` and the
//! README carry the same rows; a test keeps the three in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `true` when `new` is worse than `base` in this direction.
    pub fn is_worse(self, base: f64, new: f64) -> bool {
        match self {
            Better::Higher => new < base,
            Better::Lower => new > base,
        }
    }

    /// `"higher"` / `"lower"`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
    /// Definition, one line.
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// The nine end-to-end metrics, reported for every workload.
///
/// The five sim-time metrics (`delay_*`, `on_time_frac`, `op_ok_frac`,
/// `goodput_mbps`) are functions of the simulated world: they repeat
/// exactly for a given seed, and a speed-only change must leave them
/// identical. Their bounds are as wide as the metric moves from one seed
/// to the next, because the benchmark's contract judges spread over
/// runs with different seeds. The delay is reported as mean and 99th
/// percentile: the median is a mass point (piggyback hold plus one
/// serialization) that reads the same for every seed. `on_time_frac` and
/// `op_ok_frac` are the complements of a late and a failed fraction, so
/// that the metric is never 0 and a relative bound of 0.002 on a value
/// near 1 is an absolute +0.002 on the fraction.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "msgs_per_s",
        unit: "msgs/s",
        better: Higher,
        bound: 0.25,
        what: "application messages delivered (stream.deliver + rkom.completed) per host second of the run phase",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "one full set-up: topology, stack, population, fault plan; sharded, every replica world to the last build end",
    },
    EndToEnd {
        name: "allocs_per_msg",
        unit: "count",
        better: Lower,
        bound: 0.04,
        what: "run-phase heap allocations (the crate's counting GlobalAlloc) per delivered message",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        what: "VmHWM of the child at exit",
    },
    EndToEnd {
        name: "delay_mean_us",
        unit: "sim_us",
        better: Lower,
        bound: 0.10,
        what: "mean delay of delivered stream messages, stream::send to in-order delivery, simulated time",
    },
    EndToEnd {
        name: "delay_p99_us",
        unit: "sim_us",
        better: Lower,
        bound: 0.10,
        what: "99th percentile of the same delays, simulated time",
    },
    EndToEnd {
        name: "on_time_frac",
        unit: "frac",
        better: Higher,
        bound: 0.002,
        what: "1 - st.late_delivery / st.deliver",
    },
    EndToEnd {
        name: "op_ok_frac",
        unit: "frac",
        better: Higher,
        bound: 0.002,
        what: "1 - operations failed / attempted; an operation is a session open, a message offered or a call issued",
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "Mb/s",
        better: Higher,
        bound: 0.01,
        what: "application payload bits delivered per simulated second, headers and retransmissions excluded",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Exact counter of the timed run (registry, session or RKOM stats).
    Count,
    /// Sim-time histogram of the timed run.
    Sim,
    /// The traced run.
    Trace,
    /// A layer driver.
    Drv,
}

impl Source {
    /// Tag used in the report.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Count => "count",
            Source::Sim => "sim",
            Source::Trace => "trace",
            Source::Drv => "drv",
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, prefixed by the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Origin of the number.
    pub source: Source,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Count, Drv, Sim, Trace};

/// The per-layer table. `par.*` rows are 0 on the serial workloads.
pub const PER_LAYER: [PerLayer; 78] = [
    // sim
    pl("sim.engine.events", "count", Lower, Count),
    pl("sim.engine.events_per_msg", "count", Lower, Count),
    pl("sim.engine.events_per_s", "1/s", Higher, Count),
    pl("sim.engine.run_s", "s", Lower, Count),
    pl("sim.engine.peak_pending", "count", Lower, Trace),
    pl("sim.unmarked.wall_frac", "frac", Lower, Trace),
    pl("sim.engine.drv.ns_per_event", "ns", Lower, Drv),
    pl("sim.engine.drv.allocs_per_event", "count", Lower, Drv),
    pl("sim.engine.drv.timer_cancel_ns", "ns", Lower, Drv),
    pl("sim.obs.drv.emit_ns", "ns", Lower, Drv),
    // core
    pl("core.admission.admitted", "count", Higher, Count),
    pl("core.admission.reject_frac", "frac", Lower, Count),
    pl("core.admission.drv.admit_release_ns", "ns", Lower, Drv),
    pl("core.wire.drv.build_slice_ns", "ns", Lower, Drv),
    pl("core.wire.drv.cursor_decode_ns", "ns", Lower, Drv),
    // security
    pl("security.drv.checksum_ns_per_kb", "ns", Lower, Drv),
    pl("security.drv.mac_ns_per_kb", "ns", Lower, Drv),
    pl("security.drv.cipher_ns_per_kb", "ns", Lower, Drv),
    // net
    pl("net.packets_sent", "count", Lower, Count),
    pl("net.packets_per_msg", "count", Lower, Count),
    pl("net.iface.drops", "count", Lower, Count),
    pl("net.iface.peak_queue_bytes", "B", Lower, Count),
    pl("net.fault.injected", "count", Higher, Count),
    pl("net.iface.queue_wait_p50_us", "sim_us", Lower, Sim),
    pl("net.iface.queue_wait_p99_us", "sim_us", Lower, Sim),
    pl("net.wire_p50_us", "sim_us", Lower, Sim),
    pl("net.fault.recovery_p50_ms", "sim_ms", Lower, Sim),
    pl("net.routing.floods", "count", Lower, Count),
    pl("net.routing.recomputes", "count", Lower, Count),
    pl("net.routing.alternate_wins", "count", Higher, Count),
    pl("net.routing.reconverge_p50_ms", "sim_ms", Lower, Sim),
    pl("net.wall_frac", "frac", Lower, Trace),
    pl("net.routing.wall_frac", "frac", Lower, Trace),
    pl("net.iface.drv.enq_deq_ns", "ns", Lower, Drv),
    pl("net.routing.drv.k_paths_ns", "ns", Lower, Drv),
    pl("net.routing.drv.recompute_ns", "ns", Lower, Drv),
    pl("net.routing.drv.lsdb_install_ns", "ns", Lower, Drv),
    // subtransport
    pl("st.msgs_delivered", "count", Higher, Count),
    pl("st.bundled_frac", "frac", Higher, Count),
    pl("st.frags_per_msg", "count", Lower, Count),
    pl("st.cache_hit_frac", "frac", Higher, Count),
    pl("st.cache_misses", "count", Lower, Count),
    pl("st.failovers", "count", Lower, Count),
    pl("st.wire_overhead", "ratio", Lower, Count),
    pl("st.tx_stage_p50_us", "sim_us", Lower, Sim),
    pl("st.rx_stage_p50_us", "sim_us", Lower, Sim),
    pl("st.wall_frac", "frac", Lower, Trace),
    pl("st.wire.drv.encode_ns", "ns", Lower, Drv),
    pl("st.wire.drv.decode_ns", "ns", Lower, Drv),
    pl("st.frag.drv.ns_per_kb", "ns", Lower, Drv),
    pl("st.piggyback.drv.push_flush_ns", "ns", Lower, Drv),
    // transport
    pl("transport.stream.delivered", "count", Higher, Count),
    pl("transport.stream.acks_per_msg", "count", Lower, Count),
    pl("transport.stream.blocked", "count", Lower, Count),
    pl("transport.stream.retransmit_frac", "frac", Lower, Count),
    pl("transport.stream.open_fail_frac", "frac", Lower, Count),
    pl("transport.rkom.calls", "count", Higher, Count),
    pl("transport.rkom.completed_frac", "frac", Higher, Count),
    pl("transport.rkom.retransmits", "count", Lower, Count),
    pl("transport.stage_p50_us", "sim_us", Lower, Sim),
    pl("transport.rkom.rtt_p50_ms", "sim_ms", Lower, Sim),
    pl("transport.wall_frac", "frac", Lower, Trace),
    pl("transport.stream.drv.ns_per_msg", "ns", Lower, Drv),
    pl("transport.rkom.drv.ns_per_call", "ns", Lower, Drv),
    // check
    pl("check.oracle.violations", "count", Lower, Trace),
    pl("check.oracle.ns_per_obs_event", "ns", Lower, Trace),
    pl("check.oracle.wall_frac", "frac", Lower, Trace),
    // par (mixed-par only)
    pl("par.speedup_2_over_1", "ratio", Higher, Trace),
    pl("par.par1_over_serial", "ratio", Lower, Trace),
    pl("par.lp_busy_frac", "frac", Higher, Trace),
    pl("par.windows", "count", Lower, Trace),
    pl("par.envelopes", "count", Lower, Trace),
    pl("par.setup_frac", "frac", Lower, Trace),
    pl("par.allocs_per_event", "count", Lower, Trace),
    // rt
    pl("rt.sched.drv.overhead_ns_per_event", "ns", Lower, Drv),
    // trace
    pl("trace.marks", "count", Lower, Trace),
    pl("trace.overhead_ratio", "ratio", Lower, Trace),
    pl("trace.run_s", "s", Lower, Trace),
];

/// The wall-fraction rows, in the order of `trace::LAYERS`.
pub const WALL_FRAC_ROWS: [&str; 6] = [
    "sim.unmarked.wall_frac",
    "net.wall_frac",
    "net.routing.wall_frac",
    "st.wall_frac",
    "transport.wall_frac",
    "check.oracle.wall_frac",
];

/// Sim-time end-to-end metrics: identical on every repetition of a seed.
pub const SIM_TIME: [&str; 5] = [
    "delay_mean_us",
    "delay_p99_us",
    "on_time_frac",
    "op_ok_frac",
    "goodput_mbps",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn names_units(j: &Json, key: &str) -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the README name exactly what this table names.
    #[test]
    fn benchmark_json_and_readme_match_the_tables() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("file exists");
        let j = Json::parse(&text).expect("valid JSON");
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("file exists");

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(names_units(&j, "end_to_end"), want);
        for (m, row) in END_TO_END
            .iter()
            .zip(j.get("end_to_end").unwrap().as_arr().unwrap())
        {
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README lacks {}",
                m.name
            );
        }
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(names_units(&j, "per_layer"), want);
        for m in PER_LAYER {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README lacks {}",
                m.name
            );
        }

        let listed: Vec<(String, String)> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = workloads::all(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            j.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in workloads::all(false) {
            assert!(ok(w.name, "_.-", 64) && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for row in WALL_FRAC_ROWS.iter().chain(SIM_TIME.iter()) {
            assert!(seen.contains(row), "{row} is in no table");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
