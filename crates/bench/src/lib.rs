//! # dash-bench — the experiment harness
//!
//! One [`Experiment`] per figure/claim of the paper (see DESIGN.md's
//! experiment index), most planned as scenarios run by [`run_checked`],
//! which refuses a run whose `Outcome::verdict` is not clean; the
//! `run_experiments` binary prints every table. The macro-workload of
//! e10/e12/e13 is planned once in [`mix`]; how fast any of it runs is
//! `dash-benchmark`'s business, not this crate's.
//! The simulation-testing search ([`mod@explore`], [`mod@shrink`],
//! [`replay`]) lives here too, above the plans it shares a language with.
//!
//! The paper (an architecture technical report) publishes no measured
//! tables, so "reproduction" here means: run the subsystem each figure
//! depicts, quantify the claim attached to it, and check the *shape* the
//! paper predicts (who wins, what gets eliminated, where behaviour
//! degrades).

pub mod e_baseline;
pub mod e_capacity;
pub mod e_routing;
pub mod e_security_sched;
pub mod e_st;
pub mod explore;
pub mod figs;
pub mod mix;
pub mod replay;
pub mod shrink;
pub mod table;

pub use explore::explore;
pub use shrink::shrink;
pub use table::Table;

use dash_apps::scenario::{run, Backend, Outcome, Scenario};
use dash_apps::traffic::{Class, Flow};
use dash_net::state::{NetConfig, NetState};
use dash_net::topology::TopologyBuilder;
use dash_net::{HostId, NetworkSpec};
use dash_sim::time::SimDuration;
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

/// The sending host of a [`lan`] world (and of `two_hosts_ethernet`).
pub const A: HostId = HostId(0);
/// The receiving host of a [`lan`] world (and of `two_hosts_ethernet`).
pub const B: HostId = HostId(1);

/// The topology program of hosts [`A`] and [`B`] on one network of
/// `spec`, under the network-layer `config`.
pub fn lan(spec: NetworkSpec, config: NetConfig) -> impl Fn() -> NetState + Send + Sync {
    move || {
        let mut tb = TopologyBuilder::new();
        tb.config(config.clone());
        let n = tb.network(spec.clone());
        tb.host_on(n);
        tb.host_on(n);
        tb.build()
    }
}

/// A best-effort delay bound of `fixed_ms` plus 10 µs per byte.
pub fn best_effort(fixed_ms: u64) -> DelayBound {
    DelayBound::best_effort_with(
        SimDuration::from_millis(fixed_ms),
        SimDuration::from_micros(10),
    )
}

/// A paced flow from [`A`] to [`B`] over `profile`, late past its delay
/// bound: one message at open; struct update syntax sets the count, the
/// interval, the length and the start.
pub fn paced(profile: StreamProfile) -> Flow {
    Flow {
        class: Class::Voice,
        src: A,
        dst: B,
        start: SimDuration::ZERO,
        count: 1,
        interval: SimDuration::from_millis(1),
        poisson: None,
        len: 64,
        budget: profile.delay.bound_for(64),
        profile,
    }
}

/// Run each scenario on each of `backends` (scenario-major) and refuse
/// what no table may report: a verdict that is not clean, or a `Par`
/// digest that differs from the scenario's first `Par` run's (every
/// shard count must merge to one digest).
///
/// # Panics
///
/// On any such fault, naming the table `id`, the scenario's index and the
/// backend.
pub fn run_checked(id: &str, scenarios: Vec<Scenario>, backends: &[Backend]) -> Vec<Outcome> {
    let mut outs = Vec::new();
    for (i, scn) in scenarios.into_iter().enumerate() {
        let mut par_digest = None;
        for &backend in backends {
            let o = run(&scn, backend);
            let at = format!("{id}, scenario {i} on {backend:?}");
            assert!(o.verdict.is_clean(), "{at}: {}", o.verdict);
            if let Backend::Par { .. } = backend {
                let digest = o.determinism_digest();
                let first = par_digest.get_or_insert_with(|| digest.clone());
                assert!(
                    *first == digest,
                    "{at}: DIVERGED from the first shard count"
                );
            }
            outs.push(o);
        }
    }
    outs
}

/// One serial run per scenario: what most planned experiments use.
pub const SERIAL: &[Backend] = &[Backend::Serial];

/// How an experiment produces its table.
#[derive(Clone, Copy)]
pub enum Experiment {
    /// It builds and drives its own world; the doc of each such table
    /// names what it waits on to become planned.
    Built(fn() -> Table),
    /// It is planned as data: its scenarios, the backends [`run_checked`]
    /// runs each on, and the pure projection of their outcomes (in that
    /// order) onto its table.
    Planned(
        fn() -> Vec<Scenario>,
        &'static [Backend],
        fn(&[Outcome]) -> Table,
    ),
}

impl Experiment {
    /// Run the experiment `id` and render its table.
    pub fn table(self, id: &str) -> Table {
        match self {
            Experiment::Built(table) => table(),
            Experiment::Planned(scenarios, backends, project) => {
                project(&run_checked(id, scenarios(), backends))
            }
        }
    }
}

/// Every experiment, in DESIGN.md order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    use crate::{e_baseline::*, e_capacity::*, e_routing::*, e_security_sched::*, e_st::*};
    use crate::{figs::*, mix::*};
    use Experiment::{Built, Planned};
    vec![
        ("fig1_layering", Planned(fig1_scenarios, SERIAL, fig1_table)),
        (
            "fig2_architecture",
            Planned(fig2_scenarios, SERIAL, fig2_table),
        ),
        ("fig3_rms_levels", Built(fig3_rms_levels)),
        (
            "fig4_multiplexing",
            Planned(fig4_scenarios, SERIAL, fig4_table),
        ),
        (
            "fig5_flow_control",
            Planned(fig5_scenarios, SERIAL, fig5_table),
        ),
        ("e1_security", Built(e1_security)),
        ("e2_scheduling", Planned(e2_scenarios, SERIAL, e2_table)),
        ("e3_caching", Built(e3_caching)),
        ("e4_fragmentation", Planned(e4_scenarios, SERIAL, e4_table)),
        ("e5_capacity", Planned(e5_scenarios, SERIAL, e5_table)),
        ("e6_admission", Built(e6_admission)),
        ("e7_rkom", Planned(e7_scenarios, SERIAL, e7_table)),
        ("e8_congestion", Planned(e8_scenarios, SERIAL, e8_table)),
        ("e9_piggyback", Planned(e9_scenarios, SERIAL, e9_table)),
        ("e10_scale", Planned(e10_scenarios, SERIAL, e10_table)),
        ("e11_routing", Planned(e11_scenarios, SERIAL, e11_table)),
        ("e12_pscale", Planned(ci_scenarios, E12_BACKENDS, e12_table)),
        ("e13_rt", Planned(ci_scenarios, E13_BACKENDS, e13_table)),
    ]
}
