//! # dash-bench — the experiment harness
//!
//! One runner per figure/claim of the paper (see DESIGN.md's experiment
//! index). Each returns a [`table::Table`]; the `run_experiments` binary
//! prints them all. The macro-workload behind e10/e12/e13 is described
//! once in [`mix`] and run on three backends by the `mix` binary; how
//! fast any of it runs is `dash-benchmark`'s business, not this crate's.
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
pub mod figs;
pub mod mix;
pub mod table;

pub use table::Table;

use dash_apps::scenario::{run, Backend, Outcome, Scenario};
use dash_apps::traffic::{Class, Flow};
use dash_check::check_stream;
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

/// Run each scenario on the serial engine with its event stream kept, and
/// hold the stream to the semantic oracle: a planned experiment reports
/// no row from a run that broke an invariant.
///
/// # Panics
///
/// On any oracle violation, with the scenario's index and the violations.
pub fn run_checked(scenarios: Vec<Scenario>) -> Vec<Outcome> {
    (scenarios.into_iter().enumerate())
        .map(|(i, scn)| {
            let scn = Scenario {
                keep_events: true,
                ..scn
            };
            let o = run(&scn, Backend::Serial);
            let violations = check_stream(&o.stream, true);
            assert!(violations.is_empty(), "scenario {i}: {violations:#?}");
            o
        })
        .collect()
}

/// How an experiment produces its table.
#[derive(Clone, Copy)]
pub enum Experiment {
    /// It builds and drives its own world.
    Built(fn() -> Table),
    /// It is planned as data: its scenarios, run by [`run_checked`], and
    /// the pure projection of their outcomes onto its table.
    Planned(fn() -> Vec<Scenario>, fn(&[Outcome]) -> Table),
}

impl Experiment {
    /// Run the experiment and render its table.
    pub fn table(self) -> Table {
        match self {
            Experiment::Built(table) => table(),
            Experiment::Planned(scenarios, project) => project(&run_checked(scenarios())),
        }
    }
}

/// Every experiment, in DESIGN.md order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    use crate::{e_baseline::*, e_capacity::*, e_routing::*, e_security_sched::*, e_st::*};
    use crate::{figs::*, mix::*};
    use Experiment::{Built, Planned};
    vec![
        ("fig1_layering", Planned(fig1_scenarios, fig1_table)),
        ("fig2_architecture", Planned(fig2_scenarios, fig2_table)),
        ("fig3_rms_levels", Built(fig3_rms_levels)),
        ("fig4_multiplexing", Planned(fig4_scenarios, fig4_table)),
        ("fig5_flow_control", Planned(fig5_scenarios, fig5_table)),
        ("e1_security", Built(e1_security)),
        ("e2_scheduling", Planned(e2_scenarios, e2_table)),
        ("e3_caching", Built(e3_caching)),
        ("e4_fragmentation", Planned(e4_scenarios, e4_table)),
        ("e5_capacity", Planned(e5_scenarios, e5_table)),
        ("e6_admission", Built(e6_admission)),
        ("e7_rkom", Built(e7_rkom)),
        ("e8_congestion", Built(e8_congestion)),
        ("e9_piggyback", Planned(e9_scenarios, e9_table)),
        ("e10_scale", Built(e10_scale)),
        ("e11_routing", Built(e11_routing)),
        ("e12_pscale", Built(e12_pscale)),
        ("e13_rt", Built(e13_rt)),
    ]
}

/// Run one experiment by id.
pub fn run_one(id: &str) -> Option<Table> {
    all_experiments()
        .into_iter()
        .find(|(n, _)| *n == id)
        .map(|(_, e)| e.table())
}
