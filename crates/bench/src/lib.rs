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

/// An experiment entry point: runs the scenario and renders its table.
pub type Experiment = fn() -> Table;

/// Every experiment, in DESIGN.md order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig1_layering", figs::fig1_layering as fn() -> Table),
        ("fig2_architecture", figs::fig2_architecture),
        ("fig3_rms_levels", figs::fig3_rms_levels),
        ("fig4_multiplexing", figs::fig4_multiplexing),
        ("fig5_flow_control", figs::fig5_flow_control),
        ("e1_security", e_security_sched::e1_security),
        ("e2_scheduling", e_security_sched::e2_scheduling),
        ("e3_caching", e_st::e3_caching),
        ("e4_fragmentation", e_st::e4_fragmentation),
        ("e5_capacity", e_capacity::e5_capacity),
        ("e6_admission", e_capacity::e6_admission),
        ("e7_rkom", e_baseline::e7_rkom),
        ("e8_congestion", e_baseline::e8_congestion),
        ("e9_piggyback", e_st::e9_piggyback),
        ("e10_scale", mix::e10_scale),
        ("e11_routing", e_routing::e11_routing),
        ("e12_pscale", mix::e12_pscale),
        ("e13_rt", mix::e13_rt),
    ]
}

/// Run one experiment by id.
pub fn run_one(id: &str) -> Option<Table> {
    all_experiments()
        .into_iter()
        .find(|(n, _)| *n == id)
        .map(|(_, f)| f())
}
