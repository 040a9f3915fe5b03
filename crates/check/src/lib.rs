//! dash-check — simulation testing for the RMS stack.
//!
//! The deterministic simulator underneath the stack makes every run a
//! reproducible function of its inputs (topology seed, workload, fault
//! plan, timer jitter). This crate turns that property into a model
//! checker for the paper's semantic guarantees, in three parts:
//!
//! - [`mod@oracle`]: a small reference model of what the stack promises —
//!   per-stream FIFO exactly-once-or-typed-failure delivery (§2.1),
//!   admission never oversubscribing a ledger (§2.3), deterministic-class
//!   messages meeting their `A + B·size` bound (§2.2), and loop-free
//!   routing alternates. It consumes the [`dash_sim::obs::ObsEvent`]
//!   stream online and fails fast with the violating event trace.
//! - [`mod@explore`]: a coverage-guided explorer that mutates workloads
//!   (lists of `dash_apps::traffic::Flow`), fault-plan seeds, and
//!   schedule-jitter parameters, compiles each mutant to a
//!   `dash_apps::scenario::Scenario` and runs it through
//!   `dash_apps::scenario::run`, using observed (event-kind → event-kind)
//!   transition bigrams as the novelty signal to keep a corpus and spend a
//!   fixed run budget where behaviour is new.
//! - [`mod@shrink`] + [`replay`]: once a violation is found, delta-debugging
//!   reduces the scenario to a minimal deterministic repro and a small
//!   text replay file that `cargo test` re-runs byte-identically.

pub mod explore;
pub mod oracle;
pub mod replay;
pub mod shrink;

pub use explore::{explore, run_scenario, ExploreConfig, RunReport, Scenario};
pub use oracle::{check_stream, oracle, OracleConfig, OracleHandle, OracleSink, Violation};
pub use shrink::shrink;
