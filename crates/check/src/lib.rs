//! dash-check — the semantic oracle for the RMS stack.
//!
//! [`mod@oracle`] is a small reference model of what the stack promises:
//! per-stream FIFO exactly-once-or-typed-failure delivery (§2.1),
//! admission never oversubscribing a ledger (§2.3), deterministic-class
//! messages meeting their `A + B·size` bound (§2.2), loop-free routing
//! alternates and no repair work without loss evidence. It consumes the
//! [`dash_sim::obs::ObsEvent`] stream as an [`dash_sim::obs::ObsSink`] and
//! records each violation with the trailing event trace.
//!
//! This crate is a leaf above `dash-sim`: `dash_apps::scenario::run`
//! attaches it to every run and returns its verdict, the benchmark
//! installs it in its traced worlds, and the explorer, shrinker and replay
//! files that search for violations live in `dash-bench`.

pub mod oracle;

pub use oracle::{oracle, OracleConfig, OracleHandle, OracleSink, Violation};
