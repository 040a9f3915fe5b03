//! `dash-benchmark`: the repo's benchmark.
//!
//! One runner, five named workloads, nine end-to-end metrics and a
//! per-layer table for the RMS stack, measured from outside the stack
//! through its public entry points. See the crate's `README.md`.

pub mod alloc;
pub mod child;
pub mod cli;
pub mod compare;
pub mod drivers;
pub mod json;
pub mod report;
pub mod run;
pub mod spec;
pub mod trace;
pub mod traffic;
pub mod workloads;
