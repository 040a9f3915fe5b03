//! Helpers shared across the integration-test suite.
//!
//! Each `tests/*.rs` file is its own crate, so these are pulled in with
//! `mod common;` — items unused by one test binary are dead code there,
//! hence the allows.

use std::collections::BTreeSet;
use std::fmt::Debug;

use dash_bench::explore::RunReport;

/// Deterministic-replay assertion: execute `run` twice and require the
/// `key` projection of both runs to match exactly. Returns the first run
/// for further checks. `key` selects the deterministic portion of the
/// outcome (wall-clock readings must stay out of it).
#[allow(dead_code)]
pub fn assert_replays<T, K>(label: &str, mut run: impl FnMut() -> T, key: impl Fn(&T) -> K) -> T
where
    K: PartialEq + Debug,
{
    let first = run();
    let second = run();
    let (ka, kb) = (key(&first), key(&second));
    assert_eq!(ka, kb, "{label}: replay diverged between identical runs");
    first
}

/// The replay projection of an explorer run: events processed, coverage
/// bigrams, and each violation as `invariant time detail`.
#[allow(dead_code)]
pub fn report_key(r: &RunReport) -> (u64, BTreeSet<(u16, u16)>, Vec<String>) {
    let violations = r
        .verdict
        .violations
        .iter()
        .map(|v| format!("{} {} {}", v.invariant, v.at.as_nanos(), v.detail))
        .collect();
    (r.processed, r.bigrams.clone(), violations)
}
