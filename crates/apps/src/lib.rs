//! # dash-apps — the workload language
//!
//! §1 and §2.5 motivate the RMS design with a roster of traffic types and
//! define each only by the RMS parameters it picks, so a workload here is
//! data, driven by one per-endpoint driver on the assembled
//! [`dash_transport::stack::Stack`]:
//!
//! - [`traffic`]: the plan types — a [`traffic::Flow`] is digitized voice
//!   (64 kb/s CBR, 40 ms budget), bulk transfer or any other `(profile,
//!   pacing, size)` triple, an [`traffic::RpcFlow`] a request/reply pair
//!   over RKOM (§3.3) — and [`traffic::install`], the one driver that
//!   opens, paces or pumps, classifies and counts them per owned endpoint.
//! - [`scenario`]: a [`scenario::Scenario`] (topology program + plan +
//!   fault drill) and the one [`scenario::run`] over the serial,
//!   `dash-par` and `dash-rt` backends.
//! - [`window`]: network window system traffic — small input events one
//!   way, bulky graphics the other (§2.5, ref \[7\]); the one *reactive*
//!   workload, so it is handlers, not a plan.
//! - [`rpc`]: the sequential request/reply client over the TCP-like
//!   baseline, for the e7 comparison.
//! - [`taps`]: the one host-tap installer; session-keyed dispatch so
//!   planned flows and ad-hoc handlers share a host.
//!
//! Dependency direction: `dash-apps` ← `dash-check` ← `dash-bench`. This
//! crate never names the oracle; `scenario::run` hands back the event
//! stream that `dash_check::check_stream` judges.

pub mod rpc;
pub mod scenario;
pub mod taps;
pub mod traffic;
pub mod window;

pub use taps::{Delivery, Dispatcher};
