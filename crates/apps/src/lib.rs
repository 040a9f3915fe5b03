//! # dash-apps — the workload language
//!
//! §1 and §2.5 motivate the RMS design with a roster of traffic types and
//! define each only by the RMS parameters it picks, so a workload here is
//! data, driven by one per-endpoint driver on the assembled
//! [`dash_transport::stack::Stack`]:
//!
//! - [`traffic`]: the plan — [`traffic::Flow`] (voice, bulk or any other
//!   `(profile, pacing, size)` triple), [`traffic::RpcFlow`] (RKOM, §3.3),
//!   [`traffic::TcpFlow`] (the TCP-like baseline), [`traffic::WindowFlow`]
//!   (a network window system, §2.5) — and [`traffic::install`], the one
//!   driver that opens, paces or pumps, answers and counts them per owned
//!   endpoint.
//! - [`scenario`]: a [`scenario::Scenario`] (topology program + plan +
//!   fault drill) and the one [`scenario::run`] over the serial,
//!   `dash-par` and `dash-rt` backends.
//!
//! Dependency direction: `dash-apps` ← `dash-check` ← `dash-bench`. This
//! crate never names the oracle; `scenario::run` hands back the event
//! stream that `dash_check::check_stream` judges.

pub mod scenario;
pub mod traffic;
