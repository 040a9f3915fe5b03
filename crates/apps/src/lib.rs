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
//!   `dash-par` and `dash-rt` backends, which judges every run with the
//!   `dash_check` oracle and returns its [`scenario::Verdict`].
//!
//! Dependency direction: `dash-check` (the oracle, a leaf above
//! `dash-sim`) ← `dash-apps` ← `dash-bench` (plans, tables and the
//! explorer).

pub mod scenario;
pub mod traffic;
