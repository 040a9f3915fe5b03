//! # dash-apps — the paper's motivating application workloads
//!
//! §1 and §2.5 motivate the RMS design with a roster of traffic types;
//! this crate implements each of them on the assembled
//! [`dash_transport::stack::Stack`]:
//!
//! - [`media`]: digitized voice (64 kb/s CBR, 40 ms budget) and bursty
//!   video — "interactive high-bandwidth traffic" (§1).
//! - [`bulk`]: high-capacity bulk data transfer (§2.5).
//! - [`window`]: network window system traffic — small input events one
//!   way, bulky graphics the other (§2.5, ref \[7\]).
//! - [`rpc`]: request/reply workloads over RKOM (§3.3).
//! - [`taps`]: session-keyed dispatch so many workloads share a host.
//! - [`traffic`]: the plan types and the one per-endpoint driver behind the
//!   macro-workloads; [`scenario`]: `Scenario`, `Backend` and the one `run`.

pub mod bulk;
pub mod media;
pub mod rpc;
pub mod scenario;
pub mod taps;
pub mod traffic;
pub mod window;

pub use taps::{Dispatcher, SessionEvent};
