//! # rms-core — the Real-Time Message Stream abstraction
//!
//! A Real-Time Message Stream (RMS) is a simplex communication channel with
//! negotiated reliability, security, and performance parameters (Anderson,
//! "A Software Architecture for Network Communication", UC Berkeley, 1987).
//! This crate holds everything about the abstraction itself, independent of
//! any particular provider:
//!
//! - [`params`]: the parameter set — reliability, authentication, privacy,
//!   capacity, maximum message size, bit error rate (§2.1–§2.2).
//! - [`delay`]: delay bounds `A + B·size` and their deterministic /
//!   statistical / best-effort kinds (§2.2–§2.3).
//! - [`compat`]: the compatibility relation and desired/acceptable
//!   negotiation, plus provider [`compat::ServiceTable`]s (§2.4, §3.1).
//! - [`message`]: untyped, labelled messages (§2).
//! - [`wire`]: scatter-gather encoded messages ([`wire::WireMsg`]) and
//!   the zero-copy decode cursor ([`wire::WireCursor`]).
//! - [`port`]: what a receiver learns with each delivery (§2).
//! - [`bandwidth`]: the `C/D` bandwidth identity (§2.2).
//! - [`admission`]: deterministic and statistical admission tests (§2.3).
//! - [`error`]: shared error types, including RMS failure notification
//!   reasons.
//!
//! ## Example: negotiating a stream
//!
//! ```
//! use rms_core::compat::{negotiate, PerfLimits, RmsRequest, ServiceTable};
//! use rms_core::delay::DelayBound;
//! use rms_core::params::{BitErrorRate, Reliability, RmsParams, SecurityParams};
//! use dash_sim::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A provider that offers insecure unreliable service up to 1 MB capacity.
//! let mut table = ServiceTable::new();
//! table.support(
//!     Reliability::Unreliable,
//!     SecurityParams::NONE,
//!     PerfLimits {
//!         min_fixed_delay: SimDuration::from_micros(50),
//!         min_per_byte_delay: SimDuration::ZERO,
//!         max_capacity: 1 << 20,
//!         max_message_size: 1500,
//!         min_error_rate: BitErrorRate::new(1e-9).expect("valid rate"),
//!         max_kind_strength: 2,
//!     },
//! );
//!
//! // A client that wants 10 ms delivery of 1 KB messages, 64 KB in flight.
//! let params = RmsParams::builder(64 * 1024, 1024)
//!     .delay(DelayBound::deterministic(
//!         SimDuration::from_millis(10),
//!         SimDuration::ZERO,
//!     ))
//!     .error_rate(BitErrorRate::new(1e-6).expect("valid rate"))
//!     .build()?;
//! let actual = negotiate(&table, &RmsRequest::exact(params))?;
//! assert_eq!(actual.capacity, 64 * 1024);
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod bandwidth;
pub mod compat;
pub mod delay;
pub mod error;
pub use dash_sim::hash;
pub mod message;
pub mod params;
pub mod port;
pub mod wire;

pub use compat::{is_compatible, negotiate, RmsRequest, ServiceTable};
pub use delay::{DelayBound, DelayBoundKind, StatisticalSpec};
pub use error::{FailReason, RejectReason, RmsError};
pub use hash::{DetHashMap, DetHashSet, DetHasher};
pub use message::{Label, Message};
pub use params::{
    Authentication, BitErrorRate, Privacy, Reliability, RmsParams, SecurityParams, SharedParams,
};
pub use port::DeliveryInfo;
pub use wire::{WireCursor, WireMsg};
