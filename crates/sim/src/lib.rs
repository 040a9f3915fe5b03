//! # dash-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the DASH / Real-Time Message Stream (RMS)
//! reproduction. The paper's claims are about *policy* — deadline-based
//! packet and process scheduling, parameter negotiation, selective flow
//! control — so every layer above runs on this deterministic virtual-time
//! engine where those policies are observable and reproducible.
//!
//! Components:
//!
//! - [`time`]: nanosecond [`time::SimTime`] / [`time::SimDuration`] newtypes.
//! - [`engine`]: the event loop, [`engine::Sim<S>`], with unboxed calls
//!   (function plus ids) and boxed closures as events, and deterministic
//!   tie-breaking.
//! - [`slab`]: the free-listed arena where the data a pending call works
//!   on waits, addressed by the ids the call carries.
//! - [`driver`]: the time-source seam ([`driver::TimeDriver`]) deciding how
//!   the queue is paced — [`driver::VirtualDriver`] here (as fast as
//!   possible), a wall-clock `Monotonic` driver in `dash-rt`.
//! - [`cpu`]: per-host CPU model with EDF / FIFO / priority short-term
//!   scheduling and context-switch costs (paper §4.1).
//! - [`rng`]: self-contained xoshiro256++ PRNG with forkable sub-streams.
//! - [`fault`]: fault-injection plans (scripted and seeded-random schedules
//!   of network failure, partitions, burst loss, stalls, crashes).
//! - [`hash`]: the deterministic hasher behind the id-keyed tables of
//!   every layer.
//! - [`stats`]: counters, online moments, exact-quantile histograms, rate
//!   meters.
//! - [`alloc`]: the counting global allocator that allocation gates
//!   install (per-thread allocations, bytes and live bytes).
//!
//! ## Example
//!
//! ```
//! use dash_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(Vec::new());
//! sim.schedule_in(SimDuration::from_millis(2), |s| s.state.push("b"));
//! sim.schedule_in(SimDuration::from_millis(1), |s| s.state.push("a"));
//! sim.run();
//! assert_eq!(sim.state, ["a", "b"]);
//! ```

pub mod alloc;
pub mod cpu;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod obs;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use driver::{TimeDriver, VirtualDriver};
pub use engine::{Args, Call, CallFn, Event, Sim, TimerHandle};
pub use fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, GilbertElliott};
pub use obs::{JsonLinesSink, MetricRegistry, Obs, ObsEvent, ObsSink, SpanRecord, Stage};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
