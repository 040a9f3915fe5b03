//! Conservative parallel simulation with deterministic serial-equivalent
//! replay.
//!
//! The paper's DASH architecture is a *multiprocessor* communication
//! design — per-host protocol processes, per-interface deadline queues —
//! yet the reproduction so far executed every host on one thread. This
//! crate adds the standard answer for event-driven network stacks that
//! must scale across cores without giving up reproducibility: a
//! conservative (lookahead-synchronous) executor.
//!
//! * **One logical process per host** ([`netlp::StackLp`]): a full
//!   replica world whose protocol state only populates for its owner.
//!   "Shards" are worker threads owning groups of LPs ([`plan::ShardPlan`]);
//!   regrouping LPs never changes any LP's event sequence, which is the
//!   whole determinism argument.
//! * **Epochs bounded by wire lookahead** ([`exec::run_sharded`]): every
//!   inter-host interaction rides a wire with at least its network's
//!   propagation delay, so a shard may safely run `lookahead` ahead of
//!   the global minimum before exchanging envelopes at a barrier.
//! * **Canonical arrival order**: envelopes are injected with
//!   `(time, source, per-source seq)` keys
//!   ([`dash_sim::engine::Sim::call_arrival`]), making heap pop
//!   order a pure function of what was sent — never of thread timing,
//!   shard count, or injection batching.
//!
//! The result, enforced by tests from the synthetic executor level up to
//! the full-stack macro-workload: a P-shard run merges to byte-identical
//! traces, metric registries, and scalar outcomes as the 1-shard run.

pub mod exec;
pub mod netlp;
pub mod plan;

pub use exec::{run_sharded, Lp, ParConfig};
pub use netlp::{cross_shard_lookahead, local_lookahead, StackLp};
pub use plan::ShardPlan;
