//! Compile-time thread-safety audit of everything that crosses a shard
//! boundary under the parallel executor (`dash::par`).
//!
//! The executor's contract is that LP *worlds* stay on their worker
//! thread while envelopes, merged outputs, and shared parameter handles
//! move between threads. These static assertions pin down exactly which
//! types are licensed to cross: if a refactor slips an `Rc`, `RefCell`,
//! or raw pointer into one of them, this file stops compiling — the
//! failure is a build error at the offending line, not a runtime race.
//!
//! Each assertion is a monomorphisation of `assert_send`/`assert_sync`,
//! so the checks cost nothing at runtime and need no `#[test]` to fire;
//! the `#[test]` below exists only so the suite reports the audit ran.

use bytes::Bytes;
use dash::core::message::Message;
use dash::core::params::{RmsParams, SharedParams};
use dash::core::wire::WireMsg;
use dash::net::packet::Packet;
use dash::net::shard::WireEnvelope;
use dash::par::{ParConfig, ShardPlan};
use dash::sim::engine::Call;
use dash::sim::obs::{MetricRegistry, ObsEvent};
use dash::transport::stack::Stack;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// Envelopes are the only live traffic between shards: each worker
/// pushes into every other shard's mailbox, and the owner drains at the
/// epoch barrier. `Send` is load-bearing; `Sync` comes along because the
/// payload is immutable once sealed.
const _: () = {
    let _ = assert_send::<WireEnvelope>;
    let _ = assert_sync::<WireEnvelope>;
    let _ = assert_send::<Packet>;
    let _ = assert_sync::<Packet>;
};

/// The packet payload path: `WireMsg` is a scatter-gather list of
/// `Bytes` segments, and `Bytes` shares its backing store by `Arc` (a
/// vendored subset of the crates.io crate — this assertion is what keeps
/// the vendored version honest about its concurrency story).
const _: () = {
    let _ = assert_send::<WireMsg>;
    let _ = assert_sync::<WireMsg>;
    let _ = assert_send::<Bytes>;
    let _ = assert_sync::<Bytes>;
    let _ = assert_send::<Message>;
    let _ = assert_sync::<Message>;
};

/// Negotiated QoS parameter sets ride inside control packets and are
/// retained by both endpoints; `SharedParams` is `Arc<RmsParams>`, so
/// one allocation may end up referenced from several shards at once.
const _: () = {
    let _ = assert_send::<SharedParams>;
    let _ = assert_sync::<SharedParams>;
    let _ = assert_send::<RmsParams>;
    let _ = assert_sync::<RmsParams>;
};

/// Merged outputs: every worker returns its LP's observability stream
/// and metric registry to the coordinating thread, which merges them in
/// fixed host order. These only need `Send` (moved, never shared), but
/// they are plain data and `Sync` documents that.
const _: () = {
    let _ = assert_send::<ObsEvent>;
    let _ = assert_sync::<ObsEvent>;
    let _ = assert_send::<MetricRegistry>;
    let _ = assert_sync::<MetricRegistry>;
};

/// Executor configuration is captured by reference from every worker
/// thread simultaneously (`std::thread::scope`), so `Sync` is required,
/// not just nice to have.
const _: () = {
    let _ = assert_send::<ParConfig>;
    let _ = assert_sync::<ParConfig>;
    let _ = assert_send::<ShardPlan>;
    let _ = assert_sync::<ShardPlan>;
};

/// A protocol action is a function pointer plus ids — the data it works
/// on stays in the world — so unlike a boxed closure it could cross a
/// shard boundary as it is.
const _: () = {
    let _ = assert_send::<Call<Stack>>;
    let _ = assert_sync::<Call<Stack>>;
};

/// The audit is compile-time; this test just records it in the report.
#[test]
fn shard_crossing_types_are_send_and_sync() {}
