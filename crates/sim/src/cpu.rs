//! Host CPU model with deadline-based short-term scheduling (paper §4.1).
//!
//! When an upper-level RMS is created, its total delay bound is divided among
//! stages; protocol processing at each end is one such stage, and the paper
//! requires the short-term scheduler to order protocol (and user) processes
//! by those deadlines. This module models one CPU per host: protocol work is
//! submitted as a [`Job`] with a cost and a deadline, and a pluggable
//! [`SchedPolicy`] picks the execution order. A context-switch cost is
//! charged whenever the CPU switches between job *streams* (the stand-in for
//! protocol process identity), which is what experiment `e4_fragmentation`
//! sweeps.
//!
//! Scheduling is non-preemptive: protocol jobs are short relative to delay
//! bounds, and non-preemptive EDF keeps the model (and its analysis) simple.
//! This choice is recorded in `DESIGN.md`.
//!
//! The CPU lives inside the simulation world `S`, which lends it out by
//! host key through [`CpuHost`]. Nothing here is boxed: a job's
//! continuation is an unboxed [`Call`] (a function plus ids; the data it
//! works on stays in the world), and its completion is a call event
//! naming the host key.

use crate::engine::{Args, Call, Sim};
use crate::stats::Counter;
use crate::time::{SimDuration, SimTime};

/// How the CPU picks the next ready job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Earliest-deadline-first: the policy the paper prescribes (§4.1).
    #[default]
    Edf,
    /// First-in-first-out arrival order: the "no information" baseline.
    Fifo,
    /// Static priority (lower number = more urgent), the "priorities only"
    /// baseline the conclusion contrasts with.
    Priority,
}

/// A unit of protocol or user processing to run on a host CPU.
pub struct Job<S> {
    /// Deadline by which this work should complete (drives EDF).
    pub deadline: SimTime,
    /// Static priority (drives [`SchedPolicy::Priority`]); lower is sooner.
    pub priority: u8,
    /// Identity of the process/stream this job belongs to; switching streams
    /// costs a context switch.
    pub stream: u64,
    /// CPU time the job consumes.
    pub cost: SimDuration,
    /// Continuation called when the job completes.
    pub cont: Call<S>,
}

impl<S> std::fmt::Debug for Job<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("deadline", &self.deadline)
            .field("priority", &self.priority)
            .field("stream", &self.stream)
            .field("cost", &self.cost)
            .finish()
    }
}

struct ReadyJob<S> {
    /// Scheduling key, computed from the policy at submit time: the ready
    /// queue is a min-heap on `(key, seq)`, so picking the next job is
    /// O(log n) instead of a linear scan. The unique `seq` tie-break keeps
    /// the order identical to the old scan (and deterministic).
    key: u64,
    seq: u64,
    job: Job<S>,
}

impl<S> PartialEq for ReadyJob<S> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<S> Eq for ReadyJob<S> {}

impl<S> PartialOrd for ReadyJob<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<S> Ord for ReadyJob<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the smallest key.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

struct Running<S> {
    cont: Call<S>,
    deadline: SimTime,
    finish_at: SimTime,
}

/// A world that models per-host CPUs.
pub trait CpuHost: Sized + 'static {
    /// The CPU of host `key`: the same one for the same key for the
    /// lifetime of the simulation.
    fn cpu(&mut self, key: u32) -> &mut Cpu<Self>;
}

/// Counters exported by a [`Cpu`] for the scheduling experiments.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Jobs completed.
    pub completed: Counter,
    /// Jobs that finished after their deadline.
    pub deadline_misses: Counter,
    /// Context switches charged.
    pub context_switches: Counter,
    /// Total busy time (including context-switch overhead).
    pub busy: SimDuration,
}

/// A simulated single-core CPU with a ready queue and scheduling policy.
pub struct Cpu<S> {
    policy: SchedPolicy,
    context_switch: SimDuration,
    ready: std::collections::BinaryHeap<ReadyJob<S>>,
    running: Option<Running<S>>,
    current_stream: Option<u64>,
    seq: u64,
    /// Measurement counters; reset with [`Cpu::take_stats`].
    pub stats: CpuStats,
}

impl<S> std::fmt::Debug for Cpu<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("policy", &self.policy)
            .field("ready", &self.ready.len())
            .field("busy", &self.running.is_some())
            .finish()
    }
}

impl<S: 'static> Cpu<S> {
    /// Create a CPU with the given policy and per-switch overhead.
    pub fn new(policy: SchedPolicy, context_switch: SimDuration) -> Self {
        Cpu {
            policy,
            context_switch,
            ready: std::collections::BinaryHeap::new(),
            running: None,
            current_stream: None,
            seq: 0,
            stats: CpuStats::default(),
        }
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// True if a job is currently executing.
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Take and reset the accumulated statistics.
    pub fn take_stats(&mut self) -> CpuStats {
        std::mem::take(&mut self.stats)
    }

    /// The heap key a job sorts by under this CPU's policy (ties broken by
    /// submission order via `seq`).
    fn sched_key(&self, job: &Job<S>) -> u64 {
        match self.policy {
            SchedPolicy::Edf => job.deadline.as_nanos(),
            SchedPolicy::Fifo => 0,
            SchedPolicy::Priority => job.priority as u64,
        }
    }

    fn pick_next(&mut self) -> Option<ReadyJob<S>> {
        self.ready.pop()
    }
}

/// Submit a job to the CPU of host `key`, starting it immediately if idle.
pub fn submit<S: CpuHost>(sim: &mut Sim<S>, key: u32, job: Job<S>) {
    let cpu = sim.state.cpu(key);
    let seq = cpu.seq;
    cpu.seq += 1;
    let sched_key = cpu.sched_key(&job);
    cpu.ready.push(ReadyJob {
        key: sched_key,
        seq,
        job,
    });
    if cpu.running.is_none() {
        start_next(sim, key);
    }
}

fn start_next<S: CpuHost>(sim: &mut Sim<S>, key: u32) {
    let now = sim.now();
    let cpu = sim.state.cpu(key);
    debug_assert!(cpu.running.is_none());
    let Some(ready) = cpu.pick_next() else {
        return;
    };
    let switch = if cpu.current_stream == Some(ready.job.stream) {
        SimDuration::ZERO
    } else {
        if cpu.current_stream.is_some() || !cpu.context_switch.is_zero() {
            cpu.stats.context_switches.incr();
        }
        cpu.context_switch
    };
    cpu.current_stream = Some(ready.job.stream);
    let service = switch.saturating_add(ready.job.cost);
    let finish_at = now.saturating_add(service);
    cpu.stats.busy = cpu.stats.busy.saturating_add(service);
    cpu.running = Some(Running {
        cont: ready.job.cont,
        deadline: ready.job.deadline,
        finish_at,
    });
    sim.call_at(finish_at, complete::<S>, (key, 0));
}

fn complete<S: CpuHost>(sim: &mut Sim<S>, (key, _): Args) {
    let now = sim.now();
    let cont = {
        let cpu = sim.state.cpu(key);
        let running = cpu.running.as_ref().expect("completion without a job");
        debug_assert_eq!(running.finish_at, now);
        cpu.stats.completed.incr();
        if now > running.deadline {
            cpu.stats.deadline_misses.incr();
        }
        running.cont
    };
    // Run the continuation while `running` is still `Some`, so jobs it
    // submits are queued rather than started re-entrantly.
    cont.run(sim);
    sim.state.cpu(key).running = None;
    start_next(sim, key);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        cpu: Cpu<World>,
        order: Vec<u32>,
    }

    impl CpuHost for World {
        fn cpu(&mut self, _key: u32) -> &mut Cpu<World> {
            &mut self.cpu
        }
    }

    fn push_tag(sim: &mut Sim<World>, (tag, _): Args) {
        sim.state.order.push(tag);
    }

    fn world(policy: SchedPolicy, ctx: SimDuration) -> Sim<World> {
        Sim::new(World {
            cpu: Cpu::new(policy, ctx),
            order: Vec::new(),
        })
    }

    fn job(tag: u32, deadline_ms: u64, priority: u8, stream: u64, cost_us: u64) -> Job<World> {
        Job {
            deadline: SimTime::from_nanos(deadline_ms * 1_000_000),
            priority,
            stream,
            cost: SimDuration::from_micros(cost_us),
            cont: Call::new(push_tag, (tag, 0)),
        }
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut sim = world(SchedPolicy::Edf, SimDuration::ZERO);
        // First job starts immediately (FIFO head), the rest sort by deadline.
        submit(&mut sim, 0, job(0, 100, 0, 0, 10));
        submit(&mut sim, 0, job(3, 30, 0, 0, 10));
        submit(&mut sim, 0, job(1, 10, 0, 0, 10));
        submit(&mut sim, 0, job(2, 20, 0, 0, 10));
        sim.run();
        assert_eq!(sim.state.order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let mut sim = world(SchedPolicy::Fifo, SimDuration::ZERO);
        submit(&mut sim, 0, job(0, 100, 0, 0, 10));
        submit(&mut sim, 0, job(1, 1, 0, 0, 10));
        submit(&mut sim, 0, job(2, 50, 0, 0, 10));
        sim.run();
        assert_eq!(sim.state.order, vec![0, 1, 2]);
    }

    #[test]
    fn priority_orders_by_priority() {
        let mut sim = world(SchedPolicy::Priority, SimDuration::ZERO);
        submit(&mut sim, 0, job(0, 1, 5, 0, 10));
        submit(&mut sim, 0, job(2, 1, 9, 0, 10));
        submit(&mut sim, 0, job(1, 1, 1, 0, 10));
        sim.run();
        assert_eq!(sim.state.order, vec![0, 1, 2]);
    }

    #[test]
    fn context_switch_charged_on_stream_change_only() {
        let mut sim = world(SchedPolicy::Fifo, SimDuration::from_micros(5));
        submit(&mut sim, 0, job(0, 100, 0, 1, 10)); // switch (first)
        submit(&mut sim, 0, job(1, 100, 0, 1, 10)); // same stream
        submit(&mut sim, 0, job(2, 100, 0, 2, 10)); // switch
        sim.run();
        // 3 jobs * 10us + 2 switches * 5us = 40us.
        assert_eq!(sim.now(), SimTime::from_nanos(40_000));
        assert_eq!(sim.state.cpu.stats.context_switches.get(), 2);
        assert_eq!(sim.state.cpu.stats.completed.get(), 3);
    }

    #[test]
    fn deadline_misses_counted() {
        let mut sim = world(SchedPolicy::Fifo, SimDuration::ZERO);
        // Deadline at 1us, cost 10us -> must miss.
        submit(&mut sim, 0, job(0, 0, 0, 0, 10));
        sim.run();
        assert_eq!(sim.state.cpu.stats.deadline_misses.get(), 1);
    }

    #[test]
    fn continuation_can_submit_more_work() {
        fn push_and_submit(sim: &mut Sim<World>, _: Args) {
            sim.state.order.push(1);
            submit(sim, 0, job(2, 1, 0, 0, 1));
        }
        let mut sim = world(SchedPolicy::Edf, SimDuration::ZERO);
        submit(
            &mut sim,
            0,
            Job {
                deadline: SimTime::MAX,
                priority: 0,
                stream: 0,
                cost: SimDuration::from_micros(1),
                cont: Call::new(push_and_submit, (0, 0)),
            },
        );
        sim.run();
        assert_eq!(sim.state.order, vec![1, 2]);
        assert!(!sim.state.cpu.is_busy());
    }

    #[test]
    fn busy_time_accumulates() {
        let mut sim = world(SchedPolicy::Edf, SimDuration::ZERO);
        submit(&mut sim, 0, job(0, 100, 0, 0, 25));
        submit(&mut sim, 0, job(1, 100, 0, 0, 25));
        sim.run();
        assert_eq!(sim.state.cpu.stats.busy, SimDuration::from_micros(50));
        let taken = sim.state.cpu.take_stats();
        assert_eq!(taken.completed.get(), 2);
        assert_eq!(sim.state.cpu.stats.completed.get(), 0);
    }
}
