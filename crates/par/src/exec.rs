//! The conservative synchronous executor.
//!
//! One worker thread per shard, each owning the logical processes (LPs)
//! its [`ShardPlan`] assigns to it. Time advances in epochs bounded by
//! the global minimum next-event time plus the *cross-shard lookahead* —
//! the smallest wire delay any envelope crossing a shard boundary can
//! carry. Inside an epoch each worker is free of synchronization: it
//! sweeps its own LPs in micro-windows of the (usually much smaller)
//! all-networks lookahead, exchanging intra-worker envelopes locally. The
//! sweep reads each LP's next-event time from a per-LP cache that is
//! refreshed only by what can move it (the LP ran, or took an envelope),
//! so a window costs one pass over a `u64` per LP plus the LPs that run.
//!
//! # Why the merge is exact
//!
//! An envelope generated by an event at time `t` has `deliver_at >= t +
//! L` for the relevant lookahead `L`, so by construction every envelope
//! is injected into its destination before that LP's clock reaches the
//! delivery time — no event is ever scheduled into an LP's past.
//! Injection uses [`dash_sim::engine::Sim::call_arrival`] with the
//! canonical `(source host, per-source seq)` tie-break key, so co-timed
//! events pop in an order that depends only on what was sent. Each LP
//! therefore executes the exact same event sequence under every plan,
//! and a `(time, host, emission index)` merge of per-LP outputs is
//! byte-identical from 1 shard to P shards.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use dash_sim::time::{SimDuration, SimTime};

use crate::plan::ShardPlan;

/// A logical process the executor can drive.
///
/// Implementations wrap a full `Sim` world (see `crate::netlp::StackLp`)
/// or anything else with a clock, an event queue, and an envelope
/// boundary. LP worlds need not be `Send` — each is constructed and
/// consumed entirely on its worker thread; only envelopes and final
/// results cross threads.
pub trait Lp {
    /// The envelope type carrying cross-LP interactions.
    type Env: Send + 'static;

    /// The host this LP owns.
    fn host(&self) -> u32;

    /// Earliest pending event time, exact (dead timers reaped).
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Run every event strictly before `horizon`; advance the clock to it.
    fn run_until_horizon(&mut self, horizon: SimTime);

    /// Append envelopes generated since the last drain to `sink`.
    fn drain_outbox(&mut self, sink: &mut Vec<Self::Env>);

    /// The destination host of an envelope (routes it to an LP).
    fn dst_of(env: &Self::Env) -> u32;

    /// Inject an envelope; must schedule its arrival with the canonical
    /// tie-break key at its delivery time.
    fn inject(&mut self, env: Self::Env);
}

/// Executor timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct ParConfig {
    /// Run every event strictly before this time (exclusive), then stop
    /// with every LP clock at exactly this time.
    pub horizon: SimTime,
    /// Minimum wire delay of any envelope that crosses a shard boundary
    /// under the chosen plan; bounds the epoch length between barriers.
    pub cross_lookahead: SimDuration,
    /// Minimum wire delay of any envelope at all; bounds the intra-worker
    /// micro-windows. Must be `<= cross_lookahead`.
    pub local_lookahead: SimDuration,
}

/// Per-shard shared state: the epoch barrier, the round's global minimum
/// next-event time, the abort flag and one envelope mailbox per shard.
struct Shared<E> {
    barrier: Barrier,
    gmin: AtomicU64,
    /// Raised by a worker whose LP code panicked. Written between barriers
    /// A and B and read between B and C, like `gmin`, so every worker of a
    /// round reads the same value and they all leave together.
    abort: AtomicBool,
    mailboxes: Vec<Mutex<Vec<E>>>,
}

/// Run the plan's logical processes to `cfg.horizon` on
/// `plan.shards()` worker threads.
///
/// `build` constructs host `h`'s LP (called on the owning worker thread,
/// so the LP world itself never crosses threads) and `finish` converts a
/// completed LP into its `Send` result. Returns results indexed by host.
///
/// # Panics
///
/// Re-raises the panic of a worker thread (`build`, `finish` or any LP
/// method) once every worker has stopped — `std::sync::Barrier` does not
/// poison, so the panicking worker keeps the barrier protocol going until
/// the others have seen the abort flag and left. Panics if
/// `cfg.local_lookahead` is larger than `cfg.cross_lookahead` (that would
/// let a worker sweep past the point up to which other shards may still
/// send to it).
pub fn run_sharded<L, R>(
    plan: &ShardPlan,
    cfg: &ParConfig,
    build: impl Fn(u32) -> L + Sync,
    finish: impl Fn(L) -> R + Sync,
) -> Vec<R>
where
    L: Lp,
    R: Send,
{
    assert!(
        cfg.local_lookahead <= cfg.cross_lookahead,
        "local lookahead must not exceed the cross-shard lookahead"
    );
    assert!(
        !cfg.local_lookahead.is_zero(),
        "zero lookahead cannot make progress"
    );
    let shards = plan.shards() as usize;
    let shared: Shared<L::Env> = Shared {
        barrier: Barrier::new(shards),
        gmin: AtomicU64::new(u64::MAX),
        abort: AtomicBool::new(false),
        mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
    };
    let mut out: Vec<Option<R>> = (0..plan.hosts()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards as u32 {
            let shared = &shared;
            let build = &build;
            let finish = &finish;
            handles.push(scope.spawn(move || worker(plan, cfg, shard, shared, build, finish)));
        }
        // Join every worker before re-raising, so no thread outlives the
        // panic that reports it.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        for result in joined {
            for (host, result) in result.unwrap_or_else(|panic| resume_unwind(panic)) {
                out[host as usize] = Some(result);
            }
        }
    });
    out.into_iter()
        .enumerate()
        .map(|(h, r)| r.unwrap_or_else(|| panic!("host {h} produced no result")))
        .collect()
}

/// One LP and its cached next-event time (`u64::MAX` = idle). Only the
/// LP's own `run_until_horizon` / `drain_outbox` and an `inject` into it
/// can move that time, so the worker refreshes the cache after exactly
/// those and takes every window and epoch minimum from it — asking each
/// (cold) world again per micro-window cost more than running the events.
struct Slot<L> {
    lp: L,
    next: u64,
}

impl<L: Lp> Slot<L> {
    fn new(lp: L) -> Self {
        let mut slot = Slot { lp, next: u64::MAX };
        slot.refresh();
        slot
    }

    fn refresh(&mut self) {
        self.next = self.lp.next_event_time().map_or(u64::MAX, |t| t.as_nanos());
    }

    fn inject(&mut self, env: L::Env) {
        self.lp.inject(env);
        self.refresh();
    }
}

fn earliest<L>(slots: &[Slot<L>]) -> u64 {
    slots.iter().map(|s| s.next).min().unwrap_or(u64::MAX)
}

/// A caught panic payload.
type Panic = Box<dyn Any + Send>;

/// Run `f` unless this worker is already dead; park its panic if it has one.
fn guarded(dead: &mut Option<Panic>, f: impl FnOnce()) {
    if dead.is_none() {
        *dead = catch_unwind(AssertUnwindSafe(f)).err();
    }
}

fn worker<L: Lp, R: Send>(
    plan: &ShardPlan,
    cfg: &ParConfig,
    shard: u32,
    shared: &Shared<L::Env>,
    build: &(impl Fn(u32) -> L + Sync),
    finish: &(impl Fn(L) -> R + Sync),
) -> Vec<(u32, R)> {
    let horizon = cfg.horizon.as_nanos();
    let cross = cfg.cross_lookahead.as_nanos();
    let local = cfg.local_lookahead.as_nanos();

    let my_hosts: Vec<u32> = plan.hosts_on(shard).collect();
    let mut local_of = vec![usize::MAX; plan.hosts() as usize];
    for (i, &h) in my_hosts.iter().enumerate() {
        local_of[h as usize] = i;
    }

    // LP code (`build`, every `Lp` method) runs under `guarded` while the
    // barrier protocol is live: the first panic is parked in `dead`, after
    // which this worker touches its LPs no more and only keeps the other
    // workers' barriers from waiting forever.
    let mut dead: Option<Panic> = None;

    let mut slots: Vec<Slot<L>> = Vec::with_capacity(my_hosts.len());
    guarded(&mut dead, || {
        for &h in &my_hosts {
            slots.push(Slot::new(build(h)));
        }
    });

    let mut outbound: Vec<Vec<L::Env>> = (0..plan.shards()).map(|_| Vec::new()).collect();
    let mut drained: Vec<L::Env> = Vec::new();

    loop {
        // Phase A — every worker has finished pushing last epoch's
        // cross-shard envelopes; drain our mailbox and inject. Keyed
        // arrival scheduling makes injection order irrelevant.
        shared.barrier.wait();
        guarded(&mut dead, || {
            let inbox = std::mem::take(
                &mut *shared.mailboxes[shard as usize]
                    .lock()
                    .expect("no LP code runs under a mailbox lock"),
            );
            for env in inbox {
                slots[local_of[L::dst_of(&env) as usize]].inject(env);
            }
        });

        // Phase B — agree on the global minimum next-event time, or on
        // giving up.
        if dead.is_some() {
            shared.abort.store(true, Ordering::SeqCst);
        } else {
            shared.gmin.fetch_min(earliest(&slots), Ordering::SeqCst);
        }
        shared.barrier.wait();
        let gmin = shared.gmin.load(Ordering::SeqCst);
        let abort = shared.abort.load(Ordering::SeqCst);

        // Phase C — after everyone has read, the leader resets the
        // accumulator for the next round. The next fetch_min happens only
        // after the next Phase-A barrier, which orders it after this store.
        if shared.barrier.wait().is_leader() {
            shared.gmin.store(u64::MAX, Ordering::SeqCst);
        }

        // All workers read the same gmin and abort flag, so they agree on
        // the epoch bound and on when to stop: a worker died, idle
        // everywhere, or nothing left before the horizon.
        if abort {
            match dead {
                Some(panic) => resume_unwind(panic),
                None => return Vec::new(),
            }
        }
        if gmin == u64::MAX || gmin >= horizon {
            break;
        }
        let epoch_end = gmin.saturating_add(cross).min(horizon);

        // Phase W — run the epoch without synchronization, sweeping this
        // worker's LPs in micro-windows of the all-networks lookahead.
        guarded(&mut dead, || {
            loop {
                let wmin = earliest(&slots);
                if wmin >= epoch_end {
                    break;
                }
                let h = wmin.saturating_add(local).min(epoch_end);
                for i in 0..slots.len() {
                    if slots[i].next >= h {
                        continue;
                    }
                    slots[i].lp.run_until_horizon(SimTime::from_nanos(h));
                    slots[i].lp.drain_outbox(&mut drained);
                    slots[i].refresh();
                    for env in drained.drain(..) {
                        let dst = L::dst_of(&env);
                        let ds = plan.shard_of(dst);
                        if ds == shard {
                            // Intra-worker: inject immediately. Safe — the
                            // destination has run strictly below `h`, and
                            // the envelope's delivery time is at or above it.
                            slots[local_of[dst as usize]].inject(env);
                        } else {
                            outbound[ds as usize].push(env);
                        }
                    }
                }
            }
            for (ds, batch) in outbound.iter_mut().enumerate() {
                if !batch.is_empty() {
                    shared.mailboxes[ds]
                        .lock()
                        .expect("no LP code runs under a mailbox lock")
                        .append(batch);
                }
            }
        });
    }

    // Every worker is past its last barrier: a panic from here on (an LP
    // method, `finish`) unwinds straight into `run_sharded`'s join.
    // Advance every clock to the horizon (no events run: all remaining
    // work is at or beyond it).
    for slot in slots.iter_mut() {
        slot.lp.run_until_horizon(cfg.horizon);
    }
    my_hosts
        .into_iter()
        .zip(slots)
        .map(|(h, slot)| (h, finish(slot.lp)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_sim::engine::{arrival_key, Args, Sim};

    const WIRE: SimDuration = SimDuration::from_millis(2);

    /// Synthetic envelope: a ball bounced between hosts over a 2 ms wire.
    struct Ball {
        deliver_at: SimTime,
        src: u32,
        seq: u64,
        dst: u32,
        hops: u32,
    }

    /// Synthetic LP world: logs every arrival, bounces balls while they
    /// have hops left, and seeds local traffic that collides in time with
    /// arrivals to exercise the tie-break. An injected ball waits in
    /// `parked` until its arrival call names its slot.
    struct Node {
        host: u32,
        n: u32,
        log: Vec<(u64, u32, u64)>,
        outbox: Vec<Ball>,
        out_seq: u64,
        parked: Vec<Option<Ball>>,
    }

    fn send(sim: &mut Sim<Node>, dst: u32, hops: u32) {
        let at = sim.now().saturating_add(WIRE);
        let s = &mut sim.state;
        let seq = s.out_seq;
        s.out_seq += 1;
        s.outbox.push(Ball {
            deliver_at: at,
            src: s.host,
            seq,
            dst,
            hops,
        });
    }

    struct TestLp {
        sim: Sim<Node>,
    }

    impl Lp for TestLp {
        type Env = Ball;

        fn host(&self) -> u32 {
            self.sim.state.host
        }
        fn next_event_time(&mut self) -> Option<SimTime> {
            self.sim.next_event_time()
        }
        fn run_until_horizon(&mut self, horizon: SimTime) {
            self.sim.run_until_horizon(horizon);
        }
        fn drain_outbox(&mut self, sink: &mut Vec<Ball>) {
            sink.append(&mut self.sim.state.outbox);
        }
        fn dst_of(env: &Ball) -> u32 {
            env.dst
        }
        fn inject(&mut self, env: Ball) {
            let (at, key) = (env.deliver_at, arrival_key(env.src, env.seq));
            let parked = &mut self.sim.state.parked;
            parked.push(Some(env));
            let slot = parked.len() as u64 - 1;
            self.sim.call_arrival(at, key, arrive, (0, slot));
        }
    }

    /// The ball parked at `slot` arrives.
    fn arrive(sim: &mut Sim<Node>, (_, slot): Args) {
        let Ball {
            src,
            seq,
            dst,
            hops,
            ..
        } = sim.state.parked[slot as usize]
            .take()
            .expect("arrives once");
        sim.state.log.push((sim.now().as_nanos(), src, seq));
        if hops > 0 {
            let n = sim.state.n;
            send(
                sim,
                (src.wrapping_mul(7) + dst.wrapping_mul(3) + 1) % n,
                hops - 1,
            );
        }
    }

    fn build_node(host: u32, n: u32) -> TestLp {
        let mut sim = Sim::new(Node {
            host,
            n,
            log: Vec::new(),
            outbox: Vec::new(),
            out_seq: 0,
            parked: Vec::new(),
        });
        // Local traffic at multiples of the wire delay, so locally timed
        // events collide with arrivals and the tie-break decides.
        for i in 0..24u64 {
            let at = SimTime::from_nanos((i + 1) * WIRE.as_nanos());
            sim.schedule_at(at, move |sim| {
                let me = sim.state.host;
                sim.state.log.push((sim.now().as_nanos(), u32::MAX, i));
                let n = sim.state.n;
                send(sim, (me + 1 + (i as u32 % 3)) % n, 3);
            });
        }
        TestLp { sim }
    }

    /// Run under `plan`, merge each LP's log by (time, host, index).
    fn merged_log(plan: &ShardPlan, n: u32) -> Vec<(u64, u32, u32, u64)> {
        let cfg = ParConfig {
            horizon: SimTime::from_nanos(200 * WIRE.as_nanos()),
            cross_lookahead: WIRE,
            local_lookahead: WIRE,
        };
        let logs = run_sharded(
            plan,
            &cfg,
            |h| build_node(h, n),
            |lp| (lp.sim.state.host, lp.sim.state.log.clone(), lp.sim.now()),
        );
        let mut merged = Vec::new();
        for (host, log, now) in logs {
            assert_eq!(now, cfg.horizon, "every clock ends at the horizon");
            for (t, src, seq) in log {
                merged.push((t, host, src, seq));
            }
        }
        merged.sort();
        merged
    }

    /// The load-bearing guarantee: the merged event log is byte-identical
    /// under every partitioning — serial (1 shard), hashed, adversarial
    /// placement, and more shards than fit evenly.
    #[test]
    fn merge_is_identical_under_every_plan() {
        let n = 10;
        let serial = merged_log(&ShardPlan::hashed(n, 1), n);
        assert!(serial.len() > 500, "workload too small: {}", serial.len());
        for plan in [
            ShardPlan::hashed(n, 2),
            ShardPlan::hashed(n, 3),
            ShardPlan::hashed(n, 4),
            ShardPlan::from_placement(2, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1]),
            ShardPlan::from_placement(2, vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        ] {
            assert_eq!(serial, merged_log(&plan, n), "diverged under {plan:?}");
        }
    }

    /// Workers holding zero LPs still participate in the barrier protocol.
    #[test]
    fn tolerates_more_shards_than_hosts() {
        let n = 2;
        let serial = merged_log(&ShardPlan::hashed(n, 1), n);
        let wide = merged_log(&ShardPlan::hashed(n, 5), n);
        assert_eq!(serial, wide);
    }

    /// Run four hosts on two shards with `build`, which makes some LP
    /// panic with `expected`; `run_sharded` must re-raise exactly that, and
    /// within the watchdog's 10 s — not leave the healthy worker blocked in
    /// `barrier.wait()` (`std::sync::Barrier` does not poison).
    fn assert_panic_propagates(
        build: impl Fn(u32) -> TestLp + Send + Sync + 'static,
        expected: &str,
    ) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let plan = ShardPlan::from_placement(2, vec![0, 0, 1, 1]);
            let cfg = ParConfig {
                horizon: SimTime::from_nanos(200 * WIRE.as_nanos()),
                cross_lookahead: WIRE,
                local_lookahead: WIRE,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(&plan, &cfg, build, |lp| lp.sim.now())
            }));
            let message = outcome
                .err()
                .map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(message);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(message) => assert_eq!(
                message,
                Some(Some(expected.to_string())),
                "run_sharded must re-raise the worker's own panic"
            ),
            Err(_) => panic!("run_sharded wedged on a panicked worker"),
        }
    }

    /// An LP event on shard 1 of 2 panics mid-run, between two barriers of
    /// a later epoch.
    #[test]
    fn worker_panic_propagates_instead_of_wedging() {
        assert_panic_propagates(
            |h| {
                let mut lp = build_node(h, 4);
                if h == 3 {
                    let at = SimTime::from_nanos(10 * WIRE.as_nanos() + 1);
                    lp.sim.schedule_at(at, |_| panic!("LP 3 fell over"));
                }
                lp
            },
            "LP 3 fell over",
        );
    }

    /// The build closure panics, before the worker's first barrier.
    #[test]
    fn build_panic_propagates_instead_of_wedging() {
        assert_panic_propagates(
            |h| {
                assert!(h != 2, "no world for host 2");
                build_node(h, 4)
            },
            "no world for host 2",
        );
    }

    /// An idle system terminates immediately instead of spinning epochs.
    #[test]
    fn idle_run_terminates() {
        let plan = ShardPlan::hashed(4, 2);
        let cfg = ParConfig {
            horizon: SimTime::from_nanos(1_000_000_000),
            cross_lookahead: WIRE,
            local_lookahead: WIRE,
        };
        let clocks = run_sharded(
            &plan,
            &cfg,
            |h| TestLp {
                sim: Sim::new(Node {
                    host: h,
                    n: 4,
                    log: Vec::new(),
                    outbox: Vec::new(),
                    out_seq: 0,
                    parked: Vec::new(),
                }),
            },
            |lp| lp.sim.now(),
        );
        assert!(clocks.iter().all(|&c| c == cfg.horizon));
    }
}
