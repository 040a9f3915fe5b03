//! The discrete-event engine.
//!
//! [`Sim<S>`] owns a virtual clock, a priority queue of pending events, and
//! an application-defined world state `S`. An event receives `&mut Sim<S>`
//! — it can mutate the world, read the clock, and schedule further events
//! — and comes in one of two forms:
//!
//! - a **call**: a plain function pointer plus a `Copy` pair of ids
//!   ([`Args`]), scheduled with [`Sim::call_at`] and friends. Nothing is
//!   boxed, so scheduling one allocates nothing once the queue has grown
//!   to its working size. Protocol code uses this form only: the data an
//!   action needs stays in the world (an interface, a slab slot) and the
//!   ids say where.
//! - a **closure**: a boxed one-shot closure, scheduled with
//!   [`Sim::schedule_at`] and friends. Convenient for harness code — tests,
//!   examples, traffic drivers, fault-plan installers — at the price of
//!   one heap allocation per event.
//!
//! Both forms share one queue, one submission sequence and one jitter
//! stream: ties in time are broken by submission order whatever the form,
//! so a run is fully deterministic.
//!
//! # Queue representation
//!
//! Actions live in a slot-reusing slab of 32-byte slots (a call, or a
//! closure's box pointer); the binary heap orders small `Copy` keys (time,
//! submission seq, slot, generation) instead of the actions themselves, so
//! heap sift operations move 24-byte entries rather than fat owner
//! structs. Cancellation goes through a shared, non-generic
//! `CancelBoard`: a [`TimerHandle`] marks its slot dirty without needing
//! `&mut Sim`, and the engine drains dirty slots at the next scheduling
//! boundary — dropping a cancelled closure (and whatever it captured)
//! eagerly instead of carrying a tombstone until its due time. Generation
//! counters make stale heap entries for reused slots harmless, and the
//! heap compacts itself when dead entries outnumber live ones.
//!
//! ```
//! use dash_sim::engine::Sim;
//! use dash_sim::time::SimDuration;
//!
//! let mut sim = Sim::new(0u32);
//! sim.schedule_in(SimDuration::from_millis(1), |sim| sim.state += 1);
//! sim.schedule_in(SimDuration::from_millis(2), |sim| sim.state += 10);
//! sim.run();
//! assert_eq!(sim.state, 11);
//! assert_eq!(sim.now().as_nanos(), 2_000_000);
//! ```

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A scheduled closure: a one-shot closure run at its scheduled instant.
pub type Event<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// The ids an unboxed action is called with: by convention the host it
/// runs on and one more id (a session, a token, a slab slot).
pub type Args = (u32, u64);

/// An unboxed action: a plain function over the simulator and its ids.
pub type CallFn<S> = fn(&mut Sim<S>, Args);

/// An unboxed action bound to its ids, as a value: what a deferred
/// continuation (a CPU job's, say) holds until it is due.
pub struct Call<S> {
    /// The function to call.
    pub f: CallFn<S>,
    /// The ids to call it with.
    pub args: Args,
}

impl<S> Call<S> {
    /// Bind `f` to `args`.
    pub fn new(f: CallFn<S>, args: Args) -> Self {
        Call { f, args }
    }

    /// Call `f(sim, args)` now.
    pub fn run(self, sim: &mut Sim<S>) {
        (self.f)(sim, self.args)
    }
}

impl<S> Clone for Call<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Call<S> {}

impl<S> std::fmt::Debug for Call<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Call").field("args", &self.args).finish()
    }
}

/// What one queue slot holds.
enum Action<S> {
    Call(Call<S>),
    Closure(Event<S>),
}

/// Tie-break keys for [`Sim::schedule_arrival`] live above this bound;
/// locally scheduled events use submission sequence numbers far below it.
pub const ARRIVAL_KEY_BASE: u64 = 1 << 63;

/// Bits of `arrival_key` reserved for the per-source sequence number.
const ARRIVAL_SEQ_BITS: u32 = 40;

/// The canonical tie-break key for a cross-engine arrival: orders
/// co-timed arrivals by `(source host, per-source seq)` and after every
/// co-timed local event. The per-source seq is masked to 40 bits —
/// ample for any run, and keeping the source host in the high bits is
/// what makes the order injection-independent.
pub fn arrival_key(src_host: u32, src_seq: u64) -> u64 {
    ARRIVAL_KEY_BASE
        | ((src_host as u64) << ARRIVAL_SEQ_BITS)
        | (src_seq & ((1 << ARRIVAL_SEQ_BITS) - 1))
}

/// The heap key for one scheduled action. `Copy` and small by design:
/// sifting moves these, never the actions.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Shared cancellation state, deliberately non-generic so [`TimerHandle`]
/// can live in structs that know nothing about the world type `S`.
///
/// Each slot carries a generation; a handle only acts when its remembered
/// generation matches, so handles outliving their timer (fired, or slot
/// reused) degrade to no-ops. Slots cancelled since the last drain are on
/// the dirty list for the engine to reap.
#[derive(Debug, Default)]
struct CancelBoard {
    gens: Vec<u32>,
    cancelled: Vec<bool>,
    dirty: Vec<u32>,
}

impl CancelBoard {
    fn grow_to(&mut self, slots: usize) {
        if self.gens.len() < slots {
            self.gens.resize(slots, 0);
            self.cancelled.resize(slots, false);
        }
    }
}

/// Handle to a scheduled event that may be cancelled before it fires.
///
/// Cancelling drops the pending action at the engine's next scheduling
/// boundary (a closure's captures are released eagerly; the heap entry
/// dies silently). Dropping the handle does *not* cancel the event; cancelling
/// after the event fired is a harmless no-op.
#[derive(Clone)]
pub struct TimerHandle {
    board: Rc<RefCell<CancelBoard>>,
    slot: u32,
    gen: u32,
    /// Remembers a cancel request even after the timer fired (the board's
    /// slot may have been reused by then), so `cancel` → `is_cancelled`
    /// always observes the request on this handle and its later clones.
    requested: Cell<bool>,
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle")
            .field("slot", &self.slot)
            .field("gen", &self.gen)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl TimerHandle {
    /// Cancel the associated event. Idempotent.
    pub fn cancel(&self) {
        self.requested.set(true);
        let mut board = self.board.borrow_mut();
        let slot = self.slot as usize;
        if board.gens[slot] == self.gen && !board.cancelled[slot] {
            board.cancelled[slot] = true;
            board.dirty.push(self.slot);
        }
    }

    /// True if [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        if self.requested.get() {
            return true;
        }
        let board = self.board.borrow();
        let slot = self.slot as usize;
        board.gens[slot] == self.gen && board.cancelled[slot]
    }
}

/// A discrete-event simulator with world state `S`.
pub struct Sim<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    /// Slot-indexed storage for pending actions; `None` is a vacant slot.
    actions: Vec<Option<Action<S>>>,
    free: Vec<u32>,
    board: Rc<RefCell<CancelBoard>>,
    /// Pending live events (scheduled, not yet fired or reaped).
    live: usize,
    processed: u64,
    /// Schedule-jitter seed (see [`Sim::set_schedule_jitter`]).
    jitter_seed: u64,
    /// Maximum additive jitter in nanoseconds; 0 disables jitter entirely
    /// (the default — ordinary runs are bit-identical to a jitterless
    /// engine).
    jitter_max_ns: u64,
    /// The simulated world. Public by design: events and the layer
    /// crates built on this engine address the world through accessor traits
    /// on `S`.
    pub state: S,
}

impl<S: std::fmt::Debug> std::fmt::Debug for Sim<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("processed", &self.processed)
            .field("state", &self.state)
            .finish()
    }
}

impl<S> Sim<S> {
    /// Create a simulator at time zero wrapping `state`.
    pub fn new(state: S) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            actions: Vec::new(),
            free: Vec::new(),
            board: Rc::new(RefCell::new(CancelBoard::default())),
            live: 0,
            processed: 0,
            jitter_seed: 0,
            jitter_max_ns: 0,
            state,
        }
    }

    /// Enable deterministic schedule jitter: every subsequently scheduled
    /// event is delayed by `hash(seed, submission_seq) % (max + 1)`
    /// nanoseconds. Jitter is *additive only* (events never move earlier,
    /// so `schedule_at`'s not-in-the-past invariant is preserved) and a
    /// pure function of `(seed, seq)`, so a jittered run replays exactly
    /// from its seed. `max = 0` turns jitter off.
    ///
    /// This is a testing hook: state-space exploration (dash-check)
    /// perturbs timer interleavings with it to surface orderings a single
    /// canonical schedule would never exercise.
    pub fn set_schedule_jitter(&mut self, seed: u64, max: SimDuration) {
        self.jitter_seed = seed;
        self.jitter_max_ns = max.as_nanos();
    }

    /// The additive jitter for the event about to take submission number
    /// `seq`, as a duration.
    fn jitter_for(&self, seq: u64) -> SimDuration {
        if self.jitter_max_ns == 0 {
            return SimDuration::ZERO;
        }
        // splitmix64 over (seed, seq): cheap, stateless, well mixed.
        let mut z = self
            .jitter_seed
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimDuration::from_nanos(z % (self.jitter_max_ns + 1))
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending (cancelled timers stop counting once
    /// the engine reaps them at the next scheduling boundary).
    pub fn events_pending(&self) -> usize {
        self.live
    }

    /// The time of the earliest *live* event, if any.
    ///
    /// This reaps cancelled timers and discards stale heap heads first,
    /// so the answer is exact. The parallel executor uses it to compute
    /// lookahead windows, where a dead head would shrink an epoch for no
    /// reason (harmless) or, worse, hold the global minimum at a time that
    /// never fires (livelock).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.reap_cancelled();
        loop {
            let e = *self.queue.peek()?;
            if self.board.borrow().gens[e.slot as usize] != e.gen {
                self.queue.pop();
                continue;
            }
            return Some(e.time);
        }
    }

    /// Claim a slot for `action`, returning `(slot, gen)`.
    fn alloc_slot(&mut self, action: Action<S>) -> (u32, u32) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.actions.len() as u32;
                self.actions.push(None);
                self.board.borrow_mut().grow_to(self.actions.len());
                s
            }
        };
        self.actions[slot as usize] = Some(action);
        self.live += 1;
        let gen = self.board.borrow().gens[slot as usize];
        (slot, gen)
    }

    /// Release `slot` after its action fired or was reaped.
    fn release_slot(&mut self, slot: u32) {
        let mut board = self.board.borrow_mut();
        board.gens[slot as usize] = board.gens[slot as usize].wrapping_add(1);
        board.cancelled[slot as usize] = false;
        drop(board);
        self.free.push(slot);
    }

    /// Drop the actions of every timer cancelled since the last drain.
    /// Their heap entries stay behind but are invalidated by the slot's
    /// generation bump; compaction sweeps them out when they pile up.
    fn reap_cancelled(&mut self) {
        loop {
            let slot = match self.board.borrow_mut().dirty.pop() {
                Some(s) => s,
                None => break,
            };
            if let Some(action) = self.actions[slot as usize].take() {
                drop(action);
                self.live -= 1;
                self.release_slot(slot);
            }
        }
        // A heap mostly full of dead entries costs every subsequent push
        // and pop; rebuild it from the survivors once they are a minority.
        if self.queue.len() > 64 && self.queue.len() > 2 * self.live {
            let board = self.board.borrow();
            let retained: Vec<Entry> = self
                .queue
                .drain()
                .filter(|e| board.gens[e.slot as usize] == e.gen)
                .collect();
            drop(board);
            self.queue = BinaryHeap::from(retained);
        }
    }

    /// Queue `action` at `at` under the next submission seq (plus that
    /// seq's jitter): the one path every local scheduling call shares.
    fn push_local(&mut self, at: SimTime, action: Action<S>) -> (u32, u32) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let at = at.saturating_add(self.jitter_for(seq));
        let (slot, gen) = self.alloc_slot(action);
        self.queue.push(Entry {
            time: at,
            seq,
            slot,
            gen,
        });
        (slot, gen)
    }

    /// Queue `action` at `at` under an explicit arrival `key`.
    fn push_arrival(&mut self, at: SimTime, key: u64, action: Action<S>) {
        assert!(
            at >= self.now,
            "cannot schedule arrival in the past: {at} < now {}",
            self.now
        );
        debug_assert!(key >= ARRIVAL_KEY_BASE, "arrival keys must set the top bit");
        let (slot, gen) = self.alloc_slot(action);
        self.queue.push(Entry {
            time: at,
            seq: key,
            slot,
            gen,
        });
    }

    fn timer_handle(&self, (slot, gen): (u32, u32)) -> TimerHandle {
        TimerHandle {
            board: Rc::clone(&self.board),
            slot,
            gen,
            requested: Cell::new(false),
        }
    }

    /// Call `f(sim, args)` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn call_at(&mut self, at: SimTime, f: CallFn<S>, args: Args) {
        self.push_local(at, Action::Call(Call::new(f, args)));
    }

    /// Call `f(sim, args)` `after` from now.
    pub fn call_in(&mut self, after: SimDuration, f: CallFn<S>, args: Args) {
        self.call_at(self.now.saturating_add(after), f, args);
    }

    /// Call `f(sim, args)` `after` from now, cancellably; returns a
    /// [`TimerHandle`].
    pub fn call_timer(&mut self, after: SimDuration, f: CallFn<S>, args: Args) -> TimerHandle {
        let at = self.now.saturating_add(after);
        let slot = self.push_local(at, Action::Call(Call::new(f, args)));
        self.timer_handle(slot)
    }

    /// [`Sim::schedule_arrival`] for a call: `f(sim, args)` at `at`,
    /// tie-broken by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn call_arrival(&mut self, at: SimTime, key: u64, f: CallFn<S>, args: Args) {
        self.push_arrival(at, key, Action::Call(Call::new(f, args)));
    }

    /// Schedule `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events cannot run in
    /// the past).
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim<S>) + 'static) {
        self.push_local(at, Action::Closure(Box::new(action)));
    }

    /// Schedule `action` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, action: impl FnOnce(&mut Sim<S>) + 'static) {
        self.schedule_at(self.now.saturating_add(after), action);
    }

    /// Schedule a cancellable event; returns a [`TimerHandle`].
    pub fn schedule_timer(
        &mut self,
        after: SimDuration,
        action: impl FnOnce(&mut Sim<S>) + 'static,
    ) -> TimerHandle {
        let at = self.now.saturating_add(after);
        let slot = self.push_local(at, Action::Closure(Box::new(action)));
        self.timer_handle(slot)
    }

    /// Schedule a cross-engine arrival at `at`, tie-broken by an explicit
    /// `key` instead of a submission sequence number.
    ///
    /// The parallel executor injects envelopes from *other* engines with
    /// this: the key (see [`arrival_key`]) has the top bit set, so at
    /// equal times locally scheduled events (whose sequence numbers stay
    /// far below `1 << 63`) always run first, and co-timed arrivals order
    /// by `(source host, per-source seq)` — a total order that depends
    /// only on what was sent, never on when or in which batch the
    /// envelope was injected. No submission seq is consumed and no
    /// schedule jitter is applied, so injection leaves the local event
    /// stream byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_arrival(
        &mut self,
        at: SimTime,
        key: u64,
        action: impl FnOnce(&mut Sim<S>) + 'static,
    ) {
        self.push_arrival(at, key, Action::Closure(Box::new(action)));
    }

    /// Run the earliest live event if its time satisfies `within`: the one
    /// loop step every `run*` variant shares. Stale heads (cancelled and
    /// reaped, slot possibly reused) at admissible times fail the
    /// generation check and die silently on the way; a head whose time
    /// fails `within` stays where it is, dead or alive.
    fn step_within(&mut self, within: impl Fn(SimTime) -> bool) -> bool {
        self.reap_cancelled();
        let (time, action) = loop {
            let Some(entry) = self.queue.peek().copied() else {
                return false;
            };
            if !within(entry.time) {
                return false;
            }
            self.queue.pop();
            if self.board.borrow().gens[entry.slot as usize] != entry.gen {
                continue;
            }
            let action = self.actions[entry.slot as usize]
                .take()
                .expect("live generation implies a pending action");
            self.live -= 1;
            self.release_slot(entry.slot);
            break (entry.time, action);
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.processed += 1;
        match action {
            Action::Call(call) => call.run(self),
            Action::Closure(f) => f(self),
        }
        true
    }

    /// Run the next live event, if any. Returns `false` when no live event
    /// remains. Cancelled timers neither run nor count.
    pub fn step(&mut self) -> bool {
        self.step_within(|_| true)
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run every event scheduled at or before `until`, then set the clock to
    /// `until` (even if no event fired exactly then).
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_within(|t| t <= until) {}
        self.now = self.now.max(until);
    }

    /// Run every live event strictly *before* `horizon`, then set the
    /// clock to `horizon`.
    ///
    /// This is the epoch step of the conservative parallel executor
    /// (`dash::par`): the bound is exclusive — an event at exactly
    /// `horizon` stays pending — so cross-engine arrivals timed
    /// `>= horizon` may still be injected afterwards (via
    /// [`Sim::schedule_arrival`]) without ever scheduling into the past.
    pub fn run_until_horizon(&mut self, horizon: SimTime) {
        while self.step_within(|t| t < horizon) {}
        self.now = self.now.max(horizon);
    }

    /// Run at most `max_events` live events; returns how many actually ran.
    pub fn run_bounded(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_in(SimDuration::from_millis(3), |s| s.state.push(3));
        sim.schedule_in(SimDuration::from_millis(1), |s| s.state.push(1));
        sim.schedule_in(SimDuration::from_millis(2), |s| s.state.push(2));
        sim.run();
        assert_eq!(sim.state, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(100), move |s| s.state.push(i));
        }
        sim.run();
        assert_eq!(sim.state, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0u64);
        sim.schedule_in(SimDuration::from_nanos(1), |sim| {
            sim.state += 1;
            sim.schedule_in(SimDuration::from_nanos(1), |sim| {
                sim.state += 10;
            });
        });
        sim.run();
        assert_eq!(sim.state, 11);
        assert_eq!(sim.now(), SimTime::from_nanos(2));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(0u64);
        sim.schedule_in(SimDuration::from_millis(1), |s| s.state += 1);
        sim.schedule_in(SimDuration::from_millis(10), |s| s.state += 100);
        sim.run_until(SimTime::from_nanos(5_000_000));
        assert_eq!(sim.state, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000));
        assert_eq!(sim.events_pending(), 1);
        sim.run();
        assert_eq!(sim.state, 101);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_in(SimDuration::from_millis(1), |sim| {
            sim.schedule_at(SimTime::ZERO, |_| {});
        });
        sim.run();
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Sim::new(0u64);
        let h = sim.schedule_timer(SimDuration::from_millis(1), |s| s.state += 1);
        let h2 = sim.schedule_timer(SimDuration::from_millis(1), |s| s.state += 10);
        h.cancel();
        assert!(h.is_cancelled());
        assert!(!h2.is_cancelled());
        sim.run();
        assert_eq!(sim.state, 10);
    }

    #[test]
    fn run_bounded_counts_events() {
        let mut sim = Sim::new(0u64);
        for _ in 0..5 {
            sim.schedule_in(SimDuration::from_nanos(1), |s| s.state += 1);
        }
        assert_eq!(sim.run_bounded(3), 3);
        assert_eq!(sim.state, 3);
        assert_eq!(sim.run_bounded(100), 2);
    }

    #[test]
    fn cancelled_timer_is_reaped_and_slot_reuse_is_safe() {
        let mut sim = Sim::new(Vec::new());
        // Schedule far-future timers, cancel them, then reuse their slots
        // with near-term events. The stale heap entries must neither fire
        // the new closures early nor fire at all.
        let handles: Vec<TimerHandle> = (0..8)
            .map(|i| {
                sim.schedule_timer(SimDuration::from_millis(100 + i), move |s| {
                    s.state.push(1000 + i)
                })
            })
            .collect();
        for h in &handles {
            h.cancel();
        }
        for i in 0..8u64 {
            sim.schedule_in(SimDuration::from_millis(i), move |s| s.state.push(i));
        }
        // Cancelled timers no longer count once the engine reaps them.
        sim.step();
        assert_eq!(sim.events_pending(), 7);
        sim.run();
        assert_eq!(sim.state, (0..8).collect::<Vec<_>>());
        assert_eq!(sim.events_processed(), 8);
    }

    #[test]
    fn cancel_after_fire_is_noop_and_observable() {
        let mut sim = Sim::new(0u64);
        let h = sim.schedule_timer(SimDuration::from_nanos(1), |s| s.state += 1);
        sim.run();
        assert_eq!(sim.state, 1);
        assert!(!h.is_cancelled());
        h.cancel(); // slot already retired: harmless
        assert!(h.is_cancelled());
        sim.schedule_in(SimDuration::from_nanos(1), |s| s.state += 10);
        sim.run();
        assert_eq!(sim.state, 11);
    }

    #[test]
    fn schedule_jitter_is_deterministic_additive_and_off_by_default() {
        let order = |jitter: Option<u64>| {
            let mut sim = Sim::new(Vec::new());
            if let Some(seed) = jitter {
                sim.set_schedule_jitter(seed, SimDuration::from_micros(50));
            }
            for i in 0..16u64 {
                sim.schedule_in(SimDuration::from_micros(10), move |s| s.state.push(i));
            }
            sim.run();
            (sim.state.clone(), sim.now())
        };
        // Same seed → identical schedule (jitter is a pure function of
        // (seed, seq)); different seed → a different interleaving.
        let (a, ta) = order(Some(7));
        let (b, tb) = order(Some(7));
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        let (c, _) = order(Some(8));
        assert_ne!(a, c, "distinct seeds should permute differently");
        // Additive only: nothing fires before its requested time.
        assert!(ta >= SimTime::from_nanos(10_000));
        // Off by default: submission order is preserved exactly.
        let (plain, t0) = order(None);
        assert_eq!(plain, (0..16).collect::<Vec<_>>());
        assert_eq!(t0, SimTime::from_nanos(10_000));
    }

    #[test]
    fn heap_compacts_when_dead_entries_dominate() {
        let mut sim = Sim::new(0u64);
        let handles: Vec<TimerHandle> = (0..500)
            .map(|_| sim.schedule_timer(SimDuration::from_secs(10), |s| s.state += 1))
            .collect();
        for h in &handles {
            h.cancel();
        }
        sim.schedule_in(SimDuration::from_nanos(1), |s| s.state += 100);
        sim.run();
        assert_eq!(sim.state, 100);
        assert_eq!(sim.events_pending(), 0);
    }

    /// The one boundary the two bounded runs differ in: an event at
    /// exactly `t` runs under `run_until(t)` and stays pending under
    /// `run_until_horizon(t)`; cancelled heads neither run nor count.
    #[test]
    fn bounded_runs_differ_only_at_the_boundary() {
        let t = SimTime::from_nanos(1_000);
        let world = || {
            let mut sim = Sim::new(Vec::new());
            sim.schedule_at(t, |s| s.state.push("at"));
            sim.schedule_at(SimTime::from_nanos(999), |s| s.state.push("before"));
            for at in [1, 999, 1_000] {
                sim.schedule_timer(SimDuration::from_nanos(at), |s| s.state.push("dead"))
                    .cancel();
            }
            sim
        };

        let mut inclusive = world();
        inclusive.run_until(t);
        assert_eq!(inclusive.state, vec!["before", "at"]);
        assert_eq!(inclusive.events_processed(), 2);
        assert_eq!(inclusive.events_pending(), 0);

        let mut exclusive = world();
        exclusive.run_until_horizon(t);
        assert_eq!(exclusive.state, vec!["before"]);
        assert_eq!(exclusive.events_processed(), 1);
        assert_eq!(
            exclusive.now(),
            t,
            "the clock still advances to the horizon"
        );
        // The event at exactly the horizon is pending, not lost.
        assert_eq!(exclusive.events_pending(), 1);
        exclusive.run_until_horizon(SimTime::from_nanos(1_001));
        assert_eq!(exclusive.state, vec!["before", "at"]);
        assert_eq!(exclusive.events_processed(), 2);
    }

    #[test]
    fn next_event_time_skips_dead_heads() {
        let mut sim = Sim::new(0u64);
        let h = sim.schedule_timer(SimDuration::from_nanos(10), |s| s.state += 1);
        sim.schedule_in(SimDuration::from_nanos(20), |s| s.state += 2);
        h.cancel();
        assert_eq!(sim.next_event_time(), Some(SimTime::from_nanos(20)));
    }

    /// A slot holds a function pointer and its ids, or a closure's box
    /// pointer — never the data an action works on.
    #[test]
    fn a_queue_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<Action<Vec<u64>>>>(), 32);
    }

    fn push_call(sim: &mut Sim<Vec<u64>>, (_, id): Args) {
        sim.state.push(id);
    }

    /// Calls and closures share one submission sequence: co-timed events
    /// run in submission order whatever their form.
    #[test]
    fn calls_and_closures_tie_break_by_submission_order() {
        let mut sim = Sim::new(Vec::new());
        let t = SimTime::from_nanos(100);
        for i in 0..8u64 {
            if i % 2 == 0 {
                sim.call_at(t, push_call, (0, i));
            } else {
                sim.schedule_at(t, move |s| s.state.push(i));
            }
        }
        sim.call_in(SimDuration::from_nanos(50), push_call, (0, 100));
        sim.run();
        assert_eq!(sim.state, vec![100, 0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(sim.events_processed(), 9);
    }

    #[test]
    fn cancelled_call_timer_neither_fires_nor_counts() {
        let mut sim = Sim::new(Vec::new());
        let dead = sim.call_timer(SimDuration::from_millis(1), push_call, (0, 1));
        let live = sim.call_timer(SimDuration::from_millis(2), push_call, (0, 2));
        dead.cancel();
        assert!(dead.is_cancelled());
        assert!(!live.is_cancelled());
        sim.step();
        assert_eq!(sim.events_pending(), 0, "the cancelled call was reaped");
        sim.run();
        assert_eq!(sim.state, vec![2]);
        assert_eq!(sim.events_processed(), 1);
    }

    /// Jitter is drawn per submission seq, not per form: a schedule
    /// mixing calls and closures is jittered exactly like the same
    /// schedule written with closures only.
    #[test]
    fn jitter_applies_to_calls_and_closures_alike() {
        let run = |calls: bool| {
            let mut sim = Sim::new(Vec::new());
            sim.set_schedule_jitter(7, SimDuration::from_micros(50));
            for i in 0..16u64 {
                if calls && i % 2 == 0 {
                    sim.call_in(SimDuration::from_micros(10), push_call, (0, i));
                } else {
                    sim.schedule_in(SimDuration::from_micros(10), move |s| s.state.push(i));
                }
            }
            sim.run();
            (sim.state.clone(), sim.now())
        };
        let (mixed, t_mixed) = run(true);
        let (closures, t_closures) = run(false);
        assert_eq!(mixed, closures);
        assert_eq!(t_mixed, t_closures);
        assert_ne!(
            mixed,
            (0..16).collect::<Vec<_>>(),
            "jitter permuted the order"
        );
    }

    #[test]
    fn call_arrivals_order_with_closure_arrivals_by_key() {
        let t = SimTime::from_nanos(500);
        let mut sim = Sim::new(Vec::new());
        sim.call_arrival(t, arrival_key(2, 0), push_call, (0, 20));
        sim.schedule_arrival(t, arrival_key(1, 0), |s| s.state.push(10));
        sim.call_at(t, push_call, (0, 0));
        sim.run();
        assert_eq!(sim.state, vec![0, 10, 20]);
    }

    /// The load-bearing property of keyed arrivals: at equal times, pop
    /// order is `(local events) < (arrivals by (src, seq))` regardless of
    /// the order or batching in which the arrivals were injected.
    #[test]
    fn keyed_arrivals_order_canonically() {
        let t = SimTime::from_nanos(500);
        let run = |inject_order: &[(u32, u64)]| {
            let mut sim = Sim::new(Vec::new());
            sim.schedule_at(t, |s| s.state.push((u32::MAX, 0)));
            for &(src, seq) in inject_order {
                sim.schedule_arrival(t, arrival_key(src, seq), move |s| {
                    s.state.push((src, seq));
                });
            }
            sim.run();
            sim.state
        };
        let a = run(&[(2, 0), (1, 1), (1, 0)]);
        let b = run(&[(1, 0), (1, 1), (2, 0)]);
        assert_eq!(a, b);
        assert_eq!(a, vec![(u32::MAX, 0), (1, 0), (1, 1), (2, 0)]);
    }

    /// Injection never consumes a submission seq or jitter draw, so the
    /// local schedule is byte-identical with or without arrivals mixed in.
    #[test]
    fn arrivals_leave_local_seq_stream_untouched() {
        let local = |with_arrival: bool| {
            let mut sim = Sim::new(Vec::new());
            sim.schedule_in(SimDuration::from_nanos(10), |s| s.state.push(1));
            if with_arrival {
                sim.schedule_arrival(SimTime::from_nanos(5), arrival_key(3, 0), |_| {});
            }
            sim.schedule_in(SimDuration::from_nanos(10), |s| s.state.push(2));
            sim.run();
            sim.state
        };
        assert_eq!(local(false), local(true));
    }
}
