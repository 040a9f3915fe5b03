//! Packet carriage for the real-time backend.
//!
//! In virtual-time execution the wire *is* the event queue: a finished
//! traversal is an event scheduled `delay` in the future. Off the virtual
//! clock somebody real has to hold the packet for that long — a
//! [`Substrate`]. The scheduler hands every diverted
//! [`WireEnvelope`] to the substrate with its mapped wall deadline and
//! collects deliveries back as they become due.
//!
//! Two implementations:
//!
//! * [`SimLinks`] — the null substrate for worlds that never divert:
//!   link delays stay modelled inside the event queue (the simulated
//!   links the DES has always used). Carries nothing; waiting on it just
//!   sleeps.
//! * [`MemDatagram`] — a threaded in-memory datagram network: bounded
//!   channels into and out of a carrier thread that holds each envelope
//!   until its wall deadline. Queueing delay is *real* (a backlogged
//!   channel genuinely delays delivery, and an overflowing one drops like
//!   a full NIC ring), and loss is configurable and deterministic per
//!   envelope, so a lossy run can still be reasoned about.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dash_net::shard::WireEnvelope;

/// Result of waiting on a substrate.
// Boxing the envelope would trade one move of a transient value (always
// destructured at the receive site) for a heap allocation per delivered
// packet on the hot path — the wrong trade under the repo's alloc gates.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Carried {
    /// An envelope finished carriage and is ready to inject.
    Delivered(WireEnvelope),
    /// Nothing became due within the wait.
    TimedOut,
}

/// The carriage seam: where diverted wire envelopes go and come back.
pub trait Substrate {
    /// Accept a departing envelope. `wall_due` is the mapped wall instant
    /// of the envelope's modelled arrival time (`None` when the driver
    /// does not pace on wall time: deliver as soon as possible).
    ///
    /// `lossable` is the sender's reliability contract for this packet:
    /// only best-effort traffic may be dropped by a configured loss
    /// model. A *reliable* network RMS is a promise the network layer
    /// made to the layers above — in the DES the wire simply never
    /// loses, and a real substrate would run a retransmitting link
    /// protocol under such an RMS. A substrate that dropped those
    /// packets would not be lossy, it would be breaking a different
    /// layer's invariant (the receiver's in-order reorder buffer wedges
    /// forever behind the hole). Overflow drops still apply to
    /// everything: memory pressure does not honor contracts.
    fn transmit(&mut self, env: WireEnvelope, wall_due: Option<Instant>, lossable: bool);

    /// Wait up to `timeout` for the next due envelope.
    fn recv(&mut self, timeout: Duration) -> Carried;

    /// Envelopes accepted but not yet delivered or dropped. Zero means
    /// the substrate is drained (the scheduler's quiescence condition).
    fn in_flight(&self) -> u64;

    /// Envelopes lost in carriage so far (configured loss + overflow).
    fn dropped(&self) -> u64;
}

/// The null substrate: the world keeps all link delays inside its own
/// event queue, so there is never anything to carry.
#[derive(Debug, Default)]
pub struct SimLinks;

impl Substrate for SimLinks {
    fn transmit(&mut self, _env: WireEnvelope, _wall_due: Option<Instant>, _lossable: bool) {
        unreachable!("SimLinks carries nothing: do not enable wire divert with it");
    }

    fn recv(&mut self, timeout: Duration) -> Carried {
        if !timeout.is_zero() {
            std::thread::sleep(timeout);
        }
        Carried::TimedOut
    }

    fn in_flight(&self) -> u64 {
        0
    }

    fn dropped(&self) -> u64 {
        0
    }
}

/// Configuration of the in-memory datagram substrate.
#[derive(Debug, Clone, Default)]
pub struct MemConfig {
    /// Per-envelope loss probability in permille (0..=1000), decided by a
    /// pure hash of `(seed, src, seq)` so a lossy run's drop set is
    /// reproducible.
    pub loss_per_mille: u32,
    /// Seed for the loss hash.
    pub seed: u64,
}

/// Bounded channel depth, each direction. A full outbound channel drops
/// the datagram (counted), like a full device ring; a full inbound channel
/// backpressures the carrier, adding real queueing delay.
const CHANNEL_DEPTH: usize = 4096;

/// Shared carriage counters (`Relaxed` throughout: they are statistics
/// and quiescence hints, never synchronization).
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    delivered: AtomicU64,
    lost: AtomicU64,
    overflow: AtomicU64,
}

/// One envelope in the carrier's hold, ordered by `(due, admission seq)`.
struct Held {
    due: Instant,
    seq: u64,
    env: WireEnvelope,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    // BinaryHeap is a max-heap; reverse so the earliest due pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Envelope as handed to the carrier thread.
struct Carry {
    wall_due: Option<Instant>,
    lossable: bool,
    env: WireEnvelope,
}

/// The threaded in-memory datagram substrate (see module docs).
pub struct MemDatagram {
    to_carrier: Option<SyncSender<Carry>>,
    from_carrier: Option<Receiver<WireEnvelope>>,
    carrier: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl std::fmt::Debug for MemDatagram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDatagram")
            .field("in_flight", &self.in_flight())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// How long the carrier sleeps at most before re-checking its inbox and
/// shutdown state; bounds both loss-accounting latency and drop time.
const CARRIER_SLICE: Duration = Duration::from_millis(25);

/// splitmix64 over `(seed, src, seq)`: the per-envelope loss coin.
fn loss_hash(seed: u64, src: u32, seq: u64) -> u64 {
    let mut z = seed
        .wrapping_add(((src as u64) << 40 ^ seq).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MemDatagram {
    /// Spawn the carrier thread and return the substrate handle.
    pub fn new(cfg: MemConfig) -> Self {
        let (to_carrier, carrier_rx) = mpsc::sync_channel::<Carry>(CHANNEL_DEPTH);
        let (carrier_tx, from_carrier) = mpsc::sync_channel::<WireEnvelope>(CHANNEL_DEPTH);
        let counters = Arc::new(Counters::default());
        let c = Arc::clone(&counters);
        let carrier = std::thread::Builder::new()
            .name("dash-rt-carrier".into())
            .spawn(move || carrier_loop(cfg, carrier_rx, carrier_tx, c))
            .expect("spawn substrate carrier thread");
        MemDatagram {
            to_carrier: Some(to_carrier),
            from_carrier: Some(from_carrier),
            carrier: Some(carrier),
            counters,
        }
    }

    /// Envelopes accepted for carriage so far.
    pub fn accepted(&self) -> u64 {
        self.counters.accepted.load(AtomicOrdering::Relaxed)
    }
}

impl Substrate for MemDatagram {
    fn transmit(&mut self, env: WireEnvelope, wall_due: Option<Instant>, lossable: bool) {
        let tx = self.to_carrier.as_ref().expect("substrate not shut down");
        match tx.try_send(Carry {
            wall_due,
            lossable,
            env,
        }) {
            Ok(()) => {
                self.counters.accepted.fetch_add(1, AtomicOrdering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // A full bounded channel is a full device ring: the
                // datagram dies here, loudly counted. The protocol layers
                // already treat the wire as lossy.
                self.counters.overflow.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }

    fn recv(&mut self, timeout: Duration) -> Carried {
        let rx = self.from_carrier.as_ref().expect("substrate not shut down");
        let got = if timeout.is_zero() {
            rx.try_recv().ok()
        } else {
            match rx.recv_timeout(timeout) {
                Ok(env) => Some(env),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
            }
        };
        match got {
            Some(env) => {
                self.counters
                    .delivered
                    .fetch_add(1, AtomicOrdering::Relaxed);
                Carried::Delivered(env)
            }
            None => Carried::TimedOut,
        }
    }

    fn in_flight(&self) -> u64 {
        let c = &self.counters;
        c.accepted
            .load(AtomicOrdering::Relaxed)
            .saturating_sub(c.delivered.load(AtomicOrdering::Relaxed))
            .saturating_sub(c.lost.load(AtomicOrdering::Relaxed))
    }

    fn dropped(&self) -> u64 {
        let c = &self.counters;
        c.lost.load(AtomicOrdering::Relaxed) + c.overflow.load(AtomicOrdering::Relaxed)
    }
}

impl Drop for MemDatagram {
    fn drop(&mut self) {
        // Disconnect both channels, then join: the carrier notices within
        // one slice and exits (discarding whatever it still holds).
        self.to_carrier.take();
        self.from_carrier.take();
        if let Some(h) = self.carrier.take() {
            let _ = h.join();
        }
    }
}

fn carrier_loop(
    cfg: MemConfig,
    rx: Receiver<Carry>,
    tx: SyncSender<WireEnvelope>,
    counters: Arc<Counters>,
) {
    let mut held: BinaryHeap<Held> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut disconnected = false;
    loop {
        // Deliver everything due. A blocking send backpressures this
        // thread when the scheduler lags — that waiting *is* the real
        // queueing delay the receiver observes.
        let now = Instant::now();
        while held.peek().is_some_and(|h| h.due <= now) {
            let h = held.pop().expect("peeked");
            if tx.send(h.env).is_err() {
                return; // scheduler gone: nothing left to deliver to
            }
        }
        if disconnected && held.is_empty() {
            return;
        }
        // Sleep until the earliest due, sliced so disconnection and
        // late-arriving earlier deadlines are noticed promptly.
        let wait = held
            .peek()
            .map(|h| h.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::MAX)
            .min(CARRIER_SLICE);
        match rx.recv_timeout(wait) {
            Ok(carry) => {
                let env = carry.env;
                if carry.lossable
                    && cfg.loss_per_mille > 0
                    && loss_hash(cfg.seed, env.src.0, env.seq) % 1000 < cfg.loss_per_mille as u64
                {
                    counters.lost.fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                let due = carry.wall_due.unwrap_or_else(Instant::now);
                held.push(Held { due, seq, env });
                seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_hash_is_deterministic_and_spread() {
        let a = loss_hash(7, 3, 100);
        assert_eq!(a, loss_hash(7, 3, 100));
        assert_ne!(a, loss_hash(7, 3, 101));
        assert_ne!(a, loss_hash(8, 3, 100));
        // Roughly uniform: a 10% coin over 10k draws lands near 1k.
        let hits = (0..10_000u64)
            .filter(|&s| loss_hash(1, 2, s) % 1000 < 100)
            .count();
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn sim_links_waits_but_never_delivers() {
        let mut s = SimLinks;
        let t0 = Instant::now();
        assert!(matches!(s.recv(Duration::ZERO), Carried::TimedOut));
        assert!(matches!(
            s.recv(Duration::from_millis(5)),
            Carried::TimedOut
        ));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(s.in_flight(), 0);
    }
}
