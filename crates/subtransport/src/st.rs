//! Subtransport-layer state and the [`StWorld`] trait (paper §3.2).
//!
//! "The subtransport layer (ST) provides a variety of host-to-host
//! functions. All upper-level network communication in DASH passes through
//! the ST. ... The basic functions of the ST are to provide security, to do
//! deadline-based message queueing, to multiplex ST RMS's onto network
//! RMS's, and to arrange for 'fast acknowledgement' of messages sent on ST
//! RMS's."

use rms_core::hash::DetHashMap;

use bytes::Bytes;
use dash_net::ids::{HostId, NetRmsId};
use dash_security::cipher::Key;
use dash_security::cost::CostModel;
use dash_sim::engine::{Sim, TimerHandle};
use dash_sim::slab::Slab;
use dash_sim::time::{SimDuration, SimTime};
use rms_core::delay::DelayBound;
use rms_core::error::{FailReason, RejectReason};
use rms_core::message::Message;
use rms_core::params::{Reliability, RmsParams, SharedParams};
use rms_core::port::DeliveryInfo;

use crate::engine::SendJob;
use crate::frag::Reassembly;
use crate::ids::{Client, StRmsId};
use crate::piggyback::PiggybackQueue;
use crate::wire::{ControlMsg, DataFrame};

/// Default capacity requested for new data network RMSs (headroom for
/// multiplexing more ST RMSs later, §4.2).
pub const DATA_CAPACITY_DEFAULT: u64 = 64 * 1024;
/// Maximum message size offered to ST clients; larger than the network
/// layer's, supported by fragmentation (§4.3).
pub const ST_MAX_MESSAGE_SIZE: u64 = 64 * 1024;
/// How long to wait for control-channel authentication before failing
/// the creates waiting for it.
pub const AUTH_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Parameters requested for each direction of a peer control channel
/// (§3.2: "two low capacity, low delay network RMS's, one per direction").
pub fn control_params() -> RmsParams {
    RmsParams {
        reliability: Reliability::Reliable,
        security: rms_core::params::SecurityParams::NONE,
        capacity: 4096,
        max_message_size: 512,
        // Generous floors: the control channel must be creatable on any
        // network the stack runs over (its urgency comes from per-message
        // transmission deadlines, not from this bound).
        delay: DelayBound::best_effort_with(
            SimDuration::from_secs(2),
            SimDuration::from_micros(100),
        ),
        error_rate: rms_core::params::BitErrorRate::new(1e-3).expect("valid"),
    }
}

/// Subtransport configuration. Control traffic always waits for the
/// Hello/HelloAck authentication handshake (§3.2).
#[derive(Debug, Clone)]
pub struct StConfig {
    /// Enable piggyback queueing (§4.3.1). Off = immediate sends.
    pub piggyback: bool,
    /// Delay budget the ST keeps for piggyback queueing: the difference
    /// between ST and network delay bounds (§4.2).
    pub piggyback_slack: SimDuration,
    /// CPU cost of ST processing per message, per side.
    pub st_cpu: CostModel,
    /// Maximum *idle* cached data network RMSs per peer before LRU eviction
    /// (§4.2 caching).
    pub cache_idle_limit: usize,
}

impl Default for StConfig {
    fn default() -> Self {
        StConfig {
            piggyback: true,
            piggyback_slack: SimDuration::from_millis(2),
            st_cpu: CostModel::new(SimDuration::from_micros(10), SimDuration::from_nanos(2)),
            cache_idle_limit: 4,
        }
    }
}

impl StConfig {
    /// Total delay the ST stage adds on top of the network stage, as
    /// `(fixed, per byte)`: piggyback queueing slack plus send+receive ST
    /// processing (§4.1: the upper-level delay is divided among the
    /// stages). A network RMS is asked for the ST bound less this.
    pub fn stage_slack(&self) -> (SimDuration, SimDuration) {
        let fixed = (self.piggyback_slack).saturating_add(self.st_cpu.fixed.saturating_mul(2));
        (fixed, self.st_cpu.per_byte.saturating_mul(2))
    }
}

/// An outbound network RMS this host created toward a peer: its half of
/// the peer's control channel, or a data carrier onto which ST RMSs are
/// multiplexed (§4.2). Recorded in [`StHost::carriers`] under the id
/// [`dash_net::pipeline::create_rms`] returned, before the network reports
/// the create's outcome.
#[derive(Debug)]
pub struct Carrier {
    /// The receiving host.
    pub peer: HostId,
    /// Set once the network RMS is created; nothing is sent on it before.
    pub ready: bool,
    /// Multiplexing state of a data carrier; `None` for the control
    /// channel's outbound half.
    pub data: Option<DataOut>,
}

/// A data carrier's multiplexing state: its assigned ST RMSs and its
/// piggyback queue.
#[derive(Debug)]
pub struct DataOut {
    /// Network-level parameters (requested while creating; actual once
    /// ready).
    pub params: SharedParams,
    /// ST RMSs multiplexed onto this network RMS (§4.2).
    pub assigned: Vec<StRmsId>,
    /// Sum of assigned ST RMS capacities (must stay ≤ `params.capacity`).
    pub assigned_capacity: u64,
    /// The piggyback queue (§4.3.1).
    pub queue: PiggybackQueue,
    /// Armed flush timer, with its deadline.
    pub flush_timer: Option<(TimerHandle, SimTime)>,
    /// Last time a message was sent (cache LRU).
    pub last_used: SimTime,
}

/// Authentication/connection state for one peer.
#[derive(Debug, Default)]
pub struct PeerState {
    /// Our outgoing control-channel network RMS, from its create on; its
    /// [`Carrier`] says when it is ready.
    pub control_out: Option<NetRmsId>,
    /// Nonce of our outstanding Hello.
    pub my_nonce: u64,
    /// True once the peer answered our Hello correctly.
    pub authed: bool,
    /// Control messages waiting for the channel, in order: HelloAcks go
    /// once it is ready, the rest once it is authenticated.
    pub queued: Vec<ControlMsg>,
    /// Timer failing the creates to this peer if authentication stalls.
    pub auth_timer: Option<TimerHandle>,
}

/// One ST RMS endpoint.
#[derive(Debug)]
pub struct StStream {
    /// Stream id, chosen by the sending ST in [`crate::engine::create`] and
    /// kept by both ends from request to close.
    pub id: StRmsId,
    /// The other host.
    pub peer: HostId,
    /// Our role.
    pub role: StRole,
    /// The client this end of the lane is bound to.
    pub client: Client,
    /// ST-level parameters.
    pub params: SharedParams,
    /// Whether data frames request fast acknowledgements (§3.2).
    pub fast_ack: bool,
    /// Sender: the data carrier this stream is multiplexed onto.
    pub carrier: Option<NetRmsId>,
    /// Sender: the creation is not yet reported to the client; it is once
    /// the carrier is ready ([`StEvent::Created`]). Without a carrier, the
    /// stream still awaits the receiver's answer.
    pub creating: bool,
    /// Sender: next message sequence number.
    pub next_seq: u64,
    /// Sender: ordering floor — the previous message's actual transmission
    /// deadline (§4.3.1).
    pub last_tx_deadline: SimTime,
    /// Monotone floor for send-side CPU-job deadlines (§4.1).
    pub last_send_job_deadline: SimTime,
    /// Monotone floor for receive-side CPU-job deadlines.
    pub last_recv_job_deadline: SimTime,
    /// Receiver: reassembly state (§4.3).
    pub reassembly: Reassembly,
    /// Sender: instant the stream lost its carrier to a network failure and
    /// began failing over; cleared (with a recovery-latency observation)
    /// when a replacement carrier is ready.
    pub failover_since: Option<SimTime>,
}

impl StStream {
    /// Allocate the next message sequence number (sender side).
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Sender: the create request is sent or queued, and the receiver has
    /// not answered it yet.
    pub fn awaiting_answer(&self) -> bool {
        self.creating && self.carrier.is_none()
    }
}

/// Per-host ST state.
#[derive(Debug, Default)]
pub struct StHost {
    /// Peer connection state.
    pub peers: DetHashMap<HostId, PeerState>,
    /// Streams, both roles, from the create request on.
    pub streams: DetHashMap<StRmsId, StStream>,
    /// Every outbound network RMS this host created, creating or ready.
    pub carriers: DetHashMap<NetRmsId, Carrier>,
}

/// The subtransport layer's world state.
#[derive(Debug)]
pub struct StState {
    /// Configuration.
    pub config: StConfig,
    /// Per-host state, indexed by [`HostId`].
    pub hosts: Vec<StHost>,
    /// Out-of-band pair keys for control-channel authentication (a stand-in
    /// for the key-distribution protocol of Anderson et al. 1987, ref \[2\]),
    /// set explicitly. They override the derived keys of
    /// [`StState::provision_all_keys`].
    pub auth_keys: DetHashMap<(u32, u32), Key>,
    /// Hosts below this id share derived pair keys
    /// ([`StState::provision_all_keys`]).
    keyed_hosts: u32,
    /// Messages waiting for their send-side CPU job.
    pub(crate) send_jobs: Slab<SendJob>,
    /// Frames (with their sending peer) waiting for their receive-side CPU
    /// job.
    pub(crate) recv_jobs: Slab<(HostId, DataFrame)>,
    /// The frames of the bundle being received, kept so that decoding a
    /// bundle allocates nothing (taken while in use, so a delivery that
    /// re-enters the receive path decodes into a list of its own).
    pub(crate) bundle_frames: Vec<DataFrame>,
    next_st_rms: u64,
    nonce_seed: u64,
}

impl StState {
    /// ST state for `n_hosts` hosts.
    pub fn new(config: StConfig, n_hosts: usize) -> Self {
        StState {
            config,
            hosts: (0..n_hosts).map(|_| StHost::default()).collect(),
            auth_keys: Default::default(),
            keyed_hosts: 0,
            send_jobs: Slab::new(),
            recv_jobs: Slab::new(),
            bundle_frames: Vec::new(),
            next_st_rms: 1,
            nonce_seed: 0x5eed,
        }
    }

    /// Provision a key for every pair among hosts `0..n_hosts` (test/bench
    /// setup). Nothing is tabulated: each pair's key is derived from the
    /// pair on lookup.
    pub fn provision_all_keys(&mut self, n_hosts: u32) {
        self.keyed_hosts = n_hosts;
    }

    fn pair(a: HostId, b: HostId) -> (u32, u32) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// The shared key for a host pair, if provisioned: an explicit
    /// [`StState::auth_keys`] entry, else the derived key of two distinct
    /// hosts covered by [`StState::provision_all_keys`].
    pub fn pair_key(&self, a: HostId, b: HostId) -> Option<Key> {
        let (a, b) = Self::pair(a, b);
        if let Some(key) = self.auth_keys.get(&(a, b)) {
            return Some(*key);
        }
        (a != b && b < self.keyed_hosts)
            .then(|| Key(0x1000_0000u64 | (u64::from(a) << 20) | u64::from(b)))
    }

    /// Access a host's ST state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn host(&self, id: HostId) -> &StHost {
        &self.hosts[id.0 as usize]
    }

    /// Mutable access to a host's ST state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn host_mut(&mut self, id: HostId) -> &mut StHost {
        &mut self.hosts[id.0 as usize]
    }

    /// Rebase ST RMS-id allocation to start at `base`.
    ///
    /// The parallel executor gives each logical process the disjoint
    /// namespace `(owner + 1) << 40`, so ids minted independently on
    /// different shards never collide when their streams interact.
    pub fn set_id_namespace(&mut self, base: u64) {
        self.next_st_rms = base;
    }

    /// Allocate a globally unique ST RMS id.
    pub fn alloc_st_rms(&mut self) -> StRmsId {
        let id = StRmsId(self.next_st_rms);
        self.next_st_rms += 1;
        id
    }

    /// A fresh Hello nonce.
    pub fn alloc_nonce(&mut self) -> u64 {
        self.nonce_seed = self
            .nonce_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.nonce_seed
    }
}

/// Which end of an ST RMS this host holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StRole {
    /// This host sends.
    Sender,
    /// This host receives.
    Receiver,
}

/// ST lifecycle events, each reported to the client of its lane.
#[derive(Debug)]
pub enum StEvent {
    /// A creation initiated here completed; the stream is ready to send on.
    Created {
        /// The new stream.
        st_rms: StRmsId,
        /// Its ST-level parameters.
        params: SharedParams,
    },
    /// A creation initiated here failed.
    CreateFailed {
        /// Why.
        reason: RejectReason,
    },
    /// A stream failed; it is gone from the host's table by the time its
    /// client hears.
    Failed {
        /// The stream.
        st_rms: StRmsId,
        /// Why.
        reason: FailReason,
    },
    /// The peer closed a stream we were receiving on (or the provider
    /// confirmed our own close).
    Closed {
        /// The stream.
        st_rms: StRmsId,
    },
    /// A fast acknowledgement arrived for a message we sent (§3.2).
    FastAck {
        /// The stream.
        st_rms: StRmsId,
        /// The acknowledged message sequence number.
        seq: u64,
    },
}

/// The world contract for layers above the ST. Every lane is bound to one
/// [`Client`] for its life; deliveries and events carry it.
pub trait StWorld: dash_net::state::NetWorld {
    /// The embedded ST state.
    fn st(&mut self) -> &mut StState;
    /// Shared access to the embedded ST state.
    fn st_ref(&self) -> &StState;
    /// A receiving stream from `peer` appeared at `host`, opened with the
    /// creator's `header` (as passed to [`crate::engine::create`]): name
    /// the client it is bound to. Called once per lane, before the creator
    /// learns of the stream, so before any data can arrive on it.
    fn st_inbound(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        peer: HostId,
        header: &Bytes,
    ) -> Client;
    /// A message arrived on a receiving ST RMS bound to `client`.
    fn st_deliver(
        sim: &mut Sim<Self>,
        host: HostId,
        client: Client,
        st_rms: StRmsId,
        msg: Message,
        info: DeliveryInfo,
    );
    /// An ST lifecycle event occurred on a lane bound to `client`.
    fn st_event(sim: &mut Sim<Self>, host: HostId, client: Client, event: StEvent);
}
