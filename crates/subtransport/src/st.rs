//! Subtransport-layer state and the [`StWorld`] trait (paper §3.2).
//!
//! "The subtransport layer (ST) provides a variety of host-to-host
//! functions. All upper-level network communication in DASH passes through
//! the ST. ... The basic functions of the ST are to provide security, to do
//! deadline-based message queueing, to multiplex ST RMS's onto network
//! RMS's, and to arrange for 'fast acknowledgement' of messages sent on ST
//! RMS's."

use rms_core::hash::DetHashMap;

use dash_net::ids::{CreateToken, HostId, NetRmsId};
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
use crate::ids::{StRmsId, StToken};
use crate::piggyback::PiggybackQueue;
use crate::wire::{ControlMsg, DataFrame};

/// Default capacity requested for new data network RMSs (headroom for
/// multiplexing more ST RMSs later, §4.2).
pub const DATA_CAPACITY_DEFAULT: u64 = 64 * 1024;
/// Maximum message size offered to ST clients; larger than the network
/// layer's, supported by fragmentation (§4.3).
pub const ST_MAX_MESSAGE_SIZE: u64 = 64 * 1024;
/// How long to wait for control-channel authentication before failing
/// queued creates.
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

/// What a network RMS create (initiated by the ST) was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetPurpose {
    /// Our half of the control channel to `peer`.
    ControlOut(HostId),
    /// A data stream toward `peer`; the value is the local data-RMS slot.
    DataOut(HostId, u32),
}

/// What a known network RMS is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetUse {
    /// Our outgoing control half toward the peer.
    ControlOut(HostId),
    /// The peer's control half toward us.
    ControlIn(HostId),
    /// An outgoing data stream (value = local slot).
    DataOut(HostId, u32),
    /// An incoming data stream from the peer.
    DataIn(HostId),
}

/// An outgoing data network RMS slot: creating or ready, with its assigned
/// ST RMSs and piggyback queue.
#[derive(Debug)]
pub struct DataOut {
    /// The network RMS once created.
    pub net_rms: Option<NetRmsId>,
    /// The network create token while creating.
    pub token: Option<CreateToken>,
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
    /// Our outgoing control-channel network RMS.
    pub control_out: Option<NetRmsId>,
    /// True while the control-out create is in flight.
    pub control_creating: bool,
    /// The peer's incoming control-channel network RMS.
    pub control_in: Option<NetRmsId>,
    /// Nonce of our outstanding Hello.
    pub my_nonce: u64,
    /// True once the peer answered our Hello correctly.
    pub authed: bool,
    /// Control messages awaiting authentication.
    pub queued_ctrl: Vec<ControlMsg>,
    /// Hello/HelloAck frames awaiting the control-out RMS (pre-auth).
    pub pre_auth: Vec<ControlMsg>,
    /// Timer failing queued creates if authentication stalls.
    pub auth_timer: Option<TimerHandle>,
    /// Data slots (keyed by slot id).
    pub data: DetHashMap<u32, DataOut>,
    /// Next data slot id.
    pub next_slot: u32,
}

/// One ST RMS endpoint.
#[derive(Debug)]
pub struct StStream {
    /// Stream id (assigned by the receiving ST).
    pub id: StRmsId,
    /// The other host.
    pub peer: HostId,
    /// Our role.
    pub role: StRole,
    /// ST-level parameters.
    pub params: SharedParams,
    /// Whether data frames request fast acknowledgements (§3.2).
    pub fast_ack: bool,
    /// Sender: the data slot this stream is multiplexed onto.
    pub slot: Option<u32>,
    /// Sender: creation token to report once the slot is ready.
    pub pending_token: Option<StToken>,
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
    /// Receiver: the inbound network RMS (learned from the first frame).
    pub in_net: Option<NetRmsId>,
    /// Set when the stream failed.
    pub failed: bool,
    /// Sender: instant the stream lost its carrier to a network failure and
    /// began failing over; cleared (with a recovery-latency observation)
    /// when a replacement slot is ready.
    pub failover_since: Option<SimTime>,
}

impl StStream {
    /// Allocate the next message sequence number (sender side).
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// An ST RMS creation in flight at its creator.
#[derive(Debug)]
pub struct StPending {
    /// Data receiver.
    pub peer: HostId,
    /// Negotiated ST-level parameters.
    pub params: SharedParams,
    /// Fast-ack option.
    pub fast_ack: bool,
}

/// Per-host ST state.
#[derive(Debug, Default)]
pub struct StHost {
    /// Peer connection state.
    pub peers: DetHashMap<HostId, PeerState>,
    /// Live streams, both roles.
    pub streams: DetHashMap<StRmsId, StStream>,
    /// Purpose of in-flight network creates.
    pub net_pending: DetHashMap<CreateToken, NetPurpose>,
    /// Known network RMS usages.
    pub by_net: DetHashMap<NetRmsId, NetUse>,
    /// ST creations in flight.
    pub pending: DetHashMap<StToken, StPending>,
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
    next_st_rms: u64,
    next_token: u64,
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
            next_st_rms: 1,
            next_token: 1,
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

    /// Rebase ST RMS-id and token allocation to start at `base`.
    ///
    /// The parallel executor gives each logical process the disjoint
    /// namespace `(owner + 1) << 40`, so ids minted independently on
    /// different shards never collide when their streams interact.
    pub fn set_id_namespace(&mut self, base: u64) {
        self.next_st_rms = base;
        self.next_token = base;
    }

    /// Allocate a globally unique ST RMS id.
    pub fn alloc_st_rms(&mut self) -> StRmsId {
        let id = StRmsId(self.next_st_rms);
        self.next_st_rms += 1;
        id
    }

    /// Allocate an ST creation token.
    pub fn alloc_token(&mut self) -> StToken {
        let t = StToken(self.next_token);
        self.next_token += 1;
        t
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

/// ST lifecycle events reported to clients.
#[derive(Debug)]
pub enum StEvent {
    /// A creation initiated here completed; the stream is ready to send on.
    Created {
        /// The creator's token.
        token: StToken,
        /// The new stream.
        st_rms: StRmsId,
        /// Its ST-level parameters.
        params: SharedParams,
    },
    /// A creation initiated here failed.
    CreateFailed {
        /// The creator's token.
        token: StToken,
        /// Why.
        reason: RejectReason,
    },
    /// A receiving stream appeared at this host.
    InboundCreated {
        /// The new stream.
        st_rms: StRmsId,
        /// The sending peer.
        peer: HostId,
        /// ST-level parameters.
        params: SharedParams,
        /// Whether its frames will request fast acks.
        fast_ack: bool,
    },
    /// A stream failed.
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

/// The world contract for layers above the ST.
pub trait StWorld: dash_net::state::NetWorld {
    /// The embedded ST state.
    fn st(&mut self) -> &mut StState;
    /// Shared access to the embedded ST state.
    fn st_ref(&self) -> &StState;
    /// A message arrived on a receiving ST RMS.
    fn st_deliver(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        msg: Message,
        info: DeliveryInfo,
    );
    /// An ST lifecycle event occurred.
    fn st_event(sim: &mut Sim<Self>, host: HostId, event: StEvent);
}
