//! # dash-net — the simulated network substrate and network-level RMS
//!
//! The network-dependent half of the DASH communication architecture
//! (paper Figure 1), built on [`dash_sim`]:
//!
//! - [`network`]: network objects with §3.1 properties (trusted, physical
//!   broadcast, link encryption, per-combination performance limits) and a
//!   stochastic wire (loss, bit errors, optional link-level ARQ).
//! - [`iface`]: interfaces whose transmit queues are ordered by RMS
//!   transmission deadline (§4.1) with a FIFO baseline mode.
//! - [`topology`]: hosts, gateways, internetworks, route seeding.
//! - [`routing`]: the distributed QoS routing subsystem — link-state
//!   dissemination, constrained k-alternate path selection, and
//!   admission-aware re-routing with event-driven reconvergence.
//! - [`rms`] + [`pipeline`]: the network-RMS protocol — path-wide parameter
//!   negotiation (§2.4), hop-by-hop deterministic/statistical admission
//!   control (§2.3), security mechanism selection (§2.5), sequenced
//!   delivery, failure notification, and teardown. Plus raw datagrams and
//!   source quench as the baseline primitive (§1, §4.4).
//! - [`state`]: the [`state::NetWorld`] trait upper layers implement.
//!
//! ## Example: a minimal world
//!
//! Upper layers embed [`state::NetState`] in their world type; the smallest
//! possible world just collects deliveries:
//!
//! ```
//! use dash_net::prelude::*;
//! use dash_sim::{Sim, SimTime};
//! use rms_core::{Message, RmsParams, RmsRequest};
//!
//! struct World {
//!     net: NetState,
//!     got: Vec<Message>,
//! }
//! impl NetWorld for World {
//!     fn net(&mut self) -> &mut NetState { &mut self.net }
//!     fn net_ref(&self) -> &NetState { &self.net }
//!     fn deliver_up(
//!         sim: &mut Sim<Self>, _host: HostId, _rms: NetRmsId,
//!         msg: Message, _info: rms_core::DeliveryInfo,
//!     ) {
//!         sim.state.got.push(msg);
//!     }
//!     fn rms_event(_sim: &mut Sim<Self>, _host: HostId, _event: NetRmsEvent) {}
//! }
//!
//! let (net, a, b) = dash_net::topology::two_hosts_ethernet();
//! let mut sim = Sim::new(World { net, got: Vec::new() });
//! let params = RmsParams::builder(64 * 1024, 1024).build().expect("valid");
//! let rms = dash_net::pipeline::create_rms(&mut sim, a, b, &RmsRequest::exact(params))
//!     .expect("creatable");
//! sim.run(); // handshake completes; `rms` is ready to send on
//! assert!(sim.state.net.host(a).rms.contains_key(&rms));
//! ```

// `tests/common/mod.rs` is also included by `routing::spf`'s unit tests;
// it names this crate the way an integration test does.
#[cfg(test)]
extern crate self as dash_net;

pub mod fault;
pub mod ids;
pub mod iface;
pub mod network;
pub mod packet;
pub mod pipeline;
pub mod rms;
pub mod routing;
pub mod shard;
pub mod state;
pub mod topology;

/// Convenient re-exports for worlds built on this crate.
pub mod prelude {
    pub use crate::fault::{apply_fault, crash_host, restart_host, schedule_fault_plan};
    pub use crate::ids::{HostId, NetRmsId, NetworkId};
    pub use crate::network::NetworkSpec;
    pub use crate::pipeline::{
        close_rms, create_rms, create_rms_as_receiver, fail_network, restore_network,
        send_datagram, send_on_rms,
    };
    pub use crate::routing::{flood_from, AltPath, CandidatePath, LinkStateAd, Lsdb};
    pub use crate::state::{NetConfig, NetRmsEvent, NetState, NetWorld};
    pub use crate::topology::TopologyBuilder;
}

pub use ids::{HostId, NetRmsId, NetworkId};
pub use network::NetworkSpec;
pub use state::{emit, NetConfig, NetRmsEvent, NetState, NetWorld};
pub use topology::TopologyBuilder;
