//! # dash-subtransport — the DASH ST layer
//!
//! The subtransport layer of the DASH communication architecture (paper
//! §3.2, §4.2–§4.3): the host-to-host stage every upper-level communication
//! passes through.
//!
//! - [`st`]: state, configuration, the [`st::StWorld`] trait and
//!   [`st::StEvent`] notifications.
//! - [`engine`]: the protocol — control-channel establishment with
//!   Hello/HelloAck authentication, ST-RMS creation over the control
//!   channel, §4.2 multiplexing of ST RMSs onto cached data network RMSs,
//!   §4.3.1 piggybacking, §4.3 fragmentation/reassembly, and the fast
//!   acknowledgement service.
//! - [`wire`]: the byte-level frame format.
//! - [`piggyback`], [`frag`]: the self-contained policy structures.
//!
//! ## Stacking
//!
//! A world embeds [`dash_net::state::NetState`] and [`st::StState`], and
//! its `NetWorld` implementation forwards deliveries/events to
//! [`engine::on_net_deliver`] / [`engine::on_net_event`]. See
//! `dash-transport`'s `Stack` for the canonical assembly, or the
//! integration tests in `tests/` here.

pub mod engine;
pub mod frag;
pub mod ids;
pub mod piggyback;
pub mod st;
pub mod wire;

pub use engine::{can_multiplex, close, create, on_net_deliver, on_net_event, send, st_negotiate};
pub use ids::{Client, StRmsId};
pub use st::{StConfig, StEvent, StRole, StState, StWorld};
