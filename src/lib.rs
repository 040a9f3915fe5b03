//! Facade crate for the DASH / Real-Time Message Stream (RMS) reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use dash::...`. See `README.md` for the map.

pub use dash_apps as apps;
pub use dash_baseline as baseline;
pub use dash_check as check;
pub use dash_net as net;
pub use dash_par as par;
pub use dash_rt as rt;
pub use dash_security as security;
pub use dash_sim as sim;
pub use dash_subtransport as subtransport;
pub use dash_transport as transport;
pub use rms_core as core;

/// The types nearly every program built on the stack touches: the
/// simulator, the assembled stack and its builder, messages, stream
/// profiles, ids, and the observability surface.
///
/// ```
/// use dash::prelude::*;
///
/// let (net, _a, _b) = dash::net::topology::two_hosts_ethernet();
/// let stack = StackBuilder::new(net).st_config(StConfig::default()).build();
/// let sim = Sim::new(stack);
/// assert_eq!(sim.now(), SimTime::ZERO);
/// ```
pub mod prelude {
    pub use dash_net::fault::{apply_fault, crash_host, restart_host, schedule_fault_plan};
    pub use dash_net::ids::{HostId, NetRmsId, NetworkId};
    pub use dash_par::{run_sharded, ParConfig, ShardPlan, StackLp};
    pub use dash_rt::{run_rt, MemConfig, MemDatagram, Monotonic, RtOptions, SimLinks};
    pub use dash_sim::driver::{TimeDriver, VirtualDriver};
    pub use dash_sim::engine::Sim;
    pub use dash_sim::fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, GilbertElliott};
    pub use dash_sim::obs::{
        JsonLinesSink, MetricRegistry, Obs, ObsEvent, ObsSink, SpanRecord, Stage,
    };
    pub use dash_sim::time::{SimDuration, SimTime};
    pub use dash_subtransport::ids::{Client, StRmsId};
    pub use dash_subtransport::st::StConfig;
    pub use dash_transport::stack::{AppEvent, Stack, StackBuilder};
    pub use dash_transport::stream::{StreamEvent, StreamProfile};
    pub use rms_core::message::{Label, Message};
}
