//! The recording world the network layer's integration tests share: every
//! delivery, RMS event, datagram, quench and network transition is logged
//! in arrival order, and observability is on. Events name their stream by
//! the `NetRmsId` `create_rms` returned, so a test reads `(host, rms)`.
#![allow(dead_code)] // each includer uses its own subset

use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::pipeline::create_rms;
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_sim::time::SimTime;
use dash_sim::Sim;
use rms_core::error::{FailReason, RejectReason};
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;
use rms_core::RmsRequest;

pub struct World {
    pub net: NetState,
    pub deliveries: Vec<(HostId, NetRmsId, Message, DeliveryInfo)>,
    pub events: Vec<(HostId, NetRmsEvent)>,
    pub datagrams: Vec<(HostId, u16, WireMsg, SimTime)>,
    pub quenches: Vec<HostId>,
    pub network_events: Vec<(NetworkId, bool)>,
}

impl World {
    pub fn new(mut net: NetState) -> Self {
        net.obs.enable();
        World {
            net,
            deliveries: Vec::new(),
            events: Vec::new(),
            datagrams: Vec::new(),
            quenches: Vec::new(),
            network_events: Vec::new(),
        }
    }

    /// `(host, rms)` of every `Created`.
    pub fn created(&self) -> Vec<(HostId, NetRmsId)> {
        self.events
            .iter()
            .filter_map(|(h, e)| match e {
                NetRmsEvent::Created { rms, .. } => Some((*h, *rms)),
                _ => None,
            })
            .collect()
    }

    /// `(host, rms, reason)` of every `CreateFailed`.
    pub fn create_failed(&self) -> Vec<(HostId, NetRmsId, RejectReason)> {
        self.events
            .iter()
            .filter_map(|(h, e)| match e {
                NetRmsEvent::CreateFailed { rms, reason } => Some((*h, *rms, reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// `(host, rms)` of every `InboundCreated`.
    pub fn inbound(&self) -> Vec<(HostId, NetRmsId)> {
        self.events
            .iter()
            .filter_map(|(h, e)| match e {
                NetRmsEvent::InboundCreated { rms, .. } => Some((*h, *rms)),
                _ => None,
            })
            .collect()
    }

    /// `(host, rms, reason)` of every `Failed`.
    pub fn failed(&self) -> Vec<(HostId, NetRmsId, FailReason)> {
        self.events
            .iter()
            .filter_map(|(h, e)| match e {
                NetRmsEvent::Failed { rms, reason } => Some((*h, *rms, *reason)),
                _ => None,
            })
            .collect()
    }

    /// Whether `host` saw an event matching `pred`.
    pub fn saw(&self, host: HostId, pred: impl Fn(&NetRmsEvent) -> bool) -> bool {
        self.events.iter().any(|(h, e)| *h == host && pred(e))
    }
}

impl NetWorld for World {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }
    fn deliver_up(
        sim: &mut Sim<Self>,
        host: HostId,
        rms: NetRmsId,
        msg: Message,
        info: DeliveryInfo,
    ) {
        sim.state.deliveries.push((host, rms, msg, info));
    }
    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        sim.state.events.push((host, event));
    }
    fn deliver_datagram(
        sim: &mut Sim<Self>,
        host: HostId,
        _src: HostId,
        proto: u16,
        payload: WireMsg,
        sent_at: SimTime,
    ) {
        sim.state.datagrams.push((host, proto, payload, sent_at));
    }
    fn deliver_quench(sim: &mut Sim<Self>, host: HostId, _proto: u16, _dst: HostId) {
        sim.state.quenches.push(host);
    }
    fn network_event(sim: &mut Sim<Self>, network: NetworkId, up: bool) {
        sim.state.network_events.push((network, up));
    }
}

/// Create an RMS from `a` to `b`, run the handshake to completion and
/// return the stream's id.
pub fn establish(sim: &mut Sim<World>, a: HostId, b: HostId, params: RmsParams) -> NetRmsId {
    let rms = create_rms(sim, a, b, &RmsRequest::exact(params)).expect("create accepted");
    sim.run();
    assert!(
        sim.state.created().contains(&(a, rms)),
        "creation completed"
    );
    rms
}
