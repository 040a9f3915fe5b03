//! The assembled DASH communication stack (paper Figure 2).
//!
//! [`Stack`] is the concrete world type that wires together the network
//! layer, the subtransport layer, and the transport protocols (RKOM and
//! streams), optionally with a real per-host CPU using deadline-based
//! short-term scheduling (§4.1). Examples, integration tests, applications
//! and benchmarks all run on this type.
//!
//! Routing: every ST RMS is bound to one [`Client`] at each end — by its
//! creator at [`st_engine::create`], and at the receiving end once, when it
//! is created, from the creator's opening header (`0xD5` RKOM, `0xD6`
//! streams; anything else is the application's). The ST hands the client
//! back with every delivery and event, and the stack routes on
//! `client.proto` alone. Lanes bound to the application, and their events,
//! are handed to the application tap.

use bytes::Bytes;
use dash_baseline::tcp::{self, TcpEvent, TcpState, TcpWorld, TCP_PROTO};
use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::state::{fifo_charge_cpu, NetRmsEvent, NetState, NetWorld};
use dash_sim::cpu::{self, Cpu, CpuHost, SchedPolicy};
use dash_sim::engine::{Call, Sim};
use dash_sim::time::{SimDuration, SimTime};
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::{Client, StRmsId};
use dash_subtransport::st::{StConfig, StEvent, StState, StWorld};
use rms_core::message::Message;
use rms_core::port::DeliveryInfo;
use rms_core::wire::WireMsg;

use dash_sim::obs::ObsSink;

use crate::rkom::{self, RkomState};
use crate::stream::{self, StreamEvent, StreamState};

/// Reserved first byte of RKOM opening headers and messages.
pub const MAGIC_RKOM: u8 = 0xD5;
/// Reserved first byte of stream-protocol opening headers and messages.
pub const MAGIC_STREAM: u8 = 0xD6;
/// The protocol of lanes bound to the application: every inbound lane whose
/// opening header no transport protocol decodes. (An application creating a
/// lane may name any protocol but the two above.)
pub const PROTO_APP: u8 = 0;

/// Application-facing notifications from the stack.
#[derive(Debug)]
pub enum AppEvent {
    /// An ST message arrived on a stream bound to the application.
    StDeliver {
        /// Receiving host.
        host: HostId,
        /// The stream.
        st_rms: StRmsId,
        /// The message.
        msg: Message,
        /// Delivery metadata.
        info: DeliveryInfo,
    },
    /// An ST lifecycle event on a lane bound to the application.
    StEvent {
        /// The host observing the event.
        host: HostId,
        /// The client the lane is bound to.
        client: Client,
        /// The event.
        event: StEvent,
    },
}

/// Application tap: a reentrancy-safe callback slot.
type Tap = Box<dyn FnMut(&mut Sim<Stack>, AppEvent)>;
/// Baseline TCP event tap.
type TcpTap = Box<dyn FnMut(&mut Sim<Stack>, HostId, TcpEvent)>;

/// The complete DASH stack world.
pub struct Stack {
    /// Network layer.
    pub net: NetState,
    /// Subtransport layer.
    pub st: StState,
    /// RKOM request/reply state.
    pub rkom: RkomState,
    /// Stream-protocol state.
    pub stream: StreamState,
    /// Baseline TCP-like transport state (runs over raw datagrams).
    pub tcp: TcpState,
    /// Optional modelled CPUs (one per host). When present, protocol
    /// processing is scheduled by the CPU's policy instead of the default
    /// FIFO model.
    pub cpus: Option<Vec<Cpu<Stack>>>,
    app_tap: Option<Tap>,
    tcp_tap: Option<TcpTap>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("hosts", &self.net.hosts.len())
            .field("cpus", &self.cpus.is_some())
            .finish()
    }
}

/// Builder assembling a [`Stack`] in one expression: network state, ST
/// configuration, optional modelled CPUs, and observability wiring.
///
/// ```
/// use dash_net::topology::two_hosts_ethernet;
/// use dash_subtransport::st::StConfig;
/// use dash_transport::stack::StackBuilder;
///
/// let (net, _a, _b) = two_hosts_ethernet();
/// let stack = StackBuilder::new(net)
///     .st_config(StConfig::default())
///     .build();
/// assert!(stack.cpus.is_none());
/// ```
pub struct StackBuilder {
    net: NetState,
    st_config: StConfig,
    cpus: Option<(SchedPolicy, SimDuration)>,
    sink: Option<Box<dyn ObsSink>>,
    obs_enabled: bool,
    retain_spans: bool,
}

impl StackBuilder {
    /// Start building a stack over a built network state.
    pub fn new(net: NetState) -> Self {
        StackBuilder {
            net,
            st_config: StConfig::default(),
            cpus: None,
            sink: None,
            obs_enabled: false,
            retain_spans: false,
        }
    }

    /// Subtransport configuration (defaults to [`StConfig::default`]).
    pub fn st_config(mut self, config: StConfig) -> Self {
        self.st_config = config;
        self
    }

    /// Model real per-host CPUs with the given scheduling policy and
    /// context-switch cost (§4.1).
    pub fn cpus(mut self, policy: SchedPolicy, context_switch: SimDuration) -> Self {
        self.cpus = Some((policy, context_switch));
        self
    }

    /// Install an observability sink (activates spans; see
    /// [`dash_sim::obs`]).
    pub fn obs_sink(mut self, sink: impl ObsSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Activate observability without a sink: span ids and the span
    /// tracker. The metric registry counts either way.
    pub fn obs(mut self, enabled: bool) -> Self {
        self.obs_enabled = enabled;
        self
    }

    /// Keep completed span records in memory for later inspection via
    /// [`dash_sim::obs::Obs::spans`].
    pub fn retain_spans(mut self, retain: bool) -> Self {
        self.retain_spans = retain;
        self
    }

    /// Assemble the stack.
    pub fn build(self) -> Stack {
        let n = self.net.hosts.len();
        let mut st = StState::new(self.st_config, n);
        st.provision_all_keys(n as u32);
        let mut stack = Stack {
            net: self.net,
            st,
            rkom: RkomState::new(n),
            stream: StreamState::new(n),
            tcp: TcpState::new(n),
            cpus: self
                .cpus
                .map(|(policy, cs)| (0..n).map(|_| Cpu::new(policy, cs)).collect()),
            app_tap: None,
            tcp_tap: None,
        };
        if self.obs_enabled {
            stack.net.obs.enable();
        }
        if self.retain_spans {
            stack.net.obs.retain_spans(true);
        }
        if let Some(sink) = self.sink {
            stack.net.obs.add_boxed_sink(sink);
        }
        stack
    }
}

impl Stack {
    /// Install the application tap receiving the deliveries and events of
    /// lanes bound to the application.
    ///
    /// Part of the uniform tap family: [`Stack::on_app`],
    /// [`Stack::on_tcp`], [`Stack::on_stream`].
    pub fn on_app(&mut self, tap: impl FnMut(&mut Sim<Stack>, AppEvent) + 'static) {
        self.app_tap = Some(Box::new(tap));
    }

    /// Install the tap receiving baseline TCP events.
    ///
    /// Part of the uniform tap family: [`Stack::on_app`],
    /// [`Stack::on_tcp`], [`Stack::on_stream`].
    pub fn on_tcp(&mut self, tap: impl FnMut(&mut Sim<Stack>, HostId, TcpEvent) + 'static) {
        self.tcp_tap = Some(Box::new(tap));
    }

    /// Install `host`'s tap receiving [`StreamEvent`]s from the stream
    /// protocol.
    ///
    /// Part of the uniform tap family: [`Stack::on_app`],
    /// [`Stack::on_tcp`], [`Stack::on_stream`].
    pub fn on_stream(
        &mut self,
        host: HostId,
        tap: impl FnMut(&mut Sim<Stack>, StreamEvent) + 'static,
    ) {
        self.stream.host_mut(host).install_tap(Box::new(tap));
    }

    /// Switch this world into logical-process mode as `owner`'s replica
    /// for the conservative parallel executor (`dash::par`).
    ///
    /// Must be called on a freshly built stack, before any events run.
    /// It re-seeds the wire RNG as a pure function of `(root_seed,
    /// owner)` and rebases every global id counter (network RMS ids, ST
    /// RMS ids, stream sessions, RKOM calls, obs span ids) to the disjoint namespace `(owner + 1) << 40`, so ids
    /// minted independently by different logical processes never collide
    /// when their packets and event streams meet.
    pub fn enable_lp_mode(&mut self, owner: HostId, root_seed: u64) {
        let base = (owner.0 as u64 + 1) << 40;
        self.net.enable_lp_mode(owner, root_seed);
        self.net.obs.set_span_namespace(base);
        self.st.set_id_namespace(base);
        self.stream.set_id_namespace(base);
        self.rkom.set_id_namespace(base);
    }

    /// Deliver an [`AppEvent`] through the tap (reentrancy-safe).
    pub fn fire_app_event(sim: &mut Sim<Stack>, event: AppEvent) {
        if let Some(mut tap) = sim.state.app_tap.take() {
            tap(sim, event);
            // Only restore if the app did not install a new tap meanwhile.
            if sim.state.app_tap.is_none() {
                sim.state.app_tap = Some(tap);
            }
        }
    }
}

impl CpuHost for Stack {
    fn cpu(&mut self, key: u32) -> &mut Cpu<Stack> {
        &mut self.cpus.as_mut().expect("a stack with modelled CPUs")[key as usize]
    }
}

impl NetWorld for Stack {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }

    fn charge_cpu(
        sim: &mut Sim<Self>,
        host: HostId,
        cost: SimDuration,
        deadline: SimTime,
        stream: u64,
        cont: Call<Self>,
    ) {
        if sim.state.cpus.is_some() {
            cpu::submit(
                sim,
                host.0,
                dash_sim::cpu::Job {
                    deadline,
                    priority: 0,
                    stream,
                    cost,
                    cont,
                },
            );
        } else {
            fifo_charge_cpu(sim, host, cost, cont);
        }
    }

    fn deliver_up(
        sim: &mut Sim<Self>,
        host: HostId,
        rms: NetRmsId,
        msg: Message,
        info: DeliveryInfo,
    ) {
        st_engine::on_net_deliver(sim, host, rms, msg, info);
    }

    fn rms_event(sim: &mut Sim<Self>, host: HostId, event: NetRmsEvent) {
        st_engine::on_net_event(sim, host, &event);
    }

    fn network_event(sim: &mut Sim<Self>, network: NetworkId, up: bool) {
        st_engine::on_network_event(sim, network, up);
    }

    fn deliver_datagram(
        sim: &mut Sim<Self>,
        host: HostId,
        src: HostId,
        proto: u16,
        payload: WireMsg,
        sent_at: SimTime,
    ) {
        if proto == TCP_PROTO {
            tcp::on_datagram(sim, host, src, payload, sent_at);
        }
    }

    fn deliver_quench(sim: &mut Sim<Self>, host: HostId, proto: u16, dropped_dst: HostId) {
        if proto == TCP_PROTO {
            tcp::on_quench(sim, host, dropped_dst);
        }
    }
}

impl TcpWorld for Stack {
    fn tcp(&mut self) -> &mut TcpState {
        &mut self.tcp
    }
    fn tcp_ref(&self) -> &TcpState {
        &self.tcp
    }
    fn tcp_event(sim: &mut Sim<Self>, host: HostId, event: TcpEvent) {
        if let Some(mut tap) = sim.state.tcp_tap.take() {
            tap(sim, host, event);
            if sim.state.tcp_tap.is_none() {
                sim.state.tcp_tap = Some(tap);
            }
        }
    }
}

impl StWorld for Stack {
    fn st(&mut self) -> &mut StState {
        &mut self.st
    }
    fn st_ref(&self) -> &StState {
        &self.st
    }

    fn st_inbound(
        sim: &mut Sim<Self>,
        host: HostId,
        st_rms: StRmsId,
        peer: HostId,
        header: &Bytes,
    ) -> Client {
        let claimed = match header.first() {
            Some(&MAGIC_RKOM) => rkom::on_inbound(sim, host, peer, header),
            Some(&MAGIC_STREAM) => stream::on_inbound(sim, host, peer, header),
            _ => None,
        };
        claimed.unwrap_or(Client {
            proto: PROTO_APP,
            id: st_rms.0,
        })
    }

    fn st_deliver(
        sim: &mut Sim<Self>,
        host: HostId,
        client: Client,
        st_rms: StRmsId,
        msg: Message,
        info: DeliveryInfo,
    ) {
        match client.proto {
            MAGIC_RKOM => rkom::on_delivery(sim, host, client, msg),
            MAGIC_STREAM => stream::on_delivery(sim, host, msg),
            _ => Stack::fire_app_event(
                sim,
                AppEvent::StDeliver {
                    host,
                    st_rms,
                    msg,
                    info,
                },
            ),
        }
    }

    fn st_event(sim: &mut Sim<Self>, host: HostId, client: Client, event: StEvent) {
        match client.proto {
            MAGIC_RKOM => rkom::on_st_event(sim, host, client, event),
            MAGIC_STREAM => stream::on_st_event(sim, host, client, event),
            _ => Stack::fire_app_event(
                sim,
                AppEvent::StEvent {
                    host,
                    client,
                    event,
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_net::topology::two_hosts_ethernet;

    #[test]
    fn builder_assembles() {
        let (net, _a, _b) = two_hosts_ethernet();
        let stack = StackBuilder::new(net)
            .st_config(StConfig::default())
            .build();
        assert!(stack.cpus.is_none());
        let (net, _a, _b) = two_hosts_ethernet();
        let mut stack = StackBuilder::new(net)
            .cpus(SchedPolicy::Edf, SimDuration::from_micros(5))
            .obs(true)
            .retain_spans(true)
            .build();
        assert_eq!(stack.cpus.as_ref().unwrap().len(), 2);
        assert!(
            stack.net.obs.start_span().is_some(),
            "obs(true) mints spans"
        );
    }

    #[test]
    fn app_tap_fires() {
        let (net, a, _b) = two_hosts_ethernet();
        let mut stack = StackBuilder::new(net).build();
        stack.on_app(|_sim, _ev| {});
        let mut sim = Sim::new(stack);
        // A synthetic unclaimed event reaches the tap without panicking.
        Stack::fire_app_event(
            &mut sim,
            AppEvent::StEvent {
                host: a,
                client: Client {
                    proto: PROTO_APP,
                    id: 999,
                },
                event: StEvent::Closed {
                    st_rms: StRmsId(999),
                },
            },
        );
    }
}
