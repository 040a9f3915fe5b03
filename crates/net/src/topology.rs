//! Topology construction: hosts, networks, attachments, and shortest-path
//! routing.
//!
//! An internetwork is a bipartite graph of hosts and networks; a host
//! attached to two networks is a gateway that store-and-forwards with
//! deadline queueing (§2.5). At build time every host's link-state
//! database is seeded and its first-hop table computed by the routing
//! subsystem's deterministic BFS (fewest hops; ties broken toward
//! lower-numbered neighbours); thereafter [`crate::routing`] keeps tables
//! converged event-drivenly.

use rms_core::admission::ResourceLedger;

use crate::ids::{HostId, NetworkId};
use crate::iface::Iface;
use crate::network::{Network, NetworkSpec};
use crate::routing::spf::NetGraph;
use crate::state::{NetConfig, NetHost, NetState};

/// Builder for a [`NetState`] (C-BUILDER).
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    specs: Vec<NetworkSpec>,
    attachments: Vec<Vec<NetworkId>>, // per host
    config: NetConfig,
    seed: u64,
    iface_queue_limit: Option<u64>,
}

impl TopologyBuilder {
    /// Start an empty topology with default configuration and seed 1.
    pub fn new() -> Self {
        TopologyBuilder {
            specs: Vec::new(),
            attachments: Vec::new(),
            config: NetConfig::default(),
            seed: 1,
            iface_queue_limit: None,
        }
    }

    /// Replace the network-layer configuration.
    pub fn config(&mut self, config: NetConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Set the RNG seed for wire randomness.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Give every interface a transmit-queue byte limit (models gateway
    /// buffer space; `None` = unbounded).
    pub fn iface_queue_limit(&mut self, bytes: Option<u64>) -> &mut Self {
        self.iface_queue_limit = bytes;
        self
    }

    /// Add a network.
    pub fn network(&mut self, spec: NetworkSpec) -> NetworkId {
        let id = NetworkId(self.specs.len() as u32);
        self.specs.push(spec);
        id
    }

    /// Add a host with no attachments yet.
    pub fn host(&mut self) -> HostId {
        let id = HostId(self.attachments.len() as u32);
        self.attachments.push(Vec::new());
        id
    }

    /// Attach `host` to `network`.
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown or the attachment already exists.
    pub fn attach(&mut self, host: HostId, network: NetworkId) -> &mut Self {
        assert!((network.0 as usize) < self.specs.len(), "unknown network");
        let at = &mut self.attachments[host.0 as usize];
        assert!(!at.contains(&network), "duplicate attachment");
        at.push(network);
        self
    }

    /// Convenience: a host attached to one network.
    pub fn host_on(&mut self, network: NetworkId) -> HostId {
        let h = self.host();
        self.attach(h, network);
        h
    }

    /// Convenience: a gateway attached to two networks.
    pub fn gateway(&mut self, a: NetworkId, b: NetworkId) -> HostId {
        let h = self.host();
        self.attach(h, a);
        self.attach(h, b);
        h
    }

    /// Materialize the [`NetState`]: create interfaces with admission
    /// ledgers and compute all-pairs routes.
    pub fn build(self) -> NetState {
        let mut state = NetState::new(self.config.clone(), self.seed);
        for (i, spec) in self.specs.iter().enumerate() {
            state
                .networks
                .push(Network::new(NetworkId(i as u32), spec.clone()));
        }
        for (h, nets) in self.attachments.iter().enumerate() {
            let id = HostId(h as u32);
            let mut ifaces = Vec::new();
            for n in nets {
                let spec = &self.specs[n.0 as usize];
                let ledger = ResourceLedger::new(spec.rate_bps / 8.0, spec.iface_buffer_bytes);
                ifaces.push(Iface::new(
                    *n,
                    self.config.discipline,
                    ledger,
                    self.iface_queue_limit,
                ));
                state.networks[n.0 as usize].attached.push(id);
            }
            state.hosts.push(NetHost {
                id,
                ifaces,
                routes: Default::default(),
                lsdb: Default::default(),
                lsa_seq: 0,
                routes_dirty_since: None,
                rms_next: Default::default(),
                rms: Default::default(),
                reservations: Default::default(),
                pending: Default::default(),
                invites: Default::default(),
                cpu_free_at: dash_sim::time::SimTime::ZERO,
                up: true,
            });
        }
        compute_routes(&mut state);
        state
    }
}

/// (Re)compute all-pairs shortest-hop routes: seed every LSDB with a fresh
/// ad from every host, then rebuild each host's first-hop table eagerly.
///
/// Fault-aware: down networks carry no edges, and crashed hosts are never
/// used as transit (they can still be a destination — packets addressed to
/// them die on arrival instead). This is the build-time (and full-rebuild)
/// path; live fault events use the scoped, event-driven reconvergence of
/// [`crate::routing`] instead.
///
/// The host–network graph is built once per distinct LSDB backing — once
/// in all, straight after seeding — and each host runs its own BFS over it.
pub fn compute_routes(state: &mut NetState) {
    crate::routing::seed_lsdbs(state);
    state.route_generation += 1;
    let mut built: Option<NetGraph> = None;
    for h in 0..state.hosts.len() {
        let lsdb = &state.hosts[h].lsdb;
        let graph = match &built {
            Some(graph) if graph.describes(lsdb) => graph,
            _ => &*built.insert(NetGraph::new(state, lsdb.clone())),
        };
        let routes = graph.routes_from(state, HostId(h as u32));
        let host = &mut state.hosts[h];
        host.routes = routes;
        host.routes_dirty_since = None;
    }
}

/// A ready-made topology: two hosts on one Ethernet. Returns
/// `(state, host_a, host_b)`.
pub fn two_hosts_ethernet() -> (NetState, HostId, HostId) {
    let mut b = TopologyBuilder::new();
    let net = b.network(NetworkSpec::ethernet("lan"));
    let a = b.host_on(net);
    let c = b.host_on(net);
    (b.build(), a, c)
}

/// A ready-made topology: two hosts, each attached to two independent
/// Ethernets (`primary` and `backup`) — the smallest world where ST
/// failover, alternate routing and dual-ledger admission all exist.
/// `seed` seeds the link-jitter streams. Returns `(state, host_a, host_b)`.
pub fn dual_homed(seed: u64) -> (NetState, HostId, HostId) {
    let mut b = TopologyBuilder::new();
    let n0 = b.network(NetworkSpec::ethernet("primary"));
    let n1 = b.network(NetworkSpec::ethernet("backup"));
    let a = b.host();
    let c = b.host();
    b.attach(a, n0).attach(a, n1).attach(c, n0).attach(c, n1);
    b.seed(seed);
    (b.build(), a, c)
}

/// Add a 3×3 grid of Ethernet LANs to `tb`: `hosts_per_lan` hosts on each
/// and one gateway per adjacent pair (12 in all) — the `mesh-churn`
/// benchmark topology at 30 per LAN (282 hosts). Returns the nine LANs and
/// each LAN's hosts, row-major.
pub fn mesh3x3(
    tb: &mut TopologyBuilder,
    hosts_per_lan: usize,
) -> (Vec<NetworkId>, Vec<Vec<HostId>>) {
    let nets: Vec<NetworkId> = (0..9)
        .map(|i| tb.network(NetworkSpec::ethernet(format!("lan-{}{}", i / 3, i % 3))))
        .collect();
    let lans = (nets.iter())
        .map(|&n| (0..hosts_per_lan).map(|_| tb.host_on(n)).collect())
        .collect();
    for at in 0..9 {
        if at % 3 < 2 {
            tb.gateway(nets[at], nets[at + 1]);
        }
        if at < 6 {
            tb.gateway(nets[at], nets[at + 3]);
        }
    }
    (nets, lans)
}

/// A ready-made internetwork: two Ethernets joined by a long-haul link via
/// two gateways. Returns `(state, host_a, host_b, gateway_a, gateway_b)`.
pub fn dumbbell() -> (NetState, HostId, HostId, HostId, HostId) {
    let mut b = TopologyBuilder::new();
    let lan_a = b.network(NetworkSpec::ethernet("lan-a"));
    let wan = b.network(NetworkSpec::long_haul("wan"));
    let lan_b = b.network(NetworkSpec::ethernet("lan-b"));
    let a = b.host_on(lan_a);
    let gb1 = b.gateway(lan_a, wan);
    let gb2 = b.gateway(wan, lan_b);
    let c = b.host_on(lan_b);
    (b.build(), a, c, gb1, gb2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_hosts_route_directly() {
        let (state, a, c) = two_hosts_ethernet();
        let r = state.host(a).routes.get(c).unwrap();
        assert_eq!(r.next_hop, c);
        assert_eq!(r.iface, 0);
        assert!(state.host(a).routes.get(a).is_none());
        assert_eq!(state.host(a).routes.iter().collect::<Vec<_>>(), [(c, r)]);
    }

    #[test]
    fn dumbbell_routes_through_gateways() {
        let (state, a, c, g1, g2) = dumbbell();
        let path = state.path(a, c).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].0, a);
        assert_eq!(path[0].3, g1);
        assert_eq!(path[1].0, g1);
        assert_eq!(path[1].3, g2);
        assert_eq!(path[2].0, g2);
        assert_eq!(path[2].3, c);
        // Reverse path is symmetric.
        let back = state.path(c, a).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].3, g2);
    }

    #[test]
    fn unreachable_hosts_have_no_route() {
        let mut b = TopologyBuilder::new();
        let n1 = b.network(NetworkSpec::ethernet("x"));
        let n2 = b.network(NetworkSpec::ethernet("y"));
        let a = b.host_on(n1);
        let c = b.host_on(n2);
        let state = b.build();
        assert!(state.host(a).routes.get(c).is_none());
        assert!(state.path(a, c).is_none());
    }

    #[test]
    fn gateway_prefers_shortest_path() {
        // a - lan1 - g - lan2 - c, plus a direct lan3 between a and c.
        let mut b = TopologyBuilder::new();
        let lan1 = b.network(NetworkSpec::ethernet("1"));
        let lan2 = b.network(NetworkSpec::ethernet("2"));
        let lan3 = b.network(NetworkSpec::ethernet("3"));
        let a = b.host();
        b.attach(a, lan1);
        b.attach(a, lan3);
        let _g = b.gateway(lan1, lan2);
        let c = b.host();
        b.attach(c, lan2);
        b.attach(c, lan3);
        let state = b.build();
        let path = state.path(a, c).unwrap();
        assert_eq!(path.len(), 1, "direct lan3 path wins");
        assert_eq!(path[0].2, lan3);
    }

    #[test]
    #[should_panic(expected = "duplicate attachment")]
    fn duplicate_attachment_panics() {
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("x"));
        let h = b.host_on(n);
        b.attach(h, n);
    }

    #[test]
    fn attachments_register_on_networks() {
        let (state, a, c) = two_hosts_ethernet();
        assert_eq!(state.network(NetworkId(0)).attached, vec![a, c]);
    }
}
