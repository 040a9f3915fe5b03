//! Deterministic route computation over a link-state database.
//!
//! Both computations run on the bipartite host–network graph the LSDB
//! describes (`NetGraph`): a host's ad lists its networks, and each
//! network's attachment list is every origin that advertises it. A LAN of
//! `n` hosts is one network node and `n` edges, never an `n²` clique.
//!
//! - [`primary_routes`]: shortest-hop first-hop table by BFS, reproducing
//!   the determinism rules of the original build-time computation exactly
//!   (neighbours in `(peer, iface)` order, first visit wins) — this is
//!   what datagrams and non-pinned traffic follow.
//! - [`k_paths`]: up to `k` loop-free alternate paths in
//!   `(length, hop sequence, network sequence)` order — "path length, then
//!   lowest HostId sequence" — used by RMS establishment to walk
//!   admission-aware alternates.
//!
//! Topology (who is attached to what) comes from the LSDB; *availability*
//! (network down, host crashed) is read from the live state, modelling
//! instantaneous link-layer failure detection, while the QoS attributes
//! carried in the ads (headroom, delay, capacity) are only as fresh as the
//! last flood that reached the computing host.

use std::mem::replace;

use super::lsdb::{LinkInfo, Lsdb};
use crate::ids::{HostId, NetworkId};
use crate::state::{NetState, Route, RouteTable, TTL};

/// Maximum number of alternate paths computed per destination.
pub const K_ALTERNATES: usize = 3;

/// A loop-free candidate path produced by [`k_paths`].
#[derive(Debug, Clone, PartialEq)]
pub struct AltPath {
    /// Hops after the source, ending with the destination.
    pub hops: Vec<HostId>,
    /// `networks[i]` carries the packet to `hops[i]`; same length as `hops`.
    pub networks: Vec<NetworkId>,
    /// The smallest advertised deterministic admission headroom along the
    /// path, bytes per second (stale by up to one flood interval).
    pub min_headroom_bps: f64,
}

/// The live host–network graph one LSDB describes: the database (host →
/// its links, in interface order) plus each network's attachment list,
/// ascending by host id because origins iterate in ascending order; a down
/// network's list is empty. It depends on the database and the network
/// flags only, not on who asks, so hosts reading one database can share
/// one `NetGraph` ([`NetGraph::describes`]) and pay a BFS each.
pub(crate) struct NetGraph {
    lsdb: Lsdb,
    /// `attached[start[n]..start[n + 1]]` is network `n`'s list.
    start: Vec<u32>,
    attached: Vec<HostId>,
}

/// One partial path in the search arena: `host`, reached over `network`
/// from the node at index `parent` (the root is `src`, its own parent).
/// `run` ranks the path's hop sequence among its layer's distinct hop
/// sequences (paths may differ in networks only); until a layer is sorted
/// it holds the parent's, so the derived order is `(hops, networks)` order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Node {
    run: u32,
    host: HostId,
    parent: u32,
    network: NetworkId,
}

impl NetGraph {
    pub(crate) fn new(state: &NetState, lsdb: Lsdb) -> Self {
        let live = |link: &&LinkInfo| !state.network(link.network).down;
        let mut start = vec![0u32; state.networks.len() + 1];
        for link in lsdb.entries().flat_map(|ad| &ad.links).filter(live) {
            start[link.network.0 as usize + 1] += 1;
        }
        for n in 1..start.len() {
            start[n] += start[n - 1];
        }
        let mut attached = vec![HostId(0); start[start.len() - 1] as usize];
        let mut fill = start.clone();
        for ad in lsdb.entries() {
            for link in ad.links.iter().filter(live) {
                let at = &mut fill[link.network.0 as usize];
                attached[*at as usize] = ad.origin;
                *at += 1;
            }
        }
        NetGraph {
            lsdb,
            start,
            attached,
        }
    }

    /// Whether this graph was built over the table `lsdb` still reads
    /// ([`Lsdb::shares_backing`]).
    pub(crate) fn describes(&self, lsdb: &Lsdb) -> bool {
        self.lsdb.shares_backing(lsdb)
    }

    fn on(&self, network: NetworkId) -> &[HostId] {
        let n = network.0 as usize;
        &self.attached[self.start[n] as usize..self.start[n + 1] as usize]
    }

    fn links(&self, host: HostId) -> &[LinkInfo] {
        self.lsdb.get(host).map_or(&[], |ad| &ad.links)
    }

    /// Breadth-first search from `root`, calling `first_visit(parent,
    /// host, iface of parent)` once per reached host. Each expansion takes
    /// its unvisited neighbours in `(peer, iface)` order, which is the
    /// order a sorted host-clique neighbour list would give; a network is
    /// read once, by the first host that expands it (all its hosts are
    /// visited from then on), so the whole search is O(H log H). Crashed
    /// hosts are reached but never expanded; the root always is.
    fn bfs(
        &self,
        state: &NetState,
        root: HostId,
        mut first_visit: impl FnMut(HostId, HostId, usize),
    ) {
        let mut seen = vec![false; state.hosts.len()];
        let mut exhausted = vec![false; state.networks.len()];
        let mut queue = Vec::with_capacity(seen.len());
        let mut fresh: Vec<(HostId, usize)> = Vec::new();
        seen[root.0 as usize] = true;
        queue.push(root);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for (iface, link) in self.links(u).iter().enumerate() {
                if !replace(&mut exhausted[link.network.0 as usize], true) {
                    let peers = self.on(link.network).iter();
                    fresh.extend(peers.filter(|p| !seen[p.0 as usize]).map(|&p| (p, iface)));
                }
            }
            fresh.sort_unstable();
            for (v, iface) in fresh.drain(..) {
                if !replace(&mut seen[v.0 as usize], true) {
                    first_visit(u, v, iface);
                    if state.host(v).up {
                        queue.push(v);
                    }
                }
            }
        }
    }

    /// Shortest-hop first-hop table from `src` (see [`primary_routes`] for
    /// the determinism contract).
    pub(crate) fn routes_from(&self, state: &NetState, src: HostId) -> RouteTable {
        let mut table = RouteTable::unreachable(state.hosts.len());
        // A crashed host originates nothing.
        if state.host(src).up {
            self.bfs(state, src, |u, v, iface| {
                // Inherit the parent's first hop; only `src` has none.
                let direct = Route { iface, next_hop: v };
                table.set(v, table.get(u).unwrap_or(direct));
            });
        }
        table
    }

    /// The search behind [`k_paths`], plus the number of partial paths it
    /// expanded (the deterministic cost the unit tests gate).
    ///
    /// Specified as a best-first search in `(length, hops, networks)` order
    /// that expands each host at most `k` times. With `dist` the hop distance
    /// to `dst`, a partial path of `len` hops ending at `t` can finish within
    /// `bound` hops only if `len + dist[t] <= bound`; so can its parent, and
    /// at one tail every such path pops before every other — so dropping the
    /// others changes neither a host's first `k` useful paths nor their
    /// order, and the answers of at most `bound` hops come out unchanged.
    /// `bound` starts at `dist[src]` and rises until `k` paths are found or
    /// [`TTL`] is reached; a round runs layer by layer (equal lengths), each
    /// layer one sorted slice of the parent-pointer arena. DESIGN.md,
    /// "Constrained alternate computation", has the argument in full.
    fn search(
        &self,
        state: &NetState,
        src: HostId,
        dst: HostId,
        k: usize,
    ) -> (Vec<AltPath>, usize) {
        let mut dist = vec![u32::MAX; state.hosts.len()]; // MAX: not reached
        dist[dst.0 as usize] = 0;
        self.bfs(state, dst, |u, v, _| {
            dist[v.0 as usize] = dist[u.0 as usize] + 1
        });
        let mut expanded = 0;
        let mut arena: Vec<Node> = Vec::new();
        let mut found: Vec<(usize, usize)> = Vec::new(); // (arena index, hops)
        let mut visits = vec![0usize; state.hosts.len()];
        for bound in dist[src.0 as usize]..=u32::from(TTL) {
            arena.clear();
            arena.push(Node {
                run: 0,
                host: src,
                parent: 0,
                network: NetworkId(0),
            });
            visits.fill(0);
            found.clear();
            let mut lo = 0;
            'layers: for len in 0..=bound {
                let hi = arena.len();
                for at in lo..hi {
                    let (run, tail) = (arena[at].run, arena[at].host);
                    if tail == dst {
                        found.push((at, len as usize));
                        if found.len() == k {
                            break 'layers;
                        }
                        continue;
                    }
                    // Classic k-shortest pruning: expand each node at most k times.
                    let seen = &mut visits[tail.0 as usize];
                    if *seen >= k {
                        continue;
                    }
                    *seen += 1;
                    expanded += 1;
                    for link in self.links(tail) {
                        for &host in self.on(link.network) {
                            // Too far to finish within `bound`; crashed hosts
                            // end a path but never carry one; no loops.
                            if dist[host.0 as usize] < bound - len
                                && (host == dst || state.host(host).up)
                                && path(&arena, at).all(|n| n.host != host)
                            {
                                let (parent, network) = (at as u32, link.network);
                                arena.push(Node {
                                    run,
                                    host,
                                    parent,
                                    network,
                                });
                            }
                        }
                    }
                }
                let layer = &mut arena[hi..];
                layer.sort_unstable();
                let mut prev = None;
                let mut rank = 0;
                for node in layer {
                    let hops = Some((node.run, node.host));
                    rank += u32::from(prev.is_some() && prev != hops);
                    prev = hops;
                    node.run = rank;
                }
                lo = hi;
            }
            if found.len() == k {
                break;
            }
        }
        let paths = found
            .iter()
            .map(|&(at, len)| self.alt_path(&arena, at, len));
        (paths.collect(), expanded)
    }

    /// The `len`-hop path ending at node `at`, with its advertised headroom.
    fn alt_path(&self, arena: &[Node], at: usize, len: usize) -> AltPath {
        let (mut hops, mut networks) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut min_headroom_bps = f64::INFINITY;
        for node in path(arena, at).take(len) {
            let from = arena[node.parent as usize].host;
            if let Some(link) = (self.links(from).iter()).find(|l| l.network == node.network) {
                min_headroom_bps = min_headroom_bps.min(link.headroom_bps);
            }
            hops.push(node.host);
            networks.push(node.network);
        }
        hops.reverse();
        networks.reverse();
        AltPath {
            hops,
            networks,
            min_headroom_bps,
        }
    }
}

/// The arena nodes from `at` back to the root, both included.
fn path(arena: &[Node], at: usize) -> impl Iterator<Item = &Node> {
    let up = move |&at: &usize| (at != 0).then_some(arena[at].parent as usize);
    std::iter::successors(Some(at), up).map(move |at| &arena[at])
}

/// Shortest-hop first-hop table from `src`, computed over `src`'s LSDB.
///
/// Determinism contract: identical to the original global BFS — neighbours
/// are taken in `(peer, iface)` order, ties resolve to the first visit, down
/// networks contribute no edges, and crashed hosts are reachable but never
/// expanded as transit.
pub fn primary_routes(state: &NetState, src: HostId) -> RouteTable {
    NetGraph::new(state, state.host(src).lsdb.clone()).routes_from(state, src)
}

/// Up to `k` loop-free paths from `src` to `dst`, in `(length, hops,
/// networks)` order so the result sequence is byte-stable across runs.
/// Returns an empty vector when `dst` is unreachable.
pub fn k_paths(state: &NetState, src: HostId, dst: HostId, k: usize) -> Vec<AltPath> {
    if src == dst || k == 0 {
        return Vec::new();
    }
    let graph = NetGraph::new(state, state.host(src).lsdb.clone());
    graph.search(state, src, dst, k).0
}

#[cfg(test)]
#[path = "../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// Partial paths expanded finding 3 alternates, and how many came back.
    fn cost(state: &NetState, src: HostId, dst: HostId) -> (usize, usize) {
        let graph = NetGraph::new(state, state.host(src).lsdb.clone());
        let (paths, expanded) = graph.search(state, src, dst, 3);
        (expanded, paths.len())
    }

    /// Counts, not wall-clock: corner to corner only hosts on shortest
    /// routes are expanded whatever the LAN size (the clique search popped
    /// its 20 000 cap at 30 per LAN); LAN-mates need one bound escalation
    /// that tries every neighbour, linear in the LAN.
    #[test]
    fn search_cost_is_pinned_on_the_mesh() {
        let at = |per_lan| {
            let (s, lans) = common::mesh3x3(per_lan);
            let far = cost(&s, lans[0][0], lans[8][0]);
            let near = cost(&s, lans[0][0], lans[0][1]);
            assert_eq!((far.1, near.1), (3, 3));
            (far.0, near.0)
        };
        assert_eq!([at(8), at(30), at(110)], [(19, 10), (19, 32), (19, 112)]);
    }

    /// A unique path of exactly `TTL` hops: one round at `bound == TTL`, no
    /// more expansions than the unbounded search popped; past `TTL`, or
    /// with the peer cut off, nothing is expanded at all.
    #[test]
    fn bound_escalation_costs_nothing_on_a_chain() {
        let mut tb = TopologyBuilder::new();
        let hosts: Vec<HostId> = (0..=TTL + 1).map(|_| tb.host()).collect();
        for pair in hosts.windows(2) {
            let n = tb.network(crate::NetworkSpec::ethernet("link"));
            tb.attach(pair[0], n).attach(pair[1], n);
        }
        let mut s = tb.build();
        let (src, dst) = (hosts[0], hosts[TTL as usize]);
        let (_, popped) = common::k_paths(&s, src, dst, 3);
        assert_eq!(cost(&s, src, dst), (TTL as usize, 1));
        assert!(TTL as usize <= popped);
        assert_eq!(cost(&s, src, hosts[TTL as usize + 1]), (0, 0));
        s.networks[3].down = true;
        assert_eq!(cost(&s, src, dst), (0, 0));
    }
}
