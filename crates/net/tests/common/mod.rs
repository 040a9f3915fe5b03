//! Shared by `tests/routing.rs` and `routing::spf`'s unit tests (which
//! include this file by path): the 3×3 LAN mesh the routing cost is quoted
//! on, and the route computations as they stood before the host–network
//! graph rewrite, kept verbatim as the reference the differential tests
//! compare the live code against — the best-first heap search over LAN
//! cliques with its `EXPANSION_CAP` valve ([`k_paths`] also returns how
//! many partial paths it popped, so a caller can tell a truncated answer
//! from a complete one) and the host-clique `Adjacency` BFS.
#![allow(dead_code)] // each includer uses its own subset

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use dash_net::ids::{HostId, NetworkId};
use dash_net::routing::{AltPath, Lsdb};
use dash_net::state::{NetState, Route, TTL};
use dash_net::topology::{self, TopologyBuilder};
use rms_core::hash::DetHashMap;

/// [`topology::mesh3x3`] built on its own. Returns the state and each
/// LAN's hosts, row-major.
pub fn mesh3x3(hosts_per_lan: usize) -> (NetState, Vec<Vec<HostId>>) {
    let mut tb = TopologyBuilder::new();
    let (_, lans) = topology::mesh3x3(&mut tb, hosts_per_lan);
    (tb.build(), lans)
}

/// Safety valve on the best-first search: total partial paths popped.
pub const EXPANSION_CAP: usize = 20_000;

/// Hop budget the frontier stores inline: the packet hop budget [`TTL`],
/// which also bounds the search, so the best-first search below allocates
/// nothing per expansion; a longer path would spill to a heap Vec (same
/// inline-then-spill shape as `WireMsg`'s segment list).
const INLINE_HOPS: usize = TTL as usize;

/// An id sequence (hops or networks) held inline up to [`INLINE_HOPS`].
/// Ordering is lexicographic over the raw ids — identical to the
/// `Vec<HostId>` / `Vec<NetworkId>` ordering the search was specified
/// with, so replacing the Vecs cannot change which paths are found.
#[derive(Clone, PartialEq, Eq)]
enum IdPath {
    Inline { len: u8, buf: [u32; INLINE_HOPS] },
    Spilled(Vec<u32>),
}

impl IdPath {
    const EMPTY: IdPath = IdPath::Inline {
        len: 0,
        buf: [0; INLINE_HOPS],
    };

    fn as_slice(&self) -> &[u32] {
        match self {
            IdPath::Inline { len, buf } => &buf[..*len as usize],
            IdPath::Spilled(v) => v,
        }
    }

    /// A copy of `self` with `id` appended; stays inline while it fits.
    fn pushed(&self, id: u32) -> IdPath {
        match self {
            IdPath::Inline { len, buf } if (*len as usize) < INLINE_HOPS => {
                let mut buf = *buf;
                buf[*len as usize] = id;
                IdPath::Inline { len: len + 1, buf }
            }
            _ => {
                let s = self.as_slice();
                let mut v = Vec::with_capacity(s.len() + 1);
                v.extend_from_slice(s);
                v.push(id);
                IdPath::Spilled(v)
            }
        }
    }
}

impl Ord for IdPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for IdPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-network attachment lists derived from the LSDB. Origins iterate in
/// ascending order, so each list is ascending by host id.
fn attachment_map(lsdb: &Lsdb) -> BTreeMap<NetworkId, Vec<HostId>> {
    let mut map: BTreeMap<NetworkId, Vec<HostId>> = BTreeMap::new();
    for ad in lsdb.entries() {
        for link in &ad.links {
            map.entry(link.network).or_default().push(ad.origin);
        }
    }
    map
}

/// The host graph one LSDB describes under the live availability flags:
/// `neighbours[h]` lists `(neighbour, iface index of h used to reach it)`,
/// sorted, with down networks contributing no edges. It depends on the
/// database and the network flags only, not on who asks, so hosts reading
/// one database ([`Lsdb::shares_backing`]) can share one `Adjacency` and
/// pay a BFS each ([`Adjacency::routes_from`]).
struct Adjacency {
    neighbours: Vec<Vec<(usize, usize)>>,
}

impl Adjacency {
    fn new(state: &NetState, lsdb: &Lsdb) -> Self {
        let attached = attachment_map(lsdb);
        let n_hosts = state.hosts.len();
        let mut neighbours: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_hosts];
        for ad in lsdb.entries() {
            let h = ad.origin.0 as usize;
            if h >= n_hosts {
                continue;
            }
            for (idx, link) in ad.links.iter().enumerate() {
                if state.network(link.network).down {
                    continue;
                }
                if let Some(peers) = attached.get(&link.network) {
                    for peer in peers {
                        if peer.0 as usize != h {
                            neighbours[h].push((peer.0 as usize, idx));
                        }
                    }
                }
            }
            // Deterministic exploration order.
            neighbours[h].sort_unstable();
        }
        Adjacency { neighbours }
    }

    /// Shortest-hop first-hop table from `src` (see [`primary_routes`] for
    /// the determinism contract).
    fn routes_from(&self, state: &NetState, src: HostId) -> DetHashMap<HostId, Route> {
        let n_hosts = self.neighbours.len();
        let src = src.0 as usize;
        let mut first_hop: Vec<Option<(usize, usize)>> = vec![None; n_hosts]; // (next, iface)
        let mut visited = vec![false; n_hosts];
        let mut queue = VecDeque::new();
        visited[src] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            // Crashed hosts do not forward (or originate): reachable as a
            // destination, but never expanded.
            if !state.hosts[u].up {
                continue;
            }
            for &(v, iface) in &self.neighbours[u] {
                if !visited[v] {
                    visited[v] = true;
                    first_hop[v] = if u == src {
                        Some((v, iface))
                    } else {
                        first_hop[u]
                    };
                    queue.push_back(v);
                }
            }
        }
        first_hop
            .iter()
            .enumerate()
            .filter_map(|(dst, hop)| {
                hop.map(|(next, iface)| {
                    (
                        HostId(dst as u32),
                        Route {
                            iface,
                            next_hop: HostId(next as u32),
                        },
                    )
                })
            })
            .collect()
    }
}

/// Shortest-hop first-hop table from `src`, computed over `src`'s LSDB.
///
/// Determinism contract: identical to the original global BFS — neighbour
/// lists are `(peer, iface)`-sorted, ties resolve to the first visit, down
/// networks contribute no edges, and crashed hosts are reachable but never
/// expanded as transit.
pub fn primary_routes(state: &NetState, src: HostId) -> DetHashMap<HostId, Route> {
    Adjacency::new(state, &state.host(src).lsdb).routes_from(state, src)
}

/// Up to `k` loop-free paths from `src` to `dst`, best-first in
/// `(length, hops, networks)` order so the result sequence is byte-stable
/// across runs. Returns an empty vector when `dst` is unreachable — and
/// the number of partial paths popped: above [`EXPANSION_CAP`] the search
/// gave up and the answer is a prefix of the true one.
pub fn k_paths(state: &NetState, src: HostId, dst: HostId, k: usize) -> (Vec<AltPath>, usize) {
    if src == dst || k == 0 {
        return (Vec::new(), 0);
    }
    let lsdb = &state.host(src).lsdb;
    let attached = attachment_map(lsdb);
    let ttl = TTL as usize;
    // Min-heap on (len, hops, networks): BinaryHeap is a max-heap, so the
    // key is wrapped in `Reverse`. Paths are inline-array `IdPath`s, so a
    // frontier expansion allocates nothing (`INLINE_HOPS` is the TTL).
    type Frontier = (usize, IdPath, IdPath);
    let mut heap: BinaryHeap<Reverse<Frontier>> = BinaryHeap::new();
    heap.push(Reverse((0, IdPath::EMPTY, IdPath::EMPTY)));
    let mut visits: DetHashMap<HostId, usize> = DetHashMap::default();
    let mut out = Vec::new();
    let mut pops = 0usize;
    while let Some(Reverse((len, hops, networks))) = heap.pop() {
        pops += 1;
        if pops > EXPANSION_CAP {
            break;
        }
        let tail = hops.as_slice().last().map(|h| HostId(*h)).unwrap_or(src);
        if tail == dst {
            let hops = hops.as_slice().iter().map(|h| HostId(*h)).collect();
            let networks = networks.as_slice().iter().map(|n| NetworkId(*n)).collect();
            out.push(make_alt(lsdb, src, hops, networks));
            if out.len() >= k {
                break;
            }
            continue;
        }
        // Classic k-shortest pruning: expand each node at most k times.
        let seen = visits.entry(tail).or_insert(0);
        if *seen >= k {
            continue;
        }
        *seen += 1;
        if len >= ttl {
            continue;
        }
        // Crashed hosts can terminate a path but never transit one.
        if tail != src && !state.host(tail).up {
            continue;
        }
        let Some(ad) = lsdb.get(tail) else { continue };
        for link in &ad.links {
            if state.network(link.network).down {
                continue;
            }
            let Some(peers) = attached.get(&link.network) else {
                continue;
            };
            for &peer in peers {
                if peer == tail || peer == src || hops.as_slice().contains(&peer.0) {
                    continue;
                }
                if peer != dst && !state.host(peer).up {
                    continue;
                }
                heap.push(Reverse((
                    len + 1,
                    hops.pushed(peer.0),
                    networks.pushed(link.network.0),
                )));
            }
        }
    }
    (out, pops)
}

fn make_alt(lsdb: &Lsdb, src: HostId, hops: Vec<HostId>, networks: Vec<NetworkId>) -> AltPath {
    let mut min_headroom = f64::INFINITY;
    let mut from = src;
    for (i, n) in networks.iter().enumerate() {
        if let Some(link) = lsdb
            .get(from)
            .and_then(|ad| ad.links.iter().find(|l| l.network == *n))
        {
            min_headroom = min_headroom.min(link.headroom_bps);
        }
        from = hops[i];
    }
    AltPath {
        hops,
        networks,
        min_headroom_bps: if min_headroom.is_finite() {
            min_headroom
        } else {
            0.0
        },
    }
}
