//! The routing cost curve: what one k-alternate search and one host's
//! first-hop recompute cost as the topology grows.
//!
//! Builds the 3×3 LAN mesh (the `mesh-churn` benchmark topology, 12
//! gateways) at 8, 30 and 110 hosts per LAN — 84, 282 and 1 002 hosts —
//! and times `k_paths(.., 3)` over a fixed set of probe pairs (every LAN
//! to every LAN, the corner-to-corner pair included) and
//! `mark_routes_dirty` + `ensure_host_routes` round-robin over all hosts.
//! Both run on the host–network graph, so the curve should be about linear
//! in hosts and the search nearly flat.
//!
//! Also a smoke: every probe pair is reachable over at least three
//! loop-free paths at any size, so the run exits non-zero if a pair comes
//! back with fewer — which is how the old clique search failed at 1 002
//! hosts (it tripped its expansion cap and reported no route).
//!
//! ```text
//! cargo run --release --example routing_cost
//! ```
//!
//! Microseconds are wall-clock medians on whatever box runs this; the
//! EXPERIMENTS.md row records one run. See DESIGN.md "Constrained
//! alternate computation".

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use dash::net::routing::{ensure_host_routes, k_paths, mark_routes_dirty};
use dash::net::topology::{mesh3x3, TopologyBuilder};
use dash::prelude::*;

/// Median of `rounds` timings of `op`, microseconds.
fn median_us(rounds: usize, mut op: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[rounds / 2]
}

fn main() -> ExitCode {
    println!("hosts  k_paths(k=3) us/call  one-host recompute us  worst pair");
    let mut ok = true;
    for hosts_per_lan in [8, 30, 110] {
        let mut tb = TopologyBuilder::new();
        let (_, lans) = mesh3x3(&mut tb, hosts_per_lan);
        let mut net = tb.build();
        let hosts = net.hosts.len() as u32;
        let pairs: Vec<(HostId, HostId)> = (lans.iter())
            .flat_map(|from| lans.iter().map(move |to| (from[0], to[1])))
            .collect();
        let fewest = pairs
            .iter()
            .map(|&(src, dst)| k_paths(&net, src, dst, 3).len())
            .min()
            .expect("81 pairs");
        ok &= fewest == 3;
        let search = median_us(25, || {
            for &(src, dst) in &pairs {
                black_box(k_paths(black_box(&net), src, dst, 3));
            }
        }) / pairs.len() as f64;
        let mut host = 0;
        let recompute = median_us(hosts as usize, || {
            host = (host + 1) % hosts;
            mark_routes_dirty(&mut net, SimTime::ZERO);
            ensure_host_routes(&mut net, SimTime::ZERO, HostId(host));
        });
        println!("{hosts:<5}  {search:<20.1}  {recompute:<21.1}  {fewest} of 3 alternates");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("routing_cost: a reachable pair came back with fewer than 3 alternates");
        ExitCode::FAILURE
    }
}
