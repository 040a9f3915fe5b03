//! Parallel simulation with deterministic serial-equivalent replay.
//!
//! Builds two Ethernets joined by a long-haul WAN, gives every host a
//! paced voice stream (one of them crossing the WAN), and runs the same
//! `Scenario` twice on `Backend::Par`: once on a single worker thread and
//! once partitioned across four. The merged outcomes come out
//! byte-identical — partitioning changes wall-clock, never results.
//!
//! ```text
//! cargo run --release --example parallel
//! ```
//!
//! See DESIGN.md "Parallel execution model" for the epoch/lookahead math
//! this example rides on.

use dash::apps::scenario::{run, Backend, Scenario};
use dash::apps::traffic::{Flow, Plan};
use dash::net::state::NetState;
use dash::net::topology::TopologyBuilder;
use dash::net::NetworkSpec;
use dash::prelude::*;

const SEED: u64 = 7;
const HOSTS_PER_LAN: u32 = 3;
const TALK: SimDuration = SimDuration::from_millis(200);

/// The topology program every logical process replays identically:
/// two LANs bridged onto a 30 ms WAN by one gateway each. Hosts are
/// numbered in build order: LAN 0 is hosts 0–2 + gateway 3, LAN 1 is
/// hosts 4–6 + gateway 7.
fn build_net() -> NetState {
    let mut tb = TopologyBuilder::new();
    tb.seed(SEED);
    let wan = tb.network(NetworkSpec::long_haul("wan"));
    for lan in 0..2 {
        let net = tb.network(NetworkSpec::ethernet(format!("lan{lan}")));
        for _ in 0..HOSTS_PER_LAN {
            tb.host_on(net);
        }
        tb.gateway(net, wan);
    }
    tb.build()
}

/// The scenario: every edge host talks to its LAN neighbour, except host
/// 0, whose call crosses the WAN to the first host of the other LAN.
/// Every replica world holds this same plan and acts only on the flows
/// its owner sources.
fn scenario() -> Scenario {
    let first_of = |lan: u32| lan * (HOSTS_PER_LAN + 1);
    let mut flows = vec![Flow::wan_voice(HostId(0), HostId(first_of(1)), 0, TALK)];
    for lan in 0..2 {
        for i in 0..HOSTS_PER_LAN {
            let (src, dst) = (first_of(lan) + i, first_of(lan) + (i + 1) % HOSTS_PER_LAN);
            if src != 0 {
                flows.push(Flow::voice(HostId(src), HostId(dst), src as usize, TALK));
            }
        }
    }
    Scenario {
        // LAN-aligned placement: each LAN and its gateway share a shard,
        // so only the 30 ms WAN spans shards and the epoch is its delay.
        groups: (0..2)
            .map(|lan| (0..=HOSTS_PER_LAN).map(|i| first_of(lan) + i).collect())
            .collect(),
        seed: SEED,
        keep_events: true,
        ..Scenario::new(build_net, Plan::from(flows), SimDuration::from_millis(400))
    }
}

fn main() {
    let scenario = scenario();
    let par = |shards| Backend::Par { shards };

    println!("serial reference (1 shard):");
    let mut one = run(&scenario, par(1));
    println!("  {} messages delivered", one.messages());

    println!("parallel run (4 shards):");
    let four = run(&scenario, par(4));
    println!("  {} messages delivered", four.messages());

    assert!(one.messages() > 0);
    assert!(one.verdict.is_clean(), "{}", one.verdict);
    assert_eq!(
        one.verdict, four.verdict,
        "one verdict at every shard count"
    );
    assert_eq!(one.acct.streams().opened, 2 * HOSTS_PER_LAN as u64);
    assert_eq!(
        one.determinism_digest(),
        four.determinism_digest(),
        "the merged outcomes must be byte-identical"
    );
    println!("---");
    println!(
        "merged registries and traces byte-identical: digest {}, {} metric lines, {} trace lines",
        one.digest_hash(),
        one.registry.to_json_lines().lines().count(),
        one.stream.len(),
    );
}
