//! Congestion at a shared gateway: RMS capacity enforcement vs the TCP
//! baseline with source quench (paper §4.4).
//!
//! Three flows share a 400 kb/s bottleneck behind a gateway with 16 KB of
//! buffer. Rate-enforced RMS streams never overrun it; TCP discovers the
//! bottleneck by filling the buffer and drowning in quenches.
//!
//! ```text
//! cargo run --release --example congestion
//! ```

use dash::apps::traffic::{self, Class, Flow, Plan};
use dash::baseline::tcp;
use dash::core::delay::DelayBound;
use dash::net::topology::TopologyBuilder;
use dash::net::{HostId, NetworkSpec};
use dash::sim::{Sim, SimDuration};
use dash::transport::flow::CapacityEnforcement;
use dash::transport::stack::{Stack, StackBuilder};
use dash::transport::stream::StreamProfile;

fn build() -> (Sim<Stack>, Vec<HostId>, Vec<HostId>, HostId) {
    let mut b = TopologyBuilder::new();
    let lan_a = b.network(NetworkSpec::ethernet("lan-a"));
    let mut wan = NetworkSpec::long_haul("wan");
    wan.rate_bps = 400_000.0;
    wan.drop_prob = 0.0;
    wan.caps.raw_ber = 0.0;
    let wan = b.network(wan);
    let lan_b = b.network(NetworkSpec::ethernet("lan-b"));
    let senders: Vec<HostId> = (0..3).map(|_| b.host_on(lan_a)).collect();
    let g1 = b.gateway(lan_a, wan);
    let _g2 = b.gateway(wan, lan_b);
    let receivers: Vec<HostId> = (0..3).map(|_| b.host_on(lan_b)).collect();
    b.iface_queue_limit(Some(16 * 1024));
    (
        Sim::new(StackBuilder::new(b.build()).build()),
        senders,
        receivers,
        g1,
    )
}

fn main() {
    // --- RMS flows, rate-enforced to their admitted share ---
    let (mut sim, senders, receivers, g1) = build();
    let mut flows = Vec::new();
    for (s, r) in senders.iter().zip(receivers.iter()) {
        // Burst allowance sized so three flows fit the 16 KB gateway buffer.
        let profile = StreamProfile {
            capacity: 4 * 1024,
            max_message: 512,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(1200),
                SimDuration::from_micros(40),
            ),
            enforcement: CapacityEnforcement::RateBased,
            ..StreamProfile::default()
        };
        flows.push(Flow::bulk(*s, *r, 24 * 1024, 512, profile));
    }
    let acct = traffic::install(&mut sim, &Plan::from(flows), None);
    let end = sim.now() + SimDuration::from_secs(20);
    while sim.now() < end {
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        if sim.events_pending() == 0 {
            break;
        }
    }
    let rms_drops = sim.state.net.host(g1).ifaces[1].stats.overflow_drops.get();
    let rms_bytes = acct.borrow().class(Class::Bulk).bytes;
    println!(
        "RMS rate-enforced: {} gateway drops, {} KB delivered",
        rms_drops,
        rms_bytes / 1024
    );

    // --- TCP flows through the same bottleneck ---
    let (mut sim, senders, receivers, g1) = build();
    for (i, r) in receivers.iter().enumerate() {
        tcp::listen(&mut sim, *r, 8000 + i as u16);
    }
    let mut conns = Vec::new();
    for (i, (s, r)) in senders.iter().zip(receivers.iter()).enumerate() {
        conns.push((*s, tcp::connect(&mut sim, *s, *r, 8000 + i as u16)));
    }
    sim.run();
    for (s, c) in &conns {
        tcp::send(&mut sim, *s, *c, &vec![0u8; 64 * 1024]);
    }
    let end = sim.now() + SimDuration::from_secs(20);
    while sim.now() < end {
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        if sim.events_pending() == 0 {
            break;
        }
    }
    let tcp_drops = sim.state.net.host(g1).ifaces[1].stats.overflow_drops.get();
    let tcp_bytes: u64 = receivers
        .iter()
        .flat_map(|r| sim.state.tcp.host(*r).conns.values())
        .map(|c| c.stats.bytes_delivered.get())
        .sum();
    println!(
        "TCP + source quench: {} gateway drops, {} quenches, {} KB delivered",
        tcp_drops,
        sim.state.net.obs.registry.counter_value("net.quench_sent"),
        tcp_bytes / 1024
    );
    assert!(
        rms_drops < tcp_drops,
        "capacity enforcement should protect the gateway buffers"
    );
}
