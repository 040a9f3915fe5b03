//! e7_rkom — request/reply and stream performance vs the TCP-like baseline
//! on a high-delay path (§1, §3.3); e8_congestion — RMS capacity
//! enforcement vs TCP + source quench through a shared gateway (§4.4).
//! Both race the baseline as plan words ([`TcpFlow`]) beside their RMS
//! counterparts, each leg its own scenario.

use dash_apps::scenario::{Outcome, Scenario};
use dash_apps::traffic::{Acct, Flow, Plan, RpcFlow, Tally, TcpFlow, TcpWork};
use dash_baseline::TcpConfig;
use dash_net::state::NetState;
use dash_net::topology::{dumbbell, TopologyBuilder};
use dash_net::{HostId, NetworkSpec};
use dash_sim::obs::ObsEvent;
use dash_sim::time::SimDuration;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::table::{f, secs, Table};

/// e7's bulk transfer, bytes.
const E7_BULK: u64 = 512 * 1024;

/// e7_rkom's legs, each alone on the dumbbell's high-delay path: RKOM at
/// 20 calls/s for 3 s, 50 sequential calls over one TCP connection, and
/// 512 KiB over an RMS bulk stream and over one TCP connection.
pub fn e7_scenarios() -> Vec<Scenario> {
    let (_, a, b, _, _) = dumbbell();
    let tcp = |work| Plan {
        tcp: vec![TcpFlow {
            client: a,
            server: b,
            work,
        }],
        ..Plan::default()
    };
    let rkom = Plan {
        rpcs: vec![RpcFlow {
            client: a,
            server: b,
            service: 0x0101,
            calls: 60,
            interval: SimDuration::from_millis(50),
            start: SimDuration::ZERO,
            request: 64,
            reply: 256,
        }],
        ..Plan::default()
    };
    let stream = Plan::from(vec![Flow::bulk(
        a,
        b,
        E7_BULK,
        4 * 1024,
        StreamProfile::bulk(),
    )]);
    let rpc = TcpWork::Rpc {
        calls: 50,
        request: 64,
        reply: 256,
    };
    [rkom, tcp(rpc), stream, tcp(TcpWork::Bulk(E7_BULK))]
        .into_iter()
        .map(|plan| Scenario::new(|| dumbbell().0, plan, SimDuration::from_secs(10)))
        .collect()
}

/// e7's table from the outcomes of [`e7_scenarios`].
pub fn e7_table(outs: &[Outcome]) -> Table {
    let mut t = Table::new(
        "e7_rkom",
        "request/reply and streaming on a high-delay path: RMS stack vs TCP baseline",
        "§1: request/reply primitives cannot efficiently provide stream-style communication on high-delay networks; §3.3: RKOM exploits RMS features",
    );
    t.columns(&["workload", "protocol", "result", "detail"]);
    for (protocol, o) in ["RKOM", "TCP sequential"].into_iter().zip(outs) {
        let mut calls: Tally = o.acct.rpcs.values().chain(o.acct.tcp.values()).sum();
        t.row(vec![
            "RPC (64B→256B)".into(),
            protocol.into(),
            format!("mean {}", secs(calls.delays.mean())),
            format!(
                "{} calls, p99 {}",
                calls.received,
                secs(calls.delays.quantile(0.99))
            ),
        ]);
    }
    for (protocol, o) in ["RMS stream", "TCP"].into_iter().zip(&outs[2..]) {
        let bulk: Tally = transfers(&o.acct).sum();
        t.row(vec![
            "bulk 512KB".into(),
            protocol.into(),
            format!("{} B/s", f(bulk.goodput().unwrap_or(0.0))),
            format!("{} of {E7_BULK} bytes", bulk.bytes),
        ]);
    }
    t.note("path: Ethernet → 1.5 Mb/s, 30 ms one-way WAN → Ethernet");
    t.note("RPC latency counts from each call's send, after the TCP handshake; bulk goodput is delivered bytes over first send to last delivery");
    t.note("expected shape: RKOM RPC ≈ TCP RPC once connected (both one round trip), but RKOM needs no per-conversation handshake; streams beat sequential request/reply for bulk on long-delay paths");
    t
}

/// A leg's transfers: its stream flows, then its TCP connections.
fn transfers(a: &Acct) -> impl Iterator<Item = &Tally> {
    a.flows.values().chain(a.tcp.values())
}

/// e8's internetwork: three senders on `lan-a`, its gateway onto a slow
/// 400 kb/s WAN with 16 KB transmit buffers, a second gateway onto
/// `lan-b` and three receivers. Returns `(net, senders, receivers,
/// bottleneck gateway)`.
fn e8_net() -> (NetState, Vec<HostId>, Vec<HostId>, HostId) {
    let mut b = TopologyBuilder::new();
    let lan_a = b.network(NetworkSpec::ethernet("lan-a"));
    let mut wan = NetworkSpec::long_haul("wan");
    wan.rate_bps = 400_000.0;
    wan.drop_prob = 0.0;
    wan.caps.raw_ber = 0.0;
    let wan = b.network(wan);
    let lan_b = b.network(NetworkSpec::ethernet("lan-b"));
    let senders: Vec<HostId> = (0..3).map(|_| b.host_on(lan_a)).collect();
    let gateway = b.gateway(lan_a, wan);
    b.gateway(wan, lan_b);
    let receivers: Vec<HostId> = (0..3).map(|_| b.host_on(lan_b)).collect();
    b.iface_queue_limit(Some(16 * 1024));
    (b.build(), senders, receivers, gateway)
}

/// e8's rows: RMS or TCP, and whether TCP reacts to source quench.
const E8_ROWS: [(&str, bool); 3] = [
    ("RMS rate-enforced", false),
    ("TCP + quench reaction", true),
    ("TCP ignoring quench", false),
];

/// e8_congestion — three senders share the bottleneck gateway: 24 KB
/// each over admitted, rate-enforced RMS streams, or 96 KB each over TCP
/// with and without source-quench reaction.
pub fn e8_scenarios() -> Vec<Scenario> {
    let (_, senders, receivers, _) = e8_net();
    let pairs = || senders.iter().copied().zip(receivers.iter().copied());
    let profile = StreamProfile {
        // The capacity is each flow's burst allowance (§2.2): sized so the
        // three flows' worst-case bursts fit the gateway's 16 KB buffer —
        // exactly the reservation a deterministic RMS would have made.
        capacity: 4 * 1024,
        max_message: 512,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(1200),
            // The 400 kb/s bottleneck costs 20 us/B alone; leave head room
            // for the LAN hops and ST stage.
            SimDuration::from_micros(40),
        ),
        enforcement: CapacityEnforcement::RateBased,
        ..StreamProfile::default()
    };
    let rms = Plan::from(
        pairs()
            .map(|(s, r)| Flow::bulk(s, r, 24 * 1024, 512, profile.clone()))
            .collect::<Vec<_>>(),
    );
    let tcp = Plan {
        tcp: pairs()
            .map(|(client, server)| TcpFlow {
                client,
                server,
                work: TcpWork::Bulk(96 * 1024),
            })
            .collect(),
        ..Plan::default()
    };
    E8_ROWS
        .into_iter()
        .enumerate()
        .map(|(i, (_, quench_reacts))| Scenario {
            tcp: TcpConfig {
                quench_reacts,
                rto: SimDuration::from_millis(500),
                ..TcpConfig::default()
            },
            // e8_table counts the gateway's drop events.
            keep_events: true,
            ..Scenario::new(
                || e8_net().0,
                if i == 0 { rms.clone() } else { tcp.clone() },
                SimDuration::from_secs(25),
            )
        })
        .collect()
}

/// e8's table from the outcomes of [`e8_scenarios`]: gateway overflow
/// drops are the `IfaceDrop` events at the bottleneck gateway.
pub fn e8_table(outs: &[Outcome]) -> Table {
    let mut t = Table::new(
        "e8_congestion",
        "congestion at a shared gateway: RMS capacity enforcement vs source quench",
        "§4.4: RMS capacity protects gateway buffers by construction; ICMP source quench is 'an ad hoc and often ineffective solution'",
    );
    t.columns(&[
        "scenario",
        "gateway overflow drops",
        "quenches",
        "total goodput",
        "per-flow goodput",
        "all delivered",
    ]);
    let gateway = e8_net().3;
    for ((label, _), o) in E8_ROWS.into_iter().zip(outs) {
        let drops = (o.stream.iter())
            .filter(|(_, e)| matches!(e, ObsEvent::IfaceDrop { host, .. } if *host == gateway.0))
            .count();
        let total: Tally = transfers(&o.acct).sum();
        let shares: Vec<String> = transfers(&o.acct)
            .map(|t| f(t.goodput().unwrap_or(0.0)))
            .collect();
        t.row(vec![
            label.into(),
            drops.to_string(),
            o.registry.counter_value("net.quench_sent").to_string(),
            format!("{} B/s", f(total.goodput().unwrap_or(0.0))),
            format!("{} B/s", shares.join(" / ")),
            total.complete().to_string(),
        ]);
    }
    t.note("bottleneck: 400 kb/s WAN behind a gateway with 16 KB transmit buffers; RMS flows move 24 KB each, TCP flows 96 KB each");
    t.note("total goodput is the three flows' delivered bytes over the first send to the last delivery of any; each per-flow share is one flow's bytes over its own first send to last delivery");
    t.note("expected shape: rate-enforced RMS flows produce ~zero gateway drops; TCP overruns the gateway, and ignoring quench drops most");
    t
}
