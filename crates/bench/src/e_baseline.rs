//! e7_rkom — request/reply and stream performance vs the TCP-like baseline
//! on a high-delay path (§1, §3.3); e8_congestion — RMS capacity
//! enforcement vs TCP + source quench through a shared gateway (§4.4).

use std::cell::RefCell;
use std::rc::Rc;

use dash_apps::rpc::run_tcp_rpc;
use dash_apps::traffic::{self, Class, Flow, Plan, RpcFlow};
use dash_baseline::tcp;
use dash_net::topology::{dumbbell, TopologyBuilder};
use dash_net::{HostId, NetworkSpec};
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::table::{f, secs, Table};

/// e7_rkom — RKOM vs sequential TCP RPC, and RMS stream vs TCP stream, on
/// the high-delay internet path.
pub fn e7_rkom() -> Table {
    let mut t = Table::new(
        "e7_rkom",
        "request/reply and streaming on a high-delay path: RMS stack vs TCP baseline",
        "§1: request/reply primitives cannot efficiently provide stream-style communication on high-delay networks; §3.3: RKOM exploits RMS features",
    );
    t.columns(&["workload", "protocol", "result", "detail"]);

    // --- RPC latency: RKOM at 20 calls/s for 3 s, then 50 sequential
    // calls over one TCP connection; both fill the same accounting ---
    for protocol in ["RKOM", "TCP sequential"] {
        let (net, a, b, _, _) = dumbbell();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let acct = if protocol == "RKOM" {
            let plan = Plan {
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
            traffic::install(&mut sim, &plan, None)
        } else {
            run_tcp_rpc(&mut sim, a, b, 80, 50, 64, 256)
        };
        sim.run();
        let s = acct.borrow();
        let mut lat = s.rpc_latency.clone();
        t.row(vec![
            "RPC (64B→256B)".into(),
            protocol.into(),
            format!("mean {}", secs(lat.mean())),
            format!(
                "{} calls, p99 {}",
                s.rpc_completed,
                secs(lat.quantile(0.99))
            ),
        ]);
    }

    // --- Bulk throughput on the long-fat path ---
    {
        let (net, a, b, _, _) = dumbbell();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let plan = Plan::from(vec![Flow::bulk(
            a,
            b,
            512 * 1024,
            4 * 1024,
            StreamProfile::bulk(),
        )]);
        let acct = traffic::install(&mut sim, &plan, None);
        let done =
            traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(60));
        let goodput = acct.borrow().goodput(Class::Bulk).unwrap_or(0.0);
        t.row(vec![
            "bulk 512KB".into(),
            "RMS stream".into(),
            format!("{} B/s", f(goodput)),
            format!("complete: {done}"),
        ]);
    }
    {
        let (net, a, b, _, _) = dumbbell();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let done_bytes = Rc::new(RefCell::new(0u64));
        let d2 = Rc::clone(&done_bytes);
        sim.state.on_tcp(move |sim, host, ev| {
            if let tcp::TcpEvent::Data { conn, bytes } = ev {
                *d2.borrow_mut() += bytes;
                if let Some(c) = sim.state.tcp.conn_mut(host, conn) {
                    let _ = c.read();
                }
            }
        });
        tcp::listen(&mut sim, b, 80);
        let conn = tcp::connect(&mut sim, a, b, 80);
        sim.run();
        let t0 = sim.now();
        tcp::send(&mut sim, a, conn, &vec![0u8; 512 * 1024]);
        // Bounded drive.
        let end = t0 + SimDuration::from_secs(60);
        while sim.now() < end && *done_bytes.borrow() < 512 * 1024 {
            sim.run_until(sim.now() + SimDuration::from_millis(100));
            if sim.events_pending() == 0 {
                break;
            }
        }
        let got = *done_bytes.borrow();
        let dt = sim.now().saturating_since(t0).as_secs_f64();
        t.row(vec![
            "bulk 512KB".into(),
            "TCP".into(),
            format!("{} B/s", f(got as f64 / dt.max(1e-9))),
            format!("{} of {} bytes", got, 512 * 1024),
        ]);
    }
    t.note("path: Ethernet → 1.5 Mb/s, 30 ms one-way WAN → Ethernet");
    t.note("expected shape: RKOM RPC ≈ TCP RPC once connected (both one round trip), but RKOM needs no per-conversation handshake; streams beat sequential request/reply for bulk on long-delay paths");
    t
}

/// e8_congestion — a shared bottleneck gateway: admitted, rate-enforced RMS
/// streams vs TCP with / without source-quench reaction.
pub fn e8_congestion() -> Table {
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
    ]);

    let build = || -> (Sim<Stack>, Vec<HostId>, Vec<HostId>, HostId) {
        let mut b = TopologyBuilder::new();
        let lan_a = b.network(NetworkSpec::ethernet("lan-a"));
        let mut wan = NetworkSpec::long_haul("wan");
        wan.rate_bps = 400_000.0; // slow bottleneck
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
    };

    // Scenario A: RMS streams with rate-based capacity enforcement sized to
    // share the bottleneck (3 × 16 KB / 1 s ≈ 48 KB/s < 50 KB/s wire).
    {
        let (mut sim, senders, receivers, g1) = build();
        // One plan per sender/receiver pair, so each flow has its own
        // accounting (the pairs share no host).
        let mut flows = Vec::new();
        for (s, r) in senders.iter().zip(receivers.iter()) {
            let profile = StreamProfile {
                // The capacity is each flow's burst allowance (§2.2): sized
                // so the three flows' worst-case bursts fit the gateway's
                // 16 KB buffer — exactly the reservation a deterministic RMS
                // would have made.
                capacity: 4 * 1024,
                max_message: 512,
                delay: DelayBound::best_effort_with(
                    SimDuration::from_millis(1200),
                    // The 400 kb/s bottleneck costs 20 us/B alone; leave
                    // head room for the LAN hops and ST stage.
                    SimDuration::from_micros(40),
                ),
                enforcement: CapacityEnforcement::RateBased,
                ..StreamProfile::default()
            };
            let plan = Plan::from(vec![Flow::bulk(*s, *r, 24 * 1024, 512, profile)]);
            flows.push(traffic::install(&mut sim, &plan, None));
        }
        let end = sim.now() + SimDuration::from_secs(25);
        while sim.now() < end {
            sim.run_until(sim.now() + SimDuration::from_millis(100));
            if sim.events_pending() == 0 {
                break;
            }
        }
        let drops = sim.state.net.host(g1).ifaces[1].stats.overflow_drops.get();
        let elapsed = sim.now().as_secs_f64();
        let per_flow: Vec<f64> = flows
            .iter()
            .map(|f2| f2.borrow().bytes[Class::Bulk as usize] as f64 / elapsed)
            .collect();
        let total: f64 = per_flow.iter().sum();
        t.row(vec![
            "RMS rate-enforced".into(),
            drops.to_string(),
            sim.state
                .net
                .obs
                .registry
                .counter_value("net.quench_sent")
                .to_string(),
            format!("{} B/s", f(total)),
            per_flow
                .iter()
                .map(|x| f(*x))
                .collect::<Vec<_>>()
                .join(" / "),
        ]);
    }

    // Scenarios B and C: TCP flows with and without quench reaction.
    for (name, reacts) in [
        ("TCP + quench reaction", true),
        ("TCP ignoring quench", false),
    ] {
        let (mut sim, senders, receivers, g1) = build();
        sim.state.tcp.config.quench_reacts = reacts;
        sim.state.tcp.config.rto = SimDuration::from_millis(500);
        let delivered: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; 3]));
        let conn_index: Rc<RefCell<std::collections::HashMap<u64, usize>>> =
            Rc::new(RefCell::new(std::collections::HashMap::new()));
        {
            let delivered = Rc::clone(&delivered);
            let conn_index = Rc::clone(&conn_index);
            sim.state.on_tcp(move |sim, host, ev| {
                if let tcp::TcpEvent::Data { conn, bytes } = ev {
                    if let Some(&i) = conn_index.borrow().get(&conn) {
                        delivered.borrow_mut()[i] += bytes;
                    }
                    if let Some(c) = sim.state.tcp.conn_mut(host, conn) {
                        let _ = c.read();
                    }
                }
            });
        }
        for (i, r) in receivers.iter().enumerate() {
            tcp::listen(&mut sim, *r, 8000 + i as u16);
        }
        let mut conns = Vec::new();
        for (i, (s, r)) in senders.iter().zip(receivers.iter()).enumerate() {
            let c = tcp::connect(&mut sim, *s, *r, 8000 + i as u16);
            conns.push((*s, c));
        }
        sim.run();
        // Server-side accepted connections also produce Data events; map
        // them by scanning each receiver's connections.
        for (i, r) in receivers.iter().enumerate() {
            for (id, _) in sim.state.tcp.host(*r).conns.iter() {
                conn_index.borrow_mut().insert(*id, i);
            }
        }
        for (s, c) in &conns {
            tcp::send(&mut sim, *s, *c, &vec![0u8; 96 * 1024]);
        }
        let end = sim.now() + SimDuration::from_secs(10);
        while sim.now() < end {
            sim.run_until(sim.now() + SimDuration::from_millis(100));
            if sim.events_pending() == 0 {
                break;
            }
        }
        let drops = sim.state.net.host(g1).ifaces[1].stats.overflow_drops.get();
        let elapsed = sim.now().as_secs_f64();
        let per_flow: Vec<f64> = delivered
            .borrow()
            .iter()
            .map(|b| *b as f64 / elapsed)
            .collect();
        let total: f64 = per_flow.iter().sum();
        t.row(vec![
            name.into(),
            drops.to_string(),
            sim.state
                .net
                .obs
                .registry
                .counter_value("net.quench_sent")
                .to_string(),
            format!("{} B/s", f(total)),
            per_flow
                .iter()
                .map(|x| f(*x))
                .collect::<Vec<_>>()
                .join(" / "),
        ]);
    }
    t.note("bottleneck: 400 kb/s WAN behind a gateway with 16 KB transmit buffers; RMS flows move 24 KB each, TCP flows 96 KB each");
    t.note("expected shape: rate-enforced RMS flows produce ~zero gateway drops; TCP overruns the gateway, and ignoring quench drops most");
    t
}
