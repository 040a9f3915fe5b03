//! Experiments regenerating the paper's five figures (all architecture
//! diagrams) as executable evidence: each runs the subsystem the figure
//! depicts and quantifies the claim attached to it. See DESIGN.md's
//! experiment index.

use std::cell::RefCell;
use std::rc::Rc;

use dash_apps::taps::Dispatcher;
use dash_apps::traffic::{self, Class, Flow, Plan};
use dash_net::topology::{dumbbell, TopologyBuilder};
use dash_net::NetworkSpec;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_subtransport::st::StConfig;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::rkom;
use dash_transport::stack::{Stack, StackBuilder};
use dash_transport::stream::{self, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;

use crate::table::{f, pct, secs, Table};

fn lan_stack() -> (Sim<Stack>, dash_net::HostId, dash_net::HostId) {
    let mut b = TopologyBuilder::new();
    let n = b.network(NetworkSpec::ethernet("lan"));
    let a = b.host_on(n);
    let c = b.host_on(n);
    (
        Sim::new(StackBuilder::new(b.build()).obs(true).build()),
        a,
        c,
    )
}

/// fig1_layering — the same upper stack runs unchanged over different
/// network types (Figure 1's network-independent / network-dependent
/// split).
pub fn fig1_layering() -> Table {
    let mut t = Table::new(
        "fig1_layering",
        "network-independent stack over interchangeable network-dependent parts",
        "the same RMS/ST/transport code runs over any network module; only performance differs",
    );
    t.columns(&[
        "network",
        "voice on-time",
        "voice mean delay",
        "bulk goodput",
        "bulk done",
    ]);
    for (name, which) in [
        ("ethernet-10M", 0),
        ("fast-lan-100M", 1),
        ("internet-dumbbell", 2),
    ] {
        let (mut sim, a, b) = match which {
            0 => lan_stack(),
            1 => {
                let mut tb = TopologyBuilder::new();
                let n = tb.network(NetworkSpec::fast_lan("fast"));
                let a = tb.host_on(n);
                let c = tb.host_on(n);
                (Sim::new(StackBuilder::new(tb.build()).build()), a, c)
            }
            _ => {
                let (net, a, b, _, _) = dumbbell();
                (Sim::new(StackBuilder::new(net).build()), a, b)
            }
        };
        // Relax the voice budget for the WAN case; the point here is that
        // the code runs, not that a WAN meets LAN deadlines.
        let (voice, class): (fn(_, _, _, _) -> Flow, _) = if which == 2 {
            (Flow::wan_voice, Class::WanVoice)
        } else {
            (Flow::voice, Class::Voice)
        };
        let plan = Plan::from(vec![
            voice(a, b, 0, SimDuration::from_secs(1)),
            Flow::bulk(a, b, 128 * 1024, 4 * 1024, StreamProfile::bulk()),
        ]);
        let acct = traffic::install(&mut sim, &plan, None);
        let done =
            traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(20));
        sim.run();
        let v = acct.borrow();
        t.row(vec![
            name.into(),
            pct(v.on_time_fraction(class)),
            secs(v.delays[class as usize].mean()),
            format!("{} B/s", f(v.goodput(Class::Bulk).unwrap_or(0.0))),
            done.to_string(),
        ]);
    }
    t.note("voice budget: 40 ms on LANs, 150 ms on the internet path");
    t
}

/// fig2_architecture — walk the whole Figure 2 stack once and account for
/// every layer's activity.
pub fn fig2_architecture() -> Table {
    let (net, a, b, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    let taps = Dispatcher::install(&mut sim, &[a, b]);
    // One RKOM call.
    let latency = Rc::new(RefCell::new(0.0f64));
    let l2 = Rc::clone(&latency);
    rkom::register_service(&mut sim.state, b, 9, |_s, _c, req| req);
    let t0 = sim.now();
    rkom::call(
        &mut sim,
        a,
        b,
        9,
        bytes::Bytes::from_static(b"walk"),
        move |sim, res| {
            assert!(res.is_ok());
            *l2.borrow_mut() = sim.now().saturating_since(t0).as_secs_f64();
        },
    );
    sim.run();
    // One stream message.
    let session = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
    let got = Rc::new(RefCell::new(0u64));
    let g2 = Rc::clone(&got);
    taps.register(session, move |_s, _delivery| *g2.borrow_mut() += 1);
    sim.run();
    stream::send(&mut sim, a, session, Message::zeroes(512)).unwrap();
    sim.run();

    let mut t = Table::new(
        "fig2_architecture",
        "one pass through the DASH communication architecture (Figure 2)",
        "stream protocols and RKOM ride on ST RMSs; the ST multiplexes onto network RMSs over a control channel",
    );
    t.columns(&["layer", "activity", "count"]);
    // Every count below comes from the cross-layer metric registry fed by
    // typed ObsEvents (dash_sim::obs), not from layer-private counters.
    let reg = &sim.state.net.obs.registry;
    t.row(vec![
        "transport/RKOM".into(),
        "call round-trip latency".into(),
        secs(*latency.borrow()),
    ]);
    t.row(vec![
        "transport/stream".into(),
        "messages delivered".into(),
        got.borrow().to_string(),
    ]);
    t.row(vec![
        "subtransport".into(),
        "control channels created".into(),
        reg.counter_value("st.control_created").to_string(),
    ]);
    t.row(vec![
        "subtransport".into(),
        "hello handshakes sent".into(),
        reg.counter_value("st.hello_sent").to_string(),
    ]);
    t.row(vec![
        "subtransport".into(),
        "ST RMS creates requested".into(),
        reg.counter_value("st.create_requested").to_string(),
    ]);
    t.row(vec![
        "subtransport".into(),
        "data network RMSs created".into(),
        reg.counter_value("st.cache_miss").to_string(),
    ]);
    t.row(vec![
        "subtransport".into(),
        "net messages sent".into(),
        reg.counter_value("st.net_msg_sent").to_string(),
    ]);
    t.row(vec![
        "network".into(),
        "packets sent".into(),
        reg.counter_value("net.packet_sent").to_string(),
    ]);
    t.row(vec![
        "network".into(),
        "packets delivered".into(),
        reg.counter_value("net.packet_delivered").to_string(),
    ]);
    t
}

/// fig3_rms_levels — the delay bound of a high-level RMS decomposes into
/// per-stage budgets (Figure 3, §3.4, §4.1).
pub fn fig3_rms_levels() -> Table {
    fig3_run().0
}

/// [`fig3_rms_levels`] plus the full metric registry as JSON Lines (one
/// object per counter/histogram) for machine consumption.
pub fn fig3_rms_levels_json() -> (Table, String) {
    fig3_run()
}

fn fig3_run() -> (Table, String) {
    // Piggybacking off: bundles would skew the per-stage delay attribution
    // (a bundle's network delay is measured from its oldest component).
    let config = StConfig {
        piggyback: false,
        ..StConfig::default()
    };
    // Two parallel LANs with both hosts dual-homed: the measurement runs
    // on one, and the closing fault drill fails it over to the other.
    let mut tb = TopologyBuilder::new();
    let n = tb.network(NetworkSpec::ethernet("lan"));
    let n2 = tb.network(NetworkSpec::ethernet("backup"));
    let a = tb.host();
    let b = tb.host();
    tb.attach(a, n).attach(a, n2).attach(b, n).attach(b, n2);
    let mut sim = Sim::new(
        StackBuilder::new(tb.build())
            .st_config(config)
            .obs(true)
            .retain_spans(true)
            .build(),
    );
    let taps = Dispatcher::install(&mut sim, &[a, b]);
    let profile = StreamProfile {
        max_message: 512,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(50),
            SimDuration::from_micros(10),
        ),
        ..StreamProfile::default()
    };
    let session = stream::open(&mut sim, a, b, profile).unwrap();
    let delays = Rc::new(RefCell::new(Vec::new()));
    let d2 = Rc::clone(&delays);
    taps.register(session, move |_s, ev| {
        d2.borrow_mut().push(ev.delay.as_secs_f64())
    });
    sim.run();
    for _ in 0..200 {
        let _ = stream::send(&mut sim, a, session, Message::zeroes(400));
        sim.run_until(sim.now() + SimDuration::from_millis(2));
    }
    sim.run();

    // Stage budgets: the ST negotiated bound vs the network RMS bound.
    let st_bound = sim
        .state
        .st
        .host(a)
        .streams
        .values()
        .find(|s| s.role == dash_subtransport::StRole::Sender)
        .map(|s| s.params.delay.bound_for(430))
        .unwrap_or(SimDuration::ZERO);
    let net_bound = sim
        .state
        .st
        .host(a)
        .peers
        .get(&b)
        .and_then(|p| p.data.values().next())
        .map(|d| d.params.delay.bound_for(460))
        .unwrap_or(SimDuration::ZERO);
    // Measured: every latency below comes from message lifecycle spans
    // (dash_sim::obs) — each delivered message carried a span id from the
    // transport send through ST, the interface queue, and the wire to port
    // delivery, and the registry aggregated the per-stage intervals.
    let spans_completed = sim.state.net.obs.spans().len();
    let delivered_in_measurement = delays.borrow().len();
    let app_mean = {
        let ds = delays.borrow();
        ds.iter().sum::<f64>() / ds.len().max(1) as f64
    };
    let (net_mean, st_mean, e2e_mean) = {
        let reg = &mut sim.state.net.obs.registry;
        (
            reg.histogram("span.net").mean(),
            reg.histogram("span.st").mean(),
            reg.histogram("span.e2e").mean(),
        )
    };

    // Fault drill (after the delay measurement is captured): fail the
    // stream's carrier network mid-traffic and restore it, so the JSON
    // registry dump carries the per-fault-kind counters and the
    // recovery-latency histogram next to the delay decomposition.
    let carrier = sim
        .state
        .net
        .host(a)
        .rms
        .values()
        .next()
        .map(|r| r.path[0])
        .unwrap_or(dash_net::NetworkId(0));
    for _ in 0..3 {
        let _ = stream::send(&mut sim, a, session, Message::zeroes(400));
        sim.run_until(sim.now() + SimDuration::from_millis(2));
    }
    dash_net::fault::apply_fault(
        &mut sim,
        &dash_sim::FaultKind::NetworkDown { network: carrier.0 },
    );
    for _ in 0..5 {
        let _ = stream::send(&mut sim, a, session, Message::zeroes(400));
        sim.run_until(sim.now() + SimDuration::from_millis(2));
    }
    sim.run();
    dash_net::fault::apply_fault(
        &mut sim,
        &dash_sim::FaultKind::NetworkUp { network: carrier.0 },
    );
    sim.run();

    let reg = &mut sim.state.net.obs.registry;
    let recovery_mean = reg.histogram("fault.recovery_latency").mean();

    let mut t = Table::new(
        "fig3_rms_levels",
        "delay decomposition across RMS levels (Figure 3)",
        "an upper-level RMS's delay bound is divided among stages; each stage's measured delay fits its budget",
    );
    t.columns(&["stage", "budget (bound)", "measured mean"]);
    t.row(vec![
        "network RMS".into(),
        secs(net_bound.as_secs_f64()),
        secs(net_mean),
    ]);
    t.row(vec![
        "ST RMS (adds queueing+cpu)".into(),
        secs(st_bound.as_secs_f64()),
        secs(st_mean),
    ]);
    t.row(vec![
        "span end-to-end".into(),
        secs(st_bound.as_secs_f64()),
        secs(e2e_mean),
    ]);
    t.row(vec![
        "client-observed".into(),
        secs(st_bound.as_secs_f64()),
        secs(app_mean),
    ]);
    // Per-stage budget table: consecutive span intervals. Stage names come
    // from Stage::interval(); each row is the latency from that stage to
    // the next one the message passed through.
    for (interval, label) in [
        ("transport", "  transport send -> ST send"),
        ("st_tx", "  ST send -> net send"),
        ("net_tx", "  net send -> iface enqueue"),
        ("queue", "  iface queue wait"),
        ("wire", "  wire + propagation"),
        ("st_rx", "  net recv -> port delivery"),
    ] {
        let name = format!("span.stage.{interval}");
        if reg.has_histogram(&name) {
            t.row(vec![
                label.into(),
                "-".into(),
                secs(reg.histogram(&name).mean()),
            ]);
        }
    }
    t.note(format!(
        "messages delivered: {delivered_in_measurement} (lifecycle spans completed: {spans_completed})"
    ));
    t.note("invariant: measured(network) <= measured(ST) <= ST bound");
    t.note(format!(
        "fault drill: carrier network failed and restored; ST failover recovered in mean {}",
        secs(recovery_mean)
    ));
    let json = reg.to_json_lines();
    (t, json)
}

/// fig4_multiplexing — piggybacking and upward multiplexing (Figure 4,
/// §4.2, §4.3.1).
pub fn fig4_multiplexing() -> Table {
    let mut t = Table::new(
        "fig4_multiplexing",
        "ST RMSs multiplexed onto one network RMS, with piggybacking",
        "piggybacking combines messages from multiplexed ST RMSs into single network messages, cutting per-message overhead",
    );
    t.columns(&[
        "piggyback",
        "msg interval",
        "client msgs",
        "net msgs",
        "net msgs/client msg",
        "bundled",
        "mean delay",
    ]);
    for piggyback in [false, true] {
        for interval_us in [200u64, 1_000, 5_000] {
            let config = StConfig {
                piggyback,
                piggyback_slack: SimDuration::from_millis(2),
                ..StConfig::default()
            };
            let mut b = TopologyBuilder::new();
            let n = b.network(NetworkSpec::ethernet("lan"));
            let ha = b.host_on(n);
            let hb = b.host_on(n);
            let mut sim = Sim::new(
                StackBuilder::new(b.build())
                    .st_config(StConfig { ..config })
                    .obs(true)
                    .build(),
            );
            let taps = Dispatcher::install(&mut sim, &[ha, hb]);
            // Three ST streams multiplexed onto one data network RMS.
            let profile = StreamProfile {
                capacity: 8 * 1024,
                max_message: 128,
                delay: DelayBound::best_effort_with(
                    SimDuration::from_millis(50),
                    SimDuration::from_micros(10),
                ),
                ..StreamProfile::default()
            };
            let sessions: Vec<u64> = (0..3)
                .map(|_| stream::open(&mut sim, ha, hb, profile.clone()).unwrap())
                .collect();
            let delays = Rc::new(RefCell::new(Vec::new()));
            for &s in &sessions {
                let d2 = Rc::clone(&delays);
                taps.register(s, move |_s, ev| {
                    d2.borrow_mut().push(ev.delay.as_secs_f64())
                });
            }
            sim.run();
            let base_msgs = sim.state.net.obs.registry.counter_value("st.net_msg_sent");
            let n_msgs = 300usize;
            for i in 0..n_msgs {
                let s = sessions[i % 3];
                let _ = stream::send(&mut sim, ha, s, Message::zeroes(64));
                sim.run_until(sim.now() + SimDuration::from_nanos(interval_us * 1_000));
            }
            sim.run();
            let reg = &sim.state.net.obs.registry;
            let net_msgs = reg.counter_value("st.net_msg_sent") - base_msgs;
            let bundled = reg.counter_value("st.msg_bundled");
            let ds = delays.borrow();
            let mean = ds.iter().sum::<f64>() / ds.len().max(1) as f64;
            t.row(vec![
                piggyback.to_string(),
                format!("{}us", interval_us),
                n_msgs.to_string(),
                net_msgs.to_string(),
                f(net_msgs as f64 / n_msgs as f64),
                bundled.to_string(),
                secs(mean),
            ]);
        }
    }
    t.note("same 3 ST RMSs share one network RMS in every row (cache hits = 2)");
    t.note("expected shape: piggybacking cuts net msgs/client msg at high rates, at a small delay cost");
    t
}

/// fig5_flow_control — the cost of each flow-control option (Figure 5,
/// §4.4).
pub fn fig5_flow_control() -> Table {
    let mut t = Table::new(
        "fig5_flow_control",
        "flow-control options and what each one costs",
        "mechanisms are separable; unnecessary ones can be omitted, saving reverse traffic and latency",
    );
    t.columns(&[
        "mechanisms",
        "done",
        "transfer time",
        "goodput",
        "reverse msgs",
        "sender blocked",
        "delivered",
    ]);
    let cases: Vec<(&str, StreamProfile)> = vec![
        ("none", {
            StreamProfile {
                max_message: 1024,
                capacity: 32 * 1024,
                ..StreamProfile::default()
            }
        }),
        ("rate-based capacity", {
            StreamProfile {
                max_message: 1024,
                capacity: 32 * 1024,
                enforcement: CapacityEnforcement::RateBased,
                ..StreamProfile::default()
            }
        }),
        ("ack-based capacity (fast acks)", {
            StreamProfile {
                max_message: 1024,
                capacity: 32 * 1024,
                enforcement: CapacityEnforcement::AckBased,
                ..StreamProfile::default()
            }
        }),
        ("capacity+receiver-fc+reliable (end-to-end)", {
            let mut p = StreamProfile::bulk();
            p.max_message = 1024;
            p.capacity = 32 * 1024;
            p
        }),
    ];
    for (name, profile) in cases {
        let (mut sim, a, b) = lan_stack();
        let plan = Plan::from(vec![Flow::bulk(a, b, 256 * 1024, 1024, profile)]);
        let acct = traffic::install(&mut sim, &plan, None);
        let done =
            traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(30));
        sim.run();
        let s = acct.borrow();
        let (reverse, blocked, delivered) = {
            let reg = &sim.state.net.obs.registry;
            let acks = reg.counter_value("stream.ack_sent");
            let fast = reg.counter_value("st.fast_ack_sent");
            let blocked = reg.counter_value("stream.sender_blocked");
            let delivered = reg.counter_value("stream.deliver");
            (acks + fast, blocked, delivered)
        };
        t.row(vec![
            name.into(),
            done.to_string(),
            secs(s.transfer_secs(Class::Bulk).unwrap_or(f64::NAN)),
            format!("{} B/s", f(s.goodput(Class::Bulk).unwrap_or(0.0))),
            reverse.to_string(),
            blocked.to_string(),
            delivered.to_string(),
        ]);
    }
    t.note("'reverse msgs' counts transport acks + ST fast acknowledgements");
    t.note("expected shape: 'none' is fastest on a clean LAN but offers no guarantees; each mechanism adds reverse traffic or pacing delay");
    t
}
