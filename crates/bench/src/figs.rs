//! Experiments regenerating the paper's five figures (all architecture
//! diagrams) as executable evidence: each runs the subsystem the figure
//! depicts and quantifies the claim attached to it. See DESIGN.md's
//! experiment index.

use dash_apps::scenario::{Outcome, Scenario};
use dash_apps::traffic::{Class, Flow, Plan, RpcFlow};
use dash_net::state::NetConfig;
use dash_net::topology::{dual_homed, dumbbell, two_hosts_ethernet};
use dash_net::{NetworkId, NetworkSpec};
use dash_sim::fault::FaultPlan;
use dash_sim::obs::MetricRegistry;
use dash_sim::time::SimDuration;
use dash_subtransport::st::StConfig;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::stream::StreamProfile;
use rms_core::delay::DelayBound;

use crate::mix::outage_drill;
use crate::table::{f, pct, secs, Table};
use crate::{best_effort, lan, paced, run_checked, A, B, SERIAL};

/// The networks fig1 runs over, by row.
const FIG1_NETWORKS: [&str; 3] = ["ethernet-10M", "fast-lan-100M", "internet-dumbbell"];

/// fig1_layering — the same upper stack runs unchanged over different
/// network types (Figure 1's network-independent / network-dependent
/// split): a second of voice and a 128 KiB transfer over each of
/// `FIG1_NETWORKS`.
pub fn fig1_scenarios() -> Vec<Scenario> {
    let plan = |voice: Flow| {
        let bulk = Flow::bulk(
            voice.src,
            voice.dst,
            128 << 10,
            4 << 10,
            StreamProfile::bulk(),
        );
        Plan::from(vec![voice, bulk])
    };
    let (second, length) = (SimDuration::from_secs(1), SimDuration::from_secs(5));
    let fast = lan(NetworkSpec::fast_lan("fast"), NetConfig::default());
    // The WAN row's voice asks for a budget a WAN can meet: the point is
    // that the code runs, not that a WAN meets LAN deadlines.
    let (_, a, b, _, _) = dumbbell();
    let wan_voice = Flow {
        class: Class::Voice,
        ..Flow::wan_voice(a, b, 0, second)
    };
    vec![
        Scenario::new(
            || two_hosts_ethernet().0,
            plan(Flow::voice(A, B, 0, second)),
            length,
        ),
        Scenario::new(fast, plan(Flow::voice(A, B, 0, second)), length),
        Scenario::new(|| dumbbell().0, plan(wan_voice), length),
    ]
}

/// fig1's table from the outcomes of [`fig1_scenarios`].
pub fn fig1_table(outs: &[Outcome]) -> Table {
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
    for (name, o) in FIG1_NETWORKS.into_iter().zip(outs) {
        let (voice, bulk) = (o.acct.class(Class::Voice), o.acct.class(Class::Bulk));
        t.row(vec![
            name.into(),
            pct(voice.on_time_fraction()),
            secs(voice.delays.mean()),
            format!("{} B/s", f(bulk.goodput().unwrap_or(0.0))),
            bulk.complete().to_string(),
        ]);
    }
    t.note("voice budget: 40 ms on LANs, 150 ms on the internet path");
    t
}

/// fig2_architecture — walk the whole Figure 2 stack once and account for
/// every layer's activity: one RKOM call across the dumbbell, then one
/// stream message once the call is answered.
pub fn fig2_scenarios() -> Vec<Scenario> {
    let (_, a, b, _, _) = dumbbell();
    let rpc = RpcFlow {
        client: a,
        server: b,
        service: 9,
        calls: 1,
        interval: SimDuration::from_millis(1),
        start: SimDuration::ZERO,
        request: 4,
        reply: 4,
    };
    let message = Flow {
        start: SimDuration::from_secs(1),
        len: 512,
        profile: StreamProfile::default(),
        ..Flow::voice(a, b, 0, SimDuration::ZERO)
    };
    let plan = Plan {
        flows: vec![message],
        rpcs: vec![rpc],
        ..Plan::default()
    };
    vec![Scenario::new(
        || dumbbell().0,
        plan,
        SimDuration::from_secs(3),
    )]
}

/// fig2's table from the outcome of [`fig2_scenarios`].
pub fn fig2_table(outs: &[Outcome]) -> Table {
    let mut t = Table::new(
        "fig2_architecture",
        "one pass through the DASH communication architecture (Figure 2)",
        "stream protocols and RKOM ride on ST RMSs; the ST multiplexes onto network RMSs over a control channel",
    );
    t.columns(&["layer", "activity", "count"]);
    // Every count below comes from the cross-layer metric registry fed by
    // typed ObsEvents (dash_sim::obs), not from layer-private counters.
    let (a, reg) = (&outs[0].acct, &outs[0].registry);
    let delivered = a.flows[&0].received.to_string();
    let rtt = secs(a.rpcs[&0].delays.mean());
    t.row(vec![
        "transport/RKOM".into(),
        "call round-trip latency".into(),
        rtt,
    ]);
    t.row(vec![
        "transport/stream".into(),
        "messages delivered".into(),
        delivered,
    ]);
    for (layer, activity, counter) in [
        (
            "subtransport",
            "control channels created",
            "st.control_created",
        ),
        ("subtransport", "hello handshakes sent", "st.hello_sent"),
        (
            "subtransport",
            "ST RMS creates requested",
            "st.create_requested",
        ),
        ("subtransport", "data network RMSs created", "st.cache_miss"),
        ("subtransport", "net messages sent", "st.net_msg_sent"),
        ("network", "packets sent", "net.packet_sent"),
        ("network", "packets delivered", "net.packet_delivered"),
    ] {
        let count = reg.counter_value(counter).to_string();
        t.row(vec![layer.into(), activity.into(), count]);
    }
    t
}

/// fig3's subtransport: piggybacking off, since bundles would skew the
/// per-stage delay attribution (a bundle's network delay is measured from
/// its oldest component).
fn fig3_st() -> StConfig {
    StConfig {
        piggyback: false,
        ..StConfig::default()
    }
}

/// fig3's stream: 512 B messages under a 50 ms + 10 µs/B best-effort bound.
fn fig3_profile() -> StreamProfile {
    StreamProfile {
        max_message: 512,
        delay: best_effort(50),
        ..StreamProfile::default()
    }
}

/// The sizes a 400 B message of fig3 is bounded at: 430 B at the ST (its
/// 30 B stream header added) and a nominal 460 B on the network.
const FIG3_ST_BYTES: u64 = 430;
const FIG3_NET_BYTES: u64 = 460;

/// fig3_rms_levels — the delay bound of a high-level RMS decomposes into
/// per-stage budgets (Figure 3, §3.4, §4.1), on two dual-homed hosts:
/// 200 paced 400 B messages measure the stages, and a drill takes the
/// carrying network (0) down mid-flow and back up, so the ST fails over.
pub fn fig3_scenarios() -> Vec<Scenario> {
    let measured = Flow {
        count: 200,
        interval: SimDuration::from_millis(2),
        len: 400,
        ..paced(fig3_profile())
    };
    let drill = Flow {
        count: 20,
        ..measured.clone()
    };
    let scenario = |flow, faults| Scenario {
        faults,
        st: fig3_st(),
        ..Scenario::new(
            || dual_homed(1).0,
            Plan::from(vec![flow]),
            SimDuration::from_secs(1),
        )
    };
    vec![
        scenario(measured, FaultPlan::new()),
        scenario(
            drill,
            outage_drill(SimDuration::from_millis(40), NetworkId(0)),
        ),
    ]
}

/// fig3's table from the outcomes of [`fig3_scenarios`]. The budgets are
/// the flow's requested bound at the ST and, below it, that bound less
/// the ST stage's share ([`StConfig::stage_slack`]): what the ST asks of
/// the network. Every measured latency comes from message lifecycle spans
/// (`dash_sim::obs`) — each delivered message carried a span id from the
/// transport send through ST, the interface queue and the wire to port
/// delivery, and the registry aggregated the per-stage intervals.
pub fn fig3_table(outs: &[Outcome]) -> Table {
    let st = fig3_profile().delay;
    let (slack_fixed, slack_per_byte) = fig3_st().stage_slack();
    let net = DelayBound {
        fixed: st.fixed.saturating_sub(slack_fixed),
        per_byte: st.per_byte.saturating_sub(slack_per_byte),
        ..st
    };
    let st_bound = secs(st.bound_for(FIG3_ST_BYTES).as_secs_f64());
    let net_bound = secs(net.bound_for(FIG3_NET_BYTES).as_secs_f64());
    // The registry's histograms are read through `&mut` (quantiles sort).
    let mut reg = MetricRegistry::new();
    reg.merge_from(&outs[0].registry);
    let client = &outs[0].acct.flows[&0].delays;
    let mut recovery = MetricRegistry::new();
    recovery.merge_from(&outs[1].registry);

    let mut t = Table::new(
        "fig3_rms_levels",
        "delay decomposition across RMS levels (Figure 3)",
        "an upper-level RMS's delay bound is divided among stages; each stage's measured delay fits its budget",
    );
    t.columns(&["stage", "budget (bound)", "measured mean"]);
    for (stage, bound, mean) in [
        ("network RMS", &net_bound, reg.histogram("span.net").mean()),
        (
            "ST RMS (adds queueing+cpu)",
            &st_bound,
            reg.histogram("span.st").mean(),
        ),
        (
            "span end-to-end",
            &st_bound,
            reg.histogram("span.e2e").mean(),
        ),
        ("client-observed", &st_bound, client.mean()),
    ] {
        t.row(vec![stage.into(), bound.clone(), secs(mean)]);
    }
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
            let mean = secs(reg.histogram(&name).mean());
            t.row(vec![label.into(), "-".into(), mean]);
        }
    }
    t.note(format!(
        "messages delivered: {} (lifecycle spans completed: {})",
        client.count(),
        reg.histogram("span.e2e").count()
    ));
    t.note("invariant: measured(network) <= measured(ST) <= ST bound");
    t.note(format!(
        "fault drill: carrier network failed and restored; ST failover recovered in mean {}",
        secs(recovery.histogram("fault.recovery_latency").mean())
    ));
    t
}

/// fig3's table plus the drill run's full metric registry as JSON Lines
/// (one object per counter/histogram) for machine consumption.
pub fn fig3_rms_levels_json() -> (Table, String) {
    let mut outs = run_checked("fig3_rms_levels", fig3_scenarios(), SERIAL);
    let table = fig3_table(&outs);
    (table, outs[1].registry.to_json_lines())
}

/// fig4's rows: piggybacking, and the gap between client messages (µs).
const FIG4_ROWS: [(bool, u64); 6] = [
    (false, 200),
    (false, 1_000),
    (false, 5_000),
    (true, 200),
    (true, 1_000),
    (true, 5_000),
];

/// fig4_multiplexing — piggybacking and upward multiplexing (Figure 4,
/// §4.2, §4.3.1): per `FIG4_ROWS` entry, three streams multiplexed onto
/// one network RMS take turns to send 300 messages of 64 B.
pub fn fig4_scenarios() -> Vec<Scenario> {
    let profile = StreamProfile {
        capacity: 8 * 1024,
        max_message: 128,
        delay: best_effort(50),
        ..StreamProfile::default()
    };
    let scenario = |(piggyback, gap_us)| {
        let gap = SimDuration::from_micros(gap_us);
        let flows = (0..3).map(|i| Flow {
            start: gap.saturating_mul(i),
            count: 100,
            interval: gap.saturating_mul(3),
            ..paced(profile.clone())
        });
        Scenario {
            st: StConfig {
                piggyback,
                piggyback_slack: SimDuration::from_millis(2),
                ..StConfig::default()
            },
            ..Scenario::new(
                || two_hosts_ethernet().0,
                Plan::from(flows.collect::<Vec<_>>()),
                SimDuration::from_secs(3),
            )
        }
    };
    FIG4_ROWS.into_iter().map(scenario).collect()
}

/// fig4's table from the outcomes of [`fig4_scenarios`].
pub fn fig4_table(outs: &[Outcome]) -> Table {
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
    for ((piggyback, gap_us), o) in FIG4_ROWS.into_iter().zip(outs) {
        let (voice, reg) = (o.acct.class(Class::Voice), &o.registry);
        let net_msgs = reg.counter_value("st.net_msg_sent");
        t.row(vec![
            piggyback.to_string(),
            format!("{gap_us}us"),
            voice.sent.to_string(),
            net_msgs.to_string(),
            f(net_msgs as f64 / voice.sent as f64),
            reg.counter_value("st.msg_bundled").to_string(),
            secs(voice.delays.mean()),
        ]);
    }
    t.note("same 3 ST RMSs share one network RMS in every row; each paces itself at 3× the interval, the three offset by one interval");
    t.note("expected shape: piggybacking cuts net msgs/client msg at high rates, at a small delay cost");
    t
}

/// fig5's flow-control options, by row.
fn fig5_cases() -> [(&'static str, StreamProfile); 4] {
    let open = StreamProfile {
        max_message: 1024,
        capacity: 32 * 1024,
        ..StreamProfile::default()
    };
    let enforced = |enforcement| StreamProfile {
        enforcement,
        ..open.clone()
    };
    [
        ("none", open.clone()),
        (
            "rate-based capacity",
            enforced(CapacityEnforcement::RateBased),
        ),
        (
            "ack-based capacity (fast acks)",
            enforced(CapacityEnforcement::AckBased),
        ),
        (
            "capacity+receiver-fc+reliable (end-to-end)",
            StreamProfile {
                max_message: 1024,
                capacity: 32 * 1024,
                ..StreamProfile::bulk()
            },
        ),
    ]
}

/// fig5_flow_control — the cost of each flow-control option (Figure 5,
/// §4.4): one 256 KiB transfer in 1 KiB messages per option.
pub fn fig5_scenarios() -> Vec<Scenario> {
    (fig5_cases().into_iter())
        .map(|(_, profile)| {
            let plan = Plan::from(vec![Flow::bulk(A, B, 256 * 1024, 1024, profile)]);
            Scenario::new(|| two_hosts_ethernet().0, plan, SimDuration::from_secs(6))
        })
        .collect()
}

/// fig5's table from the outcomes of [`fig5_scenarios`].
pub fn fig5_table(outs: &[Outcome]) -> Table {
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
    for ((name, _), o) in fig5_cases().into_iter().zip(outs) {
        let (bulk, reg) = (&o.acct.flows[&0], &o.registry);
        let reverse = reg.counter_value("stream.ack_sent") + reg.counter_value("st.fast_ack_sent");
        t.row(vec![
            name.into(),
            bulk.complete().to_string(),
            secs(bulk.transfer_secs().unwrap_or(f64::NAN)),
            format!("{} B/s", f(bulk.goodput().unwrap_or(0.0))),
            reverse.to_string(),
            reg.counter_value("stream.sender_blocked").to_string(),
            reg.counter_value("stream.deliver").to_string(),
        ]);
    }
    t.note("'reverse msgs' counts transport acks + ST fast acknowledgements");
    t.note("expected shape: reverse msgs appear only with ack-based or end-to-end flow control; rate-based pacing is the slowest; on a clean LAN 'none' buys no speed over the ack-based variants");
    t
}
