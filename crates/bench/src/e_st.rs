//! Subtransport experiments: e3_caching (network-RMS caching, §4.2),
//! e4_fragmentation (maximum message size trade-off, §4.3), and
//! e9_piggyback (the §4.3.1 queueing policy).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dash_apps::scenario::{Outcome, Scenario};
use dash_apps::traffic::{Class, Flow, Plan};
use dash_net::state::NetConfig;
use dash_net::topology::{two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkSpec;
use dash_sim::cpu::SchedPolicy;
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::Client;
use dash_subtransport::st::{StConfig, StEvent};
use dash_transport::stack::{AppEvent, StackBuilder, PROTO_APP};
use dash_transport::stream::StreamProfile;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;

use crate::table::{f, pct, secs, Table};
use crate::{best_effort, lan, paced};

/// e3_caching — creating network RMSs is costly; the ST caches them (§4.2).
/// Built: it closes ST RMSs below the stream layer, which has no close word.
pub fn e3_caching() -> Table {
    let mut t = Table::new(
        "e3_caching",
        "network-RMS caching across ST RMS create/close cycles",
        "§4.2: hosts communicate repeatedly with a small peer set and network-RMS creation is slow, so caching pays",
    );
    t.columns(&[
        "cache",
        "creates",
        "net RMS created",
        "cache hits",
        "evictions",
        "mean create latency",
        "p99 create latency",
    ]);
    for (label, idle_limit) in [("on (limit 4)", 4usize), ("off (limit 0)", 0usize)] {
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("lan"));
        let client = b.host_on(n);
        let peers: Vec<_> = (0..3).map(|_| b.host_on(n)).collect();
        let config = StConfig {
            cache_idle_limit: idle_limit,
            ..StConfig::default()
        };
        let mut sim = Sim::new(
            StackBuilder::new(b.build())
                .st_config(config)
                .obs(true)
                .build(),
        );

        // Track creation latency through the app tap: each direct ST create
        // is bound to an application client named by its index.
        let pending: Rc<RefCell<HashMap<u64, SimTime>>> = Rc::new(RefCell::new(HashMap::new()));
        let latencies: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let created: Rc<RefCell<Vec<(u64, dash_subtransport::ids::StRmsId)>>> =
            Rc::new(RefCell::new(Vec::new()));
        {
            let pending = Rc::clone(&pending);
            let latencies = Rc::clone(&latencies);
            let created = Rc::clone(&created);
            sim.state.on_app(move |sim, ev| {
                if let AppEvent::StEvent {
                    client,
                    event: StEvent::Created { st_rms, .. },
                    ..
                } = ev
                {
                    if let Some(t0) = pending.borrow_mut().remove(&client.id) {
                        latencies
                            .borrow_mut()
                            .push(sim.now().saturating_since(t0).as_secs_f64());
                    }
                    created.borrow_mut().push((client.id, st_rms));
                }
            });
        }

        // 36 create/close cycles over 3 peers, round-robin.
        let request = RmsRequest::exact(RmsParams::builder(8 * 1024, 1024).build().unwrap());
        let n_creates = 36u64;
        for i in 0..n_creates {
            let peer = peers[(i % 3) as usize];
            let before = created.borrow().len();
            let app = Client {
                proto: PROTO_APP,
                id: i,
            };
            st_engine::create(&mut sim, client, peer, &request, false, app, Bytes::new()).unwrap();
            pending.borrow_mut().insert(i, sim.now());
            sim.run();
            // Close the stream we just created.
            let new: Vec<_> = created.borrow()[before..].to_vec();
            for (_, st_rms) in new {
                let _ = st_engine::close(&mut sim, client, st_rms);
            }
            sim.run();
        }
        let reg = &sim.state.net.obs.registry;
        let mut l = dash_sim::stats::Histogram::new();
        for x in latencies.borrow().iter() {
            l.record(*x);
        }
        t.row(vec![
            label.into(),
            n_creates.to_string(),
            reg.counter_value("st.cache_miss").to_string(),
            reg.counter_value("st.cache_hit").to_string(),
            reg.counter_value("st.cache_eviction").to_string(),
            secs(l.mean()),
            secs(l.quantile(0.99)),
        ]);
    }
    t.note("3 peers, 36 sequential ST RMS create/close cycles");
    t.note("expected shape: caching turns repeat creates into cache hits, cutting mean latency and network-RMS churn");
    t
}

/// e4's ST message sizes, by row.
const E4_SIZES: [u64; 7] = [512, 1024, 2048, 4096, 8192, 16 * 1024, 32 * 1024];

/// e4_fragmentation — the ST's maximum-message-size trade-off (§4.3):
/// bigger ST messages amortize context switches but a single lost
/// fragment kills the whole message. Per `E4_SIZES` entry, 1 MiB in
/// messages of that size, paced at ~6 Mb/s over a lossy Ethernet with
/// costly context switches.
pub fn e4_scenarios() -> Vec<Scenario> {
    let mut spec = NetworkSpec::ethernet("lossy");
    spec.caps.raw_ber = 4e-7; // per-fragment corruption ~0.5%
    spec.drop_prob = 2e-3;
    let scenario = |size: u64| {
        let profile = StreamProfile {
            max_message: size,
            capacity: (4 * size).max(32 * 1024),
            // Checksums on: corrupted fragments become losses.
            reliable: false,
            delay: best_effort(200),
            ..StreamProfile::default()
        };
        let flow = Flow {
            count: (1 << 20) / size,
            // ~6 Mb/s offered, so the wire is not the bottleneck.
            interval: SimDuration::from_secs_f64(size as f64 * 8.0 / 6e6),
            len: size,
            ..paced(profile)
        };
        let topo = lan(spec.clone(), NetConfig::default());
        Scenario {
            // Heavy context switches make small messages expensive.
            cpus: Some((SchedPolicy::Edf, SimDuration::from_micros(100))),
            ..Scenario::new(topo, Plan::from(vec![flow]), SimDuration::from_secs(4))
        }
    };
    E4_SIZES.into_iter().map(scenario).collect()
}

/// e4's table from the outcomes of [`e4_scenarios`].
pub fn e4_table(outs: &[Outcome]) -> Table {
    let mut t = Table::new(
        "e4_fragmentation",
        "goodput vs ST maximum message size on a lossy network with context-switch costs",
        "§4.3: a somewhat larger ST message than the network's reduces context switching, but loss and fairness cap how far to push it",
    );
    t.columns(&[
        "st msg size",
        "frags/msg",
        "msgs sent",
        "delivered",
        "delivery rate",
        "goodput",
        "cpu busy",
    ]);
    for (size, o) in E4_SIZES.into_iter().zip(outs) {
        let (a, reg) = (&o.acct.flows[&0], &o.registry);
        let fragmented = reg.counter_value("st.msg_fragmented");
        let frags = reg.counter_value("st.fragment_sent") as f64 / fragmented.max(1) as f64;
        t.row(vec![
            size.to_string(),
            f(if fragmented > 0 { frags } else { 1.0 }),
            a.sent.to_string(),
            a.received.to_string(),
            pct(a.received as f64 / a.sent as f64),
            format!("{} B/s", f(a.goodput().unwrap_or(0.0))),
            secs(o.cpu_busy.as_secs_f64()),
        ]);
    }
    t.note("1 MB offered at ~6 Mb/s over a lossy Ethernet (BER 4e-7, drop 0.2%), context switch 100 us, unreliable stream");
    t.note("goodput is delivered bytes over first send to last delivery; cpu busy sums both hosts' protocol CPUs, establishment included");
    t.note("expected shape: cpu busy falls with message size (fewer context switches) while whole-message loss climbs; the offered rate, not the cpu, caps goodput, so it only falls with size");
    t
}

/// e9's rows: piggybacking and its queueing slack (ms).
const E9_ROWS: [(&str, bool, u64); 4] = [
    ("off", false, 0),
    ("on", true, 1),
    ("on", true, 4),
    ("on", true, 16),
];

/// e9_piggyback — the §4.3.1 piggybacking policy: ordering and deadlines
/// preserved, overhead reduced, with the queueing-slack knob. Per
/// `E9_ROWS` entry, four streams on one network RMS each send 100
/// messages of 64 B with Poisson gaps of mean 2 ms — 500 µs between
/// messages on the shared carrier.
pub fn e9_scenarios() -> Vec<Scenario> {
    let profile = StreamProfile {
        capacity: 8 * 1024,
        max_message: 128,
        delay: best_effort(60),
        ..StreamProfile::default()
    };
    let flows = (0..4).map(|i| Flow {
        count: 100,
        interval: SimDuration::from_millis(2),
        poisson: Some(77 + i),
        ..paced(profile.clone())
    });
    let plan = Plan::from(flows.collect::<Vec<_>>());
    let scenario = |(_, piggyback, slack_ms)| Scenario {
        st: StConfig {
            piggyback,
            piggyback_slack: SimDuration::from_millis(slack_ms),
            ..StConfig::default()
        },
        ..Scenario::new(
            || two_hosts_ethernet().0,
            plan.clone(),
            SimDuration::from_secs(2),
        )
    };
    E9_ROWS.into_iter().map(scenario).collect()
}

/// e9's table from the outcomes of [`e9_scenarios`].
pub fn e9_table(outs: &[Outcome]) -> Table {
    let mut t = Table::new(
        "e9_piggyback",
        "piggyback policy: slack vs bundling vs delay, with ordering checks",
        "§4.3.1: the policy maximizes piggybacking while ensuring correct ordering and honouring deadlines",
    );
    t.columns(&[
        "policy",
        "slack",
        "net msgs",
        "bundled msgs",
        "bundling",
        "mean delay",
        "late",
    ]);
    for ((label, _, slack_ms), o) in E9_ROWS.into_iter().zip(outs) {
        let (voice, reg) = (o.acct.class(Class::Voice), &o.registry);
        let bundled = reg.counter_value("st.msg_bundled");
        t.row(vec![
            label.into(),
            format!("{slack_ms}ms"),
            reg.counter_value("st.net_msg_sent").to_string(),
            bundled.to_string(),
            pct(bundled as f64 / voice.sent as f64),
            secs(voice.delays.mean()),
            reg.counter_value("st.late_delivery").to_string(),
        ]);
    }
    t.note("4 ST RMSs on one network RMS, 400 × 64 B messages, Poisson 500 us gaps");
    t.note("expected shape: more slack → more bundling and fewer net msgs, delay grows by ≤ slack, ordering always holds, no late deliveries");
    t
}
