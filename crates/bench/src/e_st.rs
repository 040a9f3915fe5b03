//! Subtransport experiments: e3_caching (network-RMS caching, §4.2),
//! e4_fragmentation (maximum message size trade-off, §4.3), and
//! e9_piggyback (the §4.3.1 queueing policy).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dash_apps::taps::Dispatcher;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_sim::cpu::SchedPolicy;
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_subtransport::engine as st_engine;
use dash_subtransport::ids::Client;
use dash_subtransport::st::{StConfig, StEvent};
use dash_transport::stack::{AppEvent, StackBuilder, PROTO_APP};
use dash_transport::stream::{self, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::message::Message;
use rms_core::params::RmsParams;
use rms_core::RmsRequest;

use crate::table::{f, pct, secs, Table};

/// e3_caching — creating network RMSs is costly; the ST caches them (§4.2).
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

/// e4_fragmentation — the ST's maximum-message-size trade-off (§4.3):
/// bigger ST messages amortize context switches but a single lost fragment
/// kills the whole message.
pub fn e4_fragmentation() -> Table {
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
    for msg_size in [512u64, 1024, 2048, 4096, 8192, 16 * 1024, 32 * 1024] {
        let mut b = TopologyBuilder::new();
        let mut spec = NetworkSpec::ethernet("lossy");
        spec.caps.raw_ber = 4e-7; // per-fragment corruption ~0.5%
        spec.drop_prob = 2e-3;
        let n = b.network(spec);
        let ha = b.host_on(n);
        let hb = b.host_on(n);
        // Heavy context switches make small messages expensive.
        let stack = StackBuilder::new(b.build())
            .cpus(SchedPolicy::Edf, SimDuration::from_micros(100))
            .obs(true)
            .build();
        let mut sim = Sim::new(stack);
        let taps = Dispatcher::install(&mut sim, &[ha, hb]);
        let profile = StreamProfile {
            max_message: msg_size,
            capacity: (4 * msg_size).max(32 * 1024),
            // Checksums on: corrupted fragments become losses.
            reliable: false,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(200),
                SimDuration::from_micros(10),
            ),
            ..StreamProfile::default()
        };
        let session = stream::open(&mut sim, ha, hb, profile).unwrap();
        let delivered = Rc::new(RefCell::new((0u64, 0u64))); // (msgs, bytes)
        let d2 = Rc::clone(&delivered);
        taps.register(session, move |_s, ev| {
            let mut d = d2.borrow_mut();
            d.0 += 1;
            d.1 += ev.msg.len() as u64;
        });
        sim.run();
        let total_bytes = 1024 * 1024u64;
        let n_msgs = total_bytes / msg_size;
        let t0 = sim.now();
        for _ in 0..n_msgs {
            let _ = stream::send(&mut sim, ha, session, Message::zeroes(msg_size as usize));
            // Pace at ~6 Mb/s offered so the wire is not the bottleneck.
            sim.run_until(sim.now() + SimDuration::from_secs_f64(msg_size as f64 * 8.0 / 6e6));
        }
        sim.run();
        let elapsed = sim.now().saturating_since(t0).as_secs_f64();
        let (msgs, bytes) = *delivered.borrow();
        let frags = {
            let reg = &sim.state.net.obs.registry;
            let fragmented = reg.counter_value("st.msg_fragmented");
            if fragmented > 0 {
                reg.counter_value("st.fragment_sent") as f64 / fragmented as f64
            } else {
                1.0
            }
        };
        let busy: f64 = sim
            .state
            .cpus
            .as_ref()
            .unwrap()
            .iter()
            .map(|c| c.stats.busy.as_secs_f64())
            .sum();
        t.row(vec![
            msg_size.to_string(),
            f(frags),
            n_msgs.to_string(),
            msgs.to_string(),
            pct(msgs as f64 / n_msgs as f64),
            format!("{} B/s", f(bytes as f64 / elapsed)),
            secs(busy),
        ]);
    }
    t.note("1 MB offered at ~6 Mb/s over a lossy Ethernet (BER 4e-7, drop 0.2%), context switch 100 us, unreliable stream");
    t.note("expected shape: goodput rises with message size (fewer context switches), then falls as whole-message loss dominates — an interior optimum");
    t
}

/// e9_piggyback — the §4.3.1 piggybacking policy: ordering and deadlines
/// preserved, overhead reduced, with the queueing-slack knob.
pub fn e9_piggyback() -> Table {
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
        "order ok",
        "late",
    ]);
    for (label, piggyback, slack_ms) in [
        ("off", false, 0u64),
        ("on", true, 1),
        ("on", true, 4),
        ("on", true, 16),
    ] {
        let config = StConfig {
            piggyback,
            piggyback_slack: SimDuration::from_millis(slack_ms),
            ..StConfig::default()
        };
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("lan"));
        let ha = b.host_on(n);
        let hb = b.host_on(n);
        let mut sim = Sim::new(
            StackBuilder::new(b.build())
                .st_config(config)
                .obs(true)
                .build(),
        );
        let taps = Dispatcher::install(&mut sim, &[ha, hb]);
        let profile = StreamProfile {
            capacity: 8 * 1024,
            max_message: 128,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(60),
                SimDuration::from_micros(10),
            ),
            ..StreamProfile::default()
        };
        let sessions: Vec<u64> = (0..4)
            .map(|_| stream::open(&mut sim, ha, hb, profile.clone()).unwrap())
            .collect();
        let order_ok = Rc::new(RefCell::new(true));
        let delays = Rc::new(RefCell::new(Vec::new()));
        let last_seq: Rc<RefCell<HashMap<u64, u64>>> = Rc::new(RefCell::new(HashMap::new()));
        for &s in &sessions {
            let ok = Rc::clone(&order_ok);
            let d2 = Rc::clone(&delays);
            let ls = Rc::clone(&last_seq);
            taps.register(s, move |_sim, ev| {
                let mut m = ls.borrow_mut();
                if m.get(&s).is_some_and(|prev| ev.seq <= *prev) {
                    *ok.borrow_mut() = false;
                }
                m.insert(s, ev.seq);
                d2.borrow_mut().push(ev.delay.as_secs_f64());
            });
        }
        sim.run();
        let base = sim.state.net.obs.registry.counter_value("st.net_msg_sent");
        let n_msgs = 400usize;
        let mut rng = dash_sim::rng::Rng::new(77);
        for i in 0..n_msgs {
            let s = sessions[i % sessions.len()];
            let _ = stream::send(&mut sim, ha, s, Message::zeroes(64));
            let gap = rng.exp(0.0005); // mean 500 us
            sim.run_until(sim.now() + SimDuration::from_secs_f64(gap));
        }
        sim.run();
        let reg = &sim.state.net.obs.registry;
        let net_msgs = reg.counter_value("st.net_msg_sent") - base;
        let bundled = reg.counter_value("st.msg_bundled");
        let late = reg.counter_value("st.late_delivery");
        let ds = delays.borrow();
        let mean = ds.iter().sum::<f64>() / ds.len().max(1) as f64;
        t.row(vec![
            label.into(),
            format!("{slack_ms}ms"),
            net_msgs.to_string(),
            bundled.to_string(),
            pct(bundled as f64 / n_msgs as f64),
            secs(mean),
            order_ok.borrow().to_string(),
            late.to_string(),
        ]);
    }
    t.note("4 ST RMSs on one network RMS, 400 × 64 B messages, Poisson 500 us gaps");
    t.note("expected shape: more slack → more bundling and fewer net msgs, delay grows by ≤ slack, ordering always holds, no late deliveries");
    t
}
