//! Integration test for message lifecycle spans (`dash_sim::obs`): on the
//! full stack, each delivered message's span must visit its stages in
//! pipeline order with non-negative per-stage latencies, and the span's
//! end-to-end time must equal the `DeliveryInfo` delay the port reports.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dash::core::{RmsParams, RmsRequest};
use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::subtransport::engine as st_engine;
use dash::subtransport::st::StEvent;
use dash::transport::stack::PROTO_APP;
use dash::transport::stream;

/// Canonical pipeline order; every span's stage sequence must be a
/// subsequence of this.
const ORDER: &[Stage] = &[
    Stage::TransportSend,
    Stage::StSend,
    Stage::NetSend,
    Stage::IfaceEnqueue,
    Stage::WireTx,
    Stage::NetRecv,
    Stage::StDeliver,
];

fn rank(stage: Stage) -> usize {
    ORDER.iter().position(|s| *s == stage).expect("known stage")
}

#[test]
fn spans_are_ordered_nonnegative_and_sum_to_delivery_delay() {
    let (net, a, b) = two_hosts_ethernet();
    // Piggybacking off so every message takes the full per-stage path (a
    // bundle attributes its network stages to the oldest component only).
    let config = StConfig {
        piggyback: false,
        ..StConfig::default()
    };
    let mut sim = Sim::new(
        StackBuilder::new(net)
            .st_config(config)
            .obs(true)
            .retain_spans(true)
            .build(),
    );

    // Direct ST sends so the port's DeliveryInfo is observable at the tap.
    let st_rms: Rc<RefCell<Option<StRmsId>>> = Rc::new(RefCell::new(None));
    type DeliveryTimes = HashMap<(u64, u64), (SimTime, SimTime)>;
    let deliveries: Rc<RefCell<DeliveryTimes>> = Rc::new(RefCell::new(HashMap::new()));
    {
        let st_rms = Rc::clone(&st_rms);
        let deliveries = Rc::clone(&deliveries);
        sim.state.on_app(move |_sim, ev| match ev {
            AppEvent::StEvent {
                event: StEvent::Created { st_rms: id, .. },
                ..
            } => {
                *st_rms.borrow_mut() = Some(id);
            }
            AppEvent::StDeliver { info, .. } => {
                deliveries
                    .borrow_mut()
                    .insert((info.stream, info.seq), (info.sent_at, info.delivered_at));
            }
            _ => {}
        });
    }
    let request = RmsRequest::exact(RmsParams::builder(16 * 1024, 2048).build().unwrap());
    let client = Client {
        proto: PROTO_APP,
        id: 1,
    };
    st_engine::create(&mut sim, a, b, &request, false, client, Bytes::new())
        .expect("create accepted");
    sim.run();
    let stream = st_rms.borrow().expect("ST RMS created");

    let n_msgs = 25usize;
    for i in 0..n_msgs {
        st_engine::send(&mut sim, a, stream, Message::new(vec![i as u8; 700]))
            .expect("send accepted");
        sim.run_until(sim.now() + SimDuration::from_millis(1));
    }
    sim.run();

    let deliveries = deliveries.borrow();
    assert_eq!(deliveries.len(), n_msgs, "all messages delivered");
    let spans: Vec<SpanRecord> = sim
        .state
        .net
        .obs
        .spans()
        .iter()
        .filter(|s| s.stream == stream.0)
        .cloned()
        .collect();
    assert_eq!(spans.len(), n_msgs, "one completed span per delivery");
    assert_eq!(sim.state.net.obs.spans_dropped(), 0);

    for span in &spans {
        // At least the StSend, NetSend/IfaceEnqueue/WireTx/NetRecv leg, and
        // StDeliver must have been observed.
        assert!(
            span.stages.len() >= 4,
            "span {} visited only {:?}",
            span.span,
            span.stages
        );
        // Stage sequence follows the pipeline order, first to last.
        for pair in span.stages.windows(2) {
            let ((s0, t0), (s1, t1)) = (pair[0], pair[1]);
            assert!(
                rank(s0) < rank(s1),
                "span {}: {s0:?} then {s1:?} is out of pipeline order",
                span.span
            );
            // Non-negative per-stage latency.
            assert!(
                t1 >= t0,
                "span {}: time went backwards between {s0:?} and {s1:?}",
                span.span
            );
        }
        assert_eq!(span.stages.first().expect("non-empty").0, Stage::StSend);
        assert_eq!(span.stages.last().expect("non-empty").0, Stage::StDeliver);

        // Per-stage latencies telescope to the end-to-end time, which must
        // equal the DeliveryInfo delay exactly (both ends are stamped from
        // the same event-queue instants).
        let sum: SimDuration = span
            .stages
            .windows(2)
            .map(|p| p[1].1.saturating_since(p[0].1))
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        assert_eq!(sum, span.e2e(), "stage latencies sum to the span e2e");
        let (sent_at, delivered_at) = deliveries
            .get(&(span.stream, span.seq))
            .expect("span matches a delivery");
        assert_eq!(
            span.e2e(),
            delivered_at.saturating_since(*sent_at),
            "span {} e2e equals the DeliveryInfo delay",
            span.span
        );
        assert_eq!(span.stage_time(Stage::StSend), Some(*sent_at));
        assert_eq!(span.stage_time(Stage::StDeliver), Some(*delivered_at));
    }
}

/// Counting does not depend on `obs(true)`: the same two-host stream plan,
/// every message far below the MTU so the 8-byte span field cannot change
/// how anything is fragmented or bundled, counts the same with
/// observability off and on — and the obs-off run mints no span id.
#[test]
fn counts_are_the_same_with_obs_off_and_on() {
    let run = |obs: bool| {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).obs(obs).build());
        let session = stream::open(&mut sim, a, b, StreamProfile::default()).expect("opens");
        sim.run();
        for i in 0..20u8 {
            stream::send(&mut sim, a, session, Message::new(vec![i; 100])).expect("port has room");
            sim.run_until(sim.now() + SimDuration::from_millis(2));
        }
        sim.run();
        sim
    };
    let mut off = run(false);
    let on = run(true);
    for name in [
        "st.send",
        "st.cache_miss",
        "stream.deliver",
        "net.packet_sent",
    ] {
        let (n_off, n_on) = (
            off.state.net.obs.registry.counter_value(name),
            on.state.net.obs.registry.counter_value(name),
        );
        assert!(n_on > 0, "{name} must count something");
        assert_eq!(
            n_off, n_on,
            "{name}: {n_off} with obs off, {n_on} with obs on"
        );
    }
    assert_eq!(
        off.state.net.obs.registry.counter_value("stream.deliver"),
        20
    );
    // Had the obs-off run minted an id, the first one minted now would not
    // be the first of the namespace.
    assert!(off.state.net.obs.spans().is_empty());
    off.state.net.obs.enable();
    assert_eq!(off.state.net.obs.start_span(), Some(1));
}
