//! `dash-transport` drivers on a quiet two-host Ethernet (reported under
//! `mixed-scale`): the whole stack's host cost of one stream message and
//! of one RKOM call, with no other traffic to queue behind.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use dash_net::ids::HostId;
use dash_net::state::NetState;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_sim::engine::Sim;
use dash_sim::time::SimDuration;
use dash_transport::rkom;
use dash_transport::stack::StackBuilder;
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::message::Message;

use super::Size;

/// Messages / calls per driver run.
const N: u64 = 20_000;
const N_SMOKE: u64 = 200;

fn two_hosts() -> (NetState, HostId, HostId) {
    let mut tb = TopologyBuilder::new();
    let lan = tb.network(crate::workloads::loss_free(NetworkSpec::ethernet("lan")));
    let (a, b) = (tb.host_on(lan), tb.host_on(lan));
    (tb.build(), a, b)
}

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    let n = if size.smoke { N_SMOKE } else { N };
    // Stream ping: N voice frames at the voice rate, one way.
    let (net, a, b) = two_hosts();
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    let delivered = Rc::new(Cell::new(0u64));
    let d = Rc::clone(&delivered);
    sim.state.on_stream(b, move |_sim, ev| {
        if matches!(ev, StreamEvent::Delivered { .. }) {
            d.set(d.get() + 1);
        }
    });
    let session = stream::open(&mut sim, a, b, StreamProfile::voice()).expect("quiet LAN admits");
    sim.run();
    for i in 0..n {
        sim.schedule_in(SimDuration::from_millis(20 * i), move |sim| {
            let _ = stream::send(sim, a, session, Message::zeroes(160));
        });
    }
    let started = Instant::now();
    sim.run();
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(delivered.get(), n, "stream driver lost messages");
    out.insert("transport.stream.drv.ns_per_msg", ns / n as f64);

    // Back-to-back RKOM calls: each completion issues the next.
    let (net, a, b) = two_hosts();
    let mut sim = Sim::new(StackBuilder::new(net).obs(true).build());
    rkom::register_service(&mut sim.state, b, 7, |_sim, _peer, req| req);
    let completed = Rc::new(Cell::new(0u64));
    fn call_next(
        sim: &mut Sim<dash_transport::stack::Stack>,
        a: HostId,
        b: HostId,
        completed: Rc<Cell<u64>>,
        n: u64,
    ) {
        rkom::call(
            sim,
            a,
            b,
            7,
            Bytes::from_static(&[0u8; 64]),
            move |sim, res| {
                if res.is_ok() {
                    completed.set(completed.get() + 1);
                }
                if completed.get() < n {
                    call_next(sim, a, b, completed, n);
                }
            },
        );
    }
    call_next(&mut sim, a, b, Rc::clone(&completed), n);
    let started = Instant::now();
    sim.run();
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(completed.get(), n, "rkom driver lost calls");
    out.insert("transport.rkom.drv.ns_per_call", ns / n as f64);
}
