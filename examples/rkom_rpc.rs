//! Request/reply with RKOM (paper §3.3).
//!
//! Registers a key-value service on one host and calls it from another
//! across a two-gateway internetwork. The RKOM channel (four ST RMSs:
//! low-delay initial traffic, high-delay retransmissions/acks) is built
//! lazily on the first call.
//!
//! ```text
//! cargo run --example rkom_rpc
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dash::net::topology::dumbbell;
use dash::sim::Sim;
use dash::transport::rkom;
use dash::transport::stack::StackBuilder;

const KV_SERVICE: u16 = 7;

fn main() {
    let (net, client, server, _, _) = dumbbell();
    let mut sim = Sim::new(StackBuilder::new(net).build());

    // A toy key-value store: "set k v" / "get k".
    let store: Rc<RefCell<HashMap<String, String>>> = Rc::new(RefCell::new(HashMap::new()));
    let st = Rc::clone(&store);
    rkom::register_service(
        &mut sim.state,
        server,
        KV_SERVICE,
        move |_sim, _client, req| {
            let text = String::from_utf8_lossy(&req).to_string();
            let mut parts = text.splitn(3, ' ');
            let reply = match (parts.next(), parts.next(), parts.next()) {
                (Some("set"), Some(k), Some(v)) => {
                    st.borrow_mut().insert(k.into(), v.into());
                    "ok".to_string()
                }
                (Some("get"), Some(k), _) => st
                    .borrow()
                    .get(k)
                    .cloned()
                    .unwrap_or_else(|| "<missing>".into()),
                _ => "error".into(),
            };
            Bytes::from(reply)
        },
    );

    // Issue calls; each completion triggers the next.
    let results = Rc::new(RefCell::new(Vec::new()));
    for cmd in [
        "set color blue",
        "set answer 42",
        "get color",
        "get answer",
        "get nothing",
    ] {
        let r = Rc::clone(&results);
        let started = sim.now();
        rkom::call(
            &mut sim,
            client,
            server,
            KV_SERVICE,
            Bytes::from(cmd.as_bytes().to_vec()),
            move |sim, res| {
                let rtt = sim.now().saturating_since(started);
                let reply = String::from_utf8_lossy(&res.expect("call succeeds")).to_string();
                println!("{cmd:<18} -> {reply:<10} ({rtt})");
                r.borrow_mut().push(reply);
            },
        );
    }
    sim.run();

    let got = results.borrow();
    assert_eq!(got.len(), 5);
    assert_eq!(got[2], "blue");
    assert_eq!(got[3], "42");
    assert_eq!(got[4], "<missing>");

    // A warm call: the channel already exists, so this shows the steady-
    // state round trip (one WAN RTT).
    let warm_started = sim.now();
    rkom::call(
        &mut sim,
        client,
        server,
        KV_SERVICE,
        Bytes::from_static(b"get answer"),
        move |sim, res| {
            assert_eq!(res.unwrap().as_ref(), b"42");
            println!(
                "warm call round trip: {}",
                sim.now().saturating_since(warm_started)
            );
        },
    );
    sim.run();

    println!("---");
    println!(
        "{} calls completed ({} retransmissions; the first batch paid channel setup)",
        sim.state.net.obs.registry.counter_value("rkom.completed"),
        sim.state.rkom.host(client).stats.retransmissions.get(),
    );
}
