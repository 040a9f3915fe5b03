//! Quickstart: create a Real-Time Message Stream and send a message.
//!
//! Builds a two-host Ethernet, brings up the DASH stack, opens a stream
//! session (which negotiates ST and network RMSs underneath, §2.4), sends a
//! few messages, and prints what each layer did.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use dash::net::topology::two_hosts_ethernet;
use dash::prelude::*;
use dash::transport::stream;

fn main() {
    // 1. A network: two hosts on a 10 Mb/s Ethernet.
    let (net, alice, bob) = two_hosts_ethernet();

    // 2. The DASH stack on top of it.
    let mut sim = Sim::new(StackBuilder::new(net).build());

    // 3. Watch what Bob receives.
    let received = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&received);
    sim.state.on_stream(bob, move |_sim, ev| {
        if let StreamEvent::Delivered {
            msg, seq, delay, ..
        } = ev
        {
            println!("bob: message #{seq} ({} bytes) after {delay}", msg.len());
            r2.borrow_mut().push(msg);
        }
    });
    sim.state.on_stream(alice, |_sim, ev| {
        if let StreamEvent::Opened { session } = ev {
            println!("alice: session {session} open — RMS parameters negotiated");
        }
    });

    // 4. Open a stream (triggers control-channel setup, authentication, ST
    //    RMS creation, and network RMS admission underneath).
    let session = stream::open(&mut sim, alice, bob, StreamProfile::default())
        .expect("negotiation succeeds on a quiet LAN");
    sim.run();

    // 5. Send.
    for i in 0..3u8 {
        stream::send(&mut sim, alice, session, Message::new(vec![i; 64]))
            .expect("send port has room");
    }
    sim.run();

    assert_eq!(received.borrow().len(), 3);

    // 6. What the layers did, from the world's metric registry.
    let reg = &sim.state.net.obs.registry;
    println!("---");
    println!("subtransport (both hosts):");
    println!(
        "  control channels created: {}",
        reg.counter_value("st.control_created")
    );
    println!(
        "  ST RMSs requested:        {}",
        reg.counter_value("st.create_requested")
    );
    println!(
        "  network RMSs created:     {}",
        reg.counter_value("st.cache_miss")
    );
    println!(
        "  net messages sent:        {}",
        reg.counter_value("st.net_msg_sent")
    );
    println!(
        "network: {} packets crossed the wire in {}",
        reg.counter_value("net.packet_sent"),
        sim.now()
    );
    let _ = SimDuration::ZERO;
}
