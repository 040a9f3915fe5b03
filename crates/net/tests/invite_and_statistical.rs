//! Receiver-side creation (§2.4 invites) and statistical-RMS behaviour at
//! the network layer.

mod world;

use dash_net::ids::HostId;
use dash_net::pipeline::{create_rms, create_rms_as_receiver, send_on_rms};
use dash_net::state::NetRmsEvent;
use dash_net::topology::two_hosts_ethernet;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use rms_core::bandwidth::send_interval_for;
use rms_core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};
use rms_core::message::Message;
use rms_core::params::{BitErrorRate, RmsParams};
use rms_core::RmsRequest;
use world::World;

fn world() -> (Sim<World>, HostId, HostId) {
    let (net, a, b) = two_hosts_ethernet();
    (Sim::new(World::new(net)), a, b)
}

fn count(sim: &Sim<World>, pred: impl Fn(&NetRmsEvent) -> bool) -> usize {
    sim.state.events.iter().filter(|(_, e)| pred(e)).count()
}

#[test]
fn receiver_side_invite_creates_a_working_stream() {
    let (mut sim, a, b) = world();
    // b asks to *receive* from a (§2.4: "the creator of an RMS may act as
    // either the sender or the receiver").
    let params = RmsParams::builder(32 * 1024, 1024).build().unwrap();
    let rms = create_rms_as_receiver(&mut sim, b, a, &RmsRequest::exact(params)).unwrap();
    sim.run();
    assert_eq!(
        count(&sim, |e| matches!(
            e,
            NetRmsEvent::InboundCreated { invite: true, .. }
        )),
        1,
        "b's endpoint answers the invite"
    );
    assert_eq!(
        count(&sim, |e| matches!(
            e,
            NetRmsEvent::SenderCreatedByInvite { .. }
        )),
        1,
        "a owns a sender it did not request"
    );
    // a's new sender endpoint, named by the invite's id, can carry traffic
    // to b.
    assert!(matches!(
        sim.state.net.host(a).rms[&rms].role,
        dash_net::rms::RmsRole::Sender
    ));
    for _ in 0..5 {
        send_on_rms(&mut sim, a, rms, Message::zeroes(100), None, None).unwrap();
    }
    sim.run();
    assert_eq!(sim.state.deliveries.len(), 5);
}

#[test]
fn statistical_streams_admit_until_the_math_says_no() {
    let (mut sim, a, b) = world();
    // Each stream declares 300 KB/s average load on a 1.25 MB/s wire:
    // admission must stop before saturation (λ < μ).
    let params = RmsParams::builder(32 * 1024, 1_024)
        .delay(DelayBound {
            fixed: SimDuration::from_millis(100),
            per_byte: SimDuration::from_micros(2),
            kind: DelayBoundKind::Statistical(StatisticalSpec::new(300_000.0, 2.0, 0.9)),
        })
        .error_rate(BitErrorRate::new(1e-4).unwrap())
        .build()
        .unwrap();
    for _ in 0..8 {
        let _ = create_rms(&mut sim, a, b, &RmsRequest::exact(params.clone()));
        sim.run();
    }
    let admitted = sim.state.created().len();
    assert!(admitted >= 2, "low utilization must admit: {admitted}");
    assert!(admitted < 8, "saturation must deny: {admitted}");
    assert!(
        count(&sim, |e| matches!(
            e,
            NetRmsEvent::CreateFailed { .. } | NetRmsEvent::InviteFailed { .. }
        )) > 0
    );
}

#[test]
fn statistical_stream_meets_its_bound_at_declared_load() {
    let (mut sim, a, b) = world();
    let params = RmsParams::builder(16 * 1024, 1_024)
        .delay(DelayBound {
            fixed: SimDuration::from_millis(50),
            per_byte: SimDuration::from_micros(2),
            kind: DelayBoundKind::Statistical(StatisticalSpec::new(100_000.0, 2.0, 0.95)),
        })
        .error_rate(BitErrorRate::new(1e-4).unwrap())
        .build()
        .unwrap();
    let rms = create_rms(&mut sim, a, b, &RmsRequest::exact(params.clone())).unwrap();
    sim.run();
    assert!(sim.state.created().contains(&(a, rms)), "stream created");
    // Send at the declared average load for one second.
    let interval = send_interval_for(&params, 1_024);
    let end = sim.now() + SimDuration::from_secs(1);
    while sim.now() < end {
        let _ = send_on_rms(&mut sim, a, rms, Message::zeroes(1_024), None, None);
        sim.run_until(sim.now() + interval);
    }
    sim.run();
    let stats = &sim.state.net.host(b).rms[&rms].stats;
    assert!(stats.delivered.get() > 50);
    let late_fraction = stats.late.get() as f64 / stats.delivered.get() as f64;
    assert!(
        late_fraction <= 0.05,
        "bound promised with p=0.95; late fraction {late_fraction}"
    );
}
