//! e5_capacity — the C/D bandwidth identity (§2.2); e6_admission —
//! deterministic / statistical / best-effort admission control (§2.3).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dash_apps::taps::Dispatcher;
use dash_net::ids::{HostId, NetRmsId};
use dash_net::pipeline as netp;
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::stack::StackBuilder;
use dash_transport::stream::{self, StreamProfile};
use rms_core::bandwidth::implied_bandwidth;
use rms_core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};
use rms_core::message::Message;
use rms_core::params::{BitErrorRate, RmsParams};
use rms_core::port::DeliveryInfo;
use rms_core::RmsRequest;

use crate::table::{f, pct, secs, Table};

/// e5_capacity — a sender pacing at the RMS rate achieves ~C/D throughput
/// (§2.2's derivation).
pub fn e5_capacity() -> Table {
    let mut t = Table::new(
        "e5_capacity",
        "the capacity/delay bandwidth identity: throughput ≈ C/D",
        "§2.2: sending a message of size M every D·M/C seconds respects the capacity rule and yields ≈ C/D bytes/second",
    );
    t.columns(&[
        "capacity C",
        "period A+C·B",
        "predicted C/(A+C·B)",
        "measured",
        "ratio",
    ]);
    for (capacity, fixed_ms) in [
        (8 * 1024u64, 100u64),
        (8 * 1024, 400),
        (32 * 1024, 100),
        (64 * 1024, 400),
    ] {
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("lan"));
        let ha = b.host_on(n);
        let hb = b.host_on(n);
        let mut sim = Sim::new(StackBuilder::new(b.build()).build());
        let taps = Dispatcher::install(&mut sim, &[ha, hb]);
        let profile = StreamProfile {
            capacity,
            max_message: 1024,
            delay: DelayBound::best_effort_with(
                SimDuration::from_millis(fixed_ms),
                SimDuration::from_micros(10),
            ),
            enforcement: CapacityEnforcement::RateBased,
            send_port_limit: 4 * capacity,
            ..StreamProfile::default()
        };
        let session = stream::open(&mut sim, ha, hb, profile.clone()).unwrap();
        let bytes = Rc::new(RefCell::new(0u64));
        let b2 = Rc::clone(&bytes);
        taps.register(session, move |_s, ev| {
            *b2.borrow_mut() += ev.msg.len() as u64
        });
        sim.run();
        // Saturate the send port; the rate limiter paces transmission.
        let run_secs = 4.0;
        let t0 = sim.now();
        let end = t0 + SimDuration::from_secs_f64(run_secs);
        while sim.now() < end {
            let _ = stream::send(&mut sim, ha, session, Message::zeroes(1024));
            sim.run_until(sim.now() + SimDuration::from_millis(2));
        }
        sim.run();
        let measured = *bytes.borrow() as f64 / sim.now().saturating_since(t0).as_secs_f64();
        // Rate-based enforcement is the pessimistic §4.4 variant: at most C
        // bytes per A + C·B period, so the sustainable rate is C/(A + C·B).
        let params = RmsParams::builder(capacity, 1024)
            .delay(profile.delay)
            .build()
            .unwrap();
        let period = params.delay.bound_for(capacity);
        let predicted = capacity as f64 / period.as_secs_f64();
        let ideal = implied_bandwidth(&params);
        t.row(vec![
            capacity.to_string(),
            secs(period.as_secs_f64()),
            format!("{} B/s", f(predicted)),
            format!("{} B/s", f(measured)),
            f(measured / predicted),
        ]);
        let _ = ideal;
    }
    t.note("rate-based enforcement over a quiet 10 Mb/s LAN; the wire never limits these rates");
    t.note("§4.4 calls this approach pessimistic: it assumes the maximum delay for all messages, so the sustained rate is C/(A+C·B) ≤ the §2.2 ideal C/D(M)");
    t.note("expected shape: measured ≈ predicted (ratio ≈ 1), scaling with C and 1/period");
    t
}

// ---------------------------------------------------------------------------
// e6: a minimal network-only world for admission experiments
// ---------------------------------------------------------------------------

/// A network-layer-only world for admission experiments (deliveries are
/// counted but discarded).
pub struct NetOnly {
    net: NetState,
    created: Vec<(u64, NetRmsId)>,
    rejected: u64,
}

impl NetWorld for NetOnly {
    fn net(&mut self) -> &mut NetState {
        &mut self.net
    }
    fn net_ref(&self) -> &NetState {
        &self.net
    }
    fn deliver_up(
        _sim: &mut Sim<Self>,
        _host: HostId,
        _rms: NetRmsId,
        _msg: Message,
        _info: DeliveryInfo,
    ) {
    }
    fn rms_event(sim: &mut Sim<Self>, _host: HostId, event: NetRmsEvent) {
        match event {
            NetRmsEvent::Created { token, rms, .. } => sim.state.created.push((token.0, rms)),
            NetRmsEvent::CreateFailed { .. } => sim.state.rejected += 1,
            _ => {}
        }
    }
}

/// e6_admission — deterministic reservation, statistical tests, best-effort
/// always-admit (§2.3), and the resulting deadline behaviour under load.
pub fn e6_admission() -> Table {
    let mut t = Table::new(
        "e6_admission",
        "admission control per delay-bound type, and what load does to deadlines",
        "§2.3: deterministic requests are rejected when worst-case demands exceed free resources; best-effort is never rejected but misses deadlines under overload",
    );
    t.columns(&["kind", "requested", "admitted", "delivered", "late", "lost"]);

    for kind in ["deterministic", "statistical", "best-effort"] {
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("lan"));
        let ha = b.host_on(n);
        let hb = b.host_on(n);
        let mut sim = Sim::new(NetOnly {
            net: b.build(),
            created: Vec::new(),
            rejected: 0,
        });
        // Each stream wants C/D = 16 KB / 0.1 s = 160 KB/s. The Ethernet
        // reserves up to 90% of 1.25 MB/s → 7 deterministic streams fit.
        let requested = 16u64;
        let delay_kind = |k: &str| match k {
            "deterministic" => DelayBoundKind::Deterministic,
            "statistical" => {
                DelayBoundKind::Statistical(StatisticalSpec::new(160_000.0, 2.0, 0.95))
            }
            _ => DelayBoundKind::BestEffort,
        };
        let params = RmsParams {
            reliability: rms_core::Reliability::Unreliable,
            security: rms_core::SecurityParams::NONE,
            capacity: 16 * 1024,
            max_message_size: 1024,
            delay: DelayBound {
                fixed: SimDuration::from_millis(100),
                per_byte: SimDuration::from_micros(2),
                kind: delay_kind(kind),
            },
            error_rate: BitErrorRate::new(1e-4).unwrap(),
        };
        for _ in 0..requested {
            let _ = netp::create_rms(&mut sim, ha, hb, &RmsRequest::exact(params.clone()));
            sim.run();
        }
        let admitted = sim.state.created.len() as u64;
        // Drive every admitted stream at its C/D rate for 2 seconds.
        let streams: Vec<NetRmsId> = sim.state.created.iter().map(|(_, r)| *r).collect();
        let interval = rms_core::bandwidth::send_interval_for(&params, 1024);
        let end = sim.now() + SimDuration::from_secs(2);
        while sim.now() < end {
            for &rms in &streams {
                let deadline = sim.now() + params.delay.bound_for(1024);
                let _ = netp::send_on_rms(
                    &mut sim,
                    ha,
                    rms,
                    Message::zeroes(1024),
                    Some(deadline),
                    None,
                );
            }
            sim.run_until(sim.now() + interval);
        }
        sim.run();
        let (mut delivered, mut late, mut lost) = (0u64, 0u64, 0u64);
        for r in sim.state.net.host(hb).rms.values() {
            delivered += r.stats.delivered.get();
            late += r.stats.late.get();
            lost += r.stats.lost.get();
        }
        t.row(vec![
            kind.into(),
            requested.to_string(),
            admitted.to_string(),
            delivered.to_string(),
            if delivered > 0 {
                pct(late as f64 / delivered as f64)
            } else {
                "-".into()
            },
            lost.to_string(),
        ]);
        let _ = Bytes::new();
    }
    t.note("16 requests of C/D = 160 KB/s each against a 10 Mb/s Ethernet (90% reservable → 7 deterministic fit)");
    t.note("expected shape: deterministic admits ~7 and misses nothing; statistical admits a few more; best-effort admits all 16 and pays with late deliveries");
    t
}

/// Small helper used by unit tests of this module.
pub fn admission_world() -> (Sim<NetOnly>, HostId, HostId) {
    let mut b = TopologyBuilder::new();
    let n = b.network(NetworkSpec::ethernet("lan"));
    let ha = b.host_on(n);
    let hb = b.host_on(n);
    (
        Sim::new(NetOnly {
            net: b.build(),
            created: Vec::new(),
            rejected: 0,
        }),
        ha,
        hb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netonly_world_admits_and_rejects() {
        let (mut sim, a, b) = admission_world();
        let params = RmsParams::builder(200_000, 1_000)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(200),
                SimDuration::from_micros(2),
            ))
            .error_rate(BitErrorRate::new(1e-4).unwrap())
            .build()
            .unwrap();
        // ~1 MB/s demand each on a 1.25 MB/s wire: only one fits at 90%.
        let _ = netp::create_rms(&mut sim, a, b, &RmsRequest::exact(params.clone()));
        sim.run();
        let _ = netp::create_rms(&mut sim, a, b, &RmsRequest::exact(params));
        sim.run();
        assert_eq!(sim.state.created.len(), 1);
        assert_eq!(sim.state.rejected, 1);
    }
}
