//! e5_capacity — the C/D bandwidth identity (§2.2); e6_admission —
//! deterministic / statistical / best-effort admission control (§2.3).

use dash_apps::scenario::{Outcome, Scenario};
use dash_apps::traffic::{Flow, Plan};
use dash_net::ids::{HostId, NetRmsId};
use dash_net::pipeline as netp;
use dash_net::state::{NetRmsEvent, NetState, NetWorld};
use dash_net::topology::{two_hosts_ethernet, TopologyBuilder};
use dash_net::NetworkSpec;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_transport::flow::CapacityEnforcement;
use dash_transport::stream::StreamProfile;
use rms_core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};
use rms_core::message::Message;
use rms_core::params::{BitErrorRate, RmsParams};
use rms_core::port::DeliveryInfo;
use rms_core::RmsRequest;

use crate::table::{f, pct, secs, Table};
use crate::{best_effort, paced};

/// e5's streams, by row: capacity and fixed delay-bound part (ms).
const E5_ROWS: [(u64, u64); 4] = [
    (8 << 10, 100),
    (8 << 10, 400),
    (32 << 10, 100),
    (64 << 10, 400),
];

/// The rate-based stream of an `E5_ROWS` entry.
fn e5_profile((capacity, fixed_ms): (u64, u64)) -> StreamProfile {
    StreamProfile {
        capacity,
        max_message: 1024,
        delay: best_effort(fixed_ms),
        enforcement: CapacityEnforcement::RateBased,
        send_port_limit: 4 * capacity,
        ..StreamProfile::default()
    }
}

/// e5_capacity — a sender pacing at the RMS rate achieves ~C/D throughput
/// (§2.2's derivation). Per `E5_ROWS` entry, a 1 KiB message is offered
/// every 2 ms for 4 s, far above the RMS rate, so the send port stays full
/// and the rate limiter alone paces transmission.
pub fn e5_scenarios() -> Vec<Scenario> {
    let scenario = |row| {
        let flow = Flow {
            count: 2_000,
            interval: SimDuration::from_millis(2),
            len: 1024,
            ..paced(e5_profile(row))
        };
        Scenario::new(
            || two_hosts_ethernet().0,
            Plan::from(vec![flow]),
            SimDuration::from_secs(10),
        )
    };
    E5_ROWS.into_iter().map(scenario).collect()
}

/// e5's table from the outcomes of [`e5_scenarios`].
pub fn e5_table(outs: &[Outcome]) -> Table {
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
    for (row, o) in E5_ROWS.into_iter().zip(outs) {
        let measured = o.acct.flows[&0].goodput().unwrap_or(0.0);
        // Rate-based enforcement is the pessimistic §4.4 variant: at most C
        // bytes per A + C·B period, so the sustainable rate is C/(A + C·B).
        let period = e5_profile(row).delay.bound_for(row.0);
        let predicted = row.0 as f64 / period.as_secs_f64();
        t.row(vec![
            row.0.to_string(),
            secs(period.as_secs_f64()),
            format!("{} B/s", f(predicted)),
            format!("{} B/s", f(measured)),
            f(measured / predicted),
        ]);
    }
    t.note("rate-based enforcement over a quiet 10 Mb/s LAN; the wire never limits these rates");
    t.note("§4.4 calls this approach pessimistic: it assumes the maximum delay for all messages, so the sustained rate is C/(A+C·B) ≤ the §2.2 ideal C/D(M)");
    t.note("measured is delivered bytes over first send to last delivery");
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
    created: Vec<NetRmsId>,
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
            NetRmsEvent::Created { rms, .. } => sim.state.created.push(rms),
            NetRmsEvent::CreateFailed { .. } => sim.state.rejected += 1,
            _ => {}
        }
    }
}

/// e6_admission — deterministic reservation, statistical tests, best-effort
/// always-admit (§2.3), and the resulting deadline behaviour under load.
/// Built: it runs a network-only world, which ROADMAP item 11 reworks.
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
        let streams: Vec<NetRmsId> = sim.state.created.clone();
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
    }
    t.note("16 requests of C/D = 160 KB/s each against a 10 Mb/s Ethernet (90% reservable → 7 deterministic fit)");
    t.note("expected shape: deterministic admits ~7 and misses nothing; statistical admits a few more; best-effort admits all 16 and pays with late deliveries");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two hosts on a quiet Ethernet, in a network-only world.
    fn admission_world() -> (Sim<NetOnly>, HostId, HostId) {
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
