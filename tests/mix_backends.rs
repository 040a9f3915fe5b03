//! Cross-backend conformance of the macro-workloads: one `Scenario`, the
//! one `scenario::run`, every backend.
//!
//! The byte-level schedules differ by design (the serial engine, the LP
//! executor and the wall-paced scheduler sample the same model
//! differently), so the assertions are the facts any legal schedule must
//! reproduce: what the *plan* fixes — how many sessions are attempted,
//! how many RKOM calls are issued — plus a clean oracle everywhere. A
//! backend whose ownership filter silently dropped part of the plan
//! fails the first; a backend that breaks an RMS guarantee fails the
//! second.

use dash::apps::scenario::{run, Backend, Outcome, Scenario};
use dash_bench::e_routing::RoutingParams;
use dash_bench::mix::MixParams;
use dash_sim::time::SimDuration;

/// The CI mix trimmed until the paced rt leg costs 0.7 s of wall time,
/// with the horizon far enough past the last churn wave that every
/// session open has resolved (opened or typed failure) on any backend.
fn trimmed_ci() -> MixParams {
    MixParams {
        lans: 2,
        voice_per_lan: 4,
        bulk_per_lan: 1,
        bulk_bytes: 32 * 1024,
        churn_per_wave: 2,
        churn_interval: SimDuration::from_millis(50),
        duration: SimDuration::from_millis(400),
        grace: SimDuration::from_millis(300),
        ..MixParams::ci()
    }
}

/// Run `scn` on Serial, Par(1), Par(2) and Rt(loss 0) and assert what
/// every backend owes: the whole plan attempted, a clean verdict (the
/// oracle and the stop), and the parallel executor's shard-count
/// invariance.
/// Returns the serial and the rt outcome for scenario-specific checks.
fn conform(scn: &Scenario) -> (Outcome, Outcome) {
    let par = |shards| Backend::Par {
        shards,
        lan_aligned: true,
    };
    let planned = |o: &Outcome| {
        (
            o.acct.streams().opened + o.acct.streams().failed,
            o.acct.rpcs.values().map(|t| t.sent).sum::<u64>(),
        )
    };
    let serial = run(scn, Backend::Serial);
    let (par1, par2) = (run(scn, par(1)), run(scn, par(2)));
    let rt = run(scn, Backend::Rt { loss_per_mille: 0 });
    for (name, o) in [
        ("serial", &serial),
        ("par(1)", &par1),
        ("par(2)", &par2),
        ("rt", &rt),
    ] {
        assert_eq!(
            planned(o),
            planned(&serial),
            "{name} ran a different plan than serial"
        );
        assert!(o.verdict.is_clean(), "{name}: {}", o.verdict);
    }
    assert_eq!(
        par1.determinism_digest(),
        par2.determinism_digest(),
        "par(2) diverged from par(1)"
    );
    (serial, rt)
}

#[test]
fn every_backend_runs_the_whole_plan_with_the_oracle_clean() {
    let (serial, rt) = conform(&trimmed_ci().scenario());
    let streams = serial.acct.streams();
    let attempted = streams.opened + streams.failed;
    assert!(attempted >= 10, "plan too small: {attempted} sessions");
    assert!(
        serial.acct.rpcs.values().map(|t| t.sent).sum::<u64>() >= 20,
        "{} calls",
        serial.acct.rpcs.values().map(|t| t.sent).sum::<u64>()
    );
    assert_eq!(serial.faults_injected, 4, "the drill must run");

    // The paced run really was paced, really crossed the substrate, and
    // delivered the bulk of what the plan offers (loss 0: only timing
    // at the horizon cut separates it from the serial count).
    let report = rt.rt.as_ref().expect("an rt run carries its report");
    assert!(report.transmitted > 0 && report.injected > 0);
    assert!(rt.wall_secs >= 0.4, "paced run finished impossibly fast");
    assert!(
        2 * rt.messages() >= serial.messages(),
        "rt delivered {} of serial's {}",
        rt.messages(),
        serial.messages()
    );
}

/// The e11 mesh — link-state floods, admission-NAK alternate walks, lazy
/// reconvergence around the centre outage, ST failover — on every
/// backend. Every mesh gateway sits on two LANs, so the 2-shard plan
/// splits Ethernets and the epoch is the LAN wire delay; the duration is
/// trimmed (one churn wave, the drill at 250 ms) to keep the barrier
/// count and the paced leg's wall time small.
#[test]
fn e11_mesh_runs_on_every_backend_with_the_oracle_clean() {
    let params = RoutingParams {
        duration: SimDuration::from_millis(500),
        ..RoutingParams::ci().on_mesh()
    };
    let (serial, rt) = conform(&params.scenario());
    let streams = serial.acct.streams();
    let attempted = streams.opened + streams.failed;
    assert!(attempted >= 10, "plan too small: {attempted} sessions");
    assert_eq!(serial.faults_injected, 2, "the drill must run");
    for (name, o) in [("serial", &serial), ("rt", &rt)] {
        assert!(
            o.registry.counter_value("routing.floods") > 0,
            "{name}: no link-state floods"
        );
        assert!(
            o.registry.counter_value("routing.recompute") > 0,
            "{name}: no route recomputations"
        );
        assert!(
            o.registry.counter_value("st.failover_completed") > 0,
            "{name}: no subtransport failovers"
        );
    }
}

/// e13 at its published size: the CI mix — churn, fault drill and all —
/// at wall-clock speed, oracle clean, never the wall-clock backstop.
#[test]
fn e13_ci_is_oracle_clean_and_stops_cleanly() {
    let o = run(
        &MixParams::ci().scenario(),
        Backend::Rt { loss_per_mille: 0 },
    );
    assert!(o.verdict.is_clean(), "stop {:?}: {}", o.rt, o.verdict);
    assert!(o.messages() > 500, "only {} messages", o.messages());
}
