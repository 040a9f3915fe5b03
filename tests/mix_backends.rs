//! Cross-backend conformance of the macro-workload: one `MixParams`, the
//! one `mix::run`, every backend.
//!
//! The byte-level schedules differ by design (the serial engine, the LP
//! executor and the wall-paced scheduler sample the same model
//! differently), so the assertions are the facts any legal schedule must
//! reproduce: what the *plan* fixes — how many sessions are attempted,
//! how many RKOM calls are issued — plus a clean oracle everywhere. A
//! backend whose ownership filter silently dropped part of the plan
//! fails the first; a backend that breaks an RMS guarantee fails the
//! second.

use dash_bench::mix::{run, Backend, MixParams};
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
        record_trace: false,
        oracle: true,
        ..MixParams::ci()
    }
}

#[test]
fn every_backend_runs_the_whole_plan_with_the_oracle_clean() {
    let p = trimmed_ci();
    let par = |shards| Backend::Par {
        shards,
        lan_aligned: true,
    };
    let serial = run(&p, Backend::Serial);
    let attempted = serial.streams_opened + serial.open_failed;
    assert!(attempted >= 10, "plan too small: {attempted} sessions");
    assert!(serial.rpc_issued >= 20, "{} calls", serial.rpc_issued);
    assert_eq!(serial.faults_injected, 4, "the drill must run");

    let rt = run(&p, Backend::rt(0));
    for (name, o) in [
        ("serial", &serial),
        ("par(1)", &run(&p, par(1))),
        ("par(2)", &run(&p, par(2))),
        ("rt", &rt),
    ] {
        assert_eq!(
            (o.streams_opened + o.open_failed, o.rpc_issued),
            (attempted, serial.rpc_issued),
            "{name} ran a different plan than serial"
        );
        assert!(
            o.oracle_violations.is_empty(),
            "{name}: {:?}",
            o.oracle_violations
        );
        assert!(o.clean_stop(), "{name} hit the wall box");
    }

    // The paced run really was paced, really crossed the substrate, and
    // delivered the bulk of what the plan offers (loss 0: only timing
    // at the horizon cut separates it from the serial count).
    let report = rt.rt.as_ref().expect("an rt run carries its report");
    assert!(report.transmitted > 0 && report.injected > 0);
    assert!(rt.wall_secs >= 0.4, "paced run finished impossibly fast");
    assert!(
        2 * rt.messages >= serial.messages,
        "rt delivered {} of serial's {}",
        rt.messages,
        serial.messages
    );
}

/// e13 at its published size: the CI mix — churn, fault drill and all —
/// at wall-clock speed, oracle clean, never the wall-clock backstop.
#[test]
fn e13_ci_is_oracle_clean_and_stops_cleanly() {
    let p = MixParams {
        record_trace: false,
        oracle: true,
        ..MixParams::ci()
    };
    let o = run(&p, Backend::rt(0));
    assert!(o.oracle_violations.is_empty(), "{:?}", o.oracle_violations);
    assert!(o.clean_stop(), "stop {:?}", o.rt);
    assert!(o.messages > 500, "only {} messages", o.messages);
}
