//! The planned paper experiments: each runs oracle-clean (`run_checked`
//! panics otherwise), its projection renders a table with a row per
//! scenario at least, and the shape its notes claim holds.

use dash_apps::scenario::{Outcome, Scenario};
use dash_apps::traffic::Class;
use dash_bench::{all_experiments, e_capacity, e_security_sched, e_st, figs, run_checked};
use dash_bench::{Experiment, Table};

/// Run a planned experiment: its outcomes and its table.
fn planned(scenarios: fn() -> Vec<Scenario>, project: fn(&[Outcome]) -> Table) -> Vec<Outcome> {
    let outs = run_checked(scenarios());
    let table = project(&outs);
    assert!(
        table.rows.len() >= outs.len(),
        "{}: a row per scenario",
        table.id
    );
    outs
}

fn counter(o: &Outcome, name: &str) -> u64 {
    o.registry.counter_value(name)
}

/// Network messages per message the clients sent.
fn net_per_client(o: &Outcome) -> f64 {
    counter(o, "st.net_msg_sent") as f64 / o.acct.sent[Class::Voice as usize] as f64
}

#[test]
fn exactly_the_eight_moved_experiments_are_planned() {
    let planned: Vec<&str> = all_experiments()
        .into_iter()
        .filter(|(_, e)| matches!(e, Experiment::Planned(..)))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(
        planned,
        [
            "fig1_layering",
            "fig2_architecture",
            "fig4_multiplexing",
            "fig5_flow_control",
            "e2_scheduling",
            "e4_fragmentation",
            "e5_capacity",
            "e9_piggyback",
        ]
    );
}

#[test]
fn fig1_every_network_completes_the_transfer_with_voice_on_time() {
    for o in planned(figs::fig1_scenarios, figs::fig1_table) {
        assert!(o.acct.complete(Class::Bulk), "{:?}", o.acct);
        assert_eq!(o.acct.on_time_fraction(Class::Voice), 1.0);
    }
}

#[test]
fn fig2_one_call_and_one_message_cross_every_layer() {
    let outs = planned(figs::fig2_scenarios, figs::fig2_table);
    let a = &outs[0].acct;
    assert_eq!((a.rpc_completed, a.received.iter().sum::<u64>()), (1, 1));
    assert!(counter(&outs[0], "st.control_created") > 0);
}

#[test]
fn fig4_piggybacking_cuts_net_messages_per_client_message() {
    let outs = planned(figs::fig4_scenarios, figs::fig4_table);
    let (off, on) = outs.split_at(3);
    for (off, on) in off.iter().zip(on) {
        assert_eq!(net_per_client(off), 1.0);
        assert!(net_per_client(on) <= net_per_client(off));
    }
    // At the two highest rates bundling is substantial.
    assert!(net_per_client(&on[0]) < 0.2, "{}", net_per_client(&on[0]));
    assert!(net_per_client(&on[1]) < 0.5, "{}", net_per_client(&on[1]));
}

#[test]
fn fig5_reverse_messages_appear_only_with_acks() {
    let outs = planned(figs::fig5_scenarios, figs::fig5_table);
    let reverse: Vec<u64> = (outs.iter())
        .map(|o| counter(o, "stream.ack_sent") + counter(o, "st.fast_ack_sent"))
        .collect();
    assert_eq!(reverse[..2], [0, 0], "none and rate-based send no acks");
    assert!(reverse[2] > 0 && reverse[3] > 0, "{reverse:?}");
    assert!(outs.iter().all(|o| o.acct.complete(Class::Bulk)));
}

#[test]
fn e2_edf_keeps_voice_on_time_and_fifo_does_not() {
    let outs = planned(e_security_sched::e2_scenarios, e_security_sched::e2_table);
    let on_time: Vec<f64> = (outs.iter())
        .map(|o| o.acct.on_time_fraction(Class::Voice))
        .collect();
    assert!(on_time[0] >= 0.99, "edf {on_time:?}");
    assert!(
        on_time[1] < 0.9 && on_time[2] < 0.9,
        "fifo/priority {on_time:?}"
    );
}

#[test]
fn e4_cpu_busy_time_falls_with_message_size() {
    let outs = planned(e_st::e4_scenarios, e_st::e4_table);
    for w in outs.windows(2) {
        assert!(
            w[1].cpu_busy < w[0].cpu_busy,
            "{:?} then {:?}",
            w[0].cpu_busy,
            w[1].cpu_busy
        );
    }
}

#[test]
fn e5_measured_rate_is_the_predicted_rate() {
    let outs = run_checked(e_capacity::e5_scenarios());
    let table = e_capacity::e5_table(&outs);
    for row in &table.rows {
        let ratio: f64 = row.last().unwrap().parse().unwrap();
        assert!((0.95..1.2).contains(&ratio), "measured/predicted {ratio}");
    }
}

#[test]
fn e9_piggybacking_cuts_net_messages_and_no_delivery_is_late() {
    let outs = planned(e_st::e9_scenarios, e_st::e9_table);
    assert_eq!(net_per_client(&outs[0]), 1.0);
    for w in outs.windows(2) {
        assert!(net_per_client(&w[1]) < net_per_client(&w[0]));
    }
    assert!(outs.iter().all(|o| counter(o, "st.late_delivery") == 0));
}
