//! The planned paper experiments: each runs oracle-clean on its backends
//! (`run_checked` panics otherwise), its projection renders a table with
//! a row per outcome at least, and the shape its notes claim holds.

use dash_apps::scenario::Outcome;
use dash_apps::traffic::{Class, Tally};
use dash_bench::{all_experiments, run_checked};
use dash_bench::{Experiment, Table};

/// Run the planned experiment `id`: its outcomes and its table.
fn planned(id: &str) -> (Vec<Outcome>, Table) {
    let found = all_experiments().into_iter().find(|(n, _)| *n == id);
    let Some((_, Experiment::Planned(scenarios, backends, project))) = found else {
        panic!("{id} is not a planned experiment");
    };
    let outs = run_checked(id, scenarios(), backends);
    let table = project(&outs);
    assert!(table.rows.len() >= outs.len(), "{id}: a row per outcome");
    (outs, table)
}

/// Column `col` of `table`'s row `row`, parsed.
fn cell<T: std::str::FromStr>(table: &Table, row: usize, col: usize) -> T {
    let text = &table.rows[row][col];
    text.parse()
        .unwrap_or_else(|_| panic!("{}: {text:?} does not parse", table.id))
}

fn counter(o: &Outcome, name: &str) -> u64 {
    o.registry.counter_value(name)
}

/// Network messages per message the clients sent.
fn net_per_client(o: &Outcome) -> f64 {
    counter(o, "st.net_msg_sent") as f64 / o.acct.class(Class::Voice).sent as f64
}

/// A duration cell as `table::secs` prints it, in seconds.
fn seconds(text: &str) -> f64 {
    let units = [("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0)];
    let (number, scale) = (units.iter())
        .find_map(|&(unit, scale)| Some((text.strip_suffix(unit)?, scale)))
        .unwrap_or((text, 1.0));
    number.parse::<f64>().expect("a duration") * scale
}

#[test]
fn all_but_three_experiments_are_planned() {
    let (planned, built): (Vec<_>, Vec<_>) = all_experiments()
        .into_iter()
        .partition(|(_, e)| matches!(e, Experiment::Planned(..)));
    let ids = |v: Vec<(&'static str, _)>| v.into_iter().map(|(id, _)| id).collect::<Vec<_>>();
    assert_eq!(ids(built), ["e1_security", "e3_caching", "e6_admission"]);
    assert_eq!(
        ids(planned),
        [
            "fig1_layering",
            "fig2_architecture",
            "fig3_rms_levels",
            "fig4_multiplexing",
            "fig5_flow_control",
            "e2_scheduling",
            "e4_fragmentation",
            "e5_capacity",
            "e7_rkom",
            "e8_congestion",
            "e9_piggyback",
            "e10_scale",
            "e11_routing",
            "e12_pscale",
            "e13_rt",
        ]
    );
}

#[test]
fn fig1_every_network_completes_the_transfer_with_voice_on_time() {
    for o in planned("fig1_layering").0 {
        assert!(o.acct.class(Class::Bulk).complete(), "{:?}", o.acct);
        assert_eq!(o.acct.class(Class::Voice).on_time_fraction(), 1.0);
    }
}

#[test]
fn fig2_one_call_and_one_message_cross_every_layer() {
    let outs = planned("fig2_architecture").0;
    let a = &outs[0].acct;
    assert_eq!((a.rpcs[&0].received, a.flows[&0].received), (1, 1));
    assert!(counter(&outs[0], "st.control_created") > 0);
}

#[test]
fn fig3_stages_fit_their_budgets_and_the_drill_fails_over() {
    let (outs, table) = planned("fig3_rms_levels");
    let at = |row: usize, col: usize| seconds(&table.rows[row][col]);
    // Its note: measured(network) <= measured(ST) <= ST bound.
    let (net, st, st_bound) = (at(0, 2), at(1, 2), at(1, 1));
    assert!(0.0 < net && net <= st && st <= st_bound, "{:?}", table.rows);
    assert!(
        at(0, 1) < st_bound,
        "the network is asked for less than the ST"
    );
    assert_eq!(outs[0].acct.flows[&0].received, 200);
    let drill = &outs[1];
    assert!(counter(drill, "st.failover_completed") >= 1);
    assert!(drill.registry.has_histogram("fault.recovery_latency"));
}

#[test]
fn fig4_piggybacking_cuts_net_messages_per_client_message() {
    let outs = planned("fig4_multiplexing").0;
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
    let outs = planned("fig5_flow_control").0;
    let reverse: Vec<u64> = (outs.iter())
        .map(|o| counter(o, "stream.ack_sent") + counter(o, "st.fast_ack_sent"))
        .collect();
    assert_eq!(reverse[..2], [0, 0], "none and rate-based send no acks");
    assert!(reverse[2] > 0 && reverse[3] > 0, "{reverse:?}");
    assert!(outs.iter().all(|o| o.acct.flows[&0].complete()));
}

#[test]
fn e2_edf_keeps_voice_on_time_and_fifo_does_not() {
    let outs = planned("e2_scheduling").0;
    let on_time: Vec<f64> = (outs.iter())
        .map(|o| o.acct.class(Class::Voice).on_time_fraction())
        .collect();
    assert!(on_time[0] >= 0.99, "edf {on_time:?}");
    assert!(
        on_time[1] < 0.9 && on_time[2] < 0.9,
        "fifo/priority {on_time:?}"
    );
}

#[test]
fn e4_cpu_busy_time_falls_with_message_size() {
    let outs = planned("e4_fragmentation").0;
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
    let (_, table) = planned("e5_capacity");
    for row in &table.rows {
        let ratio: f64 = row.last().unwrap().parse().unwrap();
        assert!((0.95..1.2).contains(&ratio), "measured/predicted {ratio}");
    }
}

#[test]
fn e9_piggybacking_cuts_net_messages_and_no_delivery_is_late() {
    let outs = planned("e9_piggyback").0;
    assert_eq!(net_per_client(&outs[0]), 1.0);
    for w in outs.windows(2) {
        assert!(net_per_client(&w[1]) < net_per_client(&w[0]));
    }
    assert!(outs.iter().all(|o| counter(o, "st.late_delivery") == 0));
}

#[test]
fn e7_both_rpc_legs_complete_and_the_stream_outruns_tcp() {
    let (outs, _) = planned("e7_rkom");
    let calls: Vec<_> = (outs[..2].iter())
        .map(|o| {
            let t: Tally = o.acct.rpcs.values().chain(o.acct.tcp.values()).sum();
            (t.sent, t.received, t.failed)
        })
        .collect();
    assert_eq!(calls, [(60, 60, 0), (50, 50, 0)], "RKOM, TCP sequential");
    let (stream, tcp) = (&outs[2].acct.flows[&0], &outs[3].acct.tcp[&0]);
    assert!(stream.complete() && tcp.complete());
    let goodput = |t: &Tally| t.goodput().unwrap();
    assert!(
        goodput(stream) > goodput(tcp),
        "stream {} B/s, TCP {} B/s",
        goodput(stream),
        goodput(tcp)
    );
}

#[test]
fn e8_rate_enforcement_drops_nothing_and_ignoring_quench_drops_most() {
    let (outs, table) = planned("e8_congestion");
    let drops: Vec<u64> = (0..3).map(|row| cell(&table, row, 1)).collect();
    assert_eq!(drops[0], 0, "RMS rate-enforced: {drops:?}");
    assert!(
        drops[2] > drops[1],
        "ignoring quench vs reacting: {drops:?}"
    );
    // Each of the three flows moved its share: every per-flow goodput is
    // non-zero in every row.
    for (row, o) in outs.iter().enumerate() {
        let transfers: Vec<&Tally> = o.acct.flows.values().chain(o.acct.tcp.values()).collect();
        assert_eq!(transfers.len(), 3, "row {row}");
        assert!(transfers.iter().all(|t| t.complete()), "row {row}");
        let shares = &table.rows[row][4];
        let shares: Vec<f64> = (shares.trim_end_matches(" B/s").split(" / "))
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(shares.len(), 3, "row {row}: {shares:?}");
        assert!(shares.iter().all(|&s| s > 0.0), "row {row}: {shares:?}");
    }
}

#[test]
fn e10_delivered_messages_grow_with_the_offered_streams() {
    let (outs, _) = planned("e10_scale");
    for w in outs.windows(2) {
        assert!(w[1].messages() > w[0].messages());
    }
}

#[test]
fn e11_outages_are_re_homed_on_both_topologies() {
    let (outs, _) = planned("e11_routing");
    assert!(counter(&outs[0], "routing.alternate_wins") > 0, "dumbbell");
    assert!(outs.iter().all(|o| counter(o, "st.failover_completed") > 0));
}

#[test]
fn e12_every_shard_count_merges_to_one_digest() {
    let (outs, table) = planned("e12_pscale");
    let shards: Vec<u32> = (0..3).map(|row| cell(&table, row, 0)).collect();
    assert_eq!(shards, [1, 2, 4]);
    let digest = outs[0].determinism_digest();
    assert!(outs.iter().all(|o| o.determinism_digest() == digest));
}

#[test]
fn e13_both_rt_rows_stop_at_the_horizon() {
    let (_, table) = planned("e13_rt");
    for row in &table.rows {
        assert_eq!(row[7], "horizon");
    }
}
