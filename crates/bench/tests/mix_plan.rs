//! The mix plan under the runner: hashed and aligned placement merge to
//! one digest, a bulk transfer larger than its receive buffer completes on
//! serial and par, and per-host installs partition the plan.

use dash_apps::scenario::{run, Backend};
use dash_apps::traffic::{self, Acct, Class, RpcFlow};
use dash_bench::mix::MixParams;
use dash_net::ids::HostId;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_transport::stack::StackBuilder;

fn par(shards: u32) -> Backend {
    Backend::Par { shards }
}

#[test]
fn hashed_placement_matches_aligned() {
    // Hashed placement (no groups) splits LANs across shards, shrinking
    // epochs to the LAN wire delay — tiny workload, same digest.
    let mut hashed = MixParams::micro().scenario();
    hashed.groups.clear();
    let a = run(&hashed, par(1));
    let received: u64 = a.acct.flows.values().map(|t| t.received).sum();
    assert!(received > 10, "received {received}");
    let b = run(&hashed, par(3));
    assert_eq!(a.determinism_digest(), b.determinism_digest());
    let c = run(&MixParams::micro().scenario(), par(3));
    assert_eq!(a.determinism_digest(), c.determinism_digest());
}

/// A transfer larger than the bulk profile's 256 KiB receive buffer
/// completes: the driver's sink consumes at delivery. (Before it did,
/// every flow stalled at 64 chunks, at any size above the buffer.)
#[test]
fn bulk_larger_than_the_receive_buffer_delivers_every_chunk() {
    let p = MixParams {
        bulk_bytes: 1 << 20,
        churn_per_wave: 0,
        fault_drill: false,
        // Two 1 MiB transfers share each 10 Mb/s LAN: ~2 s of wire.
        duration: SimDuration::from_secs(4),
        grace: SimDuration::from_secs(2),
        ..MixParams::ci()
    };
    let scenario = p.scenario();
    let planned: u64 = scenario
        .plan
        .flows
        .iter()
        .filter(|f| f.class == Class::Bulk)
        .map(|f| f.count)
        .sum();
    assert_eq!(planned, 6 * 256);
    for backend in [Backend::Serial, par(2)] {
        let o = run(&scenario, backend);
        let bulk = o.acct.class(Class::Bulk);
        assert_eq!(bulk.sent, planned, "{backend:?}");
        assert_eq!(bulk.received, planned, "{backend:?}");
        assert_eq!(bulk.bytes, 6 << 20, "{backend:?}");
    }
}

/// The ownership filter partitions the plan: what `install(..,
/// Some(h))` schedules and registers, summed over all hosts, is what
/// `install(.., None)` does — flow for flow, each host taking exactly
/// the opens, call loops and services the plan gives it, and keeping
/// tallies only for the entries it holds an end of.
#[test]
fn per_host_installs_partition_the_plan() {
    let scenario = MixParams::micro().scenario();
    let plan = &scenario.plan;
    let hosts = (scenario.topo)().hosts.len() as u32;
    // Each flow's and each call loop's planned messages, by plan index.
    let planned = |a: &Acct| {
        let flows = a.flows.iter().map(|(&i, t)| (i, t.planned));
        let rpcs = a.rpcs.iter().map(|(&i, t)| (i, t.planned));
        (flows.collect::<Vec<_>>(), rpcs.collect::<Vec<_>>())
    };
    // (scheduled opens and call loops, which pairs' services exist, the
    // world's accounting)
    let installed = |owner: Option<HostId>| {
        let mut sim = Sim::new(StackBuilder::new((scenario.topo)()).build());
        assert_eq!(sim.events_pending(), 0, "a fresh world is idle");
        let acct = traffic::install(&mut sim, plan, owner);
        let served = |r: &RpcFlow| sim.state.rkom.host(r.server).has_service(r.service);
        let served: Vec<usize> = plan.rpcs.iter().map(|r| served(r) as usize).collect();
        let acct = acct.borrow().clone();
        (sim.events_pending(), served, acct)
    };
    let mut sum = (0, vec![0; plan.rpcs.len()], Acct::default());
    for h in (0..hosts).map(HostId) {
        let (pending, served, acct) = installed(Some(h));
        let mine = plan.flows.iter().filter(|f| f.src == h).count()
            + plan.rpcs.iter().filter(|r| r.client == h).count();
        assert_eq!(pending, mine, "{h:?} scheduled someone else's share");
        for (r, n) in plan.rpcs.iter().zip(&served) {
            assert_eq!(*n, (r.server == h) as usize, "{h:?} service {}", r.service);
        }
        let ends = |i: &u32| {
            let f = &plan.flows[*i as usize];
            f.src == h || f.dst == h
        };
        assert!(
            acct.flows.keys().all(ends),
            "{h:?} tallies a flow it holds no end of"
        );
        sum.0 += pending;
        sum.1.iter_mut().zip(served).for_each(|(s, n)| *s += n);
        sum.2.merge(&acct);
    }
    let whole = installed(None);
    assert_eq!((sum.0, &sum.1), (whole.0, &whole.1));
    assert_eq!(planned(&sum.2), planned(&whole.2));
    assert_eq!(sum.0, plan.flows.len() + plan.rpcs.len());
}
