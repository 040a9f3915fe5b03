//! Run a macro-workload scenario (planned by `dash_bench::mix`, run by
//! `dash_apps::scenario::run`) on one backend: e10
//! is `--backend serial`, e12 `--backend par`, e13 `--backend rt`, and the
//! `e11*` sizes are the routing workload (`dash_bench::e_routing`).
//!
//! ```text
//! cargo run -p dash-bench --release --bin mix -- --backend serial --size full
//! cargo run -p dash-bench --release --bin mix -- --backend serial --size e11-ci
//! cargo run -p dash-bench --release --bin mix -- --backend par --size ci         # scan 1/2/4 shards
//! cargo run -p dash-bench --release --bin mix -- --backend par --size ci --shards 2
//! cargo run -p dash-bench --release --bin mix -- --backend rt --size ci --loss 20
//! ```
//!
//! Every run prints its report line and its verdict line. A `par` run
//! without `--shards` scans 1/2/4 shards and demands the merged
//! determinism digests be byte-identical — the executor's core contract.
//! An `rt` run is *paced*: it costs `duration + grace` of real time. Exit
//! 2 on bad usage; exit 1 on a verdict that is not clean (an oracle
//! violation or a wall-box stop) or a shard divergence. How fast any of
//! this runs is measured by `dash-benchmark`, not here.

use dash_apps::scenario::{run, Backend, Outcome, Scenario};
use dash_apps::traffic::Tally;
use dash_bench::e_routing::RoutingParams;
use dash_bench::mix::MixParams;

const USAGE: &str = "usage: mix [--backend serial|par|rt]
           [--size ci|routing-ci|micro|full|e11-ci|e11-mesh-ci|e11|e11-mesh]
           [--shards N] [--hashed]    (par; without --shards: scan 1/2/4)
           [--loss PER_MILLE]         (rt; 0..=1000)";

fn parse(args: &[String]) -> Result<(String, Scenario, Vec<Backend>), String> {
    let mut backend = "serial";
    let mut size = "ci";
    let mut shards: Option<u32> = None;
    let mut hashed = false;
    let mut loss: Option<u32> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--backend" => backend = value()?,
            "--size" => size = value()?,
            "--hashed" => hashed = true,
            "--shards" => {
                let n = value()?.parse().ok().filter(|n| *n > 0);
                shards = Some(n.ok_or("--shards needs a positive integer")?);
            }
            "--loss" => {
                let n = value()?.parse().ok().filter(|n| *n <= 1000);
                loss = Some(n.ok_or("--loss needs a per-mille integer in 0..=1000")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // No trace and no kept events: the trace only feeds the digest, and
    // the printed hash covers the registry and every scalar, which is
    // what a CLI run compares; the verdict is taken online.
    let scenario = match size {
        "ci" => MixParams::ci().scenario(),
        "routing-ci" => MixParams::routing_ci().scenario(),
        "micro" => MixParams::micro().scenario(),
        "full" => MixParams::full().scenario(),
        "e11-ci" => RoutingParams::ci().scenario(),
        "e11-mesh-ci" => RoutingParams::ci().on_mesh().scenario(),
        "e11" => RoutingParams::full().scenario(),
        "e11-mesh" => RoutingParams::full().on_mesh().scenario(),
        other => return Err(format!("unknown size: {other}")),
    };
    if backend != "par" && (shards.is_some() || hashed) {
        return Err("--shards and --hashed apply to --backend par only".into());
    }
    if backend != "rt" && loss.is_some() {
        return Err("--loss applies to --backend rt only".into());
    }
    let backends = match backend {
        "serial" => vec![Backend::Serial],
        "par" => shards
            .map_or(vec![1, 2, 4], |s| vec![s])
            .into_iter()
            .map(|shards| Backend::Par {
                shards,
                lan_aligned: !hashed,
            })
            .collect(),
        "rt" => vec![Backend::Rt {
            loss_per_mille: loss.unwrap_or(0),
        }],
        other => return Err(format!("unknown backend: {other}")),
    };
    Ok((format!("{backend} {size}"), scenario, backends))
}

fn report(label: &str, o: &Outcome) {
    let (streams, calls): (_, Tally) = (o.acct.streams(), o.acct.rpcs.values().sum());
    let detail = match (o.backend, &o.rt) {
        (Backend::Par { shards, .. }, _) => {
            format!(", shards {shards}, digest {}", o.digest_hash())
        }
        (_, Some(rt)) => format!(
            ", {:.2} s virtual, stop {:?}, {} misses (max lag {:.2} ms), carried {}/{} dropped {}",
            o.sim_secs,
            rt.stop,
            rt.deadline_misses,
            rt.max_lag.as_secs_f64() * 1e3,
            rt.injected,
            rt.transmitted,
            rt.substrate_dropped,
        ),
        _ => format!(", digest {}", o.digest_hash()),
    };
    println!(
        "mix [{label}]: {} hosts, {} events in {:.2} s wall, {} opened, {} refused, {} msgs, \
         rpc {}/{}, voice on-time {:.1}%, {} cache misses, {} faults, {} alt wins, {} floods, \
         {} recomputes, {} failovers{detail}",
        o.hosts,
        o.events,
        o.wall_secs,
        streams.opened,
        streams.failed,
        o.messages(),
        calls.received,
        calls.sent,
        o.voice_on_time() * 100.0,
        o.registry.counter_value("st.cache_miss"),
        o.faults_injected,
        o.registry.counter_value("routing.alternate_wins"),
        o.registry.counter_value("routing.floods"),
        o.registry.counter_value("routing.recompute"),
        o.registry.counter_value("st.failover_completed"),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (label, scenario, backends) = parse(&args).unwrap_or_else(|msg| {
        eprintln!("mix: {msg}\n{USAGE}");
        std::process::exit(2);
    });

    let (mut par_digest, mut failed) = (None, false);
    for &backend in &backends {
        let o = run(&scenario, backend);
        report(&label, &o);
        println!("mix [{label}]: {}", o.verdict);
        failed |= !o.verdict.is_clean();
        if let Backend::Par { .. } = backend {
            let digest = o.determinism_digest();
            if *par_digest.get_or_insert_with(|| digest.clone()) != digest {
                eprintln!("mix [{label}]: DIVERGED from the first shard count");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    if backends.len() > 1 {
        println!("mix [{label}]: all shard counts byte-identical");
    }
}
