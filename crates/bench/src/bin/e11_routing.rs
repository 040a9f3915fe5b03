//! Run the e11 QoS-routing macro-workload on both topologies
//! (dumbbell-with-backup and the 3×3 mesh) and print its event counts.
//!
//! ```text
//! cargo run -p dash-bench --release --bin e11_routing                   # full size
//! cargo run -p dash-bench --release --bin e11_routing -- --ci           # CI size
//! cargo run -p dash-bench --release --bin e11_routing -- --ci --oracle  # semantic oracle attached
//! ```
//!
//! Exit 2 on bad usage, 1 on any oracle violation.

use dash_bench::e_routing::{run_routing, RoutingParams, RoutingTopo};

fn main() {
    let mut base = RoutingParams::full();
    let mut oracle = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--ci" => base = RoutingParams::ci(),
            "--full" => base = RoutingParams::full(),
            "--oracle" => oracle = true,
            other => {
                eprintln!("unknown argument: {other}\nusage: e11_routing [--ci|--full] [--oracle]");
                std::process::exit(2);
            }
        }
    }

    let mut violations = 0;
    for topo in [RoutingTopo::DumbbellBackup, RoutingTopo::Mesh3x3] {
        let params = RoutingParams {
            topo,
            record_trace: false,
            oracle,
            ..base.clone()
        };
        let o = run_routing(&params);
        println!(
            "e11_routing [{}]: {} hosts, {} events in {:.2} s wall, {} opened, {} refused, \
             {} alt wins, {} floods, {} recomputes, {} failovers, {} msgs",
            topo.label(),
            o.hosts,
            o.events,
            o.wall_secs,
            o.streams_opened,
            o.open_failed,
            o.alternate_wins,
            o.floods,
            o.recomputes,
            o.recoveries,
            o.messages,
        );
        for line in &o.oracle_violations {
            eprintln!("e11_routing [{}]: ORACLE {line}", topo.label());
        }
        violations += o.oracle_violations.len();
    }
    if violations > 0 {
        std::process::exit(1);
    }
    if oracle {
        println!("e11_routing: oracle clean (0 violations)");
    }
}
