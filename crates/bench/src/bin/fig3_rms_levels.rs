//! Regenerate the Figure 3 per-layer delay-budget table on its own.
//!
//! Every measured latency in the table comes from message lifecycle spans
//! and the metric registry (`dash_sim::obs`): each delivered message
//! carries a span id from the transport send through ST, the interface
//! queue, and the wire to port delivery.
//!
//! ```text
//! cargo run -p dash-bench --release --bin fig3_rms_levels          # table
//! cargo run -p dash-bench --release --bin fig3_rms_levels -- --json
//! ```
//!
//! With `--json` the full metric registry follows the table as JSON Lines
//! (one object per counter/histogram).

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if json {
        let (table, registry) = dash_bench::figs::fig3_rms_levels_json();
        println!("{}", table.render());
        print!("{registry}");
    } else {
        println!("{}", dash_bench::figs::fig3_rms_levels().render());
    }
}
