//! Run every experiment (or those named, in the order given) and print its
//! table.
//!
//! ```text
//! cargo run -p dash-bench --release --bin run_experiments            # all
//! cargo run -p dash-bench --release --bin run_experiments e6_admission
//! ```

fn main() {
    let all = dash_bench::all_experiments();
    let known: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.is_empty() {
        ids = known.iter().map(|id| id.to_string()).collect();
    }
    for id in ids {
        let Some(&(id, e)) = all.iter().find(|(n, _)| *n == id) else {
            eprintln!("unknown experiment: {id}\nknown: {}", known.join(", "));
            std::process::exit(2);
        };
        eprintln!("running {id} ...");
        println!("{}", e.table(id).render());
    }
}
