//! Run every experiment (or one, by id) and print its table.
//!
//! ```text
//! cargo run -p dash-bench --release --bin run_experiments            # all
//! cargo run -p dash-bench --release --bin run_experiments e6_admission
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for (id, e) in dash_bench::all_experiments() {
            eprintln!("running {id} ...");
            println!("{}", e.table().render());
        }
    } else {
        for id in &args {
            match dash_bench::run_one(id) {
                Some(t) => println!("{}", t.render()),
                None => {
                    eprintln!("unknown experiment: {id}");
                    eprintln!(
                        "known: {}",
                        dash_bench::all_experiments()
                            .iter()
                            .map(|(n, _)| *n)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
    }
}
