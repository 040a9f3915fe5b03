//! The `dash-benchmark` binary; see the crate's `README.md`.

#[global_allocator]
static ALLOC: dash_benchmark::alloc::CountingAlloc = dash_benchmark::alloc::CountingAlloc;

fn main() {
    std::process::exit(dash_benchmark::cli::main());
}
