//! Developer tool: sample allocation backtraces during a full-size serial
//! `mix` run.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release -p dash-bench --bin alloc_profile
//! ```
//!
//! Every `SAMPLE_EVERY`-th heap allocation captures a backtrace; the top
//! call sites by sampled count are printed at exit. Useful for deciding
//! where `dash-benchmark`'s `allocs_per_msg` actually comes from before
//! optimizing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dash_apps::scenario::{run, Backend};
use dash_bench::mix::MixParams;

const SAMPLE_EVERY: u64 = 1009; // prime, to avoid phase lock

static COUNT: AtomicU64 = AtomicU64::new(0);
static TRACES: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

thread_local! {
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

struct SamplingAlloc;

unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // The sampling hook allocates too (the backtrace, its summary, the
        // map entry); those are the tool's own and count nowhere.
        IN_HOOK.with(|f| {
            if f.get() {
                return;
            }
            let n = COUNT.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(SAMPLE_EVERY) {
                f.set(true);
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                let key = summarize(&bt);
                if let Ok(mut g) = TRACES.lock() {
                    *g.get_or_insert_with(HashMap::new).entry(key).or_insert(0) += 1;
                }
                f.set(false);
            }
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: SamplingAlloc = SamplingAlloc;

/// Keep the first few in-crate frames; drop allocator/backtrace noise.
fn summarize(bt: &str) -> String {
    let mut picked = Vec::new();
    for line in bt.lines() {
        let l = line.trim();
        if !l.contains(" at ") && !l.starts_with(char::is_numeric) {
            continue;
        }
        let is_frame = l
            .split_once(": ")
            .map(|(_, f)| f.to_string())
            .unwrap_or_default();
        if is_frame.is_empty() {
            continue;
        }
        if !(is_frame.contains("dash")
            || is_frame.contains("rms_core")
            || is_frame.contains("bytes::"))
        {
            continue;
        }
        picked.push(is_frame);
        if picked.len() == 5 {
            break;
        }
    }
    picked.join(" <- ")
}

fn main() {
    let o = run(&MixParams::full().scenario(), Backend::Serial);
    eprintln!(
        "alloc_profile: {} events, {} allocs total ({:.2}/event)",
        o.events,
        COUNT.load(Ordering::Relaxed),
        COUNT.load(Ordering::Relaxed) as f64 / o.events as f64,
    );
    let g = TRACES.lock().unwrap();
    if let Some(map) = g.as_ref() {
        let mut v: Vec<_> = map.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1));
        for (k, n) in v.iter().take(40) {
            println!("{n:>6}  {k}");
        }
    }
}
