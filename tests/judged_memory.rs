//! A judged run keeps no event stream. On `Serial` (and `Rt`) the oracle
//! is a sink in the world, so a run without `keep_events` or
//! `record_trace` captures nothing: its live-heap high-water mark
//! (`dash_sim::alloc::Counts::peak`) is below the same run's with its
//! events kept by at least the kept stream's own bytes.

use std::mem::size_of;

use dash::apps::scenario::{run, Backend, Scenario};
use dash::sim::alloc::{counted, Counting};
use dash::sim::{ObsEvent, SimTime};
use dash_bench::mix::MixParams;

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_judged_serial_run_keeps_no_event_stream() {
    let (judged, spent) = counted(|| run(&MixParams::ci().scenario(), Backend::Serial));
    assert!(judged.stream.is_empty(), "a judged run captured its events");
    assert!(judged.verdict.is_clean(), "{}", judged.verdict);

    let kept = Scenario {
        keep_events: true,
        ..MixParams::ci().scenario()
    };
    let (kept, kept_spent) = counted(|| run(&kept, Backend::Serial));
    assert_eq!(
        kept.verdict, judged.verdict,
        "keeping events changed the verdict"
    );
    let stream_bytes = (kept.stream.len() * size_of::<(SimTime, ObsEvent)>()) as i64;
    println!(
        "serial ci: peak live {} B judged, {} B with {} events kept ({stream_bytes} B of stream)",
        spent.peak,
        kept_spent.peak,
        kept.stream.len()
    );
    assert!(
        spent.peak + stream_bytes <= kept_spent.peak,
        "judging holds {} B at peak, keeping the stream only {} B more",
        spent.peak,
        kept_spent.peak - spent.peak
    );
}
