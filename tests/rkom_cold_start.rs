//! RKOM calls issued inside the open burst all complete.
//!
//! The CI mix's RPC clients issue their first call 2 ms into the run,
//! while every voice, bulk and churn session of the plan is still opening
//! and the call's own channel is still being created. An early
//! reproduction saw such a call wedge on 3 seeds in 64 (the cause was
//! never found); the benchmark's RKOM workloads still start 300 ms late
//! because of it. On loss-free runs without the fault drill, every call of
//! every seed must complete, and nothing may be left pending at the
//! horizon.

use dash::apps::scenario::{run, Backend};
use dash::apps::traffic::Tally;
use dash_bench::mix::MixParams;
use proptest::prelude::*;

proptest! {
    #[test]
    fn rkom_calls_issued_in_the_open_burst_all_complete(seed in any::<u64>()) {
        let plan = MixParams {
            seed,
            fault_drill: false,
            ..MixParams::ci()
        };
        let o = run(&plan.scenario(), Backend::Serial);
        let calls: Tally = o.acct.rpcs.values().sum();
        prop_assert_eq!(calls.sent, 120, "seed {}: the plan's calls", seed);
        prop_assert_eq!(
            (calls.received, calls.failed, o.pending),
            (calls.sent, 0, 0),
            "seed {}: (completed, failed, pending)",
            seed
        );
    }
}
