#!/usr/bin/env bash
# Full verification: formatting, release build, every test suite once,
# the real-time conformance suite, clippy and rustdoc with warnings
# promoted to errors, and the benchmark's smoke. Run from anywhere inside
# the repo. (Every backend's oracle-checked macro-workload run is a test:
# tests/determinism.rs, tests/mix_backends.rs, dash-bench's mix tests.)
#
# Time boxes only ever cover *execution*, never compilation: every boxed
# binary is built beforehand, so a cold target directory (or a busy CI
# machine paging the compiler) cannot eat a box and fail a run that
# never even started. Boxes are env-tunable for slower machines:
#   EXPLORE_BOX=60 scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

EXPLORE_BOX="${EXPLORE_BOX:-30}"

cargo fmt --all -- --check

# Dependency direction: scenario <- check <- bench. The workload library
# must stay below the oracle and the experiment harness, or the explorer
# (dash-check) can never sit on `dash_apps::scenario`.
if cargo tree -p dash-apps -e normal --prefix none | grep -E '^dash-(check|bench) '; then
    echo "verify: dash-apps depends on dash-check or dash-bench (above);" >&2
    echo "verify: the direction is dash-apps <- dash-check <- dash-bench." >&2
    exit 1
fi

cargo build --release

# First, and cheap (about a second): the paper's efficiency claim as a
# test. On loss-free links with no fault plan the CI mix must do no
# repair work — no stream retransmission, no RKOM resend behind channel
# creation, oracle clean — on the serial engine and on dash-par. If this
# fails, the long suites below are measuring a stack that wastes work.
cargo test -q --test no_spurious_work

# The data path's steady state: on a running stream (voice, reliable,
# and fragmenting reliable), 2 000 more frames must cost a fixed number
# of allocations each and leave the live heap where it was. Protocol
# actions are unboxed calls over slab-parked data, and nothing records
# per message (one counting allocator, tests/steady/mod.rs, measures
# both; hot_path_allocs gates the allocations, flat_memory the heap).
if ! cargo test --release -q --test hot_path_allocs --test flat_memory; then
    echo "verify: a running stream left its steady state (leg above): more allocations" >&2
    echo "verify: per frame means a protocol action boxes or copies per message; live" >&2
    echo "verify: heap growth means something records per message — reproduce with"   >&2
    echo "verify:   cargo test --release --test hot_path_allocs --test flat_memory -- --nocapture" >&2
    exit 1
fi

# Every test runs exactly once. dash-par's panic-propagation tests go
# first, by name and boxed: `std::sync::Barrier` does not poison, so a
# regression there is a wedged executor, and this way it costs seconds
# and says what it is instead of hanging the suite below.
cargo test -p dash-par -q --lib --no-run
if ! timeout 30 cargo test -p dash-par -q --lib propagates_instead_of_wedging; then
    echo "verify: dash-par panic propagation FAILED (or exceeded its 30 s box):" >&2
    echo "verify: a panicking shard worker must make run_sharded panic, not"     >&2
    echo "verify: leave the other workers in barrier.wait() — reproduce with"    >&2
    echo "verify:   cargo test -p dash-par propagates_instead_of_wedging -- --nocapture" >&2
    exit 1
fi

# Then each member crate's own suite (unit, integration and doc tests;
# the rest of dash-par's executor tests and dash-rt's unit/property tests
# are in here), then the root package's library, examples and doc tests,
# then its integration tests one binary at a time — chaos, explore and
# rt_conformance are held back because they carry a failure hint, a time
# box or a release build below; no_spurious_work, hot_path_allocs and
# flat_memory already ran above.
cargo test --workspace --exclude dash -q -- --skip propagates_instead_of_wedging
cargo test -q --lib --examples
cargo test -q --doc

# The examples that read the metric registry by name, run as debug builds:
# a misspelt counter name trips `MetricRegistry::counter_value`'s debug
# assertion here instead of silently reading 0.
for ex in quickstart congestion rkom_rpc; do
    cargo run -q --example "$ex" >/dev/null
done
for t in tests/*.rs; do
    name="$(basename "$t" .rs)"
    case "$name" in chaos | explore | rt_conformance | no_spurious_work | hot_path_allocs | flat_memory) continue ;; esac
    cargo test -q --test "$name"
done

# Route computation against its reference: the host–network-graph
# search and BFS must equal the clique-based code they replaced (kept in
# crates/net/tests/common/mod.rs) on far more random meshes than the
# default 96 — optimised build, fixed count, a few seconds.
PROPTEST_CASES=2000 cargo test --release -q -p dash-net --test routing differential

# The reliable stream's recovery machine against random loss: any set of
# lost data and ack packets is repaired exactly once, in order, without a
# wedge, and with retransmissions proportional to the loss — again on far
# more cases than the default, optimised, under a second.
PROPTEST_CASES=2000 cargo test --release -q -p dash-transport --test stream_recovery random_loss

# Chaos suite: the explorer's `Scenario::chaos(seed)` flow preset (three
# reliable 32 KiB flows of 30 x 256 B, 40 ms apart, under a fault plan
# drawn from the seed) for seeds 0..28, baked into tests/chaos.rs, run
# through `run_scenario` — `dash_apps::scenario::run` plus the oracle as
# the verdict. On failure the offending seed and its violations are in
# the assertion message; reproduce with
#   cargo test --test chaos seeded_chaos -- --nocapture
if ! cargo test --test chaos -q; then
    echo "verify: chaos suite FAILED — seeds 0..28; the failing seed is"       >&2
    echo "verify: printed above, and run_scenario(&Scenario::chaos(seed))"     >&2
    echo "verify: replays it exactly with the same oracle violations."         >&2
    exit 1
fi

# Exploration suite (dash-check): fixed-seed coverage-guided search over
# flow lists (from the `Scenario::baseline` preset) on the healthy stack
# must find nothing, the seeded admission bug must be found and shrunk to
# one flow, and the stored shrunk repro (tests/repros/, `dash-check replay
# v2`) must replay byte-identically. All deterministic; the box is a wedge
# guard, not a noise allowance. Build first so the box times the search,
# not the compiler.
cargo test --test explore -q --no-run
if ! timeout "$EXPLORE_BOX" cargo test --test explore -q; then
    echo "verify: exploration suite FAILED (or exceeded its ${EXPLORE_BOX} s box) —" >&2
    echo "verify: reproduce with cargo test --test explore -- --nocapture;"  >&2
    echo "verify: a find replays with replay::parse + run_scenario."         >&2
    exit 1
fi

# The routing cost curve doubles as a smoke: it exits non-zero if any
# probed pair of the 3x3 mesh — up to 1 002 hosts — comes back with fewer
# than three alternates (the capped clique search found none there).
cargo run --release -q --example routing_cost >/dev/null

# Real-time backend: the sim-vs-rt conformance suite, in release (its
# paced runs are judged against the wall clock).
cargo test --release --test rt_conformance -q

cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The benchmark at smoke size: every workload three times. It fails on
# digest drift across repetitions, a traced digest that differs from the
# timed one, any oracle violation, a conservation error, or a 2-shard
# run that disagrees with the 1-shard run. Wall, allocation and
# per-layer numbers are reported, never gated here — comparing two
# result sets is `dash-benchmark compare`'s job. Sub-second once built;
# the fixed 120 s box is a wedge guard.
cargo build --release -q -p dash-benchmark
if ! timeout 120 cargo run --release -q -p dash-benchmark -- \
        --smoke --reps 3 >/dev/null; then
    echo "verify: dash-benchmark smoke FAILED (a correctness check, or" >&2
    echo "verify: exceeded its 120 s box) — reproduce with"              >&2
    echo "verify:   cargo run --release -p dash-benchmark -- --smoke --reps 3" >&2
    exit 1
fi

# The benchmark's own account of the same claim: the traced bulk-frag
# run (32 KiB reliable messages over loss-free links) reports its
# retransmitted fraction in the per-layer rows of its JSON result; it
# must be exactly zero.
bulk_json="$(mktemp)"
trap 'rm -f "$bulk_json"' EXIT
timeout 120 cargo run --release -q -p dash-benchmark -- \
    --smoke --reps 3 --workload bulk-frag --out "$bulk_json" >/dev/null
if ! grep -Eq '"transport\.stream\.retransmit_frac": 0,?$' "$bulk_json"; then
    echo "verify: bulk-frag retransmits on loss-free links:" >&2
    grep -E '"transport\.stream\.(retransmit_frac|acks_per_msg)"' "$bulk_json" >&2 || true
    echo "verify: reproduce with"                             >&2
    echo "verify:   cargo run --release -p dash-benchmark -- --smoke --workload bulk-frag" >&2
    exit 1
fi

echo "verify: OK"
