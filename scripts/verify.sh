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

# Dependency direction: check <- apps <- bench. The oracle is a leaf
# above dash-sim, so the scenario runner can judge every run and the
# benchmark can install the oracle without linking the workload library
# or the explorer (which lives in dash-bench, above the plans).
if cargo tree -p dash-check -e normal --prefix none | grep -E '^(dash-|rms-core )' | grep -vE '^dash-(check|sim) '; then
    echo "verify: dash-check depends on a workspace crate other than dash-sim (above);" >&2
    echo "verify: the oracle must stay a leaf: check <- apps <- bench." >&2
    exit 1
fi
if cargo tree -p dash-benchmark -e normal -i dash-apps 2>/dev/null | grep .; then
    echo "verify: dash-benchmark links dash-apps (path above); it may use" >&2
    echo "verify: dash-check's oracle, never the workload library."       >&2
    exit 1
fi

cargo build --release

# First, and cheap (about a second): the paper's efficiency claim as a
# test. On loss-free links with no fault plan the CI mix must do no
# repair work — no stream retransmission, no RKOM resend behind channel
# creation, oracle clean — on the serial engine and on dash-par. If this
# fails, the long suites below are measuring a stack that wastes work.
cargo test -q --test no_spurious_work

# An RMS that ends leaves its table (seconds, debug): when the only
# network of a LAN dies mid-flow the sender keeps no network endpoint, ST
# stream or session, and a reliable sender that gave up schedules nothing
# when a late ack reaches it. Each layer's one failure routine removes
# the record; a dead record left behind needs a guard on every path.
if ! cargo test -q -p dash-transport --test transport_e2e a_dead_network_leaves_the_senders_tables_empty ||
   ! cargo test -q -p dash-transport --test stream_recovery a_late_ack_for_an_ended_sender_schedules_nothing; then
    echo "verify: an ended RMS left its record behind, or work ran on it (test above):" >&2
    echo "verify: pipeline::report_failed, the ST's give_up_stream and stream::end"   >&2
    echo "verify: must remove what they end — reproduce with"                         >&2
    echo "verify:   cargo test -p dash-transport --test transport_e2e a_dead_network"  >&2
    echo "verify:   cargo test -p dash-transport --test stream_recovery a_late_ack"   >&2
    exit 1
fi

# A crash fails every RMS it touches, at every end (about a second,
# debug): an RKOM pair keeps answering after either end crashes and
# restarts, because the survivor's ends toward the crashed host fail and
# its ST and RKOM open fresh channels once the host is back. A survivor
# kept sending into endpoints the crash had removed.
if ! cargo test -q --test explore rkom_recovers_after_either_end_crashes_and_restarts; then
    echo "verify: RKOM did not recover after a crash and restart (test above): the" >&2
    echo "verify: crash must fail every endpoint whose path touches the host, at"  >&2
    echo "verify: both ends (net::fault::crash_host) — reproduce with"             >&2
    echo "verify:   cargo test --test explore rkom_recovers -- --nocapture"        >&2
    exit 1
fi

# A crash gives back everything the crashed host had a part in (well under
# a second): right after it, the host holds no reservation, pin, endpoint,
# create or invite and its ledgers read zero, and the survivors' ledgers no
# longer count the RMSs it ended. A hold left behind is capacity that
# admission never gets back.
if ! cargo test -q -p dash-net --test faults a_crashed_host_restarts_empty; then
    echo "verify: a crashed host kept a reservation, pin or record (test above): the"   >&2
    echo "verify: fault walk (net::pipeline::fail_cut) must give back every hold and"   >&2
    echo "verify: end every endpoint the crash cuts — reproduce with"                   >&2
    echo "verify:   cargo test -p dash-net --test faults a_crashed_host_restarts_empty -- --nocapture" >&2
    exit 1
fi

# The data path's steady state: on a running stream (voice, tagged and
# bundled voice, reliable, and fragmenting reliable), 2 000 more ticks
# must cost a fixed number of allocations per message and leave the live
# heap where it was. Protocol actions are unboxed calls over slab-parked
# data, headers — control frames and the stream Hello included — are
# carved from the shared header store, a bundle's segment list is
# recycled, and nothing records per message (one counting allocator,
# dash_sim::alloc::Counting, measures both; hot_path_allocs gates the
# allocations, flat_memory the heap). rms-core's wire_allocs holds the
# segment-list pool to the same standard: once warm, a bundle-sized
# message, its clone and a message spilled by pushing allocate nothing.
# Establishment's route work is held to the same standard: once a host's
# on-demand graph and table exist, `candidate_paths` and a `path` walk
# allocate only their answers, a warm create -> ack allocates only its
# candidates and the hop list it announces (one shared `Path` per RMS), and
# building a topology computes no routes (dash-net's route_allocs). The span tracker
# too: with obs on and warm, a span opened and delivered allocates nothing,
# and a full tracker still discards the smallest open id (dash-sim's
# span_allocs).
if ! cargo test --release -q --test hot_path_allocs --test flat_memory; then
    echo "verify: a running stream left its steady state (leg above): more allocations" >&2
    echo "verify: per frame means a protocol action boxes or copies per message; live" >&2
    echo "verify: heap growth means something records per message — reproduce with"   >&2
    echo "verify:   cargo test --release --test hot_path_allocs --test flat_memory -- --nocapture" >&2
    exit 1
fi
if ! cargo test --release -q -p dash-net --test route_allocs a_warm_create_allocates_only_its_candidates_and_pinned_hops; then
    echo "verify: a warm create -> ack allocates more than candidate_paths plus the"  >&2
    echo "verify: pinned hop list (test above): the request, its answer or an"       >&2
    echo "verify: endpoint copies the path instead of sharing the candidate's —"    >&2
    echo "verify: reproduce with"                                                     >&2
    echo "verify:   cargo test --release -p dash-net --test route_allocs a_warm_create -- --nocapture" >&2
    exit 1
fi
if ! cargo test --release -q -p dash-net --test route_allocs -- --skip a_warm_create; then
    echo "verify: route computation allocates more than its answer (test above): an"    >&2
    echo "verify: establishment rebuilds a graph, search buffers or service tables per" >&2
    echo "verify: call, or building a topology computes routes again — reproduce with"  >&2
    echo "verify:   cargo test --release -p dash-net --test route_allocs -- --nocapture" >&2
    exit 1
fi
if ! cargo test --release -q -p dash-sim --test span_allocs; then
    echo "verify: the span tracker allocates per span, or evicts other than the"          >&2
    echo "verify: smallest open id (test above): its tables must keep their capacity" >&2
    echo "verify: once warm — reproduce with"                                         >&2
    echo "verify:   cargo test --release -p dash-sim --test span_allocs -- --nocapture" >&2
    exit 1
fi
if ! cargo test --release -q -p rms-core --test wire_allocs; then
    echo "verify: a spilled wire message allocates its segment list (test above): a"  >&2
    echo "verify: bundle's list must come from and go back to the per-thread pool"    >&2
    echo "verify: once warm — reproduce with"                                         >&2
    echo "verify:   cargo test --release -p rms-core --test wire_allocs -- --nocapture" >&2
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
# rt_conformance and rkom_cold_start are held back because they carry a
# failure hint, a time box or a release build below; no_spurious_work,
# hot_path_allocs and flat_memory already ran above, and so did the two
# ended-RMS tests and the crashed-host test the member suites skip, and
# explore's crash-restart test.
cargo test --workspace --exclude dash -q -- --skip propagates_instead_of_wedging \
    --skip a_dead_network_leaves_the_senders_tables_empty \
    --skip a_late_ack_for_an_ended_sender_schedules_nothing \
    --skip a_crashed_host_restarts_empty
cargo test -q --lib --examples
cargo test -q --doc

# The examples that read the metric registry by name, run as debug builds:
# a misspelt counter name trips `MetricRegistry::counter_value`'s debug
# assertion here instead of silently reading 0. window_system asserts that
# the window-system plan word paints updates inside its 100 ms budget;
# voice_stream and parallel assert on the traffic driver's tallies (voice
# on time beside a bulk transfer; every stream opened on dash-par). Each
# runs in about a second.
for ex in quickstart congestion rkom_rpc window_system voice_stream parallel; do
    cargo run -q --example "$ex" >/dev/null
done
for t in tests/*.rs; do
    name="$(basename "$t" .rs)"
    case "$name" in chaos | explore | rt_conformance | no_spurious_work | hot_path_allocs | flat_memory | rkom_cold_start) continue ;; esac
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

# Hostile opening headers: arbitrary and near-miss headers (0xD5/0xD6
# prefixes, truncated Hellos, unknown flag bits, Hellos naming a session
# the host holds) ride ST creates to a stack host; nothing panics, every
# inbound lane gets exactly the client its header earns, and no session id
# gets a second receiving session — on far more cases than the default.
PROPTEST_CASES=2000 cargo test --release -q -p dash-transport --test hostile_headers

# RKOM calls issued 2 ms into the CI mix, inside the open burst (the
# create wedge an early reproduction saw on 3 seeds in 64): on 64 seeds,
# loss-free and without the drill, every call completes and nothing is
# left pending — optimised, a second or two.
PROPTEST_CASES=64 cargo test --release -q --test rkom_cold_start

# Hostile handshakes: forged and duplicated CreateReq/Ack/Nak, Invite and
# Release packets (ids leaning toward a create in flight and a live RMS,
# sources from every host, malformed source routes) injected at the
# network layer; nothing panics, the run drains, the create reports exactly
# one outcome, and only its peer's ack can create it.
PROPTEST_CASES=2000 cargo test --release -q -p dash-net --test hostile_handshake

# Reservation bookkeeping: random creates, invites, closes, networks
# going down and up and gateways crashing and restarting on a 3x3 mesh,
# with demands that make gateways NAK (the creator walks its alternates)
# and creators refuse their own first hop; once each run drains, every
# reservation and forwarding pin belongs to a live endpoint or a pending
# create, and every interface ledger equals the sum of the reservations it
# holds. Optimised, about a second.
if ! PROPTEST_CASES=2000 cargo test --release -q -p dash-net --test reservations; then
    echo "verify: a reservation or pin outlived its stream, or a ledger drifted from"   >&2
    echo "verify: its reservations (case and ops above): a fault, refusal, NAK,"        >&2
    echo "verify: release or close leaves state behind — reproduce with"                >&2
    echo "verify:   PROPTEST_CASES=2000 cargo test --release -p dash-net --test reservations" >&2
    exit 1
fi

# Hostile ST control messages: forged, duplicated and replayed
# StCreateReq/Ack/Nak and StClose from the peer and a third host, handed to
# the ST while a create is in flight on a 3-host LAN; nothing panics, every
# create ends in exactly one outcome, no request name opens a second
# receiving stream, and an answer from a non-peer changes nothing.
if ! PROPTEST_CASES=2000 cargo test --release -q -p dash-subtransport --test hostile_control; then
    echo "verify: a forged or repeated ST control message faked, repeated or lost a"    >&2
    echo "verify: create's outcome, or opened a second stream under one id (assertion"  >&2
    echo "verify: above): the ST answered a non-peer or an id it already holds —"       >&2
    echo "verify: reproduce with"                                                        >&2
    echo "verify:   PROPTEST_CASES=2000 cargo test --release -p dash-subtransport --test hostile_control" >&2
    exit 1
fi

# Chaos suite: the explorer's `Genome::chaos(seed)` preset (three
# reliable 32 KiB flows of 30 x 256 B, 40 ms apart, under the fault plan
# drawn from the seed, stored as events) for seeds 0..28, baked into
# tests/chaos.rs, run through `run_scenario` — `dash_apps::scenario::run`,
# whose verdict is the oracle's, plus `no-wedge` — with the summed
# deliveries and typed failures pinned. On failure the offending seed and
# its violations are in the assertion message; reproduce with
#   cargo test --test chaos seeded_chaos -- --nocapture
if ! cargo test --test chaos -q; then
    echo "verify: chaos suite FAILED — seeds 0..28; the failing seed is"       >&2
    echo "verify: printed above, and run_scenario(&Genome::chaos(seed))"      >&2
    echo "verify: replays it exactly with the same oracle violations."         >&2
    exit 1
fi

# Exploration suite (dash-bench's explorer): fixed-seed coverage-guided
# search over genomes of every plan word and fault event on the healthy
# stack must find nothing, the seeded admission bug must be found and
# shrunk to one flow with no fault on at least 18 of 20 mutation seeds,
# and every stored repro (tests/repros/, `dash replay v3`) must replay
# byte-identically and still fail. All deterministic;
# the box is a wedge guard, not a noise allowance. Build first so the box
# times the search, not the compiler.
cargo test --test explore -q --no-run
if ! timeout "$EXPLORE_BOX" cargo test --test explore -q -- \
    --skip rkom_recovers_after_either_end_crashes_and_restarts; then
    echo "verify: exploration suite FAILED (or exceeded its ${EXPLORE_BOX} s box) —" >&2
    echo "verify: reproduce with cargo test --test explore -- --nocapture;"  >&2
    echo "verify: a find replays with replay::parse + run_scenario."         >&2
    exit 1
fi

# The routing cost curve doubles as a smoke: it exits non-zero if any
# probed pair of the 3x3 mesh — up to 1 002 hosts — comes back with fewer
# than three alternates (the capped clique search found none there).
cargo run --release -q --example routing_cost >/dev/null

# Every paper table once, in release (about 3 s, most of it e13's
# wall-paced run). Every planned experiment, e10-e13 included, runs
# through run_checked, which panics on a verdict that is not clean (an
# oracle violation or a wall-box stop) or a shard-count divergence and
# names the table; so any of those in any table, not only those a test
# runs, fails here.
if ! cargo run --release -q -p dash-bench --bin run_experiments >/dev/null; then
    echo "verify: run_experiments FAILED (the panic above names the table:" >&2
    echo "verify: oracle violation, wall-box stop or shard divergence) —"   >&2
    echo "verify: reproduce one table with"                                   >&2
    echo "verify:   cargo run --release -p dash-bench --bin run_experiments <id>" >&2
    exit 1
fi

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

# A report, not a gate: non-test Rust lines per crate, the number the
# simplicity work pushes down.
scripts/loc.sh

echo "verify: OK"
