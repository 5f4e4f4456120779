#!/usr/bin/env sh
# Tier-1 gate for the Relational Fabric workspace (see README.md).
#
# Everything here runs OFFLINE: the workspace resolves with zero external
# crates, so this script must never need the network. Run it from the
# repository root before every commit; CI runs exactly the same steps.
#
#   1. cargo fmt --check        (skipped if rustfmt is not installed)
#   2. cargo build --release
#   3. cargo test -q            (whole workspace)
#   4. fabric-lint --self-check (the token-level analyzer first replays
#                                its fixture corpus — every rule's
#                                expected findings, exactly — then scans
#                                the workspace against lint-baseline.txt,
#                                failing on new debt AND on stale entries)
#   5. bounded chaos sweep      (tests/fault_tolerance.rs with a fixed
#                                seed; fails on any answer divergence and
#                                prints the replay seed); then the
#                                Relational Storage pipeline under the
#                                fixed seed and the second one, as in
#                                step 13: a compressed table on a device
#                                under injected faults retries transient
#                                page and link faults to the quiet bytes,
#                                surfaces a latent page as FlashReadError
#                                and leaves balanced trace spans — the one
#                                fetch pipeline of DESIGN.md §31)
#   6. traced query             (trace_query bin: one Fig-5-shaped query
#                                under one trace; the exported
#                                Chrome trace is structurally validated
#                                and two same-seed chaos runs must export
#                                bit-identical traces — trace_determinism)
#   7. parallel equivalence     (tests/parallel_equivalence.rs at 1/2/4
#                                cores with a fixed chaos seed: morsel-
#                                parallel answers must be bit-identical
#                                to the 1-core run on every access path)
#   8. executor equivalence    (tests/executor_equivalence.rs over the
#                                staged-executor grid — path x cores x
#                                chaos seed x op-cache temperature: warm
#                                answers bit-identical to cold with zero
#                                hierarchy traffic, armed fault plans
#                                bypass the cache, scratch buffers recycle
#                                without fresh allocations)
#   9. querylog determinism    (tests/querylog_determinism.rs over the
#                                same grid: byte-identical query-log /
#                                workload / calibration JSON from two
#                                identically seeded engines, per-operator
#                                estimates summing bit-exactly to the
#                                path estimate, hits and degraded runs
#                                logged but never calibrated); then the
#                                plan-key property under the fixed seed
#                                and the second one, as in step 13:
#                                generated plan pairs get equal
#                                signatures if and only if they are
#                                bitwise equal outside ORDER BY / LIMIT
#                                — DESIGN.md §32)
#  10. profiler determinism     (profile_query bin twice under the fixed
#                                seed: the exact fold of the trace must
#                                export byte-identical .folded
#                                collapsed-stack profiles — identical to
#                                the checked-in results/PROFILE_query.folded
#                                too, so that file cannot go stale — with
#                                the folded cycles summing to the observed
#                                cycles and no trace event dropped; the bin
#                                asserts both)
#  11. perf regression gate     (tools/perf_gate.sh --check on one bench
#                                per family plus fig7_tpch, so Figs. 5
#                                and 7 are both gated, and the three
#                                ablations that alone reach relstore,
#                                rowstore::index and compress
#                                (abl_relstore abl_index abl_compression),
#                                and the two that reach the versioned
#                                table's commit and snapshot-scan code
#                                (abl_mvcc abl_htap), compared against
#                                the checked-in results/BENCH_*.json
#                                baselines: cycle
#                                counters exact, histograms exact in
#                                count, sum, min, max and every bucket
#                                (so every latency percentile read from
#                                them), gauges at 5%,
#                                wall-clock excluded; the query-log
#                                documents results/QUERYLOG_{calib,
#                                report,workload}.json byte for byte, so
#                                they cannot go stale; ends with the gate
#                                self-test, which injects a synthetic
#                                +10% cycle regression and asserts the
#                                gate fails it; each artifact appends a
#                                results/TRAJECTORY.jsonl line with its
#                                counter digest and cycle / byte / line
#                                totals)
#  12. crash-recovery matrix    (tests/crash_recovery.rs with the same
#                                fixed seed and again under the second
#                                one, as in step 13: a power cut at every
#                                durable write of a transactional
#                                workload, each recovered and checked
#                                bit-identical to the never-crashed run at
#                                the recovered watermark, replay
#                                idempotent, postmortems validator-clean
#                                and byte-deterministic; then
#                                tests/checkpoint_images.rs under both
#                                seeds: generated histories over all
#                                eight column types on the versioned
#                                table's row images against the Value
#                                round trip they replaced — identical row
#                                bytes, chains, clock and MemStats after
#                                every write, byte-identical checkpoint
#                                blobs, restores and snapshot reads —
#                                DESIGN.md §14, §18; then
#                                tests/client_rows.rs under both seeds:
#                                generated tables over all eight column
#                                types, plain / LIMIT / ORDER BY / top-k
#                                results around a fill block and a
#                                gather block, on every path at 1/2/4
#                                cores cold and as a hit, against the
#                                per-value row builder they replaced —
#                                bit-identical rows in order (DESIGN.md
#                                "The client boundary"))
#  13. host fast paths          (tests/host_fast_paths.rs under the fixed
#                                seed and again under a second fixed
#                                seed: the CRC — slicing-by-8 tables and
#                                carry-less-multiply folding, whichever
#                                the CPU runs — against the bytewise loop,
#                                Value::compare, decode_into, compiled f64
#                                sums, and grouping on key words — one,
#                                two and three words a row, NaN payloads,
#                                texts equal up to an embedded NUL, more
#                                distinct keys a morsel than the linear
#                                table of seen keys holds — against the
#                                rendered-key grouping it replaced, on
#                                ROW/COL/RM at 1/2/4 cores — DESIGN.md
#                                §18, §29; then
#                                tests/device_reference.rs under the same
#                                seed: the RM device's batch-at-a-time
#                                produce and run_aggregate against the
#                                verbatim per-row loop, every batch's
#                                bytes, CRC and times, RmStats, device
#                                DRAM counters and fault draws identical,
#                                quiet and armed — DESIGN.md §26)
#  14. allocation steady state  (tests/alloc_steady_state.rs: a counting
#                                global allocator shows Q1, Q6 and a key
#                                lookup allocate per morsel and per RM
#                                batch, never per scanned row, and a
#                                projection per returned row, never per
#                                qualifying or memoised row; a one-row
#                                op-cache hit allocates at most 7 times,
#                                the same at 62 metric keys as at 485; a
#                                warm hit on ROW/COL/RM at 1/2/4 cores
#                                resolves no metric name, and a replaced
#                                registry or added cores get what a fresh
#                                registry gets — DESIGN.md §30); then
#                                fabric-obs's handles-vs-names
#                                differential under the fixed seed and
#                                the second seed, as in step 13; then
#                                tests/bounded_state.rs under the
#                                fixed seed: a session per generated
#                                statement over its own column set (a
#                                plan geometry and ledger key of its own)
#                                at 1/2/4 cores, and the metrics registry
#                                holds exactly the same keys after 250
#                                sessions as after 25 — DESIGN.md §27)
#  15. result batches           (tests/result_batch.rs under the fixed
#                                seed: projections over all eight column
#                                types, every ORDER BY / LIMIT shape, on
#                                ROW/COL/RM at 1/2/4 cores, cold and as
#                                op-cache hits, against the row-vector
#                                sort-and-truncate pipeline they replaced
#                                — DESIGN.md §19)
#  16. typed stage 0            (tests/typed_stage0.rs under the fixed
#                                seed and the second one, as in step 13:
#                                generated statements over all
#                                eight column types on ROW/COL/RM at
#                                1/2/4 cores against the row-at-a-time
#                                pipeline, and each layout's chunk kernel
#                                against its verbatim old per-row kernel
#                                with every core's counters and clock
#                                identical — DESIGN.md §21)
#  17. line path reference      (tests/line_path_reference.rs under the
#                                fixed seed and the second one, as in
#                                step 13: generated ROW/COL/gather/
#                                random/re-scan/stall/flush traces into
#                                MemoryHierarchy and a naive reference
#                                with Vec-per-set LRU caches and the
#                                map-based prefetcher at 1/2/4 cores and
#                                cache widths of 1 to 16 ways, every
#                                core's MemStats and clock identical
#                                after every call — DESIGN.md §18, §22)
#  18. benchmark smoke test     (cargo test in benchmark/, a workspace of
#                                its own: the two-clock benchmark at tiny
#                                scale — schema against BENCHMARK.json,
#                                trace validates and nests, simulated
#                                counters repeat; benchmark/README.md)

set -eu

cd "$(dirname "$0")/.."

say() { printf '\n==> %s\n' "$*"; }

# seeded_test <title> <test> <NAME=value>...: run one suite of tests/ under
# the given environment. Every such suite is deterministic in it, so a red
# run reproduces locally with the command printed here.
seeded_test() {
    title=$1
    test=$2
    shift 2
    say "$title ($*)"
    if ! env "$@" cargo test -q --test "$test"; then
        printf '\n%s FAILED — replay with:\n  %s cargo test --test %s\n' "$title" "$*" "$test"
        exit 1
    fi
}

if cargo fmt --version >/dev/null 2>&1; then
    say "cargo fmt --check"
    cargo fmt --check
else
    say "cargo fmt not available — skipping format check"
fi

say "cargo build --release"
cargo build --release

say "cargo test -q --workspace"
cargo test -q --workspace

say "cargo run -p fabric-lint -- --self-check"
cargo run -q -p fabric-lint -- --self-check

# The seeded steps share one fixed seed and one core grid. Override to
# explore or widen, e.g.
#   FABRIC_CHAOS_SEED=$RANDOM FABRIC_CHAOS_PLANS=32 tools/ci.sh
#   FABRIC_PAR_CORES=1,2,4,8 tools/ci.sh
CHAOS_SEED="${FABRIC_CHAOS_SEED:-16430364}"
CHAOS_PLANS="${FABRIC_CHAOS_PLANS:-12}"
PAR_CORES="${FABRIC_PAR_CORES:-1,2,4}"
SEED="FABRIC_CHAOS_SEED=$CHAOS_SEED"
GRID="FABRIC_PAR_CORES=$PAR_CORES"
# The Relational Storage pipeline (step 5), the plan-key property (step
# 9), the crash-recovery matrix and the checkpoint row images (step 12),
# the differentials of grouping and aggregation on key words (steps 13
# and 16) and of metric handles against names (step 14) run under a
# second fixed seed too.
SECOND_SEED="FABRIC_CHAOS_SEED=2718281"

seeded_test "chaos sweep" fault_tolerance "$SEED" "FABRIC_CHAOS_PLANS=$CHAOS_PLANS"
for seed in "$SEED" "$SECOND_SEED"; do
    say "relstore fetch pipeline under faults ($seed)"
    if ! env "$seed" cargo test -q -p relstore --lib compressed::tests::under_faults; then
        printf '
relstore pipeline FAILED — replay with:
  %s cargo test -p relstore --lib compressed::tests::under_faults
' "$seed"
        exit 1
    fi
done

# The bin validates its export with fabric-obs's own chrome-trace
# validator and exits non-zero on a malformed or unbalanced trace.
say "traced query (trace_query --rows 8192)"
cargo run -q --release -p bench --bin trace_query -- --rows 8192
seeded_test "trace determinism" trace_determinism "$SEED"

seeded_test "parallel equivalence" parallel_equivalence "$GRID" "$SEED"
seeded_test "executor equivalence" executor_equivalence "$GRID" "$SEED"
seeded_test "querylog determinism" querylog_determinism "$GRID" "$SEED"
for seed in "$SEED" "$SECOND_SEED"; do
    say "plan keys are bitwise plan identity ($seed)"
    if ! env "$seed" cargo test -q -p query --lib exec::opcache::tests::equal_signatures_iff_bitwise_equal_plans; then
        printf '
plan keys FAILED — replay with:
  %s cargo test -p query --lib equal_signatures_iff_bitwise_equal_plans
' "$seed"
        exit 1
    fi
done

say "profiler determinism (profile_query twice, byte-identical .folded)"
PROF_SCRATCH="$(mktemp -d)"
trap 'rm -rf "$PROF_SCRATCH"' EXIT INT TERM
for run in 1 2; do
    mkdir -p "$PROF_SCRATCH/$run"
    FABRIC_RESULTS_DIR="$PROF_SCRATCH/$run" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
        cargo run -q --release -p bench --bin profile_query -- --rows 4096 >/dev/null
done
if ! cmp -s "$PROF_SCRATCH/1/PROFILE_query.folded" "$PROF_SCRATCH/2/PROFILE_query.folded"; then
    printf '\nprofiler determinism FAILED — two same-seed runs exported different profiles:\n'
    diff "$PROF_SCRATCH/1/PROFILE_query.folded" "$PROF_SCRATCH/2/PROFILE_query.folded" || true
    exit 1
fi
if ! cmp -s "$PROF_SCRATCH/1/PROFILE_query.folded" results/PROFILE_query.folded; then
    printf '
profiler determinism FAILED — results/PROFILE_query.folded is stale:
'
    diff results/PROFILE_query.folded "$PROF_SCRATCH/1/PROFILE_query.folded" || true
    printf 're-stamp it with:
  tools/perf_gate.sh --update-baselines profile_query
'
    exit 1
fi
rm -rf "$PROF_SCRATCH"

# One bench from each family (ablation, figure reproduction, traced query,
# crash recovery, profiled query, query log), both figure families the
# engine produces (the micro queries of Figs. 5/6, TPC-H of Fig. 7), and
# the three ablations that are the only callers of relstore,
# rowstore::index and compress, and the two that run the versioned
# table's commit, checkpoint and software snapshot scan. A legitimate
# perf change re-stamps baselines with:
#   tools/perf_gate.sh --update-baselines
say "perf regression gate (abl_parallel fig5_projectivity fig7_tpch trace_query abl_recovery profile_query querylog_report abl_relstore abl_index abl_compression abl_mvcc abl_htap + self-test)"
tools/perf_gate.sh --check abl_parallel fig5_projectivity fig7_tpch trace_query abl_recovery profile_query querylog_report abl_relstore abl_index abl_compression abl_mvcc abl_htap

seeded_test "crash-recovery matrix" crash_recovery "$SEED"
seeded_test "crash-recovery matrix, second seed" crash_recovery "$SECOND_SEED"
seeded_test "checkpoint row images" checkpoint_images "$SEED"
seeded_test "checkpoint row images, second seed" checkpoint_images "$SECOND_SEED"
seeded_test "client rows" client_rows "$SEED"
seeded_test "client rows, second seed" client_rows "$SECOND_SEED"
seeded_test "host fast paths" host_fast_paths "$GRID" "$SEED"
seeded_test "host fast paths, second seed" host_fast_paths "$GRID" "$SECOND_SEED"
seeded_test "device reference" device_reference "$SEED"

# Deterministic, no seed: the counting allocator exists in this test
# binary only.
say "allocation steady state and metric-name resolutions"
cargo test -q --test alloc_steady_state
for seed in "$SEED" "$SECOND_SEED"; do
    say "metric handles against names ($seed)"
    if ! env "$seed" cargo test -q -p fabric-obs --lib metrics::tests::handles_write_what_names_write; then
        printf '
metric handles FAILED — replay with:
  %s cargo test -p fabric-obs --lib handles_write_what_names_write
' "$seed"
        exit 1
    fi
done
seeded_test "bounded state" bounded_state "$GRID" "$SEED"

seeded_test "result batches" result_batch "$GRID" "$SEED"
seeded_test "typed stage 0" typed_stage0 "$GRID" "$SEED"
seeded_test "typed stage 0, second seed" typed_stage0 "$GRID" "$SECOND_SEED"
seeded_test "line path reference" line_path_reference "$GRID" "$SEED"
seeded_test "line path reference, second seed" line_path_reference "$GRID" "$SECOND_SEED"

# The two-clock benchmark is a workspace of its own (benchmark/README.md),
# outside `cargo test --workspace`.
say "benchmark smoke test (benchmark/Cargo.toml)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

say "tier-1 gate passed"
