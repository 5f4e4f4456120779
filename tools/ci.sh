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
#                                prints the replay seed)
#   6. traced query             (trace_query bin: one Fig-5-shaped query
#                                under the ring recorder; the exported
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
#                                logged but never calibrated)
#  10. profiler determinism     (profile_query bin twice under the fixed
#                                seed: the cycle-domain sampling profiler
#                                must export byte-identical .folded
#                                collapsed-stack profiles, with the sample
#                                total reconciling against elapsed cycles
#                                — the bin asserts the reconciliation)
#  11. perf regression gate     (tools/perf_gate.sh --check on one bench
#                                per family, compared against the checked-
#                                in results/BENCH_*.json baselines: cycle
#                                counters exact, gauges — including the
#                                q1/q6 latency percentiles — at 5%,
#                                wall-clock excluded; ends with the gate
#                                self-test, which injects a synthetic
#                                +10% cycle regression and asserts the
#                                gate fails it)
#  12. crash-recovery matrix    (tests/crash_recovery.rs with the same
#                                fixed seed: a power cut at every durable
#                                write of a transactional workload, each
#                                recovered and checked bit-identical to
#                                the never-crashed run at the recovered
#                                watermark, replay idempotent, postmortems
#                                validator-clean and byte-deterministic)
#  13. host fast paths          (tests/host_fast_paths.rs under the fixed
#                                seed: sliced CRC, Value::compare,
#                                decode_into, compiled f64 sums and raw-key
#                                grouping each against the code it
#                                replaced, on ROW/COL/RM at 1/2/4 cores —
#                                DESIGN.md §18)
#  14. allocation steady state  (tests/alloc_steady_state.rs: a counting
#                                global allocator shows Q1, Q6 and a key
#                                lookup allocate per morsel and per RM
#                                batch, never per scanned row, and a
#                                projection per returned row, never per
#                                qualifying or memoised row)
#  15. result batches           (tests/result_batch.rs under the fixed
#                                seed: projections over all eight column
#                                types, every ORDER BY / LIMIT shape, on
#                                ROW/COL/RM at 1/2/4 cores, cold and as
#                                op-cache hits, against the row-vector
#                                sort-and-truncate pipeline they replaced
#                                — DESIGN.md §19)
#  16. benchmark smoke test     (cargo test in benchmark/, a workspace of
#                                its own: the two-clock benchmark at tiny
#                                scale — schema against BENCHMARK.json,
#                                trace validates and nests, simulated
#                                counters repeat; benchmark/README.md)

set -eu

cd "$(dirname "$0")/.."

say() { printf '\n==> %s\n' "$*"; }

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

# Bounded chaos: a fixed-seed sweep of randomized fault plans over
# RM-routed queries. Deterministic, so a red run here reproduces locally
# with the exact command below. Override the seed to explore, e.g.
#   FABRIC_CHAOS_SEED=$RANDOM FABRIC_CHAOS_PLANS=32 tools/ci.sh
CHAOS_SEED="${FABRIC_CHAOS_SEED:-16430364}"
CHAOS_PLANS="${FABRIC_CHAOS_PLANS:-12}"
say "chaos sweep (FABRIC_CHAOS_SEED=$CHAOS_SEED, $CHAOS_PLANS plans)"
if ! FABRIC_CHAOS_SEED="$CHAOS_SEED" FABRIC_CHAOS_PLANS="$CHAOS_PLANS" \
    cargo test -q --test fault_tolerance; then
    printf '\nchaos sweep FAILED — replay with:\n'
    printf '  FABRIC_CHAOS_SEED=%s FABRIC_CHAOS_PLANS=%s cargo test --test fault_tolerance\n' \
        "$CHAOS_SEED" "$CHAOS_PLANS"
    exit 1
fi

# Bounded observability check: trace one query end to end (the bin
# validates the export with fabric-obs's own chrome-trace validator and
# exits non-zero on a malformed or unbalanced trace), then assert the
# determinism contract — two runs with the same chaos seed must export
# byte-identical event streams and metrics snapshots.
say "traced query (trace_query --rows 8192) + trace determinism"
cargo run -q --release -p bench --bin trace_query -- --rows 8192
if ! FABRIC_CHAOS_SEED="$CHAOS_SEED" cargo test -q --test trace_determinism; then
    printf '\ntrace determinism FAILED — replay with:\n'
    printf '  FABRIC_CHAOS_SEED=%s cargo test --test trace_determinism\n' "$CHAOS_SEED"
    exit 1
fi

# Parallel equivalence: morsel-driven execution at 1/2/4 cores must return
# answers bit-identical to the 1-core run on every access path, with the
# per-core cycle attribution reconciling against the global clock — under
# the same fixed chaos seed as the sweep above. Widen the grid with e.g.
#   FABRIC_PAR_CORES=1,2,4,8 tools/ci.sh
PAR_CORES="${FABRIC_PAR_CORES:-1,2,4}"
say "parallel equivalence (FABRIC_PAR_CORES=$PAR_CORES, FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_PAR_CORES="$PAR_CORES" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
    cargo test -q --test parallel_equivalence; then
    printf '\nparallel equivalence FAILED — replay with:\n'
    printf '  FABRIC_PAR_CORES=%s FABRIC_CHAOS_SEED=%s cargo test --test parallel_equivalence\n' \
        "$PAR_CORES" "$CHAOS_SEED"
    exit 1
fi

# Executor equivalence: the staged executor's contracts over the full
# grid — every access path at 1/2/4 cores, cold and warm operator cache,
# with the fixed chaos seed arming the cache-bypass check. Warm runs must
# replay bit-identical answers with zero hierarchy traffic.
say "executor equivalence (FABRIC_PAR_CORES=$PAR_CORES, FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_PAR_CORES="$PAR_CORES" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
    cargo test -q --test executor_equivalence; then
    printf '\nexecutor equivalence FAILED — replay with:\n'
    printf '  FABRIC_PAR_CORES=%s FABRIC_CHAOS_SEED=%s cargo test --test executor_equivalence\n' \
        "$PAR_CORES" "$CHAOS_SEED"
    exit 1
fi

# Query-log / calibration determinism: the engine-wide query log and the
# cost-calibration ledger over the same grid (path x cores x chaos seed x
# cache temperature). Two identically seeded engines must export
# byte-identical querylog/workload/calib JSON, per-operator estimates
# must sum bit-exactly to the path estimate, and cache hits / degraded
# runs must be logged without ever feeding the ledger.
say "querylog determinism (FABRIC_PAR_CORES=$PAR_CORES, FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_PAR_CORES="$PAR_CORES" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
    cargo test -q --test querylog_determinism; then
    printf '\nquerylog determinism FAILED — replay with:\n'
    printf '  FABRIC_PAR_CORES=%s FABRIC_CHAOS_SEED=%s cargo test --test querylog_determinism\n' \
        "$PAR_CORES" "$CHAOS_SEED"
    exit 1
fi

# Profiler determinism: the cycle-domain sampling profiler is a pure
# function of the workload and the simulated clock, so two same-seed runs
# must export byte-identical collapsed-stack profiles. The bin itself
# asserts the sample total reconciles with the cycles it observed.
say "profiler determinism (profile_query twice, byte-identical .folded)"
PROF_SCRATCH="$(mktemp -d)"
trap 'rm -rf "$PROF_SCRATCH"' EXIT INT TERM
for run in 1 2; do
    mkdir -p "$PROF_SCRATCH/$run"
    FABRIC_RESULTS_DIR="$PROF_SCRATCH/$run" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
        cargo run -q --release -p bench --bin profile_query -- --rows 4096 --period 512 \
        >/dev/null
done
if ! cmp -s "$PROF_SCRATCH/1/PROFILE_query.folded" "$PROF_SCRATCH/2/PROFILE_query.folded"; then
    printf '\nprofiler determinism FAILED — two same-seed runs exported different profiles:\n'
    diff "$PROF_SCRATCH/1/PROFILE_query.folded" "$PROF_SCRATCH/2/PROFILE_query.folded" || true
    exit 1
fi
rm -rf "$PROF_SCRATCH"

# Perf regression gate: rerun one bench from each family (ablation,
# figure reproduction, traced query, crash recovery, profiled query) into
# a scratch results dir and compare against the checked-in baselines. The
# simulator is deterministic, so cycle counters must match the baseline
# EXACTLY; gauges — including the per-class latency percentiles — get 5%;
# host wall-clock metrics are excluded by policy. A legitimate perf
# change re-stamps baselines with:
#   tools/perf_gate.sh --update-baselines
say "perf regression gate (abl_parallel fig5_projectivity trace_query abl_recovery profile_query querylog_report + self-test)"
tools/perf_gate.sh --check abl_parallel fig5_projectivity trace_query abl_recovery profile_query querylog_report

# Crash-recovery matrix: deterministic power cuts at every durable write
# site of the WAL/checkpoint protocol (DESIGN.md §14), plus recovery
# idempotence and the recovered-answer equivalence invariant. Same seed
# discipline as the chaos sweep; a red run replays with the printed
# command.
say "crash-recovery matrix (FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_CHAOS_SEED="$CHAOS_SEED" cargo test -q --test crash_recovery; then
    printf '\ncrash-recovery matrix FAILED — replay with:\n'
    printf '  FABRIC_CHAOS_SEED=%s cargo test --test crash_recovery\n' "$CHAOS_SEED"
    exit 1
fi

# Host fast paths: every piece of host-side work DESIGN.md §18 removed is
# compared with the code it replaced on generated inputs, seeded like the
# chaos sweep.
say "host fast paths (FABRIC_PAR_CORES=$PAR_CORES, FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_PAR_CORES="$PAR_CORES" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
    cargo test -q --test host_fast_paths; then
    printf '\nhost fast paths FAILED — replay with:\n'
    printf '  FABRIC_PAR_CORES=%s FABRIC_CHAOS_SEED=%s cargo test --test host_fast_paths\n' \
        "$PAR_CORES" "$CHAOS_SEED"
    exit 1
fi

# Exact host work: allocations per query, counted by a global allocator
# that exists in that test binary only. Deterministic, no seed.
say "allocation steady state"
cargo test -q --test alloc_steady_state

# Result batches: what `QueryOutput.rows` holds must be what the
# row-vector pipeline returned, for generated tables and every ORDER BY /
# LIMIT shape (DESIGN.md §19), seeded like the chaos sweep.
say "result batches (FABRIC_PAR_CORES=$PAR_CORES, FABRIC_CHAOS_SEED=$CHAOS_SEED)"
if ! FABRIC_PAR_CORES="$PAR_CORES" FABRIC_CHAOS_SEED="$CHAOS_SEED" \
    cargo test -q --test result_batch; then
    printf '\nresult batches FAILED — replay with:\n'
    printf '  FABRIC_PAR_CORES=%s FABRIC_CHAOS_SEED=%s cargo test --test result_batch\n' \
        "$PAR_CORES" "$CHAOS_SEED"
    exit 1
fi

# The two-clock benchmark is a workspace of its own (benchmark/README.md),
# outside `cargo test --workspace`; its smoke test runs every workload at
# tiny scale and checks the metric schema against BENCHMARK.json.
say "benchmark smoke test (benchmark/Cargo.toml)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

say "tier-1 gate passed"
