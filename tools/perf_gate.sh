#!/usr/bin/env sh
# Noise-aware perf regression gate (DESIGN.md §12).
#
# Reruns bench binaries into a scratch results directory (via the
# FABRIC_RESULTS_DIR redirect every bin honors through bench::harness) and
# compares each fresh BENCH_<name>.json against the checked-in baseline in
# results/ with the perf_gate binary: cycle counters must match exactly
# (the simulator is deterministic), gauges tolerate 5% drift, wall-clock
# metrics are excluded. The query-log documents querylog_report writes
# (QUERYLOG_{calib,report,workload}.json) must match results/ byte for
# byte. Offline, like everything else in tools/.
#
# Usage:
#   tools/perf_gate.sh --check [bench ...]              fail on regression
#   tools/perf_gate.sh --update-baselines [bench ...]   refresh results/
#
# With no bench names, the full suite (all 16 binaries) runs. Bench names
# are binary names (fig7_tpch covers both of its artifacts). --check
# appends one machine-readable line per artifact to results/TRAJECTORY.jsonl.

set -eu

cd "$(dirname "$0")/.."

MODE=check
NAMES=""
for a in "$@"; do
    case "$a" in
        --check) MODE=check ;;
        --update-baselines) MODE=update ;;
        --*) echo "perf_gate.sh: unknown flag $a" >&2; exit 2 ;;
        *) NAMES="$NAMES $a" ;;
    esac
done

# The full bench suite with gate-sized arguments. Baselines are generated
# by --update-baselines with EXACTLY these invocations, so a --check rerun
# of any subset is an apples-to-apples comparison.
ALL_BENCHES="abl_compression abl_faults abl_htap abl_index abl_mvcc \
abl_opcache abl_parallel abl_pushdown abl_recovery abl_relstore \
abl_rm_device fig5_projectivity fig6_heatmap fig7_tpch profile_query \
querylog_report trace_query"

bench_args() {
    case "$1" in
        abl_compression)   echo "--rows 20000" ;;
        abl_faults)        echo "--rows 8192 --rounds 8" ;;
        abl_htap)          echo "--accounts 10000 --batches 8 --updates 200" ;;
        abl_index)         echo "--rows 65536" ;;
        abl_mvcc)          echo "--rows 20000" ;;
        abl_opcache)       echo "--rows 20000 --reps 4" ;;
        abl_parallel)      echo "--rows 20000 --cores 1,2,4" ;;
        abl_pushdown)      echo "--rows 65536" ;;
        abl_recovery)      echo "--commits 256" ;;
        abl_relstore)      echo "--rows 100000" ;;
        abl_rm_device)     echo "--rows 65536" ;;
        fig5_projectivity) echo "--rows 65536" ;;
        fig6_heatmap)      echo "--rows 65536" ;;
        fig7_tpch)         echo "both --max-target 4" ;;
        profile_query)     echo "--rows 4096 --reps 8" ;;
        querylog_report)   echo "--rows 20000 --reps 3" ;;
        trace_query)       echo "--rows 8192" ;;
        *) echo "perf_gate.sh: unknown bench $1" >&2; exit 2 ;;
    esac
}

[ -n "$NAMES" ] || NAMES="$ALL_BENCHES"

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT INT TERM

say() { printf '\n==> %s\n' "$*"; }

say "building bench binaries (release)"
cargo build -q --release -p bench

FAILED=0
for name in $NAMES; do
    rm -rf "$SCRATCH/run"
    mkdir -p "$SCRATCH/run"
    say "running $name $(bench_args "$name")"
    # shellcheck disable=SC2046
    FABRIC_RESULTS_DIR="$SCRATCH/run" \
        cargo run -q --release -p bench --bin "$name" -- $(bench_args "$name") \
        >/dev/null
    artifacts=$(cd "$SCRATCH/run" && ls BENCH_*.json 2>/dev/null || true)
    if [ -z "$artifacts" ]; then
        echo "perf_gate.sh: $name produced no BENCH_*.json artifact" >&2
        FAILED=1
        continue
    fi
    # Documents checked in beside their envelope, re-stamped with it: the
    # folded profile (tools/ci.sh compares it byte for byte) and the
    # query-log documents (compared byte for byte here).
    docs=$(cd "$SCRATCH/run" && ls PROFILE_query.folded QUERYLOG_*.json 2>/dev/null || true)
    for doc in $docs; do
        if [ "$MODE" = update ]; then
            cp "$SCRATCH/run/$doc" "results/$doc"
            echo "updated results/$doc"
        elif [ "$doc" != PROFILE_query.folded ] && ! cmp -s "$SCRATCH/run/$doc" "results/$doc"; then
            # One JSON value a line: the documents are single-line.
            printf '\nperf_gate.sh: results/%s is stale:\n' "$doc" >&2
            tr ',' '\n' <"results/$doc" >"$SCRATCH/checked_in"
            tr ',' '\n' <"$SCRATCH/run/$doc" >"$SCRATCH/fresh"
            diff "$SCRATCH/checked_in" "$SCRATCH/fresh" >&2 || true
            printf 're-stamp it with:\n  tools/perf_gate.sh --update-baselines %s\n' "$name" >&2
            FAILED=1
        fi
    done
    for art in $artifacts; do
        if [ "$MODE" = update ]; then
            mkdir -p results
            cp "$SCRATCH/run/$art" "results/$art"
            echo "updated results/$art"
        else
            if [ ! -f "results/$art" ]; then
                echo "perf_gate.sh: no baseline results/$art (run with --update-baselines)" >&2
                FAILED=1
                continue
            fi
            if ! cargo run -q --release -p bench --bin perf_gate -- \
                --baseline "results/$art" --fresh "$SCRATCH/run/$art" \
                --trajectory results/TRAJECTORY.jsonl; then
                FAILED=1
            fi
        fi
    done
done

if [ "$MODE" = check ]; then
    say "gate self-test (synthetic +10% cycle regression must fail)"
    if [ -f results/BENCH_trace_query.json ]; then
        self_baseline=results/BENCH_trace_query.json
    else
        self_baseline=$(ls results/BENCH_*.json | head -n 1)
    fi
    cargo run -q --release -p bench --bin perf_gate -- --self-test "$self_baseline"
fi

if [ "$FAILED" -ne 0 ]; then
    say "perf gate FAILED"
    exit 1
fi
say "perf gate passed"
