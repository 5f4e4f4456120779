//! fabric-obs guarantees, end to end: deterministic traces under chaos,
//! bounded ring overflow, validator round-trips, folded stacks that
//! account for every traced cycle, and the zero-cost promise of tracing.
//!
//! The tracer stamps events with the simulated cycle clock and never
//! advances it, so a trace is a pure function of (workload, platform
//! config, fault seed): two runs with the same `FABRIC_CHAOS_SEED` and
//! fault plan must export byte-identical JSON and metrics snapshots.

use durability::DurabilityConfig;
use fabric_sim::{
    parse_json, validate_chrome_trace, Category, FaultConfig, Json, MemoryHierarchy,
    RecoveryPolicy, SimConfig,
};
use fabric_types::{ColumnType, Schema, Value};
use mvcc::DurableStore;
use query::{AccessPath, FaultContext};

mod support;
use support::{seed, wide_rm_engine};
const ROWS: usize = 4_096;
const SQL: &str = "SELECT c0, c5 FROM t WHERE c0 < 1000000";

/// A chaos-seeded resilient sweep under a trace of the given capacity:
/// returns (chrome trace JSON, metrics snapshot JSON, total rows out,
/// faults injected by the plan).
fn chaos_run(
    cfg: FaultConfig,
    queries: usize,
    ring_capacity: usize,
) -> (String, String, usize, u64) {
    let mut engine = wide_rm_engine(ROWS);
    engine.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
    engine.mem().trace_to(ring_capacity);
    let mut rows_out = 0usize;
    for _ in 0..queries {
        let out = engine.session().run(SQL).expect("resilient");
        rows_out += out.rows.len();
    }
    let trace = engine.mem().export_trace().expect("a trace is installed");
    let metrics = engine.mem_ref().metrics().snapshot().to_json();
    let injected = engine.fault_context().plan.stats().total();
    (trace, metrics, rows_out, injected)
}

/// High-but-probabilistic fault rates: enough draws over 8 queries that a
/// fault-free sweep is astronomically unlikely for any seed.
fn stormy(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_stall_prob: 0.35,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.35,
        rm_corrupt_prob: 0.35,
        ..FaultConfig::quiet(sweep_seed)
    }
}

/// A dead device: every delivery times out, so every query either retries
/// to exhaustion and degrades or is skipped by the open circuit breaker —
/// guaranteed fault instants in the trace, independent of the seed.
fn dead_device(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_timeout_prob: 1.0,
        ..FaultConfig::quiet(sweep_seed)
    }
}

#[test]
fn chaos_seeded_trace_is_bit_identical_across_runs() {
    let s = seed();
    let (t1, m1, r1, inj1) = chaos_run(stormy(s), 8, 1 << 14);
    let (t2, m2, r2, inj2) = chaos_run(stormy(s), 8, 1 << 14);
    assert!(inj1 > 0, "no faults injected (seed {s}) — run is vacuous");
    assert_eq!(inj1, inj2, "fault schedules diverged (seed {s})");
    assert_eq!(r1, r2, "answers diverged (seed {s})");
    assert_eq!(t1, t2, "trace streams diverged (seed {s})");
    assert_eq!(m1, m2, "metrics snapshots diverged (seed {s})");
    // The faults left a mark: the stormy trace differs from a quiet run's.
    let (quiet, ..) = chaos_run(FaultConfig::quiet(s), 8, 1 << 14);
    assert_ne!(t1, quiet, "injected faults are invisible in the trace");
}

#[test]
fn exported_trace_round_trips_through_the_validator() {
    let (trace, metrics, _, _) = chaos_run(dead_device(seed()), 8, 1 << 14);
    let summary = validate_chrome_trace(&trace).expect("structurally valid trace");
    assert!(summary.events > 0);
    assert_eq!(
        summary.begins, summary.ends,
        "unbalanced spans even though every error path closes its span"
    );
    assert!(
        summary.instants > 0,
        "dead-device run must emit degrade/breaker instants"
    );
    assert_eq!(summary.dropped, 0, "16 Ki ring must not wrap on this run");
    // The metrics snapshot uses the same parser-grade JSON.
    parse_json(&metrics).expect("metrics snapshot parses");
}

#[test]
fn ring_overflow_counts_drops_and_never_grows() {
    let capacity = 8;
    let (trace, ..) = chaos_run(FaultConfig::quiet(seed()), 4, capacity);
    // Wrap-around cuts the oldest events (possibly a span's `B`), so full
    // chrome validation does not apply — but the JSON must still parse,
    // the ring must hold at most `capacity` events, and the drop count
    // must make the truncation visible instead of silent.
    let doc = parse_json(&trace).expect("wrapped trace still parses");
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped"))
        .and_then(Json::as_num)
        .expect("dropped count exported") as u64;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .len();
    assert!(dropped > 0, "a 4-query run must overflow an 8-event ring");
    assert!(
        events <= capacity,
        "ring exceeded its capacity: {events} > {capacity}"
    );
}

/// Ops and checkpoint cadence of the deterministic write-path workload:
/// small enough to stay fast, dense enough that crash sites land on both
/// WAL appends and checkpoint writes, and that the post-recovery commits
/// cross a checkpoint boundary.
const D_OPS: i64 = 10;
const D_CKPT: u64 = 2;

/// Crash-and-recover workload on one hierarchy: commit under a device
/// armed to cut power at durable write `crash_at`, replay the surviving
/// image on the *same* machine (so one trace covers the WAL appends, the
/// checkpoint writes, and the replay phases), then commit past a
/// checkpoint boundary post-recovery.
fn durable_workload(m: &mut MemoryHierarchy, seed: u64, crash_at: u64) {
    let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
    let cfg =
        DurabilityConfig::quiet(seed).with_faults(FaultConfig::quiet(seed).with_crash_at(crash_at));
    let mut s = DurableStore::create(m, schema.clone(), 128, cfg, D_CKPT).expect("create");
    let mut crashed = false;
    for i in 0..D_OPS {
        let mut txn = s.begin();
        txn.insert(vec![Value::I64(i), Value::I64(i * 10)]);
        match s.commit(m, txn) {
            Ok(_) => {
                if s.take_checkpoint_failure().is_some() {
                    crashed = true;
                    break;
                }
            }
            Err(_) => {
                crashed = true;
                break;
            }
        }
    }
    assert!(
        crashed,
        "crash_at={crash_at} must cut within {D_OPS} commits"
    );
    let image = s.crash_image();
    let (mut r, report) = DurableStore::replay(
        m,
        schema,
        128,
        image,
        DurabilityConfig::quiet(seed ^ 0xD0),
        D_CKPT,
    )
    .expect("replay");
    for i in 0..2 * D_CKPT as i64 {
        let mut txn = r.begin();
        txn.insert(vec![Value::I64(1000 + i), Value::I64(i)]);
        r.commit(m, txn).expect("post-recovery commit");
    }
    assert!(r.snapshot_ts() > report.watermark);
}

/// Everything observable a write-path run produces, for bit-comparison.
struct WritePathRun {
    trace: String,
    metrics: String,
    folded: String,
    postmortems: Vec<String>,
    wal_appends: u64,
    replay_records: u64,
    /// Simulated cycles from the start to the end of the workload.
    elapsed: u64,
}

/// The write-path workload under a trace, inside one span so the trace's
/// first and last events bracket every cycle the workload spends.
fn write_path_run(seed: u64, crash_at: u64) -> WritePathRun {
    let mut m = MemoryHierarchy::new(SimConfig::zynq_a53());
    m.trace_to(1 << 15);
    let t0 = m.now();
    m.trace_begin("workload", Category::Store);
    durable_workload(&mut m, seed, crash_at);
    m.trace_end("workload", Category::Store, &[]);
    let trace = m.take_trace().expect("a trace is installed");
    assert_eq!(trace.dropped(), 0, "the trace must hold the whole workload");
    WritePathRun {
        trace: trace.to_chrome_json(),
        metrics: m.metrics().snapshot().to_json(),
        folded: trace.to_folded(),
        wal_appends: m.metrics().counter("durability.wal.appends"),
        replay_records: m.metrics().counter("durability.replay.records"),
        postmortems: m.take_postmortems().iter().map(|p| p.to_json()).collect(),
        elapsed: m.now() - t0,
    }
}

/// Sum of the cycle counts of a folded profile.
fn folded_total(folded: &str) -> u64 {
    folded
        .lines()
        .map(|l| {
            let (_, n) = l.rsplit_once(' ').expect("`<stack> <cycles>` line");
            n.parse::<u64>().expect("cycle count")
        })
        .sum()
}

/// The write-path grid: for every crash site, two chaos-seeded runs must
/// agree by the bit on the trace, the metrics snapshot, the folded
/// stacks, and every postmortem artifact — and the one trace must be
/// validator-clean while covering the WAL append, checkpoint write, and
/// replay-phase spans, and fold into exactly the cycles the run spent.
#[test]
fn write_path_trace_and_profile_are_bit_identical_across_runs() {
    let s = seed();
    for crash_at in [2u64, 5] {
        let ctx = format!("crash_at={crash_at} seed={s}");
        let a = write_path_run(s, crash_at);
        let b = write_path_run(s, crash_at);
        assert_eq!(a.trace, b.trace, "trace diverged ({ctx})");
        assert_eq!(a.metrics, b.metrics, "metrics diverged ({ctx})");
        assert_eq!(a.folded, b.folded, "folded stacks diverged ({ctx})");
        assert_eq!(a.postmortems, b.postmortems, "postmortems diverged ({ctx})");

        let summary = validate_chrome_trace(&a.trace).expect("valid trace");
        assert_eq!(summary.begins, summary.ends, "unbalanced spans ({ctx})");
        for span in [
            "wal-append",
            "ckpt-write",
            "replay-scan",
            "replay-ckpt-load",
            "replay-reapply",
        ] {
            assert!(a.trace.contains(span), "trace missing `{span}` ({ctx})");
        }
        assert!(a.elapsed > 0, "the workload spent no cycles ({ctx})");
        assert_eq!(
            folded_total(&a.folded),
            a.elapsed,
            "folded stacks must account for every cycle ({ctx})"
        );
        assert!(a.wal_appends > 0, "no WAL appends counted ({ctx})");
        assert!(a.replay_records > 0, "no replay records counted ({ctx})");

        // The recovery postmortem embeds the RecoveryReport context.
        let recovery = a
            .postmortems
            .iter()
            .find(|p| {
                p.contains("\"reason\":\"crash-recovery\"")
                    || p.contains("\"reason\":\"recovery-degraded\"")
            })
            .unwrap_or_else(|| panic!("no recovery postmortem ({ctx})"));
        assert!(
            recovery.contains("watermark"),
            "recovery postmortem lacks the report context ({ctx})"
        );
    }
}

/// The profile's zero-cost promise on the write path: tracing the
/// workload and folding the trace into stacks must not move the simulated
/// clock or a metric by a single count relative to an untraced run — and
/// the folded total must reconcile exactly with the cycles it observed.
#[test]
fn sampling_profiler_is_zero_cost_on_the_simulated_clock() {
    let s = seed();
    let mut base = MemoryHierarchy::new(SimConfig::zynq_a53());
    assert!(!base.tracing());
    durable_workload(&mut base, s, 5);

    let prof = write_path_run(s, 5);
    assert_eq!(
        prof.elapsed,
        base.now(),
        "profiling advanced the simulated clock"
    );
    assert_eq!(
        prof.metrics,
        base.metrics().snapshot().to_json(),
        "profiling changed the metrics"
    );
    assert!(!prof.folded.is_empty(), "profiled run folded no stacks");
    assert_eq!(
        folded_total(&prof.folded),
        prof.elapsed,
        "folded total must reconcile with observed cycles"
    );
}

/// Tracing's zero-cost promise on the query path: a hierarchy with no
/// trace installed (the no-op case) and a traced one must agree with an
/// uninstrumented baseline on the simulated clock and every hierarchy
/// statistic.
#[test]
fn noop_recorder_run_matches_uninstrumented_cycle_counts_exactly() {
    // Baseline: the hierarchy as constructed (no trace installed).
    let mut base_engine = wide_rm_engine(ROWS);
    assert!(!base_engine.mem_ref().tracing());
    let base = base_engine
        .session()
        .run_on(SQL, AccessPath::Rm)
        .expect("rm");
    let base_stats = base_engine.mem_ref().stats();

    // A trace installed and taken away again leaves the no-op case, which
    // must not perturb a single cycle.
    let mut noop_engine = wide_rm_engine(ROWS);
    noop_engine.mem().trace_to(1 << 14);
    assert!(noop_engine.mem().take_trace().is_some());
    assert!(!noop_engine.mem_ref().tracing());
    let noop = noop_engine
        .session()
        .run_on(SQL, AccessPath::Rm)
        .expect("rm");
    assert_eq!(noop.ns, base.ns, "untraced run changed simulated time");
    assert_eq!(
        noop_engine.mem_ref().stats(),
        base_stats,
        "untraced run changed hierarchy stats"
    );
    assert_eq!(noop.rows, base.rows);

    // Full tracing observes the same clock: recording never advances it.
    let mut traced_engine = wide_rm_engine(ROWS);
    traced_engine.mem().trace_to(1 << 14);
    let traced = traced_engine
        .session()
        .run_on(SQL, AccessPath::Rm)
        .expect("rm");
    assert_eq!(traced.ns, base.ns, "tracing advanced the simulated clock");
    assert_eq!(
        traced_engine.mem_ref().stats(),
        base_stats,
        "tracing changed hierarchy stats"
    );
    assert_eq!(traced.rows, base.rows);
    let summary = validate_chrome_trace(&traced_engine.mem().export_trace().unwrap()).unwrap();
    assert!(summary.begins > 0, "traced run recorded no spans");
}
