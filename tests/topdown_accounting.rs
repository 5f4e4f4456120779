//! Top-down cycle accounting and flight-recorder postmortems, end to end
//! (DESIGN.md §12).
//!
//! The hard invariant: every simulated cycle of a query window is
//! classified into exactly one leaf bucket (retired / mem.{l1,l2,dram,
//! rm_device} / stall.{bw,retry,idle}), so the buckets sum to the elapsed
//! window on every access path, at every core count, with or without
//! injected faults. Postmortems are pure functions of simulated state, so
//! same-seed reruns must produce byte-identical artifacts.
//!
//! The grid is environment-tunable like the chaos suite:
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test topdown_accounting
//! ```

use fabric_sim::{
    parse_json, validate_chrome_trace, FaultConfig, Json, MemStats, Postmortem, QueryRecord,
    RecoveryPolicy,
};
use query::{AccessPath, Engine, FaultContext, QueryOutput};

mod support;
use support::{core_grid, engine, seed, wide_rm_engine, DATA_SEED, Q1, Q6, ROWS};

const RM_SQL: &str = "SELECT c0, c5 FROM t WHERE c0 < 1000000";

/// A dead device: every delivery times out, so every RM-routed query
/// either retries to exhaustion and degrades or is skipped by the open
/// circuit breaker — guaranteed postmortems, independent of the seed.
fn dead_device(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_timeout_prob: 1.0,
        ..FaultConfig::quiet(sweep_seed)
    }
}

/// Every delivered batch fails its CRC32 frame check.
fn corrupting_device(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_corrupt_prob: 1.0,
        ..FaultConfig::quiet(sweep_seed)
    }
}

/// Run `sql` on `path` in a new session: the output, and every core's
/// hierarchy counters over the run (`core_stats` deltas).
fn run_measured(e: &mut Engine, sql: &str, path: AccessPath) -> (QueryOutput, Vec<MemStats>) {
    let stats = |e: &Engine| -> Vec<MemStats> {
        let mem = e.mem_ref();
        (0..mem.num_cores()).map(|i| mem.core_stats(i)).collect()
    };
    let before = stats(e);
    let out = e.session().run_on(sql, path).unwrap();
    let deltas = stats(e)
        .iter()
        .zip(&before)
        .map(|(after, before)| after.delta_since(before))
        .collect();
    (out, deltas)
}

/// The full reconciliation contract between each core's attribution
/// record and the hierarchy's own counters over the same run (`deltas`):
///
/// * every core's eight buckets sum exactly to its elapsed window;
/// * every core closes the same window (the global clock advance);
/// * the taxonomy refines — not re-measures — the hierarchy's coarse
///   counters: `retired == cpu`, `mem.l1 + mem.l2 == mem_lat`, and the
///   four stall buckets partition `stall_cycles` exactly.
fn assert_topdown_reconciles(out: &QueryOutput, deltas: &[MemStats], ctx: &str) {
    assert_eq!(
        out.cores.len(),
        deltas.len(),
        "{ctx}: one attribution record per core"
    );
    let elapsed = out.cores.iter().map(|c| c.elapsed()).max().unwrap_or(0);
    for (i, (c, d)) in out.cores.iter().zip(deltas).enumerate() {
        assert_eq!(c.core, i, "{ctx}: records in core order");
        c.verify().unwrap_or_else(|why| panic!("{ctx}: {why}"));
        let sum: u64 = c.buckets().iter().map(|&(_, v)| v).sum();
        assert_eq!(
            sum,
            c.elapsed(),
            "{ctx}: core {i} buckets must sum to elapsed"
        );
        assert_eq!(
            c.elapsed(),
            elapsed,
            "{ctx}: core {i} must close the query window"
        );
        assert_eq!(
            c.busy_cycles,
            d.busy_cycles(),
            "{ctx}: busy == clock advance"
        );
        assert_eq!(c.retired, d.cpu_cycles, "{ctx}: retired == cpu");
        assert_eq!(
            c.mem_l1 + c.mem_l2,
            d.mem_lat_cycles,
            "{ctx}: L1+L2 latency must partition mem_lat"
        );
        assert_eq!(
            c.mem_dram + c.mem_rm_device + c.bw_wait + c.fault_retry,
            d.stall_cycles,
            "{ctx}: dram+device+bw+retry must partition stall_cycles"
        );
    }
}

#[test]
fn buckets_sum_to_elapsed_on_every_path_and_core_count() {
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        for &cores in &core_grid() {
            let mut e = engine(cores);
            let (out, deltas) = run_measured(&mut e, Q1, path);
            assert_eq!(deltas.len(), cores);
            assert_topdown_reconciles(&out, &deltas, &format!("{path:?} {cores}c"));
            // The breakdown is exported into the metrics registry too.
            let snap = e.mem_ref().metrics().snapshot().to_json();
            for key in ["query.core0.td.retired", "query.core0.td.elapsed"] {
                assert!(
                    snap.contains(key),
                    "{path:?} {cores}c: snapshot lacks {key}"
                );
            }
        }
    }
}

#[test]
fn chaos_seeded_faulty_runs_still_reconcile_exactly() {
    let s = seed();
    let stormy = || FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.3,
        ..FaultConfig::quiet(s)
    };
    for &cores in &core_grid() {
        let mut e = engine(cores);
        e.set_fault_context(FaultContext::new(stormy(), RecoveryPolicy::default()));
        let (out, deltas) = run_measured(&mut e, Q1, AccessPath::Rm);
        assert_topdown_reconciles(&out, &deltas, &format!("chaos {cores}c (seed {s})"));
    }
}

/// The bugfix regression: when the RM path degrades mid-query, nothing is
/// silently dropped — the failed attempt's `rm_stats` fault counters stay
/// on the output, the retry backoff shows up in the `stall.retry` bucket,
/// and the accounting still reconciles to the cycle.
#[test]
fn attribution_reconciles_and_keeps_fault_counters_under_degradation() {
    let s = seed();
    let mut e = wide_rm_engine(4_096);
    e.set_fault_context(FaultContext::new(dead_device(s), RecoveryPolicy::default()));
    let (out, deltas) = run_measured(&mut e, RM_SQL, AccessPath::Rm);
    assert_eq!(
        out.degraded_from,
        Some(AccessPath::Rm),
        "a dead device must degrade the first query (seed {s})"
    );
    let rm = out
        .rm_stats
        .as_ref()
        .expect("degraded output must keep the failed RM attempt's stats");
    assert!(rm.injected_faults > 0, "fault counters dropped: {rm:?}");
    assert!(rm.delivery_timeouts > 0, "timeout counters dropped: {rm:?}");
    assert_topdown_reconciles(&out, &deltas, &format!("degraded (seed {s})"));
    let retry: u64 = out.cores.iter().map(|c| c.fault_retry).sum();
    assert!(
        retry > 0,
        "retry backoff must be attributed to the stall.retry bucket"
    );
}

/// Drive a chaos-seeded sweep and drain the postmortems it dumped.
fn postmortem_run(cfg: FaultConfig, queries: usize) -> (Vec<Postmortem>, String) {
    let mut e = wide_rm_engine(4_096);
    e.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
    for _ in 0..queries {
        e.session().run(RM_SQL).expect("resilient");
    }
    let snap = e.mem_ref().metrics().snapshot().to_json();
    (e.mem().take_postmortems(), snap)
}

#[test]
fn degraded_runs_dump_validator_clean_postmortems() {
    let (pms, snap) = postmortem_run(dead_device(seed()), 8);
    assert!(!pms.is_empty(), "dead-device sweep produced no postmortems");
    for pm in &pms {
        assert!(
            pm.reason == "degraded" || pm.reason == "breaker-open",
            "unexpected trigger {:?}",
            pm.reason
        );
        // The embedded trace stands alone as a valid Chrome trace, and the
        // combined artifact is parser-grade JSON.
        validate_chrome_trace(&pm.trace).expect("postmortem trace validates");
        let doc = parse_json(&pm.to_json()).expect("postmortem artifact parses");
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some(pm.reason),
            "artifact must carry its trigger"
        );
        parse_json(&pm.metrics_delta).expect("metrics delta parses");
    }
    // The dead device's timeouts appear on at least one fault timeline.
    assert!(
        pms.iter().any(|pm| {
            parse_json(&pm.fault_timeline)
                .ok()
                .and_then(|doc| doc.as_arr().map(|a| !a.is_empty()))
                .unwrap_or(false)
        }),
        "no postmortem captured the fault timeline"
    );
    // Dumps are counted in the registry; the breaker-skip counter — the
    // silently-dropped field this PR fixes — is recorded there too.
    assert!(snap.contains("\"flight.dumps\""), "flight.dumps missing");
    assert!(
        snap.contains("\"query.breaker_skips\""),
        "breaker skips must reach the metrics registry, not just the trace"
    );
    assert!(
        pms.iter().any(|pm| pm.reason == "breaker-open"),
        "8 dead-device queries must trip the circuit breaker"
    );
}

#[test]
fn crc_failures_dump_their_own_postmortems() {
    let (pms, _) = postmortem_run(corrupting_device(seed()), 2);
    assert!(
        pms.iter().any(|pm| pm.reason == "crc-failure"),
        "corrupting device must trigger crc-failure dumps: {:?}",
        pms.iter().map(|p| p.reason).collect::<Vec<_>>()
    );
}

#[test]
fn same_seed_reruns_produce_bit_identical_postmortems() {
    let s = seed();
    let run = || {
        let (pms, _) = postmortem_run(dead_device(s), 8);
        pms.iter().map(Postmortem::to_json).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "run is vacuous (seed {s})");
    assert_eq!(
        a, b,
        "postmortems must be byte-deterministic for one seed (seed {s})"
    );
}

/// FNV-1a (64-bit) over `texts` in order, each followed by a separator
/// byte.
fn digest(texts: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in text.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// [`digest`] over every postmortem artifact, in dump order.
fn postmortem_digest(pms: &[Postmortem]) -> u64 {
    digest(pms.iter().map(Postmortem::to_json))
}

/// The sweep seed of the pinned digests below: fixed, not
/// `FABRIC_CHAOS_SEED`, because the digests are constants.
const PINNED_SEED: u64 = 7;

/// A durable store of four committed rows, crashed: what
/// `Engine::open_recovered` replays.
fn crashed_store() -> (fabric_types::Schema, durability::DurableImage) {
    use fabric_types::{ColumnType, Schema, Value};
    let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
    let mut m = fabric_sim::MemoryHierarchy::new(fabric_sim::SimConfig::zynq_a53());
    let mut store = mvcc::DurableStore::create(
        &mut m,
        schema.clone(),
        64,
        durability::DurabilityConfig::quiet(PINNED_SEED),
        0,
    )
    .unwrap();
    for i in 0..4i64 {
        let mut t = store.begin();
        t.insert(vec![Value::I64(i), Value::F64(i as f64)]);
        store.commit(&mut m, t).unwrap();
    }
    (schema, store.crash_image())
}

/// Postmortems are byte-identical to those of the snapshot-at-arm flight
/// recorder the delta-since-mark one replaced, on a dead device (degraded
/// runs, then the breaker open), on a partly faulty one (timeouts and
/// corrupt batches) and across a crash recovery opened after queries had
/// run. Every query opens its own session. The digests were recomputed on
/// that recorder with the per-query copies of the query's record (the
/// per-session, quantile, pooled-latency, per-operator and calibration
/// keys) no longer written, so the metrics deltas lost exactly those keys.
#[test]
fn postmortem_bytes_match_the_pinned_digests() {
    let (dead, _) = postmortem_run(dead_device(PINNED_SEED), 8);
    let partial = FaultConfig {
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.2,
        ..FaultConfig::quiet(PINNED_SEED)
    };
    let (partial, _) = postmortem_run(partial, 40);

    let mut e = wide_rm_engine(4_096);
    for _ in 0..3 {
        e.session().run(RM_SQL).expect("quiet run");
    }
    let (schema, image) = crashed_store();
    e.open_recovered(
        "orders",
        &schema,
        64,
        image,
        durability::DurabilityConfig::quiet(PINNED_SEED ^ 1),
        0,
    )
    .expect("recovery");
    e.session()
        .run("SELECT sum(qty) FROM orders")
        .expect("query after recovery");
    let recovered = e.mem().take_postmortems();

    let got = [
        (dead.len(), postmortem_digest(&dead)),
        (partial.len(), postmortem_digest(&partial)),
        (recovered.len(), postmortem_digest(&recovered)),
    ];
    assert_eq!(
        got,
        [
            (8, 0xf2fb_0a3b_2364_05bb),
            (6, 0x0974_919a_3d10_d2cc),
            (1, 0x2025_2aa8_7386_b949),
        ],
        "postmortem bytes moved: {got:x?}"
    );
}

/// `EXPLAIN ANALYZE` measures what a session runs. On twin engines with
/// the same history, one renders `EXPLAIN ANALYZE` and the other runs the
/// statement cold on every path in the order the rendering measures them
/// (ROW, COL, RM); the query log then holds the same record for each path
/// — measured cycles, bytes, operators and top-down buckets, bit for bit
/// — for a statement the optimizer routes to RM and one it routes to COL.
#[test]
fn explain_analyze_measures_what_a_session_runs() {
    let sum_qty = "SELECT sum(l_quantity) FROM lineitem";
    for cores in [1, 4] {
        for (sql, chosen) in [(Q1, AccessPath::Rm), (sum_qty, AccessPath::Col)] {
            let twin = || {
                let mut e = Engine::with_cores(fabric_sim::SimConfig::zynq_a53(), cores);
                let li = workload::Lineitem::generate(e.mem(), ROWS, DATA_SEED).unwrap();
                e.register("lineitem", li.rows, li.cols);
                e
            };
            let (mut explained, mut ran) = (twin(), twin());
            let text = explained.session().explain_analyze(sql).unwrap();
            assert!(text.contains(&format!("access: {chosen} ")), "{text}");
            let stmt = query::parser::parse(sql).unwrap();
            let bound = query::bind::bind(ran.catalog(), &stmt).unwrap();
            let mut s = ran.session();
            for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                s.run_bound_on(&bound, path).unwrap();
            }
            let records = |e: &Engine| {
                let anonymous = |r: &QueryRecord| QueryRecord {
                    session: 0,
                    ..r.clone()
                };
                e.querylog().records().map(anonymous).collect::<Vec<_>>()
            };
            assert_eq!(records(&explained), records(&ran), "{cores} cores: {sql}");
        }
    }
}

/// `EXPLAIN ANALYZE` text is byte-identical to the per-path, per-operator,
/// per-phase, per-core and top-down renderings it had when each kept its
/// own copy of the attribution: the digests were computed before the
/// copies were folded into one record. They were recomputed twice since.
/// When grouping moved to key words and aggregates to columns gathered
/// once a chunk, the session's scratchpad retained more, and its `hwm`
/// line (29 744 → 42 416 B, 38 320 → 50 992 B with the COL selection
/// vectors) was the only text that changed. When the plan signature
/// became a structural hash, the `op-cache: key` hex was the only text
/// that changed: the twelve texts compared equal with it masked. When the
/// measurement runs moved onto the session's RM pipeline (a quiet fault
/// context, so RM pays its per-line CRC check), only the RM rows and the
/// breakdowns of texts whose chosen path is RM changed. Each
/// statement runs once through the session first, so the latency and
/// op-cache sections carry data.
/// The table without a columnar copy has no COL row and degrades nothing
/// (EXPLAIN ANALYZE measures under a fresh quiet fault context).
#[test]
fn explain_analyze_bytes_match_the_pinned_digests() {
    let statements = [
        Q1,
        Q6,
        "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5",
    ];
    let mut got = Vec::new();
    for with_cols in [true, false] {
        for cores in [1, 4] {
            let mut e = Engine::with_cores(fabric_sim::SimConfig::zynq_a53(), cores);
            let li = workload::Lineitem::generate(e.mem(), ROWS, DATA_SEED).unwrap();
            if with_cols {
                e.register("lineitem", li.rows, li.cols);
            } else {
                e.register_rows("lineitem", li.rows);
            }
            let mut s = e.session();
            let texts: Vec<String> = statements
                .iter()
                .map(|sql| {
                    s.run(sql).expect("session run");
                    s.explain_analyze(sql).expect("explain analyze")
                })
                .collect();
            got.push((with_cols, cores, digest(texts)));
        }
    }
    assert_eq!(
        got,
        [
            (true, 1, 0x150a_7ed6_a19a_52d6),
            (true, 4, 0x392b_ffcc_c5eb_c080),
            (false, 1, 0xc575_3acc_7921_912a),
            (false, 4, 0x3e1c_9f2f_521a_de3b),
        ],
        "EXPLAIN ANALYZE bytes moved: {got:x?}"
    );
}
