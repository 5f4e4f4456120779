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
    parse_json, validate_chrome_trace, FaultConfig, Json, Postmortem, RecoveryPolicy,
};
use query::{AccessPath, FaultContext, QueryOutput};

mod support;
use support::{core_grid, engine, seed, wide_rm_engine, Q1};

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

/// The full reconciliation contract between the per-core attribution
/// table and the top-down breakdown built from the same clocks:
///
/// * every core's eight buckets sum exactly to its elapsed window;
/// * every core closes the same window (the global clock advance);
/// * the taxonomy refines — not re-measures — the coarse attribution:
///   `retired == cpu`, `mem.l1 + mem.l2 == mem_lat`, and the four stall
///   buckets partition `stall_cycles` exactly.
fn assert_topdown_reconciles(out: &QueryOutput, cores: usize, ctx: &str) {
    out.topdown
        .verify()
        .unwrap_or_else(|why| panic!("{ctx}: {why}"));
    assert_eq!(
        out.topdown.cores.len(),
        cores,
        "{ctx}: one breakdown per core"
    );
    assert_eq!(
        out.cores.len(),
        cores,
        "{ctx}: one attribution row per core"
    );
    let elapsed = out
        .cores
        .iter()
        .map(|a| a.busy_cycles + a.idle_cycles)
        .max()
        .unwrap_or(0);
    for (td, a) in out.topdown.cores.iter().zip(&out.cores) {
        assert_eq!(td.core, a.core, "{ctx}: breakdown/attribution order");
        let sum: u64 = td.buckets().iter().map(|&(_, v)| v).sum();
        assert_eq!(
            sum, td.elapsed,
            "{ctx}: core {} buckets must sum to elapsed",
            td.core
        );
        assert_eq!(
            td.elapsed, elapsed,
            "{ctx}: core {} must close the query window",
            td.core
        );
        assert_eq!(td.retired, a.cpu_cycles, "{ctx}: retired == cpu");
        assert_eq!(td.idle, a.idle_cycles, "{ctx}: idle bucket == idle wait");
        assert_eq!(
            td.mem_l1 + td.mem_l2,
            a.mem_lat_cycles,
            "{ctx}: L1+L2 latency must partition mem_lat"
        );
        assert_eq!(
            td.mem_dram + td.mem_rm_device + td.bw_wait + td.fault_retry,
            a.stall_cycles,
            "{ctx}: dram+device+bw+retry must partition stall_cycles"
        );
    }
}

#[test]
fn buckets_sum_to_elapsed_on_every_path_and_core_count() {
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        for &cores in &core_grid() {
            let mut e = engine(cores);
            let out = e.session().run_on(Q1, path).unwrap();
            assert_topdown_reconciles(&out, cores, &format!("{path:?} {cores}c"));
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
        let out = e.session().run_on(Q1, AccessPath::Rm).unwrap();
        assert_topdown_reconciles(&out, cores, &format!("chaos {cores}c (seed {s})"));
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
    let out = e.session().run_on(RM_SQL, AccessPath::Rm).unwrap();
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
    assert_topdown_reconciles(&out, 1, &format!("degraded (seed {s})"));
    let retry: u64 = out.topdown.cores.iter().map(|c| c.fault_retry).sum();
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

/// FNV-1a (64-bit) over every postmortem artifact, in dump order, each
/// followed by a separator byte.
fn postmortem_digest(pms: &[Postmortem]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pm in pms {
        for b in pm.to_json().bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
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
/// recorder the delta-since-mark one replaced: the digests were computed
/// with the old recorder, on a dead device (degraded runs, then the
/// breaker open), on a partly faulty one (timeouts and corrupt batches)
/// and across a crash recovery opened after queries had run. Every query
/// opens its own session, so the registry grows under the arm.
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
            (8, 0x47e7_6e61_d4e2_ddef),
            (6, 0x9920_0045_6cf9_de77),
            (1, 0x6ceb_1a96_d5dd_12c9),
        ],
        "postmortem bytes moved: {got:x?}"
    );
}
