//! The observability plane's contracts, end to end: across every access
//! path, core count, chaos seed, and cache temperature, the engine-wide
//! query log and the cost-calibration ledger are **byte-deterministic**
//! (two identically seeded engines export identical JSON), per-operator
//! cost estimates sum *bit-exactly* to the path estimate the optimizer
//! saw, and the ledger converges (mean == EWMA) under repeated identical
//! observations while cache hits never calibrate.
//!
//! The grid is environment-tunable like the chaos suite:
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test querylog_determinism
//! ```

use fabric_sim::{FaultConfig, RecoveryPolicy};
use query::{AccessPath, Engine, FaultContext};

mod support;
use support::{core_grid, engine, seed, Q6, TOP10};

/// Same class coverage as the executor-equivalence grid: grouped
/// aggregate (q1), scalar aggregate over a conjunctive filter (q6), and
/// a projection with post-processing (scan class).
const QUERIES: &[&str] = &[
    "SELECT l_returnflag, l_linestatus, sum(l_quantity), avg(l_quantity), count(*) \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus",
    Q6,
    TOP10,
];

/// Drive one engine through the full mixed workload: a cold + warm run
/// of every (query, path) pair, then a seeded fault storm on RM. Every
/// grid point the log must account for — miss, hit, bypass, degraded —
/// shows up in the export.
fn run_workload(e: &mut Engine, chaos: u64) {
    for sql in QUERIES {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let mut s = e.session();
            s.run_on(sql, path).unwrap();
            s.run_on(sql, path).unwrap();
        }
    }
    let stormy = FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.3,
        ..FaultConfig::quiet(chaos)
    };
    e.set_fault_context(FaultContext::new(stormy, RecoveryPolicy::default()));
    e.session().run_on(QUERIES[1], AccessPath::Rm).unwrap();
}

/// The headline determinism contract: two engines built from the same
/// seeds, run through the same mixed workload at the same core count,
/// export **byte-identical** query-log, workload-report, and calibration
/// JSON. Reading the log mid-workload is free — it must not perturb the
/// simulated clock or any later record.
#[test]
fn querylog_and_calib_exports_are_byte_identical_across_engines() {
    let chaos = seed();
    for &cores in &core_grid() {
        let mut a = engine(cores);
        let mut b = engine(cores);
        run_workload(&mut a, chaos);
        // Engine B's log is exported (and re-exported) between queries;
        // recording and export are host-side bookkeeping, so the bytes
        // still match an engine that was never observed mid-flight.
        let _ = b.querylog().to_json();
        run_workload(&mut b, chaos);
        let _ = b.workload_report().to_json();
        assert_eq!(
            a.querylog().to_json(),
            b.querylog().to_json(),
            "query-log JSON diverged at {cores} cores (seed {chaos})"
        );
        assert_eq!(
            a.workload_report().to_json(),
            b.workload_report().to_json(),
            "workload report diverged at {cores} cores (seed {chaos})"
        );
        assert_eq!(
            a.calib().to_json(),
            b.calib().to_json(),
            "calibration ledger diverged at {cores} cores (seed {chaos})"
        );
        assert_eq!(a.querylog().dropped(), 0, "workload fits the ring");
    }
}

/// Tentpole invariant: on every path and core count, a cold run's
/// per-operator estimates sum bit-exactly (`f64::to_bits`) to the path
/// estimate the optimizer priced — the split loses nothing to rounding.
/// A cache hit replays memoized rows and carries no operator tree.
#[test]
fn per_op_estimates_sum_bit_exactly_to_the_path_estimate() {
    for &cores in &core_grid() {
        let mut e = engine(cores);
        for sql in QUERIES {
            for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                let mut s = e.session();
                let cold = s.run_on(sql, path).unwrap();
                assert!(!cold.cache_hit);
                assert!(!cold.ops.is_empty(), "{path:?}: cold run must carry ops");
                let sum: f64 = cold.ops.iter().map(|o| o.est_ns).sum();
                let est = cold.cost.ns(cold.path).unwrap();
                assert_eq!(
                    sum.to_bits(),
                    est.to_bits(),
                    "{path:?} at {cores} cores: op estimates {sum} != path estimate {est}"
                );
                let bsum: f64 = cold.ops.iter().map(|o| o.est_bytes).sum();
                let best = cold.cost.bytes(cold.path).unwrap();
                assert_eq!(
                    bsum.to_bits(),
                    best.to_bits(),
                    "{path:?} at {cores} cores: op byte estimates lost precision"
                );
                let warm = s.run_on(sql, path).unwrap();
                assert!(warm.cache_hit);
                assert!(warm.ops.is_empty(), "{path:?}: a hit replays, no op tree");
            }
        }
    }
}

/// Calibration convergence, on real observations: N fresh identical
/// engines each make one clean cold observation of the same
/// (table, geometry, path) key. Determinism makes those observations
/// bit-identical, and the ledger's update rule (`mean += (x-mean)/n`,
/// `ewma += alpha*(x-ewma)`) is exactly stationary under identical
/// inputs — so folding them into one ledger converges mean == EWMA to
/// the bit. Cache hits are recorded in the query log but never feed the
/// ledger; repeated cold runs *within* one engine keep observing (the
/// simulated hierarchy is stateful, so their errors legitimately drift).
#[test]
fn calibration_converges_and_cache_hits_never_calibrate() {
    const REPS: u64 = 4;
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let mut e = engine(2);
        e.session().run_on(QUERIES[1], AccessPath::Col).unwrap();
        assert_eq!(e.calib().len(), 1, "one (table, geometry, path) key");
        let (key, entry) = e
            .calib()
            .entries()
            .next()
            .map(|(k, v)| (k.to_string(), *v))
            .unwrap();
        assert!(key.starts_with("lineitem/"), "key carries the table: {key}");
        assert!(key.ends_with("/col"), "key carries the path: {key}");
        assert_eq!(entry.runs, 1);
        samples.push((key, entry.mean_rel_err_ns, entry.mean_rel_err_bytes));
    }
    let (key, ns0, by0) = samples[0].clone();
    for (k, ns, by) in &samples {
        assert_eq!(*k, key);
        assert_eq!(
            ns.to_bits(),
            ns0.to_bits(),
            "cold observations must be identical"
        );
        assert_eq!(
            by.to_bits(),
            by0.to_bits(),
            "cold observations must be identical"
        );
    }
    let mut ledger = fabric_sim::CalibLedger::default();
    for (k, ns, by) in &samples {
        ledger.observe(k, *ns, *by);
    }
    let entry = ledger.get(&key).unwrap();
    assert_eq!(entry.runs, REPS);
    assert_eq!(
        entry.mean_rel_err_ns.to_bits(),
        entry.ewma_rel_err_ns.to_bits(),
        "identical observations must converge mean == EWMA (ns)"
    );
    assert_eq!(
        entry.mean_rel_err_bytes.to_bits(),
        entry.ewma_rel_err_bytes.to_bits(),
        "identical observations must converge mean == EWMA (bytes)"
    );

    // Within one engine: repeated cold runs (cache cleared between reps)
    // keep advancing the run counter, while a warm hit is logged but
    // does not observe.
    let mut e = engine(2);
    for rep in 1..=3u64 {
        e.session().run_on(QUERIES[1], AccessPath::Col).unwrap();
        assert_eq!(e.calib().observations(), rep);
        e.clear_op_cache();
    }
    let entry = *e.calib().get(&key).unwrap();
    assert_eq!(entry.runs, 3);
    assert!(entry.mean_rel_err_ns.is_finite() && entry.ewma_rel_err_ns.is_finite());
    e.session().run_on(QUERIES[1], AccessPath::Col).unwrap(); // warm the cache
    let before = e.calib().observations();
    let warm = e.session().run_on(QUERIES[1], AccessPath::Col).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(e.calib().observations(), before, "hits never calibrate");
    let last = e.querylog().records().last().unwrap();
    assert!(last.cache_hit, "the hit itself is still in the log");
}

/// Degraded and fault-injected runs are quarantined from the ledger (a
/// storm-skewed observation would poison the cost model) yet fully
/// recorded in the log with their provenance: the planned path, the path
/// degraded from, and the injected-fault count.
#[test]
fn degraded_runs_are_logged_with_provenance_but_never_calibrate() {
    let mut e = engine(2);
    let cfg = FaultConfig {
        rm_timeout_prob: 1.0,
        ..FaultConfig::quiet(seed())
    };
    e.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
    let out = e.session().run_on(QUERIES[1], AccessPath::Rm).unwrap();
    assert_eq!(out.degraded_from, Some(AccessPath::Rm));
    assert!(e.calib().is_empty(), "a degraded run must not calibrate");
    let rec = e.querylog().records().last().unwrap();
    assert_eq!(rec.degraded_from, Some("rm"), "spelled like `path`");
    assert!(!rec.cache_hit, "an armed fault plan bypasses the cache");
    assert_eq!(
        e.querylog().total_recorded(),
        1,
        "the degraded run is logged"
    );
}
