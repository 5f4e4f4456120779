//! The staged executor's contracts, end to end: across every access
//! path, core count, chaos seed, and operator-cache temperature, a
//! query's answer is **bit-identical**; an op-cache hit replays the
//! memoized stage output without touching the hierarchy; and the
//! per-session scratchpad recycles morsel buffers across queries (reuse
//! counters make recycling observable; the borrow checker rules out
//! aliasing a lent buffer).
//!
//! The grid is environment-tunable like the chaos suite:
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test executor_equivalence
//! ```

use fabric_sim::{FaultConfig, RecoveryPolicy};
use query::{AccessPath, FaultContext};

mod support;
use support::{core_grid, engine, seed, Q1, Q6, TOP10};

/// Q1's grouped f64 aggregates pin the fold shape; Q6's conjunctive
/// range filter pins the branch-free predicate kernels; the projection
/// query pins ORDER BY/LIMIT post-processing on top of a shared cache
/// entry; the last two name no column at all, so the scanned column is
/// one the binder picked.
const QUERIES: &[&str] = &[
    Q1,
    Q6,
    TOP10,
    "SELECT count(*) FROM lineitem",
    "SELECT count(*), sum(1) FROM lineitem",
];

/// The tentpole grid: (path × cores × cache temperature). The cold run
/// earns the answer through the hierarchy; the warm run must replay the
/// identical rows from the op cache with **zero** hierarchy traffic and
/// zero stall — the cache hit never re-touches the data.
#[test]
fn cache_temperature_never_changes_an_answer_on_any_grid_point() {
    let grid = core_grid();
    for sql in QUERIES {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let reference = engine(1).session().run_on(sql, path).unwrap().rows;
            for &cores in &grid {
                let mut e = engine(cores);
                let mut s = e.session();
                let cold = s.run_on(sql, path).unwrap();
                let warm = s.run_on(sql, path).unwrap();
                assert_eq!(
                    cold.rows, reference,
                    "{path:?} at {cores} cores diverged from the 1-core answer"
                );
                assert_eq!(
                    warm.rows, cold.rows,
                    "{path:?} at {cores} cores: warm run diverged from cold"
                );
                assert_eq!(warm.path, cold.path);
                let warm_bytes: u64 = warm.cores.iter().map(|c| c.bytes_read).sum();
                let warm_stall: u64 = warm.cores.iter().map(|c| c.stall_cycles()).sum();
                assert_eq!(
                    warm_bytes, 0,
                    "{path:?} at {cores} cores: a cache hit must not touch the hierarchy"
                );
                assert_eq!(
                    warm_stall, 0,
                    "{path:?} at {cores} cores: a cache hit cannot stall on memory"
                );
                assert!(
                    warm.ns < cold.ns,
                    "{path:?} at {cores} cores: replay must be cheaper than re-execution"
                );
                drop(s);
                let (hits, _) = e.op_cache_stats();
                assert_eq!(hits, 1, "{path:?} at {cores} cores: exactly one warm hit");
            }
        }
    }
}

/// Chaos grid point: with a seeded fault plan armed, RM-routed queries
/// bypass the op cache entirely (a memoized answer must not mask the
/// configured fault behaviour), and cold/warm answers stay bit-identical
/// to the fault-free reference at every core count.
#[test]
fn chaos_seeded_runs_bypass_the_cache_and_stay_identical() {
    let s = seed();
    let stormy = || FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.3,
        ..FaultConfig::quiet(s)
    };
    let reference = engine(1)
        .session()
        .run_on(QUERIES[0], AccessPath::Rm)
        .unwrap()
        .rows;
    for &cores in &core_grid() {
        let mut e = engine(cores);
        e.set_fault_context(FaultContext::new(stormy(), RecoveryPolicy::default()));
        let mut session = e.session();
        let a = session.run_on(QUERIES[0], AccessPath::Rm).unwrap();
        let b = session.run_on(QUERIES[0], AccessPath::Rm).unwrap();
        assert_eq!(a.rows, reference, "chaos cold diverged (seed {s})");
        assert_eq!(b.rows, reference, "chaos repeat diverged (seed {s})");
        drop(session);
        let (hits, _) = e.op_cache_stats();
        assert_eq!(
            hits, 0,
            "an armed fault plan must keep RM runs out of the op cache (seed {s})"
        );
        assert!(
            e.op_cache().is_empty(),
            "no RM entry may be memoized under an armed fault plan (seed {s})"
        );
    }
}

/// ORDER BY / LIMIT are applied per-query on top of the shared cache
/// entry: the plain projection and its sorted/limited variant share one
/// memoized stage output, and the hit still returns the variant's own
/// post-processed rows.
#[test]
fn post_processing_variants_share_one_cache_entry() {
    let mut e = engine(2);
    let mut s = e.session();
    let plain = "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5";
    let sorted = "SELECT l_orderkey, l_extendedprice FROM lineitem \
                  WHERE l_quantity < 5 ORDER BY 2 DESC LIMIT 10";
    // What the sorted variant must answer, earned cold on a fresh engine.
    let expect = engine(2).session().run(sorted).unwrap().rows;
    let base = s.run(plain).unwrap();
    let top = s.run(sorted).unwrap();
    assert_eq!(top.rows.len(), 10);
    assert_eq!(top.rows, expect, "hit must equal a cold run, post-sort");
    assert!(base.rows.len() > top.rows.len());
    drop(s);
    let (hits, _) = e.op_cache_stats();
    assert_eq!(hits, 1, "the sorted variant must hit the plain entry");
    assert_eq!(e.op_cache().len(), 1, "one shared entry, not two");
}

/// Scratchpad lifetime rules, observed from outside: buffers recycle
/// across queries within a session (allocation count stays flat after
/// warm-up) and a cache hit does not take stage buffers at all. That no
/// two stages alias a buffer is checked at compile time: the scratchpad
/// lends its buffers by `&mut`.
#[test]
fn scratchpad_recycles_across_queries_without_fresh_allocations() {
    let mut e = engine(1);
    let mut s = e.session();
    s.run_on(QUERIES[1], AccessPath::Row).unwrap();
    let allocs_after_warmup = s.scratch_allocs();
    let reuses_after_warmup = s.scratch_reuses();
    // Different SQL, same operator shapes: must be served from the pool.
    s.run_on(
        "SELECT sum(l_quantity) FROM lineitem WHERE l_orderkey < 1000",
        AccessPath::Row,
    )
    .unwrap();
    assert_eq!(
        s.scratch_allocs(),
        allocs_after_warmup,
        "a second query must not grow the pool"
    );
    assert!(
        s.scratch_reuses() > reuses_after_warmup,
        "a second query must recycle pooled buffers"
    );
    // A warm replay of the first query is a cache hit: no stage
    // buffers taken, reuse counter flat.
    let reuses_before_hit = s.scratch_reuses();
    s.run_on(QUERIES[1], AccessPath::Row).unwrap();
    assert_eq!(
        s.scratch_reuses(),
        reuses_before_hit,
        "a cache hit takes no stage buffers"
    );
}
