//! Exact host work: how many times a query allocates, counted.
//!
//! The host clock is too noisy on a shared box to gate small steps
//! (ROADMAP item 1), but allocations are countable and repeat exactly.
//! This binary installs a counting `#[global_allocator]` and asserts the
//! property the stage-0 fast paths exist for: executing Q1, Q6 or a key
//! lookup through `Session::run_on` allocates a number of times bounded
//! by `c0 + c1 × morsels` (`+ c2 × batches` on RM), with **no term in
//! scanned rows** — shown by running each at two table sizes and bounding
//! the difference by the extra morsels and batches alone. A projection
//! additionally allocates for the rows it *returns* (one vector each, plus
//! one `String` per text item) and for nothing else: not per qualifying
//! row under `ORDER BY … LIMIT`, and not per memoised row on an op-cache
//! hit. An op-cache hit's allocations do not depend on how many metric
//! keys the registry holds.
//!
//! The allocator wraps `std::alloc::System` and affects this test binary
//! only. It counts per thread (a `const`-initialised thread-local needs no
//! lazy set-up, so reading it inside the allocator cannot recurse): the
//! test harness runs tests on parallel threads, and a process-wide counter
//! would charge one test with another's allocations.

use fabric_sim::{MetricsRegistry, MetricsSnapshot, SimConfig};
use fabric_types::Value;
use query::{AccessPath, Engine, MORSEL_ROWS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::Lineitem;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the trait's signature; the caller's obligations pass
    // through to `System` as they are (likewise in the methods below).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) this thread
/// makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

mod support;
use support::DATA_SEED;

/// The `scan_cold` statements of the benchmark: Q1 (grouped, two text
/// group columns, compiled sums), Q6 (five conjuncts, three of them on
/// `f64` columns) and a key lookup (a projection of a few rows).
const QUERIES: &[(&str, &str)] = &[
    (
        "q1",
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
         sum(l_extendedprice * (1 - l_discount)), \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
         avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) \
         FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
         GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2",
    ),
    (
        "q6",
        "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
         AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
    ),
    (
        "lookup",
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice \
         FROM lineitem WHERE l_orderkey = 77",
    ),
];

/// What one cold execution cost and what it scaled with.
struct Run {
    allocations: u64,
    morsels: u64,
    batches: u64,
    out_rows: u64,
}

fn run(rows: usize, sql: &str, path: AccessPath) -> Run {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), 4);
    let li = Lineitem::generate(e.mem(), rows, DATA_SEED).unwrap();
    e.register("lineitem", li.rows, li.cols);
    // Steady state: a first execution grows what grows once — the
    // simulated caches' tag vectors, the prefetcher's in-flight table, the
    // session's buffer pools — and the operator cache is emptied again so
    // the measured execution is a cold one. Parsing, binding and planning
    // stay outside the count: the claim is about execution.
    e.session().run_on(sql, path).unwrap();
    e.clear_op_cache();
    let mut s = e.session();
    let prepared = s.prepare(sql).unwrap();
    let (allocations, out) = allocations_in(|| s.execute_on(&prepared, path).unwrap());
    assert!(!out.cache_hit, "a cold run is what is measured");
    Run {
        allocations,
        morsels: rows.div_ceil(MORSEL_ROWS) as u64,
        batches: out.rm_stats.map_or(0, |s| s.batches),
        out_rows: out.rows.len() as u64,
    }
}

/// Allocations allowed per extra morsel: the kernels' per-call vectors and
/// a partial `Consumer` — its batch columns, each reserved once from the
/// morsel before, or its group table (per group the key bytes, the key
/// values and, when the partial is folded into the merge, the accumulator
/// list). Q1 measures 28–30, Q6 6–10, the lookup 3–5. Per extra RM
/// batch: the payload, nothing else — the device keeps its line list
/// across batches and a clean frame is delivered, not copied. A per-row
/// allocation would add 4096 per morsel.
const PER_MORSEL: u64 = 40;
const PER_BATCH: u64 = 1;

#[test]
fn execution_allocates_per_morsel_and_per_batch_never_per_row() {
    let (small, large) = (2 * MORSEL_ROWS, 6 * MORSEL_ROWS);
    for &(name, sql) in QUERIES {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let a = run(small, sql, path);
            let b = run(large, sql, path);
            assert_eq!(
                run(small, sql, path).allocations,
                a.allocations,
                "{name} on {path:?}: the count must repeat exactly"
            );
            if name == "lookup" {
                assert_eq!(a.out_rows, b.out_rows, "the key is in both tables once");
            }
            let extra = b.allocations.saturating_sub(a.allocations);
            let allowed =
                PER_MORSEL * (b.morsels - a.morsels) + PER_BATCH * (b.batches - a.batches);
            println!(
                "{name:6} {path:?}: {} allocations at {small} rows, {} at {large} \
                 (+{extra} for +{} morsels, +{} batches; allowed +{allowed})",
                a.allocations,
                b.allocations,
                b.morsels - a.morsels,
                b.batches - a.batches,
            );
            assert!(
                extra <= allowed,
                "{name} on {path:?}: {extra} more allocations for {} more rows — \
                 more than {allowed}, so something allocates per scanned row",
                large - small
            );
        }
    }
}

/// A projection of three items, one of them text, that nine rows in ten
/// qualify for.
const PROJECTION: &str =
    "SELECT l_extendedprice, l_orderkey, l_shipmode FROM lineitem WHERE l_quantity <= 45";
const TEXT_ITEMS: u64 = 1;

/// Allocations allowed to one execution whatever its size: the output
/// spine, the row-number vector, the gather scratch of an ordered result
/// of more than 64 rows (the column list and a buffer per item, two for a
/// text item: 5 here), the profile, the attribution vectors and the
/// query-log record. Measured beyond the returned rows: 12 for a top-100
/// hit on every path; for a cold two-morsel projection on COL, 95 in scan
/// order and 103 fully sorted, per-morsel work included, where
/// `50 + 2 × PER_MORSEL` = 130 are allowed. Metric names allocate nothing
/// once their keys exist (it was 400 while every key was a fresh
/// `String`).
const PER_EXECUTION: u64 = 50;

/// One prepared execution of `sql` on `path` in a warmed-up session:
/// allocations and the output.
fn measured(e: &mut Engine, sql: &str, path: AccessPath) -> (u64, query::QueryOutput) {
    let mut s = e.session();
    let prepared = s.prepare(sql).unwrap();
    allocations_in(|| s.execute_on(&prepared, path).unwrap())
}

#[test]
fn a_projection_allocates_per_returned_row_never_per_qualifying_or_memoised_row() {
    let top_k = format!("{PROJECTION} ORDER BY 1 LIMIT 100");
    let sorted = format!("{PROJECTION} ORDER BY 1");
    // The large table has more than 50 000 qualifying rows.
    let sizes = [2 * MORSEL_ROWS, 14 * MORSEL_ROWS];
    let mut engines = sizes.map(|rows| {
        let mut e = Engine::with_cores(SimConfig::zynq_a53(), 4);
        let li = Lineitem::generate(e.mem(), rows, DATA_SEED).unwrap();
        e.register("lineitem", li.rows, li.cols);
        e
    });
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        // [small, large] × (allocations, morsels, batches, qualifying rows)
        let mut top_k_cold = [(0u64, 0u64, 0u64, 0u64); 2];
        let mut top_k_hit = [0u64; 2];
        for (i, e) in engines.iter_mut().enumerate() {
            let morsels = sizes[i].div_ceil(MORSEL_ROWS) as u64;
            // Warm the session pools and the simulator's tables up.
            e.session().run_on(PROJECTION, path).unwrap();

            // Everything returned, in scan order and fully sorted: one
            // vector per row and one `String` per text item, on top of the
            // per-morsel terms. The sorted rows are gathered a block at a
            // time into scratch allocated once per execution.
            let mut counts = Vec::new();
            for sql in [PROJECTION, &sorted] {
                e.clear_op_cache();
                let (allocations, out) = measured(e, sql, path);
                assert!(!out.cache_hit);
                let batches = out.rm_stats.map_or(0, |s| s.batches);
                let returned = out.rows.len() as u64;
                let allowed = PER_EXECUTION
                    + PER_MORSEL * morsels
                    + PER_BATCH * batches
                    + (1 + TEXT_ITEMS) * returned;
                println!(
                    "`{sql}` {path:?} {} rows: {allocations} allocations returning {returned} \
                     (allowed {allowed})",
                    sizes[i]
                );
                assert!(
                    allocations <= allowed,
                    "`{sql}` on {path:?}: {allocations} allocations to return {returned} rows, \
                     more than {allowed} — something other than the returned rows allocates \
                     per row"
                );
                counts.push((batches, returned));
            }
            assert_eq!(counts[0], counts[1], "sorting keeps every qualifying row");
            let (batches, returned) = counts[0];

            // Top-100 of the same rows, cold and as a hit on the entry
            // the cold run filled.
            e.clear_op_cache();
            let (cold, out) = measured(e, &top_k, path);
            assert!(!out.cache_hit);
            assert_eq!(out.rows.len(), 100);
            top_k_cold[i] = (cold, morsels, batches, returned);
            let (hit, out) = measured(e, &top_k, path);
            assert!(out.cache_hit);
            assert_eq!(out.rows.len(), 100);
            top_k_hit[i] = hit;
        }
        let [(small, m0, b0, q0), (large, m1, b1, q1)] = top_k_cold;
        assert!(q1 >= 50_000, "{q1} rows qualify");
        let allowed = PER_MORSEL * (m1 - m0) + PER_BATCH * (b1 - b0);
        println!(
            "top-100 {path:?}: {small} allocations over {q0} qualifying rows, {large} over {q1} \
             (allowed +{allowed}); as a hit {} and {}",
            top_k_hit[0], top_k_hit[1]
        );
        assert!(
            large.saturating_sub(small) <= allowed,
            "{path:?}: top-100 over {q1} qualifying rows allocates {large} times, over {q0} \
             {small} times — the difference must be the extra morsels and batches alone"
        );
        assert_eq!(
            top_k_hit[0], top_k_hit[1],
            "{path:?}: a hit returning 100 rows must allocate the same whether the entry \
             memoises {q0} rows or {q1}"
        );
        assert!(top_k_hit[1] <= PER_EXECUTION + (1 + TEXT_ITEMS) * 100);
    }
}

#[test]
fn comparing_floats_allocates_nothing() {
    let pairs = [
        (Value::F64(0.05), Value::F64(0.07)),
        (Value::F64(f64::NAN), Value::F64(1.0)),
        (Value::F32(2.5), Value::I64(3)),
        (Value::I32(24), Value::F64(24.0)),
        (Value::Date(9000), Value::I64(9000)),
    ];
    let (allocations, equal) = allocations_in(|| {
        let mut equal = 0;
        for _ in 0..1000 {
            for (a, b) in &pairs {
                equal += u32::from(a.compare(b).unwrap().is_eq());
            }
        }
        equal
    });
    assert_eq!(equal, 3000);
    assert_eq!(allocations, 0, "Value::compare on numeric values");
}

/// The metric keys in `e`'s registry: counters, gauges and histograms.
fn registry_keys(e: &Engine) -> usize {
    let s = e.mem_ref().metrics().snapshot();
    s.counters.len() + s.gauges.len() + s.histograms.len()
}

/// One op-cache hit of the one-row Q6 on COL, in a session that has
/// already run it once (so the session's own metric keys exist): its
/// allocations.
fn one_row_hit(e: &mut Engine) -> u64 {
    let q6 = QUERIES[1].1;
    let mut s = e.session();
    let prepared = s.prepare(q6).unwrap();
    assert!(s.execute_on(&prepared, AccessPath::Col).unwrap().cache_hit);
    let (allocations, out) = allocations_in(|| s.execute_on(&prepared, AccessPath::Col).unwrap());
    assert!(out.cache_hit);
    assert_eq!(out.rows.len(), 1);
    allocations
}

/// Allocations allowed to a one-row op-cache hit: the window's counters
/// and the attribution records, the profile and the returned row — 5
/// measured, 2 of margin. The hit borrows the prepared plan; the
/// query-log record borrows its names and has no operators to copy.
/// Nothing in it may depend on how many metric keys the registry holds:
/// with a snapshot of the registry taken per query and a `String` per
/// metric name it was 250 at 88 keys and 906 at 496.
const ONE_ROW_HIT: u64 = 7;

#[test]
fn an_op_cache_hit_allocates_the_same_however_many_keys_the_registry_holds() {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), 4);
    let li = Lineitem::generate(e.mem(), 4 * MORSEL_ROWS, DATA_SEED).unwrap();
    e.register("lineitem", li.rows, li.cols);
    e.session().run_on(QUERIES[1].1, AccessPath::Col).unwrap();
    let small = (registry_keys(&e), one_row_hit(&mut e));
    // Queries no longer grow the registry, so grow it directly: 420
    // counters, gauges and histograms whose names sort among the keys a
    // query writes.
    let reg = e.mem().metrics_mut();
    for i in 0..140 {
        reg.counter_add(&format!("query.grown{i:03}.n"), 1);
        reg.gauge_set(&format!("query.grown{i:03}.g"), 1.0);
        reg.observe(&format!("query.grown{i:03}.h"), i);
    }
    let large = (registry_keys(&e), one_row_hit(&mut e));
    println!(
        "one-row hit: {} allocations at {} registry keys, {} at {}",
        small.1, small.0, large.1, large.0
    );
    assert!(large.0 >= small.0 + 400, "the registry must have grown");
    assert_eq!(
        small.1, large.1,
        "a hit's allocations must not grow with the registry"
    );
    assert!(
        large.1 <= ONE_ROW_HIT,
        "{} allocations for a one-row hit, more than {ONE_ROW_HIT}",
        large.1
    );
}

/// The metric names `e`'s registry has looked up so far.
fn resolutions(e: &Engine) -> u64 {
    e.mem_ref().metrics().resolutions()
}

/// A warm op-cache hit writes every metric of the per-query tail through
/// handles the engine resolved at its first query: it looks up no name.
/// (Writing them by name, a hit at 4 cores looked up 57 names, 67 on RM.)
#[test]
fn a_warm_hit_resolves_no_metric_name() {
    for cores in [1, 2, 4] {
        let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
        let li = Lineitem::generate(e.mem(), 2 * MORSEL_ROWS, DATA_SEED).unwrap();
        e.register("lineitem", li.rows, li.cols);
        for &(name, sql) in QUERIES {
            for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                e.session().run_on(sql, path).unwrap();
                let before = resolutions(&e);
                let out = e.session().run_on(sql, path).unwrap();
                assert!(out.cache_hit);
                assert_eq!(
                    resolutions(&e) - before,
                    0,
                    "{name} on {path:?} at {cores} cores: a warm hit looked up metric names"
                );
            }
        }
    }
}

/// Assert that `fresh`, a registry that saw only some queries, holds what
/// the same queries wrote into another registry that held `before` then
/// `after`: each counter's increase, each gauge's value, each histogram's
/// added samples — and nothing else changed.
fn assert_wrote(fresh: &MetricsSnapshot, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    for (k, &v) in &after.counters {
        let wrote = v - before.counter(k);
        match fresh.counters.get(k) {
            Some(&f) => assert_eq!(f, wrote, "counter {k}"),
            None => assert_eq!(
                wrote, 0,
                "counter {k} advanced, but not in the fresh registry"
            ),
        }
    }
    for (k, v) in &after.gauges {
        match fresh.gauges.get(k) {
            Some(f) => assert_eq!(f, v, "gauge {k}"),
            None => assert_eq!(before.gauges.get(k), Some(v), "gauge {k} moved"),
        }
    }
    for (k, h) in &after.histograms {
        let old = before.histograms.get(k).cloned().unwrap_or_default();
        let Some(f) = fresh.histograms.get(k) else {
            assert_eq!(&old, h, "histogram {k} moved");
            continue;
        };
        let added: Vec<(u32, u64)> = h
            .buckets
            .iter()
            .map(|&(b, n)| {
                let was = old
                    .buckets
                    .iter()
                    .find(|&&(ob, _)| ob == b)
                    .map_or(0, |p| p.1);
                (b, n - was)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(
            (f.count, f.sum, &f.buckets),
            (h.count - old.count, h.sum - old.sum, &added),
            "histogram {k}"
        );
    }
    let keys = |s: &MetricsSnapshot| s.counters.len() + s.gauges.len() + s.histograms.len();
    let unknown = fresh
        .counters
        .keys()
        .filter(|k| !after.counters.contains_key(*k));
    assert_eq!(
        unknown.count(),
        0,
        "the fresh registry has counters the other lacks"
    );
    assert!(keys(fresh) <= keys(after));
}

/// Replacing the hierarchy's registry, and adding cores, leave the engine
/// holding handles resolved on the old registry or for fewer cores; the
/// next query must resolve them again. Two twin engines run the same
/// queries — so every simulated value agrees — and each step compares the
/// twin whose registry was just replaced with the twin that kept its own:
/// the first step tests the replacement, the second adding cores.
#[test]
fn a_replaced_registry_and_added_cores_get_what_a_fresh_registry_gets() {
    let q6 = QUERIES[1].1;
    let snapshot = |e: &Engine| e.mem_ref().metrics().snapshot();
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let twin = || {
            let mut e = Engine::with_cores(SimConfig::zynq_a53(), 4);
            let li = Lineitem::generate(e.mem(), 2 * MORSEL_ROWS, DATA_SEED).unwrap();
            e.register("lineitem", li.rows, li.cols);
            e.session().run_on(q6, path).unwrap();
            e
        };
        let (mut a, mut b) = (twin(), twin());
        // Each step runs a hit and a cold execution, in either order.
        let hit_then_cold = |e: &mut Engine| {
            assert!(e.session().run_on(q6, path).unwrap().cache_hit);
            e.clear_op_cache();
            assert!(!e.session().run_on(q6, path).unwrap().cache_hit);
        };
        let cold_then_hit = |e: &mut Engine| {
            assert!(!e.session().run_on(q6, path).unwrap().cache_hit);
            assert!(e.session().run_on(q6, path).unwrap().cache_hit);
        };

        *a.mem().metrics_mut() = MetricsRegistry::new();
        let b0 = snapshot(&b);
        hit_then_cold(&mut a);
        hit_then_cold(&mut b);
        assert_wrote(&snapshot(&a), &b0, &snapshot(&b));

        a.set_cores(8);
        b.set_cores(8);
        *b.mem().metrics_mut() = MetricsRegistry::new();
        let a0 = snapshot(&a);
        cold_then_hit(&mut a);
        cold_then_hit(&mut b);
        assert_wrote(&snapshot(&b), &a0, &snapshot(&a));
        assert!(snapshot(&a).counters.contains_key("query.core7.td.elapsed"));
    }
}
