//! Differential test of the typed result path (DESIGN.md "Result
//! batches"): `QueryOutput.rows` of a projecting statement must equal, bit
//! for bit and in order, what the reference executor of
//! `tests/support/reference.rs` returns — `Expr::eval` per item into a
//! `Vec<Value>` per row, a stable sort, `truncate`.
//!
//! Generated tables cover all eight column types (texts that are empty or
//! embed a NUL, NaN, `-0.0` beside `0.0`, `i64::MIN` / `MAX`, keys with few
//! distinct values), the projections include literals and arithmetic, and
//! every statement runs with `ORDER BY` ascending and descending on one
//! and two keys and `LIMIT` absent, 0, 1, below, at and above the row
//! count, on ROW, COL and RM at 1/2/4 cores, cold and as an op-cache hit
//! (the full ordering × limit grid on a one-morsel table, a few variants
//! of each statement on a three-morsel table at every core count).
//!
//! **NaN sort keys.** `Value::compare` calls NaN equal to everything,
//! which is not a strict weak order. So the order pinned for a key column
//! that holds NaN is: numbers as `Value::compare` orders them, NaN after
//! every number (first under `DESC`), ties — NaN with NaN, `-0.0` with
//! `0.0` — in scan order; `LIMIT k` returns the first `k` rows of that.
//! Each statement runs over all of the table and over its NaN-free rows.
//!
//! Seeded from `FABRIC_CHAOS_SEED` like the chaos suite; a failure prints
//! the seed to replay it with.

use fabric_types::{DetRng, Value};
use query::bind::{bind, BoundQuery};
use query::{AccessPath, Engine, MORSEL_ROWS};

mod support;
use support::reference::{self, assert_answer, is_nan, Table};
use support::{core_grid, seed};

// -------------------------------------------------------------- the grid

/// Two projections that together output every column type, an integer, a
/// float and a text literal, and two arithmetic items — each over the
/// table's NaN-free rows (NaN compares equal to everything, so `<>` a
/// number the generator never draws keeps every number and no NaN) and
/// over nearly all of it.
fn statements() -> Vec<String> {
    let projections = ["b, h, f, d, 7, a * 2 + e, 'k'", "a, b, e, g, 2.5, d - c, i"];
    let mut out = Vec::new();
    for items in projections {
        out.push(format!(
            "SELECT {items} FROM t WHERE e <> 0.125 AND f <> 0.125"
        ));
        out.push(format!("SELECT {items} FROM t WHERE a >= -2"));
    }
    out
}

/// Positions are valid for both projections: duplicate-heavy and text
/// keys, a float key, a literal key (all ties) and an arithmetic one.
const ORDERINGS: &[&str] = &[
    "",
    " ORDER BY 1",
    " ORDER BY 2 DESC",
    " ORDER BY 3, 1 DESC",
    " ORDER BY 3 DESC, 4",
    " ORDER BY 5, 6 DESC",
];

/// `sql` bound over `t` and its answer from the reference.
fn reference_for(e: &Engine, sql: &str, table: &Table) -> (BoundQuery, Vec<Vec<Value>>) {
    let bound = bind(e.catalog(), &query::parser::parse(sql).unwrap()).unwrap();
    let rows = reference::execute(&bound, &table.stored).unwrap();
    (bound, rows)
}

/// Run `sql` on `path` cold (the cache emptied first: ORDER BY / LIMIT
/// variants of one statement share an entry) and again as a hit; both
/// answers must be the reference.
fn check_cold_and_hit(
    e: &mut Engine,
    path: AccessPath,
    sql: &str,
    (bound, reference): &(BoundQuery, Vec<Vec<Value>>),
) {
    e.clear_op_cache();
    for expect_hit in [false, true] {
        let out = e.session().run_on(sql, path).unwrap();
        assert_eq!(out.cache_hit, expect_hit, "`{sql}` on {path:?}");
        let ctx = format!(
            "{path:?} at {} cores ({}) diverged from the reference on `{sql}` \
             (replay: FABRIC_CHAOS_SEED={})",
            e.cores(),
            if expect_hit { "op-cache hit" } else { "cold" },
            seed(),
        );
        assert_answer(bound, &out.rows, reference, &ctx);
    }
}

const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// The tail: every ordering with every limit. What `ORDER BY` / `LIMIT`
/// do depends on the merged batch alone, so a table of one short morsel
/// will do, and each variant takes the next core count of the grid.
#[test]
fn every_ordering_and_limit_returns_the_old_rows() {
    let mut rng = DetRng::seed_from_u64(seed() ^ 0xBA7C);
    let table = Table::generate(&mut rng, 1200);
    let mut engines: Vec<Engine> = core_grid().iter().map(|&c| table.engine(c)).collect();
    let (mut variants, mut nan_keyed, mut nan_free) = (0, 0, 0);
    for base in statements() {
        let n = reference_for(&engines[0], &base, &table).1.len();
        assert!(n > 300, "{n} rows qualify for `{base}`");
        let limits = [None, Some(0), Some(1), Some(n / 3), Some(n), Some(n + 10)];
        for ordering in ORDERINGS {
            for limit in limits {
                let tail = limit.map_or(String::new(), |k| format!(" LIMIT {k}"));
                let sql = format!("{base}{ordering}{tail}");
                let reference = reference_for(&engines[0], &sql, &table);
                let (bound, rows) = &reference;
                assert_eq!(rows.len(), limit.map_or(n, |k| k.min(n)));
                let keyed = |r: &Vec<Value>| bound.order_by.iter().any(|&(p, _)| is_nan(&r[p]));
                if rows.iter().any(keyed) {
                    nan_keyed += 1;
                } else if !bound.order_by.is_empty() {
                    nan_free += 1;
                }
                let e = variants % engines.len();
                for path in PATHS {
                    check_cold_and_hit(&mut engines[e], path, &sql, &reference);
                }
                variants += 1;
            }
        }
    }
    assert!(
        nan_keyed > 10 && nan_free > 10,
        "{nan_keyed} answers with NaN keys, {nan_free} without"
    );
}

/// Stage 0 and the merge: three morsels (two full, one short) on every
/// path at every core count, plain, fully sorted and top-k.
#[test]
fn morsel_batches_concatenate_in_scan_order_on_every_path_and_core_count() {
    let mut rng = DetRng::seed_from_u64(seed() ^ 0x3A7C);
    let table = Table::generate(&mut rng, 2 * MORSEL_ROWS + 700);
    let binder = table.engine(1);
    let mut cases = Vec::new();
    for base in statements() {
        for tail in ["", " ORDER BY 3, 1 DESC", " ORDER BY 2 DESC, 6 LIMIT 500"] {
            let sql = format!("{base}{tail}");
            let reference = reference_for(&binder, &sql, &table);
            assert!(reference.1.len() >= 500, "{} rows", reference.1.len());
            cases.push((sql, reference));
        }
    }
    for &cores in &core_grid() {
        let mut e = table.engine(cores);
        for path in PATHS {
            for (sql, reference) in &cases {
                check_cold_and_hit(&mut e, path, sql, reference);
            }
        }
    }
}

#[test]
fn hits_share_an_entry_that_no_returned_row_can_reach() {
    let seed = seed();
    let mut rng = DetRng::seed_from_u64(seed ^ 0xA11A5);
    let table = Table::generate(&mut rng, MORSEL_ROWS + 300);
    let mut e = table.engine(2);
    let sql = "SELECT h, c, f, 'k' FROM t WHERE a >= -2 ORDER BY 2 DESC, 1 LIMIT 50";
    let (bound, reference) = reference_for(&e, sql, &table);
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let cold = e.session().run_on(sql, path).unwrap();
        assert!(!cold.cache_hit);
        let mut first = e.session().run_on(sql, path).unwrap();
        assert!(first.cache_hit);
        assert_answer(
            &bound,
            &first.rows,
            &reference,
            &format!("{path:?}: first hit"),
        );
        // Scribble over everything the first hit returned.
        for row in &mut first.rows {
            for v in row.iter_mut() {
                match v {
                    Value::Str(s) => s.push_str("-scribbled"),
                    other => *other = Value::I8(-1),
                }
            }
            row.reverse();
        }
        first.rows.truncate(3);
        let second = e.session().run_on(sql, path).unwrap();
        assert!(second.cache_hit);
        let ctx = format!(
            "{path:?}: the second hit saw what was done to the first one's rows \
             (replay: FABRIC_CHAOS_SEED={seed})"
        );
        assert_answer(&bound, &second.rows, &reference, &ctx);
        assert_eq!(e.op_cache().evictions(), 0);
    }
}
