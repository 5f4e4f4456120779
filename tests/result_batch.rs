//! Differential test of the typed result path (DESIGN.md "Result
//! batches"): `QueryOutput.rows` of a projecting statement must equal, bit
//! for bit and in order, what the executor returned when results were row
//! vectors — `Expr::eval` per item into a `Vec<Value>` per row, `sort_by`
//! on `Value::compare`, `truncate` — which is kept here as the reference.
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
//! which is not a strict weak order: under it `std`'s `sort_by` may panic
//! ("does not correctly implement a total order") or return an order that
//! depends on the element size, for row vectors and row numbers alike. So
//! what is pinned for a key column that holds NaN is not the old output
//! but an order: numbers as `Value::compare` orders them, NaN after every
//! number (first under `DESC`), ties — NaN with NaN, `-0.0` with `0.0` —
//! in scan order; `LIMIT k` returns the first `k` rows of that. Where no
//! key holds NaN this is the old output exactly, which the reference
//! checks by sorting both ways.
//!
//! Seeded from `FABRIC_CHAOS_SEED` like the chaos suite; a failure prints
//! the seed to replay it with.

use fabric_types::{ColumnType, DetRng, FabricError, Schema, Value};
use query::bind::{bind, BoundQuery, OutputItem};
use query::{AccessPath, Engine, MORSEL_ROWS};
use std::cmp::Ordering;

mod support;
use support::{core_grid, seed};

/// Whether two values agree in type and exact bit pattern (`==` on `Value`
/// would call NaN unequal to itself and `-0.0` equal to `0.0`).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I8(x), Value::I8(y)) => x == y,
        (Value::I16(x), Value::I16(y)) => x == y,
        (Value::I32(x), Value::I32(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Whether two result sets agree bit for bit, row order included.
fn identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same_bits(v, w)))
}

// ------------------------------------------------------------ the table

const SCHEMA: &[(&str, ColumnType)] = &[
    ("a8", ColumnType::I8),
    ("a16", ColumnType::I16),
    ("a32", ColumnType::I32),
    ("a64", ColumnType::I64),
    ("f32c", ColumnType::F32),
    ("f64c", ColumnType::F64),
    ("d", ColumnType::Date),
    ("s", ColumnType::FixedStr(6)),
];

/// Rows dated from this day on may hold NaN; `WHERE d < NAN_FROM` selects
/// a NaN-free half, on which the old comparator is an order.
const NAN_FROM: u32 = 9000;

/// What the table holds for a generated value: a text is cut at its first
/// NUL by the fixed-width decode, everything else round-trips.
fn stored(ty: ColumnType, v: &Value) -> Value {
    let mut bytes = vec![0u8; ty.width()];
    v.encode_into(ty, &mut bytes).unwrap();
    Value::decode(ty, &bytes)
}

fn table_rows(rng: &mut DetRng, n: usize) -> Vec<Vec<Value>> {
    let f64s = [-0.0, 0.0, 1.5, -1.5, 2.0, 1e300, -1e300, f64::INFINITY];
    let f32s = [-0.0f32, 0.0, 0.5, -2.25, 7.0, f32::NEG_INFINITY];
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)];
    let texts = ["", "a", "ab", "a\0b", "\0", "zz", "abcdef", "é"];
    let wide = [i64::MIN, i64::MAX, 0, -1, 1, 1 << 53, (1 << 53) + 1];
    (0..n)
        .map(|_| {
            let day = rng.gen_range(8000..10000u32);
            let may_nan = day >= NAN_FROM;
            let f64c = if may_nan && rng.gen_bool(0.2) {
                nans[rng.gen_range(0..nans.len())]
            } else {
                f64s[rng.gen_range(0..f64s.len())]
            };
            let f32c = if may_nan && rng.gen_bool(0.2) {
                f32::NAN
            } else {
                f32s[rng.gen_range(0..f32s.len())]
            };
            let row = [
                Value::I8(rng.gen_range(-3..=3i8)),
                Value::I16(rng.gen_range(-300..300i16)),
                // Few distinct values: long runs of ties for stability.
                Value::I32(rng.gen_range(0..12i32)),
                Value::I64(wide[rng.gen_range(0..wide.len())]),
                Value::F32(f32c),
                Value::F64(f64c),
                Value::Date(day),
                Value::Str(texts[rng.gen_range(0..texts.len())].into()),
            ];
            row.iter()
                .zip(SCHEMA)
                .map(|(v, (_, ty))| stored(*ty, v))
                .collect()
        })
        .collect()
}

fn engine(cores: usize, table: &[Vec<Value>]) -> Engine {
    support::table_engine(cores, &Schema::from_pairs(SCHEMA), table)
}

// -------------------------------------------------- the old algorithm

/// `exec::sort_rows` as it was (minus the cycle charge), with the value
/// comparison as a parameter: a stable `sort_by` on the bound `(position,
/// desc)` keys that remembers the first comparison error.
fn old_sort_rows(
    rows: &mut [Vec<Value>],
    keys: &[(usize, bool)],
    compare: fn(&Value, &Value) -> Result<Ordering, FabricError>,
) -> Result<(), FabricError> {
    let mut err = None;
    rows.sort_by(|a, b| {
        for &(pos, desc) in keys {
            match compare(&a[pos], &b[pos]) {
                Ok(ord) => {
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Err(e) => {
                    err.get_or_insert(e);
                    return Ordering::Equal;
                }
            }
        }
        Ordering::Equal
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn is_nan(v: &Value) -> bool {
    match v {
        Value::F32(x) => x.is_nan(),
        Value::F64(x) => x.is_nan(),
        _ => false,
    }
}

/// The pinned sort-key order: `Value::compare`, except that NaN comes
/// after every number and ties with NaN.
fn nan_last(a: &Value, b: &Value) -> Result<Ordering, FabricError> {
    match (is_nan(a), is_nan(b)) {
        (false, false) => a.compare(b),
        (x, y) => Ok(x.cmp(&y)),
    }
}

/// The projecting pipeline as it was: every qualifying row, in scan
/// order, through `Expr::eval` into its own `Vec<Value>`
/// (`Consumer::feed`; the merge concatenated the morsels in scan order),
/// then `sort_rows`, then `truncate`.
fn old_reference(bound: &BoundQuery, table: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for row in table {
        let vals: Vec<Value> = bound.touched.iter().map(|&c| row[c].clone()).collect();
        let pass = bound
            .preds
            .iter()
            .all(|(slot, op, lit)| op.matches(vals[*slot].compare(lit).unwrap()));
        if !pass {
            continue;
        }
        let mut out = Vec::with_capacity(bound.items.len());
        for item in &bound.items {
            match item {
                OutputItem::Expr(e) => out.push(e.eval(&vals).unwrap()),
                OutputItem::Agg(..) => panic!("aggregate item in non-aggregated plan"),
            }
        }
        rows.push(out);
    }
    if !bound.order_by.is_empty() {
        let nan_keyed = rows
            .iter()
            .any(|r| bound.order_by.iter().any(|&(pos, _)| is_nan(&r[pos])));
        if !nan_keyed {
            // `Value::compare` is an order here: the old code verbatim,
            // which the pinned order must reproduce.
            let mut verbatim = rows.clone();
            old_sort_rows(&mut verbatim, &bound.order_by, Value::compare).unwrap();
            old_sort_rows(&mut rows, &bound.order_by, nan_last).unwrap();
            assert!(identical(&verbatim, &rows), "the two orders differ");
        } else {
            old_sort_rows(&mut rows, &bound.order_by, nan_last).unwrap();
        }
    }
    if let Some(limit) = bound.limit {
        rows.truncate(limit);
    }
    rows
}

// -------------------------------------------------------------- the grid

/// Two projections that together output every column type, an integer, a
/// float and a text literal, and two arithmetic items — each over the
/// NaN-free half of the table and over all of it.
fn statements() -> Vec<String> {
    let projections = [
        "a32, s, f64c, a64, 7, a16 * 2 + f32c, 'k'",
        "a8, a16, f32c, d, 2.5, a64 - a32",
    ];
    let mut out = Vec::new();
    for items in projections {
        out.push(format!("SELECT {items} FROM t WHERE d < {NAN_FROM}"));
        out.push(format!("SELECT {items} FROM t WHERE a8 >= -2"));
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

fn bound_for(e: &Engine, sql: &str) -> BoundQuery {
    bind(e.catalog(), &query::parser::parse(sql).unwrap()).unwrap()
}

/// Run `sql` on `path` cold (the cache emptied first: ORDER BY / LIMIT
/// variants of one statement share an entry) and again as a hit; both
/// answers must be the reference.
fn check_cold_and_hit(e: &mut Engine, path: AccessPath, sql: &str, reference: &[Vec<Value>]) {
    e.clear_op_cache();
    for expect_hit in [false, true] {
        let out = e.session().run_on(sql, path).unwrap();
        assert_eq!(out.cache_hit, expect_hit, "`{sql}` on {path:?}");
        assert!(
            identical(&out.rows, reference),
            "{path:?} at {} cores ({}) diverged from the row-vector reference on `{sql}` \
             (replay: FABRIC_CHAOS_SEED={})",
            e.cores(),
            if expect_hit { "op-cache hit" } else { "cold" },
            seed(),
        );
    }
}

const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// The tail: every ordering with every limit. What `ORDER BY` / `LIMIT`
/// do depends on the merged batch alone, so a table of one short morsel
/// will do, and each variant takes the next core count of the grid.
#[test]
fn every_ordering_and_limit_returns_the_old_rows() {
    let mut rng = DetRng::seed_from_u64(seed() ^ 0xBA7C);
    let table = table_rows(&mut rng, 1200);
    let mut engines: Vec<Engine> = core_grid().iter().map(|&c| engine(c, &table)).collect();
    let (mut variants, mut nan_keyed, mut nan_free) = (0, 0, 0);
    for base in statements() {
        let n = old_reference(&bound_for(&engines[0], &base), &table).len();
        assert!(n > 300, "{n} rows qualify for `{base}`");
        let limits = [None, Some(0), Some(1), Some(n / 3), Some(n), Some(n + 10)];
        for ordering in ORDERINGS {
            for limit in limits {
                let tail = limit.map_or(String::new(), |k| format!(" LIMIT {k}"));
                let sql = format!("{base}{ordering}{tail}");
                let bound = bound_for(&engines[0], &sql);
                let reference = old_reference(&bound, &table);
                assert_eq!(reference.len(), limit.map_or(n, |k| k.min(n)));
                let keyed = |r: &Vec<Value>| bound.order_by.iter().any(|&(p, _)| is_nan(&r[p]));
                if reference.iter().any(keyed) {
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
    let table = table_rows(&mut rng, 2 * MORSEL_ROWS + 700);
    let oracle = engine(1, &table);
    let mut cases = Vec::new();
    for base in statements() {
        for tail in ["", " ORDER BY 3, 1 DESC", " ORDER BY 2 DESC, 6 LIMIT 500"] {
            let sql = format!("{base}{tail}");
            let reference = old_reference(&bound_for(&oracle, &sql), &table);
            assert!(reference.len() >= 500, "{} rows", reference.len());
            cases.push((sql, reference));
        }
    }
    for &cores in &core_grid() {
        let mut e = engine(cores, &table);
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
    let table = table_rows(&mut rng, MORSEL_ROWS + 300);
    let mut e = engine(2, &table);
    let sql = "SELECT s, a32, f64c, 'k' FROM t WHERE a8 >= -2 ORDER BY 2 DESC, 1 LIMIT 50";
    let reference = old_reference(&bound_for(&e, sql), &table);
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let cold = e.session().run_on(sql, path).unwrap();
        assert!(!cold.cache_hit);
        let mut first = e.session().run_on(sql, path).unwrap();
        assert!(first.cache_hit);
        assert!(identical(&first.rows, &reference), "{path:?}: first hit");
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
        assert!(
            identical(&second.rows, &reference),
            "{path:?}: the second hit saw what was done to the first one's rows \
             (replay: FABRIC_CHAOS_SEED={seed})"
        );
        assert_eq!(e.op_cache().evictions(), 0);
    }
}
