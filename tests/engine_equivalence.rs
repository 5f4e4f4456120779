//! Cross-crate equivalence: every access path returns the same answers on
//! the same logical data, for microbenchmark queries, TPC-H, and the SQL
//! front end — and those answers are the ones an independent, untimed
//! reading of the base rows gives.

use fabric_sim::{MemoryHierarchy, SimConfig};
use relational_fabric::prelude::*;
use relational_fabric::sql::{AccessPath, MORSEL_ROWS};
use relational_fabric::workload::micro::{run_rm_pushdown, MicroQuery, TABLE};
use relational_fabric::workload::tpch::{col, days_from_civil, Q1_SQL, Q6_SQL};
use relational_fabric::workload::{Lineitem, SyntheticData};
use std::collections::BTreeMap;

const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// Every path's answer to the figures' query shapes is the same, and its
/// values sum to the checksum of the direct device program that filters in
/// the device (§IV-B).
#[test]
fn micro_queries_agree_across_engines_and_pushdown() {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let d = SyntheticData::build(engine.mem(), 10_000, 16, 0xE0).unwrap();
    let grid = [
        MicroQuery::projectivity(1),
        MicroQuery::projectivity(11),
        MicroQuery::proj_sel(3, 3, 16, 0.5),
        MicroQuery::proj_sel(10, 10, 16, 0.95),
        MicroQuery::proj_sel(1, 1, 16, 0.0),
    ];
    let pushed: Vec<f64> = grid
        .iter()
        .map(|q| {
            let run = run_rm_pushdown(engine.mem(), &d.rows, q, RmConfig::prototype());
            run.unwrap().checksum
        })
        .collect();
    engine.register(TABLE, d.rows, d.cols);
    let mut session = engine.session();
    for (q, want) in grid.iter().zip(pushed) {
        let [row, col, rm] = PATHS.map(|path| session.run_on(&q.to_sql(), path).unwrap().rows);
        assert_eq!(row, col, "{q:?}");
        assert_eq!(row, rm, "{q:?}");
        let sum: f64 = row.iter().flatten().map(|v| v.as_f64().unwrap()).sum();
        assert_eq!(sum, want, "{q:?}");
    }
}

/// `rows` of generated `lineitem` on a `cores`-core engine.
fn lineitem_engine(cores: usize, rows: usize, seed: u64) -> Engine {
    let mut engine = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let li = Lineitem::generate(engine.mem(), rows, seed).unwrap();
    engine.register("lineitem", li.rows, li.cols);
    engine
}

/// The untimed oracle over `lineitem`: every row read with
/// `decode_row_untimed`, a row at a time. `fold` gives a passing row's
/// group key and the values its sums take (`None` drops the row). Sums
/// are kept per morsel and merged in morsel order — the order every path
/// adds in, so the answers match to the bit. Returns per group the sums
/// and the row count.
fn untimed_sums<K: Ord, const N: usize>(
    engine: &Engine,
    fold: impl Fn(&[Value]) -> Option<(K, [f64; N])>,
) -> BTreeMap<K, ([f64; N], i64)> {
    let table = &engine.catalog().get("lineitem").unwrap().rows;
    let mut merged = BTreeMap::new();
    for start in (0..table.len()).step_by(MORSEL_ROWS) {
        let mut partial = BTreeMap::new();
        for r in start..(start + MORSEL_ROWS).min(table.len()) {
            let row = table.decode_row_untimed(engine.mem_ref(), r).unwrap();
            if let Some((key, xs)) = fold(&row) {
                let (sums, n) = partial.entry(key).or_insert(([0.0; N], 0));
                sums.iter_mut().zip(xs).for_each(|(s, x)| *s += x);
                *n += 1;
            }
        }
        for (key, (sums, n)) in partial {
            let (total, count) = merged.entry(key).or_insert(([0.0; N], 0));
            total.iter_mut().zip(sums).for_each(|(t, s)| *t += s);
            *count += n;
        }
    }
    merged
}

fn f(r: &[Value], c: usize) -> f64 {
    r[c].as_f64().unwrap()
}

fn day(r: &[Value]) -> i64 {
    r[col::SHIPDATE].as_i64().unwrap()
}

/// `Q1_SQL`'s answer by the untimed oracle.
fn q1_untimed(engine: &Engine) -> Vec<Vec<Value>> {
    let flag = |r: &[Value], c: usize| match &r[c] {
        Value::Str(s) => s.clone(),
        other => panic!("flag {other:?}"),
    };
    let cutoff = i64::from(days_from_civil(1998, 9, 2));
    let groups = untimed_sums(engine, |r| {
        let (qty, price, disc, tax) = (
            f(r, col::QUANTITY),
            f(r, col::EXTENDEDPRICE),
            f(r, col::DISCOUNT),
            f(r, col::TAX),
        );
        let key = (flag(r, col::RETURNFLAG), flag(r, col::LINESTATUS));
        let disc_price = price * (1.0 - disc);
        let sums = [qty, price, disc_price, disc_price * (1.0 + tax), disc];
        (day(r) <= cutoff).then_some((key, sums))
    });
    groups
        .into_iter()
        .map(|((rf, ls), ([qty, price, disc_price, charge, disc], n))| {
            let avg = |s: f64| Value::F64(s / n as f64);
            let sums = [qty, price, disc_price, charge].map(Value::F64);
            let mut row = vec![Value::Str(rf), Value::Str(ls)];
            row.extend(sums);
            row.extend([avg(qty), avg(price), avg(disc), Value::I64(n)]);
            row
        })
        .collect()
}

/// `Q6_SQL`'s answer by the untimed oracle.
fn q6_untimed(engine: &Engine) -> Vec<Vec<Value>> {
    let (lo, hi) = (days_from_civil(1994, 1, 1), days_from_civil(1995, 1, 1));
    let revenue = untimed_sums(engine, |r| {
        let (disc, qty) = (f(r, col::DISCOUNT), f(r, col::QUANTITY));
        let pass = (i64::from(lo)..i64::from(hi)).contains(&day(r))
            && (0.05..=0.07).contains(&disc)
            && qty < 24.0;
        pass.then_some(((), [f(r, col::EXTENDEDPRICE) * disc]))
    });
    assert!(revenue[&()].1 > 0, "no row passes Q6's filter");
    vec![vec![Value::F64(revenue[&()].0[0])]]
}

/// Q1 as Fig. 7 runs it: every path gives the untimed oracle's answer.
#[test]
fn tpch_q1_matches_untimed_fold_on_every_path() {
    let mut engine = lineitem_engine(1, 30_000, 0xE1);
    let want = q1_untimed(&engine);
    assert_eq!(want.len(), 4); // A/F, N/F, N/O, R/F
    let mut session = engine.session();
    for path in PATHS {
        assert_eq!(session.run_on(Q1_SQL, path).unwrap().rows, want, "{path}");
    }
}

/// Q6 as Fig. 7 runs it: every path gives the untimed oracle's answer.
#[test]
fn tpch_q6_matches_untimed_fold_on_every_path() {
    let mut engine = lineitem_engine(1, 30_000, 0xE1);
    let want = q6_untimed(&engine);
    let mut session = engine.session();
    for path in PATHS {
        assert_eq!(session.run_on(Q6_SQL, path).unwrap().rows, want, "{path}");
    }
}

/// Q1 and Q6 as Fig. 7's `--cores` supplement runs them: on four cores,
/// every path and the optimizer's own choice give one answer, and it is
/// the untimed oracle's.
#[test]
fn tpch_q1_q6_agree_across_engines() {
    let mut engine = lineitem_engine(4, 30_000, 0xE6);
    let cases = [(Q1_SQL, q1_untimed(&engine)), (Q6_SQL, q6_untimed(&engine))];
    let mut session = engine.session();
    for (sql_text, want) in cases {
        for path in PATHS {
            let out = session.run_on(sql_text, path).unwrap();
            assert_eq!(out.rows, want, "`{sql_text}` on {path}");
        }
        let routed = session.run(sql_text).unwrap();
        assert_eq!(routed.rows, want, "`{sql_text}` through the optimizer");
    }
}

/// Q6 with its conjuncts written in the reverse order: the filter is the
/// same set of rows, so every path gives Fig. 7's answer.
#[test]
fn sql_q6_matches_across_paths() {
    let mut engine = lineitem_engine(1, 20_000, 0xE2);
    let sql_text = "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
                    WHERE l_quantity < 24 AND l_discount <= 0.07 AND l_discount >= 0.05 \
                    AND l_shipdate < DATE '1995-01-01' AND l_shipdate >= DATE '1994-01-01'";
    let mut session = engine.session();
    let want = session.run_on(Q6_SQL, AccessPath::Row).unwrap().rows;
    assert!(want[0][0].as_f64().unwrap() > 0.0);
    for path in PATHS {
        let out = session.run_on(sql_text, path).unwrap();
        assert_eq!(out.rows, want, "{path}");
    }
}

#[test]
fn sql_q1_matches_across_paths() {
    let mut engine = lineitem_engine(1, 20_000, 0xE3);
    let sql_text = "SELECT l_returnflag, l_linestatus, sum(l_quantity), \
                    sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)), \
                    avg(l_quantity), count(*) \
                    FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                    GROUP BY l_returnflag, l_linestatus";
    let mut session = engine.session();
    let [row, col, rm] = PATHS.map(|path| session.run_on(sql_text, path).unwrap().rows);
    assert_eq!(row.len(), 4); // A/F, N/F, N/O, R/F
    assert_eq!(row, col);
    assert_eq!(row, rm);
}

/// A statement that names no column still scans the table: it runs on
/// every path and through the optimizer, with one answer.
#[test]
fn sql_statements_that_touch_no_column_run_on_every_path() {
    const ROWS: usize = 9_000; // two full morsels and a short one
    let mut engine = lineitem_engine(1, ROWS, 0xE5);
    let mut session = engine.session();
    let n = Value::I64(ROWS as i64);
    let cases = [
        ("SELECT count(*) FROM lineitem", vec![vec![n.clone()]]),
        (
            "SELECT count(*), sum(2), min(5), max('x') FROM lineitem",
            vec![vec![
                n,
                Value::F64(2.0 * ROWS as f64),
                Value::I64(5),
                Value::Str("x".into()),
            ]],
        ),
        (
            "SELECT 1, 'a', 2.5 FROM lineitem",
            vec![vec![Value::I64(1), Value::Str("a".into()), Value::F64(2.5)]; ROWS],
        ),
    ];
    for (sql_text, want) in cases {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let out = session.run_on(sql_text, path).unwrap();
            assert_eq!(out.path, path);
            assert_eq!(out.rows, want, "`{sql_text}` on {path}");
        }
        let routed = session.run(sql_text).unwrap();
        assert_eq!(routed.rows, want, "`{sql_text}` through the optimizer");
    }
}

/// Literals at the edges of their types: a `DATE` that does not exist or
/// that a `Date` cannot hold is a SQL error naming it on every path (it
/// used to wrap or roll over into a wrong answer), and the most negative
/// `i64` is a literal like any other (it used to be "bad number").
#[test]
fn literals_at_the_edges_of_their_types_on_every_path() {
    const ROWS: usize = 2_048;
    let mut engine = lineitem_engine(1, ROWS, 0xDA7E);
    let mut session = engine.session();
    let count = |where_clause: &str| format!("SELECT count(*) FROM lineitem WHERE {where_clause}");
    let all = vec![vec![Value::I64(ROWS as i64)]];
    for (sql_text, want) in [
        (count("l_orderkey > -9223372036854775808"), all.clone()),
        (count("l_shipdate >= DATE '1970-01-01'"), all.clone()),
        (
            count("l_shipdate < DATE '1970-01-01'"),
            vec![vec![Value::I64(0)]],
        ),
    ] {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let out = session.run_on(&sql_text, path).unwrap();
            assert_eq!(out.rows, want, "`{sql_text}` on {path}");
        }
    }
    for literal in ["1960-01-01", "1998-02-31", "1997-02-29", "11761191-01-21"] {
        let sql_text = count(&format!("l_shipdate < DATE '{literal}'"));
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let err = session.run_on(&sql_text, path).unwrap_err().to_string();
            assert!(
                err.contains("SQL error") && err.contains(literal),
                "`{sql_text}` on {path}: {err}"
            );
        }
    }
}

#[test]
fn rm_stats_account_for_all_rows() {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let d = SyntheticData::build(&mut mem, 5000, 16, 0xE4).unwrap();
    let g = d.rows.geometry(&[0, 1, 2]).unwrap();
    let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
    let mut delivered = 0;
    while let Some(b) = eph.next_batch(&mut mem) {
        delivered += b.len();
    }
    let s = eph.stats();
    assert_eq!(delivered, 5000);
    assert_eq!(s.rows_scanned, 5000);
    assert_eq!(s.rows_emitted, 5000);
    // 3 x i32 = 12 bytes/row -> 938 output lines for 5000 rows.
    assert_eq!(s.output_lines, (5000u64 * 12).div_ceil(64));
}
