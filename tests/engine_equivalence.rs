//! Cross-crate equivalence: every access path returns the same answers on
//! the same logical data, for microbenchmark queries, TPC-H, and the SQL
//! front end.

use fabric_sim::{MemoryHierarchy, SimConfig};
use relational_fabric::prelude::*;
use relational_fabric::sql::AccessPath;
use relational_fabric::workload::micro::{run_col, run_rm, run_rm_pushdown, run_row, MicroQuery};
use relational_fabric::workload::{queries, Lineitem, SyntheticData};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn micro_queries_agree_across_engines_and_pushdown() {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let d = SyntheticData::build(&mut mem, 10_000, 16, 0xE0).unwrap();
    let grid = [
        MicroQuery::projectivity(1),
        MicroQuery::projectivity(11),
        MicroQuery::proj_sel(3, 3, 16, 0.5),
        MicroQuery::proj_sel(10, 10, 16, 0.95),
        MicroQuery::proj_sel(1, 1, 16, 0.0),
    ];
    for q in grid {
        let row = run_row(&mut mem, &d.rows, &q).unwrap();
        let col = run_col(&mut mem, &d.cols, &q).unwrap();
        let rm = run_rm(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        let push = run_rm_pushdown(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        assert_eq!(row.checksum, col.checksum, "{q:?}");
        assert_eq!(row.checksum, rm.checksum, "{q:?}");
        assert_eq!(row.checksum, push.checksum, "{q:?}");
    }
}

#[test]
fn tpch_q1_q6_agree_across_engines() {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(&mut mem, 30_000, 0xE1).unwrap();
    let (r1, c1, m1) = (
        queries::q1_row(&mut mem, &li).unwrap(),
        queries::q1_col(&mut mem, &li).unwrap(),
        queries::q1_rm(&mut mem, &li, RmConfig::prototype()).unwrap(),
    );
    assert!(close(r1.checksum, c1.checksum));
    assert!(close(r1.checksum, m1.checksum));

    let (r6, c6, m6, p6) = (
        queries::q6_row(&mut mem, &li).unwrap(),
        queries::q6_col(&mut mem, &li).unwrap(),
        queries::q6_rm(&mut mem, &li, RmConfig::prototype()).unwrap(),
        queries::q6_rm_pushdown(&mut mem, &li, RmConfig::prototype()).unwrap(),
    );
    assert!(close(r6.checksum, c6.checksum));
    assert!(close(r6.checksum, m6.checksum));
    assert!(close(r6.checksum, p6.checksum));
}

#[test]
fn sql_q6_matches_hand_written_engines() {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(engine.mem(), 20_000, 0xE2).unwrap();
    let hand = queries::q6_row(engine.mem(), &li).unwrap();

    engine.register("lineitem", li.rows, li.cols);
    let sql_text = "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
                    WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
                    AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24";
    let mut session = engine.session();
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let out = session.run_on(sql_text, path).unwrap();
        let revenue = out.rows[0][0].as_f64().unwrap();
        assert!(
            close(revenue, hand.checksum),
            "{path}: {revenue} vs {}",
            hand.checksum
        );
    }
}

#[test]
fn sql_q1_matches_across_paths() {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(engine.mem(), 20_000, 0xE3).unwrap();
    engine.register("lineitem", li.rows, li.cols);
    let sql_text = "SELECT l_returnflag, l_linestatus, sum(l_quantity), \
                    sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)), \
                    avg(l_quantity), count(*) \
                    FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                    GROUP BY l_returnflag, l_linestatus";
    let mut session = engine.session();
    let row = session.run_on(sql_text, AccessPath::Row).unwrap();
    let col = session.run_on(sql_text, AccessPath::Col).unwrap();
    let rm = session.run_on(sql_text, AccessPath::Rm).unwrap();
    assert_eq!(row.rows.len(), 4); // A/F, N/F, N/O, R/F
    assert_eq!(row.rows, col.rows);
    assert_eq!(row.rows, rm.rows);
}

/// A statement that names no column still scans the table: it runs on
/// every path and through the optimizer, with one answer.
#[test]
fn sql_statements_that_touch_no_column_run_on_every_path() {
    const ROWS: usize = 9_000; // two full morsels and a short one
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(engine.mem(), ROWS, 0xE5).unwrap();
    engine.register("lineitem", li.rows, li.cols);
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
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(engine.mem(), ROWS, 0xDA7E).unwrap();
    engine.register("lineitem", li.rows, li.cols);
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
