//! Regression guard for the reproduced evaluation shapes.
//!
//! These are the paper's qualitative claims (the things EXPERIMENTS.md
//! reports), measured the way the figures measure them: SQL through the
//! engine's session on one core, each point from cold caches and an empty
//! operator cache. If a change to the simulator or the executor breaks one
//! of them, the reproduction is broken even if every unit test passes.

use relational_fabric::prelude::*;
use relational_fabric::sql::{AccessPath, QueryOutput};
use relational_fabric::workload::micro::{MicroQuery, TABLE};
use relational_fabric::workload::tpch::{Q1_SQL, Q6_SQL};
use relational_fabric::workload::{Lineitem, SyntheticData};

const MICRO_ROWS: usize = 49_152; // 3 MiB table: well past the 1 MiB L2

fn micro_engine(cfg: SimConfig) -> Engine {
    let mut engine = Engine::new(cfg);
    let d = SyntheticData::build(engine.mem(), MICRO_ROWS, 16, 0x5AFE).unwrap();
    engine.register(TABLE, d.rows, d.cols);
    engine
}

fn lineitem_engine(rows: usize, seed: u64) -> Engine {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let li = Lineitem::generate(engine.mem(), rows, seed).unwrap();
    engine.register("lineitem", li.rows, li.cols);
    engine
}

/// One cold point, as the figure binaries run it.
fn cold(engine: &mut Engine, sql: &str, path: AccessPath) -> QueryOutput {
    engine.mem().flush_caches();
    engine.clear_op_cache();
    engine.session().run_on(sql, path).unwrap()
}

/// Simulated ns of a micro query on `path`.
fn ns(engine: &mut Engine, q: &MicroQuery, path: AccessPath) -> f64 {
    cold(engine, &q.to_sql(), path).ns
}

/// Fig. 5, claim 1: RM outperforms direct row-wise accesses at every
/// projectivity. At p = 1 the two tie within 3 % (EXPERIMENTS.md, Known
/// deviation 6): RM is held at the device's row beat and ROW scans one
/// prefetched line a row at about the same rate.
#[test]
fn fig5_rm_always_beats_row() {
    let mut engine = micro_engine(SimConfig::zynq_a53());
    for p in [1usize, 3, 4, 6, 9, 11] {
        let sql = MicroQuery::projectivity(p).to_sql();
        let row = cold(&mut engine, &sql, AccessPath::Row);
        let rm = cold(&mut engine, &sql, AccessPath::Rm);
        assert_eq!(row.rows, rm.rows);
        let bound = if p == 1 { 1.03 } else { 1.0 };
        assert!(
            rm.ns < row.ns * bound,
            "p={p}: RM {:.0} !< {bound} x ROW {:.0}",
            rm.ns,
            row.ns
        );
    }
}

/// Fig. 5, claim 2: columnar accesses win below four projected columns; RM
/// wins above four (the prefetcher-stream crossover).
#[test]
fn fig5_col_rm_crossover_at_four_columns() {
    let mut engine = micro_engine(SimConfig::zynq_a53());
    for p in [1usize, 2, 3] {
        let q = MicroQuery::projectivity(p);
        let col = ns(&mut engine, &q, AccessPath::Col);
        let rm = ns(&mut engine, &q, AccessPath::Rm);
        assert!(col < rm, "p={p}: COL {col:.0} !< RM {rm:.0}");
    }
    for p in [5usize, 7, 9, 11] {
        let q = MicroQuery::projectivity(p);
        let col = ns(&mut engine, &q, AccessPath::Col);
        let rm = ns(&mut engine, &q, AccessPath::Rm);
        assert!(rm < col, "p={p}: RM {rm:.0} !< COL {col:.0}");
    }
}

/// Fig. 5, claim 3: at high projectivity the column store degrades to
/// around (or slightly past) the row store.
#[test]
fn fig5_col_approaches_row_at_high_projectivity() {
    let mut engine = micro_engine(SimConfig::zynq_a53());
    let q = MicroQuery::projectivity(11);
    let ratio = ns(&mut engine, &q, AccessPath::Col) / ns(&mut engine, &q, AccessPath::Row);
    assert!(
        (0.85..=1.6).contains(&ratio),
        "COL/ROW at p=11 should be near 1, got {ratio:.2}"
    );
}

/// Fig. 6 corners: RM beats ROW everywhere; COL wins the lowest-left
/// corner; RM dominates at high column counts.
#[test]
fn fig6_corner_behaviour() {
    let mut engine = micro_engine(SimConfig::zynq_a53());
    let corners = [(1usize, 1usize), (1, 10), (10, 1), (10, 10)];
    for (p, s) in corners {
        let sql = MicroQuery::proj_sel(p, s, 16, 0.93).to_sql();
        let row = cold(&mut engine, &sql, AccessPath::Row);
        let rm = cold(&mut engine, &sql, AccessPath::Rm);
        assert_eq!(row.rows, rm.rows);
        assert!(rm.ns < row.ns, "RM must beat ROW at p={p} s={s}");
    }
    // Lower-left: columnar is faster (total columns < 4).
    let q = MicroQuery::proj_sel(1, 1, 16, 0.93);
    let col = ns(&mut engine, &q, AccessPath::Col);
    assert!(
        col < ns(&mut engine, &q, AccessPath::Rm),
        "COL must win (1,1)"
    );
    // Upper-right: RM dominates.
    let q = MicroQuery::proj_sel(10, 10, 16, 0.93);
    let col = ns(&mut engine, &q, AccessPath::Col);
    assert!(
        ns(&mut engine, &q, AccessPath::Rm) < col,
        "RM must win (10,10)"
    );
}

/// Fig. 7b: for Q6 (movement-bound) RM is fastest, ROW slowest.
#[test]
fn fig7b_q6_ordering() {
    let mut engine = lineitem_engine(Lineitem::rows_for_q6_target(2), 0x71);
    let [row, col, rm] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm]
        .map(|path| cold(&mut engine, Q6_SQL, path));
    assert_eq!(row.rows, col.rows);
    assert_eq!(row.rows, rm.rows);
    assert!(rm.ns < col.ns, "RM {:.0} !< COL {:.0}", rm.ns, col.ns);
    assert!(col.ns < row.ns, "COL {:.0} !< ROW {:.0}", col.ns, row.ns);
}

/// Fig. 7a: for Q1 (compute-bound) the three layouts are comparable — the
/// spread is small relative to Q6's.
#[test]
fn fig7a_q1_layouts_are_close() {
    let mut engine = lineitem_engine(Lineitem::rows_for_q1_target(2), 0x71A);
    let [row, col, rm] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm]
        .map(|path| cold(&mut engine, Q1_SQL, path));
    assert_eq!(row.rows, col.rows);
    assert_eq!(row.rows, rm.rows);
    assert!(rm.ns <= row.ns, "RM should not lose to ROW on Q1");
    let spread = row.ns / rm.ns.min(col.ns);
    assert!(
        spread < 2.0,
        "Q1 layouts should be within 2x, spread {spread:.2}"
    );
}

/// The prefetch-stream ablation: the column store's degradation at high
/// projectivity comes from the prefetcher's stream-table capacity — give
/// the (hypothetical) hardware a 16-stream table and the p=7 penalty
/// disappears; this is a mechanism, not a fitted curve.
#[test]
fn prefetch_stream_capacity_drives_col_degradation() {
    let col_at = |streams: usize, p: usize| {
        let mut cfg = SimConfig::zynq_a53();
        cfg.prefetch_streams = streams;
        ns(
            &mut micro_engine(cfg),
            &MicroQuery::projectivity(p),
            AccessPath::Col,
        )
    };
    // At p = 7 (past the A53's 4 streams) a 16-stream prefetcher would
    // remove most of the penalty...
    let narrow = col_at(4, 7);
    let wide = col_at(16, 7);
    assert!(
        wide < narrow * 0.85,
        "16 streams should cure the p=7 penalty: {wide:.0} vs {narrow:.0}"
    );
    // ...while below the capacity the table size is irrelevant.
    let narrow = col_at(4, 3);
    let wide = col_at(16, 3);
    let ratio = wide / narrow;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "p=3 should not depend on stream capacity: ratio {ratio:.2}"
    );
}
