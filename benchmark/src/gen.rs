//! Seeded input generation for the three query workloads: tables,
//! statement texts and one cycle of the operation stream. Every random
//! choice goes through [`DetRng`]; the engine sees only what is
//! generated here.

use crate::Scale;
use colstore::ColTable;
use fabric_sim::MemoryHierarchy;
use fabric_types::{CmpOp, ColumnId, DetRng, Result, Value};
use query::AccessPath;
use rowstore::RowTable;
use workload::tpch::{col, days_from_civil};
use workload::{Lineitem, SyntheticData};

/// One operation of a cycle: a statement and the path it is forced onto
/// (`None` = the optimizer's choice).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub stmt: u32,
    pub path: Option<AccessPath>,
}

/// How a workload uses sessions and the operator cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sessions {
    /// `Engine::clear_op_cache()` and a fresh session before every
    /// operation: every answer is re-earned through the hierarchy.
    PerOpCold,
    /// One session per cycle on a warm operator cache.
    PerCycle,
}

/// Everything that differs between the query workloads.
pub struct QueryInputs {
    pub table: &'static str,
    pub rows: usize,
    pub build: fn(&mut MemoryHierarchy, usize, u64) -> Result<(RowTable, ColTable)>,
    pub statements: Vec<String>,
    /// One cycle of the operation stream.
    pub ops: Vec<Op>,
    pub sessions: Sessions,
    /// Column group the storage-kernel probes read.
    pub probe_cols: Vec<ColumnId>,
    /// Selection the column-store probe applies to `probe_cols[0]`.
    pub probe_pred: (CmpOp, Value),
}

pub const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

fn build_lineitem(
    mem: &mut MemoryHierarchy,
    rows: usize,
    seed: u64,
) -> Result<(RowTable, ColTable)> {
    Lineitem::generate(mem, rows, seed).map(|t| (t.rows, t.cols))
}

/// Inputs over `lineitem`; the probes read Q6's column group.
fn lineitem_inputs(
    rows: usize,
    statements: Vec<String>,
    ops: Vec<Op>,
    sessions: Sessions,
) -> QueryInputs {
    QueryInputs {
        table: "lineitem",
        rows,
        build: build_lineitem,
        statements,
        ops,
        sessions,
        probe_cols: vec![
            col::SHIPDATE,
            col::QUANTITY,
            col::DISCOUNT,
            col::EXTENDEDPRICE,
        ],
        probe_pred: (CmpOp::Lt, Value::Date(days_from_civil(1995, 1, 1))),
    }
}

fn build_wide(mem: &mut MemoryHierarchy, rows: usize, seed: u64) -> Result<(RowTable, ColTable)> {
    SyntheticData::build(mem, rows, 16, seed).map(|t| (t.rows, t.cols))
}

fn q1_like(month: u32, day: u32) -> String {
    format!(
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
         sum(l_extendedprice * (1 - l_discount)), \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
         avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) \
         FROM lineitem WHERE l_shipdate <= DATE '1998-{month:02}-{day:02}' \
         GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2"
    )
}

fn q6_like(year: u32, disc_centre: u32, quantity: u32) -> String {
    format!(
        "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= DATE '{year}-01-01' AND l_shipdate < DATE '{}-01-01' \
         AND l_discount >= 0.{:02} AND l_discount <= 0.{:02} AND l_quantity < {quantity}",
        year + 1,
        disc_centre - 1,
        disc_centre + 1
    )
}

/// `scan_cold`: {Q1, Q6, key lookup} x forced {ROW, COL, RM}. The
/// lookup is a third query shape (a projection, where Q1 and Q6
/// aggregate) and makes nine operation classes, so the median falls
/// inside a class and not on the edge between two.
pub fn scan_cold(seed: u64, scale: &Scale) -> QueryInputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5343_414e);
    let statements = vec![
        q1_like(rng.gen_range(8..=10), rng.gen_range(1..=28)),
        q6_like(
            rng.gen_range(1993..=1997),
            rng.gen_range(2..=8),
            rng.gen_range(20..=30),
        ),
        format!(
            "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice \
             FROM lineitem WHERE l_orderkey = {}",
            rng.gen_range(1..=(scale.scan_rows / 8).max(1))
        ),
    ];
    let ops = (0..statements.len() as u32)
        .flat_map(|stmt| {
            PATHS.map(|p| Op {
                stmt,
                path: Some(p),
            })
        })
        .collect();
    lineitem_inputs(scale.scan_rows, statements, ops, Sessions::PerOpCold)
}

/// `project_wide`: projectivity {2,4,8,11} x selectivity {0.1,0.5,0.9},
/// each pairing plain, top-100 or fully sorted (a Latin square, so every
/// projectivity and every selectivity meets every variant), routed by
/// the optimizer. Thresholds and the first projected column, which also
/// carries the predicate, are drawn from the seed.
pub fn project_wide(seed: u64, scale: &Scale) -> QueryInputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5749_4445);
    let mut statements = Vec::new();
    let mut ops = Vec::new();
    for (pi, p) in [2usize, 4, 8, 11].into_iter().enumerate() {
        for (si, s) in [0.1f64, 0.5, 0.9].into_iter().enumerate() {
            let first = rng.gen_range(0..=16 - p);
            let cols: Vec<String> = (first..first + p).map(|c| format!("c{c}")).collect();
            // Just under the nominal selectivity, so that no row count
            // straddles a power of two (0.5 x 131072 would), where the
            // simulated sort cost steps.
            let threshold = SyntheticData::threshold(s * rng.gen_range(0.97..0.98));
            let tail = ["", " ORDER BY 1 LIMIT 100", " ORDER BY 1"][(pi + si) % 3];
            let sql = format!(
                "SELECT {} FROM wide WHERE c{first} < {threshold}{tail}",
                cols.join(", ")
            );
            ops.push(Op {
                stmt: statements.len() as u32,
                path: None,
            });
            statements.push(sql);
        }
    }
    QueryInputs {
        table: "wide",
        rows: scale.wide_rows,
        build: build_wide,
        statements,
        ops,
        sessions: Sessions::PerOpCold,
        probe_cols: vec![0, 1, 2, 3],
        probe_pred: (CmpOp::Lt, Value::I32(SyntheticData::threshold(0.5))),
    }
}

/// `dashboard_warm`: `dash_statements` distinct small-result statements
/// and a cycle of Zipf(1.0) draws over them. Statement `i` has rank
/// `i + 1` and the shapes repeat down the ranks in the fixed pattern
/// Q6-like, grouped, Q6-like, grouped, Q6-like, top-k, so every seed
/// gives each shape the same share of the draws (top-k about a tenth:
/// the 95th percentile falls inside that shape, the median inside the
/// cheap hits). The seed decides the constants and the draws.
pub fn dashboard_warm(seed: u64, scale: &Scale) -> QueryInputs {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x4441_5348);
    let mut statements = Vec::new();
    // `i` or `k` appears in every text, so the statements are distinct
    // whatever the seed draws.
    for i in 0..scale.dash_statements as u32 {
        let k = i / 6;
        let sql = match i % 6 {
            0 | 2 | 4 => q6_like(rng.gen_range(1993..=1997), rng.gen_range(2..=8), 20 + i / 2),
            1 => q1_like(rng.gen_range(8..=10), 1 + k),
            3 => format!(
                "SELECT l_shipmode, count(*), sum(l_extendedprice), avg(l_discount) \
                 FROM lineitem WHERE l_shipdate <= DATE '1998-{:02}-{:02}' \
                 GROUP BY l_shipmode ORDER BY 1",
                rng.gen_range(8..=10),
                1 + k
            ),
            _ => {
                // Four months of ship dates: about a twentieth of the
                // rows are memoized and re-sorted on every hit, and the
                // count stays well inside one power of two, where the
                // simulated sort cost has no step.
                let (year, month) = (rng.gen_range(1993..=1997), rng.gen_range(1..=8));
                format!(
                    "SELECT l_orderkey, l_extendedprice FROM lineitem \
                     WHERE l_shipdate >= DATE '{year}-{month:02}-01' \
                     AND l_shipdate < DATE '{year}-{:02}-01' ORDER BY 2 DESC LIMIT {}",
                    month + 4,
                    5 + k
                )
            }
        };
        statements.push(sql);
    }
    // Cumulative Zipf(1.0) weights over the ranks.
    let mut cumulative = Vec::with_capacity(statements.len());
    let mut total = 0.0;
    for rank in 1..=statements.len() {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let ops = (0..scale.dash_draws)
        .map(|_| {
            let u = rng.next_f64() * total;
            let at = cumulative.partition_point(|&c| c <= u);
            Op {
                stmt: at.min(statements.len() - 1) as u32,
                path: None,
            }
        })
        .collect();
    lineitem_inputs(scale.dash_rows, statements, ops, Sessions::PerCycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_statements_are_distinct() {
        let scale = Scale::tiny();
        for make in [scan_cold, project_wide, dashboard_warm] {
            let (a, b, c) = (make(7, &scale), make(7, &scale), make(8, &scale));
            assert_eq!(a.statements, b.statements);
            assert_ne!(a.statements, c.statements);
            let mut sorted = a.statements.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), a.statements.len());
            assert!(a.ops.iter().all(|o| (o.stmt as usize) < a.statements.len()));
        }
        assert_eq!(
            dashboard_warm(7, &scale).statements.len(),
            scale.dash_statements
        );
    }
}
