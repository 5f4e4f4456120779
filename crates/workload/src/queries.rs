//! TPC-H Q1 and Q6 for each engine — the workloads of paper Fig. 7.
//!
//! *Q1* is CPU-heavy (eight aggregates over ~98 % of the rows, grouped by
//! two flags): the paper observes all three layouts performing similarly.
//! *Q6* is movement-bound (a selective conjunction and one sum): the paper
//! observes RM winning by shipping only the four touched columns as one
//! dense stream.
//!
//! Every implementation returns a [`RunResult`] whose checksum folds all
//! result values together, so cross-engine agreement is testable.

use crate::tpch::{col, days_from_civil, Lineitem};
use crate::RunResult;
use colstore::exec as colx;
use fabric_sim::MemoryHierarchy;
use fabric_types::{AggFunc, CmpOp, ColumnPredicate, Expr, Predicate, Result, Value};
use relmem::{EphemeralColumns, RmConfig};
use rowstore::volcano::{AggExpr, Filter, HashAggregate, Operator, SeqScan};
use std::collections::BTreeMap;

/// Q1 date cutoff: 1998-12-01 minus 90 days.
pub fn q1_cutoff() -> u32 {
    days_from_civil(1998, 12, 1) - 90
}

/// Q6 parameters: shipdate in [1994-01-01, 1995-01-01), discount in
/// [0.05, 0.07], quantity < 24.
pub fn q6_dates() -> (u32, u32) {
    (days_from_civil(1994, 1, 1), days_from_civil(1995, 1, 1))
}

// ------------------------------------------------------------------- Q1

/// Per-group accumulator for Q1 (shared by the COL and RM paths; the ROW
/// path exercises the generic Volcano `HashAggregate` instead).
#[derive(Debug, Default, Clone)]
struct Q1Acc {
    sum_qty: f64,
    sum_base: f64,
    sum_disc_price: f64,
    sum_charge: f64,
    sum_disc: f64,
    count: u64,
}

impl Q1Acc {
    #[inline]
    fn update(&mut self, qty: f64, price: f64, disc: f64, tax: f64) {
        self.sum_qty += qty;
        self.sum_base += price;
        let disc_price = price * (1.0 - disc);
        self.sum_disc_price += disc_price;
        self.sum_charge += disc_price * (1.0 + tax);
        self.sum_disc += disc;
        self.count += 1;
    }

    fn checksum(&self) -> f64 {
        let n = self.count as f64;
        self.sum_qty
            + self.sum_base
            + self.sum_disc_price
            + self.sum_charge
            + self.sum_qty / n
            + self.sum_base / n
            + self.sum_disc / n
            + n
    }
}

fn q1_groups_checksum(groups: &BTreeMap<[u8; 2], Q1Acc>) -> f64 {
    // BTreeMap iterates in key order, so the sum order is deterministic
    // by construction (f64 addition is order-sensitive).
    groups.values().map(Q1Acc::checksum).sum()
}

/// Q1 on the Volcano row engine.
pub fn q1_row(mem: &mut MemoryHierarchy, li: &Lineitem) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    // Slots: 0 rf, 1 ls, 2 qty, 3 price, 4 disc, 5 tax, 6 shipdate.
    let scan = SeqScan::new(
        &li.rows,
        vec![
            col::RETURNFLAG,
            col::LINESTATUS,
            col::QUANTITY,
            col::EXTENDEDPRICE,
            col::DISCOUNT,
            col::TAX,
            col::SHIPDATE,
        ],
    )?;
    let filter = Filter::new(
        Box::new(scan),
        vec![(6, CmpOp::Le, Value::Date(q1_cutoff()))],
    );
    let one = || Expr::lit(Value::F64(1.0));
    let disc_price = Expr::mul(Expr::col(3), Expr::sub(one(), Expr::col(4)));
    let charge = Expr::mul(disc_price.clone(), Expr::add(one(), Expr::col(5)));
    let mut agg = HashAggregate::new(
        Box::new(filter),
        vec![0, 1],
        vec![
            AggExpr::new(AggFunc::Sum, Expr::col(2)),
            AggExpr::new(AggFunc::Sum, Expr::col(3)),
            AggExpr::new(AggFunc::Sum, disc_price),
            AggExpr::new(AggFunc::Sum, charge),
            AggExpr::new(AggFunc::Avg, Expr::col(2)),
            AggExpr::new(AggFunc::Avg, Expr::col(3)),
            AggExpr::new(AggFunc::Avg, Expr::col(4)),
            AggExpr::new(AggFunc::Count, Expr::col(2)),
        ],
    );
    let rows = rowstore::execute_collect(mem, &mut agg)?;
    let mut checksum = 0.0;
    for row in &rows {
        for v in &row[2..] {
            checksum += v.as_f64()?;
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum,
    })
}

/// Q1 on the column engine: one selection pass, then lockstep aggregation
/// over six gathered columns (more streams than the prefetcher tracks).
pub fn q1_col(mem: &mut MemoryHierarchy, li: &Lineitem) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let mut sel = Vec::new();
    colx::scan_filter_conj_range_into(
        mem,
        &li.cols,
        col::SHIPDATE,
        &[(CmpOp::Le, Value::Date(q1_cutoff()))],
        0,
        li.cols.len(),
        &mut sel,
    )?;
    let mut groups: BTreeMap<[u8; 2], Q1Acc> = BTreeMap::new();
    colx::for_each_lockstep(
        mem,
        &li.cols,
        &[
            col::RETURNFLAG,
            col::LINESTATUS,
            col::QUANTITY,
            col::EXTENDEDPRICE,
            col::DISCOUNT,
            col::TAX,
        ],
        Some(&sel),
        |mem, _, vals| {
            mem.cpu(costs.hash_op + costs.f64_op * 14);
            let rf = match &vals[0] {
                Value::Str(s) => s.as_bytes().first().copied().unwrap_or(0),
                _ => 0,
            };
            let ls = match &vals[1] {
                Value::Str(s) => s.as_bytes().first().copied().unwrap_or(0),
                _ => 0,
            };
            groups.entry([rf, ls]).or_default().update(
                vals[2].as_f64()?,
                vals[3].as_f64()?,
                vals[4].as_f64()?,
                vals[5].as_f64()?,
            );
            Ok(())
        },
    )?;
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: q1_groups_checksum(&groups),
    })
}

/// Q1 through Relational Memory: one ephemeral column group covering the
/// seven touched columns; predicate and aggregation on the CPU over packed
/// data.
pub fn q1_rm(mem: &mut MemoryHierarchy, li: &Lineitem, cfg: RmConfig) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    // Fields: 0 rf, 1 ls, 2 qty, 3 price, 4 disc, 5 tax, 6 shipdate.
    let g = li.rows.geometry(&[
        col::RETURNFLAG,
        col::LINESTATUS,
        col::QUANTITY,
        col::EXTENDEDPRICE,
        col::DISCOUNT,
        col::TAX,
        col::SHIPDATE,
    ])?;
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;
    let cutoff = q1_cutoff();
    let mut groups: BTreeMap<[u8; 2], Q1Acc> = BTreeMap::new();
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem + costs.value_op);
            if b.u32_at(r, 6) > cutoff {
                mem.cpu(costs.branch_miss);
                continue;
            }
            mem.cpu(costs.hash_op + costs.f64_op * 14);
            groups
                .entry([b.byte_at(r, 0), b.byte_at(r, 1)])
                .or_default()
                .update(
                    b.f64_at(r, 2),
                    b.f64_at(r, 3),
                    b.f64_at(r, 4),
                    b.f64_at(r, 5),
                );
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: q1_groups_checksum(&groups),
    })
}

/// Q1 with the date predicate pushed into the device (§IV-B): only
/// qualifying rows' seven columns cross the hierarchy (~98 % qualify, so
/// the win over [`q1_rm`] is the removed per-row CPU check, not traffic).
pub fn q1_rm_pushdown(
    mem: &mut MemoryHierarchy,
    li: &Lineitem,
    cfg: RmConfig,
) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let layout = li.rows.layout();
    let pred = Predicate::always_true().and(ColumnPredicate::new(
        layout.field(col::SHIPDATE)?,
        CmpOp::Le,
        Value::Date(q1_cutoff()),
    ));
    let g = li
        .rows
        .geometry(&[
            col::RETURNFLAG,
            col::LINESTATUS,
            col::QUANTITY,
            col::EXTENDEDPRICE,
            col::DISCOUNT,
            col::TAX,
        ])?
        .with_predicate(pred);
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;
    let mut groups: BTreeMap<[u8; 2], Q1Acc> = BTreeMap::new();
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem + costs.hash_op + costs.f64_op * 14);
            groups
                .entry([b.byte_at(r, 0), b.byte_at(r, 1)])
                .or_default()
                .update(
                    b.f64_at(r, 2),
                    b.f64_at(r, 3),
                    b.f64_at(r, 4),
                    b.f64_at(r, 5),
                );
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: q1_groups_checksum(&groups),
    })
}

// ------------------------------------------------------------------- Q6

/// Q6 on the Volcano row engine.
pub fn q6_row(mem: &mut MemoryHierarchy, li: &Lineitem) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let (lo, hi) = q6_dates();
    // Slots: 0 shipdate, 1 discount, 2 quantity, 3 price.
    let scan = SeqScan::new(
        &li.rows,
        vec![
            col::SHIPDATE,
            col::DISCOUNT,
            col::QUANTITY,
            col::EXTENDEDPRICE,
        ],
    )?;
    let mut filter = Filter::new(
        Box::new(scan),
        vec![
            (0, CmpOp::Ge, Value::Date(lo)),
            (0, CmpOp::Lt, Value::Date(hi)),
            (1, CmpOp::Ge, Value::F64(0.05)),
            (1, CmpOp::Le, Value::F64(0.07)),
            (2, CmpOp::Lt, Value::F64(24.0)),
        ],
    );
    let mut revenue = 0.0f64;
    let mut tuple = Vec::new();
    while filter.next(mem, &mut tuple)? {
        mem.cpu(costs.f64_op * 2);
        revenue += tuple[3].as_f64()? * tuple[1].as_f64()?;
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: revenue,
    })
}

/// Q6 on the column engine: sequential range scan on shipdate, candidate
/// refinement on discount and quantity, then a two-column gather for the
/// sum.
pub fn q6_col(mem: &mut MemoryHierarchy, li: &Lineitem) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let (lo, hi) = q6_dates();
    let rows = li.cols.len();
    let (mut sel, mut cand) = (Vec::new(), Vec::new());
    colx::scan_filter_conj_range_into(
        mem,
        &li.cols,
        col::SHIPDATE,
        &[(CmpOp::Ge, Value::Date(lo)), (CmpOp::Lt, Value::Date(hi))],
        0,
        rows,
        &mut cand,
    )?;
    colx::scan_filter_cand_range_into(
        mem,
        &li.cols,
        col::DISCOUNT,
        &[(CmpOp::Ge, Value::F64(0.05)), (CmpOp::Le, Value::F64(0.07))],
        &cand,
        0,
        rows,
        &mut sel,
    )?;
    std::mem::swap(&mut sel, &mut cand);
    colx::scan_filter_cand_range_into(
        mem,
        &li.cols,
        col::QUANTITY,
        &[(CmpOp::Lt, Value::F64(24.0))],
        &cand,
        0,
        rows,
        &mut sel,
    )?;
    let mut revenue = 0.0f64;
    colx::for_each_lockstep(
        mem,
        &li.cols,
        &[col::EXTENDEDPRICE, col::DISCOUNT],
        Some(&sel),
        |mem, _, vals| {
            mem.cpu(costs.f64_op * 2);
            revenue += vals[0].as_f64()? * vals[1].as_f64()?;
            Ok(())
        },
    )?;
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: revenue,
    })
}

/// Q6 through Relational Memory: the four touched columns as one packed
/// stream, predicates on the CPU.
pub fn q6_rm(mem: &mut MemoryHierarchy, li: &Lineitem, cfg: RmConfig) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let (lo, hi) = q6_dates();
    // Fields: 0 shipdate, 1 discount, 2 quantity, 3 price.
    let g = li.rows.geometry(&[
        col::SHIPDATE,
        col::DISCOUNT,
        col::QUANTITY,
        col::EXTENDEDPRICE,
    ])?;
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;
    let mut revenue = 0.0f64;
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            // Short-circuit qualification over the packed stream; the
            // qualifying branch is the rare (mispredicted) one.
            mem.cpu(costs.vector_elem + costs.value_op);
            let ship = b.u32_at(r, 0);
            if ship < lo {
                continue;
            }
            mem.cpu(costs.value_op);
            if ship >= hi {
                continue;
            }
            mem.cpu(costs.f64_op * 2);
            let disc = b.f64_at(r, 1);
            if !(0.05..=0.07).contains(&disc) {
                continue;
            }
            mem.cpu(costs.f64_op);
            let qty = b.f64_at(r, 2);
            if qty < 24.0 {
                mem.cpu(costs.branch_miss + costs.f64_op * 2);
                revenue += b.f64_at(r, 3) * disc;
            }
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: revenue,
    })
}

/// Q6 with selection pushed into the device (§IV-B): only qualifying rows'
/// `(price, discount)` pairs cross the hierarchy.
pub fn q6_rm_pushdown(
    mem: &mut MemoryHierarchy,
    li: &Lineitem,
    cfg: RmConfig,
) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let (lo, hi) = q6_dates();
    let layout = li.rows.layout();
    let pred = Predicate::new(vec![
        ColumnPredicate::new(layout.field(col::SHIPDATE)?, CmpOp::Ge, Value::Date(lo)),
        ColumnPredicate::new(layout.field(col::SHIPDATE)?, CmpOp::Lt, Value::Date(hi)),
        ColumnPredicate::new(layout.field(col::DISCOUNT)?, CmpOp::Ge, Value::F64(0.05)),
        ColumnPredicate::new(layout.field(col::DISCOUNT)?, CmpOp::Le, Value::F64(0.07)),
        ColumnPredicate::new(layout.field(col::QUANTITY)?, CmpOp::Lt, Value::F64(24.0)),
    ]);
    let g = li
        .rows
        .geometry(&[col::EXTENDEDPRICE, col::DISCOUNT])?
        .with_predicate(pred);
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;
    let mut revenue = 0.0f64;
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem + costs.f64_op * 2);
            revenue += b.f64_at(r, 0) * b.f64_at(r, 1);
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: revenue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    fn setup(rows: usize) -> (MemoryHierarchy, Lineitem) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let li = Lineitem::generate(&mut mem, rows, 2023).unwrap();
        (mem, li)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn q1_engines_agree() {
        let (mut mem, li) = setup(20_000);
        let r = q1_row(&mut mem, &li).unwrap();
        let c = q1_col(&mut mem, &li).unwrap();
        let m = q1_rm(&mut mem, &li, RmConfig::prototype()).unwrap();
        assert!(
            close(r.checksum, c.checksum),
            "row={} col={}",
            r.checksum,
            c.checksum
        );
        assert!(
            close(r.checksum, m.checksum),
            "row={} rm={}",
            r.checksum,
            m.checksum
        );
        assert!(r.checksum > 0.0);
    }

    #[test]
    fn q1_pushdown_agrees_with_baseline() {
        let (mut mem, li) = setup(20_000);
        let r = q1_row(&mut mem, &li).unwrap();
        let p = q1_rm_pushdown(&mut mem, &li, RmConfig::prototype()).unwrap();
        assert!(
            close(r.checksum, p.checksum),
            "row={} push={}",
            r.checksum,
            p.checksum
        );
    }

    #[test]
    fn q6_engines_agree() {
        let (mut mem, li) = setup(20_000);
        let r = q6_row(&mut mem, &li).unwrap();
        let c = q6_col(&mut mem, &li).unwrap();
        let m = q6_rm(&mut mem, &li, RmConfig::prototype()).unwrap();
        let p = q6_rm_pushdown(&mut mem, &li, RmConfig::prototype()).unwrap();
        assert!(
            close(r.checksum, c.checksum),
            "row={} col={}",
            r.checksum,
            c.checksum
        );
        assert!(
            close(r.checksum, m.checksum),
            "row={} rm={}",
            r.checksum,
            m.checksum
        );
        assert!(
            close(r.checksum, p.checksum),
            "row={} push={}",
            r.checksum,
            p.checksum
        );
        // Q6 selectivity is ~2%; the revenue must be positive on 20k rows.
        assert!(r.checksum > 0.0);
    }

    #[test]
    fn q6_selectivity_is_about_two_percent() {
        let (mut mem, li) = setup(50_000);
        let (lo, hi) = q6_dates();
        let mut sel = Vec::new();
        colx::scan_filter_conj_range_into(
            &mut mem,
            &li.cols,
            col::SHIPDATE,
            &[(CmpOp::Ge, Value::Date(lo)), (CmpOp::Lt, Value::Date(hi))],
            0,
            50_000,
            &mut sel,
        )
        .unwrap();
        let sel = colx::refine_conj(
            &mut mem,
            &li.cols,
            col::DISCOUNT,
            &[(CmpOp::Ge, Value::F64(0.05)), (CmpOp::Le, Value::F64(0.07))],
            &sel,
        )
        .unwrap();
        let sel = colx::refine_conj(
            &mut mem,
            &li.cols,
            col::QUANTITY,
            &[(CmpOp::Lt, Value::F64(24.0))],
            &sel,
        )
        .unwrap();
        let s = sel.len() as f64 / 50_000.0;
        assert!((0.005..0.05).contains(&s), "selectivity {s}");
    }

    #[test]
    fn q1_touches_most_rows() {
        let (mut mem, li) = setup(20_000);
        let mut sel = Vec::new();
        colx::scan_filter_conj_range_into(
            &mut mem,
            &li.cols,
            col::SHIPDATE,
            &[(CmpOp::Le, Value::Date(q1_cutoff()))],
            0,
            20_000,
            &mut sel,
        )
        .unwrap();
        let s = sel.len() as f64 / 20_000.0;
        assert!(s > 0.9, "Q1 selectivity {s}");
    }
}
