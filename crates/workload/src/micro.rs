//! The §V projection/selection microbenchmarks (Figs. 5 and 6), one
//! implementation per engine.
//!
//! The measured query is `SELECT c_{p1}, …, c_{pk} FROM t [WHERE c_s <
//! threshold AND …]`, with the result consumed by summing every projected
//! value — so all engines do the same logical work and must produce the
//! same checksum. Time is measured in simulated nanoseconds from cold
//! caches.

use crate::synthetic::SyntheticData;
use crate::RunResult;
use colstore::{exec as colx, ColTable};
use fabric_sim::MemoryHierarchy;
use fabric_types::{CmpOp, ColumnId, ColumnPredicate, Predicate, Result, Value};
use relmem::{EphemeralColumns, RmConfig};
use rowstore::{Filter, Operator, RowTable, SeqScan};

/// One microbenchmark query: projected columns plus `col < threshold`
/// selection conjuncts.
#[derive(Debug, Clone)]
pub struct MicroQuery {
    pub proj: Vec<ColumnId>,
    pub sel: Vec<(ColumnId, i32)>,
}

impl MicroQuery {
    /// Fig. 5 point: project the first `p` columns, no selection.
    pub fn projectivity(p: usize) -> Self {
        MicroQuery {
            proj: (0..p).collect(),
            sel: Vec::new(),
        }
    }

    /// Fig. 6 point: project the first `p` columns and filter on the *last*
    /// `s` columns of a `num_cols`-wide table, each conjunct with the given
    /// per-conjunct selectivity.
    pub fn proj_sel(p: usize, s: usize, num_cols: usize, selectivity: f64) -> Self {
        let thr = SyntheticData::threshold(selectivity);
        MicroQuery {
            proj: (0..p).collect(),
            sel: (num_cols - s..num_cols).map(|c| (c, thr)).collect(),
        }
    }

    /// All columns the query touches: projections first, then selection
    /// columns not already projected.
    pub fn touched_cols(&self) -> Vec<ColumnId> {
        let mut cols = self.proj.clone();
        for (c, _) in &self.sel {
            if !cols.contains(c) {
                cols.push(*c);
            }
        }
        cols
    }
}

/// ROW engine: Volcano scan → filter → tuple-at-a-time consumption.
pub fn run_row(mem: &mut MemoryHierarchy, t: &RowTable, q: &MicroQuery) -> Result<RunResult> {
    let cols = q.touched_cols();
    let preds: Vec<(usize, CmpOp, Value)> = q
        .sel
        .iter()
        .map(|(c, thr)| {
            let slot = cols
                .iter()
                .position(|x| x == c)
                .expect("sel col in touched");
            (slot, CmpOp::Lt, Value::I32(*thr))
        })
        .collect();

    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let scan = SeqScan::new(t, cols)?;
    let mut op: Box<dyn Operator> = if preds.is_empty() {
        Box::new(scan)
    } else {
        Box::new(Filter::new(Box::new(scan), preds))
    };

    let p = q.proj.len() as u64;
    let mut sum = 0.0f64;
    let mut tuple = Vec::new();
    while op.next(mem, &mut tuple)? {
        // Materialize the projected output tuple and consume it.
        mem.cpu(costs.value_op * p);
        for slot in 0..q.proj.len() {
            sum += tuple[slot].as_f64()?;
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: sum,
    })
}

/// COL engine: column-at-a-time selection passes, then batched tuple
/// reconstruction of the projected columns.
pub fn run_col(mem: &mut MemoryHierarchy, t: &ColTable, q: &MicroQuery) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();

    let lt = |thr: &i32| [(CmpOp::Lt, Value::I32(*thr))];
    let sel = match q.sel.split_first() {
        None => None,
        Some(((c0, thr0), rest)) => {
            let (mut sv, mut cand) = (Vec::new(), Vec::new());
            colx::scan_filter_conj_range_into(mem, t, *c0, &lt(thr0), 0, t.len(), &mut sv)?;
            for (c, thr) in rest {
                std::mem::swap(&mut sv, &mut cand);
                colx::scan_filter_cand_range_into(
                    mem,
                    t,
                    *c,
                    &lt(thr),
                    &cand,
                    0,
                    t.len(),
                    &mut sv,
                )?;
            }
            Some(sv)
        }
    };

    let mut sum = 0.0f64;
    colx::reconstruct(mem, t, &q.proj, sel.as_deref(), |mem, batch| {
        mem.cpu(costs.value_op * batch.values.len() as u64);
        for v in &batch.values {
            sum += v.as_f64()?;
        }
        Ok(())
    })?;
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: sum,
    })
}

/// RM engine: one ephemeral column-group covering the touched columns;
/// predicates evaluated by the CPU over the packed data (the prototype
/// pushes projection, not selection — §IV-B keeps selection push-down as an
/// extension, measured separately in [`run_rm_pushdown`]).
pub fn run_rm(
    mem: &mut MemoryHierarchy,
    t: &RowTable,
    q: &MicroQuery,
    cfg: RmConfig,
) -> Result<RunResult> {
    let cols = q.touched_cols();
    let sel_fields: Vec<(usize, i32)> = q
        .sel
        .iter()
        .map(|(c, thr)| {
            let slot = cols
                .iter()
                .position(|x| x == c)
                .expect("sel col in touched");
            (slot, *thr)
        })
        .collect();

    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();
    let g = t.geometry(&cols)?;
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;

    let p = q.proj.len() as u64;
    let mut sum = 0.0f64;
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem);
            let mut pass = true;
            for (slot, thr) in &sel_fields {
                mem.cpu(costs.value_op);
                if b.i32_at(r, *slot) >= *thr {
                    pass = false;
                    mem.cpu(costs.branch_miss);
                    break;
                }
            }
            if pass {
                mem.cpu(costs.value_op * p);
                for slot in 0..q.proj.len() {
                    sum += b.i32_at(r, slot) as f64;
                }
            }
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: sum,
    })
}

/// RM with selection pushed into the device (§IV-B extension): the geometry
/// carries the predicate, so only qualifying rows' projected columns cross
/// the memory hierarchy.
pub fn run_rm_pushdown(
    mem: &mut MemoryHierarchy,
    t: &RowTable,
    q: &MicroQuery,
    cfg: RmConfig,
) -> Result<RunResult> {
    mem.flush_caches();
    let t0 = mem.now();
    let costs = mem.costs();

    let layout = t.layout();
    let mut pred = Predicate::always_true();
    for (c, thr) in &q.sel {
        pred = pred.and(ColumnPredicate::new(
            layout.field(*c)?,
            CmpOp::Lt,
            Value::I32(*thr),
        ));
    }
    let g = t.geometry(&q.proj)?.with_predicate(pred);
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;

    let p = q.proj.len() as u64;
    let mut sum = 0.0f64;
    while let Some(b) = eph.next_batch(mem) {
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem + costs.value_op * p);
            for slot in 0..q.proj.len() {
                sum += b.i32_at(r, slot) as f64;
            }
        }
    }
    Ok(RunResult {
        ns: mem.ns_since(t0),
        checksum: sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    fn setup(rows: usize) -> (MemoryHierarchy, SyntheticData) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let d = SyntheticData::build(&mut mem, rows, 16, 1234).unwrap();
        (mem, d)
    }

    #[test]
    fn all_engines_agree_on_projection_checksum() {
        let (mut mem, d) = setup(4000);
        for p in [1usize, 4, 9] {
            let q = MicroQuery::projectivity(p);
            let row = run_row(&mut mem, &d.rows, &q).unwrap();
            let col = run_col(&mut mem, &d.cols, &q).unwrap();
            let rm = run_rm(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
            assert_eq!(row.checksum, col.checksum, "p={p}");
            assert_eq!(row.checksum, rm.checksum, "p={p}");
            assert!(row.ns > 0.0 && col.ns > 0.0 && rm.ns > 0.0);
        }
    }

    #[test]
    fn all_engines_agree_with_selection() {
        let (mut mem, d) = setup(4000);
        let q = MicroQuery::proj_sel(3, 2, 16, 0.7);
        let row = run_row(&mut mem, &d.rows, &q).unwrap();
        let col = run_col(&mut mem, &d.cols, &q).unwrap();
        let rm = run_rm(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        let rm_pd = run_rm_pushdown(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        assert_eq!(row.checksum, col.checksum);
        assert_eq!(row.checksum, rm.checksum);
        assert_eq!(row.checksum, rm_pd.checksum);
        // ~49% of rows qualify; checksum must be nonzero.
        assert!(row.checksum > 0.0);
    }

    #[test]
    fn overlapping_projection_and_selection_columns() {
        let (mut mem, d) = setup(2000);
        // proj 0..12 and sel on last 8 -> columns 8..12 are in both sets.
        let q = MicroQuery::proj_sel(12, 8, 16, 0.9);
        assert!(q.touched_cols().len() < 12 + 8);
        let row = run_row(&mut mem, &d.rows, &q).unwrap();
        let col = run_col(&mut mem, &d.cols, &q).unwrap();
        let rm = run_rm(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        assert_eq!(row.checksum, col.checksum);
        assert_eq!(row.checksum, rm.checksum);
    }

    #[test]
    fn zero_selectivity_selects_nothing() {
        let (mut mem, d) = setup(1000);
        let q = MicroQuery::proj_sel(2, 1, 16, 0.0);
        let row = run_row(&mut mem, &d.rows, &q).unwrap();
        let rm = run_rm(&mut mem, &d.rows, &q, RmConfig::prototype()).unwrap();
        assert_eq!(row.checksum, 0.0);
        assert_eq!(rm.checksum, 0.0);
    }
}
