//! The §V projection/selection microbenchmarks (Figs. 5 and 6).
//!
//! The measured query is `SELECT c_{p1}, …, c_{pk} FROM t [WHERE c_s <
//! threshold AND …]` over the [`SyntheticData`] table. The figures run it
//! as SQL ([`MicroQuery::to_sql`]) through the engine on every access
//! path. The two RM programs here drive the device directly, for the
//! ablations that vary what SQL cannot yet reach: the device
//! configuration ([`RmConfig`]) and selection push-down (§IV-B). Both
//! consume the result by summing every projected value, so their checksum
//! is the sum of the SQL answer's values. Time is measured in simulated
//! nanoseconds from cold caches.

use crate::synthetic::SyntheticData;
use crate::RunResult;
use fabric_sim::MemoryHierarchy;
use fabric_types::{CmpOp, ColumnId, ColumnPredicate, Predicate, Result, Value};
use relmem::{EphemeralColumns, RmConfig};
use rowstore::RowTable;

/// The name the figures register [`SyntheticData`] under.
pub const TABLE: &str = "t";

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

    /// The query as SQL over [`TABLE`]: a plain projection, so every path
    /// charges the same per-value consumption as the RM programs here.
    pub fn to_sql(&self) -> String {
        let cols: Vec<String> = self.proj.iter().map(|c| format!("c{c}")).collect();
        let mut sql = format!("SELECT {} FROM {TABLE}", cols.join(", "));
        for (i, (c, thr)) in self.sel.iter().enumerate() {
            let glue = if i == 0 { "WHERE" } else { "AND" };
            sql.push_str(&format!(" {glue} c{c} < {thr}"));
        }
        sql
    }
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

    /// The checksum both RM programs must return, folded a row at a time
    /// over untimed decodes of the base rows.
    fn oracle(mem: &MemoryHierarchy, t: &RowTable, q: &MicroQuery) -> f64 {
        let mut sum = 0.0;
        for r in 0..t.len() {
            let row = t.decode_row_untimed(mem, r).unwrap();
            let int = |c: usize| row[c].as_i64().unwrap();
            if q.sel.iter().all(|&(c, thr)| int(c) < i64::from(thr)) {
                sum += q.proj.iter().map(|&c| int(c) as f64).sum::<f64>();
            }
        }
        sum
    }

    /// Both RM programs against the oracle; returns the checksum.
    fn check(mem: &mut MemoryHierarchy, d: &SyntheticData, q: &MicroQuery) -> f64 {
        let rm = run_rm(mem, &d.rows, q, RmConfig::prototype()).unwrap();
        let pushed = run_rm_pushdown(mem, &d.rows, q, RmConfig::prototype()).unwrap();
        assert!(rm.ns > 0.0 && pushed.ns > 0.0);
        let want = oracle(mem, &d.rows, q);
        assert_eq!(rm.checksum, want, "{q:?}");
        assert_eq!(pushed.checksum, want, "{q:?}");
        want
    }

    #[test]
    fn all_engines_agree_on_projection_checksum() {
        let (mut mem, d) = setup(4000);
        for p in [1usize, 4, 9] {
            check(&mut mem, &d, &MicroQuery::projectivity(p));
        }
    }

    #[test]
    fn all_engines_agree_with_selection() {
        let (mut mem, d) = setup(4000);
        // ~49% of rows qualify; checksum must be nonzero.
        assert!(check(&mut mem, &d, &MicroQuery::proj_sel(3, 2, 16, 0.7)) > 0.0);
    }

    #[test]
    fn overlapping_projection_and_selection_columns() {
        let (mut mem, d) = setup(2000);
        // proj 0..12 and sel on last 8 -> columns 8..12 are in both sets.
        let q = MicroQuery::proj_sel(12, 8, 16, 0.9);
        assert!(q.touched_cols().len() < 12 + 8);
        check(&mut mem, &d, &q);
    }

    #[test]
    fn zero_selectivity_selects_nothing() {
        let (mut mem, d) = setup(1000);
        assert_eq!(
            check(&mut mem, &d, &MicroQuery::proj_sel(2, 1, 16, 0.0)),
            0.0
        );
    }

    #[test]
    fn sql_text_names_the_projection_and_every_conjunct() {
        assert_eq!(MicroQuery::projectivity(2).to_sql(), "SELECT c0, c1 FROM t");
        assert_eq!(
            MicroQuery::proj_sel(1, 2, 16, 0.5).to_sql(),
            "SELECT c0 FROM t WHERE c14 < 500000 AND c15 < 500000"
        );
    }
}
