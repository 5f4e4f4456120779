//! Stage 0 of the pipeline in [`super::run_verified`]: the fused
//! vectorized kernel of one access path, driven over morsels, with scratch
//! buffers lent by the session's [`Scratchpad`].
//!
//! [`QueryExecutor`] runs the path's kernel on each morsel (ROW/COL: a
//! [`MORSEL_ROWS`] range; RM: the delivered batches, rolled over at the
//! same boundaries) on the earliest-free simulated core, and returns the
//! per-morsel partial [`Consumer`]s with one [`StageTotal`] of what the
//! kernel passes saw. The pipeline-breaking merge (stage 1) stays in the
//! driver, where it runs as its own profiled phase, and the driver derives
//! every operator's actuals from the two stages' totals.

use crate::analyze::VerifiedQuery;
use crate::bind::BoundQuery;
use crate::catalog::TableEntry;
use crate::cost::AccessPath;
use colstore::exec as colx;
use fabric_sim::MemoryHierarchy;
use fabric_types::{Chunk, FabricError, Result, Value};
use relmem::{EphemeralColumns, RmConfig, RmStats};
use std::rc::Rc;

use super::buffer::{ChunkScratch, Scratchpad};
use super::operators::{ConsumePlan, Consumer};
use super::{FaultContext, MORSEL_ROWS};

/// What one stage of a run did, summed over its invocations: kernel
/// passes (morsels on ROW/COL, delivered batches on RM) with the rows
/// they scanned and the rows that passed the filter, or the merge's folds
/// with the partial rows folded and the rows produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageTotal {
    pub(crate) passes: u64,
    pub(crate) rows_in: u64,
    pub(crate) rows_out: u64,
}

impl StageTotal {
    fn add(&mut self, rows_in: u64, rows_out: u64) {
        self.passes += 1;
        self.rows_in += rows_in;
        self.rows_out += rows_out;
    }
}

/// Stage 0's output: the per-morsel partials, in morsel order, and what
/// the kernel passes saw.
pub(crate) type Stage0<'q> = (Vec<Consumer<'q>>, StageTotal);

/// Stage-0 executor for one verified plan on one access path.
pub struct QueryExecutor<'q> {
    verified: &'q VerifiedQuery,
    path: AccessPath,
}

impl<'q> QueryExecutor<'q> {
    /// Stage 0 of `verified` on `path`.
    pub fn new(verified: &'q VerifiedQuery, path: AccessPath) -> Self {
        QueryExecutor { verified, path }
    }

    fn bound(&self) -> &'q BoundQuery {
        self.verified.bound()
    }

    /// The plan's consumption resolved once for this run; every morsel
    /// consumes into a partial of its own.
    fn consume_plan(&self) -> Result<Rc<ConsumePlan<'q>>> {
        let bound = self.bound();
        let fields = &self.verified.geometry().geometry().fields;
        let key_types = bound.group_by.iter().map(|&slot| {
            fields.get(slot).map(|f| f.ty).ok_or_else(|| {
                FabricError::Internal(format!(
                    "GROUP BY slot {slot} outside the verified geometry"
                ))
            })
        });
        Consumer::plan(
            bound,
            self.verified.output_types()?,
            key_types.collect::<Result<_>>()?,
        )
    }

    /// Run stage 0 on a software path (ROW / COL).
    pub(crate) fn run_stage0(
        &self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Stage0<'q>> {
        match self.path {
            AccessPath::Col => self.run_col(mem, entry, scratch),
            _ => self.run_row(mem, entry, scratch),
        }
    }

    /// ROW stage 0: fused vectorized scan→filter→consume per morsel
    /// ([`rowstore::scan_range_chunks`]) — no per-operator `next()`
    /// charge, no mispredict charge on rejected rows.
    fn run_row(
        &self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Stage0<'q>> {
        let bound = self.bound();
        let plan = self.consume_plan()?;
        let row_cycles = Consumer::row_cycles(&plan, &mem.costs());
        let ChunkScratch { scan, eval } = scratch.chunk();
        run_morsels(mem, &plan, entry.rows.len(), |mem, start, end, consumer| {
            let counts = rowstore::scan_range_chunks(
                mem,
                &entry.rows,
                &bound.touched,
                &bound.preds,
                start,
                end,
                row_cycles,
                scan,
                |chunk, rows| consumer.consume(chunk, rows, eval),
            )?;
            Ok(counts.rows_out)
        })
    }

    /// COL stage 0: column-at-a-time selection into the two selection
    /// vectors (ping-ponged between candidate passes), then a fused
    /// lockstep reconstruction that keeps the survivor list
    /// register-resident instead of re-reading it from its backing store.
    fn run_col(
        &self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Stage0<'q>> {
        let bound = self.bound();
        let table = entry.cols.as_ref().ok_or_else(|| {
            FabricError::Sql(format!("table `{}` has no columnar copy", bound.table))
        })?;
        let plan = self.consume_plan()?;
        let row_cycles = Consumer::row_cycles(&plan, &mem.costs());

        // Column-at-a-time selection: group conjuncts by column once
        // (shared by every morsel), full scan for the first, candidate
        // passes after. Predicate slots are in range — the analyzer
        // checked them before this path was reachable.
        let mut by_col: Vec<(usize, Vec<(fabric_types::CmpOp, Value)>)> = Vec::new();
        for (slot, op, v) in &bound.preds {
            let col = bound.touched[*slot];
            match by_col.iter_mut().find(|(c, _)| *c == col) {
                Some((_, list)) => list.push((*op, v.clone())),
                None => by_col.push((col, vec![(*op, v.clone())])),
            }
        }

        let cols = &bound.touched;
        let (ChunkScratch { scan, eval }, [sv, sv_next]) = scratch.chunk_and_sels();
        run_morsels(mem, &plan, table.len(), |mem, start, end, consumer| {
            let consume = |chunk: &Chunk<'_>, rows: &[u32]| consumer.consume(chunk, rows, eval);
            let Some(((c0, preds0), rest)) = by_col.split_first() else {
                colx::lockstep_chunks_range(
                    mem, table, cols, start, end, row_cycles, scan, consume,
                )?;
                return Ok((end - start) as u64);
            };
            colx::scan_filter_conj_range_into(mem, table, *c0, preds0, start, end, sv)?;
            for (c, preds) in rest {
                colx::scan_filter_cand_range_into(mem, table, *c, preds, sv, start, end, sv_next)?;
                std::mem::swap(sv, sv_next);
            }
            colx::lockstep_chunks_fused(mem, table, cols, sv, row_cycles, scan, consume)?;
            Ok(sv.len() as u64)
        })
    }

    /// RM stage 0: consume delivered batches with a branch-free
    /// predicate (every conjunct charged and evaluated; rejection is a
    /// data dependency, not a mispredicted branch), rolling partials over
    /// at the same [`MORSEL_ROWS`] boundaries as the software paths.
    ///
    /// Every delivery runs under `ctx`'s fault plan
    /// ([`EphemeralColumns::next_batch_resilient`]) and is consumed with
    /// [`relmem::PackedBatch::consume_chunks`]. Always returns the device
    /// stats — on error they carry the injected fault counts of the failed
    /// attempt into the degraded output. Error exits re-join the clocks,
    /// so the caller's accounting stays aligned.
    pub(crate) fn run_stage0_rm(
        &self,
        mem: &mut MemoryHierarchy,
        scratch: &mut Scratchpad,
        ctx: &mut FaultContext,
    ) -> (Result<Stage0<'q>>, RmStats) {
        let bound = self.bound();
        let costs = mem.costs();
        let plan = match self.consume_plan() {
            Ok(t) => t,
            Err(e) => return (Err(e), RmStats::default()),
        };
        // The geometry was admitted by the analyzer; configuration cannot
        // fail. The device shares the plan's descriptor: the clone copies
        // a pointer, not the field list and predicate.
        let mut eph = EphemeralColumns::configure_verified(
            mem,
            RmConfig::prototype(),
            self.verified.geometry().clone(),
        );

        // RM fan-out: each delivered batch is consumed on the
        // earliest-free core. Batch *content* is timing-independent (the
        // device walks its geometry cursor, and fault draws are indexed by
        // delivery sequence), so delivery order — and therefore the
        // partial list — is identical for every core count.
        mem.fork_clocks();
        let mut partials: Vec<Consumer<'q>> = Vec::new();
        let mut current = Consumer::new(&plan);
        let mut total = StageTotal::default();
        let row_cycles = Consumer::row_cycles(&plan, &costs) + costs.vector_elem;
        let mut consumed = 0usize;
        let ChunkScratch { scan, eval } = scratch.chunk();
        let res = loop {
            mem.set_active_core(earliest_core(mem));
            let b = match eph.next_batch_resilient(mem, &mut ctx.plan, &ctx.policy) {
                Ok(Some(b)) => b,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
            // The batch in pieces that end where a morsel does.
            let kept = (|| {
                let mut kept = 0u64;
                let mut r = 0usize;
                while r < b.len() {
                    if consumed > 0 && consumed % MORSEL_ROWS == 0 {
                        let next = current.successor();
                        partials.push(std::mem::replace(&mut current, next));
                    }
                    let n = (MORSEL_ROWS - consumed % MORSEL_ROWS).min(b.len() - r);
                    kept += b.consume_chunks(
                        mem,
                        r..r + n,
                        &bound.preds,
                        row_cycles,
                        &mut scan.rows,
                        |chunk, rows| current.consume(chunk, rows, eval),
                    )?;
                    consumed += n;
                    r += n;
                }
                Ok(kept)
            })();
            match kept {
                Ok(kept) => total.add(b.len() as u64, kept),
                Err(e) => break Err(e),
            }
        };
        partials.push(current);
        mem.join_clocks();
        mem.set_active_core(0);
        (res.map(|()| (partials, total)), eph.stats())
    }
}

/// The ROW/COL morsel loop: fork the clocks, run `kernel` over each
/// [`MORSEL_ROWS`] range of the `rows`-row table on the earliest-free core
/// into a partial of its own, and join. `kernel` returns the rows of its
/// range that passed the filter. An empty table is still one (empty)
/// morsel; an error stops the loop with the clocks joined.
fn run_morsels<'q>(
    mem: &mut MemoryHierarchy,
    plan: &Rc<ConsumePlan<'q>>,
    rows: usize,
    mut kernel: impl FnMut(&mut MemoryHierarchy, usize, usize, &mut Consumer<'q>) -> Result<u64>,
) -> Result<Stage0<'q>> {
    mem.fork_clocks();
    let mut partials: Vec<Consumer<'q>> = Vec::with_capacity(rows / MORSEL_ROWS + 1);
    let mut total = StageTotal::default();
    let mut start = 0usize;
    let res = loop {
        let end = (start + MORSEL_ROWS).min(rows);
        mem.set_active_core(earliest_core(mem));
        let mut consumer = next_partial(plan, &partials);
        match kernel(mem, start, end, &mut consumer) {
            Ok(kept) => total.add((end - start) as u64, kept),
            Err(e) => break Err(e),
        }
        partials.push(consumer);
        start = end;
        if start >= rows {
            break Ok(());
        }
    };
    mem.join_clocks();
    mem.set_active_core(0);
    res.map(|()| (partials, total))
}

/// Deterministic morsel scheduling: the earliest-free core, ties broken
/// toward the lowest id. With one core this is always core 0 and the
/// stage-0 kernels reduce to the serial engine.
fn earliest_core(mem: &MemoryHierarchy) -> usize {
    (0..mem.num_cores())
        .min_by_key(|&i| (mem.core_now(i), i))
        .unwrap_or(0)
}

/// An empty partial for the morsel after `partials`, sized like the last
/// of them.
fn next_partial<'q>(plan: &Rc<ConsumePlan<'q>>, partials: &[Consumer<'q>]) -> Consumer<'q> {
    partials
        .last()
        .map_or_else(|| Consumer::new(plan), Consumer::successor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::bind::bind;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use colstore::ColTable;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};
    use rowstore::RowTable;

    fn setup() -> (MemoryHierarchy, Catalog) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut rt = RowTable::create(&mut mem, schema.clone(), 64).unwrap();
        let mut ct = ColTable::create(&mut mem, schema, 64).unwrap();
        for i in 0..50i64 {
            let row = vec![Value::I64(i), Value::F64(i as f64)];
            rt.load(&mut mem, &row).unwrap();
            ct.load(&mut mem, &row).unwrap();
        }
        let mut c = Catalog::new();
        c.register("t", rt, ct);
        (mem, c)
    }

    #[test]
    fn stage0_records_per_operator_actuals() {
        let (mut mem, c) = setup();
        let entry = c.get("t").unwrap();
        let bound = bind(&c, &parse("SELECT id FROM t WHERE id < 5").unwrap()).unwrap();
        let v = analyze(entry, &bound, &RmConfig::prototype()).unwrap();
        let mut scratch = Scratchpad::new();
        let ex = QueryExecutor::new(&v, AccessPath::Col);
        let (partials, total) = ex.run_stage0(&mut mem, entry, &mut scratch).unwrap();
        assert_eq!(partials.len(), 1, "50 rows fit one morsel");
        let want = StageTotal {
            passes: 1,
            rows_in: 50,
            rows_out: 5,
        };
        assert_eq!(total, want);
        // The two selection vectors and the chunk scratch, allocated once.
        assert_eq!(scratch.allocs(), 3);
        ex.run_stage0(&mut mem, entry, &mut scratch).unwrap();
        assert_eq!(scratch.allocs(), 3, "no new allocations on a warm pad");
        assert_eq!(scratch.reuses(), 3);

        // Every stage-0 record of the run is a function of that total;
        // merge is the driver's.
        let (verified, cost, key) = crate::engine::prepare_plan(&mem, &c, &bound).unwrap();
        let out = crate::exec::execute_uncached(
            &mut mem,
            &mut crate::exec::QueryMetrics::default(),
            entry,
            &verified,
            AccessPath::Col,
            cost,
            crate::exec::opcache::keyed(key, AccessPath::Col),
        )
        .unwrap();
        let actuals: Vec<_> = out
            .ops
            .iter()
            .map(|o| (o.op, (o.invocations, o.rows_in, o.rows_out)))
            .collect();
        assert_eq!(
            actuals,
            [
                ("scan_col", (1, 50, 50)),
                ("filter", (1, 50, 5)),
                ("project", (1, 5, 5)),
                ("merge", (1, 5, 5)),
            ]
        );
    }
}
