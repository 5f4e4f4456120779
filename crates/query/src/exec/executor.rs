//! The staged query executor: one lowered operator DAG per run, fused
//! vectorized stage-0 kernels per path, scratch buffers from the
//! session's [`Scratchpad`].
//!
//! [`QueryExecutor`] is stage 0 of the pipeline in [`super::run_verified`]:
//! it drives the path-specific fused kernel over morsels, schedules each
//! morsel onto the earliest-free simulated core, and returns the
//! per-morsel partial [`Consumer`]s. The pipeline-breaking merge (stage 1)
//! stays in the driver, where it runs as its own profiled phase.
//!
//! Per-operator actuals accumulate on the DAG nodes as morsels flow
//! through; [`QueryExecutor::op_actuals`] hands them to the driver, which
//! records them once, in the query's `ops`.

use crate::analyze::VerifiedQuery;
use crate::bind::BoundQuery;
use crate::catalog::TableEntry;
use crate::cost::AccessPath;
use colstore::exec as colx;
use fabric_sim::MemoryHierarchy;
use fabric_types::{Chunk, FabricError, Result, Value};
use relmem::{EphemeralColumns, PackedBatch, RmConfig, RmStats};
use std::rc::Rc;

use super::buffer::{ChunkScratch, Scratchpad};
use super::operators::{earliest_core, ConsumePlan, Consumer, OpKind, OpNode};
use super::{FaultContext, MORSEL_ROWS};

/// Stage-0 executor for one verified plan on one access path. Lowers the
/// plan to its operator DAG at construction; [`Self::stages`] exposes the
/// stage partition (streamable operators fuse, `Merge` breaks).
pub struct QueryExecutor<'q> {
    verified: &'q VerifiedQuery<'q>,
    path: AccessPath,
    nodes: Vec<OpNode>,
}

impl<'q> QueryExecutor<'q> {
    /// Lower `verified` to its operator DAG for `path`.
    pub fn new(verified: &'q VerifiedQuery<'q>, path: AccessPath) -> Self {
        let bound = verified.bound();
        let mut nodes = vec![OpNode::new(OpKind::Scan(path))];
        if !bound.preds.is_empty() {
            nodes.push(OpNode::new(OpKind::Filter));
        }
        nodes.push(OpNode::new(if bound.has_aggregates() {
            OpKind::Aggregate
        } else {
            OpKind::Project
        }));
        nodes.push(OpNode::new(OpKind::Merge));
        QueryExecutor {
            verified,
            path,
            nodes,
        }
    }

    fn bound(&self) -> &'q BoundQuery {
        self.verified.bound()
    }

    /// The stage partition of the DAG: consecutive streamable operators
    /// fuse into one stage; each pipeline breaker is a stage of its own.
    pub fn stages(&self) -> Vec<Vec<&'static str>> {
        let mut stages = Vec::new();
        let mut fused = Vec::new();
        for n in &self.nodes {
            if n.kind.streamable() {
                fused.push(n.kind.name());
            } else {
                if !fused.is_empty() {
                    stages.push(std::mem::take(&mut fused));
                }
                stages.push(vec![n.kind.name()]);
            }
        }
        if !fused.is_empty() {
            stages.push(fused);
        }
        stages
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

    /// Credit one fused kernel pass (`rows_in` scanned, `rows_out`
    /// surviving the filter) to every stage-0 node it flowed through.
    fn note_scan(&mut self, rows_in: u64, rows_out: u64) {
        for node in &mut self.nodes {
            match node.kind {
                OpKind::Scan(_) => node.stats.record(rows_in, rows_in),
                OpKind::Filter => node.stats.record(rows_in, rows_out),
                OpKind::Project | OpKind::Aggregate => node.stats.record(rows_out, rows_out),
                OpKind::Merge => {} // stage 1: the driver records it
            }
        }
    }

    /// The accumulated per-operator actuals of stage 0, in DAG order,
    /// for nodes that ran (merge is driver-owned and never appears).
    /// Carried out through `run_scan` so `finish_output` can attribute
    /// the scan phase's cycles and bytes to individual operators.
    pub(crate) fn op_actuals(&self) -> Vec<(&'static str, fabric_sim::OpStats)> {
        self.nodes
            .iter()
            .filter(|n| n.stats.invocations > 0)
            .map(|n| (n.kind.name(), n.stats))
            .collect()
    }

    /// Run stage 0 on a software path (ROW / COL), returning the
    /// per-morsel partials for the driver's merge stage.
    pub(crate) fn run_stage0(
        &mut self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Vec<Consumer<'q>>> {
        match self.path {
            AccessPath::Col => self.run_col(mem, entry, scratch),
            _ => self.run_row(mem, entry, scratch),
        }
    }

    /// ROW stage 0: fused vectorized scan→filter→consume per morsel
    /// ([`rowstore::scan_range_chunks`]) — no per-operator `next()`
    /// charge, no mispredict charge on rejected rows, one chunk scratch
    /// recycled from the scratchpad across every morsel.
    fn run_row(
        &mut self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Vec<Consumer<'q>>> {
        let bound = self.bound();
        let plan = self.consume_plan()?;
        let row_cycles = Consumer::row_cycles(&plan, &mem.costs());
        let total = entry.rows.len();
        mem.fork_clocks();
        let (cref, mut chunk) = scratch.take_chunk();
        let mut partials: Vec<Consumer<'q>> = Vec::with_capacity(total / MORSEL_ROWS + 1);
        let mut start = 0usize;
        let res = loop {
            let end = (start + MORSEL_ROWS).min(total);
            mem.set_active_core(earliest_core(mem));
            let mut consumer = next_partial(&plan, &partials);
            let ChunkScratch { scan, eval } = &mut chunk;
            let scanned = rowstore::scan_range_chunks(
                mem,
                &entry.rows,
                &bound.touched,
                &bound.preds,
                start,
                end,
                row_cycles,
                scan,
                |chunk, rows| consumer.consume(chunk, rows, eval),
            );
            match scanned {
                Ok(counts) => self.note_scan(counts.rows_in, counts.rows_out),
                Err(e) => break Err(e),
            }
            partials.push(consumer);
            start = end;
            if start >= total {
                break Ok(());
            }
        };
        scratch.put_chunk(cref, chunk);
        mem.join_clocks();
        mem.set_active_core(0);
        res.map(|()| partials)
    }

    /// COL stage 0: column-at-a-time selection into pooled selection
    /// vectors (ping-ponged between candidate passes), then a fused
    /// lockstep reconstruction that keeps the survivor list
    /// register-resident instead of re-reading it from its backing store.
    fn run_col(
        &mut self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Vec<Consumer<'q>>> {
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

        let total = table.len();
        mem.fork_clocks();
        let (aref, mut sv) = scratch.take_sel();
        let (bref, mut sv_next) = scratch.take_sel();
        let (cref, mut chunk) = scratch.take_chunk();
        let mut partials: Vec<Consumer<'q>> = Vec::with_capacity(total / MORSEL_ROWS + 1);
        let mut start = 0usize;
        let res = loop {
            let end = (start + MORSEL_ROWS).min(total);
            mem.set_active_core(earliest_core(mem));
            let mut consumer = next_partial(&plan, &partials);
            let ChunkScratch { scan, eval } = &mut chunk;
            let consume = |chunk: &Chunk<'_>, rows: &[u32]| consumer.consume(chunk, rows, eval);
            let cols = &bound.touched;
            let streamed = match by_col.split_first() {
                None => colx::lockstep_chunks_range(
                    mem, table, cols, start, end, row_cycles, scan, consume,
                )
                .map(|()| (end - start) as u64),
                Some(((c0, preds0), rest)) => (|| {
                    colx::scan_filter_conj_range_into(
                        mem, table, *c0, preds0, start, end, &mut sv,
                    )?;
                    for (c, preds) in rest {
                        colx::scan_filter_cand_range_into(
                            mem,
                            table,
                            *c,
                            preds,
                            &sv,
                            start,
                            end,
                            &mut sv_next,
                        )?;
                        std::mem::swap(&mut sv, &mut sv_next);
                    }
                    colx::lockstep_chunks_fused(mem, table, cols, &sv, row_cycles, scan, consume)?;
                    Ok(sv.len() as u64)
                })(),
            };
            match streamed {
                Ok(kept) => self.note_scan((end - start) as u64, kept),
                Err(e) => break Err(e),
            }
            partials.push(consumer);
            start = end;
            if start >= total {
                break Ok(());
            }
        };
        scratch.put_sel(aref, sv);
        scratch.put_sel(bref, sv_next);
        scratch.put_chunk(cref, chunk);
        mem.join_clocks();
        mem.set_active_core(0);
        res.map(|()| partials)
    }

    /// RM stage 0: consume delivered batches with a branch-free
    /// predicate (every conjunct charged and evaluated; rejection is a
    /// data dependency, not a mispredicted branch), rolling partials over
    /// at the same [`MORSEL_ROWS`] boundaries as the software paths.
    pub(crate) fn run_stage0_rm(
        &mut self,
        mem: &mut MemoryHierarchy,
        scratch: &mut Scratchpad,
    ) -> Result<(Vec<Consumer<'q>>, RmStats)> {
        let (partials, stats) = self.run_rm(mem, scratch, |eph, mem| Ok(eph.next_batch(mem)));
        Ok((partials?, stats))
    }

    /// The RM stage 0 of [`Self::run_stage0_rm`], but every delivery runs
    /// under `ctx`'s fault plan via
    /// [`EphemeralColumns::next_batch_resilient`]. Always returns the
    /// device stats — on error they carry the injected fault counts of
    /// the failed attempt into the degraded output.
    pub(crate) fn run_stage0_rm_resilient(
        &mut self,
        mem: &mut MemoryHierarchy,
        scratch: &mut Scratchpad,
        ctx: &mut FaultContext,
    ) -> (Result<Vec<Consumer<'q>>>, RmStats) {
        self.run_rm(mem, scratch, |eph, mem| {
            eph.next_batch_resilient(mem, &mut ctx.plan, &ctx.policy)
        })
    }

    /// Both RM variants: configure the device, pull batches with
    /// `next_batch` and consume them ([`PackedBatch::consume_chunks`]).
    /// Error exits re-join the clocks and credit the batches consumed so
    /// far, so the caller's accounting stays aligned.
    fn run_rm(
        &mut self,
        mem: &mut MemoryHierarchy,
        scratch: &mut Scratchpad,
        mut next_batch: impl FnMut(
            &mut EphemeralColumns,
            &mut MemoryHierarchy,
        ) -> Result<Option<PackedBatch>>,
    ) -> (Result<Vec<Consumer<'q>>>, RmStats) {
        let bound = self.bound();
        let costs = mem.costs();
        let plan = match self.consume_plan() {
            Ok(t) => t,
            Err(e) => return (Err(e), RmStats::default()),
        };
        // The geometry was admitted by the analyzer; configuration cannot
        // fail.
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
        let row_cycles = Consumer::row_cycles(&plan, &costs) + costs.vector_elem;
        let mut consumed = 0usize;
        let (cref, mut chunk) = scratch.take_chunk();
        let res = loop {
            mem.set_active_core(earliest_core(mem));
            let b = match next_batch(&mut eph, mem) {
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
                    let ChunkScratch { scan, eval } = &mut chunk;
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
                Ok(kept) => self.note_scan(b.len() as u64, kept),
                Err(e) => break Err(e),
            }
        };
        partials.push(current);
        scratch.put_chunk(cref, chunk);
        mem.join_clocks();
        mem.set_active_core(0);
        (res.map(|()| partials), eph.stats())
    }
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
    fn dag_shape_and_stage_partition_follow_the_plan() {
        let (_mem, c) = setup();
        let entry = c.get("t").unwrap();

        let bound = bind(&c, &parse("SELECT id FROM t WHERE id < 5").unwrap()).unwrap();
        let v = analyze(entry, &bound, &RmConfig::prototype()).unwrap();
        let ex = QueryExecutor::new(&v, AccessPath::Row);
        assert_eq!(
            ex.stages(),
            vec![vec!["scan_row", "filter", "project"], vec!["merge"]],
            "streamable ops fuse into stage 0; merge breaks"
        );

        let bound = bind(&c, &parse("SELECT sum(qty) FROM t").unwrap()).unwrap();
        let v = analyze(entry, &bound, &RmConfig::prototype()).unwrap();
        let ex = QueryExecutor::new(&v, AccessPath::Rm);
        assert_eq!(
            ex.stages(),
            vec![vec!["scan_rm", "aggregate"], vec!["merge"]]
        );
    }

    #[test]
    fn stage0_records_per_operator_actuals() {
        let (mut mem, c) = setup();
        let entry = c.get("t").unwrap();
        let bound = bind(&c, &parse("SELECT id FROM t WHERE id < 5").unwrap()).unwrap();
        let v = analyze(entry, &bound, &RmConfig::prototype()).unwrap();
        let mut scratch = Scratchpad::new();
        scratch.begin_query();
        let mut ex = QueryExecutor::new(&v, AccessPath::Col);
        let partials = ex.run_stage0(&mut mem, entry, &mut scratch).unwrap();
        assert_eq!(partials.len(), 1, "50 rows fit one morsel");
        let stats = |op: &str| {
            ex.op_actuals()
                .into_iter()
                .find(|(name, _)| *name == op)
                .map(|(_, s)| (s.invocations, s.rows_in, s.rows_out))
        };
        assert_eq!(stats("scan_col"), Some((1, 50, 50)));
        assert_eq!(stats("filter"), Some((1, 50, 5)));
        assert_eq!(stats("project"), Some((1, 5, 5)));
        assert_eq!(stats("merge"), None, "driver owns merge");
        // The selection vectors and the chunk scratch went back to the
        // pool for the next query.
        assert_eq!(scratch.allocs(), 3);
        scratch.begin_query();
        let mut ex = QueryExecutor::new(&v, AccessPath::Col);
        ex.run_stage0(&mut mem, entry, &mut scratch).unwrap();
        assert_eq!(scratch.allocs(), 3, "no new allocations on a warm pad");
        assert_eq!(scratch.reuses(), 3);
    }
}
