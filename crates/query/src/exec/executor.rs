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
//! through, and [`QueryExecutor::record_metrics`] exports them as
//! `query.op.<name>.{invocations,rows_in,rows_out}` counters.

use crate::analyze::VerifiedQuery;
use crate::bind::BoundQuery;
use crate::catalog::TableEntry;
use crate::cost::AccessPath;
use colstore::exec as colx;
use fabric_sim::{MemoryHierarchy, MetricsRegistry};
use fabric_types::{FabricError, Result, Value};
use relmem::{EphemeralColumns, PackedBatch, RmConfig, RmStats};

use super::buffer::Scratchpad;
use super::operators::{earliest_core, Consumer, OpKind, OpNode};
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
    /// consumes into a [`Consumer::fresh`] copy.
    fn consumer(&self) -> Result<Consumer<'q>> {
        Consumer::new(self.bound(), &self.verified.output_types()?)
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

    /// Export the accumulated per-operator actuals as `query.op.*`
    /// counters (merge is recorded by the driver, which owns that stage).
    pub(crate) fn record_metrics(&self, reg: &mut MetricsRegistry) {
        for n in &self.nodes {
            if n.stats.invocations > 0 {
                n.stats.record_into(reg, "query.op", n.kind.name());
            }
        }
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
    /// ([`rowstore::scan_range_vectorized`]) — no per-operator
    /// `volcano_next`, no mispredict charge on rejected rows, one decode
    /// buffer recycled from the scratchpad across every morsel.
    fn run_row(
        &mut self,
        mem: &mut MemoryHierarchy,
        entry: &TableEntry,
        scratch: &mut Scratchpad,
    ) -> Result<Vec<Consumer<'q>>> {
        let bound = self.bound();
        let template = self.consumer()?;
        let row_cycles = template.row_cycles(&mem.costs());
        let total = entry.rows.len();
        mem.fork_clocks();
        let (tref, mut tuple) = scratch.take_vals();
        let mut partials: Vec<Consumer<'q>> = Vec::with_capacity(total / MORSEL_ROWS + 1);
        let mut start = 0usize;
        loop {
            let end = (start + MORSEL_ROWS).min(total);
            mem.set_active_core(earliest_core(mem));
            let mut consumer = template.fresh();
            let scanned = rowstore::scan_range_vectorized(
                mem,
                &entry.rows,
                &bound.touched,
                &bound.preds,
                start,
                end,
                &mut tuple,
                |mem, vals| {
                    mem.cpu(row_cycles);
                    consumer.feed(vals)
                },
            );
            let counts = match scanned {
                Ok(c) => c,
                Err(e) => {
                    scratch.put_vals(tref, tuple);
                    mem.join_clocks();
                    mem.set_active_core(0);
                    return Err(e);
                }
            };
            self.note_scan(counts.rows_in, counts.rows_out);
            partials.push(consumer);
            start = end;
            if start >= total {
                break;
            }
        }
        scratch.put_vals(tref, tuple);
        mem.join_clocks();
        mem.set_active_core(0);
        Ok(partials)
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
        let template = self.consumer()?;
        let row_cycles = template.row_cycles(&mem.costs());

        // Column-at-a-time selection: group conjuncts by column once
        // (shared by every morsel), full scan for the first, candidate
        // passes after. Predicate slots are in range — the analyzer
        // checked them before this path was reachable.
        let by_col: Option<Vec<(usize, Vec<(fabric_types::CmpOp, Value)>)>> =
            if bound.preds.is_empty() {
                None
            } else {
                let mut groups: Vec<(usize, Vec<(fabric_types::CmpOp, Value)>)> = Vec::new();
                for (slot, op, v) in &bound.preds {
                    let col = bound.touched[*slot];
                    match groups.iter_mut().find(|(c, _)| *c == col) {
                        Some((_, list)) => list.push((*op, v.clone())),
                        None => groups.push((col, vec![(*op, v.clone())])),
                    }
                }
                Some(groups)
            };

        let total = table.len();
        mem.fork_clocks();
        let (aref, mut sv) = scratch.take_sel();
        let (bref, mut sv_next) = scratch.take_sel();
        let mut partials: Vec<Consumer<'q>> = Vec::with_capacity(total / MORSEL_ROWS + 1);
        // note_scan is deferred past the morsel loop: `self` can't be
        // borrowed inside it while `partials` holds `'q` consumers.
        let mut morsel_counts: Vec<(u64, u64)> = Vec::new();
        let mut start = 0usize;
        let res = (|| -> Result<()> {
            loop {
                let end = (start + MORSEL_ROWS).min(total);
                mem.set_active_core(earliest_core(mem));
                let mut consumer = template.fresh();
                let kept;
                match &by_col {
                    None => {
                        let mut fed = 0u64;
                        colx::for_each_lockstep_range(
                            mem,
                            table,
                            &bound.touched,
                            start,
                            end,
                            |mem, _, vals| {
                                fed += 1;
                                mem.cpu(row_cycles);
                                consumer.feed(vals)
                            },
                        )?;
                        kept = fed;
                    }
                    Some(groups) => {
                        let mut it = groups.iter();
                        let (c0, preds0) = it.next().ok_or_else(|| {
                            FabricError::Internal("empty predicate grouping".into())
                        })?;
                        colx::scan_filter_conj_range_into(
                            mem, table, *c0, preds0, start, end, &mut sv,
                        )?;
                        for (c, preds) in it {
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
                        colx::for_each_lockstep_fused(
                            mem,
                            table,
                            &bound.touched,
                            &sv,
                            |mem, _, vals| {
                                mem.cpu(row_cycles);
                                consumer.feed(vals)
                            },
                        )?;
                        kept = sv.len() as u64;
                    }
                }
                partials.push(consumer);
                morsel_counts.push(((end - start) as u64, kept));
                start = end;
                if start >= total {
                    return Ok(());
                }
            }
        })();
        scratch.put_sel(aref, sv);
        scratch.put_sel(bref, sv_next);
        mem.join_clocks();
        mem.set_active_core(0);
        res?;
        for (rows_in, rows_out) in morsel_counts {
            self.note_scan(rows_in, rows_out);
        }
        Ok(partials)
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
    /// `next_batch` and consume them. Error exits re-join the clocks and
    /// credit the batches consumed so far, so the caller's accounting
    /// stays aligned.
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
        let template = match self.consumer() {
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
        let mut current = template.fresh();
        let row_cycles = template.row_cycles(&costs) + costs.vector_elem;
        let pred_cycles = costs.value_op * bound.preds.len() as u64;
        let mut consumed = 0usize;
        let (vref, mut vals) = scratch.take_vals();
        let mut batch_counts: Vec<(u64, u64)> = Vec::new();
        let res = (|| -> Result<()> {
            loop {
                mem.set_active_core(earliest_core(mem));
                let Some(b) = next_batch(&mut eph, mem)? else {
                    return Ok(());
                };
                let mut kept = 0u64;
                for r in 0..b.len() {
                    if consumed > 0 && consumed % MORSEL_ROWS == 0 {
                        partials.push(std::mem::replace(&mut current, template.fresh()));
                    }
                    consumed += 1;
                    mem.cpu(pred_cycles);
                    b.decode_row_into(r, &mut vals);
                    let mut pass = true;
                    for (slot, op, lit) in &bound.preds {
                        pass &= op.matches(vals[*slot].compare(lit)?);
                    }
                    if !pass {
                        continue;
                    }
                    kept += 1;
                    mem.cpu(row_cycles);
                    current.feed(&vals)?;
                }
                batch_counts.push((b.len() as u64, kept));
            }
        })();
        partials.push(current);
        scratch.put_vals(vref, vals);
        mem.join_clocks();
        mem.set_active_core(0);
        for (rows_in, rows_out) in batch_counts {
            self.note_scan(rows_in, rows_out);
        }
        (res.map(|()| partials), eph.stats())
    }
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
        ex.record_metrics(mem.metrics_mut());
        let m = mem.metrics();
        assert_eq!(m.counter("query.op.scan_col.rows_in"), 50);
        assert_eq!(m.counter("query.op.scan_col.invocations"), 1);
        assert_eq!(m.counter("query.op.filter.rows_in"), 50);
        assert_eq!(m.counter("query.op.filter.rows_out"), 5);
        assert_eq!(m.counter("query.op.project.rows_out"), 5);
        assert_eq!(
            m.counter("query.op.merge.invocations"),
            0,
            "driver owns merge"
        );
        // The selection vectors went back to the pool for the next query.
        assert_eq!(scratch.allocs(), 2);
        scratch.begin_query();
        let mut ex = QueryExecutor::new(&v, AccessPath::Col);
        ex.run_stage0(&mut mem, entry, &mut scratch).unwrap();
        assert_eq!(scratch.allocs(), 2, "no new allocations on a warm pad");
        assert_eq!(scratch.reuses(), 2);
    }
}
