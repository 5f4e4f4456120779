//! Column-at-a-time execution primitives.
//!
//! The building blocks of the COL baseline:
//!
//! * [`scan_filter_conj_range_into`] — vectorized predicate scan of a
//!   column range producing a selection vector (one perfectly sequential
//!   stream; the prefetcher loves it), and
//!   [`scan_filter_cand_range_into`], the same scan intersected with an
//!   earlier pass's selection vector;
//! * [`lockstep_chunks_range`] and [`lockstep_chunks_fused`] — stream
//!   several columns in lockstep batches. Each batch switches between `p`
//!   column arrays: with more than the prefetcher's stream capacity (4 on
//!   the A53) every switch retrains, which is the mechanical source of the
//!   paper's four-column crossover;
//! * [`sum_expr`] — aggregate an expression over columns.
//!
//! Values leave the lockstep pass a *chunk* at a time, as typed column
//! views over the arrays' own bytes; [`for_each_lockstep_range`] is the
//! same kernel with a decoded tuple per row, for callers that want
//! `Value`s. Predicates compare through the same views.

use crate::table::{ColRef, ColTable};
use fabric_sim::MemoryHierarchy;
use fabric_types::{
    Chunk, ChunkError, CmpOp, ColumnId, ColumnSpec, ColumnView, Expr, F64Regs, FabricError, Result,
    RowCharge, ScanScratch, Value,
};

/// Rows per vectorized batch (a classic vector size: 1024 values).
pub use fabric_types::BATCH_ROWS;

/// Cycles for one comparison against a value of this column type
/// (floating-point compares run on the FPU).
fn cmp_cycles(costs: &fabric_sim::hierarchy::OpCosts, ty: fabric_types::ColumnType) -> u64 {
    match ty {
        fabric_types::ColumnType::F32 | fabric_types::ColumnType::F64 => costs.f64_op,
        _ => costs.value_op,
    }
}

/// Verify that every position in a candidate/selection vector addresses a
/// row of `t`. A stale or hand-built vector would otherwise surface as an
/// arena panic deep inside the access loops; this returns the structured
/// error up front instead.
fn check_selection(t: &ColTable, sel: &[u32]) -> Result<()> {
    match sel.iter().max() {
        Some(&max) if (max as usize) >= t.len() => Err(FabricError::RowIndexOutOfRange {
            index: max as usize,
            len: t.len(),
        }),
        _ => Ok(()),
    }
}

/// Vectorized scan of raw rows `[start, end)` of one column — the whole
/// column, or one morsel of it: `sel` (cleared first, so a caller can
/// recycle one buffer) receives the absolute ids of the rows satisfying
/// every conjunct of `preds`, so per-morsel selection vectors concatenate
/// in morsel order to the full-scan result. `vector_setup` is charged
/// once per call, not per batch.
pub fn scan_filter_conj_range_into(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    col: ColumnId,
    preds: &[(CmpOp, Value)],
    start: usize,
    end: usize,
    sel: &mut Vec<u32>,
) -> Result<()> {
    sel.clear();
    let c = t.col(col)?;
    let w = c.ty.width();
    let costs = mem.costs();
    let end = end.min(t.len());
    let mut pass: Vec<bool> = Vec::with_capacity(BATCH_ROWS);
    let mut row = start.min(end);
    if row < end {
        mem.cpu(costs.vector_setup);
    }
    while row < end {
        let n = BATCH_ROWS.min(end - row);
        mem.touch_read(c.at(row), n * w);
        mem.cpu(n as u64 * (costs.vector_elem + cmp_cycles(&costs, c.ty) * preds.len() as u64));
        let values = ColumnView::new(c.ty, mem.bytes(c.at(row), n * w), w);
        pass.clear();
        pass.resize(n, true);
        for (op, value) in preds {
            // A conjunct is only ever evaluated on rows the earlier ones
            // kept — with none left, not at all (it may not even compare).
            if pass.contains(&true) {
                values.select(*op, value, &mut pass)?;
            }
        }
        let before = sel.len();
        let kept = pass.iter().enumerate().filter(|(_, &p)| p);
        sel.extend(kept.map(|(i, _)| (row + i) as u32));
        if sel.len() > before {
            mem.touch_write(t.sv_out_addr(before), (sel.len() - before) * 4);
        }
        row += n;
    }
    Ok(())
}

/// Column-at-a-time candidate pass: the select operator of a classic
/// column engine over raw rows `[start, end)`. The *entire* range is
/// streamed and every row's predicate evaluated (that is the
/// column-at-a-time contract — the operator has no knowledge of which rows
/// earlier passes kept); the match set is then intersected with the
/// incoming candidate list into `out` (cleared first). `candidates` must
/// be ascending and inside the range (the morsel-driven executor hands
/// each morsel its own candidates).
#[allow(clippy::too_many_arguments)]
pub fn scan_filter_cand_range_into(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    col: ColumnId,
    preds: &[(CmpOp, Value)],
    candidates: &[u32],
    start: usize,
    end: usize,
    out: &mut Vec<u32>,
) -> Result<()> {
    out.clear();
    let c = t.col(col)?;
    check_selection(t, candidates)?;
    let w = c.ty.width();
    let costs = mem.costs();
    let end = end.min(t.len());
    out.reserve(candidates.len());
    let mut kept: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
    let mut ci = 0usize; // cursor into candidates
    let mut row = start.min(end);
    // Candidates outside the range would never be visited; reject instead
    // of silently dropping them.
    if let Some(&below) = candidates.first().filter(|&&p| (p as usize) < row) {
        return Err(FabricError::RowIndexOutOfRange {
            index: below as usize,
            len: row,
        });
    }
    if let Some(&past) = candidates.last().filter(|&&p| (p as usize) >= end) {
        return Err(FabricError::RowIndexOutOfRange {
            index: past as usize,
            len: end,
        });
    }
    if row < end {
        mem.cpu(costs.vector_setup);
    }
    while row < end {
        let n = BATCH_ROWS.min(end - row);
        // Full-column sequential read and full-width evaluation.
        mem.touch_read(c.at(row), n * w);
        mem.cpu(n as u64 * (costs.vector_elem + cmp_cycles(&costs, c.ty) * preds.len() as u64));
        // Candidate positions falling into this chunk (read back from the
        // materialized selection vector), then intersect.
        let ci0 = ci;
        while ci < candidates.len() && (candidates[ci] as usize) < row + n {
            ci += 1;
        }
        if ci > ci0 {
            mem.touch_read(t.sv_in_addr(ci0), (ci - ci0) * 4);
            mem.cpu((ci - ci0) as u64 * costs.value_op);
        }
        let values = ColumnView::new(c.ty, mem.bytes(c.at(row), n * w), w);
        'cands: for &pos in &candidates[ci0..ci] {
            for (op, value) in preds {
                if !op.matches(values.compare(pos as usize - row, value)?) {
                    continue 'cands;
                }
            }
            kept.push(pos);
        }
        if !kept.is_empty() {
            mem.touch_write(t.sv_out_addr(out.len()), kept.len() * 4);
            out.append(&mut kept);
        }
        row += n;
    }
    Ok(())
}

/// Stream `cols` in lockstep over the dense raw-row range `[start, end)`
/// (clamped to the table) — one morsel of an unselective scan — invoking
/// `f` with `(row_id, values)` for every row. No tuple-reconstruction cost
/// is charged; the caller charges its own compute.
pub fn for_each_lockstep_range<F>(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    start: usize,
    end: usize,
    f: F,
) -> Result<()>
where
    F: FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
{
    lockstep_rows(mem, t, cols, RowSet::range(t, start, end), f)
}

/// Lockstep pass over the dense raw-row range `[start, end)` a chunk at a
/// time: each chunk of at most [`BATCH_ROWS`] rows is handed to `consume`
/// as typed column views (stride = value width) over the column arrays
/// plus the chunk's row ids, and each row costs `pass_cycles` of
/// consumption on top of the pass's own charges.
///
/// `consume` is host-only and runs before its chunk's rows are charged;
/// the simulated clock cannot tell (DESIGN.md §21). When it fails on a row,
/// exactly the rows up to that one are charged.
#[allow(clippy::too_many_arguments)]
pub fn lockstep_chunks_range(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    start: usize,
    end: usize,
    pass_cycles: u64,
    scratch: &mut ScanScratch,
    consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
) -> Result<()> {
    let rows = RowSet::range(t, start, end);
    lockstep_chunks(mem, t, cols, rows, pass_cycles, scratch, consume)
}

/// Chunk-at-a-time lockstep pass over an explicit selection vector that is
/// still *register-resident*: the caller just produced `sel` in the same
/// fused stage (e.g. the staged executor's filter feeding its project
/// within one morsel), so the positions never round-tripped through the
/// materialized selection-vector arena and reading them charges nothing.
/// Column accesses are charged as in [`lockstep_chunks_range`], which
/// describes the chunks.
pub fn lockstep_chunks_fused(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    sel: &[u32],
    pass_cycles: u64,
    scratch: &mut ScanScratch,
    consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
) -> Result<()> {
    let rows = RowSet::Sel(sel);
    lockstep_chunks(mem, t, cols, rows, pass_cycles, scratch, consume)
}

/// [`lockstep_impl`] for a chunk consumer whose every row costs
/// `pass_cycles`.
#[allow(clippy::too_many_arguments)]
fn lockstep_chunks(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    rows: RowSet<'_>,
    pass_cycles: u64,
    scratch: &mut ScanScratch,
    consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
) -> Result<()> {
    let charge = RowCharge::<NoCall>::Cycles(pass_cycles);
    lockstep_impl(mem, t, cols, rows, scratch, consume, charge)
}

/// The row callback type of a [`RowCharge::Cycles`] pass (never called).
type NoCall = fn(&mut MemoryHierarchy, usize) -> Result<()>;

/// Which rows a lockstep pass visits: a dense raw-row range (unselective
/// scans and per-morsel slices of them) or an explicit selection vector.
enum RowSet<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

impl RowSet<'_> {
    /// `[start, end)` clamped to `t`.
    fn range(t: &ColTable, start: usize, end: usize) -> Self {
        let end = end.min(t.len());
        RowSet::Range(start.min(end), end)
    }
}

/// Sum `expr` (over slots matching `cols` order) across every row.
pub fn sum_expr(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    expr: &Expr,
) -> Result<f64> {
    let per_row = mem.costs().value_op * (expr.ops() + 1);
    let program = expr.compile_f64();
    let mut regs = F64Regs::default();
    let mut total = 0.0;
    let consume = |chunk: &Chunk<'_>, rows: &[u32]| {
        let values = program.eval_chunk(chunk, rows, &mut regs)?;
        (0..rows.len()).for_each(|k| total += values.at(k));
        Ok(())
    };
    let scratch = &mut ScanScratch::default();
    lockstep_chunks_range(mem, t, cols, 0, t.len(), per_row, scratch, consume)?;
    Ok(total)
}

/// [`lockstep_impl`] a row at a time: every row is decoded into one tuple
/// buffer and handed to `on_row(mem, row id, values)` where the kernel
/// charges it.
fn lockstep_rows(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    rows: RowSet<'_>,
    mut on_row: impl FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
) -> Result<()> {
    let refs: Vec<ColRef> = cols.iter().map(|&c| t.col(c)).collect::<Result<_>>()?;
    let mut row_buf: Vec<Value> = Vec::with_capacity(cols.len());
    let decoded = |mem: &mut MemoryHierarchy, row_id| {
        Value::decode_row_into(
            &mut row_buf,
            refs.iter()
                .map(|c| (c.ty, mem.bytes(c.at(row_id), c.ty.width()))),
        );
        on_row(mem, row_id, &row_buf)
    };
    let scratch = &mut ScanScratch::default();
    let consume = |_: &Chunk<'_>, _: &[u32]| Ok(());
    let charge = RowCharge::Call(decoded);
    lockstep_impl(mem, t, cols, rows, scratch, consume, charge)
}

/// The one lockstep kernel.
///
/// Per batch of up to [`BATCH_ROWS`] positions: (i) `consume`, host-only,
/// over typed views of the column arrays and the batch's positions; (ii)
/// the charge sequence — per row each column array in turn (a stream
/// switch per column, which is what exposes the prefetcher's stream
/// limit), one `vector_elem` per value and the row's `charge` — which
/// stops after the row `consume` failed on, if it did. `vector_setup` is charged once per invocation.
///
/// Only a row that starts a new line in some column reaches the
/// hierarchy's line path; under [`RowCharge::Cycles`] the rows from one
/// such row to the next are charged their cycles in one call.
#[allow(clippy::too_many_arguments)]
fn lockstep_impl(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    rows: RowSet<'_>,
    scratch: &mut ScanScratch,
    mut consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
    mut charge: RowCharge<impl FnMut(&mut MemoryHierarchy, usize) -> Result<()>>,
) -> Result<()> {
    let costs = mem.costs();
    let refs: Vec<ColRef> = cols.iter().map(|&c| t.col(c)).collect::<Result<_>>()?;
    let (range_start, total_rows, sel) = match rows {
        RowSet::Range(start, end) => {
            debug_assert!(start <= end && end <= t.len());
            (start, end - start, None)
        }
        RowSet::Sel(s) => {
            check_selection(t, s)?;
            (0, s.len(), Some(s))
        }
    };
    let line = mem.config().line_size as u64;
    // Per-column last line touched: memory is charged once per new line,
    // so the hierarchy sees one interleaved line stream per column — the
    // access pattern of tuple-at-a-time reconstruction from `p` arrays.
    let mut last_line: Vec<u64> = vec![u64::MAX; cols.len()];
    // Per row: one `vector_elem` per value.
    let row_cycles = costs.vector_elem * cols.len() as u64;
    let mut gather: Vec<(u64, usize)> = Vec::with_capacity(cols.len());
    // One byte region spanning the arrays; rows are table positions.
    let lo = refs.iter().map(|c| c.addr).min().unwrap_or(0);
    let hi = refs.iter().map(|c| c.at(t.len())).max().unwrap_or(0);
    let ScanScratch { specs, rows: dense } = scratch;
    specs.clear();
    specs.extend(refs.iter().map(|c| ColumnSpec {
        ty: c.ty,
        offset: (c.addr - lo) as usize,
        stride: c.ty.width(),
    }));

    let mut done = 0usize;
    if total_rows > 0 {
        mem.cpu(costs.vector_setup);
    }
    while done < total_rows {
        let n = BATCH_ROWS.min(total_rows - done);
        let positions = match sel {
            Some(s) => &s[done..done + n],
            None => {
                dense.select_range(range_start + done, n);
                dense.sel()
            }
        };
        let chunk = Chunk::new(mem.bytes(lo, (hi - lo) as usize), specs);
        let (reached, failure) = match consume(&chunk, positions) {
            Ok(()) => (n, None),
            Err(ChunkError { at, error }) => (at + 1, Some(error)),
        };
        // Rows charged since the last line access, not yet reported.
        let mut unbilled = 0u64;
        for &pos in &positions[..reached] {
            let row_id = pos as usize;
            // The p column loads of one tuple are independent: issue the
            // new lines together and overlap their misses.
            gather.clear();
            for (j, c) in refs.iter().enumerate() {
                let addr = c.at(row_id);
                let la = addr & !(line - 1);
                if la != last_line[j] {
                    gather.push((addr, c.ty.width()));
                    last_line[j] = la;
                }
            }
            match &mut charge {
                RowCharge::Cycles(pass_cycles) => {
                    if !gather.is_empty() {
                        if unbilled > 0 {
                            mem.cpu(unbilled * (row_cycles + *pass_cycles));
                        }
                        unbilled = 0;
                        mem.touch_read_gather(&gather);
                    }
                    unbilled += 1;
                }
                RowCharge::Call(on_row) => {
                    if !gather.is_empty() {
                        mem.touch_read_gather(&gather);
                    }
                    mem.cpu(row_cycles);
                    on_row(mem, row_id)?;
                }
            }
        }
        if let RowCharge::Cycles(pass_cycles) = charge {
            if unbilled > 0 {
                mem.cpu(unbilled * (row_cycles + pass_cycles));
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        done += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};

    /// 3000 rows: a = i, b = i % 100, c = i as f64 / 2.
    fn fixture() -> (MemoryHierarchy, ColTable) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[
            ("a", ColumnType::I32),
            ("b", ColumnType::I32),
            ("c", ColumnType::F64),
        ]);
        let mut t = ColTable::create(&mut mem, schema, 4096).unwrap();
        for i in 0..3000i32 {
            t.load(
                &mut mem,
                &[
                    Value::I32(i),
                    Value::I32(i % 100),
                    Value::F64(i as f64 / 2.0),
                ],
            )
            .unwrap();
        }
        (mem, t)
    }

    /// Selection vector of `preds` over rows `[start, end)` of `col`.
    fn scan(
        mem: &mut MemoryHierarchy,
        t: &ColTable,
        col: ColumnId,
        preds: &[(CmpOp, Value)],
        (start, end): (usize, usize),
    ) -> Vec<u32> {
        let mut sel = Vec::new();
        scan_filter_conj_range_into(mem, t, col, preds, start, end, &mut sel).unwrap();
        sel
    }

    /// [`scan`] over the whole column, one conjunct.
    fn scan_all(
        mem: &mut MemoryHierarchy,
        t: &ColTable,
        col: ColumnId,
        op: CmpOp,
        v: i32,
    ) -> Vec<u32> {
        scan(mem, t, col, &[(op, Value::I32(v))], (0, t.len()))
    }

    /// The candidate-intersection scan over rows `[start, end)`.
    fn scan_cand(
        mem: &mut MemoryHierarchy,
        t: &ColTable,
        col: ColumnId,
        preds: &[(CmpOp, Value)],
        candidates: &[u32],
        (start, end): (usize, usize),
    ) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        scan_filter_cand_range_into(mem, t, col, preds, candidates, start, end, &mut out)?;
        Ok(out)
    }

    #[test]
    fn scan_filter_selects_correct_rows() {
        let (mut mem, t) = fixture();
        let sel = scan_all(&mut mem, &t, 0, CmpOp::Lt, 10);
        assert_eq!(sel, (0..10).collect::<Vec<u32>>());
    }

    /// `(row, values)` of every row a fused lockstep pass of `cols` over
    /// `sel` hands its consumer.
    fn fused_rows(
        mem: &mut MemoryHierarchy,
        t: &ColTable,
        cols: &[ColumnId],
        sel: &[u32],
    ) -> Result<Vec<(usize, Vec<Value>)>> {
        let mut rows = Vec::new();
        let consume = |chunk: &Chunk<'_>, positions: &[u32]| {
            for &r in positions {
                let value = |c| chunk.col(c).unwrap().value(r as usize);
                rows.push((r as usize, (0..chunk.arity()).map(value).collect()));
            }
            Ok(())
        };
        let scratch = &mut ScanScratch::default();
        lockstep_chunks_fused(mem, t, cols, sel, 0, scratch, consume)?;
        Ok(rows)
    }

    #[test]
    fn lockstep_visits_all_rows_in_order() {
        let (mut mem, t) = fixture();
        let mut seen = Vec::new();
        for_each_lockstep_range(&mut mem, &t, &[0, 2], 0, t.len(), |_, row, vals| {
            assert_eq!(vals[0], Value::I32(row as i32));
            seen.push(row);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3000);
        assert_eq!(seen[2999], 2999);
    }

    #[test]
    fn lockstep_respects_selection_vector() {
        let (mut mem, t) = fixture();
        let sel = vec![5u32, 100, 2999];
        let rows = fused_rows(&mut mem, &t, &[0], &sel).unwrap();
        assert_eq!(
            rows,
            vec![
                (5, vec![Value::I32(5)]),
                (100, vec![Value::I32(100)]),
                (2999, vec![Value::I32(2999)])
            ]
        );
    }

    #[test]
    fn ranged_scans_concatenate_to_the_full_scan() {
        let (mut mem, t) = fixture();
        let preds = vec![(CmpOp::Lt, Value::I32(50))];
        let all = (0, t.len());
        let whole = scan(&mut mem, &t, 1, &preds, all);

        // Morsel-sized conj scans over [start, end) chunks, concatenated in
        // order, must equal the unsplit scan (absolute row ids).
        let mut pieced = Vec::new();
        let step = 257; // deliberately unaligned with BATCH_ROWS
        let mut start = 0;
        while start < t.len() {
            let end = (start + step).min(t.len());
            pieced.extend(scan(&mut mem, &t, 1, &preds, (start, end)));
            start = end;
        }
        assert_eq!(pieced, whole);

        // Same for the candidate-intersection scan: slice the candidate
        // vector per morsel and concatenate.
        let cand = scan_all(&mut mem, &t, 0, CmpOp::Lt, 1500);
        let whole_cand = scan_cand(&mut mem, &t, 1, &preds, &cand, all).unwrap();
        let mut pieced_cand = Vec::new();
        let mut start = 0;
        while start < t.len() {
            let end = (start + step).min(t.len());
            let lo = cand.partition_point(|&p| (p as usize) < start);
            let hi = cand.partition_point(|&p| (p as usize) < end);
            pieced_cand
                .extend(scan_cand(&mut mem, &t, 1, &preds, &cand[lo..hi], (start, end)).unwrap());
            start = end;
        }
        assert_eq!(pieced_cand, whole_cand);

        // Out-of-bounds end clamps; empty range yields nothing.
        let clamped = scan(&mut mem, &t, 1, &preds, (0, t.len() * 2));
        assert_eq!(clamped, whole);
        assert!(scan(&mut mem, &t, 1, &preds, (100, 100)).is_empty());
    }

    #[test]
    fn a_candidate_below_the_morsel_is_an_error_not_a_silent_drop() {
        let (mut mem, t) = fixture();
        let preds = [(CmpOp::Ge, Value::I32(0))];
        let err = scan_cand(&mut mem, &t, 1, &preds, &[3, 150], (100, 200)).unwrap_err();
        assert_eq!(err, FabricError::RowIndexOutOfRange { index: 3, len: 100 });
    }

    #[test]
    fn a_candidate_past_the_morsel_is_an_error_not_a_silent_drop() {
        let (mut mem, t) = fixture();
        let preds = [(CmpOp::Ge, Value::I32(0))];
        // Inside the table, so only the range check can catch it.
        let err = scan_cand(&mut mem, &t, 1, &preds, &[150, 200], (100, 200)).unwrap_err();
        assert_eq!(
            err,
            FabricError::RowIndexOutOfRange {
                index: 200,
                len: 200
            }
        );
        assert_eq!(
            scan_cand(&mut mem, &t, 1, &preds, &[150, 199], (100, 200)).unwrap(),
            vec![150, 199]
        );
    }

    #[test]
    fn ranged_lockstep_concatenates_to_the_full_pass() {
        let (mut mem, t) = fixture();
        let mut whole = Vec::new();
        for_each_lockstep_range(&mut mem, &t, &[0, 2], 0, t.len(), |_, row, vals| {
            whole.push((row, vals.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(whole.len(), t.len());

        let mut pieced = Vec::new();
        let step = 611;
        let mut start = 0;
        while start < t.len() {
            let end = (start + step).min(t.len());
            for_each_lockstep_range(&mut mem, &t, &[0, 2], start, end, |_, row, vals| {
                pieced.push((row, vals.to_vec()));
                Ok(())
            })
            .unwrap();
            start = end;
        }
        assert_eq!(pieced, whole);

        // Clamping and empty ranges.
        let mut n = 0usize;
        for_each_lockstep_range(&mut mem, &t, &[0], 2990, usize::MAX, |_, _, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 10);
        for_each_lockstep_range(&mut mem, &t, &[0], 5, 5, |_, _, _| {
            panic!("empty range must not emit")
        })
        .unwrap();
    }

    #[test]
    fn fused_lockstep_matches_output_and_skips_sv_reread() {
        let (mut mem, t) = fixture();
        let sel = scan_all(&mut mem, &t, 1, CmpOp::Lt, 3);
        let b0 = mem.stats();
        let rows = fused_rows(&mut mem, &t, &[0, 2], &sel).unwrap();
        let bytes = mem.stats().delta_since(&b0).bytes_read;
        let want: Vec<_> = (sel.iter().map(|&r| r as usize))
            .map(|r| (r, vec![Value::I32(r as i32), Value::F64(r as f64 / 2.0)]))
            .collect();
        assert_eq!(rows, want);
        // The selected rows come in runs of three that share a line of
        // either column: the pass reads one value of each column per run,
        // and nothing of the selection vector.
        assert_eq!(bytes, (sel.len() / 3) as u64 * (4 + 8));
    }

    #[test]
    fn sum_expr_computes_expression() {
        let (mut mem, t) = fixture();
        // sum(a * c) over every row: sum of i * i / 2.
        let expr = Expr::mul(Expr::col(0), Expr::col(1));
        let s = sum_expr(&mut mem, &t, &[0, 2], &expr).unwrap();
        assert_eq!(
            s,
            (0..3000).map(|i| i as f64 * (i as f64 / 2.0)).sum::<f64>()
        );
    }

    #[test]
    fn empty_selection_is_fine() {
        let (mut mem, t) = fixture();
        assert!(fused_rows(&mut mem, &t, &[0], &[]).unwrap().is_empty());
        let schema = Schema::from_pairs(&[("a", ColumnType::I32)]);
        let empty = ColTable::create(&mut mem, schema, 8).unwrap();
        let s = sum_expr(&mut mem, &empty, &[0], &Expr::col(0)).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn out_of_range_selection_is_structured_error_not_panic() {
        let (mut mem, t) = fixture();
        let bad = vec![0u32, 5000]; // table has 3000 rows
        let preds = [(CmpOp::Ge, Value::I32(0))];
        let err = scan_cand(&mut mem, &t, 0, &preds, &bad, (0, t.len())).unwrap_err();
        let want = FabricError::RowIndexOutOfRange {
            index: 5000,
            len: 3000,
        };
        assert_eq!(err, want);
        assert_eq!(fused_rows(&mut mem, &t, &[0], &bad).unwrap_err(), want);
    }

    #[test]
    fn full_scan_is_sequential_and_mostly_prefetched() {
        let (mut mem, t) = fixture();
        // Warm nothing; scan a full column. 3000 * 4 B = 188 lines.
        let before = mem.stats();
        scan_all(&mut mem, &t, 0, CmpOp::Ge, 0);
        let d = mem.stats().delta_since(&before);
        assert!(
            d.prefetch_hits > d.demand_misses,
            "column scan should be prefetch friendly: {d:?}"
        );
    }
}
