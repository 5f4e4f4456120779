//! Column-at-a-time execution primitives.
//!
//! The building blocks of the COL baseline:
//!
//! * [`scan_filter_conj_range_into`] — vectorized predicate scan of a
//!   column range producing a selection vector (one perfectly sequential
//!   stream; the prefetcher loves it), and
//!   [`scan_filter_cand_range_into`], the same scan intersected with an
//!   earlier pass's selection vector;
//! * [`refine_conj`] — re-check a candidate list against another column
//!   (data-dependent, irregular accesses; the prefetcher does not);
//! * [`for_each_lockstep`] — stream several columns in lockstep batches.
//!   Each batch switches between `p` column arrays: with more than the
//!   prefetcher's stream capacity (4 on the A53) every switch retrains,
//!   which is the mechanical source of the paper's four-column crossover;
//! * [`reconstruct`] — lockstep iteration plus per-value tuple-stitching
//!   cost, the "tuple reconstruction cost" of paper §II;
//! * [`sum_expr`] — aggregate an expression over columns.

use crate::table::ColTable;
use fabric_sim::MemoryHierarchy;
use fabric_types::{CmpOp, ColumnId, Expr, FabricError, Result, Value};

/// Rows per vectorized batch (a classic vector size: 1024 values).
pub const BATCH_ROWS: usize = 1024;

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

/// A batch of reconstructed tuples, row-major.
pub struct TupleBatch {
    pub arity: usize,
    pub values: Vec<Value>,
}

impl TupleBatch {
    pub fn rows(&self) -> usize {
        if self.arity == 0 {
            0
        } else {
            self.values.len() / self.arity
        }
    }

    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
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
    let mut kept: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
    let mut row = start.min(end);
    if row < end {
        mem.cpu(costs.vector_setup);
    }
    while row < end {
        let n = BATCH_ROWS.min(end - row);
        mem.touch_read(c.at(row), n * w);
        mem.cpu(n as u64 * (costs.vector_elem + cmp_cycles(&costs, c.ty) * preds.len() as u64));
        let bytes = mem.bytes(c.at(row), n * w);
        'rows: for i in 0..n {
            let v = Value::decode(c.ty, &bytes[i * w..(i + 1) * w]);
            for (op, value) in preds {
                if !op.matches(v.compare(value)?) {
                    continue 'rows;
                }
            }
            kept.push((row + i) as u32);
        }
        if !kept.is_empty() {
            mem.touch_write(t.sv_out_addr(sel.len()), kept.len() * 4);
            sel.append(&mut kept);
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
        let bytes = mem.bytes(c.at(row), n * w);
        'cands: for &pos in &candidates[ci0..ci] {
            let i = pos as usize - row;
            let v = Value::decode(c.ty, &bytes[i * w..(i + 1) * w]);
            for (op, value) in preds {
                if !op.matches(v.compare(value)?) {
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

/// Refine a candidate list against another column (several conjuncts on
/// it in one pass). The accesses follow the candidate positions —
/// ascending but data-dependent, so prefetching is unreliable, which is
/// why candidate-list scans degrade as more selection columns pile up.
pub fn refine_conj(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    col: ColumnId,
    preds: &[(CmpOp, Value)],
    candidates: &[u32],
) -> Result<Vec<u32>> {
    let c = t.col(col)?;
    check_selection(t, candidates)?;
    let w = c.ty.width();
    let costs = mem.costs();
    let mut out = Vec::with_capacity(candidates.len());
    let mut done = 0usize;
    for chunk in candidates.chunks(BATCH_ROWS) {
        mem.cpu(costs.vector_setup);
        mem.touch_read(t.sv_in_addr(done), chunk.len() * 4);
        let out0 = out.len();
        'cands: for &pos in chunk {
            mem.touch_read(c.at(pos as usize), w);
            mem.cpu(costs.vector_elem + costs.value_op * preds.len() as u64);
            let bytes = mem.bytes(c.at(pos as usize), w);
            let v = Value::decode(c.ty, bytes);
            for (op, value) in preds {
                if !op.matches(v.compare(value)?) {
                    continue 'cands;
                }
            }
            out.push(pos);
        }
        if out.len() > out0 {
            mem.touch_write(t.sv_out_addr(out0), (out.len() - out0) * 4);
        }
        done += chunk.len();
    }
    Ok(out)
}

/// Stream `cols` in lockstep over `sel` (or all rows), invoking `f` with
/// `(row_id, values)` for every row. No tuple-reconstruction cost is charged
/// — use this for aggregation-style consumption; the caller charges its own
/// compute (e.g. via [`sum_expr`]).
pub fn for_each_lockstep<F>(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    sel: Option<&[u32]>,
    f: F,
) -> Result<()>
where
    F: FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
{
    let rows = match sel {
        Some(s) => RowSet::Sel(s),
        None => RowSet::Range(0, t.len()),
    };
    lockstep_impl(mem, t, cols, rows, false, true, rows_only(f))
}

/// [`for_each_lockstep`] over an explicit selection vector that is still
/// *register-resident*: the caller just produced `sel` in the same fused
/// stage (e.g. the staged executor's filter feeding its project within one
/// morsel), so the positions never round-tripped through the materialized
/// selection-vector arena and re-reading them charges nothing. Column
/// accesses are charged exactly as in [`for_each_lockstep`].
pub fn for_each_lockstep_fused<F>(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    sel: &[u32],
    f: F,
) -> Result<()>
where
    F: FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
{
    lockstep_impl(mem, t, cols, RowSet::Sel(sel), false, false, rows_only(f))
}

/// [`for_each_lockstep`] over the dense raw-row range `[start, end)` —
/// one morsel of an unselective scan.
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
    let end = end.min(t.len());
    let rows = RowSet::Range(start.min(end), end);
    lockstep_impl(mem, t, cols, rows, false, true, rows_only(f))
}

/// Reconstruct row-major tuples batch by batch, charging the per-value
/// reconstruction cost, and hand each [`TupleBatch`] to `f`. This is the
/// materializing path whose cost grows with projectivity (paper §II:
/// *"increased tuple reconstruction cost for queries with high
/// projectivity"*).
pub fn reconstruct<F>(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    sel: Option<&[u32]>,
    mut f: F,
) -> Result<()>
where
    F: FnMut(&mut MemoryHierarchy, &TupleBatch) -> Result<()>,
{
    let arity = cols.len();
    let mut batch = TupleBatch {
        arity,
        values: Vec::new(),
    };
    let rows = match sel {
        Some(s) => RowSet::Sel(s),
        None => RowSet::Range(0, t.len()),
    };
    lockstep_impl(mem, t, cols, rows, true, true, |mem, ev| match ev {
        Event::Row(_, vals) => {
            batch.values.extend_from_slice(vals);
            Ok(())
        }
        Event::BatchEnd => {
            if !batch.values.is_empty() {
                f(mem, &batch)?;
                batch.values.clear();
            }
            Ok(())
        }
    })
}

/// Events delivered by [`lockstep_impl`].
enum Event<'a> {
    Row(usize, &'a [Value]),
    BatchEnd,
}

/// The per-row callback of the `for_each_lockstep*` entry points as a
/// [`lockstep_impl`] event handler: batch boundaries are of no interest.
fn rows_only<F>(mut f: F) -> impl for<'a> FnMut(&mut MemoryHierarchy, Event<'a>) -> Result<()>
where
    F: FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
{
    move |mem, ev| match ev {
        Event::Row(row, vals) => f(mem, row, vals),
        Event::BatchEnd => Ok(()),
    }
}

/// Which rows a lockstep pass visits: a dense raw-row range (unselective
/// scans and per-morsel slices of them) or an explicit selection vector.
enum RowSet<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

/// Sum `expr` (over slots matching `cols` order) across `sel` (or all rows).
pub fn sum_expr(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    expr: &Expr,
    sel: Option<&[u32]>,
) -> Result<f64> {
    let ops = expr.ops();
    let mut total = 0.0;
    let costs = mem.costs();
    for_each_lockstep(mem, t, cols, sel, |mem, _, vals| {
        mem.cpu(costs.value_op * (ops + 1));
        total += expr.eval_f64(vals)?;
        Ok(())
    })?;
    Ok(total)
}

/// Shared lockstep machinery.
///
/// Per batch of up to [`BATCH_ROWS`] positions, each column array is read in
/// turn (a stream switch per column, which is what exposes the prefetcher's
/// stream limit), values are decoded into per-column staging, and then rows
/// are emitted in order as [`Event::Row`]; [`Event::BatchEnd`] fires at
/// batch boundaries (used by [`reconstruct`] to flush). `vector_setup` is
/// charged once per invocation. When `read_sv` is false the selection
/// vector is treated as register-resident (fused producer→consumer) and is
/// not re-read through the hierarchy.
fn lockstep_impl<F>(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    rows: RowSet<'_>,
    materialize: bool,
    read_sv: bool,
    mut emit: F,
) -> Result<()>
where
    F: for<'a> FnMut(&mut MemoryHierarchy, Event<'a>) -> Result<()>,
{
    let costs = mem.costs();
    let refs: Vec<_> = cols.iter().map(|&c| t.col(c)).collect::<Result<_>>()?;
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
    let mut row_buf: Vec<Value> = Vec::with_capacity(cols.len());
    // Per row: one `vector_elem` per value, plus the stitching cost when
    // tuples are materialized.
    let per_value = costs.vector_elem + if materialize { costs.reconstruct } else { 0 };
    let row_cycles = per_value * cols.len() as u64;
    let mut gather: Vec<(u64, usize)> = Vec::with_capacity(cols.len());

    let mut done = 0usize;
    if total_rows > 0 {
        mem.cpu(costs.vector_setup);
    }
    while done < total_rows {
        let n = BATCH_ROWS.min(total_rows - done);
        if sel.is_some() && read_sv {
            mem.touch_read(t.sv_in_addr(done), n * 4);
        }
        for i in 0..n {
            let row_id = match sel {
                None => range_start + done + i,
                Some(s) => s[done + i] as usize,
            };
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
            if !gather.is_empty() {
                mem.touch_read_gather(&gather);
            }
            mem.cpu(row_cycles);
            Value::decode_row_into(
                &mut row_buf,
                refs.iter()
                    .map(|c| (c.ty, mem.bytes(c.at(row_id), c.ty.width()))),
            );
            emit(mem, Event::Row(row_id, &row_buf))?;
        }
        done += n;
        emit(mem, Event::BatchEnd)?;
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

    #[test]
    fn refine_narrows_candidates() {
        let (mut mem, t) = fixture();
        let sel = scan_all(&mut mem, &t, 0, CmpOp::Lt, 500);
        let sel = refine_conj(&mut mem, &t, 1, &[(CmpOp::Eq, Value::I32(7))], &sel).unwrap();
        // i < 500 && i % 100 == 7 -> 7, 107, 207, 307, 407.
        assert_eq!(sel, vec![7, 107, 207, 307, 407]);
    }

    #[test]
    fn lockstep_visits_all_rows_in_order() {
        let (mut mem, t) = fixture();
        let mut seen = Vec::new();
        for_each_lockstep(&mut mem, &t, &[0, 2], None, |_, row, vals| {
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
        let mut rows = Vec::new();
        for_each_lockstep(&mut mem, &t, &[0], Some(&sel), |_, row, vals| {
            rows.push((row, vals[0].clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            rows,
            vec![
                (5, Value::I32(5)),
                (100, Value::I32(100)),
                (2999, Value::I32(2999))
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
        for_each_lockstep(&mut mem, &t, &[0, 2], None, |_, row, vals| {
            whole.push((row, vals.to_vec()));
            Ok(())
        })
        .unwrap();

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

        let mut via_sv = Vec::new();
        let b0 = mem.stats();
        for_each_lockstep(&mut mem, &t, &[0, 2], Some(&sel), |_, row, vals| {
            via_sv.push((row, vals.to_vec()));
            Ok(())
        })
        .unwrap();
        let sv_bytes = mem.stats().delta_since(&b0).bytes_read;

        let mut fused = Vec::new();
        let b0 = mem.stats();
        for_each_lockstep_fused(&mut mem, &t, &[0, 2], &sel, |_, row, vals| {
            fused.push((row, vals.to_vec()));
            Ok(())
        })
        .unwrap();
        let fused_bytes = mem.stats().delta_since(&b0).bytes_read;

        assert_eq!(fused, via_sv);
        // The fused pass skips re-reading the materialized selection vector
        // (4 B per position) but touches the same column lines.
        assert!(
            fused_bytes < sv_bytes,
            "fused {fused_bytes} !< via-sv {sv_bytes}"
        );
        // Bounds are still validated.
        assert!(for_each_lockstep_fused(&mut mem, &t, &[0], &[9999], |_, _, _| Ok(())).is_err());
    }

    #[test]
    fn sum_expr_computes_expression() {
        let (mut mem, t) = fixture();
        // sum(a * c) over rows with a < 4: 0*0 + 1*0.5 + 2*1 + 3*1.5 = 7.
        let sel = scan_all(&mut mem, &t, 0, CmpOp::Lt, 4);
        let s = sum_expr(
            &mut mem,
            &t,
            &[0, 2],
            &Expr::mul(Expr::col(0), Expr::col(1)),
            Some(&sel),
        )
        .unwrap();
        assert_eq!(s, 7.0);
    }

    #[test]
    fn reconstruct_builds_row_major_batches() {
        let (mut mem, t) = fixture();
        let mut total_rows = 0;
        let mut first = None;
        reconstruct(&mut mem, &t, &[2, 0], None, |_, batch| {
            assert_eq!(batch.arity, 2);
            if first.is_none() {
                first = Some(batch.row(1).to_vec());
            }
            total_rows += batch.rows();
            Ok(())
        })
        .unwrap();
        assert_eq!(total_rows, 3000);
        assert_eq!(first.unwrap(), vec![Value::F64(0.5), Value::I32(1)]);
    }

    #[test]
    fn reconstruct_charges_more_cpu_than_lockstep() {
        let (mut mem, t) = fixture();
        let c0 = mem.stats().cpu_cycles;
        for_each_lockstep(&mut mem, &t, &[0, 1, 2], None, |_, _, _| Ok(())).unwrap();
        let lockstep_cpu = mem.stats().cpu_cycles - c0;

        let (mut mem2, t2) = fixture();
        let c0 = mem2.stats().cpu_cycles;
        reconstruct(&mut mem2, &t2, &[0, 1, 2], None, |_, _| Ok(())).unwrap();
        let reconstruct_cpu = mem2.stats().cpu_cycles - c0;
        assert!(reconstruct_cpu > lockstep_cpu);
    }

    #[test]
    fn empty_selection_is_fine() {
        let (mut mem, t) = fixture();
        let sel: Vec<u32> = Vec::new();
        let s = sum_expr(&mut mem, &t, &[0], &Expr::col(0), Some(&sel)).unwrap();
        assert_eq!(s, 0.0);
        let out = refine_conj(&mut mem, &t, 0, &[(CmpOp::Eq, Value::I32(1))], &sel).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn out_of_range_selection_is_structured_error_not_panic() {
        let (mut mem, t) = fixture();
        let bad = vec![0u32, 5000]; // table has 3000 rows
        let preds = [(CmpOp::Ge, Value::I32(0))];
        let err = refine_conj(&mut mem, &t, 0, &preds, &bad).unwrap_err();
        assert_eq!(
            err,
            FabricError::RowIndexOutOfRange {
                index: 5000,
                len: 3000
            }
        );
        assert!(scan_cand(&mut mem, &t, 0, &preds, &bad, (0, t.len())).is_err());
        assert!(for_each_lockstep(&mut mem, &t, &[0], Some(&bad), |_, _, _| Ok(())).is_err());
        assert!(sum_expr(&mut mem, &t, &[0], &Expr::col(0), Some(&bad)).is_err());
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
