//! Vectorized morsel scan over a [`RowTable`].
//!
//! The kernel runs one *fused* scan→filter→emit pass over a row range:
//! one `vector_setup` per invocation, then per row one line-granular touch
//! of the row's touched field spans plus branch-free predicate evaluation
//! (every conjunct is evaluated, no mispredict charge). Rejected rows cost
//! `decode·cols + value_op·preds`; there is no per-operator `next()`
//! overhead at all.
//!
//! Rows leave the kernel a *chunk* at a time, as typed column views over
//! the table's own bytes ([`scan_range_chunks`]);
//! [`scan_range_vectorized`] is the same kernel with a decoded tuple per
//! passing row, for callers that want `Value`s.

use fabric_sim::MemoryHierarchy;
use fabric_types::geometry::merge_field_spans;
use fabric_types::{
    Chunk, ChunkError, CmpOp, ColumnId, ColumnSpec, Result, RowCharge, ScanScratch, Value,
    BATCH_ROWS,
};

use crate::table::RowTable;

/// Rows consumed / rows emitted by one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Fused vectorized scan+filter over rows `[start, end)` of `table`,
/// reading `cols` (projection pushed into the scan) and keeping rows that
/// satisfy every `(slot, op, literal)` conjunct over those columns.
/// Passing rows are handed to `consume` a chunk at a time — at most
/// [`BATCH_ROWS`] rows as typed column views (stride = row width) over the
/// table's bytes, plus the positions that passed, in scan order — and each
/// costs `pass_cycles` of consumption.
///
/// Charges one `vector_setup` per call (amortize it by scanning
/// morsel-sized ranges) and, per row, `decode` per column plus
/// `value_op` per conjunct — branch-free, so no `branch_miss`.
///
/// `consume` is host-only and runs before its chunk's rows are charged;
/// the simulated clock cannot tell (DESIGN.md §21). When it fails on a row,
/// exactly the rows up to that one are charged.
#[allow(clippy::too_many_arguments)]
pub fn scan_range_chunks(
    mem: &mut MemoryHierarchy,
    table: &RowTable,
    cols: &[ColumnId],
    preds: &[(usize, CmpOp, Value)],
    start: usize,
    end: usize,
    pass_cycles: u64,
    scratch: &mut ScanScratch,
    consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
) -> Result<ScanCounts> {
    let charge = RowCharge::<NoCall>::Cycles(pass_cycles);
    scan_chunks(
        mem, table, cols, preds, start, end, scratch, consume, charge,
    )
}

/// The row callback type of a [`RowCharge::Cycles`] scan (never called).
type NoCall = fn(&mut MemoryHierarchy, usize) -> Result<()>;

/// [`scan_range_chunks`] a row at a time: passing rows are decoded into
/// `tuple` (the caller's buffer, refilled in place —
/// [`Value::decode_row_into`]) and handed to `emit` in scan order, where
/// the caller charges its own consumption cycles.
#[allow(clippy::too_many_arguments)]
pub fn scan_range_vectorized(
    mem: &mut MemoryHierarchy,
    table: &RowTable,
    cols: &[ColumnId],
    preds: &[(usize, CmpOp, Value)],
    start: usize,
    end: usize,
    tuple: &mut Vec<Value>,
    mut emit: impl FnMut(&mut MemoryHierarchy, &[Value]) -> Result<()>,
) -> Result<ScanCounts> {
    let layout = table.layout();
    let fields = layout.fields(cols)?;
    let on_pass = |mem: &mut MemoryHierarchy, r| {
        let row = mem.bytes(table.row_addr(r), layout.row_width());
        Value::decode_row_into(tuple, fields.iter().map(|f| (f.ty, &row[f.range()])));
        emit(mem, tuple)
    };
    let scratch = &mut ScanScratch::default();
    scan_chunks(
        mem,
        table,
        cols,
        preds,
        start,
        end,
        scratch,
        |_, _| Ok(()),
        RowCharge::Call(on_pass),
    )
}

/// The one ROW kernel. Per chunk: (i) the predicate and `consume`,
/// host-only over untimed bytes; (ii) the per-row charge sequence — the
/// row's line-granular traffic (one touch per merged field span,
/// gathered so independent misses overlap), its
/// decode and predicate cycles, and the row's `charge` if it passed —
/// which stops after the row `consume` failed on, if it did. A fixed
/// per-pass charge is added into the row's own cycles.
#[allow(clippy::too_many_arguments)]
fn scan_chunks(
    mem: &mut MemoryHierarchy,
    table: &RowTable,
    cols: &[ColumnId],
    preds: &[(usize, CmpOp, Value)],
    start: usize,
    end: usize,
    scratch: &mut ScanScratch,
    mut consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
    mut charge: RowCharge<impl FnMut(&mut MemoryHierarchy, usize) -> Result<()>>,
) -> Result<ScanCounts> {
    let costs = mem.costs();
    let layout = table.layout();
    let fields = layout.fields(cols)?;
    let spans = merge_field_spans(&fields, 0);
    let width = layout.row_width();
    let end = end.min(table.len());
    let start = start.min(end);
    // One setup for the whole morsel: the per-row loop below is the
    // "steady state" of the vector kernel.
    mem.cpu_vector(0, 0);

    let row_cycles = costs.decode * cols.len() as u64 + costs.value_op * preds.len() as u64;
    let ScanScratch { specs, rows } = scratch;
    specs.clear();
    specs.extend(fields.iter().map(|f| ColumnSpec {
        ty: f.ty,
        offset: f.offset,
        stride: width,
    }));
    let mut counts = ScanCounts::default();
    let mut parts: Vec<(u64, usize)> = Vec::with_capacity(spans.len());
    let mut first = start;
    while first < end {
        let n = BATCH_ROWS.min(end - first);
        let chunk = Chunk::new(mem.bytes(table.row_addr(first), n * width), specs);
        // Branch-free conjunction: every predicate is evaluated (and
        // charged below); the pass bit is a data dependency, not a branch.
        // A predicate that cannot be evaluated fails on the first row.
        let (reached, failure) = match rows.select(&chunk, n, preds) {
            Err(e) => (1, Some(e)),
            Ok(()) => match consume(&chunk, rows.sel()) {
                Ok(()) => (n, None),
                Err(ChunkError { at, error }) => (rows.sel()[at] as usize + 1, Some(error)),
            },
        };
        for (i, &pass) in rows.pass()[..reached].iter().enumerate() {
            let r = first + i;
            counts.rows_in += 1;
            let row_addr = table.row_addr(r);
            if spans.len() == 1 {
                let (off, len) = spans[0];
                mem.touch_read(row_addr + off as u64, len);
            } else {
                parts.clear();
                parts.extend(spans.iter().map(|&(off, len)| (row_addr + off as u64, len)));
                mem.touch_read_gather(&parts);
            }
            counts.rows_out += u64::from(pass);
            match &mut charge {
                RowCharge::Cycles(pass_cycles) => {
                    mem.cpu(row_cycles + if pass { *pass_cycles } else { 0 });
                }
                RowCharge::Call(on_pass) => {
                    mem.cpu(row_cycles);
                    if pass {
                        on_pass(mem, r)?;
                    }
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        first += n;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};

    fn fixture() -> (MemoryHierarchy, RowTable) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("val", ColumnType::F64),
        ]);
        let mut t = RowTable::create(&mut mem, schema, 128).unwrap();
        for i in 0..100i64 {
            let g = if i % 2 == 0 { "A" } else { "B" };
            t.load(
                &mut mem,
                &[Value::I64(i), Value::Str(g.into()), Value::F64(i as f64)],
            )
            .unwrap();
        }
        (mem, t)
    }

    fn collect(
        mem: &mut MemoryHierarchy,
        t: &RowTable,
        cols: &[ColumnId],
        preds: &[(usize, CmpOp, Value)],
        start: usize,
        end: usize,
    ) -> (Vec<Vec<Value>>, ScanCounts) {
        let mut rows = Vec::new();
        let mut tuple = Vec::new();
        let counts =
            scan_range_vectorized(mem, t, cols, preds, start, end, &mut tuple, |_, vals| {
                rows.push(vals.to_vec());
                Ok(())
            })
            .unwrap();
        (rows, counts)
    }

    /// The oracle: columns `cols` of every row an untimed decode of the
    /// table says satisfies `keep`, in row order.
    fn untimed(
        mem: &MemoryHierarchy,
        t: &RowTable,
        cols: &[ColumnId],
        keep: impl Fn(&[Value]) -> bool,
    ) -> Vec<Vec<Value>> {
        let rows = (0..t.len()).map(|r| t.decode_row_untimed(mem, r).unwrap());
        rows.filter(|row| keep(row))
            .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
            .collect()
    }

    #[test]
    fn matches_untimed_scan_filter_output() {
        let (mut mem, t) = fixture();
        let preds = vec![
            (0, CmpOp::Ge, Value::I64(90)),
            (2, CmpOp::Lt, Value::F64(95.0)),
        ];
        let (rows, counts) = collect(&mut mem, &t, &[0, 1, 2], &preds, 0, 100);
        let expected = untimed(&mem, &t, &[0, 1, 2], |r| {
            r[0].as_i64().unwrap() >= 90 && r[2].as_f64().unwrap() < 95.0
        });
        assert_eq!(rows, expected);
        assert_eq!(counts.rows_in, 100);
        assert_eq!(counts.rows_out, 5);
    }

    #[test]
    fn ranged_invocations_cover_the_table_exactly_once() {
        let (mut mem, t) = fixture();
        let mut all = Vec::new();
        for start in (0..100).step_by(32) {
            let (rows, _) = collect(&mut mem, &t, &[0], &[], start, start + 32);
            all.extend(rows);
        }
        assert_eq!(all, untimed(&mem, &t, &[0], |_| true));
        // Out-of-bounds ranges clamp instead of panicking.
        let (rows, _) = collect(&mut mem, &t, &[0], &[], 96, 1000);
        assert_eq!(rows.len(), 4);
        let (rows, _) = collect(&mut mem, &t, &[0], &[], 500, 600);
        assert!(rows.is_empty());
    }

    #[test]
    fn branch_free_conjunction_evaluates_every_predicate() {
        let (mut mem, t) = fixture();
        // First conjunct rejects everything; the second (slot 1 of the
        // [id, val] tuple) is type-valid and must still be evaluated
        // without error.
        let preds = vec![
            (0, CmpOp::Lt, Value::I64(0)),
            (1, CmpOp::Ge, Value::F64(0.0)),
        ];
        let (rows, counts) = collect(&mut mem, &t, &[0, 2], &preds, 0, 100);
        assert!(rows.is_empty());
        assert_eq!(counts.rows_in, 100);
        assert_eq!(counts.rows_out, 0);
    }
}
