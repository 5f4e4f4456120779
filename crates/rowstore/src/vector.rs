//! Vectorized morsel scan over a [`RowTable`].
//!
//! The Volcano operators in [`crate::volcano`] pay `volcano_next` per
//! tuple per operator and a `branch_miss` per rejected row — the
//! interpretation tax the paper's host path does not need once morsels
//! feed vector primitives. This kernel runs one *fused*
//! scan→filter→emit pass over a row range: one `vector_setup` per
//! invocation, then per row the same line-granular memory traffic as
//! [`crate::SeqScan`] plus branch-free predicate evaluation (every
//! conjunct is evaluated, no mispredict charge). Rejected rows cost
//! `decode·cols + value_op·preds`; there is no per-operator `next()`
//! overhead at all.
//!
//! The memory-access pattern (which lines are touched, in which order,
//! interleaved with how much compute) deliberately mirrors the Volcano
//! scan row for row, so the kernel is a strict cycle improvement rather
//! than a different memory model.

use fabric_sim::MemoryHierarchy;
use fabric_types::geometry::merge_field_spans;
use fabric_types::{CmpOp, ColumnId, Result, Value};

use crate::table::RowTable;

/// Rows consumed / rows emitted by one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Fused vectorized scan+filter over rows `[start, end)` of `table`,
/// decoding `cols` (projection pushed into the scan) and keeping rows
/// that satisfy every `(slot, op, literal)` conjunct over the decoded
/// slots. Passing rows are handed to `emit` in scan order; the caller
/// charges its own consumption cycles there.
///
/// Charges one `vector_setup` per call (amortize it by scanning
/// morsel-sized ranges) and, per row, `decode` per column plus
/// `value_op` per conjunct — branch-free, so no `branch_miss` and no
/// `volcano_next`.
///
/// `tuple` is the caller's decode buffer (host-side scratch, typically
/// recycled from a `Scratchpad`): every row is decoded into its slots in
/// place ([`Value::decode_into`]), so one allocation — text buffers
/// included — serves every morsel of a query.
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
    let costs = mem.costs();
    let layout = table.layout();
    let fields = layout.fields(cols)?;
    let spans = merge_field_spans(&fields, 0);
    let end = end.min(table.len());
    let start = start.min(end);
    // One setup for the whole morsel: the per-row loop below is the
    // "steady state" of the vector kernel.
    mem.cpu_vector(0, 0);

    let row_cycles = costs.decode * cols.len() as u64 + costs.value_op * preds.len() as u64;
    let mut counts = ScanCounts::default();
    let mut parts: Vec<(u64, usize)> = Vec::with_capacity(spans.len());
    for r in start..end {
        counts.rows_in += 1;
        let row_addr = table.row_addr(r);
        // Same line-granular traffic as the Volcano scan: one touch per
        // merged field span, gathered so independent misses overlap.
        if spans.len() == 1 {
            let (off, len) = spans[0];
            mem.touch_read(row_addr + off as u64, len);
        } else {
            parts.clear();
            parts.extend(spans.iter().map(|&(off, len)| (row_addr + off as u64, len)));
            mem.touch_read_gather(&parts);
        }
        mem.cpu(row_cycles);

        let row = mem.bytes(row_addr, layout.row_width());
        Value::decode_row_into(tuple, fields.iter().map(|f| (f.ty, &row[f.range()])));
        // Branch-free conjunction: every predicate is evaluated (already
        // charged above); the pass/fail bit is a data dependency, not a
        // branch.
        let mut pass = true;
        for (slot, op, lit) in preds {
            pass &= op.matches(tuple[*slot].compare(lit)?);
        }
        if pass {
            counts.rows_out += 1;
            emit(mem, tuple)?;
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volcano::{execute_collect, Filter, SeqScan};
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

    #[test]
    fn matches_volcano_scan_filter_output() {
        let (mut mem, t) = fixture();
        let preds = vec![
            (0, CmpOp::Ge, Value::I64(90)),
            (2, CmpOp::Lt, Value::F64(95.0)),
        ];
        let scan = SeqScan::new(&t, vec![0, 1, 2]).unwrap();
        let mut volcano = Filter::new(Box::new(scan), preds.clone());
        let expected = execute_collect(&mut mem, &mut volcano).unwrap();
        let (rows, counts) = collect(&mut mem, &t, &[0, 1, 2], &preds, 0, 100);
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
        let mut full = SeqScan::new(&t, vec![0]).unwrap();
        assert_eq!(all, execute_collect(&mut mem, &mut full).unwrap());
        // Out-of-bounds ranges clamp instead of panicking.
        let (rows, _) = collect(&mut mem, &t, &[0], &[], 96, 1000);
        assert_eq!(rows.len(), 4);
        let (rows, _) = collect(&mut mem, &t, &[0], &[], 500, 600);
        assert!(rows.is_empty());
    }

    #[test]
    fn strictly_cheaper_than_volcano_per_morsel() {
        let (mut mem, t) = fixture();
        let preds = vec![(0, CmpOp::Lt, Value::I64(50))];
        // Warm the caches identically before each measured pass.
        let _ = collect(&mut mem, &t, &[0, 2], &preds, 0, 100);
        let t0 = mem.now();
        let _ = collect(&mut mem, &t, &[0, 2], &preds, 0, 100);
        let vectorized = mem.now() - t0;

        let t0 = mem.now();
        let scan = SeqScan::new(&t, vec![0, 2]).unwrap();
        let mut volcano = Filter::new(Box::new(scan), preds.clone());
        execute_collect(&mut mem, &mut volcano).unwrap();
        let tuple_at_a_time = mem.now() - t0;
        assert!(
            vectorized < tuple_at_a_time,
            "vectorized {vectorized} !< volcano {tuple_at_a_time}"
        );
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
