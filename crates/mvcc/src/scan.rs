//! Analytical scans over versioned data: the hardware visibility path
//! (Relational Memory filters timestamps while gathering, §III-C) versus
//! the software baseline (the CPU reads and checks the timestamp fields of
//! every version).

use crate::table::VersionedTable;
use fabric_sim::MemoryHierarchy;
use fabric_types::chunk::Scalar;
use fabric_types::{f64_decoder, ColumnId, FabricError, Result, Value};
use relmem::{EphemeralColumns, RmConfig};
use std::ops::Range;

/// Software baseline: scan every physical version, evaluate visibility on
/// the CPU, and sum `col` over the visible ones. Returns `(sum, visible
/// rows)`. A version costs its gather of both stamps and the value, then
/// one charge of `vector_elem + 2·value_op` plus `f64_op` when it is
/// visible or `branch_miss` when not.
pub fn sw_visible_sum(
    mem: &mut MemoryHierarchy,
    table: &VersionedTable,
    col: ColumnId,
    ts: u64,
) -> Result<(f64, u64)> {
    let costs = mem.costs();
    let inner = table.physical();
    let layout = inner.layout();
    let begin_r = layout.range(table.user_cols())?;
    let end_r = layout.range(table.user_cols() + 1)?;
    let col_r = layout.range(col)?;
    let value_of = f64_decoder(layout.column_type(col)?);
    let w = layout.row_width();
    let checked = costs.vector_elem + costs.value_op * 2;

    let mut sum = 0.0f64;
    let mut visible = 0u64;
    for rid in 0..inner.len() {
        let addr = inner.row_addr(rid);
        // The CPU must read both timestamp fields and the payload column.
        mem.touch_read_gather(&[
            (addr + begin_r.start as u64, 16), // begin + end are adjacent
            (addr + col_r.start as u64, col_r.len()),
        ]);
        let row = mem.bytes(addr, w);
        let (begin, end) = timestamps(row, &begin_r, &end_r);
        if begin <= ts && (end == 0 || ts < end) {
            let value_of = value_of.ok_or_else(|| FabricError::TypeMismatch {
                expected: "numeric".into(),
                found: "string".into(),
            })?;
            sum += value_of(&row[col_r.clone()]);
            visible += 1;
            mem.cpu(checked + costs.f64_op);
        } else {
            mem.cpu(checked + costs.branch_miss);
        }
    }
    Ok((sum, visible))
}

/// A version's `(begin, end)` timestamps, from their fields of the raw
/// `row`.
fn timestamps(row: &[u8], begin: &Range<usize>, end: &Range<usize>) -> (u64, u64) {
    (u64::read(&row[begin.clone()]), u64::read(&row[end.clone()]))
}

/// Hardware path: the RM device applies the timestamp filter while
/// gathering, so only visible rows' payload reaches the CPU.
pub fn rm_visible_sum(
    mem: &mut MemoryHierarchy,
    table: &VersionedTable,
    col: ColumnId,
    ts: u64,
    cfg: RmConfig,
) -> Result<(f64, u64)> {
    let costs = mem.costs();
    let g = table.geometry_at(&[col], ts)?;
    let mut eph = EphemeralColumns::configure(mem, cfg, g)?;
    let mut sum = 0.0f64;
    let mut visible = 0u64;
    while let Some(b) = eph.next_batch(mem) {
        let values = b.chunk(0..b.len()).col(0)?;
        for r in 0..b.len() {
            mem.cpu(costs.vector_elem + costs.f64_op);
            sum += values.f64_at(r)?;
        }
        visible += b.len() as u64;
    }
    Ok((sum, visible))
}

/// Collect all user columns of all rows visible at `ts` (verification
/// helper; timed like a software scan).
pub fn collect_visible(
    mem: &mut MemoryHierarchy,
    table: &VersionedTable,
    ts: u64,
) -> Result<Vec<Vec<Value>>> {
    let inner = table.physical();
    let layout = inner.layout();
    let w = layout.row_width();
    let begin_r = layout.range(table.user_cols())?;
    let end_r = layout.range(table.user_cols() + 1)?;
    let mut out = Vec::new();
    for rid in 0..inner.len() {
        let addr = inner.row_addr(rid);
        mem.touch_read(addr, w);
        let (begin, end) = timestamps(mem.bytes(addr, w), &begin_r, &end_r);
        if begin <= ts && (end == 0 || ts < end) {
            let mut vals = inner.decode_row_untimed(mem, rid)?;
            vals.truncate(table.user_cols());
            out.push(vals);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnManager;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};

    /// A small history: 100 logical rows, half updated, a quarter deleted.
    fn setup() -> (MemoryHierarchy, VersionedTable, TxnManager, u64) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
        let mut t = VersionedTable::create(&mut mem, schema, 4096).unwrap();
        let tm = TxnManager::new();
        let mut ids = Vec::new();
        for k in 0..100i64 {
            let mut txn = tm.begin();
            txn.insert(vec![Value::I64(k), Value::I64(k)]);
            ids.push(tm.commit(&mut mem, &mut t, txn).unwrap().inserted[0]);
        }
        let mid_ts = tm.snapshot_ts();
        for (k, &l) in ids.iter().enumerate() {
            if k % 2 == 0 {
                let mut txn = tm.begin();
                txn.update(l, vec![(1, Value::I64(k as i64 + 1000))]);
                tm.commit(&mut mem, &mut t, txn).unwrap();
            }
            if k % 4 == 1 {
                let mut txn = tm.begin();
                txn.delete(l);
                tm.commit(&mut mem, &mut t, txn).unwrap();
            }
        }
        (mem, t, tm, mid_ts)
    }

    #[test]
    fn sw_and_rm_paths_agree_at_every_snapshot() {
        let (mut mem, t, tm, mid_ts) = setup();
        for ts in [mid_ts, tm.snapshot_ts(), 1, 50] {
            let (sw_sum, sw_n) = sw_visible_sum(&mut mem, &t, 1, ts).unwrap();
            let (rm_sum, rm_n) =
                rm_visible_sum(&mut mem, &t, 1, ts, RmConfig::prototype()).unwrap();
            assert_eq!(sw_n, rm_n, "row counts differ at ts={ts}");
            assert_eq!(sw_sum, rm_sum, "sums differ at ts={ts}");
        }
    }

    #[test]
    fn mid_snapshot_sees_pre_update_state() {
        let (mut mem, t, _, mid_ts) = setup();
        let (sum, n) = sw_visible_sum(&mut mem, &t, 1, mid_ts).unwrap();
        assert_eq!(n, 100);
        assert_eq!(sum, (0..100i64).sum::<i64>() as f64);
    }

    #[test]
    fn final_snapshot_reflects_updates_and_deletes() {
        let (mut mem, t, tm, _) = setup();
        let (_, n) = sw_visible_sum(&mut mem, &t, 1, tm.snapshot_ts()).unwrap();
        assert_eq!(n, 75); // 25 of 100 deleted
        let rows = collect_visible(&mut mem, &t, tm.snapshot_ts()).unwrap();
        assert_eq!(rows.len(), 75);
        // Updated rows carry their new values.
        let v0 = rows.iter().find(|r| r[0] == Value::I64(0)).unwrap();
        assert_eq!(v0[1], Value::I64(1000));
    }

    #[test]
    fn rm_device_filters_rows_not_just_values() {
        let (mut mem, t, tm, _) = setup();
        let g = t.geometry_at(&[0], tm.snapshot_ts()).unwrap();
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let mut rows = 0;
        while let Some(b) = eph.next_batch(&mut mem) {
            rows += b.len();
        }
        assert_eq!(rows, 75);
        // The device scanned every version but emitted only visible ones.
        assert!(eph.stats().rows_scanned as usize == t.version_count());
        assert_eq!(eph.stats().rows_emitted, 75);
    }
}
