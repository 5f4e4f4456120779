//! Indexes over row tables — the piece of physical design the paper keeps
//! (§III-A): *"indexes will mostly be useful for workloads with point
//! queries and updates, since range queries can be very efficiently
//! evaluated with column-group accesses."*
//!
//! Two classic structures are provided, both with timed probe paths so the
//! index-vs-fabric trade-off can be measured:
//!
//! * [`HashIndex`] — equality lookups: O(1) probes, useless for ranges;
//! * [`OrderedIndex`] — a sorted (key, row) array with binary search:
//!   range lookups and range sums, at logarithmic probe cost and
//!   per-match random row access.

use crate::table::{RowId, RowTable};
use fabric_sim::MemoryHierarchy;
use fabric_types::{ColumnId, FabricError, Result, Value};
use std::collections::BTreeMap;

/// Bytes per index entry we charge for index traffic (key + row id).
const ENTRY_BYTES: usize = 16;

/// A hash index on one column: equality probes only.
///
/// Buckets live in the simulated arena, so index probes pay real (random)
/// memory traffic plus hashing CPU.
pub struct HashIndex {
    col: ColumnId,
    /// key (encoded i64 image) -> row ids. A `BTreeMap` (not `HashMap`)
    /// so any whole-index traversal is key-ordered and deterministic; the
    /// *simulated* cost model still charges hash-probe economics.
    map: BTreeMap<i64, Vec<RowId>>,
    /// Arena region standing in for the bucket array (traffic charging).
    buckets_addr: fabric_types::Addr,
    buckets: usize,
}

impl HashIndex {
    /// Build over the current contents of `table` (untimed: index build is
    /// physical-design time; probes are what we measure).
    pub fn build(mem: &mut MemoryHierarchy, table: &RowTable, col: ColumnId) -> Result<Self> {
        let ty = table.layout().column_type(col)?;
        if !ty.is_numeric() {
            return Err(FabricError::Internal(
                "hash index requires a numeric column".into(),
            ));
        }
        let buckets = (table.len() * 2).next_power_of_two().max(64);
        let buckets_addr = mem.alloc(buckets * ENTRY_BYTES, 64)?;
        let mut map: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
        for rid in 0..table.len() {
            let v = table.decode_row_untimed(mem, rid)?[col].as_i64()?;
            map.entry(v).or_default().push(rid);
        }
        Ok(HashIndex {
            col,
            map,
            buckets_addr,
            buckets,
        })
    }

    #[inline]
    fn bucket_of(&self, key: i64) -> u64 {
        // Fibonacci hashing for the simulated bucket address.
        (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.buckets as u64
    }

    /// Timed equality probe: returns the matching row ids.
    pub fn probe(
        &self,
        mem: &mut MemoryHierarchy,
        table: &RowTable,
        key: i64,
    ) -> Result<Vec<RowId>> {
        let costs = mem.costs();
        // Hash + one random bucket access.
        mem.cpu(costs.hash_op);
        mem.touch_read(
            self.buckets_addr + self.bucket_of(key) * ENTRY_BYTES as u64,
            ENTRY_BYTES,
        );
        let rows = self.map.get(&key).cloned().unwrap_or_default();
        // Verify each hit against the base row (charged row access).
        for &rid in &rows {
            let off = table.layout().offset(self.col)? as u64;
            mem.touch_read(table.row_addr(rid) + off, table.layout().width(self.col)?);
            mem.cpu(costs.value_op);
        }
        Ok(rows)
    }
}

/// A sorted `(key, row id)` secondary index with binary search — supports
/// range lookups (a point lookup is the range `k..k + 1`).
pub struct OrderedIndex {
    entries: Vec<(i64, RowId)>,
    entries_addr: fabric_types::Addr,
}

impl OrderedIndex {
    /// Build over the current contents of `table` (untimed).
    pub fn build(mem: &mut MemoryHierarchy, table: &RowTable, col: ColumnId) -> Result<Self> {
        let ty = table.layout().column_type(col)?;
        if !ty.is_numeric() {
            return Err(FabricError::Internal(
                "ordered index requires a numeric column".into(),
            ));
        }
        let mut entries = Vec::with_capacity(table.len());
        for rid in 0..table.len() {
            let v = table.decode_row_untimed(mem, rid)?[col].as_i64()?;
            entries.push((v, rid));
        }
        entries.sort_unstable();
        let entries_addr = mem.alloc(entries.len().max(1) * ENTRY_BYTES, 64)?;
        Ok(OrderedIndex {
            entries,
            entries_addr,
        })
    }

    /// Charge the binary-search traffic: log2(n) random entry touches.
    fn charge_search(&self, mem: &mut MemoryHierarchy) {
        let costs = mem.costs();
        let lo = 0usize;
        let mut hi = self.entries.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            mem.touch_read(self.entries_addr + (mid * ENTRY_BYTES) as u64, ENTRY_BYTES);
            mem.cpu(costs.value_op + costs.branch_miss / 2);
            // The probe count is log2(n) whichever way the search turns;
            // halving `hi` charges exactly that many touches.
            hi = mid;
        }
    }

    /// Timed range lookup `lo..hi` (half-open): returns matching row ids in
    /// key order and charges the sequential leaf walk.
    pub fn range(&self, mem: &mut MemoryHierarchy, lo: i64, hi: i64) -> Result<Vec<RowId>> {
        self.charge_search(mem);
        let start = self.entries.partition_point(|&(k, _)| k < lo);
        let end = self.entries.partition_point(|&(k, _)| k < hi);
        // Sequential scan of the qualifying index entries.
        if end > start {
            mem.touch_read(
                self.entries_addr + (start * ENTRY_BYTES) as u64,
                (end - start) * ENTRY_BYTES,
            );
            mem.cpu(mem.costs().vector_elem * (end - start) as u64);
        }
        Ok(self.entries[start..end]
            .iter()
            .map(|&(_, rid)| rid)
            .collect())
    }

    /// Timed range *aggregation*: sum `sum_col` over rows whose indexed key
    /// is in `lo..hi` — the index-based plan a pre-fabric system would use
    /// for a range query, paying one random base-row access per match.
    pub fn range_sum(
        &self,
        mem: &mut MemoryHierarchy,
        table: &RowTable,
        lo: i64,
        hi: i64,
        sum_col: ColumnId,
    ) -> Result<(f64, usize)> {
        let rows = self.range(mem, lo, hi)?;
        let costs = mem.costs();
        let layout = table.layout();
        let off = layout.offset(sum_col)? as u64;
        let w = layout.width(sum_col)?;
        let ty = layout.column_type(sum_col)?;
        let mut sum = 0.0;
        for &rid in &rows {
            mem.touch_read(table.row_addr(rid) + off, w);
            mem.cpu(costs.f64_op);
            let bytes = mem.bytes(table.row_addr(rid) + off, w);
            sum += Value::decode(ty, bytes).as_f64()?;
        }
        Ok((sum, rows.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};

    /// 10k rows: key = (i * 7) % 10000 (a permutation), payload = i.
    fn setup() -> (MemoryHierarchy, RowTable) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("key", ColumnType::I64), ("v", ColumnType::I64)]);
        let mut t = RowTable::create(&mut mem, schema, 10_000).unwrap();
        for i in 0..10_000i64 {
            t.load(&mut mem, &[Value::I64((i * 7) % 10_000), Value::I64(i)])
                .unwrap();
        }
        (mem, t)
    }

    #[test]
    fn hash_index_point_lookup() {
        let (mut mem, t) = setup();
        let idx = HashIndex::build(&mut mem, &t, 0).unwrap();
        let rows = idx.probe(&mut mem, &t, 21).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            t.decode_row_untimed(&mem, rows[0]).unwrap()[1],
            Value::I64(3)
        );
        assert!(idx.probe(&mut mem, &t, 123_456).unwrap().is_empty());
    }

    #[test]
    fn hash_index_probe_is_much_cheaper_than_scan() {
        let (mut mem, t) = setup();
        let idx = HashIndex::build(&mut mem, &t, 0).unwrap();
        let t0 = mem.now();
        let hits = idx.probe(&mut mem, &t, 21).unwrap();
        let probe = mem.now() - t0;
        // A full scan for the same point query, with the ROW path's kernel.
        let t0 = mem.now();
        let mut found = Vec::new();
        crate::vector::scan_range_vectorized(
            &mut mem,
            &t,
            &[0, 1],
            &[(0, fabric_types::CmpOp::Eq, Value::I64(21))],
            0,
            t.len(),
            &mut Vec::new(),
            |_, vals| {
                found.push(vals.to_vec());
                Ok(())
            },
        )
        .unwrap();
        let scan_t = mem.now() - t0;
        assert!(scan_t > probe * 100, "scan {scan_t} vs probe {probe}");
        // Both find the one row an untimed decode holds.
        assert_eq!(found, vec![t.decode_row_untimed(&mem, hits[0]).unwrap()]);
    }

    #[test]
    fn ordered_index_point_and_range() {
        let (mut mem, t) = setup();
        let idx = OrderedIndex::build(&mut mem, &t, 0).unwrap();
        // Range [100, 110): ten distinct keys exist (permutation).
        let rows = idx.range(&mut mem, 100, 110).unwrap();
        assert_eq!(rows.len(), 10);
        // Returned in key order.
        let keys: Vec<i64> = rows
            .iter()
            .map(|&r| t.decode_row_untimed(&mem, r).unwrap()[0].as_i64().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn range_sum_matches_brute_force() {
        let (mut mem, t) = setup();
        let idx = OrderedIndex::build(&mut mem, &t, 0).unwrap();
        let (sum, n) = idx.range_sum(&mut mem, &t, 500, 600, 1).unwrap();
        let mut expect = 0.0;
        let mut count = 0;
        for i in 0..10_000 {
            let row = t.decode_row_untimed(&mem, i).unwrap();
            let k = row[0].as_i64().unwrap();
            if (500..600).contains(&k) {
                expect += row[1].as_f64().unwrap();
                count += 1;
            }
        }
        assert_eq!(n, count);
        assert_eq!(sum, expect);
    }

    #[test]
    fn duplicate_keys_all_found() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("key", ColumnType::I64), ("v", ColumnType::I64)]);
        let mut t = RowTable::create(&mut mem, schema, 100).unwrap();
        for i in 0..100i64 {
            t.load(&mut mem, &[Value::I64(i % 10), Value::I64(i)])
                .unwrap();
        }
        let h = HashIndex::build(&mut mem, &t, 0).unwrap();
        assert_eq!(h.probe(&mut mem, &t, 3).unwrap().len(), 10);
        let o = OrderedIndex::build(&mut mem, &t, 0).unwrap();
        assert_eq!(o.range(&mut mem, 3, 4).unwrap().len(), 10);
    }

    #[test]
    fn non_numeric_columns_rejected() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("s", ColumnType::FixedStr(4))]);
        let mut t = RowTable::create(&mut mem, schema, 4).unwrap();
        t.load(&mut mem, &[Value::Str("x".into())]).unwrap();
        assert!(HashIndex::build(&mut mem, &t, 0).is_err());
        assert!(OrderedIndex::build(&mut mem, &t, 0).is_err());
    }

    #[test]
    fn empty_table_indexes() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("key", ColumnType::I64)]);
        let t = RowTable::create(&mut mem, schema, 4).unwrap();
        let o = OrderedIndex::build(&mut mem, &t, 0).unwrap();
        assert!(o.range(&mut mem, 0, 100).unwrap().is_empty());
    }
}
