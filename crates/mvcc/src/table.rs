//! Versioned row tables: every version is an ordinary row of the base
//! table, carrying `(begin_ts, end_ts)` validity timestamps.

use fabric_sim::MemoryHierarchy;
use fabric_types::{
    le_array, ColumnDef, ColumnId, ColumnType, FabricError, Geometry, Result, Schema, TsFilter,
    Value,
};
use rowstore::{RowId, RowTable};

/// Identifier of a *logical* row; its versions form a chain of physical
/// rows.
pub type LogicalId = usize;

/// Names of the hidden timestamp columns appended to the user schema.
pub const BEGIN_COL: &str = "__begin_ts";
pub const END_COL: &str = "__end_ts";

/// A multi-versioned table over a single row-oriented base layout.
///
/// Physically this is a plain [`RowTable`] whose schema is the user schema
/// plus two trailing `i64` timestamp columns, exactly the representation of
/// paper §III-C. Updates append; deletes stamp; nothing is rewritten in
/// place, so concurrent snapshot readers never block.
///
/// The layout is packed, so a version's row image is its columns' bytes
/// back to back: an update copies the current image and re-encodes only
/// the columns it changes, and a checkpoint's row section is the images
/// themselves (DESIGN.md §14).
pub struct VersionedTable {
    inner: RowTable,
    user_cols: usize,
    /// Byte offset of the begin stamp in a row; the end stamp follows it.
    stamps_at: usize,
    /// Version chains, oldest first; indexed by [`LogicalId`].
    chains: Vec<Vec<RowId>>,
    /// Commit timestamp of each logical row's newest version (for
    /// first-committer-wins validation).
    last_commit: Vec<u64>,
    /// The image of the version being written, reused by every write.
    image: Vec<u8>,
}

impl VersionedTable {
    /// The physical schema of a versioned table over `user_schema`: its
    /// columns, then the begin and end stamps.
    pub fn full_schema(user_schema: &Schema) -> Schema {
        let mut cols: Vec<ColumnDef> = user_schema.columns().to_vec();
        cols.push(ColumnDef::new(BEGIN_COL, ColumnType::I64));
        cols.push(ColumnDef::new(END_COL, ColumnType::I64));
        Schema::new(cols)
    }

    /// Create a versioned table for `user_schema` with room for `capacity`
    /// physical versions.
    pub fn create(mem: &mut MemoryHierarchy, user_schema: Schema, capacity: usize) -> Result<Self> {
        let user_cols = user_schema.len();
        let inner = RowTable::create(mem, Self::full_schema(&user_schema), capacity)?;
        let stamps_at = inner.layout().offset(user_cols)?;
        Ok(VersionedTable {
            inner,
            user_cols,
            stamps_at,
            chains: Vec::new(),
            last_commit: Vec::new(),
            image: Vec::new(),
        })
    }

    /// The underlying physical table (all versions).
    pub fn physical(&self) -> &RowTable {
        &self.inner
    }

    /// Number of user (visible) columns.
    pub fn user_cols(&self) -> usize {
        self.user_cols
    }

    /// Number of logical rows ever created (including deleted ones).
    pub fn logical_len(&self) -> usize {
        self.chains.len()
    }

    /// Number of physical versions currently stored.
    pub fn version_count(&self) -> usize {
        self.inner.len()
    }

    /// Commit timestamp of the newest version of `logical`.
    pub fn last_commit_ts(&self, logical: LogicalId) -> Result<u64> {
        self.last_commit
            .get(logical)
            .copied()
            .ok_or_else(|| FabricError::Txn(format!("unknown logical row {logical}")))
    }

    fn check_logical(&self, logical: LogicalId) -> Result<()> {
        if logical >= self.chains.len() {
            return Err(FabricError::Txn(format!("unknown logical row {logical}")));
        }
        Ok(())
    }

    /// The newest version of `logical`.
    fn newest(&self, logical: LogicalId) -> Result<RowId> {
        self.check_logical(logical)?;
        self.chains[logical]
            .last()
            .copied()
            .ok_or_else(|| FabricError::Txn(format!("logical row {logical} has no versions")))
    }

    /// Byte offset of the end stamp in a row.
    fn end_at(&self) -> usize {
        self.stamps_at + 8
    }

    /// Is the newest version of `logical` live (end stamp unset)? Untimed
    /// — this is the commit-path precheck, not a snapshot read.
    pub fn latest_is_live(&self, mem: &mut MemoryHierarchy, logical: LogicalId) -> Result<bool> {
        let cur = self.newest(logical)?;
        let end = mem.read_untimed(self.inner.row_addr(cur) + self.end_at() as u64, 8);
        Ok(stamp(end) == 0)
    }

    // ------------------------------------------------------------- writes
    //
    // The `apply_*` methods are called by `TxnManager::commit` with an
    // allocated commit timestamp; they perform the timed writes.

    /// Encode user column `col` of the version image being written.
    fn put(&mut self, col: ColumnId, v: &Value) -> Result<()> {
        if col >= self.user_cols {
            return Err(FabricError::ColumnIndexOutOfRange {
                index: col,
                len: self.user_cols,
            });
        }
        let layout = self.inner.layout();
        v.encode_into(
            layout.column_type(col)?,
            &mut self.image[layout.range(col)?],
        )
    }

    /// Stamp the version image being written as begun at `commit_ts` and
    /// not yet ended, and check that the table has room for it.
    fn seal(&mut self, commit_ts: u64) -> Result<()> {
        let at = self.stamps_at;
        self.image[at..at + 8].copy_from_slice(&(commit_ts as i64).to_le_bytes());
        self.image[at + 8..at + 16].fill(0);
        if self.inner.len() == self.inner.capacity() {
            return Err(FabricError::Internal("table full".into()));
        }
        Ok(())
    }

    /// Append the first version of a new logical row.
    pub fn apply_insert(
        &mut self,
        mem: &mut MemoryHierarchy,
        values: &[Value],
        commit_ts: u64,
    ) -> Result<LogicalId> {
        if values.len() != self.user_cols {
            return Err(FabricError::Txn(format!(
                "insert has {} values, schema has {} columns",
                values.len(),
                self.user_cols
            )));
        }
        self.image.clear();
        self.image.resize(self.inner.layout().row_width(), 0);
        for (col, v) in values.iter().enumerate() {
            self.put(col, v)?;
        }
        self.seal(commit_ts)?;
        let rid = self.inner.append_image(mem, &self.image)?;
        self.chains.push(vec![rid]);
        self.last_commit.push(commit_ts);
        Ok(self.chains.len() - 1)
    }

    /// Supersede the current version of `logical` with one whose columns
    /// are updated per `updates`: a copy of the current row image with
    /// only those columns re-encoded. Every check runs before the old
    /// version is stamped, so a rejected update leaves the table as it
    /// was.
    pub fn apply_update(
        &mut self,
        mem: &mut MemoryHierarchy,
        logical: LogicalId,
        updates: &[(ColumnId, Value)],
        commit_ts: u64,
    ) -> Result<()> {
        let cur = self.newest(logical)?;
        // Read the current version (timed: the OLTP path touches the row).
        let (addr, w) = (self.inner.row_addr(cur), self.inner.layout().row_width());
        mem.touch_read(addr, w);
        self.image.clear();
        self.image.extend_from_slice(mem.read_untimed(addr, w));
        if stamp(&self.image[self.end_at()..]) != 0 {
            return Err(FabricError::Txn(format!(
                "logical row {logical} is deleted"
            )));
        }
        self.inner.layout().canonicalize_text(&mut self.image)?;
        for (col, v) in updates {
            self.put(*col, v)?;
        }
        self.seal(commit_ts)?;
        // Stamp the old version's end and append the new version.
        self.inner
            .update_column(mem, cur, self.user_cols + 1, &Value::I64(commit_ts as i64))?;
        let rid = self.inner.append_image(mem, &self.image)?;
        self.chains[logical].push(rid);
        self.last_commit[logical] = commit_ts;
        Ok(())
    }

    /// Delete `logical` by stamping its current version's end timestamp.
    pub fn apply_delete(
        &mut self,
        mem: &mut MemoryHierarchy,
        logical: LogicalId,
        commit_ts: u64,
    ) -> Result<()> {
        let cur = self.newest(logical)?;
        let end = self.inner.read_column(mem, cur, self.user_cols + 1)?;
        if end != Value::I64(0) {
            return Err(FabricError::Txn(format!(
                "logical row {logical} already deleted"
            )));
        }
        self.inner
            .update_column(mem, cur, self.user_cols + 1, &Value::I64(commit_ts as i64))?;
        self.last_commit[logical] = commit_ts;
        Ok(())
    }

    // -------------------------------------------------------------- reads

    /// Is the physical version `rid` visible at snapshot `ts`? Timed: reads
    /// the two timestamp fields.
    fn version_visible(&self, mem: &mut MemoryHierarchy, rid: RowId, ts: u64) -> Result<bool> {
        let begin = self.inner.read_column(mem, rid, self.user_cols)?.as_i64()? as u64;
        let end = self
            .inner
            .read_column(mem, rid, self.user_cols + 1)?
            .as_i64()? as u64;
        Ok(begin <= ts && (end == 0 || ts < end))
    }

    /// Point read of one column of `logical` at snapshot `ts` (OLTP path:
    /// walks the version chain newest to oldest).
    pub fn read_at(
        &self,
        mem: &mut MemoryHierarchy,
        logical: LogicalId,
        col: ColumnId,
        ts: u64,
    ) -> Result<Option<Value>> {
        self.check_logical(logical)?;
        for &rid in self.chains[logical].iter().rev() {
            if self.version_visible(mem, rid, ts)? {
                return Ok(Some(self.inner.read_column(mem, rid, col)?));
            }
        }
        Ok(None)
    }

    /// All user rows visible at snapshot `ts`, in *physical* row order —
    /// the order an analytical scan of this table emits, which is what
    /// recovered query answers must reproduce bit-identically. Timed.
    pub fn snapshot_rows(&self, mem: &mut MemoryHierarchy, ts: u64) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        for rid in 0..self.inner.len() {
            if self.version_visible(mem, rid, ts)? {
                let mut row = self.inner.decode_row_untimed(mem, rid)?;
                mem.touch_read(self.inner.row_addr(rid), self.inner.layout().row_width());
                row.truncate(self.user_cols);
                out.push(row);
            }
        }
        Ok(out)
    }

    // ---------------------------------------------------- checkpoint state
    //
    // A checkpoint must capture the *physical* layout, not just logical
    // content: scans emit rows in physical order, so a restore that
    // reordered versions would change recovered query answers.

    /// Version chains, oldest first, indexed by [`LogicalId`].
    pub fn chains(&self) -> &[Vec<RowId>] {
        &self.chains
    }

    /// Commit timestamp of every logical row's newest version.
    pub fn last_commits(&self) -> &[u64] {
        &self.last_commit
    }

    /// Rebuild a table from checkpointed state: `rows` are the *full*
    /// physical row images (user columns plus the two timestamp columns,
    /// packed) back to back in rid order, `chains`/`last_commit` the
    /// logical bookkeeping. Timed — the restore streams every version back
    /// through the hierarchy, which is exactly the recovery cost
    /// `abl_recovery` measures.
    pub fn restore(
        mem: &mut MemoryHierarchy,
        user_schema: Schema,
        capacity: usize,
        rows: &[u8],
        chains: Vec<Vec<RowId>>,
        last_commit: Vec<u64>,
    ) -> Result<Self> {
        let w = Self::full_schema(&user_schema).unpadded_width();
        if !rows.len().is_multiple_of(w) {
            return Err(FabricError::Codec(format!(
                "checkpoint rows of {} bytes are not whole {w}-byte rows",
                rows.len()
            )));
        }
        let versions = rows.len() / w;
        if chains.len() != last_commit.len() {
            return Err(FabricError::Codec(format!(
                "checkpoint has {} chains but {} commit stamps",
                chains.len(),
                last_commit.len()
            )));
        }
        for chain in &chains {
            for &rid in chain {
                if rid >= versions {
                    return Err(FabricError::Codec(format!(
                        "checkpoint chain references version {rid} of {versions}"
                    )));
                }
            }
        }
        let mut t = VersionedTable::create(mem, user_schema, capacity)?;
        for row in rows.chunks_exact(w) {
            t.image.clear();
            t.image.extend_from_slice(row);
            t.inner.layout().canonicalize_text(&mut t.image)?;
            t.inner.append_image(mem, &t.image)?;
        }
        t.chains = chains;
        t.last_commit = last_commit;
        Ok(t)
    }

    /// The ephemeral-access descriptor for `cols` at snapshot `ts`: the RM
    /// device applies the visibility filter in hardware while gathering
    /// (paper §III-C).
    pub fn geometry_at(&self, cols: &[ColumnId], ts: u64) -> Result<Geometry> {
        for &c in cols {
            if c >= self.user_cols {
                return Err(FabricError::ColumnIndexOutOfRange {
                    index: c,
                    len: self.user_cols,
                });
            }
        }
        let layout = self.inner.layout();
        let filter = TsFilter {
            begin: layout.field(self.user_cols)?,
            end: layout.field(self.user_cols + 1)?,
            snapshot_ts: ts,
        };
        Ok(self.inner.geometry(cols)?.with_visibility(filter))
    }

    // ----------------------------------------------------------- vacuum

    /// Remove versions that are invisible to every snapshot at or after
    /// `watermark` (dead versions: `end != 0 && end <= watermark`),
    /// compacting the physical table in place. Returns the number of
    /// versions removed. Timed: compaction moves rows through the
    /// hierarchy.
    pub fn vacuum(&mut self, mem: &mut MemoryHierarchy, watermark: u64) -> Result<usize> {
        let total = self.inner.len();
        let mut keep = vec![true; total];
        for rid in 0..total {
            let end = self
                .inner
                .read_column(mem, rid, self.user_cols + 1)?
                .as_i64()? as u64;
            if end != 0 && end <= watermark {
                keep[rid] = false;
            }
        }
        // Compact: stable left shift of surviving rows.
        let mut new_of_old: Vec<Option<RowId>> = vec![None; total];
        let mut dst = 0usize;
        for src in 0..total {
            if keep[src] {
                self.inner.move_row(mem, src, dst);
                new_of_old[src] = Some(dst);
                dst += 1;
            }
        }
        let removed = total - dst;
        self.inner.set_len(dst);
        for chain in &mut self.chains {
            chain.retain_mut(|rid| match new_of_old[*rid] {
                Some(new) => {
                    *rid = new;
                    true
                }
                None => false,
            });
        }
        Ok(removed)
    }
}

/// A timestamp from its eight little-endian bytes.
fn stamp(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(le_array(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    fn setup() -> (MemoryHierarchy, VersionedTable) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
        let t = VersionedTable::create(&mut mem, schema, 1024).unwrap();
        (mem, t)
    }

    #[test]
    fn insert_then_read_at_snapshots() {
        let (mut mem, mut t) = setup();
        let l = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 5)
            .unwrap();
        assert_eq!(t.read_at(&mut mem, l, 1, 4).unwrap(), None); // before insert
        assert_eq!(t.read_at(&mut mem, l, 1, 5).unwrap(), Some(Value::I64(10)));
        assert_eq!(
            t.read_at(&mut mem, l, 1, 100).unwrap(),
            Some(Value::I64(10))
        );
    }

    #[test]
    fn update_appends_version_and_preserves_history() {
        let (mut mem, mut t) = setup();
        let l = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 5)
            .unwrap();
        t.apply_update(&mut mem, l, &[(1, Value::I64(20))], 8)
            .unwrap();
        assert_eq!(t.version_count(), 2);
        // Old snapshot still sees 10; new snapshot sees 20.
        assert_eq!(t.read_at(&mut mem, l, 1, 7).unwrap(), Some(Value::I64(10)));
        assert_eq!(t.read_at(&mut mem, l, 1, 8).unwrap(), Some(Value::I64(20)));
        assert_eq!(t.last_commit_ts(l).unwrap(), 8);
    }

    #[test]
    fn delete_hides_row_from_later_snapshots() {
        let (mut mem, mut t) = setup();
        let l = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 5)
            .unwrap();
        t.apply_delete(&mut mem, l, 9).unwrap();
        assert_eq!(t.read_at(&mut mem, l, 1, 8).unwrap(), Some(Value::I64(10)));
        assert_eq!(t.read_at(&mut mem, l, 1, 9).unwrap(), None);
        // Double delete and update-after-delete are errors.
        assert!(t.apply_delete(&mut mem, l, 10).is_err());
        assert!(t
            .apply_update(&mut mem, l, &[(1, Value::I64(1))], 10)
            .is_err());
    }

    #[test]
    fn geometry_at_carries_visibility_filter() {
        let (mut mem, mut t) = setup();
        t.apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 5)
            .unwrap();
        let g = t.geometry_at(&[1], 7).unwrap();
        let vis = g.visibility.expect("has ts filter");
        assert_eq!(vis.snapshot_ts, 7);
        assert_eq!(vis.begin.offset, 16); // after two i64 user columns
        assert_eq!(vis.end.offset, 24);
        assert!(g.validate().is_ok());
        // Requesting a hidden column is rejected.
        assert!(t.geometry_at(&[2], 7).is_err());
    }

    #[test]
    fn vacuum_drops_dead_versions_and_remaps_chains() {
        let (mut mem, mut t) = setup();
        let l0 = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 2)
            .unwrap();
        let l1 = t
            .apply_insert(&mut mem, &[Value::I64(2), Value::I64(20)], 3)
            .unwrap();
        t.apply_update(&mut mem, l0, &[(1, Value::I64(11))], 4)
            .unwrap();
        t.apply_update(&mut mem, l0, &[(1, Value::I64(12))], 6)
            .unwrap();
        t.apply_delete(&mut mem, l1, 7).unwrap();
        assert_eq!(t.version_count(), 4);

        // Watermark 5: the version of l0 that ended at 4 is dead; l1's
        // deletion at 7 is still visible to snapshots in (5, 7).
        let removed = t.vacuum(&mut mem, 5).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(t.version_count(), 3);
        assert_eq!(t.read_at(&mut mem, l0, 1, 5).unwrap(), Some(Value::I64(11)));
        assert_eq!(
            t.read_at(&mut mem, l0, 1, 100).unwrap(),
            Some(Value::I64(12))
        );
        assert_eq!(t.read_at(&mut mem, l1, 1, 6).unwrap(), Some(Value::I64(20)));

        // Watermark 10: l1's tombstoned version goes too.
        let removed = t.vacuum(&mut mem, 10).unwrap();
        assert_eq!(removed, 2); // l0's v2 (ended 6) and l1's deleted version
        assert_eq!(t.version_count(), 1);
        assert_eq!(
            t.read_at(&mut mem, l0, 1, 100).unwrap(),
            Some(Value::I64(12))
        );
        assert_eq!(t.read_at(&mut mem, l1, 1, 100).unwrap(), None);
    }

    #[test]
    fn snapshot_rows_are_physical_order_visible_user_rows() {
        let (mut mem, mut t) = setup();
        let l0 = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 2)
            .unwrap();
        let l1 = t
            .apply_insert(&mut mem, &[Value::I64(2), Value::I64(20)], 3)
            .unwrap();
        t.apply_update(&mut mem, l0, &[(1, Value::I64(11))], 4)
            .unwrap();
        t.apply_delete(&mut mem, l1, 5).unwrap();

        // At ts 3 both originals are visible, in insertion (physical) order.
        assert_eq!(
            t.snapshot_rows(&mut mem, 3).unwrap(),
            vec![
                vec![Value::I64(1), Value::I64(10)],
                vec![Value::I64(2), Value::I64(20)],
            ]
        );
        // At ts 5 the delete hides l1 and the update's new version — which
        // sits physically *after* l1's row — carries l0's current value.
        assert_eq!(
            t.snapshot_rows(&mut mem, 5).unwrap(),
            vec![vec![Value::I64(1), Value::I64(11)]]
        );
    }

    #[test]
    fn restore_reproduces_the_physical_table_exactly() {
        let (mut mem, mut t) = setup();
        let l0 = t
            .apply_insert(&mut mem, &[Value::I64(1), Value::I64(10)], 2)
            .unwrap();
        t.apply_insert(&mut mem, &[Value::I64(2), Value::I64(20)], 3)
            .unwrap();
        t.apply_update(&mut mem, l0, &[(1, Value::I64(11))], 4)
            .unwrap();

        let w = t.physical().layout().row_width();
        let rows = mem
            .read_untimed(t.physical().base(), t.version_count() * w)
            .to_vec();
        let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
        let r = VersionedTable::restore(
            &mut mem,
            schema,
            1024,
            &rows,
            t.chains().to_vec(),
            t.last_commits().to_vec(),
        )
        .unwrap();
        assert_eq!(r.version_count(), t.version_count());
        assert_eq!(r.logical_len(), t.logical_len());
        for ts in [2u64, 3, 4, 10] {
            assert_eq!(
                r.snapshot_rows(&mut mem, ts).unwrap(),
                t.snapshot_rows(&mut mem, ts).unwrap(),
                "snapshot at {ts} diverged"
            );
        }
        assert_eq!(r.last_commit_ts(l0).unwrap(), 4);

        // Corrupt bookkeeping is rejected, not UB.
        let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
        assert!(VersionedTable::restore(
            &mut mem,
            schema.clone(),
            16,
            &rows,
            vec![vec![99]],
            vec![1]
        )
        .is_err());
        assert!(VersionedTable::restore(
            &mut mem,
            schema.clone(),
            16,
            &rows,
            vec![vec![0]],
            vec![]
        )
        .is_err());
        assert!(VersionedTable::restore(&mut mem, schema, 16, &rows[1..], vec![], vec![]).is_err());
    }

    #[test]
    fn unknown_logical_rows_are_errors() {
        let (mut mem, mut t) = setup();
        assert!(t.read_at(&mut mem, 0, 0, 1).is_err());
        assert!(t
            .apply_update(&mut mem, 3, &[(0, Value::I64(1))], 2)
            .is_err());
        assert!(t.apply_delete(&mut mem, 3, 2).is_err());
    }

    #[test]
    fn insert_arity_checked() {
        let (mut mem, mut t) = setup();
        assert!(t.apply_insert(&mut mem, &[Value::I64(1)], 2).is_err());
    }
}
