//! The `Value` round trip the versioned table's row-image paths replaced,
//! kept as their oracle: every version decoded into `Vec<Value>` and
//! re-encoded on update, checkpoint and restore, exactly as
//! `mvcc::VersionedTable`, `mvcc::wal::encode_checkpoint` and
//! `VersionedTable::restore` did before they copied row images
//! (DESIGN.md §14, §18). Same `RowTable`, same charges in the same order.

use fabric_sim::MemoryHierarchy;
use fabric_types::chunk::Scalar;
use fabric_types::{ColumnId, ColumnView, FabricError, Result, Schema, Value};
use mvcc::LogicalId;
use mvcc::VersionedTable;
use rowstore::{RowId, RowTable};

pub struct OracleTable {
    pub inner: RowTable,
    user_cols: usize,
    pub chains: Vec<Vec<RowId>>,
    pub last_commit: Vec<u64>,
}

impl OracleTable {
    pub fn create(mem: &mut MemoryHierarchy, user_schema: &Schema, capacity: usize) -> Self {
        let full = VersionedTable::full_schema(user_schema);
        OracleTable {
            inner: RowTable::create(mem, full, capacity).unwrap(),
            user_cols: user_schema.len(),
            chains: Vec::new(),
            last_commit: Vec::new(),
        }
    }

    fn newest(&self, logical: LogicalId) -> Result<RowId> {
        self.chains
            .get(logical)
            .and_then(|c| c.last().copied())
            .ok_or_else(|| FabricError::Txn(format!("unknown logical row {logical}")))
    }

    pub fn latest_is_live(&self, mem: &MemoryHierarchy, logical: LogicalId) -> Result<bool> {
        let row = self.inner.decode_row_untimed(mem, self.newest(logical)?)?;
        Ok(row[self.user_cols + 1] == Value::I64(0))
    }

    pub fn insert(
        &mut self,
        mem: &mut MemoryHierarchy,
        values: &[Value],
        commit_ts: u64,
    ) -> Result<LogicalId> {
        let mut row = values.to_vec();
        row.push(Value::I64(commit_ts as i64));
        row.push(Value::I64(0));
        let rid = self.inner.append(mem, &row)?;
        self.chains.push(vec![rid]);
        self.last_commit.push(commit_ts);
        Ok(self.chains.len() - 1)
    }

    pub fn update(
        &mut self,
        mem: &mut MemoryHierarchy,
        logical: LogicalId,
        updates: &[(ColumnId, Value)],
        commit_ts: u64,
    ) -> Result<()> {
        let cur = self.newest(logical)?;
        let mut row = {
            let w = self.inner.layout().row_width();
            mem.touch_read(self.inner.row_addr(cur), w);
            self.inner.decode_row_untimed(mem, cur)?
        };
        if row[self.user_cols + 1] != Value::I64(0) {
            return Err(FabricError::Txn(format!(
                "logical row {logical} is deleted"
            )));
        }
        for (col, v) in updates {
            if *col >= self.user_cols {
                return Err(FabricError::ColumnIndexOutOfRange {
                    index: *col,
                    len: self.user_cols,
                });
            }
            row[*col] = v.clone();
        }
        self.inner
            .update_column(mem, cur, self.user_cols + 1, &Value::I64(commit_ts as i64))?;
        row[self.user_cols] = Value::I64(commit_ts as i64);
        row[self.user_cols + 1] = Value::I64(0);
        let rid = self.inner.append(mem, &row)?;
        self.chains[logical].push(rid);
        self.last_commit[logical] = commit_ts;
        Ok(())
    }

    pub fn delete(
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

    /// The checkpoint blob, every version decoded and re-encoded column
    /// by column.
    pub fn encode_checkpoint(&self, mem: &MemoryHierarchy, watermark: u64) -> Result<Vec<u8>> {
        let full = self.inner.schema();
        let mut out = Vec::new();
        out.extend_from_slice(&watermark.to_le_bytes());
        out.extend_from_slice(&u32::try_from(self.inner.len()).unwrap().to_le_bytes());
        for rid in 0..self.inner.len() {
            let row = self.inner.decode_row_untimed(mem, rid)?;
            for (col, v) in row.iter().enumerate() {
                let ty = full.column(col)?.ty;
                let at = out.len();
                out.resize(at + ty.width(), 0);
                v.encode_into(ty, &mut out[at..])?;
            }
        }
        out.extend_from_slice(&u32::try_from(self.chains.len()).unwrap().to_le_bytes());
        for (chain, stamp) in self.chains.iter().zip(&self.last_commit) {
            out.extend_from_slice(&stamp.to_le_bytes());
            out.extend_from_slice(&u32::try_from(chain.len()).unwrap().to_le_bytes());
            for &rid in chain {
                out.extend_from_slice(&u32::try_from(rid).unwrap().to_le_bytes());
            }
        }
        Ok(out)
    }

    /// A table rebuilt from `blob`: every row decoded into `Value`s and
    /// appended.
    pub fn restore(
        mem: &mut MemoryHierarchy,
        user_schema: &Schema,
        capacity: usize,
        blob: &[u8],
    ) -> Result<Self> {
        let full = VersionedTable::full_schema(user_schema);
        let img = mvcc::wal::decode_checkpoint(&full, blob)?;
        let mut t = OracleTable::create(mem, user_schema, capacity);
        for image in img.rows.chunks_exact(full.unpadded_width()) {
            let mut row = Vec::with_capacity(full.len());
            let mut at = 0;
            for (_, col) in full.iter() {
                row.push(Value::decode(col.ty, &image[at..at + col.ty.width()]));
                at += col.ty.width();
            }
            t.inner.append(mem, &row)?;
        }
        t.chains = img.chains;
        t.last_commit = img.last_commit;
        Ok(t)
    }

    fn version_visible(&self, mem: &mut MemoryHierarchy, rid: RowId, ts: u64) -> Result<bool> {
        let begin = self.inner.read_column(mem, rid, self.user_cols)?.as_i64()? as u64;
        let end = self
            .inner
            .read_column(mem, rid, self.user_cols + 1)?
            .as_i64()? as u64;
        Ok(begin <= ts && (end == 0 || ts < end))
    }

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

    /// The software visibility sum as it charged before: a `ColumnView`
    /// and a `Result` per version, the check and the sum charged apart.
    pub fn sw_visible_sum(
        &self,
        mem: &mut MemoryHierarchy,
        col: ColumnId,
        ts: u64,
    ) -> Result<(f64, u64)> {
        let costs = mem.costs();
        let layout = self.inner.layout();
        let begin_r = layout.range(self.user_cols)?;
        let end_r = layout.range(self.user_cols + 1)?;
        let col_r = layout.range(col)?;
        let col_ty = layout.column_type(col)?;
        let w = layout.row_width();
        let mut sum = 0.0f64;
        let mut visible = 0u64;
        for rid in 0..self.inner.len() {
            let addr = self.inner.row_addr(rid);
            mem.touch_read_gather(&[
                (addr + begin_r.start as u64, 16),
                (addr + col_r.start as u64, col_ty.width()),
            ]);
            mem.cpu(costs.vector_elem + costs.value_op * 2);
            let row = mem.bytes(addr, w);
            let begin = u64::read(&row[begin_r.clone()]);
            let end = u64::read(&row[end_r.clone()]);
            let value = ColumnView::new(col_ty, &row[col_r.clone()], w).f64_at(0);
            if begin <= ts && (end == 0 || ts < end) {
                mem.cpu(costs.f64_op);
                sum += value?;
                visible += 1;
            } else {
                mem.cpu(costs.branch_miss);
            }
        }
        Ok((sum, visible))
    }
}
