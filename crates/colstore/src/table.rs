//! Column-oriented tables: one dense array per column.

use fabric_sim::MemoryHierarchy;
use fabric_types::{Addr, ColumnId, ColumnType, FabricError, Result, Schema, Value};

/// Location and type of one column array.
#[derive(Debug, Clone, Copy)]
pub struct ColRef {
    pub addr: Addr,
    pub ty: ColumnType,
}

impl ColRef {
    /// Address of element `row`.
    #[inline]
    pub fn at(&self, row: usize) -> Addr {
        self.addr + (row * self.ty.width()) as u64
    }
}

/// A column-oriented table: each column is a contiguous array in the arena.
///
/// This is the layout a classic analytical system materializes — and the
/// duplicate copy a Relational Fabric deployment would not need.
pub struct ColTable {
    schema: Schema,
    cols: Vec<ColRef>,
    rows: usize,
    capacity: usize,
    /// Scratch arrays for materialized selection vectors (ping/pong): the
    /// column-at-a-time engine writes each pass's qualifying positions and
    /// reads them back in the next pass, and that traffic is real.
    sv_in: Addr,
    sv_out: Addr,
}

impl ColTable {
    /// Allocate arrays for `capacity` rows.
    pub fn create(mem: &mut MemoryHierarchy, schema: Schema, capacity: usize) -> Result<Self> {
        let line = mem.config().line_size;
        let mut cols = Vec::with_capacity(schema.len());
        for (_, def) in schema.iter() {
            let addr = mem.alloc(capacity * def.ty.width(), line)?;
            cols.push(ColRef { addr, ty: def.ty });
        }
        let sv_in = mem.alloc(capacity * 4, line)?;
        let sv_out = mem.alloc(capacity * 4, line)?;
        // Reserved and unused: scratch for the intermediate value arrays a
        // column-at-a-time engine writes between passes. No kernel here
        // materializes one, but the address of every later allocation —
        // and with it every recorded cycle count — depends on this block.
        mem.alloc(capacity * 8, line)?;
        Ok(ColTable {
            schema,
            cols,
            rows: 0,
            capacity,
            sv_in,
            sv_out,
        })
    }

    /// Address of slot `i` of the selection-vector scratch being *read*.
    pub fn sv_in_addr(&self, i: usize) -> Addr {
        self.sv_in + (i * 4) as u64
    }

    /// Address of slot `i` of the selection-vector scratch being *written*.
    pub fn sv_out_addr(&self, i: usize) -> Addr {
        self.sv_out + (i * 4) as u64
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Discard all rows (keeps the allocation). Used when a table acts as a
    /// refreshable analytical copy of row-oriented base data.
    pub fn clear(&mut self) {
        self.rows = 0;
    }

    /// The array backing column `id`.
    pub fn col(&self, id: ColumnId) -> Result<ColRef> {
        self.cols
            .get(id)
            .copied()
            .ok_or(FabricError::ColumnIndexOutOfRange {
                index: id,
                len: self.cols.len(),
            })
    }

    /// Column id by name.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.schema.column_id(name)
    }

    fn encode_at(
        &self,
        mem: &mut MemoryHierarchy,
        row: usize,
        values: &[Value],
        timed: bool,
    ) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(FabricError::Internal(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        let mut buf = [0u8; 64];
        for (c, v) in values.iter().enumerate() {
            let col = self.cols[c];
            let w = col.ty.width();
            if w > buf.len() {
                return Err(FabricError::Internal("column wider than 64 bytes".into()));
            }
            v.encode_into(col.ty, &mut buf[..w])?;
            if timed {
                // The column-store insert penalty: one scattered write per
                // column.
                mem.write(col.at(row), &buf[..w]);
            } else {
                mem.write_untimed(col.at(row), &buf[..w]);
            }
        }
        Ok(())
    }

    /// Append a row through the timed hierarchy: `n_columns` scattered
    /// writes — the reason column stores are "an inefficient layout for
    /// inserts" (paper §II).
    pub fn append(&mut self, mem: &mut MemoryHierarchy, values: &[Value]) -> Result<usize> {
        if self.rows == self.capacity {
            return Err(FabricError::Internal("table full".into()));
        }
        mem.cpu(mem.costs().value_op * self.schema.len() as u64);
        self.encode_at(mem, self.rows, values, true)?;
        self.rows += 1;
        Ok(self.rows - 1)
    }

    /// Untimed bulk load.
    pub fn load(&mut self, mem: &mut MemoryHierarchy, values: &[Value]) -> Result<usize> {
        if self.rows == self.capacity {
            return Err(FabricError::Internal("table full".into()));
        }
        self.encode_at(mem, self.rows, values, false)?;
        self.rows += 1;
        Ok(self.rows - 1)
    }

    /// Decode one value without timing (verification helper).
    pub fn value_untimed(&self, mem: &MemoryHierarchy, row: usize, col: ColumnId) -> Result<Value> {
        let c = self.col(col)?;
        let bytes = mem.read_untimed(c.at(row), c.ty.width());
        Ok(Value::decode(c.ty, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::zynq_a53())
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("qty", ColumnType::I32),
            ("name", ColumnType::FixedStr(4)),
        ])
    }

    #[test]
    fn load_and_read_back() {
        let mut mem = mem();
        let mut t = ColTable::create(&mut mem, schema(), 8).unwrap();
        t.load(
            &mut mem,
            &[Value::I64(1), Value::I32(10), Value::Str("ab".into())],
        )
        .unwrap();
        t.load(
            &mut mem,
            &[Value::I64(2), Value::I32(20), Value::Str("cd".into())],
        )
        .unwrap();
        assert_eq!(t.value_untimed(&mem, 1, 0).unwrap(), Value::I64(2));
        assert_eq!(t.value_untimed(&mem, 0, 1).unwrap(), Value::I32(10));
        assert_eq!(
            t.value_untimed(&mem, 1, 2).unwrap(),
            Value::Str("cd".into())
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn columns_are_contiguous_arrays() {
        let mut mem = mem();
        let mut t = ColTable::create(&mut mem, schema(), 100).unwrap();
        for i in 0..50i64 {
            t.load(
                &mut mem,
                &[Value::I64(i), Value::I32(i as i32), Value::Str("x".into())],
            )
            .unwrap();
        }
        let qty = t.col(1).unwrap();
        assert_eq!(qty.at(10) - qty.at(0), 40); // 10 * 4 bytes
                                                // Raw array contents are dense i32s.
        let raw = mem.read_untimed(qty.addr, 50 * 4);
        let v7 = i32::from_le_bytes(raw[28..32].try_into().unwrap());
        assert_eq!(v7, 7);
    }

    #[test]
    fn timed_append_is_more_expensive_per_row_than_rowstore_style_write() {
        let mut mem = mem();
        let mut t = ColTable::create(&mut mem, schema(), 1024).unwrap();
        let t0 = mem.now();
        t.append(
            &mut mem,
            &[Value::I64(1), Value::I32(2), Value::Str("a".into())],
        )
        .unwrap();
        let col_insert = mem.now() - t0;
        // Three scattered lines (one per column) vs one line for a 16-byte
        // row: the column insert must touch at least 3 lines.
        assert!(mem.stats().line_accesses >= 3);
        assert!(col_insert > 0);
    }

    #[test]
    fn capacity_and_arity_checks() {
        let mut mem = mem();
        let mut t = ColTable::create(&mut mem, schema(), 1).unwrap();
        let row = [Value::I64(1), Value::I32(2), Value::Str("a".into())];
        t.load(&mut mem, &row).unwrap();
        assert!(t.load(&mut mem, &row).is_err());
        assert!(t.col(7).is_err());
    }
}
