//! Row-oriented base tables.

use fabric_sim::MemoryHierarchy;
use fabric_types::{Addr, ColumnId, FabricError, Geometry, Result, RowLayout, Schema, Value};

/// Index of a row within a table.
pub type RowId = usize;

/// A fixed-width, row-oriented table stored contiguously in the simulated
/// arena. This is the *single* base layout of the Relational Fabric design:
/// OLTP writes land here, the RM device gathers from here, and the ROW
/// path scans it directly.
pub struct RowTable {
    schema: Schema,
    layout: RowLayout,
    base: Addr,
    rows: usize,
    capacity: usize,
    /// One row image, reused by every write that encodes `Value`s.
    row_buf: Vec<u8>,
}

impl RowTable {
    /// Create a table with a packed layout and room for `capacity` rows.
    pub fn create(mem: &mut MemoryHierarchy, schema: Schema, capacity: usize) -> Result<Self> {
        let layout = RowLayout::packed(&schema);
        Self::create_with_layout(mem, schema, layout, capacity)
    }

    /// Create with an explicit layout (e.g. padded to 64-byte rows for the
    /// paper's microbenchmarks).
    pub fn create_with_layout(
        mem: &mut MemoryHierarchy,
        schema: Schema,
        layout: RowLayout,
        capacity: usize,
    ) -> Result<Self> {
        if layout.num_columns() != schema.len() {
            return Err(FabricError::Internal(
                "layout/schema column count mismatch".into(),
            ));
        }
        let base = mem.alloc(capacity * layout.row_width(), mem.config().line_size)?;
        Ok(RowTable {
            schema,
            layout,
            base,
            rows: 0,
            capacity,
            row_buf: Vec::new(),
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Base address of row 0.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Address of row `id`.
    #[inline]
    pub fn row_addr(&self, id: RowId) -> Addr {
        debug_assert!(id < self.rows || id < self.capacity);
        self.base + (id * self.layout.row_width()) as u64
    }

    fn check_room(&self) -> Result<()> {
        if self.rows == self.capacity {
            return Err(FabricError::Internal("table full".into()));
        }
        Ok(())
    }

    /// `values` encoded into the reused row buffer, which the caller puts
    /// back into `row_buf` when done with it.
    fn encode_row(&mut self, values: &[Value]) -> Result<Vec<u8>> {
        if values.len() != self.schema.len() {
            return Err(FabricError::Internal(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        let mut buf = std::mem::take(&mut self.row_buf);
        buf.clear();
        buf.resize(self.layout.row_width(), 0);
        for (id, v) in values.iter().enumerate() {
            let ty = self.layout.column_type(id)?;
            let range = self.layout.range(id)?;
            v.encode_into(ty, &mut buf[range])?;
        }
        Ok(buf)
    }

    /// Append a row through the timed hierarchy — the OLTP ingest path.
    /// Row stores shine here: one contiguous write per row.
    pub fn append(&mut self, mem: &mut MemoryHierarchy, values: &[Value]) -> Result<RowId> {
        self.check_room()?;
        let buf = self.encode_row(values)?;
        let id = self.append_image(mem, &buf);
        self.row_buf = buf;
        id
    }

    /// Append one encoded row (`image`, exactly a row of this layout)
    /// through the timed hierarchy, charging what [`Self::append`] charges:
    /// a `value_op` per column, then the write.
    pub fn append_image(&mut self, mem: &mut MemoryHierarchy, image: &[u8]) -> Result<RowId> {
        self.check_room()?;
        if image.len() != self.layout.row_width() {
            return Err(FabricError::Internal(format!(
                "row image of {} bytes, rows are {} wide",
                image.len(),
                self.layout.row_width()
            )));
        }
        let id = self.rows;
        mem.cpu(mem.costs().value_op * self.schema.len() as u64);
        mem.write(self.row_addr(id), image);
        self.rows += 1;
        Ok(id)
    }

    /// Append without charging simulated time — bulk loading outside the
    /// measured window.
    pub fn load(&mut self, mem: &mut MemoryHierarchy, values: &[Value]) -> Result<RowId> {
        self.check_room()?;
        let buf = self.encode_row(values)?;
        let id = self.rows;
        mem.write_untimed(self.row_addr(id), &buf);
        self.row_buf = buf;
        self.rows += 1;
        Ok(id)
    }

    /// Overwrite one column of an existing row through the timed hierarchy
    /// — the in-place OLTP update path.
    pub fn update_column(
        &mut self,
        mem: &mut MemoryHierarchy,
        id: RowId,
        col: ColumnId,
        v: &Value,
    ) -> Result<()> {
        if id >= self.rows {
            return Err(FabricError::Internal(format!("row {id} out of bounds")));
        }
        let ty = self.layout.column_type(col)?;
        let mut buf = std::mem::take(&mut self.row_buf);
        buf.clear();
        buf.resize(ty.width(), 0);
        v.encode_into(ty, &mut buf)?;
        mem.cpu(mem.costs().value_op);
        mem.write(self.row_addr(id) + self.layout.offset(col)? as u64, &buf);
        self.row_buf = buf;
        Ok(())
    }

    /// Decode one full row without charging time (verification helper).
    pub fn decode_row_untimed(&self, mem: &MemoryHierarchy, id: RowId) -> Result<Vec<Value>> {
        let row = mem.read_untimed(self.row_addr(id), self.layout.row_width());
        (0..self.schema.len())
            .map(|c| {
                let ty = self.layout.column_type(c)?;
                Ok(Value::decode(ty, &row[self.layout.range(c)?]))
            })
            .collect()
    }

    /// Decode a single column value, charging a timed read of that field —
    /// the OLTP point-read path.
    pub fn read_column(
        &self,
        mem: &mut MemoryHierarchy,
        id: RowId,
        col: ColumnId,
    ) -> Result<Value> {
        if id >= self.rows {
            return Err(FabricError::Internal(format!("row {id} out of bounds")));
        }
        let ty = self.layout.column_type(col)?;
        let addr = self.row_addr(id) + self.layout.offset(col)? as u64;
        mem.touch_read(addr, ty.width());
        mem.cpu(mem.costs().value_op);
        let bytes = mem.bytes(addr, ty.width());
        Ok(Value::decode(ty, bytes))
    }

    /// Overwrite the row count. For storage-maintenance operations (e.g.
    /// MVCC vacuum compaction) that rewrite the tail of the table; `new_len`
    /// must not exceed the current length.
    pub fn set_len(&mut self, new_len: usize) {
        assert!(new_len <= self.rows, "set_len may only shrink the table");
        self.rows = new_len;
    }

    /// Copy the raw bytes of row `src` over row `dst` through the timed
    /// hierarchy (compaction move).
    pub fn move_row(&mut self, mem: &mut MemoryHierarchy, src: RowId, dst: RowId) {
        if src == dst {
            return;
        }
        let w = self.layout.row_width();
        let mut buf = vec![0u8; w];
        mem.read_into(self.row_addr(src), &mut buf);
        mem.write(self.row_addr(dst), &buf);
    }

    /// Build the [`Geometry`] describing an ephemeral access to `cols` of
    /// this table — the bridge from the row store to Relational Memory.
    pub fn geometry(&self, cols: &[ColumnId]) -> Result<Geometry> {
        let fields = self.layout.fields(cols)?;
        Ok(Geometry::packed(
            self.base,
            self.layout.row_width(),
            self.rows,
            fields,
        ))
    }

    /// Geometry of columns named `names`.
    pub fn geometry_by_name(&self, names: &[&str]) -> Result<Geometry> {
        let ids: Vec<ColumnId> = names
            .iter()
            .map(|n| self.schema.column_id(n))
            .collect::<Result<_>>()?;
        self.geometry(&ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::ColumnType;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::zynq_a53())
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("key", ColumnType::I64),
            ("flag", ColumnType::FixedStr(4)),
            ("qty", ColumnType::F64),
        ])
    }

    #[test]
    fn append_and_decode_roundtrip() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 16).unwrap();
        let row = vec![Value::I64(42), Value::Str("ab".into()), Value::F64(1.5)];
        let id = t.append(&mut mem, &row).unwrap();
        assert_eq!(t.decode_row_untimed(&mem, id).unwrap(), row);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn append_charges_time_load_does_not() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 16).unwrap();
        let row = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.0)];
        let t0 = mem.now();
        t.load(&mut mem, &row).unwrap();
        assert_eq!(mem.now(), t0);
        t.append(&mut mem, &row).unwrap();
        assert!(mem.now() > t0);
    }

    #[test]
    fn append_image_charges_what_append_charges() {
        let (mut m1, mut m2) = (mem(), mem());
        let mut a = RowTable::create(&mut m1, schema(), 2).unwrap();
        let mut b = RowTable::create(&mut m2, schema(), 2).unwrap();
        let row = vec![Value::I64(-3), Value::Str("ab".into()), Value::F64(0.25)];
        a.append(&mut m1, &row).unwrap();
        let w = a.layout().row_width();
        let image = m1.read_untimed(a.row_addr(0), w).to_vec();
        b.append_image(&mut m2, &image).unwrap();
        assert_eq!((m1.now(), m1.stats()), (m2.now(), m2.stats()));
        assert_eq!(b.decode_row_untimed(&m2, 0).unwrap(), row);
        assert!(b.append_image(&mut m2, &image[1..]).is_err());
        b.append_image(&mut m2, &image).unwrap();
        assert!(b.append_image(&mut m2, &image).is_err());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 1).unwrap();
        let row = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.0)];
        t.append(&mut mem, &row).unwrap();
        assert!(t.append(&mut mem, &row).is_err());
    }

    #[test]
    fn update_and_point_read_column() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 4).unwrap();
        let row = vec![Value::I64(7), Value::Str("hi".into()), Value::F64(2.0)];
        let id = t.append(&mut mem, &row).unwrap();
        t.update_column(&mut mem, id, 2, &Value::F64(9.5)).unwrap();
        assert_eq!(t.read_column(&mut mem, id, 2).unwrap(), Value::F64(9.5));
        assert_eq!(t.read_column(&mut mem, id, 0).unwrap(), Value::I64(7));
        assert!(t.read_column(&mut mem, 99, 0).is_err());
        assert!(t.update_column(&mut mem, 99, 0, &Value::I64(0)).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 4).unwrap();
        assert!(t.append(&mut mem, &[Value::I64(1)]).is_err());
    }

    #[test]
    fn geometry_describes_the_table() {
        let mut mem = mem();
        let mut t = RowTable::create(&mut mem, schema(), 4).unwrap();
        let row = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.0)];
        t.load(&mut mem, &row).unwrap();
        t.load(&mut mem, &row).unwrap();
        let g = t.geometry_by_name(&["qty", "key"]).unwrap();
        assert_eq!(g.rows, 2);
        assert_eq!(g.row_width, 20);
        assert_eq!(g.fields[0].offset, 12); // qty after key(8) + flag(4)
        assert_eq!(g.fields[1].offset, 0);
        assert_eq!(g.output_row_width(), 16);
        assert!(g.validate().is_ok());
        assert!(t.geometry_by_name(&["nope"]).is_err());
    }

    #[test]
    fn padded_layout_table() {
        let mut mem = mem();
        let s = Schema::uniform(3, ColumnType::I32);
        let layout = RowLayout::padded(&s, 64).unwrap();
        let mut t = RowTable::create_with_layout(&mut mem, s, layout, 8).unwrap();
        let id = t
            .load(&mut mem, &[Value::I32(1), Value::I32(2), Value::I32(3)])
            .unwrap();
        assert_eq!(t.row_addr(id + 1) - t.row_addr(id), 64);
    }
}
