//! Relational schemas with fixed-width columns.
//!
//! The Relational Fabric operates on fixed-width row layouts (the hardware
//! gathers at byte offsets known per geometry, cf. paper §IV-A: "fine-grained
//! information on the exact byte-wise location of data items"). Variable-width
//! data is represented as fixed-capacity strings, the same choice the authors'
//! prototype makes (`char text_fld[12]` in paper Fig. 3).

use crate::error::{FabricError, Result};

/// Index of a column within a [`Schema`].
pub type ColumnId = usize;

/// Physical type of a column. All types are fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Days since 1970-01-01, stored as `u32` (TPC-H dates fit easily).
    Date,
    /// Fixed-capacity ASCII string, zero padded.
    FixedStr(usize),
}

impl ColumnType {
    /// Width of the column in bytes.
    #[inline]
    pub fn width(&self) -> usize {
        match self {
            ColumnType::I8 => 1,
            ColumnType::I16 => 2,
            ColumnType::I32 | ColumnType::F32 | ColumnType::Date => 4,
            ColumnType::I64 | ColumnType::F64 => 8,
            ColumnType::FixedStr(n) => *n,
        }
    }

    /// Whether the type is numeric (orderable by numeric comparison).
    pub fn is_numeric(&self) -> bool {
        !matches!(self, ColumnType::FixedStr(_))
    }

    /// Human-readable name, used in error messages and EXPLAIN output.
    pub fn name(&self) -> String {
        match self {
            ColumnType::I8 => "i8".into(),
            ColumnType::I16 => "i16".into(),
            ColumnType::I32 => "i32".into(),
            ColumnType::I64 => "i64".into(),
            ColumnType::F32 => "f32".into(),
            ColumnType::F64 => "f64".into(),
            ColumnType::Date => "date".into(),
            ColumnType::FixedStr(n) => format!("char({n})"),
        }
    }
}

/// A single column definition: name plus physical type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
///
/// A schema is deliberately minimal: the physical placement of columns in a
/// row is the job of [`crate::layout::RowLayout`], which is derived from the
/// schema (plus optional padding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ColumnType)]) -> Self {
        Schema {
            columns: pairs.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        }
    }

    /// A synthetic schema of `n` columns named `c0..c{n-1}`, all of type `ty`.
    ///
    /// The paper's microbenchmarks (Figs. 5, 6) use 16 four-byte columns in a
    /// 64-byte row; `Schema::uniform(16, ColumnType::I32)` reproduces that.
    pub fn uniform(n: usize, ty: ColumnType) -> Self {
        Schema {
            columns: (0..n)
                .map(|i| ColumnDef::new(format!("c{i}"), ty))
                .collect(),
        }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Look a column up by name.
    pub fn column_id(&self, name: &str) -> Result<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| FabricError::UnknownColumn(name.to_string()))
    }

    /// Column definition by index.
    pub fn column(&self, id: ColumnId) -> Result<&ColumnDef> {
        self.columns
            .get(id)
            .ok_or(FabricError::ColumnIndexOutOfRange {
                index: id,
                len: self.columns.len(),
            })
    }

    /// Sum of raw column widths (no padding).
    pub fn unpadded_width(&self) -> usize {
        self.columns.iter().map(|c| c.ty.width()).sum()
    }

    /// Iterator over `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &ColumnDef)> {
        self.columns.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ColumnType::I8.width(), 1);
        assert_eq!(ColumnType::I16.width(), 2);
        assert_eq!(ColumnType::I32.width(), 4);
        assert_eq!(ColumnType::I64.width(), 8);
        assert_eq!(ColumnType::F32.width(), 4);
        assert_eq!(ColumnType::F64.width(), 8);
        assert_eq!(ColumnType::Date.width(), 4);
        assert_eq!(ColumnType::FixedStr(12).width(), 12);
    }

    #[test]
    fn uniform_schema_matches_paper_microbenchmark() {
        let s = Schema::uniform(16, ColumnType::I32);
        assert_eq!(s.len(), 16);
        assert_eq!(s.unpadded_width(), 64);
        assert_eq!(s.column_id("c0").unwrap(), 0);
        assert_eq!(s.column_id("c15").unwrap(), 15);
    }

    #[test]
    fn unknown_column_is_error() {
        let s = Schema::uniform(4, ColumnType::I64);
        assert!(matches!(
            s.column_id("nope"),
            Err(FabricError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.column(9),
            Err(FabricError::ColumnIndexOutOfRange { index: 9, len: 4 })
        ));
    }

    #[test]
    fn paper_fig3_row_struct() {
        // struct row { long key; char[12]; char[16]; long x4 } = 68 bytes raw.
        let s = Schema::from_pairs(&[
            ("key", ColumnType::I64),
            ("text_fld1", ColumnType::FixedStr(12)),
            ("text_fld2", ColumnType::FixedStr(16)),
            ("num_fld1", ColumnType::I64),
            ("num_fld2", ColumnType::I64),
            ("num_fld3", ColumnType::I64),
            ("num_fld4", ColumnType::I64),
        ]);
        assert_eq!(s.unpadded_width(), 8 + 12 + 16 + 8 * 4);
    }
}
