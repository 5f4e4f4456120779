//! Physical row layouts.
//!
//! A [`RowLayout`] maps each schema column to a byte offset within a
//! fixed-width row, optionally padding the row to a target width (the paper's
//! microbenchmarks use 64-byte rows so one row is exactly one cache line).

use crate::error::{FabricError, Result};
use crate::geometry::FieldSlice;
use crate::schema::{ColumnId, ColumnType, Schema};
use crate::value::{trim_padding, Value};

/// Byte-level placement of a schema's columns within a fixed-width row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    offsets: Vec<usize>,
    types: Vec<ColumnType>,
    row_width: usize,
}

impl RowLayout {
    /// Packed layout: columns laid out back to back in schema order,
    /// no padding.
    pub fn packed(schema: &Schema) -> Self {
        let mut offsets = Vec::with_capacity(schema.len());
        let mut types = Vec::with_capacity(schema.len());
        let mut off = 0usize;
        for (_, col) in schema.iter() {
            offsets.push(off);
            types.push(col.ty);
            off += col.ty.width();
        }
        RowLayout {
            offsets,
            types,
            row_width: off,
        }
    }

    /// Packed layout padded up to `row_width` bytes.
    ///
    /// Errors if the columns do not fit.
    pub fn padded(schema: &Schema, row_width: usize) -> Result<Self> {
        let mut layout = Self::packed(schema);
        if layout.row_width > row_width {
            return Err(FabricError::InvalidGeometry(format!(
                "columns need {} bytes, requested row width is {row_width}",
                layout.row_width
            )));
        }
        layout.row_width = row_width;
        Ok(layout)
    }

    /// Packed layout padded up to the next multiple of `align` bytes.
    pub fn aligned(schema: &Schema, align: usize) -> Self {
        let mut layout = Self::packed(schema);
        let rem = layout.row_width % align;
        if rem != 0 {
            layout.row_width += align - rem;
        }
        layout
    }

    /// Total row width in bytes, including padding.
    #[inline]
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.offsets.len()
    }

    /// Byte offset of column `id` within a row.
    #[inline]
    pub fn offset(&self, id: ColumnId) -> Result<usize> {
        self.offsets
            .get(id)
            .copied()
            .ok_or(FabricError::ColumnIndexOutOfRange {
                index: id,
                len: self.offsets.len(),
            })
    }

    /// Physical type of column `id`.
    #[inline]
    pub fn column_type(&self, id: ColumnId) -> Result<ColumnType> {
        self.types
            .get(id)
            .copied()
            .ok_or(FabricError::ColumnIndexOutOfRange {
                index: id,
                len: self.types.len(),
            })
    }

    /// Byte width of column `id`.
    pub fn width(&self, id: ColumnId) -> Result<usize> {
        Ok(self.column_type(id)?.width())
    }

    /// The field slice describing column `id`, as used in
    /// [`crate::geometry::Geometry`] field lists.
    pub fn field(&self, id: ColumnId) -> Result<FieldSlice> {
        Ok(FieldSlice::new(id, self.offset(id)?, self.column_type(id)?))
    }

    /// Field slices for a list of columns, preserving the requested order.
    pub fn fields(&self, ids: &[ColumnId]) -> Result<Vec<FieldSlice>> {
        ids.iter().map(|&id| self.field(id)).collect()
    }

    /// Byte range of column `id` within a row buffer.
    #[inline]
    pub fn range(&self, id: ColumnId) -> Result<std::ops::Range<usize>> {
        let off = self.offset(id)?;
        Ok(off..off + self.width(id)?)
    }

    /// Sum of the widths of `ids` — the payload bytes an ephemeral access to
    /// those columns moves per row.
    pub fn group_width(&self, ids: &[ColumnId]) -> Result<usize> {
        let mut total = 0;
        for &id in ids {
            total += self.width(id)?;
        }
        Ok(total)
    }

    /// Rewrite, in place, the `FixedStr` fields of the whole rows of this
    /// layout laid back to back in `rows` into the bytes a round trip
    /// through [`Value::decode`] and [`Value::encode_into`] leaves: the
    /// text up to the first NUL, decoded lossily, then zero padded.
    /// Every other type is already a fixed point of that round trip, so a
    /// row image canonicalised here is byte for byte the row its decoded
    /// `Value`s re-encode to — the same bytes, or the same error when a
    /// lossy decode no longer fits the field.
    pub fn canonicalize_text(&self, rows: &mut [u8]) -> Result<()> {
        let text = |ty: &ColumnType| matches!(ty, ColumnType::FixedStr(_));
        if self.row_width == 0 || !self.types.iter().any(text) {
            return Ok(());
        }
        for row in rows.chunks_exact_mut(self.row_width) {
            for (&ty, &off) in self.types.iter().zip(&self.offsets) {
                if !text(&ty) {
                    continue;
                }
                let field = &mut row[off..off + ty.width()];
                let kept = trim_padding(field).len();
                if std::str::from_utf8(&field[..kept]).is_ok() {
                    field[kept..].fill(0);
                } else {
                    let lossy = String::from_utf8_lossy(&field[..kept]).into_owned();
                    Value::Str(lossy).encode_into(ty, field)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn paper_schema() -> Schema {
        Schema::uniform(16, ColumnType::I32)
    }

    #[test]
    fn packed_offsets() {
        let layout = RowLayout::packed(&paper_schema());
        assert_eq!(layout.row_width(), 64);
        assert_eq!(layout.offset(0).unwrap(), 0);
        assert_eq!(layout.offset(1).unwrap(), 4);
        assert_eq!(layout.offset(15).unwrap(), 60);
        assert_eq!(layout.width(3).unwrap(), 4);
        assert_eq!(layout.column_type(3).unwrap(), ColumnType::I32);
    }

    #[test]
    fn padded_layout() {
        let s = Schema::uniform(3, ColumnType::I32);
        let layout = RowLayout::padded(&s, 64).unwrap();
        assert_eq!(layout.row_width(), 64);
        assert_eq!(layout.offset(2).unwrap(), 8);
        assert!(RowLayout::padded(&s, 8).is_err());
    }

    #[test]
    fn aligned_layout() {
        let s = Schema::from_pairs(&[("a", ColumnType::I64), ("b", ColumnType::I16)]);
        let layout = RowLayout::aligned(&s, 16);
        assert_eq!(layout.row_width(), 16);
        let exact = Schema::uniform(8, ColumnType::I64);
        assert_eq!(RowLayout::aligned(&exact, 64).row_width(), 64);
    }

    #[test]
    fn field_slices_preserve_request_order() {
        let layout = RowLayout::packed(&paper_schema());
        let fs = layout.fields(&[9, 2, 4]).unwrap();
        assert_eq!(fs[0].offset, 36);
        assert_eq!(fs[1].offset, 8);
        assert_eq!(fs[2].offset, 16);
        assert_eq!(fs[0].column, 9);
        assert_eq!(layout.group_width(&[9, 2, 4]).unwrap(), 12);
    }

    #[test]
    fn range_and_bounds() {
        let layout = RowLayout::packed(&paper_schema());
        assert_eq!(layout.range(1).unwrap(), 4..8);
        assert!(layout.offset(16).is_err());
        assert!(layout.field(16).is_err());
    }

    #[test]
    fn mixed_width_layout() {
        let s = Schema::from_pairs(&[
            ("key", ColumnType::I64),
            ("flag", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
        ]);
        let layout = RowLayout::packed(&s);
        assert_eq!(layout.offset(0).unwrap(), 0);
        assert_eq!(layout.offset(1).unwrap(), 8);
        assert_eq!(layout.offset(2).unwrap(), 9);
        assert_eq!(layout.row_width(), 17);
    }

    /// The `Value` round trip `canonicalize_text` replaces: decode every
    /// field, re-encode it.
    fn round_trip(layout: &RowLayout, row: &[u8]) -> Result<Vec<u8>> {
        let mut out = vec![0u8; row.len()];
        for c in 0..layout.num_columns() {
            let (ty, r) = (layout.column_type(c)?, layout.range(c)?);
            Value::decode(ty, &row[r.clone()]).encode_into(ty, &mut out[r])?;
        }
        Ok(out)
    }

    #[test]
    fn canonical_text_is_the_value_round_trip() {
        let s = Schema::from_pairs(&[
            ("t", ColumnType::FixedStr(4)),
            ("x", ColumnType::F32),
            ("u", ColumnType::FixedStr(2)),
        ]);
        let layout = RowLayout::packed(&s);
        let nan = f32::from_bits(0x7f80_0001).to_le_bytes();
        let texts: [&[u8]; 8] = [
            b"\0\0\0\0",
            b"abcd",
            b"a\0b\0",
            b"\0xyz",
            "é\0\x01".as_bytes(),
            b"\xffa\0\0",
            b"\xff\xff\xff\xff", // decodes to 12 bytes: no longer fits
            b"ab\xc3\0",
        ];
        for t in texts {
            for u in [*b"\0q", *b"\xc3\xa9", *b"\xe9\0"] {
                let row: Vec<u8> = [t, &nan[..], &u[..]].concat();
                let mut image = row.clone();
                let canon = layout.canonicalize_text(&mut image);
                match round_trip(&layout, &row) {
                    Ok(want) => assert_eq!((canon, image), (Ok(()), want), "{row:?}"),
                    Err(e) => assert_eq!(canon, Err(e), "{row:?}"),
                }
            }
        }
        // Rows back to back are each canonicalised; a table without text
        // is left as it is.
        let mut two = [&b"a\0b\0"[..], &nan, b"x\0", b"\0zzz", &nan, b"ok"].concat();
        layout.canonicalize_text(&mut two).unwrap();
        assert_eq!(
            two,
            [&b"a\0\0\0"[..], &nan, b"x\0", b"\0\0\0\0", &nan, b"ok"].concat()
        );
        let numeric = RowLayout::packed(&Schema::uniform(2, ColumnType::F32));
        let mut raw = [nan, nan].concat();
        numeric.canonicalize_text(&mut raw).unwrap();
        assert_eq!(raw, [nan, nan].concat());
    }
}
