//! Data geometries — the paper's core abstraction.
//!
//! §II: *"Relational Fabric exposes a carefully designed API, termed
//! ephemeral columns, that enables accessing arbitrary data geometries (i.e.,
//! any subset of data from relational tables) using simple abstractions."*
//!
//! A [`Geometry`] is the wire format of that API: a self-contained
//! description the CPU hands to the fabric device. It names the base region
//! (address, row width, row count), the requested fields, and the output
//! shape — packed column groups, whole filtered rows, or aggregates — plus
//! optional predicate and MVCC timestamp filters the device applies while
//! gathering.

use crate::error::{FabricError, Result};
use crate::schema::{ColumnId, ColumnType};
use crate::Addr;

/// Location and type of one column inside a raw fixed-width row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldSlice {
    /// Schema column this slice reads (for bookkeeping / display).
    pub column: ColumnId,
    /// Byte offset from the start of the row.
    pub offset: usize,
    /// Physical type; determines the width.
    pub ty: ColumnType,
}

impl FieldSlice {
    pub fn new(column: ColumnId, offset: usize, ty: ColumnType) -> Self {
        FieldSlice { column, offset, ty }
    }

    /// Width in bytes.
    #[inline]
    pub fn width(&self) -> usize {
        self.ty.width()
    }

    /// Byte range within a row buffer.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.width()
    }
}

/// MVCC visibility filter applied by the device (paper §III-C).
///
/// Every versioned row carries two timestamps; a row is visible at snapshot
/// `ts` iff `begin <= ts && (end == 0 || ts < end)` (`end == 0` means "still
/// live"). *"A key advantage of this approach is that the timestamp
/// comparison can be implemented in hardware."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TsFilter {
    /// Field holding the begin (creation) timestamp, an `I64`.
    pub begin: FieldSlice,
    /// Field holding the end (invalidation) timestamp, an `I64`; 0 = live.
    pub end: FieldSlice,
    /// The reader's snapshot timestamp.
    pub snapshot_ts: u64,
}

impl TsFilter {
    /// The hardware visibility comparator.
    pub fn visible_raw(&self, row: &[u8]) -> bool {
        let begin = read_u64(row, self.begin.offset);
        let end = read_u64(row, self.end.offset);
        begin <= self.snapshot_ts && (end == 0 || self.snapshot_ts < end)
    }
}

fn read_u64(row: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(crate::value::le_array(&row[offset..offset + 8]))
}

/// Aggregate functions the fabric can compute in-device (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate requested from the device.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Field aggregated over; `None` only for `Count`.
    pub field: Option<FieldSlice>,
}

impl AggSpec {
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            field: None,
        }
    }

    pub fn over(func: AggFunc, field: FieldSlice) -> Self {
        AggSpec {
            func,
            field: Some(field),
        }
    }
}

/// Shape of the data the device returns.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum OutputMode {
    /// Densely packed column-group rows: for each qualifying base row, the
    /// requested fields concatenated back to back (paper's ephemeral
    /// *columns*).
    PackedColumns,
    /// Entire qualifying rows (ephemeral *rows*: hardware selection §IV-B).
    FilteredRows,
    /// Only aggregate results leave the device (hardware aggregation §IV-B).
    Aggregate(Vec<AggSpec>),
}

/// Merge a set of fields into maximal disjoint `(offset, len)` byte spans
/// within a row, sorted by offset. Gaps of at most `slack` bytes are bridged
/// (useful when fetching granularity is a cache line anyway).
pub fn merge_field_spans(fields: &[FieldSlice], slack: usize) -> Vec<(usize, usize)> {
    let mut raw: Vec<(usize, usize)> = fields.iter().map(|f| (f.offset, f.width())).collect();
    raw.sort_unstable();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (off, len) in raw {
        match spans.last_mut() {
            Some((soff, slen)) if off <= *soff + *slen + slack => {
                let end = (off + len).max(*soff + *slen);
                *slen = end - *soff;
            }
            _ => spans.push((off, len)),
        }
    }
    spans
}

/// A complete ephemeral-access descriptor.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Geometry {
    /// Address of row 0 in the memory arena.
    pub base: Addr,
    /// Width of one base row in bytes (including padding / MVCC headers).
    pub row_width: usize,
    /// Number of base rows.
    pub rows: usize,
    /// Requested fields, in output order.
    pub fields: Vec<FieldSlice>,
    /// Device-evaluated selection (empty = all rows qualify).
    pub predicate: crate::predicate::Predicate,
    /// Device-evaluated MVCC visibility filter.
    pub visibility: Option<TsFilter>,
    /// Output shape.
    pub mode: OutputMode,
}

impl Geometry {
    /// A plain packed-column-group geometry with no filters.
    pub fn packed(base: Addr, row_width: usize, rows: usize, fields: Vec<FieldSlice>) -> Self {
        Geometry {
            base,
            row_width,
            rows,
            fields,
            predicate: crate::predicate::Predicate::always_true(),
            visibility: None,
            mode: OutputMode::PackedColumns,
        }
    }

    /// Attach a selection predicate (device-side filtering).
    pub fn with_predicate(mut self, predicate: crate::predicate::Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Attach an MVCC snapshot filter.
    pub fn with_visibility(mut self, filter: TsFilter) -> Self {
        self.visibility = Some(filter);
        self
    }

    /// Switch the output mode.
    pub fn with_mode(mut self, mode: OutputMode) -> Self {
        self.mode = mode;
        self
    }

    /// Bytes of payload one qualifying row contributes to the output.
    pub fn output_row_width(&self) -> usize {
        match &self.mode {
            OutputMode::PackedColumns => self.fields.iter().map(|f| f.width()).sum(),
            OutputMode::FilteredRows => self.row_width,
            OutputMode::Aggregate(_) => 0,
        }
    }

    /// Distinct source columns the device must *touch* per row: requested
    /// fields plus predicate and visibility fields. This drives the device's
    /// source-traffic model.
    pub fn touched_fields(&self) -> Vec<FieldSlice> {
        let mut out: Vec<FieldSlice> = Vec::new();
        let mut push = |f: FieldSlice| {
            if !out.iter().any(|g| g.offset == f.offset && g.ty == f.ty) {
                out.push(f);
            }
        };
        for f in &self.fields {
            push(*f);
        }
        for c in self.predicate.conjuncts() {
            push(c.field);
        }
        if let Some(v) = &self.visibility {
            push(v.begin);
            push(v.end);
        }
        if let OutputMode::Aggregate(specs) = &self.mode {
            for s in specs {
                if let Some(f) = s.field {
                    push(f);
                }
            }
        }
        out
    }

    /// Validate internal consistency: fields within the row, non-empty
    /// request, sane mode, and predicate literals that compare with their
    /// fields ([`crate::ColumnPredicate::check`]).
    pub fn validate(&self) -> Result<()> {
        if self.row_width == 0 {
            return Err(FabricError::InvalidGeometry(
                "row width must be positive".into(),
            ));
        }
        let check = |f: &FieldSlice| -> Result<()> {
            if f.offset + f.width() > self.row_width {
                return Err(FabricError::GeometryOutOfBounds {
                    offset: f.offset,
                    width: f.width(),
                    row_width: self.row_width,
                });
            }
            Ok(())
        };
        for f in self.touched_fields() {
            check(&f)?;
        }
        self.predicate.check()?;
        match &self.mode {
            OutputMode::PackedColumns if self.fields.is_empty() => Err(
                FabricError::InvalidGeometry("packed-columns geometry with no fields".into()),
            ),
            OutputMode::Aggregate(specs) if specs.is_empty() => Err(FabricError::InvalidGeometry(
                "aggregate geometry with no aggregates".into(),
            )),
            OutputMode::Aggregate(specs) => {
                for s in specs {
                    match (s.func, s.field) {
                        (AggFunc::Count, _) => {}
                        (_, None) => {
                            return Err(FabricError::InvalidGeometry(format!(
                                "{} requires a field",
                                s.func.name()
                            )))
                        }
                        (_, Some(f)) if !f.ty.is_numeric() => {
                            return Err(FabricError::InvalidGeometry(format!(
                                "{} over non-numeric column {}",
                                s.func.name(),
                                f.column
                            )))
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, ColumnPredicate, Predicate};
    use crate::value::Value;

    fn f(col: usize, offset: usize) -> FieldSlice {
        FieldSlice::new(col, offset, ColumnType::I32)
    }

    #[test]
    fn output_row_width_by_mode() {
        let g = Geometry::packed(0, 64, 100, vec![f(0, 0), f(5, 20), f(9, 36)]);
        assert_eq!(g.output_row_width(), 12);
        assert_eq!(
            g.clone()
                .with_mode(OutputMode::FilteredRows)
                .output_row_width(),
            64
        );
        assert_eq!(
            g.with_mode(OutputMode::Aggregate(vec![AggSpec::count()]))
                .output_row_width(),
            0
        );
    }

    #[test]
    fn touched_fields_dedup_and_include_predicate() {
        let pred = Predicate::always_true()
            .and(ColumnPredicate::new(f(5, 20), CmpOp::Gt, Value::I32(0)))
            .and(ColumnPredicate::new(f(7, 28), CmpOp::Lt, Value::I32(9)));
        let g = Geometry::packed(0, 64, 10, vec![f(0, 0), f(5, 20)]).with_predicate(pred);
        let touched = g.touched_fields();
        assert_eq!(touched.len(), 3); // c0, c5 (deduped), c7
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let g = Geometry::packed(0, 64, 10, vec![f(0, 61)]);
        assert!(matches!(
            g.validate(),
            Err(FabricError::GeometryOutOfBounds {
                offset: 61,
                width: 4,
                row_width: 64
            })
        ));
    }

    #[test]
    fn validate_rejects_empty_requests() {
        let g = Geometry::packed(0, 64, 10, vec![]);
        assert!(g.validate().is_err());
        let g = Geometry::packed(0, 64, 10, vec![f(0, 0)]).with_mode(OutputMode::Aggregate(vec![]));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_sum_without_field_or_string_field() {
        let g = Geometry::packed(0, 64, 10, vec![f(0, 0)]).with_mode(OutputMode::Aggregate(vec![
            AggSpec {
                func: AggFunc::Sum,
                field: None,
            },
        ]));
        assert!(g.validate().is_err());
        let strf = FieldSlice::new(1, 4, ColumnType::FixedStr(8));
        let g = Geometry::packed(0, 64, 10, vec![f(0, 0)]).with_mode(OutputMode::Aggregate(vec![
            AggSpec::over(AggFunc::Sum, strf),
        ]));
        assert!(g.validate().is_err());
    }

    #[test]
    fn ts_filter_visibility() {
        // begin at offset 0, end at offset 8.
        let mut row = vec![0u8; 16];
        row[..8].copy_from_slice(&10u64.to_le_bytes());
        row[8..].copy_from_slice(&20u64.to_le_bytes());
        let mk = |ts| TsFilter {
            begin: FieldSlice::new(0, 0, ColumnType::I64),
            end: FieldSlice::new(1, 8, ColumnType::I64),
            snapshot_ts: ts,
        };
        assert!(!mk(9).visible_raw(&row)); // before begin
        assert!(mk(10).visible_raw(&row)); // at begin
        assert!(mk(19).visible_raw(&row)); // before end
        assert!(!mk(20).visible_raw(&row)); // at end: invisible
        row[8..].copy_from_slice(&0u64.to_le_bytes()); // live row
        assert!(mk(1_000_000).visible_raw(&row));
    }
}
