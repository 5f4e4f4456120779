//! Typed, strided column views over raw table bytes: what a stage-0
//! kernel hands its consumer (DESIGN.md §21).
//!
//! All three layouts store a column's values at a fixed distance from each
//! other — the value width in a column array, the row width in a row table,
//! the packed-row width in a Relational Memory batch — so one view type
//! serves them all: a [`ColumnView`] is a column type, a byte slice that
//! starts at value 0, and a stride. A [`Chunk`] is a set of such columns
//! over one byte region (at most [`BATCH_ROWS`] rows of a row table or a
//! packed batch; for column arrays the region spans the arrays and rows are
//! addressed by table position). Consumers read fields as their machine
//! types; nothing is boxed into a [`Value`] per row.
//!
//! Every typed operation here has the outcome of its `Value` counterpart —
//! [`ColumnView::compare`] of [`Value::compare`] on the decoded field,
//! [`ColumnView::f64_at`] of [`Value::as_f64`] — so a kernel that switches
//! to views changes no answer.

use crate::error::{FabricError, Result};
use crate::predicate::CmpOp;
use crate::schema::ColumnType;
use crate::value::{le_array, trim_padding, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Rows per chunk, at most (a classic vector size: 1024 values).
pub const BATCH_ROWS: usize = 1024;

/// A fixed-width machine type a field decodes to.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Decode from exactly [`Self::WIDTH`] little-endian bytes.
    fn read(bytes: &[u8]) -> Self;
    /// `self as f64`, as [`Value::as_f64`] converts.
    fn to_f64(self) -> f64;
    /// `self as i64`, as [`Value::as_i64`] converts.
    fn to_i64(self) -> i64;
}

macro_rules! scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = size_of::<$t>();
            #[inline]
            fn read(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(le_array(bytes))
            }
            #[inline]
            #[allow(trivial_numeric_casts)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            #[allow(trivial_numeric_casts, clippy::cast_possible_truncation)]
            fn to_i64(self) -> i64 {
                self as i64
            }
        }
    )*};
}
scalars!(i8, i16, i32, i64, f32, f64, u32, u64);

/// Where one column's values lie inside a chunk's byte region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    pub ty: ColumnType,
    /// Offset of value 0 from the start of the region.
    pub offset: usize,
    /// Distance between consecutive values.
    pub stride: usize,
}

/// One column of a chunk: value `r` is the `ty.width()` bytes at
/// `r * stride`.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    ty: ColumnType,
    bytes: &'a [u8],
    stride: usize,
}

/// The literal side of a comparison, classified once per loop.
enum Literal<'l> {
    Int(i64),
    Float(f64),
    Text(&'l [u8]),
}

impl<'l> Literal<'l> {
    fn of(v: &'l Value) -> Self {
        match v {
            Value::I8(x) => Literal::Int(i64::from(*x)),
            Value::I16(x) => Literal::Int(i64::from(*x)),
            Value::I32(x) => Literal::Int(i64::from(*x)),
            Value::I64(x) => Literal::Int(*x),
            Value::Date(x) => Literal::Int(i64::from(*x)),
            Value::F32(x) => Literal::Float(f64::from(*x)),
            Value::F64(x) => Literal::Float(*x),
            Value::Str(s) => Literal::Text(s.as_bytes()),
        }
    }
}

/// Integer-typed columns compare exactly with integer literals.
fn integral(ty: ColumnType) -> bool {
    !matches!(
        ty,
        ColumnType::F32 | ColumnType::F64 | ColumnType::FixedStr(_)
    )
}

fn not_numeric() -> FabricError {
    FabricError::TypeMismatch {
        expected: "numeric".into(),
        found: "string".into(),
    }
}

fn incomparable() -> FabricError {
    FabricError::TypeMismatch {
        expected: "comparable types".into(),
        found: "string vs numeric".into(),
    }
}

/// `Value::compare`'s order on two floats: NaN is equal to everything.
#[inline]
fn float_cmp(x: f64, y: f64) -> Ordering {
    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
}

/// Apply `$body` with `$t` bound to the machine type of a numeric `$ty`;
/// `$text` handles `FixedStr`.
macro_rules! per_scalar {
    ($ty:expr, $t:ident => $body:expr, text => $text:expr) => {
        match $ty {
            ColumnType::I8 => {
                type $t = i8;
                $body
            }
            ColumnType::I16 => {
                type $t = i16;
                $body
            }
            ColumnType::I32 => {
                type $t = i32;
                $body
            }
            ColumnType::I64 => {
                type $t = i64;
                $body
            }
            ColumnType::F32 => {
                type $t = f32;
                $body
            }
            ColumnType::F64 => {
                type $t = f64;
                $body
            }
            ColumnType::Date => {
                type $t = u32;
                $body
            }
            ColumnType::FixedStr(_) => $text,
        }
    };
}

/// The decoder of one encoded `ty` value as `f64` ([`Value::as_f64`]),
/// fixed once for a loop over many values; `None` for a string column,
/// which has no numeric view.
pub fn f64_decoder(ty: ColumnType) -> Option<fn(&[u8]) -> f64> {
    fn read<T: Scalar>(bytes: &[u8]) -> f64 {
        T::read(bytes).to_f64()
    }
    per_scalar!(ty, T => Some(read::<T>), text => None)
}

impl<'a> ColumnView<'a> {
    /// A view of the `ty` values at `bytes[0..]`, `bytes[stride..]`, ….
    pub fn new(ty: ColumnType, bytes: &'a [u8], stride: usize) -> Self {
        ColumnView { ty, bytes, stride }
    }

    #[inline]
    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Values the byte slice holds in full.
    pub fn rows(&self) -> usize {
        match self.bytes.len().checked_sub(self.ty.width()) {
            None => 0,
            Some(_) if self.stride == 0 => 1,
            Some(rest) => rest / self.stride + 1,
        }
    }

    /// The encoded bytes of value `r` (which must be a row of the view).
    #[inline]
    pub fn raw(&self, r: usize) -> &'a [u8] {
        &self.bytes[r * self.stride..][..self.ty.width()]
    }

    /// Value `r` as the machine type `T`, which must be the column type's.
    #[inline]
    pub fn get<T: Scalar>(&self, r: usize) -> T {
        debug_assert_eq!(T::WIDTH, self.ty.width());
        T::read(&self.bytes[r * self.stride..][..T::WIDTH])
    }

    /// The `W` bytes of value `r` from its byte `at` on, as the low bytes
    /// of a little-endian word (`W` ≤ 8, `at + W` within the value): a
    /// fixed-width read, whatever the column's type.
    #[inline]
    pub fn word_at<const W: usize>(&self, r: usize, at: usize) -> u64 {
        let mut word = [0u8; 8];
        word[..W].copy_from_slice(&self.bytes[r * self.stride + at..][..W]);
        u64::from_le_bytes(word)
    }

    /// Value `r` decoded ([`Value::decode`]).
    #[inline]
    pub fn value(&self, r: usize) -> Value {
        Value::decode(self.ty, self.raw(r))
    }

    /// The text of value `r` of a string column, as [`Value::decode`]
    /// reads it: up to the first NUL, invalid UTF-8 replaced.
    #[inline]
    pub fn text(&self, r: usize) -> Cow<'a, str> {
        String::from_utf8_lossy(trim_padding(self.raw(r)))
    }

    /// Value `r` as `f64` ([`Value::as_f64`]: strings are an error).
    #[inline]
    pub fn f64_at(&self, r: usize) -> Result<f64> {
        Ok(per_scalar!(self.ty, T => self.get::<T>(r).to_f64(), text => return Err(not_numeric())))
    }

    /// `out` ← the values at `rows` as `f64`, in that order.
    pub fn gather_f64(&self, rows: &[u32], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        per_scalar!(self.ty, T => {
            out.extend(rows.iter().map(|&r| self.get::<T>(r as usize).to_f64()));
        }, text => return Err(not_numeric()));
        Ok(())
    }

    /// Order of value `r` against `lit`: the outcome, error included, of
    /// [`Value::compare`] on the decoded value.
    pub fn compare(&self, r: usize, lit: &Value) -> Result<Ordering> {
        let lit = Literal::of(lit);
        Ok(per_scalar!(self.ty, T => {
            let x = self.get::<T>(r);
            match lit {
                Literal::Int(y) if integral(self.ty) => x.to_i64().cmp(&y),
                Literal::Int(y) => float_cmp(x.to_f64(), y as f64),
                Literal::Float(y) => float_cmp(x.to_f64(), y),
                Literal::Text(_) => return Err(incomparable()),
            }
        }, text => match lit {
            Literal::Text(y) => self.text(r).as_bytes().cmp(y),
            _ => return Err(incomparable()),
        }))
    }

    /// `pass[r] &= value r <op> lit` for the first `pass.len()` values:
    /// one typed loop per column type, literal class and operator, each
    /// deciding as [`Self::compare`] does.
    pub fn select(&self, op: CmpOp, lit: &Value, pass: &mut [bool]) -> Result<()> {
        if pass.is_empty() {
            // No row, no comparison, no type error either.
            return Ok(());
        }
        if pass.len() > self.rows() {
            return Err(FabricError::RowIndexOutOfRange {
                index: pass.len(),
                len: self.rows(),
            });
        }
        let lit = Literal::of(lit);
        per_scalar!(self.ty, T => match lit {
            Literal::Int(y) if integral(self.ty) => {
                select_ord(pass, op, |r| self.get::<T>(r).to_i64().cmp(&y))
            }
            Literal::Int(y) => select_float(pass, op, |r| self.get::<T>(r).to_f64(), y as f64),
            Literal::Float(y) => select_float(pass, op, |r| self.get::<T>(r).to_f64(), y),
            Literal::Text(_) => return Err(incomparable()),
        }, text => match lit {
            Literal::Text(y) => select_ord(pass, op, |r| self.text(r).as_bytes().cmp(y)),
            _ => return Err(incomparable()),
        });
        Ok(())
    }
}

/// `pass[r] &= op.matches(ord(r))`, with the operator matched once,
/// outside the row loop.
#[inline(always)]
fn select_ord(pass: &mut [bool], op: CmpOp, ord: impl Fn(usize) -> Ordering) {
    let rows = pass.iter_mut().enumerate();
    match op {
        CmpOp::Eq => rows.for_each(|(r, p)| *p &= ord(r) == Ordering::Equal),
        CmpOp::Ne => rows.for_each(|(r, p)| *p &= ord(r) != Ordering::Equal),
        CmpOp::Lt => rows.for_each(|(r, p)| *p &= ord(r) == Ordering::Less),
        CmpOp::Le => rows.for_each(|(r, p)| *p &= ord(r) != Ordering::Greater),
        CmpOp::Gt => rows.for_each(|(r, p)| *p &= ord(r) == Ordering::Greater),
        CmpOp::Ge => rows.for_each(|(r, p)| *p &= ord(r) != Ordering::Less),
    }
}

/// `pass[r] &= op.matches(float_cmp(at(r), y))`, the operator matched
/// once. NaN equals everything, so `Le` is `!(x > y)`, not `x <= y`.
#[inline(always)]
fn select_float(pass: &mut [bool], op: CmpOp, at: impl Fn(usize) -> f64, y: f64) {
    let rows = pass.iter_mut().enumerate();
    // Only `<` and `>` are asked, both false on a NaN.
    let (less, greater) = (|x: f64| x < y, |x: f64| x > y);
    let unequal = |x: f64| less(x) || greater(x);
    match op {
        CmpOp::Eq => rows.for_each(|(r, p)| *p &= !unequal(at(r))),
        CmpOp::Ne => rows.for_each(|(r, p)| *p &= unequal(at(r))),
        CmpOp::Lt => rows.for_each(|(r, p)| *p &= less(at(r))),
        CmpOp::Le => rows.for_each(|(r, p)| *p &= !greater(at(r))),
        CmpOp::Gt => rows.for_each(|(r, p)| *p &= greater(at(r))),
        CmpOp::Ge => rows.for_each(|(r, p)| *p &= !less(at(r))),
    }
}

/// Up to [`BATCH_ROWS`] rows of typed columns over one byte region.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    bytes: &'a [u8],
    cols: &'a [ColumnSpec],
}

impl<'a> Chunk<'a> {
    pub fn new(bytes: &'a [u8], cols: &'a [ColumnSpec]) -> Self {
        Chunk { bytes, cols }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `i`.
    #[inline]
    pub fn col(&self, i: usize) -> Result<ColumnView<'a>> {
        let spec = self.cols.get(i).ok_or(FabricError::ColumnIndexOutOfRange {
            index: i,
            len: self.cols.len(),
        })?;
        let bytes = self.bytes.get(spec.offset..).unwrap_or_default();
        Ok(ColumnView::new(spec.ty, bytes, spec.stride))
    }
}

/// A chunk consumer's failure: the error, and which of the rows it was
/// handed raised it first (an index into that row list), so the kernel can
/// charge exactly the rows a row-at-a-time loop would have reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkError {
    pub at: usize,
    pub error: FabricError,
}

/// A chunk's predicate outcome: one pass bit per row, and the positions
/// that passed.
#[derive(Debug, Default)]
pub struct RowSelection {
    pass: Vec<bool>,
    sel: Vec<u32>,
}

impl RowSelection {
    /// Evaluate the conjunction of `(column, op, literal)` conjuncts over
    /// rows `0..n` of `chunk`: afterwards [`Self::pass`] holds one bit per
    /// row and [`Self::sel`] the rows whose bit is set, ascending. On an
    /// error no row is selected.
    pub fn select(
        &mut self,
        chunk: &Chunk<'_>,
        n: usize,
        preds: &[(usize, CmpOp, Value)],
    ) -> Result<()> {
        self.pass.clear();
        self.pass.resize(n, true);
        self.sel.clear();
        for (col, op, lit) in preds {
            let checked = chunk
                .col(*col)
                .and_then(|c| c.select(*op, lit, &mut self.pass));
            if let Err(e) = checked {
                self.pass.fill(false);
                return Err(e);
            }
        }
        let passing = self.pass.iter().enumerate().filter(|(_, &p)| p);
        self.sel.extend(passing.map(|(r, _)| r as u32));
        Ok(())
    }

    /// Make the positions `start..start + n` the selection (every row of
    /// a dense range passes; no pass bits are kept for it).
    pub fn select_range(&mut self, start: usize, n: usize) {
        self.pass.clear();
        self.sel.clear();
        self.sel.extend((start..start + n).map(|r| r as u32));
    }

    /// One bit per row of the last [`Self::select`].
    pub fn pass(&self) -> &[bool] {
        &self.pass
    }

    /// The selected positions.
    pub fn sel(&self) -> &[u32] {
        &self.sel
    }
}

/// What a stage-0 kernel charges for a row on top of its own per-row
/// cycles.
pub enum RowCharge<F> {
    /// A fixed number of cycles (a chunk consumer's per-row cost). The
    /// kernel may add them into its own charge for the row, or into one
    /// charge for a run of rows between two memory accesses: `cpu` charges
    /// add, and nothing reads the clock between them.
    Cycles(u64),
    /// `f(mem, row id)`, which charges the row itself.
    Call(F),
}

/// A kernel's per-chunk buffers — the region's column specs and the
/// predicate outcome. Host-side scratch, kept by the caller so one
/// allocation serves every chunk of a query.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Rebuilt per kernel call, capacity kept.
    pub specs: Vec<ColumnSpec>,
    pub rows: RowSelection,
}

impl ScanScratch {
    /// Buffers sized for chunks of `rows` rows, so they never grow.
    pub fn with_rows(rows: usize) -> Self {
        ScanScratch {
            specs: Vec::new(),
            rows: RowSelection {
                pass: Vec::with_capacity(rows),
                sel: Vec::with_capacity(rows),
            },
        }
    }

    /// Heap bytes held (capacities).
    pub fn heap_bytes(&self) -> usize {
        self.specs.capacity() * size_of::<ColumnSpec>()
            + self.rows.pass.capacity()
            + self.rows.sel.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_each_case, DetRng};

    /// `values` encoded as a column inside rows of `stride` bytes, at
    /// byte `offset` of each.
    fn encode(ty: ColumnType, values: &[Value], offset: usize, stride: usize) -> Vec<u8> {
        let mut bytes = vec![0xA5u8; values.len() * stride];
        for (r, v) in values.iter().enumerate() {
            let at = r * stride + offset;
            v.encode_into(ty, &mut bytes[at..at + ty.width()]).unwrap();
        }
        bytes
    }

    fn sample(rng: &mut DetRng, ty: ColumnType) -> Value {
        let edge = rng.gen_range(0..8u32);
        let floats = [f64::NAN, -0.0, 0.0, f64::INFINITY, -1.5, 1e300];
        match ty {
            ColumnType::I8 => Value::I8(rng.next_u64() as i8),
            ColumnType::I16 => Value::I16(rng.next_u64() as i16),
            ColumnType::I32 => Value::I32(rng.next_u64() as i32),
            ColumnType::I64 if edge == 0 => Value::I64(i64::MIN),
            ColumnType::I64 if edge == 1 => Value::I64(i64::MAX),
            ColumnType::I64 => Value::I64(rng.gen_range(-5..5)),
            ColumnType::F32 if edge < 3 => Value::F32(floats[rng.gen_range(0..6usize)] as f32),
            ColumnType::F32 => Value::F32(rng.gen_range(-4..4) as f32 * 0.5),
            ColumnType::F64 if edge < 3 => Value::F64(floats[rng.gen_range(0..6usize)]),
            ColumnType::F64 => Value::F64(rng.gen_range(-4..4) as f64 * 0.5),
            ColumnType::Date => Value::Date(rng.gen_range(0..6)),
            ColumnType::FixedStr(_) => {
                let texts = ["", "a", "ab", "a\0b", "b", "abc"];
                Value::Str(texts[rng.gen_range(0..texts.len())].into())
            }
        }
    }

    const TYPES: [ColumnType; 8] = [
        ColumnType::I8,
        ColumnType::I16,
        ColumnType::I32,
        ColumnType::I64,
        ColumnType::F32,
        ColumnType::F64,
        ColumnType::Date,
        ColumnType::FixedStr(3),
    ];

    #[test]
    fn typed_reads_compares_and_selects_equal_their_value_counterparts() {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for_each_case("typed view equals Value", |rng| {
            let ty = TYPES[rng.gen_range(0..TYPES.len())];
            let values: Vec<Value> = (0..rng.gen_range(0..40usize))
                .map(|_| sample(rng, ty))
                .collect();
            let offset = rng.gen_range(0..5usize);
            let stride = ty.width() + offset + rng.gen_range(0..4usize);
            let bytes = encode(ty, &values, offset, stride);
            let specs = [ColumnSpec { ty, offset, stride }];
            let chunk = Chunk::new(&bytes, &specs);
            let view = chunk.col(0).unwrap();
            assert!(chunk.col(1).is_err());
            assert_eq!(view.rows(), values.len());

            let lit_ty = TYPES[rng.gen_range(0..TYPES.len())];
            let lit = sample(rng, lit_ty);
            let op = OPS[rng.gen_range(0..OPS.len())];
            let mut pass = vec![true; values.len()];
            let selected = view.select(op, &lit, &mut pass);
            for (r, &passed) in pass.iter().enumerate() {
                // What the bytes decode to (a text with an embedded NUL
                // reads back cut short), not what was stored.
                let v = Value::decode(ty, view.raw(r));
                assert_eq!(format!("{:?}", view.value(r)), format!("{v:?}"));
                assert_eq!(
                    view.f64_at(r).map(f64::to_bits),
                    v.as_f64().map(f64::to_bits)
                );
                assert_eq!(view.compare(r, &lit), v.compare(&lit), "{v:?} vs {lit:?}");
                if let Ok(ord) = v.compare(&lit) {
                    assert_eq!(passed, op.matches(ord), "{v:?} {op} {lit:?}");
                }
            }
            match values.first().map(|_| view.compare(0, &lit)) {
                Some(Err(e)) => assert_eq!(selected, Err(e)),
                _ => assert_eq!(selected, Ok(())),
            }

            let rows: Vec<u32> = (0..values.len() as u32).rev().collect();
            let mut gathered = Vec::new();
            match view.gather_f64(&rows, &mut gathered) {
                Ok(()) => {
                    let want = rows.iter().map(|&r| view.f64_at(r as usize).unwrap());
                    let want: Vec<u64> = want.map(f64::to_bits).collect();
                    let got: Vec<u64> = gathered.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want);
                }
                Err(e) => assert_eq!(Err(e), view.f64_at(0)),
            }
        });
    }

    #[test]
    fn select_decides_every_row_as_compare_and_matches_do() {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let nan = f64::from_bits;
        // NaNs of both signs and several payloads, signed zeros and
        // infinities: where `float_cmp`'s "NaN equals everything" and the
        // IEEE operators part ways.
        let floats = [
            f64::NAN,
            -f64::NAN,
            nan(0x7FF0_0000_0000_0001),
            nan(0xFFF8_0000_0000_BEEF),
            nan(0x7FF4_0000_DEAD_0000),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1e300,
        ];
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            i64::from(i32::MIN),
            -129,
            -1,
            0,
            1,
            7,
            255,
            i64::from(u32::MAX),
            i64::MAX - 1,
            i64::MAX,
        ];
        let texts = ["", "a", "ab", "abc", "b", "\u{e9}"];
        let mut literals: Vec<Value> = ints.iter().map(|&i| Value::I64(i)).collect();
        literals.extend([
            Value::I8(-3),
            Value::I16(300),
            Value::I32(-7),
            Value::Date(4),
        ]);
        literals.extend(floats.iter().map(|&f| Value::F64(f)));
        literals.extend(floats.iter().map(|&f| Value::F32(f as f32)));
        literals.extend(texts.iter().map(|&t| Value::Str(t.into())));
        for_each_case("select is compare + matches", |rng| {
            let ty = TYPES[rng.gen_range(0..TYPES.len())];
            // The edge values of the column's type, then random ones.
            let pick_int = |rng: &mut DetRng| ints[rng.gen_range(0..ints.len())];
            let pick_float = |rng: &mut DetRng| floats[rng.gen_range(0..floats.len())];
            let values: Vec<Value> = (0..rng.gen_range(1..48usize))
                .map(|_| match ty {
                    ColumnType::I8 => Value::I8(pick_int(rng) as i8),
                    ColumnType::I16 => Value::I16(pick_int(rng) as i16),
                    ColumnType::I32 => Value::I32(pick_int(rng) as i32),
                    ColumnType::I64 => Value::I64(pick_int(rng)),
                    ColumnType::Date => Value::Date(pick_int(rng) as u32),
                    ColumnType::F32 => Value::F32(pick_float(rng) as f32),
                    ColumnType::F64 => Value::F64(pick_float(rng)),
                    ColumnType::FixedStr(_) => Value::Str(texts[rng.gen_range(0..5usize)].into()),
                })
                .collect();
            let offset = rng.gen_range(0..3usize);
            let stride = ty.width() + offset + rng.gen_range(0..3usize);
            let bytes = encode(ty, &values, offset, stride);
            let view = ColumnView::new(ty, &bytes[offset..], stride);
            for lit in &literals {
                for op in OPS {
                    let start: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.8)).collect();
                    let mut pass = start.clone();
                    let selected = view.select(op, lit, &mut pass);
                    for (r, (&before, &after)) in start.iter().zip(&pass).enumerate() {
                        match Value::decode(ty, view.raw(r)).compare(lit) {
                            Ok(ord) => {
                                assert_eq!(selected, Ok(()));
                                let want = before && op.matches(ord);
                                assert_eq!(after, want, "{:?} {op} {lit:?}", view.value(r));
                            }
                            Err(e) => assert_eq!(selected, Err(e)),
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn scratch_select_is_the_conjunction_and_keeps_row_order() {
        let a: Vec<Value> = (0..10).map(Value::I32).collect();
        let b: Vec<Value> = (0..10).map(|i| Value::F64(f64::from(i) / 2.0)).collect();
        let mut bytes = encode(ColumnType::I32, &a, 0, 12);
        for (r, v) in b.iter().enumerate() {
            v.encode_into(ColumnType::F64, &mut bytes[r * 12 + 4..r * 12 + 12])
                .unwrap();
        }
        let specs = [
            ColumnSpec {
                ty: ColumnType::I32,
                offset: 0,
                stride: 12,
            },
            ColumnSpec {
                ty: ColumnType::F64,
                offset: 4,
                stride: 12,
            },
        ];
        let chunk = Chunk::new(&bytes, &specs);
        let mut scratch = RowSelection::default();
        let preds = [
            (0, CmpOp::Ge, Value::I64(3)),
            (1, CmpOp::Lt, Value::F64(4.0)),
        ];
        scratch.select(&chunk, 10, &preds).unwrap();
        assert_eq!(scratch.sel(), [3, 4, 5, 6, 7]);
        assert_eq!(scratch.pass().iter().filter(|&&p| p).count(), 5);
        scratch.select(&chunk, 4, &[]).unwrap();
        assert_eq!(scratch.sel(), [0, 1, 2, 3]);
        scratch.select_range(7, 3);
        assert_eq!(scratch.sel(), [7, 8, 9]);
        // More rows than the region holds is an error, not a panic.
        assert!(scratch.select(&chunk, 11, &preds).is_err());
        let text = [(0, CmpOp::Eq, Value::Str("x".into()))];
        assert!(scratch.select(&chunk, 10, &text).is_err());
    }
}
