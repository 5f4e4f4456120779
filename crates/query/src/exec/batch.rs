//! Typed result batches (DESIGN.md §19).
//!
//! Everything between stage 0 and the client boundary carries a plan's
//! output as one [`ResultBatch`]: one typed buffer per output item plus a
//! row count. An item's type is static — a column reference has the
//! column's type, a literal its own, arithmetic is `f64`, `count` is
//! `i64`, `sum`/`avg` are `f64`, `min`/`max` keep their expression's type
//! ([`VerifiedQuery::output_types`](crate::analyze::VerifiedQuery::output_types))
//! — so a buffer never needs a mixed-type fallback and two values of one
//! sort key always compare.
//!
//! A projecting consumer appends decoded fields straight into its
//! morsel's batch, the merge concatenates the morsels' batches in morsel
//! order into buffers reserved once, the operator cache shares the merged
//! batch behind an `Rc`, and [`QueryOutput::rows`](super::QueryOutput)
//! is built from it once, for the rows that are returned only
//! ([`ResultBatch::order`], [`ResultBatch::rows`]).

use fabric_types::chunk::Scalar;
use fabric_types::{ColumnType, ColumnView, F64Column, FabricError, Result, Value};
use std::cmp::Ordering;
use std::iter::{repeat_n, repeat_with};

/// One output item's values, in row order.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Date(Vec<u32>),
    /// The rows' texts back to back; row `r` ends at `ends[r]` and starts
    /// where row `r - 1` ended.
    Str {
        data: String,
        ends: Vec<usize>,
    },
}

/// Apply `$body` to the buffer of whichever fixed-width variant `$col`
/// is; `$text` handles the string variant.
macro_rules! per_type {
    ($col:expr, $buf:ident => $body:expr, Str { $data:ident, $ends:ident } => $text:expr) => {
        match $col {
            Column::I8($buf) => $body,
            Column::I16($buf) => $body,
            Column::I32($buf) => $body,
            Column::I64($buf) => $body,
            Column::F32($buf) => $body,
            Column::F64($buf) => $body,
            Column::Date($buf) => $body,
            Column::Str {
                data: $data,
                ends: $ends,
            } => $text,
        }
    };
}

/// A fixed-width sort key. Two values of one type order as
/// [`Value::compare`] orders them, except that NaN has a place: floats
/// compare by `partial_cmp` (so `-0.0` equals `0.0`) with NaN after every
/// number and equal to itself. `Value::compare` alone calls NaN equal to
/// everything, which is not transitive — `std`'s sorts may panic on such
/// a comparator, or return an order that depends on the element size.
///
/// [`Self::key_word`] is the same order as an unsigned word of
/// [`Self::WORD_BITS`] bits: two keys compare as their words do.
trait SortKey: Copy {
    const WORD_BITS: u32;
    fn key_cmp(self, other: Self) -> Ordering;
    fn key_word(self) -> u64;
}

macro_rules! sort_keys {
    (signed: $($int:ty as $bits:literal),*;
     floats: $($float:ty as $fbits:literal),*) => {
        $(impl SortKey for $int {
            const WORD_BITS: u32 = $bits;
            #[inline]
            fn key_cmp(self, other: Self) -> Ordering {
                self.cmp(&other)
            }
            /// Sign-flipped: `MIN` is word 0.
            #[inline]
            fn key_word(self) -> u64 {
                (i64::from(self) as u64).wrapping_add(1 << ($bits - 1))
            }
        })*
        $(impl SortKey for $float {
            const WORD_BITS: u32 = $fbits;
            #[inline]
            fn key_cmp(self, other: Self) -> Ordering {
                self.partial_cmp(&other)
                    .unwrap_or_else(|| self.is_nan().cmp(&other.is_nan()))
            }
            /// Negative numbers bit-flipped, the rest sign-flipped, with
            /// `-0.0` folded onto `0.0` and every NaN one word above
            /// `+inf`.
            #[inline]
            fn key_word(self) -> u64 {
                const SIGN: u64 = 1 << ($fbits - 1);
                if self.is_nan() {
                    return <$float>::INFINITY.key_word() + 1;
                }
                let bits = if self == 0.0 { 0 } else { u64::from(self.to_bits()) };
                if bits & SIGN == 0 {
                    bits | SIGN
                } else {
                    !bits & (SIGN | (SIGN - 1))
                }
            }
        })*
    };
}
sort_keys!(signed: i8 as 32, i16 as 32, i32 as 32, i64 as 64; floats: f32 as 32, f64 as 64);

impl SortKey for u32 {
    const WORD_BITS: u32 = 32;
    #[inline]
    fn key_cmp(self, other: Self) -> Ordering {
        self.cmp(&other)
    }
    #[inline]
    fn key_word(self) -> u64 {
        u64::from(self)
    }
}

impl Column {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::I8 => Column::I8(Vec::new()),
            ColumnType::I16 => Column::I16(Vec::new()),
            ColumnType::I32 => Column::I32(Vec::new()),
            ColumnType::I64 => Column::I64(Vec::new()),
            ColumnType::F32 => Column::F32(Vec::new()),
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::Date => Column::Date(Vec::new()),
            ColumnType::FixedStr(_) => Column::Str {
                data: String::new(),
                ends: Vec::new(),
            },
        }
    }

    /// An empty column of the same type.
    fn empty_like(&self) -> Self {
        match self {
            Column::I8(_) => Column::I8(Vec::new()),
            Column::I16(_) => Column::I16(Vec::new()),
            Column::I32(_) => Column::I32(Vec::new()),
            Column::I64(_) => Column::I64(Vec::new()),
            Column::F32(_) => Column::F32(Vec::new()),
            Column::F64(_) => Column::F64(Vec::new()),
            Column::Date(_) => Column::Date(Vec::new()),
            Column::Str { .. } => Column::Str {
                data: String::new(),
                ends: Vec::new(),
            },
        }
    }

    /// Append `v`, which must have this column's type.
    #[inline]
    pub(crate) fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (Column::I8(buf), Value::I8(x)) => buf.push(*x),
            (Column::I16(buf), Value::I16(x)) => buf.push(*x),
            (Column::I32(buf), Value::I32(x)) => buf.push(*x),
            (Column::I64(buf), Value::I64(x)) => buf.push(*x),
            (Column::F32(buf), Value::F32(x)) => buf.push(*x),
            (Column::F64(buf), Value::F64(x)) => buf.push(*x),
            (Column::Date(buf), Value::Date(x)) => buf.push(*x),
            (Column::Str { data, ends }, Value::Str(s)) => {
                data.push_str(s);
                ends.push(data.len());
            }
            (_, v) => return Err(wrong_type(&v.column_type().name())),
        }
        Ok(())
    }

    /// `n` copies of `v`, which must have this column's type.
    pub(crate) fn push_n(&mut self, v: &Value, n: usize) -> Result<()> {
        match (&mut *self, v) {
            (Column::I8(buf), Value::I8(x)) => buf.extend(repeat_n(*x, n)),
            (Column::I16(buf), Value::I16(x)) => buf.extend(repeat_n(*x, n)),
            (Column::I32(buf), Value::I32(x)) => buf.extend(repeat_n(*x, n)),
            (Column::I64(buf), Value::I64(x)) => buf.extend(repeat_n(*x, n)),
            (Column::F32(buf), Value::F32(x)) => buf.extend(repeat_n(*x, n)),
            (Column::F64(buf), Value::F64(x)) => buf.extend(repeat_n(*x, n)),
            (Column::Date(buf), Value::Date(x)) => buf.extend(repeat_n(*x, n)),
            _ => return (0..n).try_for_each(|_| self.push(v)),
        }
        Ok(())
    }

    /// Append the values at `rows` of `view`, a column of this type, in
    /// that order — what [`Self::push`] of each decoded value appends.
    pub(crate) fn extend_from(&mut self, view: &ColumnView<'_>, rows: &[u32]) -> Result<()> {
        let same_type = matches!(
            (&*self, view.ty()),
            (Column::I8(_), ColumnType::I8)
                | (Column::I16(_), ColumnType::I16)
                | (Column::I32(_), ColumnType::I32)
                | (Column::I64(_), ColumnType::I64)
                | (Column::F32(_), ColumnType::F32)
                | (Column::F64(_), ColumnType::F64)
                | (Column::Date(_), ColumnType::Date)
                | (Column::Str { .. }, ColumnType::FixedStr(_))
        );
        if !same_type {
            return Err(wrong_type(&view.ty().name()));
        }
        per_type!(self, buf => extend_typed(buf, view, rows),
        Str { data, ends } => for &r in rows {
            data.push_str(&view.text(r as usize));
            ends.push(data.len());
        });
        Ok(())
    }

    /// Append `n` evaluated `f64`s (this must be an `f64` column).
    pub(crate) fn extend_f64(&mut self, values: F64Column<'_>, n: usize) -> Result<()> {
        match (self, values) {
            (Column::F64(buf), F64Column::Scalar(x)) => buf.extend(repeat_n(x, n)),
            (Column::F64(buf), F64Column::Vector(v)) => buf.extend_from_slice(v),
            _ => return Err(wrong_type("f64")),
        }
        Ok(())
    }

    /// Bytes of text held (0 for a fixed-width column).
    fn text_len(&self) -> usize {
        match self {
            Column::Str { data, .. } => data.len(),
            _ => 0,
        }
    }

    fn reserve_exact(&mut self, rows: usize, text: usize) {
        per_type!(self, buf => buf.reserve_exact(rows), Str { data, ends } => {
            data.reserve_exact(text);
            ends.reserve_exact(rows);
        });
    }

    /// Append all of `other`, a column of the same type.
    fn append(&mut self, other: Column) -> Result<()> {
        match (&mut *self, other) {
            (Column::I8(buf), Column::I8(more)) => buf.extend(more),
            (Column::I16(buf), Column::I16(more)) => buf.extend(more),
            (Column::I32(buf), Column::I32(more)) => buf.extend(more),
            (Column::I64(buf), Column::I64(more)) => buf.extend(more),
            (Column::F32(buf), Column::F32(more)) => buf.extend(more),
            (Column::F64(buf), Column::F64(more)) => buf.extend(more),
            (Column::Date(buf), Column::Date(more)) => buf.extend(more),
            (Column::Str { data, ends }, Column::Str { data: d, ends: e }) => {
                let base = data.len();
                data.push_str(&d);
                ends.extend(e.into_iter().map(|end| base + end));
            }
            _ => {
                return Err(FabricError::Internal(
                    "merging result columns of different types".into(),
                ))
            }
        }
        Ok(())
    }

    /// Push the value of the `i`-th row number of `at` onto `rows[i]`,
    /// for every `i`: one type dispatch for the whole run of rows.
    fn fill(&self, rows: &mut [Vec<Value>], at: impl Iterator<Item = usize>) {
        let rows = rows.iter_mut();
        match self {
            Column::I8(buf) => push_each(rows, at.map(|r| buf[r]), Value::I8),
            Column::I16(buf) => push_each(rows, at.map(|r| buf[r]), Value::I16),
            Column::I32(buf) => push_each(rows, at.map(|r| buf[r]), Value::I32),
            Column::I64(buf) => push_each(rows, at.map(|r| buf[r]), Value::I64),
            Column::F32(buf) => push_each(rows, at.map(|r| buf[r]), Value::F32),
            Column::F64(buf) => push_each(rows, at.map(|r| buf[r]), Value::F64),
            Column::Date(buf) => push_each(rows, at.map(|r| buf[r]), Value::Date),
            Column::Str { data, ends } => push_each(rows, at.map(|r| text(data, ends, r)), |s| {
                Value::Str(s.to_owned())
            }),
        }
    }

    /// Replace the contents with `src`'s values at `rows`, in that order
    /// (`src` has this column's type).
    fn gather(&mut self, src: &Column, rows: &[u32]) -> Result<()> {
        match (&mut *self, src) {
            (Column::I8(buf), Column::I8(from)) => gather_typed(buf, from, rows),
            (Column::I16(buf), Column::I16(from)) => gather_typed(buf, from, rows),
            (Column::I32(buf), Column::I32(from)) => gather_typed(buf, from, rows),
            (Column::I64(buf), Column::I64(from)) => gather_typed(buf, from, rows),
            (Column::F32(buf), Column::F32(from)) => gather_typed(buf, from, rows),
            (Column::F64(buf), Column::F64(from)) => gather_typed(buf, from, rows),
            (Column::Date(buf), Column::Date(from)) => gather_typed(buf, from, rows),
            (Column::Str { data, ends }, Column::Str { data: d, ends: e }) => {
                // The offsets first, so that the text is reserved once.
                let mut end = 0;
                ends.clear();
                ends.extend(rows.iter().map(|&r| {
                    end += text(d, e, r as usize).len();
                    end
                }));
                data.clear();
                data.reserve(end);
                for &r in rows {
                    data.push_str(text(d, e, r as usize));
                }
            }
            _ => {
                return Err(FabricError::Internal(
                    "gathering a result column into scratch of another type".into(),
                ))
            }
        }
        Ok(())
    }

    /// Bytes one row of this column takes in a buffer (text: its end
    /// offset).
    fn row_bytes(&self) -> usize {
        fn width<T>(_: &Vec<T>) -> usize {
            size_of::<T>()
        }
        per_type!(self, buf => width(buf), Str { _data, ends } => width(ends))
    }

    /// Sort-key order of rows `a` and `b` (see [`SortKey`]; texts compare
    /// byte-wise).
    #[inline]
    fn compare(&self, a: usize, b: usize) -> Ordering {
        per_type!(self, buf => buf[a].key_cmp(buf[b]), Str { data, ends } => {
            text(data, ends, a).as_bytes().cmp(text(data, ends, b).as_bytes())
        })
    }

    /// Heap bytes the buffers hold on to (capacities, not lengths).
    fn heap_bytes(&self) -> usize {
        fn held<T>(buf: &Vec<T>) -> usize {
            buf.capacity() * size_of::<T>()
        }
        per_type!(self, buf => held(buf), Str { data, ends } => data.capacity() + held(ends))
    }
}

/// Scratch bytes per block of an ordered result at the client boundary
/// ([`ResultBatch::rows`]): the block's rows are gathered from the batch
/// into typed buffers this large (`524 288 / 44` ≈ 11 900 rows of an
/// 11-item `i32` projection) before any of them is built. Chosen by
/// measurement (EXPERIMENTS.md, "The client boundary").
pub const CLIENT_GATHER_BYTES: usize = 1 << 19;

/// Rows allocated, then filled a column at a time, in one go: their
/// values (`11 × 32` bytes each for an 11-item projection, 22 KiB at 64)
/// stay in the core's L1 while every column is pushed onto them.
pub const CLIENT_FILL_ROWS: usize = 64;

/// `rows[i].push(wrap(values[i]))` for every `i`.
#[inline]
fn push_each<'r, T>(
    rows: impl Iterator<Item = &'r mut Vec<Value>>,
    values: impl Iterator<Item = T>,
    wrap: impl Fn(T) -> Value,
) {
    for (row, x) in rows.zip(values) {
        row.push(wrap(x));
    }
}

/// `buf` := `from` at `rows`, reading nothing else in between.
fn gather_typed<T: Copy>(buf: &mut Vec<T>, from: &[T], rows: &[u32]) {
    buf.clear();
    buf.extend(rows.iter().map(|&r| from[r as usize]));
}

/// Append the rows `at` of `cols` to `out`, in that order:
/// [`CLIENT_FILL_ROWS`] rows allocated, in output order, then filled a
/// column at a time ([`Column::fill`]), then the next ones.
fn build_rows(cols: &[Column], at: Returned<'_>, out: &mut Vec<Vec<Value>>) {
    let n = at.len();
    for first in (0..n).step_by(CLIENT_FILL_ROWS) {
        let k = CLIENT_FILL_ROWS.min(n - first);
        let start = out.len();
        out.extend(repeat_with(|| Vec::with_capacity(cols.len())).take(k));
        for col in cols {
            let rows = &mut out[start..];
            match at {
                Returned::First(_) => col.fill(rows, first..first + k),
                Returned::Ordered(order) => {
                    col.fill(rows, order[first..first + k].iter().map(|&r| r as usize));
                }
            }
        }
    }
}

/// Append the values at `rows` of `view` as the buffer's machine type.
fn extend_typed<T: Scalar>(buf: &mut Vec<T>, view: &ColumnView<'_>, rows: &[u32]) {
    buf.extend(rows.iter().map(|&r| view.get::<T>(r as usize)));
}

fn wrong_type(fed: &str) -> FabricError {
    FabricError::Internal(format!("result column fed a value of another type ({fed})"))
}

/// Row `r`'s text in a string column's buffers.
#[inline]
fn text<'a>(data: &'a str, ends: &[usize], r: usize) -> &'a str {
    let start = if r == 0 { 0 } else { ends[r - 1] };
    // Offsets are only ever whole pushed strings, so they are in range
    // and on character boundaries.
    data.get(start..ends[r]).unwrap_or_default()
}

/// Row numbers `0..n` in the order `by_keys` puts the rows in, cut to
/// `limit`. Without a limit, or with one that `n` does not reach, a
/// stable sort; with `LIMIT k`, `k < n`, the `k` first rows under the
/// total order (keys, row number) are selected and those sorted — the rows
/// a stable sort followed by truncation returns, in the same order,
/// because that total order is the stable sort's.
fn sorted_rows(
    n: u32,
    limit: Option<usize>,
    by_keys: impl Fn(usize, usize) -> Ordering,
) -> Vec<u32> {
    let by_keys = |a: &u32, b: &u32| by_keys(*a as usize, *b as usize);
    let mut rows: Vec<u32> = (0..n).collect();
    match limit {
        Some(0) => rows.clear(),
        Some(k) if k < rows.len() => {
            let total = |a: &u32, b: &u32| by_keys(a, b).then(a.cmp(b));
            rows.select_nth_unstable_by(k - 1, total);
            rows.truncate(k);
            rows.sort_unstable_by(total);
        }
        _ => rows.sort_by(by_keys),
    }
    rows
}

/// The row numbers of `keys`, one sort key per row, in key order
/// (descending: every word bitwise NOT), cut to `limit`. Each row's key
/// word is paired with its row number, so the pairs are distinct and their
/// order is the total order (key, row number) that [`sorted_rows`] uses —
/// the stable sort's — however the unstable sort or selection moves them.
#[allow(clippy::cast_possible_truncation)] // a row number is a pair's low 32 bits
fn word_order<T: SortKey>(keys: &[T], limit: Option<usize>, desc: bool) -> Vec<u32> {
    let flip = if desc {
        u64::MAX >> (64 - T::WORD_BITS)
    } else {
        0
    };
    let words = keys.iter().map(|k| k.key_word() ^ flip);
    if T::WORD_BITS <= 32 {
        let pairs = words.zip(0u64..).map(|(w, row)| w << 32 | row);
        sort_pairs(pairs.collect(), limit, |p| p as u32)
    } else {
        let pairs = words.zip(0u128..).map(|(w, row)| u128::from(w) << 32 | row);
        sort_pairs(pairs.collect(), limit, |p| p as u32)
    }
}

/// `pairs` sorted, or their `limit` least selected and sorted; then each
/// pair's row number.
fn sort_pairs<P: Ord>(mut pairs: Vec<P>, limit: Option<usize>, row: impl Fn(P) -> u32) -> Vec<u32> {
    match limit {
        Some(0) => pairs.clear(),
        Some(k) if k < pairs.len() => {
            pairs.select_nth_unstable(k - 1);
            pairs.truncate(k);
        }
        _ => {}
    }
    pairs.sort_unstable();
    pairs.into_iter().map(row).collect()
}

/// The rows of a batch a client receives, in output order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Returned<'a> {
    /// The first `n` rows (or all of them, if fewer), in row order.
    First(usize),
    /// These rows, in this order ([`ResultBatch::order`]).
    Ordered(&'a [u32]),
}

impl Returned<'_> {
    /// Rows returned (`First(n)` of a batch that holds `n` rows or more).
    fn len(self) -> usize {
        match self {
            Returned::First(n) => n,
            Returned::Ordered(order) => order.len(),
        }
    }
}

/// A plan's output (or one morsel's share of it): one [`Column`] per
/// output item, all `len()` rows long.
#[derive(Debug, Clone)]
pub(crate) struct ResultBatch {
    cols: Vec<Column>,
    rows: usize,
}

impl ResultBatch {
    /// An empty batch with one column per item type. Allocates the
    /// column list only — buffers grow on first use.
    pub(crate) fn new(types: &[ColumnType]) -> Self {
        ResultBatch {
            cols: types.iter().map(|&ty| Column::new(ty)).collect(),
            rows: 0,
        }
    }

    /// An empty batch of the same columns, each buffer reserved for what
    /// `self` holds: a morsel's buffers are sized once, from the morsel
    /// before it.
    pub(crate) fn successor(&self) -> Self {
        let mut cols: Vec<Column> = Vec::with_capacity(self.cols.len());
        for col in &self.cols {
            let mut next = col.empty_like();
            next.reserve_exact(self.rows, col.text_len());
            cols.push(next);
        }
        ResultBatch { cols, rows: 0 }
    }

    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Append `n` rows column by column: `fill(i, column)` appends item
    /// `i`'s `n` values to its column. If it does not, the batch is
    /// unusable (the query fails).
    pub(crate) fn append_rows(&mut self, n: usize, mut fill: impl FnMut(usize, &mut Column)) {
        for (i, col) in self.cols.iter_mut().enumerate() {
            fill(i, col);
        }
        self.rows += n;
    }

    /// Append one row: `fill(i, column)` pushes item `i`'s value onto its
    /// column. An error leaves the batch unusable (the query fails).
    #[inline]
    pub(crate) fn push_row(
        &mut self,
        mut fill: impl FnMut(usize, &mut Column) -> Result<()>,
    ) -> Result<()> {
        for (i, col) in self.cols.iter_mut().enumerate() {
            fill(i, col)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// `parts` back to back, in order, in buffers reserved exactly once.
    pub(crate) fn concat(types: &[ColumnType], parts: Vec<ResultBatch>) -> Result<Self> {
        let mut out = ResultBatch::new(types);
        let rows = parts.iter().map(|p| p.rows).sum();
        for (i, col) in out.cols.iter_mut().enumerate() {
            let text = parts
                .iter()
                .map(|p| p.cols.get(i).map_or(0, Column::text_len))
                .sum();
            col.reserve_exact(rows, text);
        }
        for part in parts {
            if part.cols.len() != out.cols.len() {
                return Err(FabricError::Internal(format!(
                    "merging a {}-column result batch into a {}-column one",
                    part.cols.len(),
                    out.cols.len()
                )));
            }
            for (dst, src) in out.cols.iter_mut().zip(part.cols) {
                dst.append(src)?;
            }
            out.rows += part.rows;
        }
        Ok(out)
    }

    /// The rows `ORDER BY keys [LIMIT limit]` returns, as row numbers in
    /// output order; `keys` are `(output position, descending)`.
    ///
    /// A single fixed-width key sorts words ([`word_order`]); a text key or
    /// several keys, the comparator ([`sorted_rows`]). Both return the
    /// stable sort's order, cut to the limit.
    pub(crate) fn order(&self, keys: &[(usize, bool)], limit: Option<usize>) -> Result<Vec<u32>> {
        let n = u32::try_from(self.rows).map_err(|_| {
            FabricError::Internal(format!("cannot order a result of {} rows", self.rows))
        })?;
        let mut key_cols = Vec::with_capacity(keys.len());
        for &(pos, desc) in keys {
            let col = self.cols.get(pos).ok_or_else(|| {
                FabricError::Internal(format!("ORDER BY position {pos} out of range"))
            })?;
            key_cols.push((col, desc));
        }
        // One fixed-width key: sorted as (word, row number) pairs.
        if let [(col, desc)] = key_cols[..] {
            let words = per_type!(col, buf => Some(word_order(buf, limit, desc)),
                Str { _data, _ends } => None);
            if let Some(order) = words {
                return Ok(order);
            }
        }
        Ok(sorted_rows(n, limit, |a, b| {
            for &(col, desc) in &key_cols {
                let ord = col.compare(a, b);
                if ord.is_ne() {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        }))
    }

    /// The returned rows as `Value` vectors — the client-boundary form,
    /// built once per returned row, in output order. The values are
    /// copies: nothing returned can alias the batch.
    ///
    /// An ordered result longer than [`CLIENT_FILL_ROWS`] is taken a block
    /// at a time: the block's values are first gathered a column at a
    /// time into typed scratch ([`CLIENT_GATHER_BYTES`] of it, texts on
    /// top, allocated once per call), so its random reads run back to
    /// back, one column's buffer at a time. The first `n` rows are
    /// consecutive already, and a shorter ordered result is read once
    /// either way, so neither is gathered. Then [`build_rows`] allocates
    /// the rows in output order and fills them a column at a time: no
    /// value is matched on its own and no read of a gathered result sits
    /// between two allocations.
    pub(crate) fn rows(&self, returned: Returned<'_>) -> Result<Vec<Vec<Value>>> {
        let returned = match returned {
            Returned::First(n) => Returned::First(n.min(self.rows)),
            ordered => ordered,
        };
        let mut out = Vec::with_capacity(returned.len());
        match returned {
            Returned::Ordered(order) if order.len() > CLIENT_FILL_ROWS => {
                let row_bytes: usize = self.cols.iter().map(Column::row_bytes).sum();
                let block = (CLIENT_GATHER_BYTES / row_bytes.max(1)).max(1);
                let mut gathered: Vec<Column> = self.cols.iter().map(Column::empty_like).collect();
                for rows in order.chunks(block) {
                    for (dst, src) in gathered.iter_mut().zip(&self.cols) {
                        dst.gather(src, rows)?;
                    }
                    build_rows(&gathered, Returned::First(rows.len()), &mut out);
                }
            }
            _ => build_rows(&self.cols, returned, &mut out),
        }
        Ok(out)
    }

    /// Heap bytes the batch holds on to: the sum of its buffers'
    /// capacities plus the column list.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cols.capacity() * size_of::<Column>()
            + self.cols.iter().map(Column::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch of `(i32 key, text, f64)` rows.
    fn batch(rows: &[(i32, &str, f64)]) -> ResultBatch {
        let types = [ColumnType::I32, ColumnType::FixedStr(4), ColumnType::F64];
        let mut b = ResultBatch::new(&types);
        for (k, s, x) in rows {
            let row = [Value::I32(*k), Value::Str((*s).into()), Value::F64(*x)];
            b.push_row(|i, col| col.push(&row[i])).unwrap();
        }
        b
    }

    #[test]
    fn heap_bytes_is_the_sum_of_the_buffers_capacities() {
        let b = batch(&[(1, "ab", 0.5), (2, "", 1.5), (3, "xyz", 2.5)]);
        let mut expect = b.cols.capacity() * size_of::<Column>();
        for col in &b.cols {
            expect += match col {
                Column::I32(buf) => buf.capacity() * 4,
                Column::F64(buf) => buf.capacity() * 8,
                Column::Str { data, ends } => data.capacity() + ends.capacity() * 8,
                other => panic!("unexpected column {other:?}"),
            };
        }
        assert_eq!(b.heap_bytes(), expect);
        assert!(b.heap_bytes() >= 3 * (4 + 8 + 8) + 5);
        assert_eq!(ResultBatch::new(&[]).heap_bytes(), 0);
    }

    #[test]
    fn push_rejects_a_value_of_another_type() {
        let mut b = ResultBatch::new(&[ColumnType::I32]);
        let err = b.push_row(|_, col| col.push(&Value::I64(1))).unwrap_err();
        assert!(err.to_string().contains("another type"), "{err}");
    }

    #[test]
    fn concat_keeps_part_order_and_rebases_text() {
        let types = [ColumnType::I32, ColumnType::FixedStr(4), ColumnType::F64];
        let parts = vec![
            batch(&[(1, "ab", 0.5), (2, "", 1.5)]),
            batch(&[]),
            batch(&[(3, "xyz", 2.5)]),
        ];
        let all = ResultBatch::concat(&types, parts).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.rows(Returned::First(3)).unwrap(),
            batch(&[(1, "ab", 0.5), (2, "", 1.5), (3, "xyz", 2.5)])
                .rows(Returned::First(3))
                .unwrap()
        );
        // Reserved once, exactly.
        assert_eq!(
            all.heap_bytes(),
            3 * size_of::<Column>() + 3 * (4 + 8 + 8) + 5
        );
        assert!(ResultBatch::concat(&types[..2], vec![batch(&[(1, "a", 0.0)])]).is_err());
    }

    #[test]
    fn top_k_is_the_stable_sort_truncated_for_every_k_and_nan_sorts_last() {
        let nan = f64::NAN;
        let rows: Vec<(i32, &str, f64)> = [2.0, nan, -0.0, 1.0, 0.0, nan, 2.0, -1.0, 1.0, 0.0]
            .into_iter()
            .enumerate()
            .map(|(i, x)| ((i % 3) as i32, ["b", "a", ""][i % 3], x))
            .collect();
        let b = batch(&rows);
        // NaN after every number, ties (NaN with NaN, -0.0 with 0.0) in
        // input order; descending reverses the keys, not the ties.
        assert_eq!(
            b.order(&[(2, false)], None).unwrap(),
            vec![7, 2, 4, 9, 3, 8, 0, 6, 1, 5]
        );
        assert_eq!(
            b.order(&[(2, true)], None).unwrap(),
            vec![1, 5, 0, 6, 3, 8, 2, 4, 9, 7]
        );
        for keys in [
            vec![(2, false)],
            vec![(2, true)],
            vec![(0, true), (2, false)],
            vec![(1, false), (0, false)],
        ] {
            let full = b.order(&keys, None).unwrap();
            for k in 0..=rows.len() + 2 {
                let top = b.order(&keys, Some(k)).unwrap();
                assert_eq!(top, full[..k.min(full.len())], "keys {keys:?}, k = {k}");
            }
        }
        assert!(b.order(&[(3, false)], None).is_err());
    }

    /// Every pair of `keys` compares as its words do.
    fn words_order_as_keys<T: SortKey + std::fmt::Debug>(keys: &[T]) {
        for &a in keys {
            for &b in keys {
                let words = a.key_word().cmp(&b.key_word());
                assert_eq!(words, a.key_cmp(b), "{a:?} vs {b:?}");
                let above = a.key_word().checked_shr(T::WORD_BITS).unwrap_or(0);
                assert_eq!(
                    above,
                    0,
                    "{a:?} has a word wider than {} bits",
                    T::WORD_BITS
                );
            }
        }
    }

    #[test]
    fn word_order_is_the_comparator_order_on_every_fixed_width_type() {
        let f64s = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_dead_beef),
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            1.5,
            -1.5,
        ];
        let f32s = f64s.map(|x| x as f32);
        let f32s = [
            &f32s[..],
            &[
                f32::from_bits(0x7f80_0001),
                f32::from_bits(0xffc0_beef),
                f32::MAX,
                f32::MIN,
            ],
        ]
        .concat();
        macro_rules! ints {
            ($variant:ident, $t:ty) => {
                [
                    <$t>::MIN,
                    <$t>::MIN + 1,
                    -1,
                    0,
                    1,
                    <$t>::MAX - 1,
                    <$t>::MAX,
                    7,
                    -7,
                ]
                .map(Value::$variant)
            };
        }
        let columns: [Vec<Value>; 7] = [
            ints!(I8, i8).to_vec(),
            ints!(I16, i16).to_vec(),
            ints!(I32, i32).to_vec(),
            ints!(I64, i64).to_vec(),
            f32s.iter().map(|&x| Value::F32(x)).collect(),
            f64s.map(Value::F64).to_vec(),
            [0, 1, u32::MAX, u32::MAX - 1, 1 << 31, (1 << 31) - 1, 9000]
                .map(Value::Date)
                .to_vec(),
        ];
        for values in columns {
            let ty = values[0].column_type();
            let mut b = ResultBatch::new(&[ty]);
            // Every value twice, the second time in reverse order, so equal
            // keys tie and ties must keep their row order.
            for v in values.iter().chain(values.iter().rev()) {
                b.push_row(|_, col| col.push(v)).unwrap();
            }
            per_type!(&b.cols[0], buf => words_order_as_keys(buf), Str { _data, _ends } => {
                panic!("{ty:?} is fixed-width")
            });
            let n = b.len();
            for desc in [false, true] {
                let by_keys = |x: &u32, y: &u32| {
                    let ord = b.cols[0].compare(*x as usize, *y as usize);
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                };
                let mut stable: Vec<u32> = (0..n as u32).collect();
                stable.sort_by(by_keys);
                assert_eq!(b.order(&[(0, desc)], None).unwrap(), stable, "{ty:?}");
                for k in 0..=n + 1 {
                    let top = b.order(&[(0, desc)], Some(k)).unwrap();
                    assert_eq!(top, stable[..k.min(n)], "{ty:?}, desc {desc}, k = {k}");
                }
            }
        }
    }
}
