//! Scalar values and their byte-level encoding.
//!
//! All columns are fixed width and little-endian encoded. The encode/decode
//! helpers here are the single point of truth used by the row stores, the RM
//! packer, the codecs, and the SQL executor, so a round-trip property test on
//! this module covers the byte format everywhere.

use crate::error::{FabricError, Result};
use crate::schema::ColumnType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Days since 1970-01-01 for a proleptic-Gregorian `(year, month, day)`
/// (Howard Hinnant's algorithm; valid far beyond the TPC-H date range).
/// Trusts its input: an impossible day rolls over into the next month and
/// a date outside the `u32` range wraps. Input from outside the program
/// goes through [`checked_days_from_civil`].
pub fn days_from_civil(y: i64, m: u32, d: u32) -> u32 {
    civil_days(y, m, d) as u32
}

/// Signed days since 1970-01-01 of a month and day in range.
fn civil_days(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = ((m + 9) % 12) as u64;
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1);
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

/// [`days_from_civil`] for a calendar day that exists and that a
/// [`Value::Date`] can hold: `None` for month 0 or 13, day 0, April 31,
/// February 29 of a common year, a date before 1970-01-01, or one more
/// than `u32::MAX` days after it.
pub fn checked_days_from_civil(y: i64, m: u32, d: u32) -> Option<u32> {
    let leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    let month_days = match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if leap => 29,
        2 => 28,
        _ => return None,
    };
    // `u32::MAX` days are about 11.76 million years: bounding the year
    // first keeps `civil_days` far from overflow.
    if d == 0 || d > month_days || !(1970..=12_000_000).contains(&y) {
        return None;
    }
    u32::try_from(civil_days(y, m, d)).ok()
}

/// Total little-endian array read: copies up to `N` bytes from `bytes`,
/// zero-padding a short slice instead of panicking. Callers pass slices
/// whose width was already validated (`Geometry::validate`,
/// `query::analyze`); zero-padding keeps every decoder total anyway, per
/// the repo's no-panic rule for core-crate library code (`fabric-lint`).
///
/// A slice of at least `N` bytes is one fixed-width copy: where the
/// compiler cannot see the slice's length, a copy of `min(len, N)` bytes
/// would be a `memcpy` call per value.
#[inline]
pub fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    if let Some(head) = bytes.first_chunk::<N>() {
        return *head;
    }
    let mut out = [0u8; N];
    out[..bytes.len()].copy_from_slice(bytes);
    out
}

/// A scalar runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    /// Days since the Unix epoch.
    Date(u32),
    /// Fixed-capacity string; stored zero padded, compared byte-wise.
    Str(String),
}

impl Value {
    /// The column type this value naturally encodes to.
    ///
    /// Strings report their current byte length; encoding against a wider
    /// `FixedStr` pads with zero bytes.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::I8(_) => ColumnType::I8,
            Value::I16(_) => ColumnType::I16,
            Value::I32(_) => ColumnType::I32,
            Value::I64(_) => ColumnType::I64,
            Value::F32(_) => ColumnType::F32,
            Value::F64(_) => ColumnType::F64,
            Value::Date(_) => ColumnType::Date,
            Value::Str(s) => ColumnType::FixedStr(s.len()),
        }
    }

    /// Encode into `out`, which must be exactly `ty.width()` bytes.
    pub fn encode_into(&self, ty: ColumnType, out: &mut [u8]) -> Result<()> {
        debug_assert_eq!(out.len(), ty.width());
        match (self, ty) {
            (Value::I8(v), ColumnType::I8) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::I16(v), ColumnType::I16) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::I32(v), ColumnType::I32) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::I64(v), ColumnType::I64) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::F32(v), ColumnType::F32) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::F64(v), ColumnType::F64) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Date(v), ColumnType::Date) => out.copy_from_slice(&v.to_le_bytes()),
            (Value::Str(s), ColumnType::FixedStr(n)) => {
                if s.len() > n {
                    return Err(FabricError::TypeMismatch {
                        expected: format!("char({n})"),
                        found: format!("string of length {}", s.len()),
                    });
                }
                out[..s.len()].copy_from_slice(s.as_bytes());
                out[s.len()..].fill(0);
            }
            (v, t) => {
                return Err(FabricError::TypeMismatch {
                    expected: t.name(),
                    found: v.column_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Decode a value of type `ty` from `bytes` (must be `ty.width()` long).
    #[inline]
    pub fn decode(ty: ColumnType, bytes: &[u8]) -> Value {
        debug_assert_eq!(bytes.len(), ty.width());
        match ty {
            ColumnType::I8 => Value::I8(i8::from_le_bytes(le_array(bytes))),
            ColumnType::I16 => Value::I16(i16::from_le_bytes(le_array(bytes))),
            ColumnType::I32 => Value::I32(i32::from_le_bytes(le_array(bytes))),
            ColumnType::I64 => Value::I64(i64::from_le_bytes(le_array(bytes))),
            ColumnType::F32 => Value::F32(f32::from_le_bytes(le_array(bytes))),
            ColumnType::F64 => Value::F64(f64::from_le_bytes(le_array(bytes))),
            ColumnType::Date => Value::Date(u32::from_le_bytes(le_array(bytes))),
            ColumnType::FixedStr(_) => {
                Value::Str(String::from_utf8_lossy(trim_padding(bytes)).into_owned())
            }
        }
    }

    /// [`Self::decode`] into an existing slot: the same value, but a text
    /// column refills the slot's `String` in place, so a kernel that
    /// decodes row after row into one tuple buffer allocates nothing once
    /// the buffers have grown.
    #[inline]
    pub fn decode_into(ty: ColumnType, bytes: &[u8], slot: &mut Value) {
        match (ty, slot) {
            (ColumnType::FixedStr(_), Value::Str(s)) => {
                let text = trim_padding(bytes);
                s.clear();
                match std::str::from_utf8(text) {
                    Ok(t) => s.push_str(t),
                    Err(_) => s.push_str(&String::from_utf8_lossy(text)),
                }
            }
            (_, slot) => *slot = Value::decode(ty, bytes),
        }
    }

    /// Decode one row's `(type, bytes)` fields into `tuple`, slot by slot
    /// in place; a buffer of another length (a fresh or recycled one) is
    /// rebuilt instead.
    #[inline]
    pub fn decode_row_into<'a>(
        tuple: &mut Vec<Value>,
        fields: impl ExactSizeIterator<Item = (ColumnType, &'a [u8])>,
    ) {
        if tuple.len() == fields.len() {
            for (slot, (ty, bytes)) in tuple.iter_mut().zip(fields) {
                Value::decode_into(ty, bytes, slot);
            }
        } else {
            tuple.clear();
            // Pushed one by one so capacity grows by doubling: a pooled
            // buffer's capacity is an exported gauge
            // (`query.scratchpad.hwm_bytes`) the perf gate compares.
            for (ty, bytes) in fields {
                tuple.push(Value::decode(ty, bytes));
            }
        }
    }

    /// Numeric view as `f64`, for aggregates. Strings are an error.
    #[inline]
    pub fn as_f64(&self) -> Result<f64> {
        Ok(match self {
            Value::I8(v) => *v as f64,
            Value::I16(v) => *v as f64,
            Value::I32(v) => *v as f64,
            Value::I64(v) => *v as f64,
            Value::F32(v) => *v as f64,
            Value::F64(v) => *v,
            Value::Date(v) => *v as f64,
            Value::Str(_) => {
                return Err(FabricError::TypeMismatch {
                    expected: "numeric".into(),
                    found: "string".into(),
                })
            }
        })
    }

    /// Integer view as `i64`, for keys and dates.
    pub fn as_i64(&self) -> Result<i64> {
        Ok(match self {
            Value::I8(v) => *v as i64,
            Value::I16(v) => *v as i64,
            Value::I32(v) => *v as i64,
            Value::I64(v) => *v,
            Value::Date(v) => *v as i64,
            Value::F32(v) => *v as i64,
            Value::F64(v) => *v as i64,
            Value::Str(_) => {
                return Err(FabricError::TypeMismatch {
                    expected: "integer".into(),
                    found: "string".into(),
                })
            }
        })
    }

    /// Total comparison used by predicates: numerics compare numerically
    /// (integers exactly, mixed via `f64`), strings compare byte-wise.
    #[inline]
    pub fn compare(&self, other: &Value) -> Result<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Ok(a.as_bytes().cmp(b.as_bytes())),
            (Value::Str(_), _) | (_, Value::Str(_)) => Err(FabricError::TypeMismatch {
                expected: "comparable types".into(),
                found: "string vs numeric".into(),
            }),
            (a, b) => {
                // Exact integer compare when both sides are integral.
                if let (Some(x), Some(y)) = (a.exact_i64(), b.exact_i64()) {
                    return Ok(x.cmp(&y));
                }
                let x = a.as_f64()?;
                let y = b.as_f64()?;
                Ok(x.partial_cmp(&y).unwrap_or(Ordering::Equal))
            }
        }
    }

    /// The value as an `i64` when its type is integral (floats and
    /// strings are `None`, whatever they hold).
    #[inline]
    fn exact_i64(&self) -> Option<i64> {
        match self {
            Value::I8(v) => Some(*v as i64),
            Value::I16(v) => Some(*v as i64),
            Value::I32(v) => Some(*v as i64),
            Value::I64(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            Value::F32(_) | Value::F64(_) | Value::Str(_) => None,
        }
    }
}

/// The text of a zero-padded fixed-width string field: everything before
/// the first NUL.
#[inline]
pub(crate) fn trim_padding(bytes: &[u8]) -> &[u8] {
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    &bytes[..end]
}

/// Hashes by bit pattern: the variant, then the payload, floats by
/// `to_bits`. Two values hash alike only if they are the same bits of the
/// same type, so `F32(1.0)` and `F64(1.0)`, `0.0` and `-0.0`, or two NaN
/// payloads hash apart although `==` may call them equal (or unequal).
/// A plan's identity needs that; `Value` is not `Eq` and keys no map.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::I8(v) => v.hash(state),
            Value::I16(v) => v.hash(state),
            Value::I32(v) => v.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F32(v) => v.to_bits().hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Date(v) => v.hash(state),
            Value::Str(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I8(v) => write!(f, "{v}"),
            Value::I16(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date#{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::for_each_case;

    #[test]
    fn le_array_takes_the_first_n_bytes_and_zero_pads_a_short_slice() {
        let bytes: Vec<u8> = (1..=10).collect();
        assert_eq!(le_array::<4>(&bytes), [1, 2, 3, 4]);
        assert_eq!(le_array::<8>(&bytes[2..10]), [3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(le_array::<8>(&bytes[..3]), [1, 2, 3, 0, 0, 0, 0, 0]);
        assert_eq!(le_array::<2>(&[]), [0, 0]);
    }

    #[test]
    fn checked_civil_days_accept_real_days_in_the_date_domain_only() {
        assert_eq!(checked_days_from_civil(1970, 1, 1), Some(0));
        assert_eq!(checked_days_from_civil(1994, 1, 1), Some(8766));
        assert_eq!(checked_days_from_civil(2000, 2, 29), Some(11_016));
        assert_eq!(checked_days_from_civil(1996, 2, 29), Some(9_555));
        for (y, m, d) in [
            (1998, 2, 29), // common year
            (1900, 2, 29), // century, not a leap year
            (1998, 2, 31),
            (1998, 4, 31),
            (1998, 0, 1),
            (1998, 13, 1),
            (1998, 1, 0),
            (1998, 1, 32),
            (1969, 12, 31), // before the epoch
            (1960, 1, 1),
            (-4, 1, 1),
            (11_761_191, 1, 21), // u32::MAX + 1 days
            (i64::MAX, 1, 1),
            (i64::MIN, 3, 1),
        ] {
            assert_eq!(checked_days_from_civil(y, m, d), None, "{y}-{m}-{d}");
        }
        // The last day a `Date` holds.
        assert_eq!(checked_days_from_civil(11_761_191, 1, 20), Some(u32::MAX));
        for_each_case("checked civil days agree with the unchecked ones", |rng| {
            let (y, m) = (rng.gen_range(1970..3000i64), rng.gen_range(1..=12u32));
            let d = rng.gen_range(1..=28u32);
            assert_eq!(
                checked_days_from_civil(y, m, d),
                Some(days_from_civil(y, m, d))
            );
        });
    }

    #[test]
    fn roundtrip_fixed_width() {
        let cases = vec![
            (Value::I8(-5), ColumnType::I8),
            (Value::I16(-300), ColumnType::I16),
            (Value::I32(123_456), ColumnType::I32),
            (Value::I64(-9_876_543_210), ColumnType::I64),
            (Value::F32(1.5), ColumnType::F32),
            (Value::F64(-2.25), ColumnType::F64),
            (Value::Date(19_000), ColumnType::Date),
        ];
        for (v, ty) in cases {
            let mut buf = vec![0u8; ty.width()];
            v.encode_into(ty, &mut buf).unwrap();
            assert_eq!(Value::decode(ty, &buf), v);
        }
    }

    #[test]
    fn string_pads_and_truncates_trailing_zeros() {
        let mut buf = vec![0xAAu8; 8];
        Value::Str("abc".into())
            .encode_into(ColumnType::FixedStr(8), &mut buf)
            .unwrap();
        assert_eq!(&buf[..3], b"abc");
        assert_eq!(&buf[3..], &[0, 0, 0, 0, 0]);
        assert_eq!(
            Value::decode(ColumnType::FixedStr(8), &buf),
            Value::Str("abc".into())
        );
    }

    #[test]
    fn string_too_long_is_error() {
        let mut buf = vec![0u8; 2];
        assert!(Value::Str("abc".into())
            .encode_into(ColumnType::FixedStr(2), &mut buf)
            .is_err());
    }

    #[test]
    fn cross_type_encode_is_error() {
        let mut buf = vec![0u8; 4];
        assert!(Value::I64(1)
            .encode_into(ColumnType::I32, &mut buf)
            .is_err());
    }

    #[test]
    fn compare_mixed_numeric() {
        assert_eq!(
            Value::I32(3).compare(&Value::F64(3.5)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::I64(7).compare(&Value::I8(7)).unwrap(),
            Ordering::Equal
        );
        assert!(Value::Str("a".into()).compare(&Value::I8(0)).is_err());
    }

    #[test]
    fn exact_i64_comparison_beyond_f53() {
        // Would be equal under f64 rounding; must differ under exact compare.
        let a = Value::I64(9_007_199_254_740_993);
        let b = Value::I64(9_007_199_254_740_992);
        assert_eq!(a.compare(&b).unwrap(), Ordering::Greater);
    }

    #[test]
    fn prop_i64_roundtrip() {
        for_each_case("i64 roundtrip", |rng| {
            let v = rng.next_u64() as i64;
            let mut buf = [0u8; 8];
            Value::I64(v)
                .encode_into(ColumnType::I64, &mut buf)
                .unwrap();
            assert_eq!(Value::decode(ColumnType::I64, &buf), Value::I64(v));
        });
    }

    #[test]
    fn prop_f64_roundtrip() {
        for_each_case("f64 roundtrip", |rng| {
            // Any finite bit pattern, subnormals and both zeros included.
            let v = loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            };
            let mut buf = [0u8; 8];
            Value::F64(v)
                .encode_into(ColumnType::F64, &mut buf)
                .unwrap();
            assert_eq!(Value::decode(ColumnType::F64, &buf), Value::F64(v));
        });
    }

    #[test]
    fn prop_str_roundtrip() {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        for_each_case("str roundtrip", |rng| {
            let s: String = (0..rng.gen_range(0..=16usize))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                .collect();
            let mut buf = [0u8; 16];
            Value::Str(s.clone())
                .encode_into(ColumnType::FixedStr(16), &mut buf)
                .unwrap();
            assert_eq!(Value::decode(ColumnType::FixedStr(16), &buf), Value::Str(s));
        });
    }

    #[test]
    fn prop_compare_consistent_with_i64() {
        for_each_case("compare consistent with i64", |rng| {
            let (a, b) = (rng.next_u64() as i32, rng.next_u64() as i32);
            let ord = Value::I32(a).compare(&Value::I32(b)).unwrap();
            assert_eq!(ord, a.cmp(&b));
        });
    }
}
