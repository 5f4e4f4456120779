//! The client boundary as it was built before it went a block at a time:
//! a result held as one typed buffer per output item, and
//! `QueryOutput.rows` built from it one row at a time in output order,
//! each value read at its row number through a `match` on its buffer's
//! type (`Column::value`, `ResultBatch::rows`). Kept as the oracle of
//! `tests/client_rows.rs`, beside the order a stable sort gives.

use fabric_types::Value;
use std::cmp::Ordering;

/// One output item's values, in row order — the typed buffers of a
/// result batch.
pub enum Column {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Date(Vec<u32>),
    Str(Vec<String>),
}

impl Column {
    /// Item `item` of every row of `rows`, as a typed buffer.
    pub fn of(rows: &[Vec<Value>], item: usize) -> Column {
        macro_rules! typed {
            ($variant:ident) => {
                Column::$variant(
                    rows.iter()
                        .map(|r| match &r[item] {
                            Value::$variant(x) => x.clone(),
                            other => panic!("mixed column: {other:?}"),
                        })
                        .collect(),
                )
            };
        }
        match rows.first().map(|r| &r[item]) {
            None | Some(Value::I8(_)) => typed!(I8),
            Some(Value::I16(_)) => typed!(I16),
            Some(Value::I32(_)) => typed!(I32),
            Some(Value::I64(_)) => typed!(I64),
            Some(Value::F32(_)) => typed!(F32),
            Some(Value::F64(_)) => typed!(F64),
            Some(Value::Date(_)) => typed!(Date),
            Some(Value::Str(_)) => typed!(Str),
        }
    }

    /// Row `r` as a [`Value`].
    fn value(&self, r: usize) -> Value {
        match self {
            Column::I8(buf) => Value::I8(buf[r]),
            Column::I16(buf) => Value::I16(buf[r]),
            Column::I32(buf) => Value::I32(buf[r]),
            Column::I64(buf) => Value::I64(buf[r]),
            Column::F32(buf) => Value::F32(buf[r]),
            Column::F64(buf) => Value::F64(buf[r]),
            Column::Date(buf) => Value::Date(buf[r]),
            Column::Str(buf) => Value::Str(buf[r].clone()),
        }
    }
}

/// The rows at `order` as `Value` vectors, one row and one value at a
/// time.
pub fn rows(cols: &[Column], order: impl Iterator<Item = usize>) -> Vec<Vec<Value>> {
    order
        .map(|r| cols.iter().map(|col| col.value(r)).collect())
        .collect()
}

/// The sort-key order of two values of one column: numbers as
/// `Value::compare` orders them (`-0.0` equal to `0.0`), NaN after every
/// number and equal to NaN, texts byte-wise.
pub fn key_order(a: &Value, b: &Value) -> Ordering {
    let nan = |v: &Value| match v {
        Value::F32(x) => x.is_nan(),
        Value::F64(x) => x.is_nan(),
        _ => false,
    };
    match (nan(a), nan(b)) {
        (false, false) => a.compare(b).expect("one column's values compare"),
        (x, y) => x.cmp(&y),
    }
}

/// The row numbers of `projected` (one value per output item each) that
/// `ORDER BY keys LIMIT limit` returns, in output order: a stable sort on
/// the `(item, descending)` keys, then cut.
pub fn order(projected: &[Vec<Value>], keys: &[(usize, bool)], limit: Option<usize>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..projected.len()).collect();
    order.sort_by(|&a, &b| {
        keys.iter()
            .map(|&(item, desc)| {
                let ord = key_order(&projected[a][item], &projected[b][item]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    order.truncate(limit.unwrap_or(usize::MAX));
    order
}

/// Whether two values agree in type and exact bit pattern (`==` on
/// `Value` would call NaN unequal to itself and `-0.0` equal to `0.0`).
pub fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I8(x), Value::I8(y)) => x == y,
        (Value::I16(x), Value::I16(y)) => x == y,
        (Value::I32(x), Value::I32(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// The first row at which two result sets differ bit for bit (or the
/// shorter one's length), or `None` if they agree, row order included.
pub fn first_difference(a: &[Vec<Value>], b: &[Vec<Value>]) -> Option<usize> {
    let differ = |(x, y): (&Vec<Value>, &Vec<Value>)| {
        x.len() != y.len() || !x.iter().zip(y).all(|(v, w)| same_bits(v, w))
    };
    a.iter()
        .zip(b)
        .position(differ)
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}
