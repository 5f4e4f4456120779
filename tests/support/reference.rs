//! One generator and one reference executor for every answer test
//! (DESIGN.md "One reference for every answer test").
//!
//! * **The generator** draws table `t` over [`COLUMNS`] — all eight column
//!   types, the text type twice — and statements over it. Its values are
//!   the ones a typed loop, a key word or a rendering could get wrong: NaNs
//!   of several payloads (quiet and signalling) and both signs, `-0.0`
//!   beside `0.0`, the integer extremes, day 0 and `u32::MAX`, texts that
//!   are empty, fill their width, are cut by an embedded NUL or carry
//!   `'` + U+001F — so that two keys of the two text columns render alike.
//! * **The reference** runs a [`BoundQuery`] a row at a time over the
//!   values a scan reads back ([`Table::stored`]): `Value::compare` per
//!   conjunct, `Expr::eval` per item, `ValueAgg`s per group; groups are
//!   value identities — the canonical key bytes of DESIGN.md §29 — kept
//!   per morsel and merged in morsel order; grouped output leaves in
//!   rendered-key order, canonical bytes breaking ties; then a stable sort
//!   with NaN after every number (first under `DESC`) and `LIMIT`. A
//!   failing row returns the first error in scan order.

use fabric_types::{
    AggFunc, CmpOp, ColumnId, ColumnType, DetRng, Expr, Result, Schema, Value, ValueAgg,
};
use query::bind::{BoundQuery, OutputItem};
use query::{Engine, MORSEL_ROWS};
use std::cmp::Ordering;
use std::collections::BTreeMap;

// ------------------------------------------------------------- the table

/// The columns of every generated table. `c` takes many distinct values
/// (more than a morsel has rows, in a large table), the others few, so
/// that groups repeat and predicates select anything from nothing to
/// everything.
pub const COLUMNS: [(&str, ColumnType); 9] = [
    ("a", ColumnType::I8),
    ("b", ColumnType::I16),
    ("c", ColumnType::I32),
    ("d", ColumnType::I64),
    ("e", ColumnType::F32),
    ("f", ColumnType::F64),
    ("g", ColumnType::Date),
    ("h", ColumnType::FixedStr(5)),
    ("i", ColumnType::FixedStr(5)),
];
const MANY_VALUED: ColumnId = 2;
/// The text columns, in schema order: `GROUP BY h, i` keys
/// `("a'␟'b", "c")` and `("a", "b'␟'c")` both render `'a'␟'b'␟'c'␟`.
const TEXT_PAIR: [ColumnId; 2] = [7, 8];

pub fn schema() -> Schema {
    Schema::from_pairs(&COLUMNS)
}

pub fn ty(col: ColumnId) -> ColumnType {
    COLUMNS[col].1
}

/// A value of column `col`.
fn value(rng: &mut DetRng, col: ColumnId) -> Value {
    const F64S: [f64; 8] = [f64::NAN, -0.0, 0.0, 1.5, -1.5, 2.0, 1e30, f64::NEG_INFINITY];
    const F32S: [f32; 10] = [
        f32::NAN,
        f32::from_bits(0xffc0_beef),
        f32::from_bits(0x7f80_0001),
        -0.0,
        0.0,
        0.5,
        -2.25,
        7.0,
        f32::NEG_INFINITY,
        f32::MAX,
    ];
    const TEXTS: [&str; 10] = [
        "",
        "a",
        "ab",
        "abcde",
        "éabc",
        "a\0z",
        "\0z",
        "a'\u{1f}'b",
        "c",
        "b'\u{1f}'c",
    ];
    match ty(col) {
        ColumnType::I8 => match rng.gen_range(0..16u32) {
            0 => Value::I8(i8::MIN),
            1 => Value::I8(i8::MAX),
            _ => Value::I8(rng.gen_range(-2..=2)),
        },
        ColumnType::I16 => Value::I16(rng.gen_range(-3i16..=3) * 100),
        ColumnType::I32 => match rng.gen_range(0..64u32) {
            0 => Value::I32(i32::MIN),
            1 => Value::I32(i32::MAX),
            _ => Value::I32(rng.gen_range(0..6000)),
        },
        ColumnType::I64 => match rng.gen_range(0..8u32) {
            0 => Value::I64(i64::MIN),
            1 => Value::I64(i64::MAX),
            _ => Value::I64(rng.gen_range(-3..=3)),
        },
        ColumnType::F32 => Value::F32(F32S[rng.gen_range(0..F32S.len())]),
        // A quiet and a signalling NaN payload, of either sign.
        ColumnType::F64 if rng.gen_bool(0.1) => {
            let payload = [0x7ff8_0000_0000_0001, 0x7ff0_0000_0dea_dbee][rng.gen_range(0..2usize)];
            Value::F64(f64::from_bits(payload | rng.next_u64() << 63))
        }
        ColumnType::F64 if rng.gen_bool(0.5) => Value::F64(F64S[rng.gen_range(0..F64S.len())]),
        // Magnitudes far apart: a sum folded in another order differs.
        ColumnType::F64 => Value::F64((rng.next_f64() - 0.5) * 10f64.powi(rng.gen_range(0..12))),
        ColumnType::Date => match rng.gen_range(0..16u32) {
            0 => Value::Date(u32::MAX),
            _ => Value::Date(rng.gen_range(0..4)),
        },
        ColumnType::FixedStr(_) => Value::Str(TEXTS[rng.gen_range(0..TEXTS.len())].into()),
    }
}

/// A table size: mostly a few chunks, ending mid-chunk; now and then more
/// than two morsels, ending mid-morsel; sometimes nothing at all.
pub fn size(rng: &mut DetRng) -> usize {
    match rng.gen_range(0..16u32) {
        0 => 0,
        1 => 2 * MORSEL_ROWS + rng.gen_range(1..1500usize),
        2 => 1024,
        _ => rng.gen_range(1..2600),
    }
}

/// A generated table `t`.
pub struct Table {
    /// The rows as generated, and loaded.
    pub rows: Vec<Vec<Value>>,
    /// The rows as a scan reads them back: every value through its
    /// column's encoding, so a text with an embedded NUL reads back cut
    /// short (while its stored bytes keep what followed the NUL).
    pub stored: Vec<Vec<Value>>,
}

impl Table {
    /// `n` rows, drawn from a generator of their own seeded from `rng`:
    /// what `rng` draws next does not depend on `n`, so a case shrunk to
    /// fewer rows keeps its statement.
    pub fn generate(rng: &mut DetRng, n: usize) -> Table {
        let mut data = DetRng::seed_from_u64(rng.next_u64());
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| (0..COLUMNS.len()).map(|c| value(&mut data, c)).collect())
            .collect();
        let read_back = |(c, v): (usize, &Value)| {
            let mut bytes = vec![0u8; ty(c).width()];
            v.encode_into(ty(c), &mut bytes).unwrap();
            Value::decode(ty(c), &bytes)
        };
        let stored = rows
            .iter()
            .map(|r| r.iter().enumerate().map(read_back).collect())
            .collect();
        Table { rows, stored }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The table registered as `t`, in both layouts, on a `cores`-core
    /// engine.
    pub fn engine(&self, cores: usize) -> Engine {
        super::table_engine(cores, &schema(), &self.rows)
    }
}

// -------------------------------------------------------- the statements

/// A conjunction over the touched columns `touched`: literals drawn like
/// the data (so `=` hits), of the column's type or another numeric one.
fn conjunction(rng: &mut DetRng, touched: &[ColumnId]) -> Vec<(usize, CmpOp, Value)> {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let n = [0, 0, 1, 1, 2, 3][rng.gen_range(0..6usize)];
    (0..n)
        .map(|_| {
            let slot = rng.gen_range(0..touched.len());
            let col = touched[slot];
            let lit = if ty(col).is_numeric() && rng.gen_bool(0.3) {
                // Any numeric literal compares with any numeric column.
                let other = rng.gen_range(0..COLUMNS.len());
                let other = if ty(other).is_numeric() { other } else { col };
                value(rng, other)
            } else {
                value(rng, col)
            };
            (slot, OPS[rng.gen_range(0..OPS.len())], lit)
        })
        .collect()
}

/// An arithmetic expression over the numeric `slots` — divisions included,
/// so some rows divide by zero.
fn arithmetic(rng: &mut DetRng, slots: &[usize], depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..4u32) {
            0 => Expr::lit(Value::I64(rng.gen_range(-2..=2))),
            1 => Expr::lit(Value::F64(rng.next_f64() * 4.0 - 2.0)),
            _ => Expr::col(slots[rng.gen_range(0..slots.len())]),
        };
    }
    let a = arithmetic(rng, slots, depth - 1);
    let b = arithmetic(rng, slots, depth - 1);
    match rng.gen_range(0..5u32) {
        0 => Expr::add(a, b),
        1 => Expr::sub(a, b),
        2 | 3 => Expr::mul(a, b),
        _ => Expr::div(a, b),
    }
}

/// An expression with at least one operator.
fn computed(rng: &mut DetRng, slots: &[usize]) -> Expr {
    loop {
        let e = arithmetic(rng, slots, 2);
        if e.ops() > 0 {
            return e;
        }
    }
}

/// The slot of table column `col` in `touched`, appended if it is not
/// there yet.
fn slot_of(touched: &mut Vec<ColumnId>, col: ColumnId) -> usize {
    touched.iter().position(|&c| c == col).unwrap_or_else(|| {
        touched.push(col);
        touched.len() - 1
    })
}

/// A statement over `t`: a conjunction, then either projected items
/// (columns, literals, arithmetic) or `count/sum/avg/min/max` with or
/// without GROUP BY, then now and then ORDER BY and LIMIT. A grouped
/// statement sometimes keys on the two text columns, whose renderings
/// collide. With `many_groups` it groups by the many-valued column and
/// filters nothing, so a table of more than two morsels yields more than
/// a morsel's worth of groups.
pub fn statement(rng: &mut DetRng, many_groups: bool) -> BoundQuery {
    // Touched columns: a random subset in a random order.
    let mut touched: Vec<ColumnId> = (0..COLUMNS.len()).collect();
    for i in (1..touched.len()).rev() {
        touched.swap(i, rng.gen_range(0..=i));
    }
    touched.truncate(rng.gen_range(1..=COLUMNS.len()));
    if many_groups && !touched.contains(&MANY_VALUED) {
        touched[0] = MANY_VALUED;
    }
    let numeric: Vec<usize> = (0..touched.len())
        .filter(|&s| ty(touched[s]).is_numeric())
        .collect();
    let preds = if many_groups {
        Vec::new()
    } else {
        conjunction(rng, &touched)
    };
    let literal = |rng: &mut DetRng| {
        let col = rng.gen_range(0..COLUMNS.len());
        Expr::lit(value(rng, col))
    };
    let mut items = Vec::new();
    let mut group_by = Vec::new();
    if !many_groups && rng.gen_bool(0.4) {
        for _ in 0..rng.gen_range(1..=4usize) {
            items.push(OutputItem::Expr(match rng.gen_range(0..4u32) {
                0 => literal(rng),
                1 if !numeric.is_empty() => computed(rng, &numeric),
                _ => Expr::col(rng.gen_range(0..touched.len())),
            }));
        }
    } else {
        let keys: &[ColumnId] = if many_groups {
            &[MANY_VALUED]
        } else if rng.gen_bool(0.3) {
            &TEXT_PAIR
        } else {
            &[]
        };
        for &col in keys {
            group_by.push(slot_of(&mut touched, col));
            items.push(OutputItem::Expr(Expr::col(*group_by.last().unwrap())));
        }
        for _ in 0..[0, 0, 1, 1, 2][rng.gen_range(0..5usize)] {
            let slot = rng.gen_range(0..touched.len());
            if !group_by.contains(&slot) {
                group_by.push(slot);
                items.push(OutputItem::Expr(Expr::col(slot)));
            }
        }
        for _ in 0..rng.gen_range(1..=4usize) {
            let any_slot = Expr::col(rng.gen_range(0..touched.len()));
            items.push(match rng.gen_range(0..6u32) {
                0 => OutputItem::Agg(AggFunc::Count, Expr::lit(Value::I64(1))),
                1 | 2 if !numeric.is_empty() => {
                    let func = [AggFunc::Sum, AggFunc::Avg][rng.gen_range(0..2usize)];
                    let input = if rng.gen_bool(0.5) {
                        computed(rng, &numeric)
                    } else {
                        Expr::col(numeric[rng.gen_range(0..numeric.len())])
                    };
                    OutputItem::Agg(func, input)
                }
                3 if !numeric.is_empty() => OutputItem::Agg(AggFunc::Max, computed(rng, &numeric)),
                4 => OutputItem::Agg(AggFunc::Min, literal(rng)),
                k => OutputItem::Agg([AggFunc::Min, AggFunc::Max][k as usize % 2], any_slot),
            });
        }
        // Items in any order: group columns need not come first.
        let last = items.len() - 1;
        items.swap(0, rng.gen_range(0..=last));
    }
    let keys = if rng.gen_bool(0.4) {
        rng.gen_range(1..=2usize)
    } else {
        0
    };
    let order_by = (0..keys)
        .map(|_| (rng.gen_range(0..items.len()), rng.gen_bool(0.5)))
        .collect();
    let limits = [0, 1, rng.gen_range(2..64), rng.gen_range(64..8000)];
    let limit = rng.gen_bool(0.25).then(|| limits[rng.gen_range(0..4usize)]);
    BoundQuery {
        table: "t".into(),
        touched,
        preds,
        items,
        group_by,
        order_by,
        limit,
    }
}

// ------------------------------------------------------- the reference

/// What `bound` returns over `stored` (rows as a scan reads them back):
/// its rows in output order, or the first error in scan order.
pub fn execute(bound: &BoundQuery, stored: &[Vec<Value>]) -> Result<Vec<Vec<Value>>> {
    let mut rows = if bound.has_aggregates() {
        aggregate(bound, stored)?
    } else {
        project(bound, stored)?
    };
    sort(&mut rows, &bound.order_by);
    rows.truncate(bound.limit.unwrap_or(usize::MAX));
    Ok(rows)
}

/// `row`'s values of `bound`'s touched columns, if every conjunct keeps it.
fn qualifies(bound: &BoundQuery, row: &[Value]) -> Result<Option<Vec<Value>>> {
    let vals: Vec<Value> = bound.touched.iter().map(|&c| row[c].clone()).collect();
    for (slot, op, lit) in &bound.preds {
        if !op.matches(vals[*slot].compare(lit)?) {
            return Ok(None);
        }
    }
    Ok(Some(vals))
}

/// Every qualifying row's items, in scan order.
fn project(bound: &BoundQuery, stored: &[Vec<Value>]) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    for row in stored {
        let Some(vals) = qualifies(bound, row)? else {
            continue;
        };
        let item = |i: &OutputItem| match i {
            OutputItem::Expr(e) => e.eval(&vals),
            OutputItem::Agg(..) => unreachable!("no aggregate in a projecting plan"),
        };
        out.push(bound.items.iter().map(item).collect::<Result<_>>()?);
    }
    Ok(out)
}

/// Groups under their canonical key bytes, each with its key values as
/// first seen and one accumulator per aggregate.
type Groups = BTreeMap<Vec<u8>, (Vec<Value>, Vec<ValueAgg>)>;

/// A group's identity: each key value's encoded bytes, except that every
/// NaN is the one canonical NaN and a text is its bytes up to its first
/// NUL and then a NUL. `-0.0` and `0.0` stay two keys.
fn canonical_key(key: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in key {
        match v {
            Value::I8(x) => out.extend(x.to_le_bytes()),
            Value::I16(x) => out.extend(x.to_le_bytes()),
            Value::I32(x) => out.extend(x.to_le_bytes()),
            Value::I64(x) => out.extend(x.to_le_bytes()),
            Value::F32(x) if x.is_nan() => out.extend(f32::NAN.to_le_bytes()),
            Value::F32(x) => out.extend(x.to_le_bytes()),
            Value::F64(x) if x.is_nan() => out.extend(f64::NAN.to_le_bytes()),
            Value::F64(x) => out.extend(x.to_le_bytes()),
            Value::Date(x) => out.extend(x.to_le_bytes()),
            Value::Str(s) => {
                out.extend(s.bytes().take_while(|&b| b != 0));
                out.push(0);
            }
        }
    }
    out
}

/// The rendered group key: each value through `Display`, each followed by
/// the unit separator U+001F. It orders grouped output.
pub fn rendered_key(key: &[Value]) -> String {
    key.iter().map(|v| format!("{v}\u{1f}")).collect()
}

/// Per morsel, every qualifying row's group fed its aggregates' values;
/// the morsels' groups merged in morsel order; the merged groups in
/// rendered-key order, canonical key bytes breaking ties.
fn aggregate(bound: &BoundQuery, stored: &[Vec<Value>]) -> Result<Vec<Vec<Value>>> {
    let new_accs = || -> Vec<ValueAgg> {
        let aggs = bound.items.iter().filter_map(|i| match i {
            OutputItem::Agg(f, _) => Some(ValueAgg::new(*f)),
            OutputItem::Expr(_) => None,
        });
        aggs.collect()
    };
    let inputs: Vec<&Expr> = bound
        .items
        .iter()
        .filter_map(|i| match i {
            OutputItem::Agg(_, e) => Some(e),
            OutputItem::Expr(_) => None,
        })
        .collect();
    let mut partials = Vec::new();
    for morsel in stored.chunks(MORSEL_ROWS) {
        let mut groups = Groups::new();
        for row in morsel {
            let Some(vals) = qualifies(bound, row)? else {
                continue;
            };
            let key: Vec<Value> = bound.group_by.iter().map(|&s| vals[s].clone()).collect();
            let (_, accs) = groups
                .entry(canonical_key(&key))
                .or_insert_with(|| (key, new_accs()));
            for (acc, e) in accs.iter_mut().zip(&inputs) {
                acc.update(&e.eval(&vals)?)?;
            }
        }
        partials.push(groups);
    }
    let mut merged = Groups::new();
    for groups in partials {
        for (canonical, (key, accs)) in groups {
            match merged.get_mut(&canonical) {
                Some((_, mine)) => {
                    for (m, theirs) in mine.iter_mut().zip(&accs) {
                        m.merge(theirs)?;
                    }
                }
                None => {
                    merged.insert(canonical, (key, accs));
                }
            }
        }
    }
    // A scalar aggregate over no rows is still one row.
    if merged.is_empty() && bound.group_by.is_empty() {
        merged.insert(Vec::new(), (Vec::new(), new_accs()));
    }
    // In canonical order, which the stable sort keeps among equal
    // renderings.
    let mut groups: Vec<_> = merged.into_values().collect();
    groups.sort_by_cached_key(|(key, _)| rendered_key(key));
    let mut out = Vec::new();
    for (key, accs) in groups {
        let mut accs = accs.iter();
        let row = bound.items.iter().map(|item| match item {
            OutputItem::Expr(Expr::Col(slot)) => {
                let pos = bound.group_by.iter().position(|g| g == slot);
                Ok(key[pos.expect("a grouped plan's plain items are group columns")].clone())
            }
            OutputItem::Expr(other) => unreachable!("non-column group output {other}"),
            OutputItem::Agg(..) => accs.next().expect("one accumulator per aggregate").finish(),
        });
        out.push(row.collect::<Result<_>>()?);
    }
    Ok(out)
}

pub fn is_nan(v: &Value) -> bool {
    match v {
        Value::F32(x) => x.is_nan(),
        Value::F64(x) => x.is_nan(),
        _ => false,
    }
}

/// The sort-key order of two values of one output item: numbers as
/// `Value::compare` orders them (`-0.0` equal to `0.0`), NaN after every
/// number and equal to NaN, texts byte-wise.
fn key_order(a: &Value, b: &Value) -> Ordering {
    match (is_nan(a), is_nan(b)) {
        (false, false) => a.compare(b).expect("one item's values compare"),
        (x, y) => x.cmp(&y),
    }
}

/// A stable sort on the `(item, descending)` keys: ties keep their order.
fn sort(rows: &mut [Vec<Value>], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        let by = |&(item, desc): &(usize, bool)| {
            let ord = key_order(&a[item], &b[item]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        };
        keys.iter()
            .map(by)
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
}

// ------------------------------------------------------ the comparison

/// How many leaves of `e`, over table `t`, can be NaN: float columns and
/// NaN literals. (Integer leaves cannot, and a division by zero fails.)
fn nan_leaves(bound: &BoundQuery, e: &Expr) -> usize {
    match e {
        Expr::Col(slot) => usize::from(matches!(
            ty(bound.touched[*slot]),
            ColumnType::F32 | ColumnType::F64
        )),
        Expr::Const(v) => usize::from(is_nan(v)),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            nan_leaves(bound, a) + nan_leaves(bound, b)
        }
    }
}

/// Panics with `ctx` and the first row that differs unless `got` is
/// `want`, row for row and bit for bit ([`super::value_bits`]) — except
/// that any two NaNs of an item where two NaNs can meet (a sum, an
/// average, arithmetic over two float leaves) are alike: which operand's
/// payload an operation on two NaNs keeps is the compiler's choice (it
/// may commute the operands), so not something two correct programs
/// agree on. Every other value keeps every bit.
pub fn assert_answer(bound: &BoundQuery, got: &[Vec<Value>], want: &[Vec<Value>], ctx: &str) {
    let computed: Vec<bool> = bound
        .items
        .iter()
        .map(|item| match item {
            OutputItem::Agg(AggFunc::Sum | AggFunc::Avg, _) => true,
            OutputItem::Agg(_, e) | OutputItem::Expr(e) => nan_leaves(bound, e) >= 2,
        })
        .collect();
    fn settled(v: &Value, computed: bool) -> (u8, u64, &str) {
        match super::value_bits(v) {
            (tag, _, text) if computed && is_nan(v) => (tag, f64::NAN.to_bits(), text),
            bits => bits,
        }
    }
    let same = |(g, w): (&Vec<Value>, &Vec<Value>)| {
        let value = |((a, b), &c): ((&Value, &Value), &bool)| settled(a, c) == settled(b, c);
        g.len() == w.len() && g.iter().zip(w).zip(&computed).all(value)
    };
    let differing = got.iter().zip(want).position(|pair| !same(pair));
    let first = differing.or((got.len() != want.len()).then(|| got.len().min(want.len())));
    if let Some(i) = first {
        panic!(
            "{ctx}: {} rows for the reference's {}; row {i} differs: {:?} vs {:?}",
            got.len(),
            want.len(),
            got.get(i),
            want.get(i)
        );
    }
}
