//! Exactness of the client boundary (DESIGN.md "The client boundary"):
//! `QueryOutput.rows` built a block at a time — ordered results gathered
//! a column at a time into typed scratch, rows allocated
//! [`CLIENT_FILL_ROWS`] at a time in output order and filled a column at
//! a time — must equal, bit for bit and in order, what the per-value
//! builder it replaced returns (kept in `tests/support/client_rows.rs`
//! with the order a stable sort gives).
//!
//! Generated tables hold every column type: texts that are empty or fill
//! their width, `f32` / `f64` NaN payloads of both signs and `-0.0` beside
//! `0.0`, integer extremes, dates from day 0 to `u32::MAX`, and a key
//! with few distinct values. Statements are plain, `LIMIT`, `ORDER BY`
//! one fixed-width key ascending and descending with ties, a text key,
//! two keys and top-k; results hold 0, 1, `b − 1`, `b`, `b + 1` and
//! `3·b + 7` rows for `b` = [`CLIENT_FILL_ROWS`] (an ordered result of
//! `b` rows is read in place, one of `b + 1` gathered first), and for `b`
//! the rows one gather block of a wide projection holds
//! ([`CLIENT_GATHER_BYTES`]);
//! each runs on ROW, COL and RM at 1, 2 and 4 cores, cold and as an
//! op-cache hit.
//!
//! Seeded from `FABRIC_CHAOS_SEED` like the chaos suite; a failure prints
//! the seed to replay it with.

use fabric_types::rng::for_each_case;
use fabric_types::{ColumnType, DetRng, Schema, Value};
use query::{AccessPath, CLIENT_FILL_ROWS, CLIENT_GATHER_BYTES};

mod support;
use support::client_rows::{first_difference, order, rows, Column};
use support::{seed, table_engine};

const SCHEMA: &[(&str, ColumnType)] = &[
    ("a", ColumnType::I8),
    ("b", ColumnType::I16),
    ("c", ColumnType::I32),
    ("d", ColumnType::I64),
    ("e", ColumnType::F32),
    ("f", ColumnType::F64),
    ("g", ColumnType::Date),
    ("h", ColumnType::FixedStr(5)),
];

/// Bytes a gather block spends per row of one `SCHEMA` projection: each
/// column's machine width, a text its end offset.
const SCHEMA_ROW_BYTES: usize = 1 + 2 + 4 + 8 + 4 + 8 + 4 + size_of::<usize>();

/// What the table holds for a generated value.
fn stored(ty: ColumnType, v: &Value) -> Value {
    let mut bytes = vec![0u8; ty.width()];
    v.encode_into(ty, &mut bytes).unwrap();
    Value::decode(ty, &bytes)
}

/// `n` generated rows of `SCHEMA`.
fn table(rng: &mut DetRng, n: usize) -> Vec<Vec<Value>> {
    let f64s = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_dead_beef),
        -0.0,
        0.0,
        f64::INFINITY,
        f64::MIN,
        1.5,
    ];
    let f32s = [
        f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_beef),
        -0.0,
        0.0,
        f32::NEG_INFINITY,
        f32::MAX,
        -2.25,
    ];
    // Empty, full width (five bytes, one of them a two-byte character),
    // and in between.
    let texts = ["", "abcde", "zzzzz", "éabc", "a", "zz"];
    let pick = |rng: &mut DetRng, n: usize| rng.gen_range(0..n);
    (0..n)
        .map(|_| {
            let row = [
                Value::I8([i8::MIN, i8::MAX, 0, -1][pick(rng, 4)]),
                // Few distinct values: long runs of ties.
                Value::I16(rng.gen_range(-2..=2i16)),
                Value::I32([i32::MIN, i32::MAX, rng.gen_range(-9..9)][pick(rng, 3)]),
                Value::I64([i64::MIN, i64::MAX, 0, 1 << 53][pick(rng, 4)]),
                Value::F32(f32s[pick(rng, f32s.len())]),
                Value::F64(f64s[pick(rng, f64s.len())]),
                Value::Date([0, u32::MAX, rng.gen_range(8000..10000)][pick(rng, 3)]),
                Value::Str(texts[pick(rng, texts.len())].into()),
            ];
            row.iter()
                .zip(SCHEMA)
                .map(|(v, (_, ty))| stored(*ty, v))
                .collect()
        })
        .collect()
}

/// A statement shape: its tail after `FROM t`, its keys as `(item,
/// descending)` over the first copy of the columns, and its limit.
struct Shape {
    tail: String,
    keys: Vec<(usize, bool)>,
    limit: Option<usize>,
}

/// The shapes under test for a table of `n` rows, drawing limits from
/// `rng`.
fn shapes(rng: &mut DetRng, n: usize) -> Vec<Shape> {
    let shape = |tail: &str, keys: &[(usize, bool)], limit: Option<usize>| Shape {
        tail: match limit {
            Some(k) => format!("{tail} LIMIT {k}"),
            None => tail.to_string(),
        },
        keys: keys.to_vec(),
        limit,
    };
    vec![
        shape("", &[], None),
        shape("", &[], Some(rng.gen_range(0..=n + 2))),
        shape(" ORDER BY 2", &[(1, false)], None),
        shape(" ORDER BY 6 DESC", &[(5, true)], None),
        shape(" ORDER BY 8", &[(7, false)], None),
        shape(" ORDER BY 2 DESC, 5", &[(1, true), (4, false)], None),
        shape(" ORDER BY 3", &[(2, false)], Some(rng.gen_range(1..=n + 2))),
    ]
}

/// `SCHEMA`'s columns `copies` times over, as a select list.
fn select_list(copies: usize) -> String {
    let names: Vec<&str> = SCHEMA.iter().map(|(name, _)| *name).collect();
    vec![names.join(", "); copies].join(", ")
}

/// `shape` over `t` (holding `table`) projected `copies` times, against
/// the per-value builder: on every path and core count, cold and as a hit.
fn check(table: &[Vec<Value>], copies: usize, shape: &Shape) {
    let sql = format!("SELECT {} FROM t{}", select_list(copies), shape.tail);
    let projected: Vec<Vec<Value>> = table
        .iter()
        .map(|r| r.iter().cycle().take(r.len() * copies).cloned().collect())
        .collect();
    let cols: Vec<Column> = (0..SCHEMA.len() * copies)
        .map(|item| Column::of(&projected, item))
        .collect();
    let expect = if shape.keys.is_empty() {
        let n = shape.limit.map_or(table.len(), |k| k.min(table.len()));
        rows(&cols, 0..n)
    } else {
        rows(
            &cols,
            order(&projected, &shape.keys, shape.limit).into_iter(),
        )
    };
    let schema = Schema::from_pairs(SCHEMA);
    for cores in [1, 2, 4] {
        let mut e = table_engine(cores, &schema, table);
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            e.clear_op_cache();
            let mut s = e.session();
            let prepared = s.prepare(&sql).unwrap();
            for hit in [false, true] {
                let out = s.execute_on(&prepared, path).unwrap();
                assert_eq!(out.cache_hit, hit, "`{sql}` on {path:?}");
                let diff = first_difference(&out.rows, &expect);
                assert!(
                    diff.is_none(),
                    "`{sql}` on {path:?} at {cores} cores ({} rows, hit {hit}): \
                     row {diff:?} differs — {:?} vs {:?}",
                    table.len(),
                    diff.and_then(|i| out.rows.get(i)),
                    diff.and_then(|i| expect.get(i)),
                );
            }
        }
    }
}

/// Result sizes around `block` rows.
fn sizes(block: usize) -> [usize; 6] {
    [0, 1, block - 1, block, block + 1, 3 * block + 7]
}

#[test]
fn rows_built_a_block_at_a_time_are_the_per_value_rows() {
    let (mut case, sizes) = (0, sizes(CLIENT_FILL_ROWS));
    for_each_case("client rows around a fill block", |rng| {
        let n = sizes[case % sizes.len()];
        let table = table(rng, n);
        let shapes = shapes(rng, n);
        check(&table, 1, &shapes[(case / sizes.len()) % shapes.len()]);
        case += 1;
    });
}

#[test]
fn ordered_rows_across_gather_blocks_are_the_per_value_rows() {
    // Enough copies of the columns that a gather block holds a few
    // hundred rows.
    let copies = 16;
    let block = CLIENT_GATHER_BYTES / (copies * SCHEMA_ROW_BYTES);
    assert!(block > CLIENT_FILL_ROWS, "a gather block of {block} rows");
    let mut rng = DetRng::seed_from_u64(seed());
    for n in sizes(block) {
        let table = table(&mut rng, n);
        let shapes = shapes(&mut rng, n);
        // The two-key and the top-k shapes gather every column type.
        for shape in &shapes[5..] {
            check(&table, copies, shape);
        }
    }
}
