//! Differential tests of the host-side fast paths (DESIGN.md "Host-side
//! fast paths and why they are exact"): each replaced a slower piece of
//! code and must agree with it on generated inputs, bit for bit.
//!
//! * CRC-32 against the byte-at-a-time loop: spans under 128 bytes take
//!   the slicing-by-8 tables, longer ones the carry-less-multiply kernel
//!   on a CPU that has one (`crc.rs`'s unit test runs both directly);
//! * `Value::compare` against an oracle over every type pair;
//! * `Value::decode_into` against `Value::decode`;
//! * the compiled `f64` expression program, evaluated a chunk at a time,
//!   against `Expr::eval_f64` row by row;
//! * grouped aggregation on raw keys against the rendered-key algorithm
//!   it replaced, on ROW, COL and RM at 1/2/4 cores — keys that render
//!   alike, which that algorithm folded together, stay two groups.
//!
//! Generated cases are seeded from `FABRIC_CHAOS_SEED` (like the chaos
//! suite); a failure prints the seed to replay it with.

use fabric_types::{
    crc32, Chunk, ChunkError, ColumnType, Crc32, DetRng, Expr, F64Regs, FabricError, Schema, Value,
    ValueAgg,
};
use query::bind::{bind, BoundQuery, OutputItem};
use query::{AccessPath, Engine, MORSEL_ROWS};
use std::cmp::Ordering;
use std::collections::BTreeMap;

mod support;
use support::{bits, core_grid, seed};

// ------------------------------------------------------------------ CRC

/// The byte-at-a-time CRC-32/ISO-HDLC the sliced loop replaced.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut state = !0u32;
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ 0xEDB8_8320
            } else {
                state >> 1
            };
        }
    }
    !state
}

#[test]
fn sliced_crc_equals_the_bytewise_loop_under_any_fragmentation() {
    let seed = seed();
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC2C);
    assert_eq!(
        crc32(b"123456789"),
        0xCBF4_3926,
        "the published check value"
    );
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    for case in 0..400 {
        // Every length up to two words, then random ones up to 4 KiB.
        let len = if case < 17 {
            case
        } else {
            rng.gen_range(0..=4096usize)
        };
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let expect = crc32_bytewise(&data);
        assert_eq!(
            crc32(&data),
            expect,
            "one shot, {len} bytes (replay: FABRIC_CHAOS_SEED={seed})"
        );
        let mut h = Crc32::new();
        let mut rest = &data[..];
        while !rest.is_empty() {
            // Fragments of 0..=40 bytes: unaligned heads, tails and empty
            // updates between whole words.
            let cut = rng.gen_range(0..=40usize).min(rest.len());
            h.update(&rest[..cut]);
            rest = &rest[cut..];
        }
        assert_eq!(
            h.finalize(),
            expect,
            "fragmented, {len} bytes (replay: FABRIC_CHAOS_SEED={seed})"
        );
    }
}

// -------------------------------------------------------------- compare

/// What `Value::compare` is specified to do, written out independently:
/// `None` is the string/numeric mismatch error.
fn compare_oracle(a: &Value, b: &Value) -> Option<Ordering> {
    fn int(v: &Value) -> Option<i128> {
        Some(match v {
            Value::I8(x) => i128::from(*x),
            Value::I16(x) => i128::from(*x),
            Value::I32(x) => i128::from(*x),
            Value::I64(x) => i128::from(*x),
            Value::Date(x) => i128::from(*x),
            _ => return None,
        })
    }
    fn float(v: &Value) -> f64 {
        match v {
            Value::F32(x) => f64::from(*x),
            Value::F64(x) => *x,
            other => int(other).expect("numeric") as f64,
        }
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.as_bytes().cmp(y.as_bytes())),
        (Value::Str(_), _) | (_, Value::Str(_)) => None,
        _ => Some(match (int(a), int(b)) {
            (Some(x), Some(y)) => x.cmp(&y),
            _ => float(a).partial_cmp(&float(b)).unwrap_or(Ordering::Equal),
        }),
    }
}

#[test]
fn compare_matches_the_oracle_on_every_type_pair() {
    const TWO_53: i64 = 1 << 53;
    let mut samples = vec![
        Value::I8(i8::MIN),
        Value::I8(0),
        Value::I8(7),
        Value::I16(i16::MAX),
        Value::I16(-300),
        Value::I32(i32::MIN),
        Value::I32(7),
        Value::Date(0),
        Value::Date(u32::MAX),
        Value::Date(7),
        Value::F32(f32::NAN),
        Value::F32(-0.0),
        Value::F32(7.0),
        Value::F32(f32::INFINITY),
        Value::Str(String::new()),
        Value::Str("a".into()),
        Value::Str("ab".into()),
        Value::Str("é".into()),
    ];
    // i64 beyond 2^53, where f64 rounding would call neighbours equal.
    for v in [
        i64::MIN,
        -TWO_53 - 1,
        -TWO_53,
        -1,
        0,
        7,
        TWO_53,
        TWO_53 + 1,
        i64::MAX,
    ] {
        samples.push(Value::I64(v));
    }
    for v in [
        f64::NAN,
        -f64::NAN,
        -0.0,
        0.0,
        7.0,
        7.5,
        TWO_53 as f64,
        -(TWO_53 as f64),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        samples.push(Value::F64(v));
    }
    let mut errors = 0;
    for a in &samples {
        for b in &samples {
            match (a.compare(b), compare_oracle(a, b)) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "{a:?} vs {b:?}"),
                (Err(FabricError::TypeMismatch { .. }), None) => errors += 1,
                (got, want) => panic!("{a:?} vs {b:?}: got {got:?}, oracle {want:?}"),
            }
        }
    }
    assert!(errors > 0, "the sample must include string/numeric pairs");
    // The cases the fast path must not get wrong, spelled out.
    let ord = |a: Value, b: Value| a.compare(&b).unwrap();
    assert_eq!(ord(Value::F64(-0.0), Value::F64(0.0)), Ordering::Equal);
    assert_eq!(ord(Value::F64(f64::NAN), Value::F64(1.0)), Ordering::Equal);
    assert_eq!(
        ord(Value::I64(TWO_53 + 1), Value::I64(TWO_53)),
        Ordering::Greater
    );
    assert_eq!(
        ord(Value::I64(TWO_53 + 1), Value::F64(TWO_53 as f64)),
        Ordering::Equal
    );
}

// --------------------------------------------------------------- decode

#[test]
fn decode_into_equals_decode_whatever_the_slot_held() {
    let seed = seed();
    let mut rng = DetRng::seed_from_u64(seed ^ 0xDEC0DE);
    let types = [
        ColumnType::I8,
        ColumnType::I16,
        ColumnType::I32,
        ColumnType::I64,
        ColumnType::F32,
        ColumnType::F64,
        ColumnType::Date,
        ColumnType::FixedStr(1),
        ColumnType::FixedStr(9),
    ];
    // One slot reused across every case, so each decode meets whatever
    // the previous one left: another type, a longer or a shorter string.
    let mut slot = Value::I8(0);
    for case in 0..4000 {
        let ty = types[rng.gen_range(0..types.len())];
        let mut bytes: Vec<u8> = (0..ty.width()).map(|_| rng.next_u64() as u8).collect();
        if let ColumnType::FixedStr(n) = ty {
            // Mostly text with padding; sometimes raw bytes (invalid
            // UTF-8 takes the lossy path).
            if rng.gen_bool(0.8) {
                let text = rng.gen_range(0..=n);
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = if i < text { b'a' + (*b % 26) } else { 0 };
                }
            }
        }
        Value::decode_into(ty, &bytes, &mut slot);
        let want = Value::decode(ty, &bytes);
        let same = match (&slot, &want) {
            (Value::F32(a), Value::F32(b)) => a.to_bits() == b.to_bits(),
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        assert!(
            same,
            "case {case}: {ty:?} from {bytes:?} gave {slot:?}, decode gives {want:?} \
             (replay: FABRIC_CHAOS_SEED={seed})"
        );
    }
    // A whole row: in place when the buffer has the row's arity, rebuilt
    // when it does not.
    let fields = [
        (ColumnType::I32, &[1u8, 0, 0, 0][..]),
        (ColumnType::FixedStr(2), b"ok"),
    ];
    for mut tuple in [
        vec![],
        vec![Value::Str("stale".into())],
        vec![Value::I8(1); 2],
    ] {
        Value::decode_row_into(&mut tuple, fields.iter().copied());
        assert_eq!(tuple, vec![Value::I32(1), Value::Str("ok".into())]);
    }
}

// ------------------------------------------------------ compiled f64 sum

fn random_expr(rng: &mut DetRng, depth: u32, arity: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..10u32) {
            // One slot past the tuple: the out-of-range error.
            0..=5 => Expr::col(rng.gen_range(0..=arity)),
            6 => Expr::lit(Value::F64(0.0)),
            7 => Expr::lit(Value::I64(rng.gen_range(-3..=3i64))),
            8 => Expr::lit(Value::Str("text".into())),
            _ => Expr::lit(Value::F64(rng.next_f64() * 100.0 - 50.0)),
        };
    }
    let a = random_expr(rng, depth - 1, arity);
    let b = random_expr(rng, depth - 1, arity);
    match rng.gen_range(0..4u32) {
        0 => Expr::add(a, b),
        1 => Expr::sub(a, b),
        2 => Expr::mul(a, b),
        _ => Expr::div(a, b),
    }
}

#[test]
fn compiled_program_equals_eval_f64_value_for_value_and_error_for_error() {
    let seed = seed();
    let mut rng = DetRng::seed_from_u64(seed ^ 0xF64);
    let types = [
        ColumnType::I32,
        ColumnType::F64,
        ColumnType::I64,
        ColumnType::F64,
        ColumnType::F64,
        ColumnType::F64,
        ColumnType::F64,
        ColumnType::Date,
        ColumnType::FixedStr(1),
    ];
    // The first row is the tuple the row-at-a-time program was checked
    // on; the others move the zeros (the data-dependent error) around.
    let mut table = vec![vec![
        Value::I32(10),
        Value::F64(2.5),
        Value::I64(-4),
        Value::F64(0.0),
        Value::F64(-0.0),
        Value::F64(f64::NAN),
        Value::F64(1e308),
        Value::Date(9000),
        Value::Str("s".into()),
    ]];
    for _ in 0..7 {
        let float = |rng: &mut DetRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => rng.gen_range(-3..=3i64) as f64,
            _ => rng.next_f64() * 100.0 - 50.0,
        };
        table.push(vec![
            Value::I32(rng.gen_range(-2..=2)),
            Value::F64(float(&mut rng)),
            Value::I64(rng.gen_range(-3..=3)),
            Value::F64(float(&mut rng)),
            Value::F64(float(&mut rng)),
            Value::F64(float(&mut rng)),
            Value::F64(float(&mut rng)),
            Value::Date(rng.gen_range(0..3)),
            Value::Str("t".into()),
        ]);
    }
    let (bytes, specs) = support::packed_rows(&types, &table);
    let chunk = Chunk::new(&bytes, &specs);
    let mut regs = F64Regs::default();
    let (mut values, mut errors, mut late_errors) = (0, 0, 0);
    for case in 0..5000 {
        let expr = random_expr(&mut rng, 4, types.len());
        let program = expr.compile_f64();
        // The whole table, then a few rows in any order: the registers
        // are reused between evaluations.
        let some: Vec<u32> = (0..rng.gen_range(0..6usize))
            .map(|_| rng.gen_range(0..table.len() as u32))
            .collect();
        let all: Vec<u32> = (0..table.len() as u32).collect();
        for rows in [&all, &some] {
            let ctx =
                format!("case {case}: {expr} over {rows:?} (replay: FABRIC_CHAOS_SEED={seed})");
            // Row at a time: every value, or the first error and its row.
            let mut want = Ok(Vec::new());
            for (at, &r) in rows.iter().enumerate() {
                match (expr.eval_f64(&table[r as usize]), &mut want) {
                    (Ok(x), Ok(bits)) => bits.push(x.to_bits()),
                    (Err(error), Ok(_)) => want = Err(ChunkError { at, error }),
                    (_, Err(_)) => break,
                }
            }
            let got = program
                .eval_chunk(&chunk, rows, &mut regs)
                .map(|col| (0..rows.len()).map(|k| col.at(k).to_bits()).collect());
            assert_eq!(got, want, "{ctx}");
            match want {
                Ok(bits) => values += bits.len(),
                Err(e) => {
                    errors += 1;
                    late_errors += usize::from(e.at > 0);
                }
            }
        }
    }
    assert!(
        values > 500 && errors > 500 && late_errors > 100,
        "{values} values, {errors} errors, {late_errors} of them past the first row"
    );
}

// --------------------------------------------------- grouped aggregation

/// Grouped aggregation as the executor did it before raw keys: per
/// morsel, every row's group columns formatted through `Display` into a
/// `String` keying a `BTreeMap`, every aggregate fed through
/// `Expr::eval` → `ValueAgg::update`; partials merged in morsel order;
/// output in rendered-key order.
fn rendered_key_reference(bound: &BoundQuery, table: &[Vec<Value>]) -> Vec<Vec<Value>> {
    type Groups = BTreeMap<String, (Vec<Value>, Vec<ValueAgg>)>;
    let new_accs = || -> Vec<ValueAgg> {
        bound
            .items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Agg(f, _) => Some(ValueAgg::new(*f)),
                OutputItem::Expr(_) => None,
            })
            .collect()
    };
    let mut merged: Option<Groups> = None;
    for morsel in table.chunks(MORSEL_ROWS) {
        let mut groups = Groups::new();
        for row in morsel {
            let vals: Vec<Value> = bound.touched.iter().map(|&c| row[c].clone()).collect();
            let pass = bound
                .preds
                .iter()
                .all(|(slot, op, lit)| op.matches(vals[*slot].compare(lit).unwrap()));
            if !pass {
                continue;
            }
            let key: String = bound
                .group_by
                .iter()
                .map(|&s| format!("{}\u{1f}", vals[s]))
                .collect();
            let entry = groups.entry(key).or_insert_with(|| {
                let key_vals = bound.group_by.iter().map(|&s| vals[s].clone()).collect();
                (key_vals, new_accs())
            });
            let aggs = bound.items.iter().filter_map(|i| match i {
                OutputItem::Agg(_, e) => Some(e),
                OutputItem::Expr(_) => None,
            });
            for (acc, e) in entry.1.iter_mut().zip(aggs) {
                acc.update(&e.eval(&vals).unwrap()).unwrap();
            }
        }
        match &mut merged {
            None => merged = Some(groups),
            Some(acc) => {
                for (key, (key_vals, accs)) in groups {
                    match acc.get_mut(&key) {
                        Some(mine) => {
                            for (m, theirs) in mine.1.iter_mut().zip(&accs) {
                                m.merge(theirs).unwrap();
                            }
                        }
                        None => {
                            acc.insert(key, (key_vals, accs));
                        }
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (key_vals, accs) in merged.unwrap_or_default().into_values() {
        let mut accs = accs.iter();
        let row = bound.items.iter().map(|item| match item {
            OutputItem::Expr(Expr::Col(slot)) => {
                let pos = bound.group_by.iter().position(|g| g == slot).unwrap();
                key_vals[pos].clone()
            }
            OutputItem::Expr(other) => panic!("non-column group output {other}"),
            OutputItem::Agg(..) => accs.next().unwrap().finish().unwrap(),
        });
        out.push(row.collect());
    }
    out
}

/// Rows whose group columns hold what raw-key grouping must get right:
/// NaNs of several payloads and both signs (one group), `-0.0` beside
/// `0.0` (two groups), strings that are prefixes of each other, strings
/// that differ only after an embedded NUL (one group: a text is read up to
/// its first NUL), and an integer column with more distinct values than a
/// morsel has rows, so a morsel sees far more distinct keys than the
/// linear table of seen keys holds.
fn grouping_rows(rng: &mut DetRng, n: usize) -> Vec<Vec<Value>> {
    let floats = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff0_0000_0dea_dbee),
        -0.0,
        0.0,
        1.5,
        -1.5,
        1e300,
        f64::INFINITY,
    ];
    let texts = ["", "a", "ab", "b", "a\0b", "a\0c", "\0z"];
    (0..n)
        .map(|_| {
            // Magnitudes far apart, so a sum folded in another order
            // would differ in its last bits.
            let v = (rng.next_f64() - 0.5) * 10f64.powi(rng.gen_range(0..12));
            vec![
                Value::F64(floats[rng.gen_range(0..floats.len())]),
                Value::Str(texts[rng.gen_range(0..texts.len())].into()),
                Value::I32(rng.gen_range(0..6000)),
                Value::F64(v),
                Value::I64(rng.gen_range(-50..1000)),
            ]
        })
        .collect()
}

fn grouping_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ColumnType::F64),
        ("s", ColumnType::FixedStr(3)),
        ("g", ColumnType::I32),
        ("v", ColumnType::F64),
        ("w", ColumnType::I64),
    ])
}

fn grouping_engine(cores: usize, table: &[Vec<Value>]) -> Engine {
    support::table_engine(cores, &grouping_schema(), table)
}

/// `table` as the engine stores and reads it back: a text up to its
/// first NUL.
fn as_stored(table: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let schema = grouping_schema();
    let round_trip = |(v, c): (&Value, &fabric_types::ColumnDef)| {
        let mut bytes = vec![0; c.ty.width()];
        v.encode_into(c.ty, &mut bytes).unwrap();
        Value::decode(c.ty, &bytes)
    };
    table
        .iter()
        .map(|row| row.iter().zip(schema.columns()).map(round_trip).collect())
        .collect()
}

#[test]
fn raw_key_grouping_returns_the_rendered_key_rows_in_the_rendered_key_order() {
    let seed = seed();
    let mut rng = DetRng::seed_from_u64(seed ^ 0x6200);
    // Three full morsels and a short one.
    let table = grouping_rows(&mut rng, 3 * MORSEL_ROWS + 1000);
    let stored = as_stored(&table);
    // Keys of one word (`k`: 8 bytes), two (`k, s` and `g, k, s`: 11 and
    // 15 bytes) and three (`w, k, s`: 19 bytes).
    let queries = [
        "SELECT k, s, sum(v), avg(v), count(*), min(w), max(v) FROM t GROUP BY k, s",
        "SELECT g, sum(v * 2 + w), count(*), avg(w) FROM t WHERE w >= 0 GROUP BY g",
        "SELECT s, k, g, sum(v / (w + 51)) FROM t WHERE g < 4500 GROUP BY g, k, s",
        "SELECT w, s, count(*), sum(v), max(g), k FROM t GROUP BY w, k, s",
        "SELECT k, count(*), sum(w) FROM t WHERE s = 'a' GROUP BY k",
        "SELECT sum(v), count(*), min(k) FROM t WHERE w < 900",
    ];
    for sql in queries {
        let reference = {
            let e = grouping_engine(1, &table);
            let stmt = query::parser::parse(sql).unwrap();
            let bound = bind(e.catalog(), &stmt).unwrap();
            rendered_key_reference(&bound, &stored)
        };
        if sql.contains("GROUP BY g") || sql.contains("GROUP BY w") {
            assert!(reference.len() > 4096, "{} groups", reference.len());
        }
        for &cores in &core_grid() {
            for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                let mut e = grouping_engine(cores, &table);
                let out = e.session().run_on(sql, path).unwrap();
                assert!(
                    bits(&out.rows) == bits(&reference),
                    "{path:?} at {cores} cores diverged from the rendered-key \
                     reference on `{sql}` (replay: FABRIC_CHAOS_SEED={seed})"
                );
            }
        }
    }
    // The shapes the keys were chosen for, on the first query: every NaN
    // in one group per string, the two zeros apart.
    let mut e = grouping_engine(1, &table);
    let rows = e
        .session()
        .run_on(queries[0], AccessPath::Row)
        .unwrap()
        .rows;
    let keyed = |pred: &dyn Fn(f64) -> bool| {
        rows.iter()
            .filter(|r| matches!(r[0], Value::F64(k) if pred(k)))
            .count()
    };
    // Four texts: "a\0b" and "a\0c" are "a", "\0z" is "".
    assert_eq!(keyed(&|k| k.is_nan()), 4, "one NaN group per string");
    assert_eq!(keyed(&|k| k == 0.0), 8, "-0.0 and 0.0 per string");
    assert_eq!(rows.len(), 7 * 4);
}

/// Two keys whose renderings collide — each text rendered in quotes and
/// followed by the unit separator U+001F — are two groups: a group is
/// its canonical key bytes from the morsel to the merge, and the
/// rendered key only orders the output, the canonical key breaking ties.
#[test]
fn keys_that_render_alike_stay_apart() {
    let schema = Schema::from_pairs(&[
        ("s1", ColumnType::FixedStr(5)),
        ("s2", ColumnType::FixedStr(5)),
    ]);
    let (left, right) = (("a'\u{1f}'b", "c"), ("a", "b'\u{1f}'c"));
    // Both keys in every morsel, so partials merge them too.
    let table: Vec<Vec<Value>> = (0..2 * MORSEL_ROWS + 10)
        .map(|i| {
            let (s1, s2) = if i % 2 == 0 { left } else { right };
            vec![Value::Str(s1.into()), Value::Str(s2.into())]
        })
        .collect();
    let half = Value::I64(table.len() as i64 / 2);
    let expected = vec![
        vec![
            Value::Str(right.0.into()),
            Value::Str(right.1.into()),
            half.clone(),
        ],
        vec![Value::Str(left.0.into()), Value::Str(left.1.into()), half],
    ];
    let sql = "SELECT s1, s2, count(*) FROM t GROUP BY s1, s2";
    for cores in [1, 2, 4] {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let mut e = support::table_engine(cores, &schema, &table);
            let out = e.session().run_on(sql, path).unwrap();
            assert_eq!(out.rows, expected, "{path:?} at {cores} cores");
        }
    }
}
