//! Row images against the `Value` round trip they replaced (DESIGN.md
//! §14, §18 "Row images are exact"): generated histories of inserts,
//! updates and deletes over all eight column types run on a
//! `VersionedTable` and on the oracle in `support::value_rows`, which
//! decodes every version into `Value`s and re-encodes it. After every
//! write both machines must hold the same row bytes, chains, clock and
//! `MemStats`; every checkpoint blob must be byte-identical; a restore
//! from it must rebuild the same table at the same cost; and snapshot
//! reads and the software visibility sum must answer and charge alike.
//!
//! The values stress the one place the round trip is not the identity:
//! `FixedStr` fields that are empty, full width, multi-byte or hold an
//! embedded NUL (decode cuts at the first NUL, encode zero-fills), next
//! to NaN payloads, −0.0, infinities and subnormals, integer extremes and
//! dates. Cases are seeded from `FABRIC_CHAOS_SEED`; a failure prints the
//! seed and case to replay.

use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::chunk::Scalar;
use fabric_types::rng::for_each_case;
use fabric_types::{ColumnId, ColumnType, DetRng, Result, Schema, Value};
use mvcc::scan::sw_visible_sum;
use mvcc::wal::{decode_checkpoint, encode_checkpoint};
use mvcc::VersionedTable;

mod support;
use support::bits;
use support::value_rows::OracleTable;

const CAPACITY: usize = 256;
const TEXT: usize = 7;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i8", ColumnType::I8),
        ("i16", ColumnType::I16),
        ("i32", ColumnType::I32),
        ("i64", ColumnType::I64),
        ("f32", ColumnType::F32),
        ("f64", ColumnType::F64),
        ("day", ColumnType::Date),
        ("name", ColumnType::FixedStr(6)),
        ("flag", ColumnType::FixedStr(1)),
    ])
}

fn machine() -> MemoryHierarchy {
    MemoryHierarchy::new(SimConfig::zynq_a53())
}

fn pick<T: Copy>(rng: &mut DetRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Text of at most `width` bytes: empty, full width, multi-byte, or with
/// an embedded NUL.
fn text(rng: &mut DetRng, width: usize) -> String {
    let full: String = "abcdefgh".chars().take(width).collect();
    let all = [
        "", "a", "\0", "a\0b", "\0xy", "é", "é\0a", "日本", "ab\0\0c", "zz", &full,
    ];
    loop {
        let t = pick(rng, &all);
        if t.len() <= width {
            return t.to_string();
        }
    }
}

/// The low bytes of a random word as an integer of the wanted width.
fn le<T: Scalar>(raw: &[u8]) -> T {
    T::read(&raw[..T::WIDTH])
}

fn value(rng: &mut DetRng, ty: ColumnType) -> Value {
    let raw = rng.next_u64().to_le_bytes();
    match ty {
        ColumnType::I8 => Value::I8(pick(rng, &[i8::MIN, i8::MAX, -1, raw[0] as i8])),
        ColumnType::I16 => Value::I16(pick(rng, &[i16::MIN, i16::MAX, le(&raw)])),
        ColumnType::I32 => Value::I32(pick(rng, &[i32::MIN, i32::MAX, le(&raw)])),
        ColumnType::I64 => Value::I64(pick(rng, &[i64::MIN, i64::MAX, 0, le(&raw)])),
        ColumnType::F32 => Value::F32(f32::from_bits(pick(
            rng,
            &[
                0x7fc0_0001, // quiet NaN with a payload
                0xffc1_2345, // negative quiet NaN
                0x7f80_0001, // signalling NaN
                0x8000_0000, // -0.0
                0x7f80_0000, // inf
                0x0000_0001, // smallest subnormal
                le(&raw),
            ],
        ))),
        ColumnType::F64 => Value::F64(f64::from_bits(pick(
            rng,
            &[
                0x7ff8_0000_0000_0001,
                0xfff8_dead_beef_0000,
                0x7ff0_0000_0000_0001,
                0x8000_0000_0000_0000,
                0xfff0_0000_0000_0000,
                1,
                le(&raw),
            ],
        ))),
        ColumnType::Date => Value::Date(pick(rng, &[0, u32::MAX, le(&raw)])),
        ColumnType::FixedStr(n) => Value::Str(text(rng, n)),
    }
}

fn row(rng: &mut DetRng, s: &Schema) -> Vec<Value> {
    s.iter().map(|(_, c)| value(rng, c.ty)).collect()
}

/// Both machines, both tables: the same row bytes, bookkeeping, clock
/// and counters.
fn same_state(
    what: &str,
    (ma, t): (&MemoryHierarchy, &VersionedTable),
    (mb, o): (&MemoryHierarchy, &OracleTable),
) {
    assert_eq!(ma.now(), mb.now(), "{what}: clock");
    assert_eq!(ma.stats(), mb.stats(), "{what}: MemStats");
    assert_eq!(t.version_count(), o.inner.len(), "{what}: versions");
    let bytes = t.version_count() * t.physical().layout().row_width();
    assert_eq!(
        ma.read_untimed(t.physical().base(), bytes),
        mb.read_untimed(o.inner.base(), bytes),
        "{what}: row images"
    );
    assert_eq!(t.chains(), &o.chains[..], "{what}: chains");
    assert_eq!(t.last_commits(), &o.last_commit[..], "{what}: stamps");
}

fn same_outcome<T: PartialEq + std::fmt::Debug>(what: &str, a: Result<T>, b: Result<T>) {
    let show = |r: Result<T>| r.map_err(|e| e.to_string());
    assert_eq!(show(a), show(b), "{what}");
}

/// Snapshot rows and the software visibility sum over every numeric
/// column at `ts`, on both machines.
fn same_reads(
    what: &str,
    (ma, t): (&mut MemoryHierarchy, &VersionedTable),
    (mb, o): (&mut MemoryHierarchy, &OracleTable),
    ts: u64,
) {
    let rows = t.snapshot_rows(ma, ts).unwrap();
    assert_eq!(
        bits(&rows),
        bits(&o.snapshot_rows(mb, ts).unwrap()),
        "{what}"
    );
    for col in 0..TEXT {
        let sum = |r: Result<(f64, u64)>| r.map(|(s, n)| (s.to_bits(), n)).unwrap();
        assert_eq!(
            sum(sw_visible_sum(ma, t, col, ts)),
            sum(o.sw_visible_sum(mb, col, ts)),
            "{what}: sum of column {col} at {ts}"
        );
    }
    same_state(what, (ma, t), (mb, o));
}

/// A checkpoint of the pair at `watermark`: the same blob both ways, and
/// a restore of it on fresh machines that rebuilds the same table at the
/// same cost and reads back alike.
fn same_checkpoint(
    what: &str,
    (ma, t): (&MemoryHierarchy, &VersionedTable),
    (mb, o): (&MemoryHierarchy, &OracleTable),
    watermark: u64,
) {
    let blob = encode_checkpoint(ma, t, watermark).unwrap();
    assert_eq!(
        blob,
        o.encode_checkpoint(mb, watermark).unwrap(),
        "{what}: blob"
    );

    let s = schema();
    let img = decode_checkpoint(&VersionedTable::full_schema(&s), &blob).unwrap();
    assert_eq!(img.watermark, watermark);
    let (mut mc, mut md) = (machine(), machine());
    let r = VersionedTable::restore(
        &mut mc,
        s.clone(),
        CAPACITY,
        img.rows,
        img.chains,
        img.last_commit,
    )
    .unwrap();
    let ro = OracleTable::restore(&mut md, &s, CAPACITY, &blob).unwrap();
    let what = format!("{what}: restore");
    same_state(&what, (&mc, &r), (&md, &ro));
    for ts in [1, watermark / 2, watermark] {
        same_reads(&what, (&mut mc, &r), (&mut md, &ro), ts);
    }
    // Restored images are canonical: they checkpoint to the same blob.
    assert_eq!(
        encode_checkpoint(&mc, &r, watermark).unwrap(),
        blob,
        "{what}"
    );
}

#[test]
fn row_images_write_what_the_value_round_trip_wrote() {
    let s = schema();
    for_each_case("row_images_write_what_the_value_round_trip_wrote", |rng| {
        let (mut ma, mut mb) = (machine(), machine());
        let mut t = VersionedTable::create(&mut ma, s.clone(), CAPACITY).unwrap();
        let mut o = OracleTable::create(&mut mb, &s, CAPACITY);
        let mut ts = 0u64;
        let ops = rng.gen_range(20..80usize);
        for op in 0..ops {
            ts += 1;
            let what = format!("op {op} at ts {ts}");
            let logical = t.logical_len();
            let draw = rng.gen_range(0..10u32);
            if logical < 4 || draw < 3 {
                let values = row(rng, &s);
                same_outcome(
                    &what,
                    t.apply_insert(&mut ma, &values, ts),
                    o.insert(&mut mb, &values, ts),
                );
            } else if draw < 8 {
                let l = rng.gen_range(0..logical);
                let mut updates: Vec<(ColumnId, Value)> = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        let col = rng.gen_range(0..s.len());
                        (col, value(rng, s.column(col).unwrap().ty))
                    })
                    .collect();
                if rng.gen_bool(0.05) {
                    updates.push((s.len(), Value::I64(0)));
                }
                same_outcome(
                    &what,
                    t.apply_update(&mut ma, l, &updates, ts),
                    o.update(&mut mb, l, &updates, ts),
                );
            } else {
                let l = rng.gen_range(0..logical);
                same_outcome(
                    &what,
                    t.apply_delete(&mut ma, l, ts),
                    o.delete(&mut mb, l, ts),
                );
            }
            same_state(&what, (&ma, &t), (&mb, &o));
            let l = rng.gen_range(0..t.logical_len());
            same_outcome(
                &what,
                t.latest_is_live(&mut ma, l),
                o.latest_is_live(&mb, l),
            );
            if op % 16 == 15 {
                same_checkpoint(&what, (&ma, &t), (&mb, &o), ts);
            }
        }
        same_reads("end", (&mut ma, &t), (&mut mb, &o), ts);
        same_checkpoint("end", (&ma, &t), (&mb, &o), ts);
        // No numeric view of a text column: an error once a version is
        // visible, as before.
        let visible = t.snapshot_rows(&mut ma, ts).unwrap().len();
        assert_eq!(sw_visible_sum(&mut ma, &t, TEXT, ts).is_err(), visible > 0);
        assert_eq!(o.sw_visible_sum(&mut mb, TEXT, ts).is_err(), visible > 0);
    });
}
