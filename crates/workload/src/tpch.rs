//! A TPC-H-style `lineitem` generator.
//!
//! The paper evaluates Q1 and Q6 *"while varying the data size … based on
//! the size of target columns"* (Fig. 7). This module generates a
//! fixed-width `lineitem` with TPC-H's value distributions where they
//! matter (dates, discounts, quantities, flags) and a realistic ~152-byte
//! row, so the target-column-size axis maps onto the paper's table sizes:
//! a 128 MB Q6 target column group gives a ~700 MB table, matching the
//! 692 MB upper end of Fig. 7b.

use colstore::ColTable;
use fabric_sim::MemoryHierarchy;
use fabric_types::rng::DetRng;
use fabric_types::{ColumnType, Result, Schema, Value};
use rowstore::RowTable;

pub use fabric_types::value::days_from_civil;

/// TPC-H Q1 (Fig. 7a): eight aggregates over ~98 % of the rows, grouped by
/// the two flags. The cutoff is 1998-12-01 minus 90 days.
pub const Q1_SQL: &str = "SELECT l_returnflag, l_linestatus, sum(l_quantity), \
     sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)), \
     sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
     avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus ORDER BY 1, 2";

/// TPC-H Q6 (Fig. 7b): one sum over a ~2 % conjunctive range filter.
pub const Q6_SQL: &str = "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
     WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
     AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24";

/// Column indices of the generated `lineitem` schema.
pub mod col {
    pub const ORDERKEY: usize = 0;
    pub const PARTKEY: usize = 1;
    pub const SUPPKEY: usize = 2;
    pub const LINENUMBER: usize = 3;
    pub const QUANTITY: usize = 4;
    pub const EXTENDEDPRICE: usize = 5;
    pub const DISCOUNT: usize = 6;
    pub const TAX: usize = 7;
    pub const RETURNFLAG: usize = 8;
    pub const LINESTATUS: usize = 9;
    pub const SHIPDATE: usize = 10;
    pub const COMMITDATE: usize = 11;
    pub const RECEIPTDATE: usize = 12;
    pub const SHIPINSTRUCT: usize = 13;
    pub const SHIPMODE: usize = 14;
    pub const COMMENT: usize = 15;
}

/// The generated table in both base layouts.
pub struct Lineitem {
    pub rows: RowTable,
    pub cols: ColTable,
    pub num_rows: usize,
}

impl Lineitem {
    /// The fixed-width `lineitem` schema (152-byte rows).
    pub fn schema() -> Schema {
        Schema::from_pairs(&[
            ("l_orderkey", ColumnType::I64),
            ("l_partkey", ColumnType::I64),
            ("l_suppkey", ColumnType::I64),
            ("l_linenumber", ColumnType::I32),
            ("l_quantity", ColumnType::F64),
            ("l_extendedprice", ColumnType::F64),
            ("l_discount", ColumnType::F64),
            ("l_tax", ColumnType::F64),
            ("l_returnflag", ColumnType::FixedStr(1)),
            ("l_linestatus", ColumnType::FixedStr(1)),
            ("l_shipdate", ColumnType::Date),
            ("l_commitdate", ColumnType::Date),
            ("l_receiptdate", ColumnType::Date),
            ("l_shipinstruct", ColumnType::FixedStr(25)),
            ("l_shipmode", ColumnType::FixedStr(10)),
            ("l_comment", ColumnType::FixedStr(43)),
        ])
    }

    /// Row width in bytes of the generated table.
    pub fn row_width() -> usize {
        Self::schema().unpadded_width()
    }

    /// Width in bytes of the column group Q1 touches (its "target columns").
    pub fn q1_target_width() -> usize {
        8 + 8 + 8 + 8 + 1 + 1 + 4 // qty, price, disc, tax, rf, ls, shipdate
    }

    /// Width in bytes of the column group Q6 touches.
    pub fn q6_target_width() -> usize {
        4 + 8 + 8 + 8 // shipdate, qty, disc, price
    }

    /// Generate `num_rows` rows into both layouts, deterministically in
    /// `seed`. Loading is untimed (outside the measured window).
    pub fn generate(mem: &mut MemoryHierarchy, num_rows: usize, seed: u64) -> Result<Self> {
        let schema = Self::schema();
        let mut rows = RowTable::create(mem, schema.clone(), num_rows)?;
        let mut cols = ColTable::create(mem, schema, num_rows)?;
        let mut rng = DetRng::seed_from_u64(seed);

        let ship_lo = days_from_civil(1992, 1, 2) as i64;
        let ship_hi = days_from_civil(1998, 12, 1) as i64;
        let instructs = [
            "DELIVER IN PERSON",
            "COLLECT COD",
            "NONE",
            "TAKE BACK RETURN",
        ];
        let modes = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

        let mut orderkey = 1i64;
        let mut linenumber = 1i32;
        for _ in 0..num_rows {
            if linenumber > 7 || rng.gen_bool(0.25) {
                orderkey += 1;
                linenumber = 1;
            }
            let quantity = rng.gen_range(1..=50) as f64;
            let price_per_unit = rng.gen_range(900.0..=10_000.0f64);
            let extendedprice = (quantity * price_per_unit * 100.0).round() / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = rng.gen_range(ship_lo..=ship_hi) as u32;
            let commitdate = shipdate.saturating_add(rng.gen_range(0..=60u32));
            let receiptdate = shipdate + rng.gen_range(1..=30u32);
            // TPC-H semantics: returnflag depends on receiptdate vs the
            // current date; linestatus on shipdate. Approximate with the
            // spec's cutoff of 1995-06-17.
            let cutoff = days_from_civil(1995, 6, 17);
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > cutoff { "O" } else { "F" };

            let row = [
                Value::I64(orderkey),
                Value::I64(rng.gen_range(1..=200_000)),
                Value::I64(rng.gen_range(1..=10_000)),
                Value::I32(linenumber),
                Value::F64(quantity),
                Value::F64(extendedprice),
                Value::F64(discount),
                Value::F64(tax),
                Value::Str(returnflag.into()),
                Value::Str(linestatus.into()),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                Value::Str(instructs[rng.gen_range(0..instructs.len())].into()),
                Value::Str(modes[rng.gen_range(0..modes.len())].into()),
                Value::Str("generated row comment".into()),
            ];
            rows.load(mem, &row)?;
            cols.load(mem, &row)?;
            linenumber += 1;
        }
        Ok(Lineitem {
            rows,
            cols,
            num_rows,
        })
    }

    /// Number of rows so the Q6 target column group occupies
    /// `target_mib` MiB (the x-axis of Fig. 7).
    pub fn rows_for_q6_target(target_mib: usize) -> usize {
        target_mib * 1024 * 1024 / Self::q6_target_width()
    }

    /// Number of rows so the Q1 target column group occupies
    /// `target_mib` MiB.
    pub fn rows_for_q1_target(target_mib: usize) -> usize {
        target_mib * 1024 * 1024 / Self::q1_target_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    #[test]
    fn date_conversion_matches_known_values() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1971, 1, 1), 365);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        // 1994-01-01 (used by Q6): 8766 days.
        assert_eq!(days_from_civil(1994, 1, 1), 8766);
        assert_eq!(days_from_civil(1995, 1, 1), 9131);
        assert_eq!(days_from_civil(1998, 12, 1), 10561);
    }

    #[test]
    fn row_width_is_152_bytes() {
        assert_eq!(Lineitem::row_width(), 152);
        assert_eq!(Lineitem::q1_target_width(), 38);
        assert_eq!(Lineitem::q6_target_width(), 28);
    }

    #[test]
    fn table_size_matches_paper_fig7_range() {
        // 128 MiB Q6 target -> ~4.8M rows -> ~695 MiB table (paper: 692 MB).
        let rows = Lineitem::rows_for_q6_target(128);
        let table_mib = rows * Lineitem::row_width() / (1024 * 1024);
        assert!((680..=740).contains(&table_mib), "table is {table_mib} MiB");
        // 128 MiB Q1 target -> ~530 MiB table (paper: 545 MB).
        let rows = Lineitem::rows_for_q1_target(128);
        let table_mib = rows * Lineitem::row_width() / (1024 * 1024);
        assert!((500..=560).contains(&table_mib), "table is {table_mib} MiB");
    }

    #[test]
    fn generated_values_respect_domains() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let li = Lineitem::generate(&mut mem, 2000, 99).unwrap();
        assert_eq!(li.rows.len(), 2000);
        let lo = days_from_civil(1992, 1, 2);
        let hi = days_from_civil(1998, 12, 1);
        for i in (0..2000).step_by(97) {
            let r = li.rows.decode_row_untimed(&mem, i).unwrap();
            let qty = r[col::QUANTITY].as_f64().unwrap();
            assert!((1.0..=50.0).contains(&qty));
            let disc = r[col::DISCOUNT].as_f64().unwrap();
            assert!((0.0..=0.1 + 1e-9).contains(&disc));
            let tax = r[col::TAX].as_f64().unwrap();
            assert!((0.0..=0.08 + 1e-9).contains(&tax));
            let ship = r[col::SHIPDATE].as_i64().unwrap() as u32;
            assert!((lo..=hi).contains(&ship));
            match &r[col::RETURNFLAG] {
                Value::Str(s) => assert!(["R", "A", "N"].contains(&s.as_str())),
                other => panic!("bad returnflag {other:?}"),
            }
            // Row and column layouts agree.
            for c in 0..16 {
                assert_eq!(r[c], li.cols.value_untimed(&mem, i, c).unwrap());
            }
        }
    }

    /// The share of `rows` generated rows for which `keep` holds.
    fn share(rows: usize, keep: impl Fn(&[Value]) -> bool) -> f64 {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let li = Lineitem::generate(&mut mem, rows, 2023).unwrap();
        let kept = (0..rows)
            .filter(|&r| keep(&li.rows.decode_row_untimed(&mem, r).unwrap()))
            .count();
        kept as f64 / rows as f64
    }

    #[test]
    fn q6_selectivity_is_about_two_percent() {
        let lo = i64::from(days_from_civil(1994, 1, 1));
        let hi = i64::from(days_from_civil(1995, 1, 1));
        let s = share(50_000, |r| {
            let f = |c: usize| r[c].as_f64().unwrap();
            (lo..hi).contains(&r[col::SHIPDATE].as_i64().unwrap())
                && (0.05..=0.07).contains(&f(col::DISCOUNT))
                && f(col::QUANTITY) < 24.0
        });
        assert!((0.005..0.05).contains(&s), "selectivity {s}");
    }

    #[test]
    fn q1_touches_most_rows() {
        let cutoff = i64::from(days_from_civil(1998, 12, 1) - 90);
        let s = share(20_000, |r| r[col::SHIPDATE].as_i64().unwrap() <= cutoff);
        assert!(s > 0.9, "Q1 selectivity {s}");
    }

    #[test]
    fn generator_is_deterministic() {
        let mut m1 = MemoryHierarchy::new(SimConfig::zynq_a53());
        let a = Lineitem::generate(&mut m1, 100, 5).unwrap();
        let mut m2 = MemoryHierarchy::new(SimConfig::zynq_a53());
        let b = Lineitem::generate(&mut m2, 100, 5).unwrap();
        assert_eq!(
            a.rows.decode_row_untimed(&m1, 42).unwrap(),
            b.rows.decode_row_untimed(&m2, 42).unwrap()
        );
    }
}
