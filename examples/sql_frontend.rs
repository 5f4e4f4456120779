//! The simplified software stack of §III-B: SQL in, layout-aware plan out.
//!
//! The optimizer does not search a space of physical designs — it prices
//! the three access paths (vectorized row scan, column-at-a-time, Relational
//! Memory) and constructs the fastest one. The example runs a small query
//! mix and prints which path each query took and what the alternatives
//! would have cost.
//!
//! Run with: `cargo run --release --example sql_frontend`

use relational_fabric::prelude::*;

fn main() {
    let mut engine = Engine::new(SimConfig::zynq_a53());

    // An orders table in both layouts, so every path is available.
    let schema = Schema::from_pairs(&[
        ("o_id", ColumnType::I64),
        ("o_region", ColumnType::FixedStr(1)),
        ("o_qty", ColumnType::F64),
        ("o_price", ColumnType::F64),
        ("o_tax", ColumnType::F64),
        ("o_disc", ColumnType::F64),
        ("o_ship", ColumnType::Date),
        ("o_flag", ColumnType::I32),
    ]);
    let rows = 200_000;
    let mut rt = RowTable::create(engine.mem(), schema.clone(), rows).expect("rows");
    let mut ct = ColTable::create(engine.mem(), schema, rows).expect("cols");
    println!("loading {rows} orders into both layouts...");
    for i in 0..rows as i64 {
        let row = vec![
            Value::I64(i),
            Value::Str(["N", "S", "E", "W"][(i % 4) as usize].into()),
            Value::F64((i % 40 + 1) as f64),
            Value::F64((i % 9000) as f64 + 100.0),
            Value::F64((i % 8) as f64 / 100.0),
            Value::F64((i % 10) as f64 / 100.0),
            Value::Date(9000 + (i % 1000) as u32),
            Value::I32((i % 3) as i32),
        ];
        rt.load(engine.mem(), &row).expect("load");
        ct.load(engine.mem(), &row).expect("load");
    }
    engine.register("orders", rt, ct);

    let queries = [
        // Narrow aggregate: a single column — columnar territory.
        "SELECT sum(o_qty) FROM orders",
        // Wide grouped aggregation — fabric territory.
        "SELECT o_region, count(*), sum(o_price * (1 - o_disc)), avg(o_tax) \
         FROM orders GROUP BY o_region",
        // Selective wide projection.
        "SELECT o_id, o_price, o_qty, o_tax, o_disc \
         FROM orders WHERE o_ship >= DATE '1994-09-01' AND o_flag = 1",
        // Point-ish lookup.
        "SELECT o_price FROM orders WHERE o_id = 123456",
    ];

    for q in queries {
        let out = engine.session().run(q).expect("query");
        println!("\nSQL> {q}");
        println!(
            "  chose {:>3}  ({:.3} ms simulated; estimates: ROW {:.2} ms, COL {}, RM {:.2} ms)",
            out.path.to_string(),
            out.ns / 1e6,
            out.cost.row_ns / 1e6,
            out.cost
                .col_ns
                .map(|c| format!("{:.2} ms", c / 1e6))
                .unwrap_or_else(|| "n/a".into()),
            out.cost.rm_ns / 1e6,
        );
        for row in out.rows.iter().take(4) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("  | {}", cells.join(", "));
        }
        if out.rows.len() > 4 {
            println!("  | ... {} rows total", out.rows.len());
        }
    }

    println!(
        "\nNote: without the columnar copy, a fabric-native deployment keeps \
         only the row layout — drop the COL registration and every query \
         still runs, via ROW or RM."
    );
}
