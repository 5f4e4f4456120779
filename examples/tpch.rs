//! TPC-H Q1 and Q6 across the three access paths — a miniature of the
//! paper's Fig. 7 runnable in a few seconds.
//!
//! Run with: `cargo run --release --example tpch [-- target_mib]`

use relational_fabric::prelude::*;
use relational_fabric::sql::AccessPath;
use relational_fabric::workload::tpch::{Q1_SQL, Q6_SQL};
use relational_fabric::workload::Lineitem;

fn main() {
    let target_mib: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let rows = Lineitem::rows_for_q6_target(target_mib);
    let mut engine = Engine::new(SimConfig::zynq_a53());
    println!(
        "generating lineitem: {rows} rows (~{} MiB table, {} MiB Q6 target columns)...",
        rows * Lineitem::row_width() / (1024 * 1024),
        target_mib
    );
    let li = Lineitem::generate(engine.mem(), rows, 7).expect("generate");
    engine.register("lineitem", li.rows, li.cols);

    for (title, sql) in [
        ("Q6 (movement-bound; the fabric's sweet spot)", Q6_SQL),
        ("Q1 (compute-bound; layouts matter less)", Q1_SQL),
    ] {
        println!("\nTPC-H {title}:");
        let mut ns = Vec::new();
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            // Every path starts from cold caches and recomputes its answer.
            engine.mem().flush_caches();
            engine.clear_op_cache();
            let out = engine.session().run_on(sql, path).expect("query");
            let name = path.to_string();
            let groups = out.rows.len();
            println!("  {name:<4} {:9.3} ms   {groups} row(s)", out.ns / 1e6);
            ns.push(out.ns);
        }
        println!(
            "  RM speedup: {:.2}x vs ROW, {:.2}x vs COL",
            ns[0] / ns[2],
            ns[1] / ns[2]
        );
    }
}
