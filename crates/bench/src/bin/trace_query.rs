//! Trace a Fig-5-shaped projection query (16 × i32 columns, 64-byte rows)
//! through the whole fabric and write a Perfetto-loadable Chrome trace.
//!
//! All three access paths run under one trace, so the exported
//! file shows the row scan, the columnar scan, and the RM
//! configure/gather/pack/deliver pipeline side by side on the simulated
//! cycle clock. Open `results/TRACE_query.json` at <https://ui.perfetto.dev>
//! (or chrome://tracing) to inspect it.
//!
//! Usage: `trace_query [--rows N] [--proj P] [--events E]`

use bench::arg_usize;
use colstore::ColTable;
use fabric_sim::{validate_chrome_trace, SimConfig};
use fabric_types::{ColumnType, Schema, Value};
use query::{AccessPath, Engine};
use rowstore::RowTable;

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 1 << 16);
    let proj = arg_usize(&args, "--proj", 6).clamp(1, 16);
    let events = arg_usize(&args, "--events", 1 << 16);

    let mut engine = Engine::new(SimConfig::zynq_a53());
    let names: Vec<(String, ColumnType)> = (0..16)
        .map(|i| (format!("c{i}"), ColumnType::I32))
        .collect();
    let pairs: Vec<(&str, ColumnType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    eprintln!("# loading {rows} rows (16 x i32, 64-byte rows)...");
    let mut rt = RowTable::create(engine.mem(), schema.clone(), rows).expect("create rows");
    let mut ct = ColTable::create(engine.mem(), schema, rows).expect("create cols");
    for i in 0..rows as i32 {
        let row: Vec<Value> = (0..16)
            .map(|j| Value::I32(i.wrapping_mul(16) + j))
            .collect();
        rt.load(engine.mem(), &row).expect("load rows");
        ct.load(engine.mem(), &row).expect("load cols");
    }
    engine.register("t", rt, ct);

    let cols: Vec<String> = (0..proj).map(|i| format!("c{i}")).collect();
    let sql = format!("SELECT {} FROM t WHERE c0 >= 0", cols.join(", "));

    engine.mem().trace_to(events);
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let out = engine.session().run_on(&sql, path).expect("execute");
        eprintln!(
            "# {path:?}: {} rows in {}",
            out.rows.len(),
            bench::fmt_ns(out.ns)
        );
    }

    let trace = engine.mem().export_trace().expect("a trace is installed");
    let summary = validate_chrome_trace(&trace).expect("trace must be structurally valid");
    let path = bench::harness::write_artifact("TRACE_query.json", &trace).expect("write trace");
    let path = path.display();

    println!("Traced `{sql}` over all three access paths:");
    println!(
        "  {} events ({} spans, {} instants, {} counter samples, {} dropped)",
        summary.events, summary.begins, summary.instants, summary.counters, summary.dropped
    );
    println!("  wrote {path} — load it at https://ui.perfetto.dev");

    let stats = engine.mem_ref().stats();
    stats.record_into(engine.mem().metrics_mut(), "mem");
    bench::emit_bench_json("trace_query", engine.mem_ref().metrics());
}
