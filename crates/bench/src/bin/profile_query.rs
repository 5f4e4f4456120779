//! Profile the query pipeline on the simulated clock (DESIGN.md §15) and
//! export a collapsed-stack (`.folded`) file that flamegraph tooling
//! renders directly.
//!
//! One trace yields both a Chrome trace and the folded stacks: the fold
//! gives every simulated cycle between two events to the span stack open
//! between them, so the stacks sum to the cycles the run spent. Three
//! query classes (q1 grouped aggregate, q6 global aggregate, plain scan)
//! run in separate sessions, so the bench envelope also carries the
//! per-class cold and hit latency histograms.
//!
//! Render with `inferno-flamegraph results/PROFILE_query.folded` or any
//! `flamegraph.pl`-compatible tool.
//!
//! Usage: `profile_query [--rows N] [--reps R]`

use bench::arg_usize;
use colstore::ColTable;
use fabric_sim::{validate_chrome_trace, SimConfig};
use fabric_types::{ColumnType, Schema, Value};
use query::Engine;
use rowstore::RowTable;

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 4096);
    let reps = arg_usize(&args, "--reps", 8);

    let mut engine = Engine::new(SimConfig::zynq_a53());
    let schema = Schema::from_pairs(&[
        ("grp", ColumnType::FixedStr(1)),
        ("c1", ColumnType::I64),
        ("c2", ColumnType::I64),
    ]);
    eprintln!("# loading {rows} rows (grp + 2 x i64)...");
    let mut rt = RowTable::create(engine.mem(), schema.clone(), rows).expect("create rows");
    let mut ct = ColTable::create(engine.mem(), schema, rows).expect("create cols");
    let groups = [b"a", b"b", b"c", b"d"];
    for i in 0..rows as i64 {
        let g = groups[(i % 4) as usize];
        let row = vec![
            Value::Str(String::from_utf8_lossy(g).into_owned()),
            Value::I64(i),
            Value::I64(i * 7 % 1000),
        ];
        rt.load(engine.mem(), &row).expect("load rows");
        ct.load(engine.mem(), &row).expect("load cols");
    }
    engine.register("t", rt, ct);

    engine.mem().trace_to(1 << 16);
    let t0 = engine.mem_ref().now();

    let shapes: [(&str, &str); 3] = [
        ("q1", "SELECT grp, count(*), sum(c2) FROM t GROUP BY grp"),
        ("q6", "SELECT sum(c2) FROM t WHERE c1 < 2048"),
        ("scan", "SELECT grp, c1 FROM t WHERE c1 >= 0"),
    ];
    for (class, sql) in shapes {
        // One session per class; the envelope separates the classes by
        // their `query.class.<class>.*` latency histograms.
        let mut session = engine.session();
        let mut last_ns = 0.0;
        for _ in 0..reps.max(1) {
            let out = session.run(sql).expect("execute");
            last_ns = out.ns;
        }
        eprintln!("# {class}: {reps} reps, last {}", bench::fmt_ns(last_ns));
    }

    let observed = engine.mem_ref().now() - t0;
    let trace = engine.mem().take_trace().expect("a trace is installed");
    assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
    validate_chrome_trace(&trace.to_chrome_json()).expect("trace must be structurally valid");
    let folded = trace.to_folded();
    let folded_cycles: u64 = folded
        .lines()
        .map(|l| {
            let (_, n) = l.rsplit_once(' ').expect("`<stack> <cycles>` line");
            n.parse::<u64>().expect("cycle count")
        })
        .sum();
    // Reconciliation: the stacks account for exactly the cycles the run
    // spent.
    assert_eq!(
        folded_cycles, observed,
        "folded stacks must sum to the observed cycles"
    );

    engine
        .mem()
        .metrics_mut()
        .gauge_set("profile.observed_cycles", observed as f64);

    let path = bench::harness::write_artifact("PROFILE_query.folded", &folded)
        .expect("write folded profile");

    println!("Profiled q1/q6/scan on the simulated clock:");
    println!(
        "  {observed} observed cycles in {} distinct stacks",
        folded.lines().count()
    );
    println!(
        "  wrote {} — render with a flamegraph.pl-compatible tool",
        path.display()
    );
    bench::emit_bench_json("profile_query", engine.mem_ref().metrics());
}
