//! Profile the query pipeline with the cycle-domain sampling profiler
//! (DESIGN.md §15) and export a collapsed-stack (`.folded`) file that
//! flamegraph tooling renders directly.
//!
//! A `SamplingProfiler` wraps a `RingRecorder`, so one run yields both a
//! Chrome trace and a folded profile: every N simulated cycles the open
//! span stack is sampled into a folded-stack accumulator. Three query
//! classes (q1 grouped aggregate, q6 global aggregate, plain scan) run in
//! separate sessions, so the bench envelope also carries the per-class
//! cold and hit latency histograms.
//!
//! Render with `inferno-flamegraph results/PROFILE_query.folded` or any
//! `flamegraph.pl`-compatible tool.
//!
//! Usage: `profile_query [--rows N] [--period CYCLES] [--reps R]`

use bench::arg_usize;
use colstore::ColTable;
use fabric_sim::{validate_chrome_trace, RingRecorder, SamplingProfiler, SimConfig};
use fabric_types::{ColumnType, Schema, Value};
use query::Engine;
use rowstore::RowTable;

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 4096);
    let period = arg_usize(&args, "--period", 512).max(1) as u64;
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

    // Arm the profiler over a ring recorder: the same run produces a
    // Chrome trace AND a folded profile of the open-span stack.
    engine
        .mem()
        .set_recorder(Box::new(SamplingProfiler::wrapping(
            Box::new(RingRecorder::new(1 << 16)),
            period,
        )));

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

    let folded = engine
        .mem()
        .export_folded()
        .expect("sampling profiler exports folded stacks");
    let stats = engine
        .mem()
        .profile_stats()
        .expect("sampling profiler reports stats");
    assert!(!folded.is_empty(), "profile must contain samples");
    // Reconciliation: the sample count must account for exactly the
    // cycles the profiler observed, one sample per period.
    assert_eq!(
        stats.samples,
        (stats.end - stats.start) / stats.period,
        "sample total must reconcile with elapsed cycles"
    );
    let trace = engine
        .mem()
        .export_trace()
        .expect("inner ring recorder exports a trace");
    validate_chrome_trace(&trace).expect("trace must be structurally valid");

    let reg = engine.mem().metrics_mut();
    reg.counter_add("profile.samples", stats.samples);
    reg.counter_add("profile.period_cycles", stats.period);
    reg.gauge_set(
        "profile.observed_cycles",
        stats.end.saturating_sub(stats.start) as f64,
    );

    let path = bench::harness::write_artifact("PROFILE_query.folded", &folded)
        .expect("write folded profile");

    println!("Profiled q1/q6/scan under a {period}-cycle sampling period:");
    println!(
        "  {} samples over {} observed cycles, {} distinct stacks",
        stats.samples,
        stats.end.saturating_sub(stats.start),
        folded.lines().count()
    );
    println!(
        "  wrote {} — render with a flamegraph.pl-compatible tool",
        path.display()
    );
    bench::emit_bench_json("profile_query", engine.mem_ref().metrics());
}
