//! Regenerates **Fig. 7**: TPC-H Q1 (7a) and Q6 (7b) execution time for
//! ROW / COL / RM while the data size varies, with the x-axis expressed as
//! the target-column-group size (the paper's convention: 2–128 MB of
//! target columns, i.e. tables from ~9 MB to ~700 MB).
//!
//! Each point runs [`Q1_SQL`] or [`Q6_SQL`] through the engine's session
//! on each access path at one core, from cold caches.
//!
//! Paper claims to reproduce (shape):
//! * 7a (Q1) — all three layouts land close together: the eight grouped
//!   aggregates dominate, so layout matters little;
//! * 7b (Q6) — RM is fastest at every size (single packed stream of the
//!   four touched columns); ROW is slowest (ships whole 152-byte rows);
//!   the column engine sits between.
//!
//! Usage: `fig7_tpch [q1|q6|both] [--max-target M] [--csv] [--cores N]`
//! where targets double from 2 MiB up to `--max-target` (default 32; 128
//! reproduces the paper's largest size but takes correspondingly longer to
//! simulate). With `--cores N` (N > 1) an extra section re-runs the same
//! statements on the 2 MiB-target table on every access path at 1 vs N
//! simulated cores, asserting bit-identical answers and reporting the
//! morsel-driven speedup.

use bench::{arg_usize, fmt_ns, render_table, run_cold, run_paths_cold, PATHS};
use fabric_sim::{MetricsRegistry, SimConfig};
use query::Engine;
use workload::tpch::{Q1_SQL, Q6_SQL};
use workload::Lineitem;

/// The statement, and the rows for a `target_mib` target, of `which`.
fn query(which: &str, target_mib: usize) -> (&'static str, usize) {
    if which == "q1" {
        (Q1_SQL, Lineitem::rows_for_q1_target(target_mib))
    } else {
        (Q6_SQL, Lineitem::rows_for_q6_target(target_mib))
    }
}

/// A `cores`-core engine over `rows` rows of `lineitem`.
fn engine(cores: usize, rows: usize, seed: u64) -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let li = Lineitem::generate(e.mem(), rows, seed).expect("generate");
    e.register("lineitem", li.rows, li.cols);
    e
}

fn run_query(which: &str, max_target: usize, csv: bool) {
    let mut targets = vec![2usize];
    while *targets.last().unwrap() < max_target {
        let next = targets.last().unwrap() * 2;
        targets.push(next);
    }

    let mut out_rows = Vec::new();
    let mut reg = MetricsRegistry::new();
    if csv {
        println!("query,target_mib,table_mib,row_ns,col_ns,rm_ns");
    }
    for &t in &targets {
        let (sql, rows) = query(which, t);
        let table_mib = rows * Lineitem::row_width() / (1024 * 1024);
        eprintln!("# {which}: target {t} MiB -> {rows} rows ({table_mib} MiB table)");
        let mut engine = engine(1, rows, 0xF1_7 + t as u64);
        let [row, col, rm] = run_paths_cold(&mut engine, sql);

        reg.gauge_set(&format!("fig7.{which}.t{t:03}.row_ns"), row);
        reg.gauge_set(&format!("fig7.{which}.t{t:03}.col_ns"), col);
        reg.gauge_set(&format!("fig7.{which}.t{t:03}.rm_ns"), rm);
        reg.counter_add(&format!("fig7.{which}.targets"), 1);
        let stats = engine.mem().stats();
        stats.record_into(&mut reg, &format!("fig7.{which}.t{t:03}.mem"));
        if csv {
            println!("{which},{t},{table_mib},{row:.0},{col:.0},{rm:.0}");
        }
        out_rows.push(vec![
            format!("{t}"),
            format!("{table_mib}"),
            fmt_ns(row),
            fmt_ns(col),
            fmt_ns(rm),
            format!("{:.2}x", row / rm),
            format!("{:.2}x", col / rm),
        ]);
    }
    if !csv {
        println!(
            "Fig. 7{} — TPC-H {} execution time vs data size",
            if which == "q1" { "a" } else { "b" },
            which.to_uppercase()
        );
        println!(
            "{}",
            render_table(
                &[
                    "target_MiB",
                    "table_MiB",
                    "ROW",
                    "COL",
                    "RM",
                    "RMvsROW",
                    "RMvsCOL"
                ],
                &out_rows
            )
        );
    }
    bench::emit_bench_json(&format!("fig7_tpch_{which}"), &reg);
}

/// The morsel-parallel section: Q1 and Q6 at 1 vs `cores` simulated cores
/// on every access path. Answers must be bit-identical; the speedup column
/// is simulated cycles, so it reflects the fabric model (shared L2 port,
/// DRAM controller, serial RM beat), not host scheduling noise.
fn run_parallel(cores: usize) {
    let mut table = Vec::new();
    let mut best = 0.0f64;
    for which in ["q1", "q6"] {
        let (sql, rows) = query(which, 2);
        for path in PATHS {
            let base = run_cold(&mut engine(1, rows, 0xF1_7), sql, path);
            let par = run_cold(&mut engine(cores, rows, 0xF1_7), sql, path);
            assert_eq!(
                par.rows, base.rows,
                "{which} {path} at {cores} cores diverged from the 1-core answer"
            );
            let speedup = base.ns / par.ns;
            best = best.max(speedup);
            table.push(vec![
                format!("{} ({rows} rows)", which.to_uppercase()),
                path.to_string(),
                fmt_ns(base.ns),
                fmt_ns(par.ns),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    println!("Fig. 7 supplement — morsel-driven scaling at {cores} cores (2 MiB targets)");
    println!(
        "{}",
        render_table(
            &[
                "query",
                "path",
                "1-core",
                &format!("{cores}-core"),
                "speedup"
            ],
            &table
        )
    );
    if cores >= 4 {
        assert!(
            best > 1.8,
            "expected >1.8x simulated-cycle speedup on at least one query at {cores} cores, best {best:.2}x"
        );
    }
    println!("# best speedup {best:.2}x (answers bit-identical on every path)");
}

fn main() {
    let args = bench::harness::cli_args();
    let which = args.get(1).map(String::as_str).unwrap_or("both");
    let max_target = arg_usize(&args, "--max-target", 32);
    let cores = arg_usize(&args, "--cores", 1);
    let csv = args.iter().any(|a| a == "--csv");
    if which == "q1" || which == "both" {
        run_query("q1", max_target, csv);
    }
    if which == "q6" || which == "both" {
        run_query("q6", max_target, csv);
    }
    if cores > 1 {
        run_parallel(cores);
    }
}
