//! Regenerates **Fig. 6**: heatmaps of RM speedup over ROW (6a) and over
//! COL (6b) as the number of projected columns (x) and selection columns
//! (y) each range from 1 to 10.
//!
//! Each point is `SELECT c0, …, c{p-1} FROM t WHERE c{16-s} < thr AND …
//! AND c15 < thr` run through the engine's session on each access path at
//! one core, from cold caches.
//!
//! Paper claims to reproduce (shape):
//! * 6a — RM beats direct row-wise access at *every* grid point (paper:
//!   1.3–1.5×);
//! * 6b — direct columnar access wins in the lower-left corner (small
//!   total column count); RM dominates as columns grow, with the largest
//!   speedups in the upper region.
//!
//! Usage: `fig6_heatmap [rm-vs-row|rm-vs-col|both] [--rows N]
//!        [--selectivity S]` (per-conjunct selectivity, default 0.93 so ten
//!        conjuncts keep ~50 % of rows, keeping work comparable across the
//!        grid).

use bench::{arg_f64, arg_usize, run_paths_cold};
use fabric_sim::{MetricsRegistry, SimConfig};
use query::Engine;
use workload::micro::{MicroQuery, TABLE};
use workload::SyntheticData;

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 1 << 19); // 32 MiB table
    let selectivity = arg_f64(&args, "--selectivity", 0.93);
    let which = args.get(1).map(String::as_str).unwrap_or("both");

    let mut engine = Engine::new(SimConfig::zynq_a53());
    eprintln!("# generating {rows} rows (16 x i32)...");
    let data = SyntheticData::build(engine.mem(), rows, 16, 0xF16_6).expect("generate");
    engine.register(TABLE, data.rows, data.cols);

    let mut reg = MetricsRegistry::new();
    let mut vs_row = vec![vec![0.0f64; 10]; 10];
    let mut vs_col = vec![vec![0.0f64; 10]; 10];
    for s in 1..=10usize {
        for p in 1..=10usize {
            let sql = MicroQuery::proj_sel(p, s, 16, selectivity).to_sql();
            let [row, col, rm] = run_paths_cold(&mut engine, &sql);
            vs_row[s - 1][p - 1] = row / rm;
            vs_col[s - 1][p - 1] = col / rm;
            reg.gauge_set(&format!("fig6.s{s:02}.p{p:02}.rm_vs_row"), row / rm);
            reg.gauge_set(&format!("fig6.s{s:02}.p{p:02}.rm_vs_col"), col / rm);
        }
        eprintln!("# selection row {s}/10 done");
    }

    if which == "rm-vs-row" || which == "both" {
        print_grid("Fig. 6a — speedup of RM vs ROW", &vs_row);
    }
    if which == "rm-vs-col" || which == "both" {
        print_grid("Fig. 6b — speedup of RM vs COL", &vs_col);
    }
    engine.mem().stats().record_into(&mut reg, "mem");
    bench::emit_bench_json("fig6_heatmap", &reg);
}

fn print_grid(title: &str, grid: &[Vec<f64>]) {
    println!("{title}");
    println!("(rows: # selection columns 10..1, cols: # projected columns 1..10)");
    for s in (0..10).rev() {
        let cells: Vec<String> = grid[s].iter().map(|v| format!("{v:5.2}")).collect();
        println!("s={:2} | {}", s + 1, cells.join(" "));
    }
    println!();
}
