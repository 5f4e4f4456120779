//! Regenerates **Fig. 5**: normalized execution time of ROW / COL / RM as
//! projectivity varies from 1 to 11 columns (4-byte columns, 64-byte rows).
//!
//! Each point is `SELECT c0, …, c{p-1} FROM t` run through the engine's
//! session on each access path at one core, from cold caches.
//!
//! Paper claims to reproduce (shape, not absolute numbers):
//! * RM outperforms ROW at *every* projectivity;
//! * COL is fastest below ~4 projected columns (the prefetcher keeps up and
//!   tuple reconstruction is cheap);
//! * RM overtakes COL once more than ~4 columns are projected.
//!
//! Usage: `fig5_projectivity [--rows N] [--streams S] [--csv]`
//! (`--streams` overrides the prefetcher stream capacity — the ablation
//! probing the source of the crossover).

use bench::{arg_usize, render_table, run_paths_cold};
use fabric_sim::{MetricsRegistry, SimConfig};
use query::Engine;
use workload::micro::{MicroQuery, TABLE};
use workload::SyntheticData;

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 1 << 20); // 64 MiB table by default
    let streams = arg_usize(&args, "--streams", 4);
    let csv = args.iter().any(|a| a == "--csv");

    let mut cfg = SimConfig::zynq_a53();
    cfg.prefetch_streams = streams;
    let mut engine = Engine::new(cfg);
    eprintln!("# generating {rows} rows (16 x i32, 64-byte rows)...");
    let data = SyntheticData::build(engine.mem(), rows, 16, 0xF16_5).expect("generate");
    engine.register(TABLE, data.rows, data.cols);

    let mut reg = MetricsRegistry::new();
    let mut out_rows = Vec::new();
    if csv {
        println!("projectivity,row_ns,col_ns,rm_ns,row_norm,col_norm,rm_norm");
    }
    for p in 1..=11 {
        let [row, col, rm] = run_paths_cold(&mut engine, &MicroQuery::projectivity(p).to_sql());
        reg.gauge_set(&format!("fig5.p{p:02}.row_ns"), row);
        reg.gauge_set(&format!("fig5.p{p:02}.col_ns"), col);
        reg.gauge_set(&format!("fig5.p{p:02}.rm_ns"), rm);
        reg.gauge_set(&format!("fig5.p{p:02}.col_norm"), col / row);
        reg.gauge_set(&format!("fig5.p{p:02}.rm_norm"), rm / row);
        if csv {
            println!(
                "{p},{row:.0},{col:.0},{rm:.0},{:.3},{:.3},{:.3}",
                1.0,
                col / row,
                rm / row
            );
        }
        out_rows.push(vec![
            p.to_string(),
            format!("{:.3}", 1.0),
            format!("{:.3}", col / row),
            format!("{:.3}", rm / row),
            bench::fmt_ns(row),
            bench::fmt_ns(col),
            bench::fmt_ns(rm),
        ]);
    }
    if !csv {
        println!("Fig. 5 — normalized execution time (lower is better), {rows} rows");
        println!(
            "{}",
            render_table(
                &["proj", "ROW", "COL", "RM", "row_t", "col_t", "rm_t"],
                &out_rows
            )
        );
    }
    engine.mem().stats().record_into(&mut reg, "mem");
    bench::emit_bench_json("fig5_projectivity", &reg);
}
