//! Ablation: morsel-driven multi-core scaling per access path.
//!
//! Runs TPC-H Q1 and Q6 through the SQL session API at 1..N simulated
//! cores on each access path, asserting every parallel answer is
//! **bit-identical** to the 1-core run, and reports the simulated-cycle
//! speedup plus where the extra cycles went (shared-resource stalls and
//! end-of-morsel idle waits, from the per-core attribution that EXPLAIN
//! ANALYZE renders).
//!
//! Expected shape: the software scan paths (ROW/COL) scale near-linearly —
//! one A53 core cannot saturate the shared L2 port or the DRAM
//! controller, so the bandwidth ledgers rarely bind at these widths — while
//! device-bound RM plans (Q6) stay flat: the RM engine produces batches at
//! its own serial beat and extra cores only drain them faster.
//!
//! Usage: `abl_parallel [--rows N] [--cores 1,2,4]`

use bench::{arg_usize, arg_value, fmt_ns, render_table};
use fabric_sim::SimConfig;
use query::{AccessPath, Engine};
use workload::Lineitem;

const Q1: &str = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
                  sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*) \
                  FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                  GROUP BY l_returnflag, l_linestatus";
const Q6: &str = "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
                  WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
                  AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24";

fn engine(rows: usize, cores: usize) -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let li = Lineitem::generate(e.mem(), rows, 0xAB1_7A).expect("generate lineitem");
    e.register("lineitem", li.rows, li.cols);
    e
}

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 60_000);
    let cores: Vec<usize> = arg_value(&args, "--cores")
        .unwrap_or_else(|| "1,2,4".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();

    let mut reg = fabric_sim::MetricsRegistry::new();
    for (qname, sql) in [("q1", Q1), ("q6", Q6)] {
        let mut table = Vec::new();
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            eprintln!("# {qname} {path}: {rows} rows at {cores:?} cores");
            let base = engine(rows, 1)
                .session()
                .run_on(sql, path)
                .expect("1-core run");
            for &n in &cores {
                let out = engine(rows, n).session().run_on(sql, path).expect("run");
                assert_eq!(
                    out.rows, base.rows,
                    "{qname} {path} at {n} cores diverged from the 1-core answer"
                );
                let speedup = base.ns / out.ns;
                let busy: u64 = out.cores.iter().map(|c| c.busy_cycles).sum();
                let stall: u64 = out.cores.iter().map(|c| c.stall_cycles()).sum();
                let idle: u64 = out.cores.iter().map(|c| c.idle_cycles).sum();
                let key = format!("abl_parallel.{qname}.{path}.c{n}");
                reg.gauge_set(&format!("{key}.ns"), out.ns);
                reg.gauge_set(&format!("{key}.speedup"), speedup);
                reg.counter_add(&format!("{key}.busy_cycles"), busy);
                reg.counter_add(&format!("{key}.stall_cycles"), stall);
                reg.counter_add(&format!("{key}.idle_cycles"), idle);
                table.push(vec![
                    path.to_string(),
                    format!("{n}"),
                    fmt_ns(out.ns),
                    format!("{speedup:.2}x"),
                    format!("{:.1}%", 100.0 * stall as f64 / busy.max(1) as f64),
                    format!("{:.1}%", 100.0 * idle as f64 / (busy + idle).max(1) as f64),
                ]);
            }
        }
        println!(
            "Ablation — {} morsel-parallel scaling ({rows} rows)",
            qname.to_uppercase()
        );
        println!(
            "{}",
            render_table(
                &["path", "cores", "sim_time", "speedup", "stall%", "idle%"],
                &table
            )
        );
    }
    bench::emit_bench_json("abl_parallel", &reg);
}
