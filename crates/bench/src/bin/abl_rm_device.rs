//! Ablations of the RM device parameters (paper §IV-A / §V):
//!
//! * staging-buffer size sweep — §V: *"RM supports arbitrary data sizes
//!   even with a small data memory of 2 MB on the FPGA by refilling it
//!   whenever it is full"*; smaller buffers shrink the production
//!   lookahead;
//! * engine-clock sweep — how slow the programmable logic can get (the
//!   prototype runs at 100 MHz) before RM stops beating the baselines.
//!
//! The sweeps drive the device directly (`workload::micro::run_rm`), since
//! the engine runs one `RmConfig`; the ROW baseline they are compared with
//! is the same projection as SQL through the engine's session, run last.
//!
//! Usage: `abl_rm_device [--rows N]`

use bench::{arg_usize, fmt_ns, render_table, run_cold};
use fabric_sim::{MetricsRegistry, SimConfig};
use query::{AccessPath, Engine};
use relmem::RmConfig;
use workload::micro::{run_rm, MicroQuery, TABLE};
use workload::{RunResult, SyntheticData};

fn main() {
    let args = bench::harness::cli_args();
    let rows = arg_usize(&args, "--rows", 1 << 19);
    let mut engine = Engine::new(SimConfig::zynq_a53());
    eprintln!("# generating {rows} rows...");
    let data = SyntheticData::build(engine.mem(), rows, 16, 0xAB1).expect("generate");
    let mut reg = MetricsRegistry::new();
    let q = MicroQuery::projectivity(6);
    let rm = |engine: &mut Engine, q: &MicroQuery, cfg: RmConfig| -> RunResult {
        run_rm(engine.mem(), &data.rows, q, cfg).expect("rm")
    };

    // --- Buffer sweep (fixed 16 KiB delivery batches) and engine-clock
    // sweep, both compared with ROW below.
    let mut sweeps = [Vec::new(), Vec::new()];
    for kib in [64usize, 256, 1024, 2048, 8192] {
        let cfg = RmConfig {
            buffer_bytes: kib * 1024,
            batch_bytes: 16 * 1024,
            ..RmConfig::prototype()
        };
        let run = rm(&mut engine, &q, cfg);
        sweeps[0].push((format!("buffer_{kib:04}kib"), format!("{kib} KiB"), run));
    }
    for mhz in [25u32, 50, 100, 200, 400] {
        let period = 1000.0 / mhz as f64;
        let cfg = RmConfig {
            engine_ns_per_line: period,
            engine_ns_per_row: period,
            ..RmConfig::prototype()
        };
        let run = rm(&mut engine, &q, cfg);
        sweeps[1].push((format!("clock_{mhz:03}mhz"), format!("{mhz} MHz"), run));
    }

    // --- RM prototype vs the envisioned Relational Memory Controller
    // (§IV-C): controller-domain engine, miss-fill-like delivery, ISA-level
    // configuration.
    let mut out = Vec::new();
    for p in [1usize, 6, 11] {
        let q = MicroQuery::projectivity(p);
        let fpga = rm(&mut engine, &q, RmConfig::prototype());
        let rmc = rm(&mut engine, &q, RmConfig::rmc());
        assert_eq!(fpga.checksum, rmc.checksum);
        reg.gauge_set(&format!("rm_device.rmc.p{p:02}.fpga_ns"), fpga.ns);
        reg.gauge_set(&format!("rm_device.rmc.p{p:02}.rmc_ns"), rmc.ns);
        out.push(vec![
            format!("{p}"),
            fmt_ns(fpga.ns),
            fmt_ns(rmc.ns),
            format!("{:.2}x", fpga.ns / rmc.ns),
        ]);
    }
    let rmc_table = render_table(&["projectivity", "RM (FPGA)", "RMC", "RMC gain"], &out);

    // --- Concurrent ephemeral variables: the engine time-multiplexed
    // across N active geometries (each tenant gets 1/N of the beats and
    // buffer).
    let mut out = Vec::new();
    let q4 = MicroQuery::projectivity(4);
    let solo = rm(&mut engine, &q4, RmConfig::prototype());
    for tenants in [1usize, 2, 4, 8] {
        let shared = rm(&mut engine, &q4, RmConfig::prototype().shared(tenants));
        assert_eq!(shared.checksum, solo.checksum);
        reg.gauge_set(&format!("rm_device.tenants_{tenants:02}.ns"), shared.ns);
        reg.gauge_set(
            &format!("rm_device.tenants_{tenants:02}.slowdown"),
            shared.ns / solo.ns,
        );
        out.push(vec![
            format!("{tenants}"),
            fmt_ns(shared.ns),
            format!("{:.2}x", shared.ns / solo.ns),
        ]);
    }
    let tenants_table = render_table(&["active tenants", "per-tenant time", "slowdown"], &out);

    // --- The ROW baseline: the projectivity-6 query through the engine.
    engine.register(TABLE, data.rows, data.cols);
    let row = run_cold(&mut engine, &q.to_sql(), AccessPath::Row);
    let row_sum: f64 = row.rows.iter().flatten().map(|v| v.as_f64().unwrap()).sum();
    let sweeps = sweeps.map(|sweep| {
        let cells = sweep.into_iter().map(|(key, label, run)| {
            assert_eq!(run.checksum, row_sum, "{label} disagrees with ROW");
            reg.gauge_set(&format!("rm_device.{key}.ns"), run.ns);
            reg.gauge_set(&format!("rm_device.{key}.speedup_vs_row"), row.ns / run.ns);
            vec![label, fmt_ns(run.ns), format!("{:.2}x", row.ns / run.ns)]
        });
        cells.collect::<Vec<_>>()
    });

    println!(
        "RM staging-buffer sweep (projectivity 6, ROW = {}):",
        fmt_ns(row.ns)
    );
    println!(
        "{}",
        render_table(&["buffer", "RM time", "speedup vs ROW"], &sweeps[0])
    );
    println!("RM engine-clock sweep (projectivity 6):");
    println!(
        "{}",
        render_table(&["engine clock", "RM time", "speedup vs ROW"], &sweeps[1])
    );
    println!("RM prototype vs Relational Memory Controller (section IV-C):");
    println!("{rmc_table}");
    println!("Device sharing across concurrent ephemeral variables (projectivity 4):");
    println!("{tenants_table}");
    engine.mem().stats().record_into(&mut reg, "mem");
    bench::emit_bench_json("abl_rm_device", &reg);
}
