//! Two-clock benchmark of the Relational Fabric reproduction.
//!
//! The engine runs on two clocks: the *simulated* clock (cycles, bytes,
//! stalls: the paper's answer, exact for a seed) and the *host* clock
//! (how long the simulator and the engine take to produce it). This
//! package measures both from outside the engine, by timing calls into
//! public functions and reading public counters, on four workloads that
//! stress different layers. See `README.md` for every metric's
//! definition and the predictions later changes are checked against.
//!
//! A run is closed loop, one client, one host thread. It sets a workload
//! up (several times, reporting the median set-up time) and replays
//! whole *cycles* of a fixed, seeded operation stream until `seconds`
//! of them have been measured. Simulated counters come from the first cycle only, so
//! they do not depend on how many cycles the host managed to fit. The
//! engine is deterministic and the host only ever adds time, so the host
//! latency of each position of the stream is its minimum over all cycles,
//! and every host statistic is taken over those per-position floors.

pub mod gen;
pub mod htap;
pub mod probes;
pub mod query_workload;
pub mod report;
pub mod spec;
pub mod stats;
pub mod tracer;

use fabric_sim::{MemStats, MemoryHierarchy};
use std::path::PathBuf;
use std::time::Instant;
use tracer::Tracer;

/// Sizes of the four workloads. [`Scale::reference`] is what
/// `BENCHMARK.json` describes; it is not a run-time option.
/// [`Scale::tiny`] exists for the smoke test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `scan_cold`: `lineitem` rows.
    pub scan_rows: usize,
    /// `project_wide`: rows of the 16 x i32 table.
    pub wide_rows: usize,
    /// `dashboard_warm`: `lineitem` rows, distinct statements, draws per cycle.
    pub dash_rows: usize,
    pub dash_statements: usize,
    pub dash_draws: usize,
    /// `htap_mix`: accounts, commits per epoch, updates per commit.
    pub htap_accounts: usize,
    pub htap_commits: usize,
    pub htap_batch: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Spans kept whole for the exported trace (a prefix of the run).
    pub span_cap: usize,
}

impl Scale {
    pub fn reference() -> Self {
        Scale {
            scan_rows: 131_072,
            wide_rows: 131_072,
            dash_rows: 16_384,
            dash_statements: 36,
            dash_draws: 20_000,
            htap_accounts: 20_000,
            htap_commits: 400,
            htap_batch: 100,
            setup_reps: 3,
            span_cap: 20_000,
        }
    }

    pub fn tiny() -> Self {
        Scale {
            scan_rows: 2_048,
            wide_rows: 1_024,
            dash_rows: 1_024,
            dash_statements: 18,
            dash_draws: 200,
            htap_accounts: 300,
            htap_commits: 16,
            htap_batch: 10,
            setup_reps: 2,
            span_cap: 2_000,
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Whole cycles are replayed until this much host time has passed.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans and probes instead of the
    /// end-to-end metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Where the traced run writes its Chrome trace-event JSON.
    pub trace_path: Option<PathBuf>,
}

/// What a run prints: the driver's result line plus readable extras.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of [`spec::END_TO_END`] (untraced)
    /// or [`spec::PER_LAYER`] (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra `(name, value, unit)` lines for a reader: sample counts,
    /// per-span self-time shares. Not part of the result line.
    pub notes: Vec<(String, f64, &'static str)>,
}

/// What the measured loop accumulates across cycles.
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the error stream.
    pub failures: Vec<String>,
    /// Per position of the operation stream, the lowest host latency
    /// any untraced cycle saw there, ns.
    pub floor_ns: Vec<u64>,
    /// The same for traced cycles (traced runs alternate the two, and
    /// the difference of the medians is the tracing overhead).
    pub traced_floor_ns: Vec<u64>,
    /// Summed operation latencies of each untraced cycle, ns.
    pub cycle_ns: Vec<u64>,
    /// Position of the next operation in its cycle.
    position: usize,
    /// Simulated cycles and operations of the first cycle.
    pub first_cycle: Option<(u64, u64)>,
    pub tracer: Tracer,
}

impl Recorder {
    fn new(span_cap: usize) -> Self {
        Recorder {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            floor_ns: Vec::new(),
            traced_floor_ns: Vec::new(),
            cycle_ns: Vec::new(),
            position: 0,
            first_cycle: None,
            tracer: Tracer::new(span_cap),
        }
    }

    fn begin_cycle(&mut self, traced: bool) {
        self.position = 0;
        if !traced {
            self.cycle_ns.push(0);
        }
    }

    /// Count one attempted operation or check; `why` is rendered only
    /// for the first few failures.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Record one timed operation of the measured loop, at the next
    /// position of its cycle.
    pub fn op(&mut self, traced: bool, lat_ns: u64, ok: bool, why: impl FnOnce() -> String) {
        let floor = if traced {
            &mut self.traced_floor_ns
        } else {
            &mut self.floor_ns
        };
        match floor.get_mut(self.position) {
            Some(lowest) => *lowest = lat_ns.min(*lowest),
            None => floor.push(lat_ns),
        }
        self.position += 1;
        if let (false, Some(cycle)) = (traced, self.cycle_ns.last_mut()) {
            *cycle += lat_ns;
        }
        self.check(ok, why);
    }
}

/// A set-up workload: replays its cycle on demand and, after a traced
/// run, reports its layers.
pub trait Workload {
    /// Run one whole cycle of the operation stream.
    fn cycle(&mut self, rec: &mut Recorder, traced: bool);
    /// Per-layer metrics of a traced run, kernel probes included.
    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>);
}

/// The `sim.*` metrics every workload derives from hierarchy counters:
/// the exact ones from the first cycle (`first`, over `ops` operations),
/// host time per simulated unit from all traced cycles (`all`).
pub fn hierarchy_metrics(
    first: &MemStats,
    ops: u64,
    all: &MemStats,
    all_sim_cycles: u64,
    all_host_ns: u64,
    out: &mut Vec<(&'static str, f64)>,
) {
    use stats::ratio;
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    let of_lines = |x: u64| ratio(x as f64, first.line_accesses as f64);
    let of_busy = |x: u64| ratio(x as f64, first.busy_cycles() as f64);
    out.extend([
        ("sim.line_accesses_per_op", per_op(first.line_accesses)),
        ("sim.l1_hit_ratio", of_lines(first.l1_hits)),
        ("sim.l2_hit_ratio", of_lines(first.l2_hits)),
        ("sim.prefetch_hit_ratio", of_lines(first.prefetch_hits)),
        ("sim.demand_miss_ratio", of_lines(first.demand_misses)),
        ("sim.bytes_read_per_op", per_op(first.bytes_read)),
        ("sim.cpu_cycle_share", of_busy(first.cpu_cycles)),
        ("sim.stall_cycle_share", of_busy(first.stall_cycles)),
        ("sim.memlat_cycle_share", of_busy(first.mem_lat_cycles)),
        ("sim.stall_bw_cycles_per_op", per_op(first.stall_bw_cycles)),
        (
            "sim.stall_dram_cycles_per_op",
            per_op(first.stall_dram_cycles),
        ),
        (
            "sim.stall_device_cycles_per_op",
            per_op(first.stall_device_cycles),
        ),
        (
            "sim.host_ns_per_line_access",
            ratio(all_host_ns as f64, all.line_accesses as f64),
        ),
        (
            "sim.host_ns_per_sim_cycle",
            ratio(all_host_ns as f64, all_sim_cycles as f64),
        ),
    ]);
}

/// What exporting `mem`'s metrics registry costs and holds:
/// `(MetricsSnapshot::to_json host ms, keys)`.
pub fn metrics_export(mem: &MemoryHierarchy) -> (f64, u64) {
    let t = Instant::now();
    let snapshot = mem.metrics().snapshot();
    std::hint::black_box(snapshot.to_json());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let keys = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    (ms, keys as u64)
}

/// Run `workload` under `cfg`. `Err` only for an unknown name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    let (seed, scale) = (cfg.seed, &cfg.scale);
    let spec = spec::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let query = |inputs: fn(u64, &Scale) -> gen::QueryInputs| {
        measure(spec.name, cfg, |rec| {
            query_workload::QueryWorkload::setup(inputs(seed, scale), cfg, rec)
        })
    };
    Ok(match spec.name {
        "scan_cold" => query(gen::scan_cold),
        "project_wide" => query(gen::project_wide),
        "dashboard_warm" => query(gen::dashboard_warm),
        _ => measure(spec.name, cfg, |rec| htap::HtapMix::setup(cfg, rec)),
    })
}

fn measure<W: Workload>(
    workload: &'static str,
    cfg: &RunConfig,
    setup: impl Fn(&mut Recorder) -> W,
) -> RunResult {
    let mut rec = Recorder::new(cfg.scale.span_cap);

    // The untraced run sets up several times and measures a share of
    // the time after each set-up. Every set-up of a seed leaves the same
    // engine state, so the cycles of all of them line up position by
    // position. Spreading the measured cycles over the whole run makes
    // it less likely that one slowdown episode of the host (on the
    // reference box they last up to half a minute) covers all of them,
    // and keeps the set-ups apart so that one episode cannot decide
    // their median either. A traced run sets up once, alternates traced
    // and untraced cycles, starting traced, and needs one of each.
    let reps = if cfg.trace {
        1
    } else {
        cfg.scale.setup_reps.max(1)
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    let (mut measured_s, mut cycles) = (0.0, 0u64);
    for rep in 1..=reps {
        drop(built.take());
        let t = Instant::now();
        let mut w = setup(&mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        let until_s = cfg.seconds * rep as f64 / reps as f64;
        loop {
            let traced = cfg.trace && cycles % 2 == 0;
            rec.begin_cycle(traced);
            let t = Instant::now();
            w.cycle(&mut rec, traced);
            measured_s += t.elapsed().as_secs_f64();
            cycles += 1;
            if measured_s >= until_s && (!cfg.trace || cycles >= 2) {
                break;
            }
        }
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    if cfg.trace {
        w.layer_metrics(&mut rec, &mut metrics);
        report::trace_metrics(&rec, &mut metrics, &mut notes);
        if let Some(path) = &cfg.trace_path {
            let json = rec.tracer.to_chrome_json(workload, cfg.seed);
            let valid = fabric_sim::validate_chrome_trace(&json);
            rec.check(valid.is_ok(), || {
                format!("trace does not validate: {valid:?}")
            });
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, json));
            rec.check(written.is_ok(), || {
                format!("cannot write {}: {written:?}", path.display())
            });
        }
        // Every per-layer metric is reported; a layer the workload does
        // not exercise reads 0.
        metrics = spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = metrics.iter().find(|(n, _)| *n == m.name);
                (m.name, v.map_or(0.0, |(_, v)| *v))
            })
            .collect();
    } else {
        let mut floor = rec.floor_ns.clone();
        let floor_ns: u64 = floor.iter().sum();
        let (sim_cycles, sim_ops) = rec.first_cycle.unwrap_or((0, 0));
        let p50 = stats::quantile(&mut floor, 0.50);
        let p95 = stats::quantile(&mut floor, 0.95);
        metrics = vec![
            ("setup_s", stats::median_f64(&mut setup_s)),
            (
                "host_ops_per_s",
                stats::ratio(floor.len() as f64 * 1e9, floor_ns as f64),
            ),
            ("host_op_us_p50", p50 as f64 / 1e3),
            ("host_op_us_p95", p95 as f64 / 1e3),
            (
                "sim_cycles_per_op",
                stats::ratio(sim_cycles as f64, sim_ops as f64),
            ),
            ("peak_rss_mb", stats::peak_rss_mib()),
        ];
        // For a reader: how much was measured, and the throughput of the
        // median whole cycle, which also sees work that recurs out of
        // step with the cycle (and all the host's noise).
        let ops_per_cycle = floor.len() as f64;
        let cycle_ns = stats::quantile(&mut rec.cycle_ns, 0.5) as f64;
        notes.push(("timed_cycles".into(), cycles as f64, "count"));
        notes.push(("ops_per_cycle".into(), ops_per_cycle, "count"));
        notes.push(("timed_ops".into(), cycles as f64 * ops_per_cycle, "count"));
        notes.push((
            "median_cycle_ops_per_s".into(),
            stats::ratio(ops_per_cycle * 1e9, cycle_ns),
            "1/s",
        ));
    }
    for f in &rec.failures {
        eprintln!("{workload}: FAILED {f}");
    }
    RunResult {
        workload,
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        notes,
    }
}
