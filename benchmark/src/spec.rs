//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root states the same tables for the driver; the smoke
//! test checks the two agree.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a set of generated inputs and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may get worse before a change counts as a
/// regression (`None` for per-layer metrics, which have no bound).
/// `exact` marks simulated counters: for one seed they must repeat
/// bit-for-bit on every run of the same code.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 24;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "scan_cold",
        why: "TPC-H lineitem 131072 rows (19 MiB, far above sim L2 and RM buffer); Q1, Q6 and a key lookup forced onto ROW, COL and RM with a cold op cache: hierarchy and storage kernels dominate",
    },
    WorkloadSpec {
        name: "project_wide",
        why: "16 x i32 table, 131072 rows; optimizer-routed projections of 2-11 columns at selectivity 0.1-0.9, plain, top-100 and fully sorted: row materialisation, merge and sort dominate",
    },
    WorkloadSpec {
        name: "dashboard_warm",
        why: "36 small-result statements over lineitem 16384 rows, Zipf(1.0) draws on a warm op cache with 36 > 16 plan-cache slots: only the fixed per-query cost is left",
    },
    WorkloadSpec {
        name: "htap_mix",
        why: "DurableStore, 20000 accounts: 100-update commits, RM and software snapshot sums every 4th commit, crash and replay twice per epoch: mvcc, durability and relmem under version growth",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

/// End-to-end metrics, reported by every workload on the untraced run.
/// `failed_ops_share` is the `failed` / `attempted` pair of the result
/// line, not a metric of its own: it is always 0 on a correct run and
/// the driver asks for metrics that are never 0.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("host_ops_per_s", "1/s", Better::Higher, 0.15, false),
    e2e("host_op_us_p50", "us", Better::Lower, 0.15, false),
    e2e("host_op_us_p95", "us", Better::Lower, 0.20, false),
    e2e("sim_cycles_per_op", "cycles", Better::Lower, 0.10, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false),
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, reported by every workload on the traced run. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 70] = [
    // workload (datagen)
    host("workload.gen_rows_per_s", "1/s", Higher),
    // query front end, direct shadow calls
    host("parser.host_us_p50", "us", Lower),
    host("bind.host_us_p50", "us", Lower),
    host("analyze.host_us_p50", "us", Lower),
    // query.cost
    host("cost.host_us_p50", "us", Lower),
    sim("cost.est_rel_err_pct_p50", "%", Lower),
    sim("cost.regret_pct_mean", "%", Lower),
    // query.engine
    host("engine.prepare_host_us_p50", "us", Lower),
    host("engine.execute_host_us_p50", "us", Lower),
    sim("engine.plan_cache_hit_ratio", "ratio", Higher),
    host("engine.hit_host_us_p50", "us", Lower),
    // query.exec
    sim("exec.scan_cycles_per_op", "cycles", Lower),
    sim("exec.merge_cycles_per_op", "cycles", Lower),
    sim("exec.sort_cycles_per_op", "cycles", Lower),
    sim("exec.out_rows_per_op", "rows", Lower),
    host("exec.host_ns_per_out_row", "ns", Lower),
    sim("exec.opcache_hit_ratio", "ratio", Higher),
    sim("exec.opcache_evictions", "count", Lower),
    sim("exec.opcache_bytes", "B", Lower),
    sim("exec.scratch_reuse_ratio", "ratio", Higher),
    sim("exec.degraded_ops", "count", Lower),
    // fabric-sim
    sim("sim.line_accesses_per_op", "lines", Lower),
    sim("sim.l1_hit_ratio", "ratio", Higher),
    sim("sim.l2_hit_ratio", "ratio", Higher),
    sim("sim.prefetch_hit_ratio", "ratio", Higher),
    sim("sim.demand_miss_ratio", "ratio", Lower),
    sim("sim.bytes_read_per_op", "B", Lower),
    sim("sim.cpu_cycle_share", "ratio", Lower),
    sim("sim.stall_cycle_share", "ratio", Lower),
    sim("sim.memlat_cycle_share", "ratio", Lower),
    sim("sim.stall_bw_cycles_per_op", "cycles", Lower),
    sim("sim.stall_dram_cycles_per_op", "cycles", Lower),
    sim("sim.stall_device_cycles_per_op", "cycles", Lower),
    host("sim.host_ns_per_line_access", "ns", Lower),
    host("sim.host_ns_per_sim_cycle", "ns", Lower),
    host("sim.host_ns_per_line_seq", "ns", Lower),
    host("sim.host_ns_per_line_strided", "ns", Lower),
    host("sim.host_ns_per_line_gather", "ns", Lower),
    // rowstore / colstore kernels (probes)
    host("rowstore.host_ns_per_row", "ns", Lower),
    sim("rowstore.sim_cycles_per_row", "cycles", Lower),
    host("colstore.host_ns_per_row", "ns", Lower),
    sim("colstore.sim_cycles_per_row", "cycles", Lower),
    // relmem
    host("relmem.host_ns_per_row", "ns", Lower),
    sim("relmem.sim_cycles_per_row", "cycles", Lower),
    sim("relmem.source_lines_per_op", "lines", Lower),
    sim("relmem.output_lines_per_op", "lines", Lower),
    sim("relmem.gather_amplification", "ratio", Lower),
    sim("relmem.batches_per_op", "count", Lower),
    sim("relmem.retries", "count", Lower),
    // mvcc
    host("mvcc.commit_host_us_p50", "us", Lower),
    sim("mvcc.commit_sim_cycles_p50", "cycles", Lower),
    host("mvcc.rm_scan_host_ms_p50", "ms", Lower),
    host("mvcc.sw_scan_host_ms_p50", "ms", Lower),
    sim("mvcc.rm_scan_sim_cycles_per_version", "cycles", Lower),
    sim("mvcc.sw_scan_sim_cycles_per_version", "cycles", Lower),
    sim("mvcc.visible_per_version", "ratio", Higher),
    sim("mvcc.conflicts", "count", Lower),
    // durability
    sim("durability.wal_appends", "count", Lower),
    sim("durability.wal_bytes_per_update", "B", Lower),
    sim("durability.ckpt_pages", "count", Lower),
    sim("durability.write_retries", "count", Lower),
    host("durability.replay_host_ms", "ms", Lower),
    sim("durability.replay_sim_cycles", "cycles", Lower),
    sim("durability.replay_records", "count", Lower),
    // fabric-obs
    host("obs.metrics_json_host_ms", "ms", Lower),
    host("obs.querylog_json_host_ms", "ms", Lower),
    sim("obs.metrics_keys", "count", Lower),
    sim("obs.querylog_dropped", "count", Lower),
    // the benchmark itself
    host("bench.trace_overhead_pct", "%", Lower),
    host("bench.self_host_share", "ratio", Lower),
];

/// The spec of a metric by name, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
