//! Staged plan execution over the three access paths.
//!
//! All paths share one consumption stage (expression evaluation or grouped
//! aggregation over slot tuples), so a query returns identical rows no
//! matter which path the optimizer picked — the paper's "one execution
//! engine" property (§III-B): the engine always assumes only relevant data
//! arrives.
//!
//! Execution is **staged and morsel-driven** (DESIGN.md §16). Stage 0 —
//! scan, filter and consumption fused — is one vectorized kernel pass per
//! morsel, which a [`QueryExecutor`] drives ([`MORSEL_ROWS`] rows for
//! ROW/COL, one delivered batch for RM), scheduling each morsel onto the
//! earliest-free simulated core (ties to the lowest core id — fully
//! deterministic). Each morsel feeds a private partial consumer; the
//! pipeline-breaking merge is stage 1, its own profiled phase on core 0,
//! folding the partials *in morsel order* so the result is bit-identical
//! for every core count — a single core simply runs the morsels back to
//! back and the merge degenerates to concatenation in scan order.
//!
//! Stage buffers are lent by a per-session [`Scratchpad`] ([`buffer`]):
//! morsel-sized vectors recycled across stages and queries, owned by the
//! session and borrowed by `&mut`, so the borrow checker rules out
//! aliasing. Stage 0 reports one total of its kernel passes and rows, from
//! which every operator's record is derived. Results travel as typed
//! [`batch::ResultBatch`]es from the consumers through the merge to the
//! shared tail, which turns the rows it returns — and only those — into
//! [`QueryOutput::rows`]. The merged stage
//! output of a clean run is memoized in a signature-keyed [`OpCache`]
//! ([`opcache`]); a session re-running the same plan shape against the
//! same table shares the memoized batch without touching the hierarchy
//! again.

mod batch;
pub mod buffer;
mod executor;
pub mod opcache;
pub(crate) mod operators;
mod tail_metrics;

pub use batch::{CLIENT_FILL_ROWS, CLIENT_GATHER_BYTES};
pub use buffer::{ChunkScratch, Scratchpad};
pub use executor::QueryExecutor;
pub use opcache::OpCache;
pub(crate) use tail_metrics::{QueryMetrics, TailMetrics};

use crate::analyze::VerifiedQuery;
use crate::catalog::TableEntry;
use crate::cost::{split_path_cost, AccessPath, PathCost};
use fabric_sim::{
    Category, CircuitBreaker, CoreAttribution, FaultConfig, FaultPlan, MemStats, MemoryHierarchy,
    OpRecord, RecoveryPolicy, TopDownSummary,
};
use fabric_types::{FabricError, Result, Value};
use relmem::{RmConfig, RmStats};
use std::rc::Rc;

use batch::{ResultBatch, Returned};
use executor::{Stage0, StageTotal};
use operators::merge_partials;

/// Rows per ROW/COL morsel: large enough to amortize per-morsel operator
/// setup and keep scans sequential, small enough to load-balance across
/// the simulated cores.
pub const MORSEL_ROWS: usize = 4096;

/// One measured execution phase — a plan node's actuals, captured whether
/// or not a trace recorder is attached (the bookkeeping is host-side and
/// never advances simulated time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Span name, matching the trace event (`query::scan::rm`, …).
    pub name: &'static str,
    /// Simulated cycles the phase took.
    pub cycles: u64,
    /// Payload bytes read through the hierarchy during the phase.
    pub bytes_read: u64,
    /// Cycles the CPU spent stalled on memory during the phase.
    pub stall_cycles: u64,
    /// Whether the phase ended in an error (a faulted RM attempt stays in
    /// the profile of the degraded query that absorbed it).
    pub failed: bool,
}

/// Who issued the query and what the engine had been through when it
/// ran — recorded into the query log alongside the execution itself.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecordMeta {
    /// Session id (0 for engine-direct entry points).
    pub session: u64,
    /// Tables the engine has recovered (WAL replay) so far.
    pub recovered_tables: u64,
}

/// The result of a query: rows plus how they were obtained.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub rows: Vec<Vec<Value>>,
    pub path: AccessPath,
    /// Simulated nanoseconds spent executing (excludes parse/bind).
    pub ns: f64,
    /// The optimizer's estimates (for EXPLAIN-style output).
    pub cost: PathCost,
    /// RM device statistics, when the RM path ran (even if it then
    /// degraded — the failed attempt's injected-fault counters are here).
    pub rm_stats: Option<RmStats>,
    /// `Some(original_path)` when the executor transparently re-planned
    /// onto `path` after the original faulted past its retry budget.
    pub degraded_from: Option<AccessPath>,
    /// Per-phase actuals (scan, merge, sort, failed attempts) in execution
    /// order — the plan-node breakdown `EXPLAIN ANALYZE` renders.
    pub profile: Vec<PhaseProfile>,
    /// Per-core attribution for the query window (DESIGN.md §12, §25), one
    /// entry per simulated core (a single entry on a 1-core engine): every
    /// core's elapsed cycles classified into retired / memory-bound /
    /// stall buckets, plus the bytes it read. Verified (`buckets sum ==
    /// elapsed`) before the output is returned, and exported into the
    /// metrics registry as `query.core<i>.*`.
    pub cores: Vec<CoreAttribution>,
    /// Per-operator estimate/actual attribution for the path that ran
    /// (empty on op-cache hits — no operator executed). Per-op estimates
    /// sum bit-exactly to `cost.ns(path)`.
    pub ops: Vec<OpRecord>,
    /// True when the answer was replayed from the operator cache.
    pub cache_hit: bool,
}

/// Fault-handling state threaded through resilient execution across
/// queries: the seeded plan, the recovery budgets, and the RM engine's
/// health. Hold one per simulated "machine" so the circuit breaker sees
/// consecutive failures across queries, not just within one.
pub struct FaultContext {
    /// The seeded fault plan every RM delivery draws from.
    pub plan: FaultPlan,
    /// Retry/backoff/breaker budgets.
    pub policy: RecoveryPolicy,
    rm_health: CircuitBreaker,
    /// Queries that degraded onto a software path after an RM fault.
    pub fallbacks: u64,
    /// Queries that skipped the RM path because its breaker was open.
    pub breaker_skips: u64,
}

impl FaultContext {
    pub fn new(cfg: FaultConfig, policy: RecoveryPolicy) -> Self {
        FaultContext {
            plan: FaultPlan::new(cfg),
            rm_health: CircuitBreaker::new(&policy),
            policy,
            fallbacks: 0,
            breaker_skips: 0,
        }
    }

    /// A context whose plan injects nothing (useful as a baseline).
    pub fn quiet() -> Self {
        FaultContext::new(FaultConfig::quiet(0), RecoveryPolicy::default())
    }

    /// Health of the RM engine as seen by this context.
    pub fn rm_health(&self) -> &CircuitBreaker {
        &self.rm_health
    }
}

/// Run a prepared plan on `path` under its `key` with no operator cache,
/// a fresh quiet fault context and a throw-away scratchpad: `EXPLAIN
/// ANALYZE`'s measurement run, which must observe the real hierarchy and
/// pay what a session's run of the plan pays, the RM path's per-line CRC
/// check included. Its metrics go through `metrics`' handles like a
/// session's.
pub(crate) fn execute_uncached(
    mem: &mut MemoryHierarchy,
    metrics: &mut QueryMetrics,
    entry: &TableEntry,
    verified: &VerifiedQuery,
    path: AccessPath,
    cost: PathCost,
    key: u128,
) -> Result<QueryOutput> {
    let tail = metrics.on(mem);
    run_verified(
        mem,
        tail,
        entry,
        verified,
        path,
        cost,
        &mut FaultContext::quiet(),
        None,
        key,
        &mut Scratchpad::new(),
        RecordMeta::default(),
    )
}

/// The trace/profile span name of a path's scan phase.
fn scan_span(path: AccessPath) -> &'static str {
    match path {
        AccessPath::Row => "query::scan::row",
        AccessPath::Col => "query::scan::col",
        AccessPath::Rm => "query::scan::rm",
    }
}

/// A path's name in metric keys, the query log and the calibration
/// ledger (`row` / `col` / `rm`): the last segment of its [`scan_span`].
pub(crate) fn path_tag(path: AccessPath) -> &'static str {
    &scan_span(path)["query::scan::".len()..]
}

/// Leave a query that failed after its `query::exec` span opened: close
/// the attribution window and the span, and hand the error on.
fn fail_exec<T>(mem: &mut MemoryHierarchy, e: FabricError) -> Result<T> {
    mem.join_clocks();
    mem.trace_end("query::exec", Category::Query, &[("failed", 1)]);
    Err(e)
}

/// Run `f` as a named execution phase: emit a balanced trace span (with
/// cycle/byte/stall attribution as end args) and append the measured
/// actuals to `profile`. The phase is recorded even when `f` errors — a
/// failed RM attempt is part of the degraded query's story.
fn profiled<R>(
    mem: &mut MemoryHierarchy,
    name: &'static str,
    profile: &mut Vec<PhaseProfile>,
    f: impl FnOnce(&mut MemoryHierarchy) -> Result<R>,
) -> Result<R> {
    let before = mem.stats();
    let t = mem.now();
    mem.trace_begin(name, Category::Query);
    let res = f(mem);
    let d = mem.stats().delta_since(&before);
    let cycles = mem.now() - t;
    mem.trace_end(
        name,
        Category::Query,
        &[
            ("cycles", cycles),
            ("bytes_read", d.bytes_read),
            ("stall_cycles", d.stall_cycles),
            ("failed", u64::from(res.is_err())),
        ],
    );
    profile.push(PhaseProfile {
        name,
        cycles,
        bytes_read: d.bytes_read,
        stall_cycles: d.stall_cycles,
        failed: res.is_err(),
    });
    res
}

/// The one pipeline every entry point funnels into, for a plan whose
/// path-keyed signature is `key` (the query log's `plan_sig`).
///
/// Probes the operator cache first, when given one: a hit replays the
/// memoized stage-0+merge output (pure CPU probe cost, zero hierarchy
/// traffic) and goes straight to the post-processing tail. A miss runs
/// stage 0 on the [`QueryExecutor`] for the chosen path (RM delivery under
/// `faults`), merges the partials as its own profiled
/// `query::stage::merge` phase, memoizes clean results, and finishes
/// through the shared tail.
/// Opens/closes the `query::exec` span and captures per-core attribution
/// across the whole run.
///
/// The run travels as one [`QueryOutput`]: each stage fills in what it
/// learns (the path that ran, device stats, phases, operators) and the
/// tail closes the window with the rows and the per-core records.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_verified(
    mem: &mut MemoryHierarchy,
    tail: &TailMetrics,
    entry: &TableEntry,
    verified: &VerifiedQuery,
    path: AccessPath,
    cost: PathCost,
    faults: &mut FaultContext,
    mut cache: Option<&mut OpCache>,
    key: u128,
    scratch: &mut Scratchpad,
    meta: RecordMeta,
) -> Result<QueryOutput> {
    // Align the cores so the attribution window has one common origin.
    let window = Window {
        t0: mem.fork_clocks(),
        before: (0..mem.num_cores()).map(|i| mem.core_stats(i)).collect(),
    };
    // Arm the flight recorder: a mid-query postmortem reports its metrics
    // delta relative to this point.
    mem.flight_arm();
    mem.trace_begin("query::exec", Category::Query);
    let mut out = QueryOutput {
        rows: Vec::new(),
        path,
        ns: 0.0,
        cost,
        rm_stats: None,
        degraded_from: None,
        profile: Vec::new(),
        cores: Vec::new(),
        ops: Vec::new(),
        cache_hit: false,
    };

    if let Some(batch) = cache.as_mut().and_then(|c| c.probe(key)) {
        // Operator-cache hit: the memoized stage output stands in for
        // stage 0 and the merge. The only cost is the probe plus the
        // copy-out — pure CPU on core 0, zero hierarchy traffic. No device
        // ran, so the hit reports no `rm_stats`: the cold run that filled
        // the entry already counted its device work. The path is the
        // requested one, because only clean runs are inserted.
        mem.set_active_core(0);
        let n = batch.len() as u64;
        let copied = profiled(mem, "query::opcache::hit", &mut out.profile, |m| {
            let costs = m.costs();
            m.cpu(costs.hash_op + costs.value_op * n);
            Ok(())
        });
        debug_assert!(copied.is_ok());
        mem.metrics_mut().counter_add_id(tail.opcache_hits, 1);
        out.cache_hit = true;
        return finish_output(mem, tail, verified, &batch, out, window, meta, key);
    }

    let (partials, scanned) =
        run_scan(mem, entry, verified, faults, &mut out, scratch).or_else(|e| fail_exec(mem, e))?;

    // Stage 1: the pipeline-breaking merge, profiled as its own phase on
    // core 0 and counted here — the driver owns this stage, not the
    // stage-0 executor.
    let bound = verified.bound();
    let mut merged = StageTotal {
        passes: partials.len() as u64,
        rows_in: partials.iter().map(|p| p.partial_len() as u64).sum(),
        rows_out: 0,
    };
    let batch = profiled(mem, "query::stage::merge", &mut out.profile, |m| {
        merge_partials(m, bound, &verified.output_types()?, partials)
    })
    .map(Rc::new)
    .or_else(|e| fail_exec(mem, e))?;
    merged.rows_out = batch.len() as u64;

    // Attribute estimates and measured cycles/bytes to the operators of
    // the path that ran (the fallback path's when the run degraded).
    out.ops = build_op_records(mem, entry, verified, &out, scanned, merged)
        .or_else(|e| fail_exec(mem, e))?;

    // Memoize the pre-sort/pre-limit stage output — clean runs only: a
    // degraded answer or a faulted RM attempt must be re-earned every
    // time so fault-path counters and breaker state stay truthful.
    if let Some(opcache) = cache {
        mem.metrics_mut().counter_add_id(tail.opcache_misses, 1);
        let clean = out.degraded_from.is_none()
            && out.rm_stats.as_ref().is_none_or(|s| s.injected_faults == 0);
        if clean {
            let evicted_before = opcache.evictions();
            opcache.insert(key, Rc::clone(&batch));
            let metrics = mem.metrics_mut();
            metrics.counter_add_id(tail.opcache_insertions, 1);
            metrics.counter_add_id(tail.opcache_evictions, opcache.evictions() - evicted_before);
        }
        // Occupancy after this run, visible next to the hit/miss counters.
        let metrics = mem.metrics_mut();
        metrics.gauge_set_id(tail.opcache_entries, opcache.len() as f64);
        metrics.gauge_set_id(tail.opcache_bytes, opcache.bytes() as f64);
    }

    finish_output(mem, tail, verified, &batch, out, window, meta, key)
}

/// A query's attribution window, opened before anything executes and
/// closed by [`finish_output`].
struct Window {
    /// When the *first* attempt started, so a degraded run's window
    /// includes the time burnt on the failed RM path.
    t0: fabric_sim::Cycles,
    /// Every core's counters at `t0`.
    before: Vec<MemStats>,
}

/// Build the per-operator records for the path that ran (`out.path`), in
/// the order [`split_path_cost`] lists its operators: estimates from that
/// split; invocations and rows from the stage totals; cycles and bytes
/// apportioned from the measured scan and merge phases (see
/// [`OpRecord`]). Uses the *last* non-failed scan phase of the path so a
/// degraded run attributes the fallback scan, not the faulted RM attempt.
fn build_op_records(
    mem: &MemoryHierarchy,
    entry: &TableEntry,
    verified: &VerifiedQuery,
    out: &QueryOutput,
    scanned: StageTotal,
    merged: StageTotal,
) -> Result<Vec<OpRecord>> {
    let ests = split_path_cost(
        mem.config(),
        &RmConfig::prototype(),
        entry,
        verified.bound(),
        out.path,
        &out.cost,
    )?;
    let last_phase = |name: &str| {
        let phase = out
            .profile
            .iter()
            .rev()
            .find(|p| p.name == name && !p.failed);
        phase.map_or((0, 0), |p| (p.cycles, p.bytes_read))
    };
    let (scan_cycles, scan_bytes) = last_phase(scan_span(out.path));
    let merge_phase = last_phase("query::stage::merge");

    // Apportion the scan phase's cycles by estimate share over stage 0
    // (every operator but the trailing merge); the operators after the
    // scan floor, the scan absorbs the integer remainder so the stage-0
    // actuals sum to the measured phase exactly.
    let stage0 = &ests[..ests.len().saturating_sub(1)];
    let wsum: f64 = stage0.iter().map(|e| e.ns).sum();
    let share = |ns: f64| {
        if wsum > 0.0 {
            (scan_cycles as f64 * (ns / wsum)) as u64
        } else {
            0
        }
    };
    let attributed: u64 = stage0.iter().skip(1).map(|e| share(e.ns)).sum();
    // The scan passes every row on, the filter keeps `rows_out` of them,
    // and the consumer is fed only those.
    let scan = StageTotal {
        rows_out: scanned.rows_in,
        ..scanned
    };
    let consume = StageTotal {
        rows_in: scanned.rows_out,
        ..scanned
    };
    let records = ests.iter().enumerate().map(|(i, e)| {
        let ((actual_cycles, actual_bytes), stage) = match (i, e.op) {
            (0, _) => ((scan_cycles.saturating_sub(attributed), scan_bytes), scan),
            (_, "merge") => (merge_phase, merged),
            (_, "filter") => ((share(e.ns), 0), scanned),
            _ => ((share(e.ns), 0), consume),
        };
        OpRecord {
            op: e.op,
            est_ns: e.ns,
            est_bytes: e.bytes,
            actual_cycles,
            actual_bytes,
            rows_in: stage.rows_in,
            rows_out: stage.rows_out,
            invocations: stage.passes,
        }
    });
    Ok(records.collect())
}

/// Stage 0 of the pipeline: run `out.path`'s fused morsel kernels on a
/// [`QueryExecutor`], every RM delivery under `ctx`'s fault plan: retried
/// under its policy, and degraded onto a software path once the budget
/// is exhausted (or skipped when the RM breaker is open). Returns the
/// per-morsel partials and the stage's total; records into `out` the scan
/// phases, the path that actually produced the partials, device stats
/// when the RM path ran, and the original path when the query degraded.
fn run_scan<'v>(
    mem: &mut MemoryHierarchy,
    entry: &TableEntry,
    verified: &'v VerifiedQuery,
    ctx: &mut FaultContext,
    out: &mut QueryOutput,
    scratch: &mut Scratchpad,
) -> Result<Stage0<'v>> {
    let software = |m: &mut MemoryHierarchy,
                    p: &mut Vec<PhaseProfile>,
                    s: &mut Scratchpad,
                    fb: AccessPath|
     -> Result<Stage0<'v>> {
        let ex = QueryExecutor::new(verified, fb);
        profiled(m, scan_span(fb), p, |m| ex.run_stage0(m, entry, s))
    };
    if out.path != AccessPath::Rm {
        return software(mem, &mut out.profile, scratch, out.path);
    }
    if !ctx.rm_health.allow() {
        // Breaker open: don't even try the device; fail fast onto
        // software.
        ctx.breaker_skips += 1;
        mem.trace_instant("query.breaker_skip", Category::Fault, &[]);
        // The skip must be visible in every MetricsSnapshot, not
        // only in the context counters (it was silently dropped
        // before this landed in the registry).
        mem.metrics_mut().counter_add("query.breaker_skips", 1);
        mem.flight_dump("breaker-open");
        out.path = fallback_path(&out.cost);
        out.degraded_from = Some(AccessPath::Rm);
        return software(mem, &mut out.profile, scratch, out.path);
    }

    // The RM stage reports device stats even when it fails: they leave
    // the profiled phase beside its result.
    let ex = QueryExecutor::new(verified, AccessPath::Rm);
    let mut stats = RmStats::default();
    let res = profiled(mem, scan_span(AccessPath::Rm), &mut out.profile, |m| {
        let (res, device) = ex.run_stage0_rm(m, scratch, ctx);
        stats = device;
        res
    });
    out.rm_stats = Some(stats);

    match res {
        Ok(stage0) => {
            ctx.rm_health.record_success();
            Ok(stage0)
        }
        Err(e) if degradable(&e) => {
            // The device is misbehaving past its retry budget:
            // re-plan onto software. The wasted RM time is real
            // and stays inside the query's window.
            ctx.rm_health.record_failure();
            ctx.fallbacks += 1;
            let fb = fallback_path(&out.cost);
            mem.trace_instant(
                "query.degraded",
                Category::Fault,
                &[("to_col", u64::from(fb == AccessPath::Col))],
            );
            mem.flight_dump("degraded");
            out.path = fb;
            out.degraded_from = Some(AccessPath::Rm);
            software(mem, &mut out.profile, scratch, fb)
        }
        Err(e) => Err(e),
    }
}

/// |est − actual| relative to `base`, as a fraction (0.0 when `base` is
/// not positive). The calibration ledger grades an observation against
/// its estimate (`base = est`: nothing to be wrong about without one);
/// `EXPLAIN ANALYZE` grades the estimate against what was measured.
pub(crate) fn rel_err(est: f64, actual: f64, base: f64) -> f64 {
    if base > 0.0 {
        (actual - est).abs() / base
    } else {
        0.0
    }
}

/// Shared tail of every execution: ORDER BY / LIMIT post-processing,
/// the per-core attribution records, metrics accounting, query-log /
/// calibration recording, and output assembly. Closes the `query::exec`
/// span and the attribution `window` its caller opened.
#[allow(clippy::too_many_arguments)]
fn finish_output(
    mem: &mut MemoryHierarchy,
    tail: &TailMetrics,
    verified: &VerifiedQuery,
    batch: &ResultBatch,
    mut out: QueryOutput,
    window: Window,
    meta: RecordMeta,
    sig: u128,
) -> Result<QueryOutput> {
    let bound = verified.bound();
    // The client-boundary form is built here, once, and only for the rows
    // the query returns.
    let order = if bound.order_by.is_empty() {
        None
    } else {
        let order = profiled(mem, "query::post::sort", &mut out.profile, |m| {
            order_rows(m, batch, &bound.order_by, bound.limit)
        });
        Some(order.or_else(|e| fail_exec(mem, e))?)
    };
    let returned = order.as_deref().map_or(
        Returned::First(bound.limit.unwrap_or(usize::MAX)),
        Returned::Ordered,
    );
    out.rows = batch.rows(returned).or_else(|e| fail_exec(mem, e))?;
    // Close the attribution window: align every core to the frontier, then
    // the per-core busy deltas plus barrier idle add up to `total` each.
    let total = mem.join_clocks() - window.t0;
    out.cores = window
        .before
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let d = mem.core_stats(i).delta_since(b);
            d.attribution(i, total.saturating_sub(d.busy_cycles()))
        })
        .collect();
    // Hard invariant (DESIGN.md §12): the top-down buckets partition each
    // core's elapsed cycles exactly. A violation means a charge site in
    // the hierarchy leaked cycles past the sub-bucket accounting.
    if let Err(why) = out.cores.iter().try_for_each(CoreAttribution::verify) {
        return fail_exec(
            mem,
            FabricError::Internal(format!("top-down accounting does not reconcile: {why}")),
        );
    }
    mem.trace_end(
        "query::exec",
        Category::Query,
        &[
            ("rows", out.rows.len() as u64),
            ("cycles", total),
            ("degraded", u64::from(out.degraded_from.is_some())),
        ],
    );
    let path_str = path_tag(out.path);
    tail.record_execution(mem.metrics_mut(), &out, total);

    // --- Query log + calibration ledger (host-side: no simulated time) ---
    let est_ns = out.cost.ns(out.path).unwrap_or(0.0);
    let est_bytes = out.cost.bytes(out.path).unwrap_or(0.0);
    out.ns = mem.ns_since(window.t0);
    let actual_bytes: u64 = out.cores.iter().map(|a| a.bytes_read).sum();
    let faults_injected = out.rm_stats.as_ref().map_or(0, |s| s.injected_faults);
    let record = fabric_sim::QueryRecord {
        seq: 0, // assigned by the log on push
        plan_sig: sig,
        class: bound.class(),
        session: meta.session,
        path: path_str,
        est_ns,
        actual_cycles: total,
        est_bytes,
        actual_bytes,
        rows_out: out.rows.len() as u64,
        cache_hit: out.cache_hit,
        degraded_from: out.degraded_from.map(path_tag),
        recovered_tables: meta.recovered_tables,
        faults_injected,
        ops: out.ops.clone(),
        topdown: TopDownSummary::of(&out.cores),
    };
    mem.querylog_mut().push(record);
    mem.metrics_mut().counter_add_id(tail.querylog_records, 1);

    // Calibrate the cost model on clean cold runs only: hits measure the
    // cache, not the path; degraded/faulted runs measure the fault story.
    if !out.cache_hit && out.degraded_from.is_none() && faults_injected == 0 {
        let key = format!(
            "{}/{:08x}/{}",
            bound.table,
            opcache::geometry_signature(verified.geometry().geometry()) >> 96,
            path_str
        );
        mem.calib_mut().observe(
            &key,
            rel_err(est_ns, out.ns, est_ns),
            rel_err(est_bytes, actual_bytes as f64, est_bytes),
        );
        mem.metrics_mut().counter_add_id(tail.calib_observations, 1);
    }

    Ok(out)
}

/// Is this an RM delivery fault the executor may transparently absorb by
/// re-planning? Anything else (plan errors, type errors) must propagate.
fn degradable(e: &FabricError) -> bool {
    matches!(
        e,
        FabricError::DeviceTimeout { .. } | FabricError::CorruptBatch { .. }
    )
}

/// The software path a faulted RM query re-plans onto: COL when a
/// columnar copy exists (it was priced, so `col_ns` is `Some`), else ROW.
fn fallback_path(cost: &PathCost) -> AccessPath {
    if cost.col_ns.is_some() {
        AccessPath::Col
    } else {
        AccessPath::Row
    }
}

/// The rows `ORDER BY keys [LIMIT limit]` returns, as row numbers of
/// `batch` in output order, charging the comparisons: every row against a
/// working set of `min(n, limit)` rows — `n·log n` for a full sort,
/// `n·log k` for a top-k.
fn order_rows(
    mem: &mut MemoryHierarchy,
    batch: &ResultBatch,
    keys: &[(usize, bool)],
    limit: Option<usize>,
) -> Result<Vec<u32>> {
    let costs = mem.costs();
    let n = batch.len() as u64;
    if n > 1 {
        let kept = limit.map_or(n, |k| n.min(k as u64));
        let comparisons = n * u64::from(u64::BITS - kept.leading_zeros());
        mem.cpu(comparisons * (costs.value_op * keys.len() as u64 + costs.branch_miss / 2));
    }
    batch.order(keys, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind, BoundQuery};
    use crate::catalog::Catalog;
    use crate::cost::choose_path_parallel;
    use crate::engine::prepare_plan;
    use crate::parser::parse;
    use crate::Engine;
    use colstore::ColTable;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema};
    use rowstore::RowTable;

    /// 200 rows: id i64, grp char(1) A/B, qty f64 = id, d date = id.
    fn setup() -> Engine {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let mem = engine.mem();
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
            ("d", ColumnType::Date),
        ]);
        let mut rt = RowTable::create(mem, schema.clone(), 256).unwrap();
        let mut ct = ColTable::create(mem, schema, 256).unwrap();
        for i in 0..200i64 {
            let row = vec![
                Value::I64(i),
                Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
                Value::F64(i as f64),
                Value::Date(i as u32),
            ];
            rt.load(mem, &row).unwrap();
            ct.load(mem, &row).unwrap();
        }
        engine.register("t", rt, ct);
        engine
    }

    fn bound(engine: &Engine, sql: &str) -> BoundQuery {
        bind(engine.catalog(), &parse(sql).unwrap()).unwrap()
    }

    fn all_paths(engine: &mut Engine, sql: &str) -> Vec<QueryOutput> {
        let bound = bound(engine, sql);
        let mut s = engine.session();
        [AccessPath::Row, AccessPath::Col, AccessPath::Rm]
            .into_iter()
            .map(|p| s.run_bound_on(&bound, p).unwrap())
            .collect()
    }

    #[test]
    fn projection_identical_on_all_paths() {
        let mut engine = setup();
        let outs = all_paths(&mut engine, "SELECT id, qty * 2 FROM t WHERE id < 5");
        for o in &outs {
            assert_eq!(o.rows.len(), 5);
            assert_eq!(o.rows[3], vec![Value::I64(3), Value::F64(6.0)]);
        }
        assert_eq!(outs[0].rows, outs[1].rows);
        assert_eq!(outs[0].rows, outs[2].rows);
    }

    #[test]
    fn grouped_aggregation_identical_on_all_paths() {
        let mut engine = setup();
        let outs = all_paths(
            &mut engine,
            "SELECT grp, count(*), sum(qty), avg(qty) FROM t WHERE id < 100 GROUP BY grp",
        );
        for o in &outs {
            assert_eq!(o.rows.len(), 2);
            // Group A: even ids 0..100 -> 50 rows, sum 2450.
            assert_eq!(o.rows[0][0], Value::Str("A".into()));
            assert_eq!(o.rows[0][1], Value::I64(50));
            assert_eq!(o.rows[0][2], Value::F64(2450.0));
            assert_eq!(o.rows[0][3], Value::F64(49.0));
        }
        assert_eq!(outs[0].rows, outs[1].rows);
        assert_eq!(outs[0].rows, outs[2].rows);
    }

    #[test]
    fn scalar_aggregates_and_date_predicates() {
        let mut engine = setup();
        let outs = all_paths(
            &mut engine,
            "SELECT min(qty), max(qty), count(*) FROM t WHERE d >= 50 AND d < 60",
        );
        for o in &outs {
            assert_eq!(
                o.rows,
                vec![vec![Value::F64(50.0), Value::F64(59.0), Value::I64(10)]]
            );
        }
    }

    #[test]
    fn optimizer_path_runs_and_reports() {
        let mut engine = setup();
        let out = engine.session().run("SELECT sum(qty) FROM t").unwrap();
        assert_eq!(out.rows[0][0], Value::F64((0..200).map(|i| i as f64).sum()));
        assert!(out.ns > 0.0);
        assert!(out.cost.rm_ns > 0.0);
    }

    #[test]
    fn col_path_unavailable_without_columnar_copy() {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("x", ColumnType::I64)]);
        let mut rt = RowTable::create(engine.mem(), schema, 4).unwrap();
        rt.load(engine.mem(), &[Value::I64(1)]).unwrap();
        engine.register_rows("u", rt);
        let bound = bound(&engine, "SELECT x FROM u");
        let mut s = engine.session();
        assert!(s.run_bound_on(&bound, AccessPath::Col).is_err());
        // But Row and Rm work fine.
        let out = s.run_bound_on(&bound, AccessPath::Rm).unwrap();
        assert_eq!(out.rows, vec![vec![Value::I64(1)]]);
    }

    #[test]
    fn empty_result_sets() {
        let mut engine = setup();
        let outs = all_paths(&mut engine, "SELECT id FROM t WHERE id < 0");
        for o in &outs {
            assert!(o.rows.is_empty());
        }
        let outs = all_paths(&mut engine, "SELECT count(*) FROM t WHERE id < 0");
        for o in &outs {
            assert_eq!(o.rows, vec![vec![Value::I64(0)]]);
        }
    }

    #[test]
    fn order_by_and_limit_apply_on_every_path() {
        let mut engine = setup();
        let outs = all_paths(
            &mut engine,
            "SELECT id, qty FROM t WHERE id < 20 ORDER BY qty DESC LIMIT 3",
        );
        for o in &outs {
            assert_eq!(o.rows.len(), 3);
            assert_eq!(o.rows[0][0], Value::I64(19));
            assert_eq!(o.rows[2][0], Value::I64(17));
        }
        // ORDER BY position and grouped output.
        let outs = all_paths(
            &mut engine,
            "SELECT grp, sum(qty) FROM t GROUP BY grp ORDER BY 2 DESC LIMIT 1",
        );
        for o in &outs {
            assert_eq!(o.rows.len(), 1);
            assert_eq!(o.rows[0][0], Value::Str("B".into())); // odd ids sum higher
        }
    }

    #[test]
    fn order_by_validation_errors() {
        let engine = setup();
        let c = engine.catalog();
        assert!(bind(c, &parse("SELECT id FROM t ORDER BY 2").unwrap()).is_err());
        assert!(bind(c, &parse("SELECT id FROM t ORDER BY qty").unwrap()).is_err());
        assert!(bind(c, &parse("SELECT id, qty FROM t ORDER BY qty").unwrap()).is_ok());
    }

    /// A fixture the optimizer always routes to RM: a wide (16 × i64)
    /// rows-only table where the packed projection is far cheaper than a
    /// full-row software scan. c_j(i) = i*16 + j.
    fn wide_rows(mem: &mut MemoryHierarchy, rows: usize) -> RowTable {
        let pairs: Vec<(String, ColumnType)> = (0..16)
            .map(|i| (format!("c{i}"), ColumnType::I64))
            .collect();
        let pr: Vec<(&str, ColumnType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let schema = Schema::from_pairs(&pr);
        let mut rt = RowTable::create(mem, schema, rows).unwrap();
        for i in 0..rows as i64 {
            let row: Vec<Value> = (0..16).map(|j| Value::I64(i * 16 + j)).collect();
            rt.load(mem, &row).unwrap();
        }
        rt
    }

    fn rm_setup(rows: usize) -> Engine {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let rt = wide_rows(engine.mem(), rows);
        engine.register_rows("t", rt);
        engine
    }

    /// Every RM delivery times out: the attempt must exhaust its budget.
    fn dead_device() -> FaultContext {
        let cfg = FaultConfig {
            rm_timeout_prob: 1.0,
            ..FaultConfig::quiet(9)
        };
        FaultContext::new(cfg, RecoveryPolicy::default())
    }

    const RM_SQL: &str = "SELECT c0, c5 FROM t WHERE c0 < 800";

    #[test]
    fn a_quiet_fault_context_changes_no_answer() {
        let mut engine = setup();
        let b = bound(&engine, "SELECT id, qty FROM t WHERE id < 50");
        let out = engine.session().run_bound(&b).unwrap();
        let expected: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::I64(i), Value::F64(i as f64)])
            .collect();
        assert_eq!(out.rows, expected);
        assert_eq!(out.degraded_from, None);
        assert_eq!(engine.fault_context().fallbacks, 0);

        // And on an RM-routed plan, quiet faults deliver on the RM path
        // with its stats attached.
        let mut engine = rm_setup(1000);
        let b = bound(&engine, RM_SQL);
        let out = engine.session().run_bound(&b).unwrap();
        assert_eq!(out.path, AccessPath::Rm);
        assert_eq!(out.degraded_from, None);
        let stats = out.rm_stats.expect("RM run must report device stats");
        assert_eq!(stats.rows_scanned, 1000);
        assert_eq!(stats.injected_faults, 0);

        // `EXPLAIN ANALYZE`'s measurement run returns the same rows.
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut c = Catalog::new();
        c.register_rows("t", wide_rows(&mut mem, 1000));
        let (verified, cost, key) = prepare_plan(&mem, &c, &b).unwrap();
        let measured = execute_uncached(
            &mut mem,
            &mut QueryMetrics::default(),
            c.get("t").unwrap(),
            &verified,
            AccessPath::Rm,
            cost,
            opcache::keyed(key, AccessPath::Rm),
        )
        .unwrap();
        assert_eq!(measured.rows, out.rows);
    }

    #[test]
    fn rm_fault_past_budget_degrades_transparently() {
        let mut engine = rm_setup(1000);
        let b = bound(&engine, RM_SQL);
        let expected = engine.session().run_bound_on(&b, AccessPath::Row).unwrap();
        engine.set_fault_context(dead_device());
        let out = engine.session().run_bound(&b).unwrap();
        assert_eq!(out.degraded_from, Some(AccessPath::Rm));
        assert_eq!(out.path, AccessPath::Row, "no col copy: fallback is Row");
        assert_eq!(engine.fault_context().fallbacks, 1);
        let stats = out.rm_stats.expect("failed attempt stats must survive");
        assert!(stats.delivery_timeouts > 0);
        assert!(stats.injected_faults > 0);
        assert_eq!(out.rows, expected.rows, "degraded answer must be identical");
        assert!(out.ns > expected.ns, "ns must include the wasted RM time");
    }

    #[test]
    fn breaker_opens_after_repeated_rm_failures_and_skips_the_device() {
        let mut engine = rm_setup(1000);
        let b = bound(&engine, RM_SQL);
        let expected = engine.session().run_bound_on(&b, AccessPath::Row).unwrap();
        engine.set_fault_context(dead_device());
        let policy = RecoveryPolicy::default();
        for _ in 0..policy.breaker_threshold + 2 {
            let out = engine.session().run_bound(&b).unwrap();
            assert_eq!(out.rows, expected.rows);
            assert_eq!(out.degraded_from, Some(AccessPath::Rm));
        }
        let ctx = engine.fault_context();
        assert_eq!(ctx.fallbacks, policy.breaker_threshold as u64);
        assert_eq!(
            ctx.breaker_skips, 2,
            "once open, the device is not even tried"
        );
        assert_eq!(ctx.rm_health().trips, 1);
    }

    #[test]
    fn non_rm_plans_ignore_the_fault_context() {
        let mut engine = setup();
        let b = bound(&engine, "SELECT id FROM t WHERE id < 3");
        let (path, _) = choose_path_parallel(
            engine.mem_ref().config(),
            &RmConfig::prototype(),
            engine.catalog().get("t").unwrap(),
            &b,
            1,
        )
        .unwrap();
        assert_ne!(path, AccessPath::Rm, "fixture must route to software");
        engine.set_fault_context(FaultContext::new(
            FaultConfig::uniform(4, 1.0),
            RecoveryPolicy::default(),
        ));
        let out = engine.session().run_bound(&b).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(engine.fault_context().fallbacks, 0);
        assert_eq!(engine.fault_context().plan.stats().total(), 0);
    }

    #[test]
    fn profile_records_scan_merge_and_sort_phases() {
        let mut engine = setup();
        let b = bound(&engine, "SELECT id FROM t WHERE id < 20 ORDER BY 1 DESC");
        let out = engine.session().run_bound_on(&b, AccessPath::Row).unwrap();
        let names: Vec<&str> = out.profile.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "query::scan::row",
                "query::stage::merge",
                "query::post::sort"
            ]
        );
        assert!(out.profile[0].cycles > 0);
        assert!(out.profile[0].bytes_read > 0);
        assert!(!out.profile[0].failed);
        // The merge and sort phases moved no hierarchy bytes (host-side).
        assert_eq!(out.profile[1].bytes_read, 0);
        assert_eq!(out.profile[2].bytes_read, 0);
        // Metrics accounted the run; the per-operator actuals live in its
        // one record.
        let metrics = engine.mem_ref().metrics();
        assert_eq!(metrics.counter("query.executions"), 1);
        assert_eq!(metrics.counter("query.path.row"), 1);
        assert_eq!(metrics.counter("query.rows_out"), 20);
        let ops: Vec<_> = out
            .ops
            .iter()
            .map(|o| (o.op, o.invocations, o.rows_in, o.rows_out))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("scan_row", 1, 200, 200),
                ("filter", 1, 200, 20),
                ("project", 1, 20, 20),
                ("merge", 1, 20, 20),
            ]
        );
        assert_eq!(engine.querylog().records().last().unwrap().ops, out.ops);
    }

    #[test]
    fn traced_query_emits_balanced_spans_even_when_degrading() {
        let mut engine = rm_setup(1000);
        engine.mem().trace_to(4096);
        let b = bound(&engine, RM_SQL);
        engine.set_fault_context(dead_device());
        let out = engine.session().run_bound(&b).unwrap();
        assert_eq!(out.degraded_from, Some(AccessPath::Rm));
        // The failed RM attempt stays in the profile, marked failed,
        // followed by the software fallback scan.
        let rm_phase = out
            .profile
            .iter()
            .find(|p| p.name == "query::scan::rm")
            .expect("failed RM attempt must be profiled");
        assert!(rm_phase.failed);
        let fb_phase = out
            .profile
            .iter()
            .find(|p| p.name == "query::scan::row")
            .expect("fallback scan must be profiled");
        assert!(!fb_phase.failed);
        let mem = engine.mem_ref();
        assert_eq!(mem.metrics().counter("query.degraded"), 1);
        // Every begin has a matching end — the validator checks balance.
        let json = mem.export_trace().expect("trace installed");
        let summary = fabric_sim::validate_chrome_trace(&json).expect("trace must validate");
        assert!(summary.begins > 0 && summary.begins == summary.ends);
        assert!(summary.instants > 0, "degrade instant must be present");
    }

    #[test]
    fn string_equality_predicates() {
        let mut engine = setup();
        let outs = all_paths(&mut engine, "SELECT count(*) FROM t WHERE grp = 'B'");
        for o in &outs {
            assert_eq!(o.rows, vec![vec![Value::I64(100)]]);
        }
    }

    #[test]
    fn keyed_cache_hits_replay_without_hierarchy_traffic() {
        let mut engine = setup();
        let mut s = engine.session();
        let plan = s.prepare("SELECT id, qty FROM t WHERE id < 7").unwrap();
        let cold = s.execute(&plan).unwrap();
        let warm = s.execute(&plan).unwrap();
        assert_eq!(engine.op_cache().stats(), (1, 1));
        assert_eq!(engine.op_cache().insertions(), 1);
        assert!(!cold.cache_hit && warm.cache_hit);
        assert_eq!(warm.rows, cold.rows, "hit must be bit-identical");
        assert_eq!(warm.path, cold.path);
        // The hit replayed from host memory: zero hierarchy traffic, zero
        // stall, but a nonzero CPU probe charge so latency stays observable.
        let names: Vec<&str> = warm.profile.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["query::opcache::hit"]);
        assert_eq!(warm.profile[0].bytes_read, 0);
        assert_eq!(warm.profile[0].stall_cycles, 0);
        assert!(warm.profile[0].cycles > 0);
        let total_bytes: u64 = warm.cores.iter().map(|a| a.bytes_read).sum();
        assert_eq!(total_bytes, 0, "cache hits never touch the hierarchy");
        assert!(warm.ns < cold.ns, "hit must be cheaper than the cold run");
        let metrics = engine.mem_ref().metrics();
        assert_eq!(metrics.counter("query.opcache.hits"), 1);
        assert_eq!(metrics.counter("query.opcache.misses"), 1);
        assert_eq!(metrics.counter("query.opcache.insertions"), 1);
    }

    /// A hit replays the batch and nothing else: the device did not run,
    /// so the `query.rm.*` counters the cold run filled stay where it
    /// left them.
    #[test]
    fn a_warm_rm_hit_counts_no_device_work() {
        let mut engine = rm_setup(1000);
        let mut s = engine.session();
        let plan = s.prepare(RM_SQL).unwrap();
        let cold = s.execute_on(&plan, AccessPath::Rm).unwrap();
        let after_cold = engine.mem_ref().metrics().snapshot().subtree("query.rm");
        let mut s = engine.session();
        let warm = s.execute_on(&plan, AccessPath::Rm).unwrap();
        assert!(!cold.cache_hit && warm.cache_hit);
        assert!(cold.rm_stats.is_some() && warm.rm_stats.is_none());
        assert_eq!((warm.path, warm.rows), (cold.path, cold.rows));
        let after_warm = engine.mem_ref().metrics().snapshot().subtree("query.rm");
        assert!(
            after_cold.counter("rows_scanned") > 0,
            "the cold run counted"
        );
        assert_eq!(after_warm.counters, after_cold.counters);
    }

    #[test]
    fn cache_hit_still_applies_sort_and_limit() {
        let mut engine = setup();
        let mut s = engine.session();
        // Same plan shape, different ORDER BY/LIMIT: both map to one cache
        // entry, and the hit re-applies its own post-processing.
        let plain = s.prepare("SELECT id FROM t WHERE id < 10").unwrap();
        let sorted = s
            .prepare("SELECT id FROM t WHERE id < 10 ORDER BY 1 DESC LIMIT 3")
            .unwrap();
        assert_eq!(
            plain.cache_key(plain.path()),
            sorted.cache_key(plain.path()),
            "post-processing is excluded from the signature"
        );
        for (plan, expect_first, expect_len) in
            [(&plain, Value::I64(0), 10), (&sorted, Value::I64(9), 3)]
        {
            let out = s.execute_on(plan, plain.path()).unwrap();
            assert_eq!(out.rows.len(), expect_len);
            assert_eq!(out.rows[0][0], expect_first);
        }
        assert_eq!(
            engine.op_cache().stats(),
            (1, 1),
            "second plan shape hit the entry"
        );
    }

    /// Not reachable through a session, which never keys an armed RM run:
    /// the pipeline itself must refuse to memoize an answer it degraded.
    #[test]
    fn degraded_runs_are_never_cached() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut c = Catalog::new();
        c.register_rows("t", wide_rows(&mut mem, 1000));
        let bound = bind(&c, &parse(RM_SQL).unwrap()).unwrap();
        let (verified, cost, key) = prepare_plan(&mem, &c, &bound).unwrap();
        let path = cost.best();
        assert_eq!(path, AccessPath::Rm);
        let mut ctx = dead_device();
        let mut cacheobj = OpCache::default();
        let mut metrics = QueryMetrics::default();
        let tail = metrics.on(&mut mem);
        let out = run_verified(
            &mut mem,
            tail,
            c.get("t").unwrap(),
            &verified,
            path,
            cost,
            &mut ctx,
            Some(&mut cacheobj),
            opcache::keyed(key, path),
            &mut Scratchpad::new(),
            RecordMeta::default(),
        )
        .unwrap();
        assert_eq!(out.degraded_from, Some(AccessPath::Rm));
        assert_eq!(
            cacheobj.insertions(),
            0,
            "degraded output must be re-earned"
        );
        assert!(cacheobj.is_empty());
    }
}
