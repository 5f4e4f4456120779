//! Staged plan execution over the three access paths.
//!
//! All paths share one consumption stage (expression evaluation or grouped
//! aggregation over slot tuples), so a query returns identical rows no
//! matter which path the optimizer picked — the paper's "one execution
//! engine" property (§III-B): the engine always assumes only relevant data
//! arrives.
//!
//! Execution is **staged and morsel-driven** (DESIGN.md §16). A verified
//! plan lowers to a small operator DAG ([`operators`]); its streamable
//! operators fuse into stage 0, which a [`QueryExecutor`] drives as one
//! vectorized kernel pass per morsel ([`MORSEL_ROWS`] rows for ROW/COL,
//! one delivered batch for RM), scheduling each morsel onto the
//! earliest-free simulated core (ties to the lowest core id — fully
//! deterministic). Each morsel feeds a private partial consumer; the
//! pipeline-breaking merge is stage 1, its own profiled phase on core 0,
//! folding the partials *in morsel order* so the result is bit-identical
//! for every core count — a single core simply runs the morsels back to
//! back and the merge degenerates to concatenation in scan order.
//!
//! Stage buffers come from a per-session [`Scratchpad`] ([`buffer`]):
//! morsel-sized vectors are recycled across stages and queries, with
//! epoch-stamped tickets making aliasing a panic instead of a wrong
//! answer. Results travel as typed [`batch::ResultBatch`]es from the
//! consumers through the merge to the shared tail, which turns the rows it
//! returns — and only those — into [`QueryOutput::rows`]. The merged stage
//! output of a clean run is memoized in a signature-keyed [`OpCache`]
//! ([`opcache`]); a session re-running the same plan shape against the
//! same table shares the memoized batch without touching the hierarchy
//! again.

mod batch;
pub mod buffer;
mod executor;
pub mod opcache;
pub(crate) mod operators;

pub use buffer::{BufferKind, BufferRef, ChunkScratch, Scratchpad};
pub use executor::QueryExecutor;
pub(crate) use opcache::CacheSlot;
pub use opcache::OpCache;

use crate::analyze::{analyze, VerifiedQuery};
use crate::bind::BoundQuery;
use crate::catalog::{Catalog, TableEntry};
use crate::cost::{choose_path_parallel, split_path_cost, AccessPath, PathCost};
use fabric_sim::{
    Category, CircuitBreaker, FaultConfig, FaultPlan, MemStats, MemoryHierarchy, OpStats,
    RecoveryPolicy,
};
use fabric_types::{FabricError, Result, Value};
use relmem::{RmConfig, RmStats};
use std::rc::Rc;

use batch::ResultBatch;
use operators::{merge_partials, Consumer};

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

/// One simulated core's share of a query: where its cycles went and how
/// much data it pulled through the hierarchy. The books balance by
/// construction — `busy_cycles + idle_cycles` equals the query's
/// wall-clock cycles on every core, and `busy_cycles` is exactly
/// `cpu + stall + mem_lat` (the hierarchy attributes every clock advance
/// to one of the three).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAttribution {
    pub core: usize,
    /// Cycles this core spent working: `cpu + stall + mem_lat`.
    pub busy_cycles: u64,
    pub cpu_cycles: u64,
    pub stall_cycles: u64,
    pub mem_lat_cycles: u64,
    /// L1-service share of `mem_lat_cycles` (with `lat_l2_cycles` it
    /// partitions `mem_lat_cycles` exactly).
    pub lat_l1_cycles: u64,
    /// L2-service share of `mem_lat_cycles`.
    pub lat_l2_cycles: u64,
    /// Bandwidth-ledger share of `stall_cycles` (the four stall buckets
    /// partition `stall_cycles` exactly — see `MemStats`).
    pub stall_bw_cycles: u64,
    /// DRAM-data-wait share of `stall_cycles`.
    pub stall_dram_cycles: u64,
    /// Producer-device-wait share of `stall_cycles` (RM beat, SSD, bus).
    pub stall_device_cycles: u64,
    /// Fault-retry-backoff share of `stall_cycles`.
    pub stall_retry_cycles: u64,
    /// Payload bytes this core read through the hierarchy.
    pub bytes_read: u64,
    /// Cycles this core sat at barriers waiting for slower peers (or for
    /// the merge running on core 0).
    pub idle_cycles: u64,
}

/// Per-operator estimated and actual attribution for one DAG node of an
/// executed query — the rows of the EXPLAIN ANALYZE operator tree and of
/// the query log's `ops` array.
///
/// Estimates are the node's share of the path estimate
/// ([`split_path_cost`]); the shares sum to the path total bit-exactly.
/// Actuals apportion the measured scan phase: each stage-0 node gets
/// cycles proportional to its estimate share (the scan node absorbing
/// the integer remainder so the stage-0 cycles also sum exactly), the
/// scan node owns the phase's bytes, and the merge node carries its own
/// phase's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// Operator name as lowered (`scan_row`, `filter`, `aggregate`, ...).
    pub op: &'static str,
    /// Estimated nanoseconds attributed to this operator.
    pub est_ns: f64,
    /// Estimated bytes attributed to this operator.
    pub est_bytes: f64,
    /// Measured simulated cycles attributed to this operator.
    pub actual_cycles: u64,
    /// Measured bytes read attributed to this operator.
    pub actual_bytes: u64,
    /// Rows entering the operator.
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Operator body invocations (morsels, or merge folds).
    pub invocations: u64,
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

/// How the run interacted with the operator cache, for provenance in the
/// query log and the opcache metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// The entry point bypassed the cache (benches, EXPLAIN ANALYZE).
    Bypass,
    /// Probed and missed (and possibly filled).
    Miss,
    /// Replayed the memoized stage output.
    Hit,
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
    /// Per-core cycle/byte attribution for this query, one entry per
    /// simulated core (a single entry on a 1-core engine).
    pub cores: Vec<CoreAttribution>,
    /// Top-down cycle accounting for the query window (DESIGN.md §12):
    /// every core's elapsed cycles classified into retired / memory-bound
    /// / stall buckets. Verified (`buckets sum == elapsed`) before the
    /// output is returned, and exported into the metrics registry as
    /// `query.core<i>.td.*`.
    pub topdown: fabric_sim::TopDown,
    /// Per-operator estimate/actual attribution for the path that ran
    /// (empty on op-cache hits — no operator executed). Per-op estimates
    /// sum bit-exactly to `cost.ns(path)`.
    pub ops: Vec<OpReport>,
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

/// How the shared pipeline reacts to injected faults: `Plain` lets RM
/// delivery errors propagate to the caller; `Resilient` retries every
/// delivery under the context's policy and transparently degrades onto a
/// software path once the budget is exhausted (or skips the device when
/// its breaker is open). Resilience is a *policy wrapper* around one
/// pipeline — both variants run exactly the same stage-0/merge/post
/// stages.
pub(crate) enum Resilience<'f> {
    Plain,
    Resilient(&'f mut FaultContext),
}

/// Verify, price and run `bound` on `path` with no operator cache, no
/// fault context and a throw-away scratchpad: `EXPLAIN ANALYZE`'s
/// measurement run, which must observe the real hierarchy and must not
/// pay the resilient path's per-line CRC charge.
pub(crate) fn execute_uncached(
    mem: &mut MemoryHierarchy,
    catalog: &Catalog,
    bound: &BoundQuery,
    path: AccessPath,
) -> Result<QueryOutput> {
    let entry = catalog.get(&bound.table)?;
    let verified = analyze(entry, bound, &RmConfig::prototype())?;
    let (_, cost) = choose_path_parallel(
        mem.config(),
        &RmConfig::prototype(),
        entry,
        bound,
        mem.num_cores(),
    )?;
    run_verified(
        mem,
        entry,
        &verified,
        path,
        cost,
        Resilience::Plain,
        CacheSlot::None,
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

/// The one pipeline every entry point funnels into.
///
/// Probes the operator cache first: a hit replays the memoized
/// stage-0+merge output (pure CPU probe cost, zero hierarchy traffic) and
/// goes straight to the post-processing tail. A miss runs stage 0 on the
/// [`QueryExecutor`] for the chosen path (under the requested resilience
/// policy), merges the partials as its own profiled `query::stage::merge`
/// phase, memoizes clean results, and finishes through the shared tail.
/// Opens/closes the `query::exec` span and captures per-core attribution
/// across the whole run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_verified(
    mem: &mut MemoryHierarchy,
    entry: &TableEntry,
    verified: &VerifiedQuery<'_>,
    path: AccessPath,
    cost: PathCost,
    resilience: Resilience<'_>,
    mut cache: CacheSlot<'_>,
    scratch: &mut Scratchpad,
    meta: RecordMeta,
) -> Result<QueryOutput> {
    // New query, new buffer epoch: tickets minted by the previous query
    // are now invalid (see `buffer`).
    scratch.begin_query();
    // The plan signature recorded in the query log: the cache key when
    // the run is keyed, else the same signature computed locally (bypass
    // entry points still get stable provenance).
    let sig = match &cache {
        CacheSlot::Keyed(_, key) => *key,
        CacheSlot::None => opcache::keyed(
            opcache::plan_signature(
                verified.bound(),
                entry.rows.len(),
                &format!("{:?}", verified.geometry()),
            ),
            path,
        ),
    };
    // Align the cores so the attribution window has one common origin.
    let t0 = mem.fork_clocks();
    // Arm the flight recorder: a mid-query postmortem reports its metrics
    // delta relative to this point.
    mem.flight_arm();
    let before: Vec<MemStats> = (0..mem.num_cores()).map(|i| mem.core_stats(i)).collect();
    mem.trace_begin("query::exec", Category::Query);
    let mut profile = Vec::new();

    if let Some((batch, cached_path, cached_rm)) = cache.probe() {
        // Operator-cache hit: the memoized stage output stands in for
        // stage 0 and the merge. The only cost is the probe plus the
        // copy-out — pure CPU on core 0, zero hierarchy traffic.
        mem.set_active_core(0);
        let n = batch.len() as u64;
        let copied = profiled(mem, "query::opcache::hit", &mut profile, |m| {
            let costs = m.costs();
            m.cpu(costs.hash_op + costs.value_op * n);
            Ok(())
        });
        debug_assert!(copied.is_ok());
        mem.metrics_mut().counter_add("query.opcache.hits", 1);
        return finish_output(
            mem,
            verified,
            &batch,
            cached_path,
            cost,
            t0,
            cached_rm,
            None,
            profile,
            &before,
            RecordCtx {
                meta,
                sig,
                outcome: CacheOutcome::Hit,
                ops: Vec::new(),
            },
        );
    }
    let outcome = match &cache {
        CacheSlot::Keyed(..) => CacheOutcome::Miss,
        CacheSlot::None => CacheOutcome::Bypass,
    };

    let (partials, actuals, ran_path, rm_stats, degraded_from) = run_scan(
        mem,
        entry,
        verified,
        path,
        &cost,
        resilience,
        &mut profile,
        scratch,
    )
    .or_else(|e| fail_exec(mem, e))?;

    // Stage 1: the pipeline-breaking merge, profiled as its own phase on
    // core 0. Its per-operator actuals are recorded here — the driver owns
    // this stage, not the stage-0 executor.
    let bound = verified.bound();
    let merge_stats = OpStats {
        invocations: partials.len() as u64,
        rows_in: partials.iter().map(|p| p.partial_len() as u64).sum(),
        rows_out: 0,
    };
    let batch = profiled(mem, "query::stage::merge", &mut profile, |m| {
        merge_partials(m, bound, &verified.output_types()?, partials)
    })
    .map(Rc::new)
    .or_else(|e| fail_exec(mem, e))?;
    let merge_full = OpStats {
        rows_out: batch.len() as u64,
        ..merge_stats
    };
    merge_full.record_into(mem.metrics_mut(), "query.op", "merge");

    // Attribute estimates and measured cycles/bytes to the DAG nodes that
    // actually ran (the fallback executor's nodes when the run degraded).
    let ops = build_op_reports(
        mem,
        entry,
        verified,
        ran_path,
        &cost,
        &actuals,
        &profile,
        &merge_full,
    )
    .or_else(|e| fail_exec(mem, e))?;

    // Memoize the pre-sort/pre-limit stage output — clean runs only: a
    // degraded answer or a faulted RM attempt must be re-earned every
    // time so fault-path counters and breaker state stay truthful.
    if let CacheSlot::Keyed(opcache, key) = cache {
        mem.metrics_mut().counter_add("query.opcache.misses", 1);
        let clean =
            degraded_from.is_none() && rm_stats.as_ref().map_or(true, |s| s.injected_faults == 0);
        if clean {
            let evicted_before = opcache.evictions();
            opcache.insert(key, Rc::clone(&batch), ran_path, rm_stats);
            let metrics = mem.metrics_mut();
            metrics.counter_add("query.opcache.insertions", 1);
            metrics.counter_add(
                "query.opcache.evictions",
                opcache.evictions() - evicted_before,
            );
        }
        // Occupancy after this run, visible next to the hit/miss counters.
        let metrics = mem.metrics_mut();
        metrics.gauge_set("query.opcache.entries", opcache.len() as f64);
        metrics.gauge_set("query.opcache.bytes", opcache.bytes() as f64);
    }

    finish_output(
        mem,
        verified,
        &batch,
        ran_path,
        cost,
        t0,
        rm_stats,
        degraded_from,
        profile,
        &before,
        RecordCtx {
            meta,
            sig,
            outcome,
            ops,
        },
    )
}

/// Everything `finish_output` needs to record the run into the query log
/// and the calibration ledger, beyond the execution results themselves.
pub(crate) struct RecordCtx {
    pub meta: RecordMeta,
    /// Plan signature (see [`run_verified`]).
    pub sig: u128,
    pub outcome: CacheOutcome,
    /// Per-operator attribution (empty on cache hits).
    pub ops: Vec<OpReport>,
}

/// Build the per-operator reports for the path that ran: estimates from
/// [`split_path_cost`], actuals apportioned from the measured scan and
/// merge phases (see [`OpReport`]). Uses the *last* non-failed scan phase
/// of `ran_path` so a degraded run attributes the fallback scan, not the
/// faulted RM attempt.
#[allow(clippy::too_many_arguments)]
fn build_op_reports(
    mem: &MemoryHierarchy,
    entry: &TableEntry,
    verified: &VerifiedQuery<'_>,
    ran_path: AccessPath,
    cost: &PathCost,
    actuals: &[(&'static str, OpStats)],
    profile: &[PhaseProfile],
    merge: &OpStats,
) -> Result<Vec<OpReport>> {
    let ests = split_path_cost(
        mem.config(),
        &RmConfig::prototype(),
        entry,
        verified.bound(),
        ran_path,
        cost,
    )?;
    let scan_phase = profile
        .iter()
        .rev()
        .find(|p| p.name == scan_span(ran_path) && !p.failed);
    let merge_phase = profile
        .iter()
        .rev()
        .find(|p| p.name == "query::stage::merge" && !p.failed);
    let phase_cycles = scan_phase.map_or(0, |p| p.cycles);
    let phase_bytes = scan_phase.map_or(0, |p| p.bytes_read);

    // Apportion the scan phase's cycles by estimate share; non-scan nodes
    // floor, the scan node absorbs the integer remainder so the stage-0
    // actuals sum to the measured phase exactly.
    let stage0: Vec<&crate::cost::OpEstimate> = ests.iter().filter(|e| e.op != "merge").collect();
    let wsum: f64 = stage0.iter().map(|e| e.ns).sum();
    let mut attributed = 0u64;
    let mut cycles_for: Vec<(&'static str, u64)> = Vec::with_capacity(stage0.len());
    for e in stage0.iter().skip(1) {
        let share = if wsum > 0.0 {
            (phase_cycles as f64 * (e.ns / wsum)) as u64
        } else {
            0
        };
        attributed += share;
        cycles_for.push((e.op, share));
    }
    let stats_for = |op: &str| {
        actuals
            .iter()
            .find(|(n, _)| *n == op)
            .map_or(OpStats::default(), |(_, s)| *s)
    };
    let mut ops = Vec::with_capacity(ests.len());
    for e in &ests {
        let (actual_cycles, actual_bytes, stats) = if e.op == "merge" {
            (
                merge_phase.map_or(0, |p| p.cycles),
                merge_phase.map_or(0, |p| p.bytes_read),
                *merge,
            )
        } else if stage0.first().is_some_and(|f| std::ptr::eq(e, *f)) {
            (
                phase_cycles.saturating_sub(attributed),
                phase_bytes,
                stats_for(e.op),
            )
        } else {
            let c = cycles_for
                .iter()
                .find(|(n, _)| *n == e.op)
                .map_or(0, |(_, c)| *c);
            (c, 0, stats_for(e.op))
        };
        ops.push(OpReport {
            op: e.op,
            est_ns: e.ns,
            est_bytes: e.bytes,
            actual_cycles,
            actual_bytes,
            rows_in: stats.rows_in,
            rows_out: stats.rows_out,
            invocations: stats.invocations,
        });
    }
    Ok(ops)
}

/// Stage 0 of the pipeline: run the chosen path's fused morsel kernels on
/// a [`QueryExecutor`], applying the resilience policy around RM
/// delivery. Returns the per-morsel partials, the path that actually
/// produced them, device stats when the RM path ran, and the original
/// path when the query degraded.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn run_scan<'v>(
    mem: &mut MemoryHierarchy,
    entry: &TableEntry,
    verified: &'v VerifiedQuery<'v>,
    path: AccessPath,
    cost: &PathCost,
    resilience: Resilience<'_>,
    profile: &mut Vec<PhaseProfile>,
    scratch: &mut Scratchpad,
) -> Result<(
    Vec<Consumer<'v>>,
    Vec<(&'static str, OpStats)>,
    AccessPath,
    Option<RmStats>,
    Option<AccessPath>,
)> {
    let software = |m: &mut MemoryHierarchy,
                    p: &mut Vec<PhaseProfile>,
                    s: &mut Scratchpad,
                    fb: AccessPath|
     -> Result<(Vec<Consumer<'v>>, Vec<(&'static str, OpStats)>)> {
        let mut ex = QueryExecutor::new(verified, fb);
        let res = profiled(m, scan_span(fb), p, |m| ex.run_stage0(m, entry, s));
        ex.record_metrics(m.metrics_mut());
        res.map(|partials| (partials, ex.op_actuals()))
    };
    match (path, resilience) {
        (AccessPath::Row | AccessPath::Col, _) => software(mem, profile, scratch, path)
            .map(|(partials, actuals)| (partials, actuals, path, None, None)),
        (AccessPath::Rm, Resilience::Plain) => {
            let mut ex = QueryExecutor::new(verified, AccessPath::Rm);
            let res = profiled(mem, scan_span(path), profile, |m| {
                ex.run_stage0_rm(m, scratch)
            });
            ex.record_metrics(mem.metrics_mut());
            let actuals = ex.op_actuals();
            res.map(|(partials, stats)| (partials, actuals, path, Some(stats), None))
        }
        (AccessPath::Rm, Resilience::Resilient(ctx)) => {
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
                let fb = fallback_path(cost);
                let (partials, actuals) = software(mem, profile, scratch, fb)?;
                return Ok((partials, actuals, fb, None, Some(AccessPath::Rm)));
            }

            // The resilient RM stage reports device stats even when it
            // fails: they leave the profiled phase beside its result.
            let mut ex = QueryExecutor::new(verified, AccessPath::Rm);
            let mut stats = RmStats::default();
            let res = profiled(mem, scan_span(AccessPath::Rm), profile, |m| {
                let (res, device) = ex.run_stage0_rm_resilient(m, scratch, ctx);
                stats = device;
                res
            });
            ex.record_metrics(mem.metrics_mut());

            match res {
                Ok(partials) => {
                    ctx.rm_health.record_success();
                    Ok((partials, ex.op_actuals(), AccessPath::Rm, Some(stats), None))
                }
                Err(e) if degradable(&e) => {
                    // The device is misbehaving past its retry budget:
                    // re-plan onto software. The wasted RM time is real
                    // and stays inside the query's window.
                    ctx.rm_health.record_failure();
                    ctx.fallbacks += 1;
                    let fb = fallback_path(cost);
                    mem.trace_instant(
                        "query.degraded",
                        Category::Fault,
                        &[("to_col", u64::from(fb == AccessPath::Col))],
                    );
                    mem.flight_dump("degraded");
                    let (partials, actuals) = software(mem, profile, scratch, fb)?;
                    Ok((partials, actuals, fb, Some(stats), Some(AccessPath::Rm)))
                }
                Err(e) => Err(e),
            }
        }
    }
}

/// Short stable tag for a verified geometry, used in calibration ledger
/// keys (the full Debug form is too long for a metric name): FNV-1a over
/// the Debug rendering, folded to 8 hex digits.
fn geometry_tag(geometry: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in geometry.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{:08x}", (h as u32) ^ ((h >> 32) as u32))
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
/// metrics accounting, query-log / calibration recording, and output
/// assembly. `t0` is when the *first* attempt started, so a degraded
/// run's `ns` includes the time burnt on the failed RM path. Closes the
/// `query::exec` span its caller opened.
#[allow(clippy::too_many_arguments)]
fn finish_output(
    mem: &mut MemoryHierarchy,
    verified: &VerifiedQuery<'_>,
    batch: &ResultBatch,
    path: AccessPath,
    cost: PathCost,
    t0: fabric_sim::Cycles,
    rm_stats: Option<RmStats>,
    degraded_from: Option<AccessPath>,
    mut profile: Vec<PhaseProfile>,
    before: &[MemStats],
    ctx: RecordCtx,
) -> Result<QueryOutput> {
    let bound = verified.bound();
    // The client-boundary form is built here, once, and only for the rows
    // the query returns.
    let rows = if bound.order_by.is_empty() {
        let returned = bound.limit.map_or(batch.len(), |k| k.min(batch.len()));
        batch.rows(0..returned)
    } else {
        let order = profiled(mem, "query::post::sort", &mut profile, |m| {
            order_rows(m, batch, &bound.order_by, bound.limit)
        })
        .or_else(|e| fail_exec(mem, e))?;
        batch.rows(order.iter().map(|&r| r as usize))
    };
    // Close the attribution window: align every core to the frontier, then
    // the per-core busy deltas plus barrier idle add up to `total` each.
    let t_end = mem.join_clocks();
    let total = t_end - t0;
    let mut cores: Vec<CoreAttribution> = Vec::with_capacity(before.len());
    let mut td_cores: Vec<fabric_sim::TopDownCore> = Vec::with_capacity(before.len());
    for (i, b) in before.iter().enumerate() {
        let d = mem.core_stats(i).delta_since(b);
        let busy = d.busy_cycles();
        let idle = total.saturating_sub(busy);
        td_cores.push(d.topdown(i, idle));
        cores.push(CoreAttribution {
            core: i,
            busy_cycles: busy,
            cpu_cycles: d.cpu_cycles,
            stall_cycles: d.stall_cycles,
            mem_lat_cycles: d.mem_lat_cycles,
            lat_l1_cycles: d.lat_l1_cycles,
            lat_l2_cycles: d.lat_l2_cycles,
            stall_bw_cycles: d.stall_bw_cycles,
            stall_dram_cycles: d.stall_dram_cycles,
            stall_device_cycles: d.stall_device_cycles,
            stall_retry_cycles: d.stall_retry_cycles,
            bytes_read: d.bytes_read,
            idle_cycles: idle,
        });
    }
    let topdown = fabric_sim::TopDown { cores: td_cores };
    // Hard invariant (DESIGN.md §12): the top-down buckets partition each
    // core's elapsed cycles exactly. A violation means a charge site in
    // the hierarchy leaked cycles past the sub-bucket accounting.
    if let Err(why) = topdown.verify() {
        return fail_exec(
            mem,
            FabricError::Internal(format!("top-down accounting does not reconcile: {why}")),
        );
    }
    mem.trace_end(
        "query::exec",
        Category::Query,
        &[
            ("rows", rows.len() as u64),
            ("cycles", total),
            ("degraded", u64::from(degraded_from.is_some())),
        ],
    );
    let path_str = path_tag(path);
    let metrics = mem.metrics_mut();
    metrics.counter_add("query.executions", 1);
    metrics.scoped("query.path").counter_add(path_str, 1);
    metrics.counter_add("query.rows_out", rows.len() as u64);
    if degraded_from.is_some() {
        metrics.counter_add("query.degraded", 1);
    }
    metrics.observe("query.exec_cycles", total);
    for a in &cores {
        let mut core = metrics.scoped(format_args!("query.core{}", a.core));
        core.counter_add("busy_cycles", a.busy_cycles);
        core.counter_add("idle_cycles", a.idle_cycles);
        core.counter_add("bytes_read", a.bytes_read);
    }
    topdown.record_into(metrics, "query");
    if let Some(rm) = &rm_stats {
        rm.record_into(metrics, "query.rm");
    }

    // --- Query log + calibration ledger (host-side: no simulated time) ---
    let cache_hit = ctx.outcome == CacheOutcome::Hit;
    let est_ns = cost.ns(path).unwrap_or(0.0);
    let est_bytes = cost.bytes(path).unwrap_or(0.0);
    let actual_ns = mem.ns_since(t0);
    let actual_bytes: u64 = cores.iter().map(|a| a.bytes_read).sum();
    let faults_injected = rm_stats.as_ref().map_or(0, |s| s.injected_faults);
    let mut td_sum = fabric_sim::TopDownSummary::default();
    for c in &topdown.cores {
        td_sum.retired += c.retired;
        td_sum.mem += c.memory_bound();
        // `TopDownCore::stall()` folds idle in; the summary keeps idle as
        // its own bucket, so take the stall sub-buckets individually.
        td_sum.stall += c.bw_wait + c.fault_retry;
        td_sum.idle += c.idle;
        td_sum.elapsed += c.elapsed;
    }
    let record = fabric_sim::QueryRecord {
        seq: 0, // assigned by the log on push
        plan_sig: ctx.sig,
        class: bound.class().to_string(),
        session: ctx.meta.session,
        path: path_str.to_string(),
        est_ns,
        actual_cycles: total,
        est_bytes,
        actual_bytes,
        rows_out: rows.len() as u64,
        cache_hit,
        degraded_from: degraded_from.map(|p| format!("{p:?}")),
        recovered_tables: ctx.meta.recovered_tables,
        faults_injected,
        ops: ctx
            .ops
            .iter()
            .map(|o| fabric_sim::OpRecord {
                op: o.op.to_string(),
                est_ns: o.est_ns,
                est_bytes: o.est_bytes,
                actual_cycles: o.actual_cycles,
                actual_bytes: o.actual_bytes,
                rows_in: o.rows_in,
                rows_out: o.rows_out,
                invocations: o.invocations,
            })
            .collect(),
        topdown: td_sum,
    };
    mem.querylog_mut().push(record);
    mem.metrics_mut().counter_add("querylog.records", 1);

    // Calibrate the cost model on clean cold runs only: hits measure the
    // cache, not the path; degraded/faulted runs measure the fault story.
    if !cache_hit && degraded_from.is_none() && faults_injected == 0 {
        let key = format!(
            "{}/{}/{}",
            bound.table,
            geometry_tag(&format!("{:?}", verified.geometry())),
            path_str
        );
        let e = mem.calib_mut().observe(
            &key,
            rel_err(est_ns, actual_ns, est_ns),
            rel_err(est_bytes, actual_bytes as f64, est_bytes),
        );
        let metrics = mem.metrics_mut();
        metrics.counter_add("calib.observations", 1);
        e.record_into(metrics, &key);
    }

    Ok(QueryOutput {
        rows,
        path,
        ns: actual_ns,
        cost,
        rm_stats,
        degraded_from,
        profile,
        cores,
        topdown,
        ops: ctx.ops,
        cache_hit,
    })
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
    use crate::bind::bind;
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

        // The plain pipeline (`EXPLAIN ANALYZE`'s) returns the same rows.
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut c = Catalog::new();
        c.register_rows("t", wide_rows(&mut mem, 1000));
        let plain = execute_uncached(&mut mem, &c, &b, AccessPath::Rm).unwrap();
        assert_eq!(plain.rows, out.rows);
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
        // Metrics accounted the run, including per-operator actuals.
        let metrics = engine.mem_ref().metrics();
        assert_eq!(metrics.counter("query.executions"), 1);
        assert_eq!(metrics.counter("query.path.row"), 1);
        assert_eq!(metrics.counter("query.rows_out"), 20);
        assert_eq!(metrics.counter("query.op.scan_row.rows_in"), 200);
        assert_eq!(metrics.counter("query.op.filter.rows_in"), 200);
        assert_eq!(metrics.counter("query.op.filter.rows_out"), 20);
        assert_eq!(metrics.counter("query.op.project.rows_out"), 20);
        assert_eq!(metrics.counter("query.op.merge.invocations"), 1);
        assert_eq!(metrics.counter("query.op.merge.rows_out"), 20);
    }

    #[test]
    fn traced_query_emits_balanced_spans_even_when_degrading() {
        let mut engine = rm_setup(1000);
        engine
            .mem()
            .set_recorder(Box::new(fabric_sim::RingRecorder::new(4096)));
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
        let json = mem.export_trace().expect("ring recorder exports");
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
        let entry = c.get("t").unwrap();
        let verified = analyze(entry, &bound, &RmConfig::prototype()).unwrap();
        let (path, cost) = choose_path_parallel(
            mem.config(),
            &RmConfig::prototype(),
            entry,
            &bound,
            mem.num_cores(),
        )
        .unwrap();
        assert_eq!(path, AccessPath::Rm);
        let mut ctx = dead_device();
        let mut cacheobj = OpCache::default();
        let key = opcache::keyed(opcache::plan_signature(&bound, 1000, "g"), path);
        let out = run_verified(
            &mut mem,
            entry,
            &verified,
            path,
            cost,
            Resilience::Resilient(&mut ctx),
            CacheSlot::Keyed(&mut cacheobj, key),
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
