//! The unified fabric engine: one object owning the simulated machine
//! (memory hierarchy + core count), the catalog, the fault-handling state,
//! and a plan cache — with a session API (`prepare` / `run` / `explain` /
//! `explain_analyze`) as the one way in.
//!
//! ```
//! use fabric_types::{ColumnType, Schema, Value};
//! use query::Engine;
//! use rowstore::RowTable;
//!
//! let mut engine = Engine::new(fabric_sim::SimConfig::zynq_a53());
//! let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
//! let mut t = RowTable::create(engine.mem(), schema, 16).unwrap();
//! for i in 0..10 {
//!     t.load(engine.mem(), &[Value::I64(i), Value::F64(i as f64)]).unwrap();
//! }
//! engine.register_rows("orders", t);
//!
//! let mut session = engine.session();
//! let out = session.run("SELECT sum(qty) FROM orders WHERE id < 5").unwrap();
//! assert_eq!(out.rows[0][0], Value::F64(10.0));
//! ```
//!
//! Every query runs through one resilient pipeline: the engine owns a
//! [`FaultContext`] (quiet by default: until faults are configured, fault
//! handling costs only the RM path's per-line CRC check) and executes on
//! however many simulated cores the engine was given — morsel-parallel,
//! with results bit-identical to a single core.

use crate::analyze::{analyze, VerifiedQuery};
use crate::bind::{bind, BoundQuery};
use crate::catalog::Catalog;
use crate::cost::{choose_path_parallel, AccessPath, PathCost};
use crate::exec::opcache::{self, OpCache};
use crate::exec::{run_verified, FaultContext, QueryMetrics, QueryOutput, RecordMeta, Scratchpad};
use crate::explain::{
    analyze_paths, render_analyze, render_latency_section, render_plan, render_recovery_section,
};
use crate::parser::parse;
use colstore::ColTable;
use durability::{DurabilityConfig, DurableImage};
use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::{Result, Schema};
use mvcc::{DurableStore, RecoveryReport};
use relmem::RmConfig;
use rowstore::RowTable;
use std::rc::Rc;

/// Plans the cache keeps per engine. Small on purpose: the cache exists to
/// make re-running a dashboard's query set free, not to be a buffer pool.
const PLAN_CACHE_CAP: usize = 16;

/// A parsed, bound, verified, and priced query, reusable across
/// executions — the typed handle [`Session::prepare`] returns. Running a
/// `&Prepared` skips the SQL-text cache entirely: the verified plan, its
/// estimates *and* its signature travel with the handle, so repeated
/// execution re-verifies, re-prices and re-hashes nothing — unless the
/// engine invalidated its plans since the prepare ([`Engine::register`],
/// [`Engine::register_rows`], [`Engine::open_recovered`],
/// [`Engine::set_cores`]): a session then runs what a fresh prepare of the
/// same SQL returns, since the plan was verified and priced against a
/// catalog or a machine that is gone. Cheap to clone (the plan body is
/// shared).
#[derive(Clone)]
pub struct Prepared {
    plan: Rc<PreparedPlan>,
}

struct PreparedPlan {
    sql: String,
    /// The plan [`analyze`] returned; every execution borrows it.
    verified: VerifiedQuery,
    /// The estimates at prepare time, for `cost.cores` cores.
    cost: PathCost,
    /// Path-independent signature ([`opcache::plan_signature`]), computed
    /// once at cold prepare.
    key: u128,
    /// [`Engine`]'s plan generation at prepare time.
    generation: u64,
}

impl Prepared {
    /// The SQL text this plan was prepared from.
    pub fn sql(&self) -> &str {
        &self.plan.sql
    }

    /// The access path the optimizer chose at prepare time. A handle held
    /// across a registration or [`Engine::set_cores`] may run on another
    /// one: route it with [`Session::execute`], which re-prepares it.
    pub fn path(&self) -> AccessPath {
        self.plan.cost.best()
    }

    /// The operator-cache key this plan executed under on `path` at
    /// prepare time (a re-prepared handle runs under its fresh plan's).
    pub fn cache_key(&self, path: AccessPath) -> u128 {
        opcache::keyed(self.plan.key, path)
    }
}

/// Verify and price `bound` against the engine's catalog and machine, and
/// sign it: what [`Session::prepare`] stores, and what the bound-plan entry
/// points compute per call.
pub(crate) fn prepare_plan(
    mem: &MemoryHierarchy,
    catalog: &Catalog,
    bound: &BoundQuery,
) -> Result<(VerifiedQuery, PathCost, u128)> {
    let entry = catalog.get(&bound.table)?;
    let rm = RmConfig::prototype();
    let verified = analyze(entry, bound, &rm)?;
    let (_, cost) = choose_path_parallel(mem.config(), &rm, entry, bound, mem.num_cores())?;
    let key = opcache::plan_signature(bound, entry.rows.len(), verified.geometry().geometry());
    Ok((verified, cost, key))
}

/// The fabric engine: simulated machine + catalog + fault state + plan
/// cache. Create one per simulated deployment; open [`Engine::session`] to
/// prepare and run queries.
pub struct Engine {
    mem: MemoryHierarchy,
    catalog: Catalog,
    faults: FaultContext,
    /// MRU-first plan cache, searched by SQL text.
    cache: Vec<Rc<PreparedPlan>>,
    cache_hits: u64,
    cache_misses: u64,
    /// Signature-keyed operator cache: memoized stage outputs, shared by
    /// every session on this engine. Invalidated together with the plan
    /// cache — both are bound to the catalog contents and machine shape.
    op_cache: OpCache,
    /// Handles for the metrics every query writes, resolved on the
    /// hierarchy's registry at the first query and again whenever that
    /// registry is replaced or the machine gains cores.
    query_metrics: QueryMetrics,
    /// Recovery reports from every [`Engine::open_recovered`] call, in
    /// order — the engine's record of which tables came back from a
    /// crash and whether the recovery was degraded.
    recoveries: Vec<(String, RecoveryReport)>,
    /// Sessions handed out so far; the next session gets this + 1 as its
    /// id, which tags its query-log records.
    sessions_opened: u64,
    /// How often the plans were invalidated ([`Engine::clear_plan_cache`]):
    /// a handle prepared at an older generation was verified and priced
    /// against a catalog or a machine that is gone.
    generation: u64,
}

impl Engine {
    /// A single-core engine over `cfg` — behaviourally identical to the
    /// original serial executor.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_cores(cfg, 1)
    }

    /// An engine whose queries run morsel-parallel over `cores` simulated
    /// cores (private L1/prefetcher each, shared L2/DRAM/RM device).
    pub fn with_cores(cfg: SimConfig, cores: usize) -> Self {
        let mut mem = MemoryHierarchy::new(cfg);
        mem.set_core_count(cores.max(1));
        Engine {
            mem,
            catalog: Catalog::new(),
            faults: FaultContext::quiet(),
            cache: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            op_cache: OpCache::default(),
            query_metrics: QueryMetrics::default(),
            recoveries: Vec::new(),
            sessions_opened: 0,
            generation: 0,
        }
    }

    /// Change the core count. Invalidates the plans: each is priced for
    /// the machine it was prepared on.
    pub fn set_cores(&mut self, cores: usize) {
        self.mem.set_core_count(cores.max(1));
        self.clear_plan_cache();
    }

    /// Number of simulated cores queries run on.
    pub fn cores(&self) -> usize {
        self.mem.num_cores()
    }

    /// The simulated memory hierarchy — for loading tables, attaching
    /// trace recorders, and reading metrics.
    pub fn mem(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Read-only view of the hierarchy (metrics, stats, clock).
    pub fn mem_ref(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The catalog of registered tables.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a table with only the row-oriented base layout (the
    /// fabric-native configuration). Invalidates the plan cache — cached
    /// geometries are bound to the catalog contents at prepare time.
    pub fn register_rows(&mut self, name: impl Into<String>, rows: RowTable) {
        self.catalog.register_rows(name, rows);
        self.clear_plan_cache();
    }

    /// Register a table with both layouts. Invalidates the plan cache.
    pub fn register(&mut self, name: impl Into<String>, rows: RowTable, cols: ColTable) {
        self.catalog.register(name, rows, cols);
        self.clear_plan_cache();
    }

    /// Recover a crash-consistent store from the durable image that
    /// survived a crash ([`DurableStore::crash_image`]), register the
    /// recovered snapshot as a queryable row table under `name`, and
    /// return the live store (for continued writes) plus the recovery
    /// report. A degraded recovery — e.g. the newest checkpoint was torn
    /// and replay fell back to an older one — is surfaced via the
    /// `engine.degraded_opens` counter and a flight-recorder postmortem,
    /// but still opens: the recovered state is correct, just rebuilt the
    /// slow way.
    pub fn open_recovered(
        &mut self,
        name: impl Into<String>,
        user_schema: &Schema,
        capacity: usize,
        image: DurableImage,
        cfg: DurabilityConfig,
        checkpoint_every: u64,
    ) -> Result<(DurableStore, RecoveryReport)> {
        let name = name.into();
        let (store, report) = DurableStore::replay(
            &mut self.mem,
            user_schema.clone(),
            capacity,
            image,
            cfg,
            checkpoint_every,
        )?;
        // Materialize the recovered snapshot (visible user rows at the
        // watermark, physical order) into the catalog's row layout.
        let rows = store.snapshot_rows(&mut self.mem)?;
        let mut table = RowTable::create(&mut self.mem, user_schema.clone(), capacity.max(1))?;
        for row in &rows {
            table.load(&mut self.mem, row)?;
        }
        if report.degraded.is_some() {
            self.mem
                .metrics_mut()
                .counter_add("engine.degraded_opens", 1);
            self.mem
                .flight_dump_with("engine-degraded-open", report.to_json());
        }
        self.recoveries.push((name.clone(), report.clone()));
        self.catalog.register_rows(name, table);
        self.clear_plan_cache();
        Ok((store, report))
    }

    /// Recovery reports from every [`Engine::open_recovered`], in call
    /// order: `(table name, report)`.
    pub fn recoveries(&self) -> &[(String, RecoveryReport)] {
        &self.recoveries
    }

    /// Replace the engine's fault-handling state (plan seed, retry policy,
    /// breaker). The default is a quiet context that injects nothing.
    pub fn set_fault_context(&mut self, ctx: FaultContext) {
        self.faults = ctx;
    }

    /// The engine's fault-handling state (fallback/breaker counters).
    pub fn fault_context(&self) -> &FaultContext {
        &self.faults
    }

    /// `(hits, misses)` of the prepared-plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Drop every cached plan and memoized stage output. A handle
    /// prepared before runs as a fresh prepare of its SQL.
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
        self.op_cache.clear();
        self.generation += 1;
    }

    /// Drop memoized stage outputs while keeping cached plans.
    /// Measurement loops (benches timing repeated *execution*) call this
    /// between reps so every run re-earns its answer through the
    /// hierarchy; hit/miss counters survive.
    pub fn clear_op_cache(&mut self) {
        self.op_cache.clear();
    }

    /// `(hits, misses)` of the operator cache (memoized stage outputs).
    pub fn op_cache_stats(&self) -> (u64, u64) {
        self.op_cache.stats()
    }

    /// The operator cache itself (entry count, insertion counters).
    pub fn op_cache(&self) -> &OpCache {
        &self.op_cache
    }

    /// The engine-wide query log: one bounded, deterministic record per
    /// executed query (cold, cached, degraded, or recovered alike).
    pub fn querylog(&self) -> &fabric_sim::QueryLog {
        self.mem.querylog()
    }

    /// Aggregate the query log into a per-(class, path) workload report.
    pub fn workload_report(&self) -> fabric_sim::WorkloadReport {
        self.mem.querylog().workload_report()
    }

    /// The cost-calibration ledger: per-(table, geometry, path) observed
    /// relative error of the cost model, fed by every clean cold run.
    pub fn calib(&self) -> &fabric_sim::CalibLedger {
        self.mem.calib()
    }

    /// Open a session on this engine. Each session gets a stable numeric
    /// id (1, 2, …) that tags its queries' query-log records; every query
    /// it executes records its latency in the engine-wide
    /// `query.class.<class>.{cold,hit}.latency_cycles` histograms, so the
    /// registry does not grow with the number of sessions.
    pub fn session(&mut self) -> Session<'_> {
        self.sessions_opened += 1;
        let id = self.sessions_opened;
        Session {
            engine: self,
            id,
            scratch: Scratchpad::new(),
        }
    }
}

/// A query session over an [`Engine`]: prepare once, run many times.
/// Owns a [`Scratchpad`] so every query it executes recycles the same
/// morsel buffers.
pub struct Session<'e> {
    engine: &'e mut Engine,
    id: u64,
    scratch: Scratchpad,
}

impl Session<'_> {
    /// This session's id: the `session` field of its query-log records.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stage buffers this session's scratchpad has allocated so far —
    /// flat across repeated queries once the pool is warm.
    pub fn scratch_allocs(&self) -> u64 {
        self.scratch.allocs()
    }

    /// Stage-buffer takes served from the pool instead of a fresh
    /// allocation.
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch.reuses()
    }

    /// Parse + bind + verify + price `sql`, consulting the engine's plan
    /// cache (keyed by SQL text, MRU, capacity [`PLAN_CACHE_CAP`]). A hit
    /// returns the cached plan unchanged, so a re-prepared query executes
    /// bit-identically to its cold first run.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared> {
        if let Some(i) = self.engine.cache.iter().position(|p| p.sql == sql) {
            let entry = self.engine.cache.remove(i);
            self.engine.cache.insert(0, entry);
            self.engine.cache_hits += 1;
            let tail = self.engine.query_metrics.on(&mut self.engine.mem);
            self.engine
                .mem
                .metrics_mut()
                .counter_add_id(tail.plan_cache_hits, 1);
            return Ok(Prepared {
                plan: Rc::clone(&self.engine.cache[0]),
            });
        }
        let stmt = parse(sql)?;
        let bound = bind(&self.engine.catalog, &stmt)?;
        let (verified, cost, key) = prepare_plan(&self.engine.mem, &self.engine.catalog, &bound)?;
        let plan = Rc::new(PreparedPlan {
            sql: sql.to_string(),
            verified,
            cost,
            key,
            generation: self.engine.generation,
        });
        self.engine.cache.insert(0, Rc::clone(&plan));
        self.engine.cache.truncate(PLAN_CACHE_CAP);
        self.engine.cache_misses += 1;
        let tail = self.engine.query_metrics.on(&mut self.engine.mem);
        self.engine
            .mem
            .metrics_mut()
            .counter_add_id(tail.plan_cache_misses, 1);
        Ok(Prepared { plan })
    }

    /// Prepare (or fetch from cache) and execute on the optimizer-chosen
    /// path, under the engine's fault policy.
    pub fn run(&mut self, sql: &str) -> Result<QueryOutput> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// Prepare and execute on an explicitly chosen path (engine
    /// comparisons / tests).
    pub fn run_on(&mut self, sql: &str, path: AccessPath) -> Result<QueryOutput> {
        let prepared = self.prepare(sql)?;
        self.execute_on(&prepared, path)
    }

    /// The plan `prepared` runs as: its own, or — for a handle prepared
    /// before the engine last invalidated its plans — what a fresh prepare
    /// of its SQL returns. Only that prepare is a counted probe of the
    /// plan cache: later executions of the handle find the fresh plan
    /// there without counting a hit or reordering the cache.
    fn current(&mut self, prepared: &Prepared) -> Result<Rc<PreparedPlan>> {
        let sql = &prepared.plan.sql;
        if prepared.plan.generation == self.engine.generation {
            return Ok(Rc::clone(&prepared.plan));
        }
        match self.engine.cache.iter().find(|p| p.sql == *sql) {
            Some(plan) => Ok(Rc::clone(plan)),
            None => Ok(self.prepare(sql)?.plan),
        }
    }

    /// Execute a prepared query on its planned path.
    pub fn execute(&mut self, prepared: &Prepared) -> Result<QueryOutput> {
        let plan = self.current(prepared)?;
        let path = plan.cost.best();
        self.run_plan(&plan.verified, path, plan.cost, plan.key, true)
    }

    /// Execute a prepared query on `path`, through the engine's operator
    /// cache: the first run memoizes the stage output under the plan's
    /// signature and a repeat run replays it without touching the
    /// hierarchy (clean runs only — degraded/faulted runs are re-earned).
    pub fn execute_on(&mut self, prepared: &Prepared, path: AccessPath) -> Result<QueryOutput> {
        let plan = self.current(prepared)?;
        self.run_plan(&plan.verified, path, plan.cost, plan.key, true)
    }

    /// Verify and execute a hand-built [`BoundQuery`] on the
    /// optimizer-chosen path, under the engine's fault policy.
    ///
    /// Unlike [`Session::run`], the plan did not come from the parser, so
    /// nothing upstream vouches for it: it passes through the same
    /// [`analyze`] gate as every SQL statement, and a plan the analyzer
    /// rejects never reaches an executor. Bound plans carry no SQL text,
    /// so they bypass the plan cache and the operator cache (but still
    /// recycle the session's scratch buffers).
    pub fn run_bound(&mut self, bound: &BoundQuery) -> Result<QueryOutput> {
        let (verified, cost, key) = prepare_plan(&self.engine.mem, &self.engine.catalog, bound)?;
        self.run_plan(&verified, cost.best(), cost, key, false)
    }

    /// Verify and execute a hand-built [`BoundQuery`] on an explicitly
    /// chosen path (engine comparisons / tests). Verifies exactly like
    /// [`Session::run_bound`].
    pub fn run_bound_on(&mut self, bound: &BoundQuery, path: AccessPath) -> Result<QueryOutput> {
        let (verified, cost, key) = prepare_plan(&self.engine.mem, &self.engine.catalog, bound)?;
        self.run_plan(&verified, path, cost, key, false)
    }

    /// Every session execution: run a verified plan signed `key` on `path`
    /// under the engine's fault policy — through the operator cache when
    /// `cached` — and record its latency.
    fn run_plan(
        &mut self,
        verified: &VerifiedQuery,
        path: AccessPath,
        cost: PathCost,
        key: u128,
        cached: bool,
    ) -> Result<QueryOutput> {
        let Engine {
            ref mut mem,
            ref catalog,
            ref mut faults,
            ref mut op_cache,
            ref mut query_metrics,
            ref recoveries,
            ..
        } = *self.engine;
        let bound = verified.bound();
        let entry = catalog.get(&bound.table)?;
        // An RM-routed query under an armed fault plan bypasses the op
        // cache in both directions: a memoized result must not mask the
        // degradation/breaker behaviour the device is configured to
        // exhibit, and a lucky clean run under fire is not a stable
        // fact worth memoizing.
        let armed_rm = path == AccessPath::Rm && !faults.plan.config().is_quiet();
        let cache = (cached && !armed_rm).then_some(op_cache);
        // Cycle-domain latency: queries fork/join internally, so the
        // global-frontier delta around the run is the query's wall time.
        let t0 = mem.now();
        let tail = query_metrics.on(mem);
        let out = run_verified(
            mem,
            tail,
            entry,
            verified,
            path,
            cost,
            faults,
            cache,
            opcache::keyed(key, path),
            &mut self.scratch,
            RecordMeta {
                session: self.id,
                recovered_tables: recoveries.len() as u64,
            },
        )?;
        // Into the class's cold or hit histogram: an op-cache hit is orders
        // of magnitude cheaper than a cold run, so the two are never pooled.
        let elapsed = mem.now().saturating_sub(t0);
        let metrics = mem.metrics_mut();
        metrics.observe_id(tail.latency(bound.class_index(), out.cache_hit), elapsed);
        metrics.gauge_set_id(tail.scratchpad_hwm, self.scratch.hwm_bytes() as f64);
        Ok(out)
    }

    /// Render the chosen plan and per-path estimates for `sql`.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let prepared = self.prepare(sql)?;
        self.explain_prepared(&prepared)
    }

    /// Render the chosen plan and per-path estimates for an
    /// already-prepared query, without touching the SQL-text cache.
    pub fn explain_prepared(&mut self, prepared: &Prepared) -> Result<String> {
        let plan = self.current(prepared)?;
        let bound = plan.verified.bound();
        let entry = self.engine.catalog.get(&bound.table)?;
        render_plan(entry, bound, plan.cost.best(), &plan.cost)
    }

    /// `EXPLAIN ANALYZE`: run `sql` on every available path and render
    /// estimated vs. measured cost plus the chosen path's per-phase and
    /// per-core breakdown.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let prepared = self.prepare(sql)?;
        self.explain_analyze_prepared(&prepared)
    }

    /// [`Session::explain_analyze`] for an already-prepared query: the
    /// prepared plan runs as [`Session::execute`] would run it, under the
    /// same estimates and signature.
    /// The measurement runs bypass the operator cache — `EXPLAIN ANALYZE`
    /// exists to observe the real hierarchy, so a memoized replay would
    /// defeat its purpose — and the engine's fault context: each runs
    /// under a fresh quiet one, so it pays what a clean session run pays
    /// and moves no breaker.
    pub fn explain_analyze_prepared(&mut self, prepared: &Prepared) -> Result<String> {
        let plan = self.current(prepared)?;
        let cost = plan.cost;
        let entry = self.engine.catalog.get(&plan.verified.bound().table)?;
        let header = render_plan(entry, plan.verified.bound(), cost.best(), &cost)?;
        let has_cols = entry.cols.is_some();
        let (reports, chosen) = analyze_paths(
            &mut self.engine.mem,
            &mut self.engine.query_metrics,
            entry,
            &plan.verified,
            &cost,
            plan.key,
        )?;
        let mut text = render_analyze(&header, has_cols, &reports, &chosen)?;
        text.push_str(&render_latency_section(self.engine.mem.metrics())?);
        text.push_str(&render_recovery_section(self.engine.recoveries())?);
        // Operator-cache provenance: the signature this plan executes
        // under on its chosen path, and the engine-wide cache state.
        let oc = &self.engine.op_cache;
        let (hits, misses) = oc.stats();
        text.push_str(&format!(
            "  op-cache: key {:032x} (chosen path)  entries {}  bytes {}  hits {}  misses {}  insertions {}  evictions {}\n",
            opcache::keyed(plan.key, cost.best()),
            oc.len(),
            oc.bytes(),
            hits,
            misses,
            oc.insertions(),
            oc.evictions(),
        ));
        text.push_str(&format!(
            "  scratchpad: allocs {}  reuses {}  hwm {} B\n",
            self.scratch.allocs(),
            self.scratch.reuses(),
            self.scratch.hwm_bytes(),
        ));
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::path_tag;
    use fabric_types::{ColumnType, Schema, Value};

    fn engine_with_data(cores: usize) -> Engine {
        let mut engine = Engine::with_cores(SimConfig::zynq_a53(), cores);
        register_t(&mut engine, 10_000);
        engine
    }

    /// `t` as `rows` rows of (id, grp, qty), registered on `engine` with
    /// both layouts.
    fn register_t(engine: &mut Engine, rows: i64) {
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
        ]);
        let mut rt = RowTable::create(engine.mem(), schema.clone(), 16384).unwrap();
        let mut ct = ColTable::create(engine.mem(), schema, 16384).unwrap();
        for i in 0..rows {
            let row = vec![
                Value::I64(i),
                Value::Str(if i % 3 == 0 { "A" } else { "B" }.into()),
                Value::F64(i as f64),
            ];
            rt.load(engine.mem(), &row).unwrap();
            ct.load(engine.mem(), &row).unwrap();
        }
        engine.register("t", rt, ct);
    }

    #[test]
    fn session_runs_queries_end_to_end() {
        let mut engine = engine_with_data(1);
        let out = engine
            .session()
            .run("SELECT grp, count(*), sum(qty) FROM t WHERE id < 6000 GROUP BY grp")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::Str("A".into()));
        assert_eq!(out.rows[0][1], Value::I64(2000));
        assert_eq!(out.cores.len(), 1);
        assert_eq!(out.cores[0].idle_cycles, 0, "one core never waits");
    }

    #[test]
    fn plan_cache_hits_return_the_same_plan_and_answer() {
        let mut engine = engine_with_data(2);
        let sql = "SELECT sum(qty) FROM t WHERE id < 5000";
        let mut s = engine.session();
        let cold = s.prepare(sql).unwrap();
        let a = s.execute(&cold).unwrap();
        let warm = s.prepare(sql).unwrap();
        assert!(
            Rc::ptr_eq(&cold.plan, &warm.plan),
            "hit must share the plan"
        );
        let b = s.execute(&warm).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.path, b.path);
        // The repeat run was an operator-cache hit replaying the cold
        // run's stage output — identical rows, no hierarchy traffic.
        assert_eq!(b.cores.iter().map(|c| c.bytes_read).sum::<u64>(), 0);
        assert_eq!(engine.plan_cache_stats(), (1, 1));
        assert_eq!(engine.op_cache_stats(), (1, 1));
        assert_eq!(
            engine.mem_ref().metrics().counter("query.plan_cache.hits"),
            1
        );
        assert_eq!(engine.mem_ref().metrics().counter("query.opcache.hits"), 1);
    }

    #[test]
    fn prepared_handle_carries_the_op_cache_key() {
        let mut engine = engine_with_data(1);
        let sql = "SELECT sum(qty) FROM t WHERE id < 5000";
        let mut s = engine.session();
        let p = s.prepare(sql).unwrap();
        let k_row = p.cache_key(AccessPath::Row);
        assert_ne!(k_row, p.cache_key(AccessPath::Col), "path-keyed");
        // A warm prepare (MRU text hit) resolves to the identical
        // signature — the handle, not the SQL text, is the cache identity.
        let warm = s.prepare(sql).unwrap();
        assert_eq!(warm.cache_key(AccessPath::Row), k_row);
        // Re-registering the table clears both caches and re-preparing
        // over changed contents yields a different signature.
        let out = s.execute_on(&p, AccessPath::Row).unwrap();
        assert_eq!(engine.op_cache().len(), 1);
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
        ]);
        let mut rt = RowTable::create(engine.mem(), schema.clone(), 64).unwrap();
        let mut ct = ColTable::create(engine.mem(), schema, 64).unwrap();
        for i in 0..10i64 {
            let row = vec![Value::I64(i), Value::Str("A".into()), Value::F64(i as f64)];
            rt.load(engine.mem(), &row).unwrap();
            ct.load(engine.mem(), &row).unwrap();
        }
        engine.register("t", rt, ct);
        assert!(engine.op_cache().is_empty(), "register clears the op cache");
        let p2 = engine.session().prepare(sql).unwrap();
        assert_ne!(
            p2.cache_key(AccessPath::Row),
            k_row,
            "new table contents, new signature"
        );
        drop(out);
    }

    #[test]
    fn plan_cache_is_bounded_and_mru() {
        let mut engine = engine_with_data(1);
        let mut s = engine.session();
        for i in 0..40 {
            s.prepare(&format!("SELECT id FROM t WHERE id < {i}"))
                .unwrap();
        }
        assert!(engine.cache.len() <= PLAN_CACHE_CAP);
        // The most recent statement is still cached.
        let (h0, _) = engine.plan_cache_stats();
        engine
            .session()
            .prepare("SELECT id FROM t WHERE id < 39")
            .unwrap();
        assert_eq!(engine.plan_cache_stats().0, h0 + 1);
    }

    #[test]
    fn multicore_session_is_bit_identical_to_single_core() {
        let sql = "SELECT grp, sum(qty), avg(qty), min(id), max(id) FROM t \
                   WHERE id < 9000 GROUP BY grp ORDER BY 2 DESC";
        let baseline = engine_with_data(1).session().run(sql).unwrap();
        for cores in [2, 4] {
            let mut engine = engine_with_data(cores);
            let out = engine.session().run(sql).unwrap();
            assert_eq!(out.rows, baseline.rows, "{cores}-core rows must match");
            assert_eq!(out.cores.len(), cores);
            // Attribution books balance on every core.
            let elapsed = out.cores[0].elapsed();
            for a in &out.cores {
                assert_eq!(a.elapsed(), elapsed, "{a:?}");
                assert_eq!(a.busy_cycles, a.retired + a.stall_cycles() + a.mem_lat());
            }
            assert!(
                out.cores.iter().filter(|a| a.busy_cycles > 0).count() > 1,
                "work must actually spread across cores"
            );
        }
    }

    #[test]
    fn registering_a_table_invalidates_cached_plans() {
        let mut engine = engine_with_data(1);
        engine.session().prepare("SELECT id FROM t").unwrap();
        assert_eq!(engine.cache.len(), 1);
        let schema = Schema::from_pairs(&[("x", ColumnType::I64)]);
        let t2 = RowTable::create(engine.mem(), schema, 4).unwrap();
        engine.register_rows("u", t2);
        assert!(engine.cache.is_empty());
    }

    #[test]
    fn open_recovered_registers_the_surviving_snapshot() {
        // Build a durable store elsewhere, crash it, and open the
        // survivors on a fresh engine.
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut m = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store =
            DurableStore::create(&mut m, schema.clone(), 64, DurabilityConfig::quiet(5), 0)
                .unwrap();
        for i in 0..5i64 {
            let mut t = store.begin();
            t.insert(vec![Value::I64(i), Value::F64(i as f64 * 2.0)]);
            store.commit(&mut m, t).unwrap();
        }
        let image = store.crash_image();

        let mut engine = Engine::new(SimConfig::zynq_a53());
        let (survivor, report) = engine
            .open_recovered("orders", &schema, 64, image, DurabilityConfig::quiet(6), 0)
            .unwrap();
        assert_eq!(report.commits_replayed, 5);
        assert_eq!(report.degraded, None);
        assert_eq!(survivor.snapshot_ts(), report.watermark);
        assert_eq!(engine.recoveries().len(), 1);
        assert_eq!(engine.recoveries()[0].0, "orders");
        let out = engine
            .session()
            .run("SELECT count(*), sum(qty) FROM orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::I64(5));
        assert_eq!(out.rows[0][1], Value::F64(20.0));
    }

    #[test]
    fn queries_record_cold_and_hit_latency_histograms_once() {
        let mut engine = engine_with_data(1);
        {
            let mut s = engine.session();
            assert_eq!(s.id(), 1);
            s.run("SELECT grp, count(*) FROM t GROUP BY grp").unwrap(); // q1
            s.run("SELECT sum(qty) FROM t WHERE id < 100").unwrap(); // q6
            s.run("SELECT id FROM t WHERE id < 10").unwrap(); // scan
        }
        {
            let mut s2 = engine.session();
            assert_eq!(s2.id(), 2);
            assert!(
                s2.run("SELECT sum(qty) FROM t WHERE id < 100")
                    .unwrap()
                    .cache_hit
            );
        }
        let m = engine.mem_ref().metrics();
        for class in ["q1", "q6", "scan"] {
            let h = m
                .histogram(&format!("query.class.{class}.cold.latency_cycles"))
                .unwrap_or_else(|| panic!("missing {class} histogram"));
            assert_eq!(h.count(), 1);
            assert!(h.sum() > 0, "queries cost simulated cycles");
            let (p50, p99) = (h.quantile(0.50), h.quantile(0.99));
            assert!(p50 > 0.0 && p99 >= p50, "{class}: p50 {p50} p99 {p99}");
        }
        // The second session's run was an op-cache hit: one sample in the
        // hit histogram, the cold one untouched.
        let hit = m.histogram("query.class.q6.hit.latency_cycles").unwrap();
        assert_eq!(hit.count(), 1);
        // The session id tags the query log's records; the registry keeps
        // nothing per session.
        let sessions: Vec<u64> = engine.querylog().records().map(|r| r.session).collect();
        assert_eq!(sessions, [1, 1, 1, 2]);
        let snap = m.snapshot();
        assert!(!snap.to_json().contains("session."), "no per-session keys");
        let names = snap
            .histograms
            .keys()
            .filter(|k| k.starts_with("query.class."));
        assert_eq!(
            names.collect::<Vec<_>>(),
            [
                "query.class.q1.cold.latency_cycles",
                "query.class.q6.cold.latency_cycles",
                "query.class.q6.hit.latency_cycles",
                "query.class.scan.cold.latency_cycles",
            ]
        );
    }

    #[test]
    fn explain_analyze_appends_latency_and_recovery_sections() {
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut m = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store =
            DurableStore::create(&mut m, schema.clone(), 64, DurabilityConfig::quiet(5), 0)
                .unwrap();
        for i in 0..4i64 {
            let mut t = store.begin();
            t.insert(vec![Value::I64(i), Value::F64(i as f64)]);
            store.commit(&mut m, t).unwrap();
        }
        let image = store.crash_image();
        let mut engine = Engine::new(SimConfig::zynq_a53());
        engine
            .open_recovered("orders", &schema, 64, image, DurabilityConfig::quiet(6), 0)
            .unwrap();
        let sql = "SELECT sum(qty) FROM orders";
        let mut s = engine.session();
        assert!(!s.run(sql).unwrap().cache_hit);
        let text = s.explain_analyze(sql).unwrap();
        assert!(text.contains("latency (cycle-domain"), "{text}");
        assert!(text.contains("recovered tables:"), "{text}");
        assert!(text.contains("`orders`  watermark 4  commits 4"), "{text}");
        let row = |text: &str, temp: &str| {
            let head = format!("    q6    {temp}  ");
            text.lines()
                .find(|l| l.starts_with(&head))
                .map(str::to_string)
        };
        let cold = row(&text, "cold").unwrap_or_else(|| panic!("no cold q6 row: {text}"));
        assert!(cold.contains("n      1"), "{cold}");
        assert_eq!(row(&text, "hit"), None, "{text}");
        // An op-cache hit gets a row of its own and leaves the cold
        // percentiles where they were.
        assert!(s.run(sql).unwrap().cache_hit);
        let text = s.explain_analyze(sql).unwrap();
        assert_eq!(row(&text, "cold").as_deref(), Some(cold.as_str()), "{text}");
        let hit = row(&text, "hit").unwrap_or_else(|| panic!("no hit q6 row: {text}"));
        assert!(hit.contains("n      1"), "{hit}");
    }

    #[test]
    fn explain_analyze_logs_the_prepared_plans_signature() {
        let mut engine = engine_with_data(2);
        let mut s = engine.session();
        let p = s.prepare("SELECT sum(qty) FROM t WHERE id < 2000").unwrap();
        s.explain_analyze_prepared(&p).unwrap();
        assert!(!s.execute(&p).unwrap().cache_hit);
        let id = s.id();
        let log: Vec<_> = engine.querylog().records().collect();
        let (run, measured) = log.split_last().unwrap();
        assert_eq!((run.session, run.path), (id, path_tag(p.path())));
        // One measurement per path, each under the prepared plan's key
        // for that path; the chosen path's is the session run's.
        let paths = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];
        assert_eq!(measured.len(), paths.len());
        for (r, path) in measured.iter().zip(paths) {
            assert_eq!((r.session, r.path), (0, path_tag(path)));
            assert_eq!(r.plan_sig, p.cache_key(path));
        }
        let chosen = measured.iter().find(|r| r.path == run.path).unwrap();
        assert_eq!(chosen.plan_sig, run.plan_sig);
    }

    /// The estimate columns of an `EXPLAIN ANALYZE` text: each line's
    /// part before its measurements.
    fn estimates(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| l.contains(" est "))
            .map(|l| l.split("actual").next().unwrap_or(l))
            .collect()
    }

    #[test]
    fn a_handle_held_across_set_cores_runs_as_a_fresh_prepare() {
        // ROW at four cores, RM at one.
        let sql = "SELECT grp, sum(qty) FROM t GROUP BY grp";
        let mut held = engine_with_data(4);
        let p = held.session().prepare(sql).unwrap();
        held.set_cores(1);
        let mut fresh = engine_with_data(1);
        let q = fresh.session().prepare(sql).unwrap();
        assert_eq!((p.path(), q.path()), (AccessPath::Row, AccessPath::Rm));

        let (mut a, mut b) = (held.session(), fresh.session());
        assert_eq!(
            a.explain_prepared(&p).unwrap(),
            b.explain_prepared(&q).unwrap()
        );
        let (ta, tb) = (
            a.explain_analyze_prepared(&p).unwrap(),
            b.explain_analyze_prepared(&q).unwrap(),
        );
        assert_eq!(estimates(&ta), estimates(&tb), "{ta}\n{tb}");
        let (ra, rb) = (a.execute(&p).unwrap(), b.execute(&q).unwrap());
        assert_eq!((ra.path, &ra.rows), (AccessPath::Rm, &rb.rows));
        let (la, lb) = (
            held.querylog().records().last().unwrap(),
            fresh.querylog().records().last().unwrap(),
        );
        assert_eq!((la.path, la.est_ns), (lb.path, lb.est_ns));
    }

    /// A handle held across [`Engine::set_cores`] and then a registration
    /// of its table runs, renders and logs what a fresh prepare of its SQL
    /// on an engine with the same history does.
    #[test]
    fn a_handle_held_across_set_cores_and_a_registration_runs_as_a_fresh_prepare() {
        let sql = "SELECT grp, sum(qty) FROM t GROUP BY grp";
        let mut held = engine_with_data(4);
        let p = held.session().prepare(sql).unwrap();
        held.set_cores(1);
        register_t(&mut held, 6_000);
        let mut fresh = engine_with_data(1);
        register_t(&mut fresh, 6_000);
        let q = fresh.session().prepare(sql).unwrap();
        assert_eq!(p.path(), AccessPath::Row, "the plan prepared at four cores");

        let (mut a, mut b) = (held.session(), fresh.session());
        assert_eq!(
            a.explain_prepared(&p).unwrap(),
            b.explain_prepared(&q).unwrap()
        );
        let (ra, rb) = (a.execute(&p).unwrap(), b.execute(&q).unwrap());
        assert_eq!((ra.path, &ra.rows), (q.path(), &rb.rows));
        assert_eq!(
            ra.rows[0][1],
            Value::F64((0..6_000).step_by(3).sum::<i64>() as f64)
        );
        let (la, lb) = (
            held.querylog().records().last().unwrap(),
            fresh.querylog().records().last().unwrap(),
        );
        assert_eq!(
            (la.path, la.est_ns, la.plan_sig),
            (lb.path, lb.est_ns, lb.plan_sig)
        );
    }

    /// A stale handle re-prepares once: its first execution after the
    /// invalidation misses the plan cache, the rest do not probe it.
    #[test]
    fn a_handle_held_across_an_invalidation_probes_the_plan_cache_once() {
        let mut engine = engine_with_data(1);
        let held = engine.session().prepare("SELECT id FROM t").unwrap();
        let other = engine.session().prepare("SELECT qty FROM t").unwrap();
        engine.clear_plan_cache();
        let (hits, misses) = engine.plan_cache_stats();
        let mut s = engine.session();
        for handle in [&held, &other, &held] {
            for _ in 0..3 {
                s.execute(handle).unwrap();
            }
        }
        assert_eq!(engine.plan_cache_stats(), (hits, misses + 2));
        assert_eq!(
            engine.cache[0].sql, "SELECT qty FROM t",
            "executing a stale handle does not reorder the cache"
        );
    }

    /// `t` as `rows` rows whose `qty` is `qty` each, registered on `e`
    /// with both layouts.
    fn register_qty(e: &mut Engine, rows: i64, qty: f64) {
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut rt = RowTable::create(e.mem(), schema.clone(), 1024).unwrap();
        let mut ct = ColTable::create(e.mem(), schema, 1024).unwrap();
        for i in 0..rows {
            let row = [Value::I64(i), Value::F64(qty)];
            rt.load(e.mem(), &row).unwrap();
            ct.load(e.mem(), &row).unwrap();
        }
        e.register("t", rt, ct);
    }

    #[test]
    fn a_handle_held_across_a_registration_runs_against_the_new_table() {
        let sql = "SELECT sum(qty) FROM t";
        let sum = |x: f64| vec![vec![Value::F64(x)]];
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let mut e = Engine::with_cores(SimConfig::zynq_a53(), 2);
            register_qty(&mut e, 1000, 1.0);
            let held = e.session().prepare(sql).unwrap();
            // The old table's answer, memoised under the handle's key.
            assert_eq!(
                e.session().execute_on(&held, path).unwrap().rows,
                sum(1000.0)
            );
            assert!(e.session().execute_on(&held, path).unwrap().cache_hit);

            // Fewer rows (the RM geometry the handle verified would gather
            // the old arena), then as many rows as before (the same plan
            // signature) with other values.
            for (rows, qty) in [(10, 5.0), (1000, 2.0)] {
                register_qty(&mut e, rows, qty);
                let out = e.session().execute_on(&held, path).unwrap();
                assert_eq!(out.rows, sum(rows as f64 * qty), "{path:?}, {rows} rows");
                assert!(!out.cache_hit, "{path:?}: served a memoised result");
                let again = e.session().execute_on(&held, path).unwrap();
                assert!(again.cache_hit);
                assert_eq!(again.rows, out.rows);

                let fresh = e.session().prepare(sql).unwrap();
                let mut s = e.session();
                assert_eq!(s.execute(&held).unwrap().rows, out.rows);
                assert_eq!(
                    s.explain_prepared(&held).unwrap(),
                    s.explain_prepared(&fresh).unwrap()
                );
            }
        }
    }

    #[test]
    fn explain_and_explain_analyze_render_through_the_session() {
        let mut engine = engine_with_data(2);
        let text = engine.session().explain("SELECT sum(qty) FROM t").unwrap();
        assert!(text.contains("Plan for `t`"), "{text}");
        let text = engine
            .session()
            .explain_analyze("SELECT sum(qty) FROM t WHERE id < 2000")
            .unwrap();
        assert!(text.contains("analyze:"), "{text}");
        assert!(text.contains("cores (chosen path):"), "{text}");
        assert!(text.contains("core 0"), "{text}");
        assert!(text.contains("top-down (chosen path):"), "{text}");
    }
}
