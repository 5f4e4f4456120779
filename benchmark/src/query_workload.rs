//! The three query workloads (`scan_cold`, `project_wide`,
//! `dashboard_warm`): one runner over different generated inputs.
//!
//! Set-up builds the engine, then runs every distinct statement on ROW,
//! COL and RM; the three answers must agree bit for bit, and their
//! digest is the reference every timed operation is checked against.
//! The same pass is the warm-up. A traced run also builds a *shadow*
//! catalog from the same seed, on which the front-end layers (parser,
//! bind, analyze, cost) are called directly beside each operation and
//! the storage kernels are probed afterwards; a live `Session` borrows
//! the engine exclusively, so its own catalog cannot be reached then.

use crate::gen::{Op, QueryInputs, Sessions, PATHS};
use crate::stats::{quantile, ratio};
use crate::tracer::{Root, Tracer, NO_ARGS};
use crate::{probes, Recorder, RunConfig, Workload};
use fabric_sim::{MemStats, MemoryHierarchy, SimConfig};
use fabric_types::Value;
use query::{AccessPath, Catalog, Engine, QueryOutput, Session};
use relmem::RmConfig;
use std::hint::black_box;
use std::time::Instant;

/// Simulated cores of every engine the benchmark builds.
pub const SIM_CORES: usize = 4;

/// One distinct statement with what set-up pinned for it.
struct Statement {
    sql: String,
    /// Digest of the answer all three paths agreed on.
    reference: u64,
    /// By how much the optimizer's path was slower, in simulated time,
    /// than the best of the three forced paths, in percent.
    regret_pct: f64,
}

/// Order-sensitive 64-bit FNV-1a digest of a result set: every value's
/// type tag and exact bit pattern, so two answers digest alike only if
/// they agree bit for bit, row order included.
fn digest(rows: &[Vec<Value>]) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    eat(&mut h, &(rows.len() as u64).to_le_bytes());
    for row in rows {
        eat(&mut h, &[0xff, row.len() as u8]);
        for v in row {
            // Tag, then the value's bits widened to 64 (strings: bytes).
            let (tag, bits) = match v {
                Value::I8(x) => (1, *x as u64),
                Value::I16(x) => (2, *x as u64),
                Value::I32(x) => (3, *x as u64),
                Value::I64(x) => (4, *x as u64),
                Value::F32(x) => (5, u64::from(x.to_bits())),
                Value::F64(x) => (6, x.to_bits()),
                Value::Date(x) => (7, u64::from(*x)),
                Value::Str(s) => {
                    eat(&mut h, s.as_bytes());
                    (8, s.len() as u64)
                }
            };
            eat(&mut h, &[tag]);
            eat(&mut h, &bits.to_le_bytes());
        }
    }
    h
}

/// The second copy of the catalog that traced runs call the front-end
/// layers and the storage kernels on.
struct Shadow {
    mem: MemoryHierarchy,
    catalog: Catalog,
    rm: RmConfig,
}

impl Shadow {
    /// Parse, bind, verify and price `sql` by direct calls, each under
    /// its own span.
    fn front_end(&self, sql: &str, tracer: &mut Tracer, root: &mut Root) {
        let Ok(stmt) = tracer.time(root, "query.parser", || query::parser::parse(sql)) else {
            return;
        };
        let Ok(bound) = tracer.time(root, "query.bind", || {
            query::bind::bind(&self.catalog, &stmt)
        }) else {
            return;
        };
        let Ok(entry) = self.catalog.get(&bound.table) else {
            return;
        };
        tracer.time(root, "query.analyze", || {
            black_box(query::analyze(entry, &bound, &self.rm).is_ok());
        });
        tracer.time(root, "query.cost", || {
            black_box(
                query::choose_path_parallel(self.mem.config(), &self.rm, entry, &bound, SIM_CORES)
                    .is_ok(),
            );
        });
    }
}

/// Counters read from the engine's public outputs during traced cycles.
#[derive(Clone, Default)]
struct Counters {
    ops: u64,
    scan_cycles: u64,
    merge_cycles: u64,
    sort_cycles: u64,
    out_rows: u64,
    execute_host_ns: u64,
    cache_hits: u64,
    degraded: u64,
    rm_source_lines: u64,
    rm_output_lines: u64,
    rm_batches: u64,
    rm_retries: u64,
    /// |estimate - actual| / estimate of every cold run, in 1/1000 %.
    est_rel_err_mpct: Vec<u64>,
    /// Execute latency of op-cache hits returning at most four rows.
    small_hit_ns: Vec<u64>,
    mem: MemStats,
    sim_cycles: u64,
    plan_hits: u64,
    plan_misses: u64,
    opcache_evictions: u64,
    opcache_bytes: u64,
    scratch_reuses: u64,
    scratch_allocs: u64,
}

impl Counters {
    fn add_op(&mut self, out: &QueryOutput, execute_ns: u64) {
        self.ops += 1;
        for phase in &out.profile {
            match phase.name {
                "query::stage::merge" => self.merge_cycles += phase.cycles,
                "query::post::sort" => self.sort_cycles += phase.cycles,
                name if name.starts_with("query::scan::") => self.scan_cycles += phase.cycles,
                _ => {}
            }
        }
        self.out_rows += out.rows.len() as u64;
        self.execute_host_ns += execute_ns;
        self.degraded += u64::from(out.degraded_from.is_some());
        if out.cache_hit {
            // A hit replays the memoized device statistics; no device
            // work happened, so they are not counted again.
            self.cache_hits += 1;
            if out.rows.len() <= 4 {
                self.small_hit_ns.push(execute_ns);
            }
            return;
        }
        if let Some(rm) = &out.rm_stats {
            self.rm_source_lines += rm.source_lines;
            self.rm_output_lines += rm.output_lines;
            self.rm_batches += rm.batches;
            self.rm_retries += rm.retries;
        }
        if let Some(est) = out.cost.ns(out.path).filter(|e| *e > 0.0) {
            self.est_rel_err_mpct
                .push(((out.ns - est).abs() / est * 1e5).round() as u64);
        }
    }
}

/// What the observability exports cost and hold at the end of cycle 0.
#[derive(Clone, Copy, Default)]
struct ObsProbe {
    metrics_json_ms: f64,
    querylog_json_ms: f64,
    metrics_keys: u64,
    querylog_dropped: u64,
}

pub struct QueryWorkload {
    engine: Engine,
    inputs: QueryInputs,
    statements: Vec<Statement>,
    gen_rows_per_s: f64,
    shadow: Option<Shadow>,
    /// All traced cycles, and the first cycle alone (exact counters).
    all: Counters,
    first: Option<(Counters, ObsProbe)>,
}

impl QueryWorkload {
    pub fn setup(inputs: QueryInputs, cfg: &RunConfig, rec: &mut Recorder) -> Self {
        let mut engine = Engine::with_cores(SimConfig::zynq_a53(), SIM_CORES);
        let t = Instant::now();
        let (rows, cols) =
            (inputs.build)(engine.mem(), inputs.rows, cfg.seed).expect("table generation");
        let gen_rows_per_s = ratio(inputs.rows as f64, t.elapsed().as_secs_f64());
        engine.register(inputs.table, rows, cols);

        // The answer oracle, which is also the warm-up.
        let mut statements = Vec::with_capacity(inputs.statements.len());
        for sql in &inputs.statements {
            let mut answers = [0u64; 3];
            let mut sim_ns = [f64::INFINITY; 3];
            for (i, path) in PATHS.into_iter().enumerate() {
                match engine.session().run_on(sql, path) {
                    Ok(out) => {
                        answers[i] = digest(&out.rows);
                        sim_ns[i] = out.ns;
                        rec.check(answers[i] == answers[0], || {
                            format!("{path} disagrees with ROW on `{sql}`")
                        });
                    }
                    Err(e) => rec.check(false, || format!("{path} failed `{sql}`: {e}")),
                }
            }
            let chosen = engine.session().prepare(sql).map(|p| p.path());
            let best = sim_ns.iter().copied().fold(f64::INFINITY, f64::min);
            let regret_pct = chosen.map_or(0.0, |p| {
                let at = PATHS.iter().position(|q| *q == p).unwrap_or(0);
                (sim_ns[at] / best - 1.0) * 100.0
            });
            statements.push(Statement {
                sql: sql.clone(),
                reference: answers[0],
                regret_pct,
            });
        }

        let shadow = cfg.trace.then(|| {
            let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
            let (rows, cols) =
                (inputs.build)(&mut mem, inputs.rows, cfg.seed).expect("table generation");
            let mut catalog = Catalog::new();
            catalog.register(inputs.table, rows, cols);
            Shadow {
                mem,
                catalog,
                rm: RmConfig::prototype(),
            }
        });
        QueryWorkload {
            engine,
            inputs,
            statements,
            gen_rows_per_s,
            shadow,
            all: Counters::default(),
            first: None,
        }
    }
}

/// Run one operation on `session`, time it and check its answer. With a
/// `shadow` (traced cycles) also record its spans and add to `counters`.
fn run_op(
    session: &mut Session<'_>,
    stmt: &Statement,
    path: Option<AccessPath>,
    rec: &mut Recorder,
    shadow: Option<&Shadow>,
    counters: &mut Counters,
) {
    let root = shadow.map(|shadow| {
        let mut root = rec.tracer.begin("op");
        shadow.front_end(&stmt.sql, &mut rec.tracer, &mut root);
        root
    });
    let t0 = Instant::now();
    let prepared = session.prepare(&stmt.sql);
    let t1 = Instant::now();
    let out = prepared.and_then(|p| session.execute_on(&p, path.unwrap_or(p.path())));
    let t2 = Instant::now();
    let ok = matches!(&out, Ok(o) if digest(&o.rows) == stmt.reference);
    let t3 = Instant::now();
    rec.op(
        root.is_some(),
        (t2 - t0).as_nanos() as u64,
        ok,
        || match &out {
            Ok(_) => format!("wrong answer for `{}` on {path:?}", stmt.sql),
            Err(e) => format!("`{}` on {path:?}: {e}", stmt.sql),
        },
    );
    if let Some(mut root) = root {
        let tr = &mut rec.tracer;
        let (a0, a1, a2, a3) = (tr.at(t0), tr.at(t1), tr.at(t2), tr.at(t3));
        tr.child(&mut root, "query.engine.prepare", a0, a1, NO_ARGS);
        let args = out.as_ref().map_or(NO_ARGS, |o| {
            let sim = o.cores.first().map_or(0, |c| c.busy_cycles + c.idle_cycles);
            [("sim_cycles", sim), ("rows", o.rows.len() as u64)]
        });
        tr.child(&mut root, "query.engine.execute", a1, a2, args);
        tr.child(&mut root, "check", a2, a3, NO_ARGS);
        if let Ok(o) = &out {
            counters.add_op(o, a2 - a1);
        }
        tr.end(root);
    }
}

impl Workload for QueryWorkload {
    fn cycle(&mut self, rec: &mut Recorder, traced: bool) {
        let QueryWorkload {
            engine,
            inputs,
            statements,
            shadow,
            all,
            ..
        } = self;
        let mem0 = engine.mem_ref().stats();
        let now0 = engine.mem_ref().now();
        let (plan_hits0, plan_misses0) = engine.plan_cache_stats();
        let evictions0 = engine.op_cache().evictions();
        let (mut reuses, mut allocs) = (0, 0);

        let shadow = shadow.as_ref().filter(|_| traced);
        let mut each = |session: &mut Session<'_>, op: &Op, rec: &mut Recorder| {
            let stmt = &statements[op.stmt as usize];
            run_op(session, stmt, op.path, rec, shadow, all);
        };
        match inputs.sessions {
            Sessions::PerCycle => {
                let mut session = engine.session();
                for op in &inputs.ops {
                    each(&mut session, op, rec);
                }
                reuses += session.scratch_reuses();
                allocs += session.scratch_allocs();
            }
            Sessions::PerOpCold => {
                for op in &inputs.ops {
                    engine.clear_op_cache();
                    let mut session = engine.session();
                    each(&mut session, op, rec);
                    reuses += session.scratch_reuses();
                    allocs += session.scratch_allocs();
                }
            }
        }

        let sim_cycles = engine.mem_ref().now() - now0;
        rec.first_cycle
            .get_or_insert((sim_cycles, inputs.ops.len() as u64));
        if traced {
            let (plan_hits, plan_misses) = engine.plan_cache_stats();
            all.mem
                .accumulate(&engine.mem_ref().stats().delta_since(&mem0));
            all.sim_cycles += sim_cycles;
            all.plan_hits += plan_hits - plan_hits0;
            all.plan_misses += plan_misses - plan_misses0;
            all.opcache_evictions += engine.op_cache().evictions() - evictions0;
            all.opcache_bytes = engine.op_cache().bytes();
            all.scratch_reuses += reuses;
            all.scratch_allocs += allocs;
            if self.first.is_none() {
                let (metrics_json_ms, metrics_keys) = crate::metrics_export(engine.mem_ref());
                let t = Instant::now();
                black_box(engine.querylog().to_json());
                let obs = ObsProbe {
                    metrics_json_ms,
                    querylog_json_ms: t.elapsed().as_secs_f64() * 1e3,
                    metrics_keys,
                    querylog_dropped: engine.querylog().dropped(),
                };
                self.first = Some((all.clone(), obs));
            }
        }
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        let (Some((first, obs)), Some(shadow)) = (self.first.take(), self.shadow.as_mut()) else {
            return;
        };
        let all = &self.all;
        let ops = first.ops as f64;
        let per_op = |x: u64| ratio(x as f64, ops);
        let tr = &rec.tracer;
        let regret: f64 = self
            .inputs
            .ops
            .iter()
            .map(|op| self.statements[op.stmt as usize].regret_pct)
            .sum();
        crate::hierarchy_metrics(
            &first.mem,
            first.ops,
            &all.mem,
            all.sim_cycles,
            all.execute_host_ns,
            out,
        );
        out.extend([
            ("workload.gen_rows_per_s", self.gen_rows_per_s),
            ("parser.host_us_p50", tr.p50_us("query.parser")),
            ("bind.host_us_p50", tr.p50_us("query.bind")),
            ("analyze.host_us_p50", tr.p50_us("query.analyze")),
            ("cost.host_us_p50", tr.p50_us("query.cost")),
            (
                "cost.est_rel_err_pct_p50",
                quantile(&mut first.est_rel_err_mpct.clone(), 0.5) as f64 / 1e3,
            ),
            (
                "cost.regret_pct_mean",
                ratio(regret, self.inputs.ops.len() as f64),
            ),
            (
                "engine.prepare_host_us_p50",
                tr.p50_us("query.engine.prepare"),
            ),
            (
                "engine.execute_host_us_p50",
                tr.p50_us("query.engine.execute"),
            ),
            (
                "engine.plan_cache_hit_ratio",
                ratio(
                    first.plan_hits as f64,
                    (first.plan_hits + first.plan_misses) as f64,
                ),
            ),
            (
                "engine.hit_host_us_p50",
                quantile(&mut all.small_hit_ns.clone(), 0.5) as f64 / 1e3,
            ),
            ("exec.scan_cycles_per_op", per_op(first.scan_cycles)),
            ("exec.merge_cycles_per_op", per_op(first.merge_cycles)),
            ("exec.sort_cycles_per_op", per_op(first.sort_cycles)),
            ("exec.out_rows_per_op", per_op(first.out_rows)),
            (
                "exec.host_ns_per_out_row",
                ratio(all.execute_host_ns as f64, all.out_rows as f64),
            ),
            ("exec.opcache_hit_ratio", per_op(first.cache_hits)),
            ("exec.opcache_evictions", first.opcache_evictions as f64),
            ("exec.opcache_bytes", first.opcache_bytes as f64),
            (
                "exec.scratch_reuse_ratio",
                ratio(
                    first.scratch_reuses as f64,
                    (first.scratch_reuses + first.scratch_allocs) as f64,
                ),
            ),
            ("exec.degraded_ops", first.degraded as f64),
            ("relmem.source_lines_per_op", per_op(first.rm_source_lines)),
            ("relmem.output_lines_per_op", per_op(first.rm_output_lines)),
            (
                "relmem.gather_amplification",
                ratio(first.rm_source_lines as f64, first.rm_output_lines as f64),
            ),
            ("relmem.batches_per_op", per_op(first.rm_batches)),
            ("relmem.retries", first.rm_retries as f64),
            ("obs.metrics_json_host_ms", obs.metrics_json_ms),
            ("obs.querylog_json_host_ms", obs.querylog_json_ms),
            ("obs.metrics_keys", obs.metrics_keys as f64),
            ("obs.querylog_dropped", obs.querylog_dropped as f64),
        ]);

        let mut root = rec.tracer.begin("probes");
        let mut ok = probes::simulator(&mut rec.tracer, &mut root, out);
        ok &= shadow.catalog.get(self.inputs.table).is_ok_and(|entry| {
            probes::storage(
                &mut shadow.mem,
                entry,
                &self.inputs.probe_cols,
                &self.inputs.probe_pred,
                &mut rec.tracer,
                &mut root,
                out,
            )
        });
        rec.tracer.end(root);
        rec.check(ok, || "a kernel probe reported an error".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_bits_order_and_shape() {
        let a = vec![
            vec![Value::F64(0.0), Value::I32(1)],
            vec![Value::Str("x".into())],
        ];
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b[0][0] = Value::F64(-0.0);
        assert_ne!(digest(&a), digest(&b), "-0.0 is not 0.0 bit for bit");
        b = a.clone();
        b.swap(0, 1);
        assert_ne!(digest(&a), digest(&b), "row order counts");
        let split = vec![
            vec![Value::F64(0.0)],
            vec![Value::I32(1), Value::Str("x".into())],
        ];
        assert_ne!(digest(&a), digest(&split), "row boundaries count");
    }
}
