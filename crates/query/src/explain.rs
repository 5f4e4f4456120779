//! EXPLAIN-style plan rendering: what the layout-aware optimizer decided
//! and why — the §III-B story made visible — plus `EXPLAIN ANALYZE`,
//! which *runs* the query on every available path and reports estimated
//! vs. measured cost (cycles and bytes), recording the cost model's
//! relative error into the hierarchy's metrics registry.

use crate::analyze::VerifiedQuery;
use crate::bind::{BoundQuery, OutputItem};
use crate::catalog::TableEntry;
use crate::cost::{AccessPath, PathCost};
use crate::exec::{execute_uncached, opcache, path_tag, rel_err, QueryMetrics, QueryOutput};
use fabric_sim::{topdown, MemoryHierarchy, MetricsRegistry};
use fabric_types::{FabricError, Result};
use mvcc::RecoveryReport;
use std::fmt::Write as _;

/// Render the chosen plan for `bound` as human-readable text, including
/// the per-path cost estimates: `EXPLAIN`, and the header of `EXPLAIN
/// ANALYZE`.
pub(crate) fn render_plan(
    entry: &TableEntry,
    bound: &BoundQuery,
    path: AccessPath,
    cost: &PathCost,
) -> Result<String> {
    let schema = entry.schema();
    let col_name = |slot: usize| -> String {
        schema
            .column(bound.touched[slot])
            .map(|c| c.name.clone())
            .unwrap_or_else(|_| format!("${slot}"))
    };

    let mut out = String::new();
    writeln!(
        out,
        "Plan for `{}` ({} rows)",
        bound.table,
        entry.rows.len()
    )?;
    let access = match path {
        AccessPath::Row => "vectorized morsel scan over the row layout".to_string(),
        AccessPath::Col => "column-at-a-time over the materialized columnar copy".to_string(),
        AccessPath::Rm => format!(
            "Relational Memory: ephemeral column group of {} columns ({} B/row packed)",
            bound.touched.len(),
            bound
                .touched
                .iter()
                .map(|&c| schema.column(c).map(|d| d.ty.width()).unwrap_or(0))
                .sum::<usize>()
        ),
    };
    writeln!(out, "  access: {path} — {access}")?;

    if !bound.preds.is_empty() {
        let preds: Vec<String> = bound
            .preds
            .iter()
            .map(|(slot, op, v)| format!("{} {op} {v}", col_name(*slot)))
            .collect();
        writeln!(out, "  filter: {}", preds.join(" AND "))?;
    }
    let items: Vec<String> = bound
        .items
        .iter()
        .map(|item| match item {
            OutputItem::Expr(e) => e.to_string(),
            OutputItem::Agg(f, e) => format!("{}({e})", f.name()),
        })
        .collect();
    writeln!(out, "  output: {}", items.join(", "))?;
    if !bound.group_by.is_empty() {
        let keys: Vec<String> = bound.group_by.iter().map(|&s| col_name(s)).collect();
        writeln!(out, "  group by: {}", keys.join(", "))?;
    }
    if !bound.order_by.is_empty() {
        let keys: Vec<String> = bound
            .order_by
            .iter()
            .map(|&(pos, desc)| format!("#{}{}", pos + 1, if desc { " DESC" } else { "" }))
            .collect();
        writeln!(out, "  order by: {}", keys.join(", "))?;
    }
    if let Some(limit) = bound.limit {
        writeln!(out, "  limit: {limit}")?;
    }
    // How the shared tail orders the merged batch: a sort of all of it, or
    // a selection of the first `k` rows (`exec::order_rows`).
    match (bound.order_by.is_empty(), bound.limit) {
        (true, _) => {}
        (false, None) => writeln!(out, "  post: sort")?,
        (false, Some(k)) => writeln!(out, "  post: top-k (k = {k})")?,
    }

    writeln!(
        out,
        "  estimates: ROW {:.3} ms | COL {} | RM {:.3} ms{}",
        cost.row_ns / 1e6,
        cost.col_ns
            .map(|c| format!("{:.3} ms", c / 1e6))
            .unwrap_or_else(|| "unavailable (no columnar copy)".into()),
        cost.rm_ns / 1e6,
        if cost.cores > 1 {
            format!(" (priced at {} cores)", cost.cores)
        } else {
            String::new()
        },
    )?;
    Ok(out)
}

/// One access path's estimated-vs-measured comparison from `EXPLAIN
/// ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathReport {
    pub path: AccessPath,
    /// The cost model's prediction.
    pub est_ns: f64,
    /// Simulated time the path actually took.
    pub actual_ns: f64,
    /// The cost model's predicted data movement.
    pub est_bytes: f64,
    /// Bytes actually moved: hierarchy payload reads for ROW/COL, packed
    /// lines delivered over the bus for RM.
    pub actual_bytes: u64,
}

impl PathReport {
    /// |est − actual| / actual, in percent (actual floored at one unit so
    /// an empty run cannot divide by zero).
    pub fn ns_rel_err_pct(&self) -> f64 {
        rel_err_pct(self.est_ns, self.actual_ns)
    }

    pub fn bytes_rel_err_pct(&self) -> f64 {
        rel_err_pct(self.est_bytes, self.actual_bytes as f64)
    }
}

fn rel_err_pct(est: f64, actual: f64) -> f64 {
    rel_err(est, actual, actual.max(1.0)) * 100.0
}

/// Run a prepared plan — `verified`, priced at `cost`, signed `key` — on
/// every *available* path and measure actual cost. Returns the per-path
/// reports plus the chosen path's output, whose phase profile, per-core
/// attribution and per-operator records are the breakdowns EXPLAIN
/// ANALYZE renders. Each path's relative error lands in the hierarchy's
/// metrics registry as `explain.rel_err_pct.{ns,bytes}.<path>` gauges.
pub(crate) fn analyze_paths(
    mem: &mut MemoryHierarchy,
    metrics: &mut QueryMetrics,
    entry: &TableEntry,
    verified: &VerifiedQuery,
    cost: &PathCost,
    key: u128,
) -> Result<(Vec<PathReport>, QueryOutput)> {
    let chosen = cost.best();
    let line = mem.config().line_size as u64;

    let mut reports = Vec::new();
    let mut chosen_out = None;
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        // An unpriced path (COL without a columnar copy) is unavailable.
        let (Some(est_ns), Some(est_bytes)) = (cost.ns(path), cost.bytes(path)) else {
            continue;
        };
        let before = mem.stats();
        let path_key = opcache::keyed(key, path);
        let out = execute_uncached(mem, metrics, entry, verified, path, *cost, path_key)?;
        let d = mem.stats().delta_since(&before);
        let actual_bytes = match (&out.rm_stats, path) {
            (Some(rm), AccessPath::Rm) => rm.output_lines * line,
            _ => d.bytes_read,
        };
        let report = PathReport {
            path,
            est_ns,
            actual_ns: out.ns,
            est_bytes,
            actual_bytes,
        };
        let key = path_tag(path);
        // Per-operator calibration gauges for this path: how far each
        // operator's estimate share drifted from its apportioned actual. The
        // merge is excluded — its estimate is the f64 fix-up remainder, so
        // a relative error against it is numerology, not calibration.
        let op_errs: Vec<(String, f64)> = out
            .ops
            .iter()
            .filter(|o| o.op != "merge")
            .map(|o| {
                let actual_ns = mem.config().cycles_to_ns(o.actual_cycles);
                (
                    format!("explain.op_rel_err_pct.ns.{key}.{}", o.op),
                    rel_err_pct(o.est_ns, actual_ns),
                )
            })
            .collect();
        let metrics = mem.metrics_mut();
        for (name, err) in op_errs {
            metrics.gauge_set(&name, err);
        }
        metrics.gauge_set(
            &format!("explain.rel_err_pct.ns.{key}"),
            report.ns_rel_err_pct(),
        );
        metrics.gauge_set(
            &format!("explain.rel_err_pct.bytes.{key}"),
            report.bytes_rel_err_pct(),
        );
        if path == chosen {
            chosen_out = Some(out);
        }
        reports.push(report);
    }
    mem.metrics_mut().counter_add("explain.analyze_runs", 1);
    let chosen_out = chosen_out.ok_or_else(|| {
        FabricError::Internal(format!("EXPLAIN ANALYZE chose the unpriced path {chosen}"))
    })?;
    Ok((reports, chosen_out))
}

/// `EXPLAIN ANALYZE`'s body under the rendered plan (`header`): a table of
/// estimated vs. actual cost (cycles and bytes) per path with the cost
/// model's relative error, then the chosen path's (`chosen`) per-operator,
/// per-phase, per-core and top-down breakdowns.
pub(crate) fn render_analyze(
    header: &str,
    has_cols: bool,
    reports: &[PathReport],
    chosen: &QueryOutput,
) -> Result<String> {
    let (ops, profile, cores) = (&chosen.ops, &chosen.profile, &chosen.cores);
    let mut out = String::from(header);
    writeln!(out, "  analyze:")?;
    for r in reports {
        writeln!(
            out,
            "    {:<3}  est {:>10.3} ms / {:>12.0} B   actual {:>10.3} ms / {:>12} B   err ns {:>6.1}% bytes {:>6.1}%",
            r.path.to_string(),
            r.est_ns / 1e6,
            r.est_bytes,
            r.actual_ns / 1e6,
            r.actual_bytes,
            r.ns_rel_err_pct(),
            r.bytes_rel_err_pct(),
        )?;
    }
    if !has_cols {
        writeln!(out, "    COL  unavailable (no columnar copy)")?;
    }
    if !ops.is_empty() {
        writeln!(out, "  operators (chosen path):")?;
        for (depth, o) in ops.iter().enumerate() {
            let connector = if depth == 0 {
                String::new()
            } else {
                format!("{}└─ ", "   ".repeat(depth - 1))
            };
            let label = format!("{connector}{}", o.op);
            write!(
                out,
                "    {:<24}  est {:>10.3} ms / {:>12.0} B   actual {:>12} cycles / {:>12} B   rows {} -> {}   inv {}",
                label,
                o.est_ns / 1e6,
                o.est_bytes,
                o.actual_cycles,
                o.actual_bytes,
                o.rows_in,
                o.rows_out,
                o.invocations,
            )?;
            if o.op == "filter" && o.rows_in > 0 {
                // The cost model prices the filter over every scanned row
                // (estimated selectivity 100%); the observed selectivity
                // is what the predicate actually let through.
                writeln!(
                    out,
                    "   selectivity est 100.0% obs {:>5.1}%",
                    o.rows_out as f64 / o.rows_in as f64 * 100.0
                )?;
            } else {
                writeln!(out)?;
            }
        }
    }
    if !profile.is_empty() {
        writeln!(out, "  nodes (chosen path):")?;
        for p in profile {
            writeln!(
                out,
                "    {:<18}  {:>12} cycles  {:>12} B read  {:>12} stall cycles{}",
                p.name,
                p.cycles,
                p.bytes_read,
                p.stall_cycles,
                if p.failed { "  [failed]" } else { "" },
            )?;
        }
    }
    if !cores.is_empty() {
        writeln!(out, "  cores (chosen path):")?;
        let elapsed: u64 = cores.iter().map(|a| a.elapsed()).max().unwrap_or(0);
        for a in cores {
            writeln!(
                out,
                "    core {:<2}  busy {:>12} cycles ({:>5.1}%)  cpu {:>12}  stall {:>12}  mem {:>12}  idle {:>12}  {:>12} B read",
                a.core,
                a.busy_cycles,
                a.busy_cycles as f64 / (elapsed.max(1)) as f64 * 100.0,
                a.retired,
                a.stall_cycles(),
                a.mem_lat(),
                a.idle_cycles,
                a.bytes_read,
            )?;
        }
        writeln!(out, "    elapsed {elapsed} cycles (global clock)")?;
        writeln!(out, "  top-down (chosen path):")?;
        out.push_str(&topdown::render(cores));
    }
    Ok(out)
}

/// The per-class latency digest appended to `EXPLAIN ANALYZE` by the
/// session API: sample count and deterministic p50/p95/p99 (in simulated
/// cycles) of every query class the engine has executed so far, cold runs
/// and op-cache hits on rows of their own — a hit is orders of magnitude
/// cheaper, and pooling the two would make both sets of percentiles
/// meaningless. Empty when no session query has run yet.
pub(crate) fn render_latency_section(reg: &MetricsRegistry) -> Result<String> {
    let mut out = String::new();
    for class in ["q1", "q6", "scan"] {
        for temp in ["cold", "hit"] {
            let key = format!("query.class.{class}.{temp}.latency_cycles");
            let Some(h) = reg.histogram(&key) else {
                continue;
            };
            if out.is_empty() {
                writeln!(out, "  latency (cycle-domain, engine lifetime):")?;
            }
            writeln!(
                out,
                "    {:<4}  {:<4}  n {:>6}  p50 {:>12.0}  p95 {:>12.0}  p99 {:>12.0} cycles",
                class,
                temp,
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            )?;
        }
    }
    Ok(out)
}

/// The recovery appendix of `EXPLAIN ANALYZE`: one line per table the
/// engine opened from a crash image, with the report's headline numbers.
/// Empty when the engine never recovered anything.
pub(crate) fn render_recovery_section(recoveries: &[(String, RecoveryReport)]) -> Result<String> {
    let mut out = String::new();
    for (name, r) in recoveries {
        if out.is_empty() {
            writeln!(out, "  recovered tables:")?;
        }
        writeln!(
            out,
            "    `{}`  watermark {}  commits {}  checkpoint {}  torn-tail {} B{}",
            name,
            r.watermark,
            r.commits_replayed,
            r.checkpoint_used
                .map_or_else(|| "-".to_string(), |id| id.to_string()),
            r.truncated_bytes,
            match &r.degraded {
                Some(why) => format!("  DEGRADED: {why}"),
                None => String::new(),
            },
        )?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use colstore::ColTable;
    use fabric_sim::SimConfig;
    use fabric_types::{ColumnType, Schema, Value};
    use rowstore::RowTable;

    /// `orders`, 8000 rows, no columnar copy.
    fn engine() -> Engine {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let mem = engine.mem();
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("qty", ColumnType::F64),
            ("region", ColumnType::FixedStr(1)),
        ]);
        let mut t = RowTable::create(mem, schema, 8192).unwrap();
        for i in 0..8000i64 {
            t.load(
                mem,
                &[Value::I64(i), Value::F64(i as f64), Value::Str("N".into())],
            )
            .unwrap();
        }
        engine.register_rows("orders", t);
        engine
    }

    /// `orders(id, qty)` in both layouts, so all three paths run.
    fn both_layouts(mem: &mut MemoryHierarchy, rows: i64) -> (RowTable, ColTable) {
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut rt = RowTable::create(mem, schema.clone(), rows as usize).unwrap();
        let mut ct = ColTable::create(mem, schema, rows as usize).unwrap();
        for i in 0..rows {
            let row = vec![Value::I64(i), Value::F64(i as f64)];
            rt.load(mem, &row).unwrap();
            ct.load(mem, &row).unwrap();
        }
        (rt, ct)
    }

    #[test]
    fn explain_names_the_plan_pieces() {
        let text = engine()
            .session()
            .explain(
                "SELECT region, sum(qty) FROM orders WHERE id < 10 \
                 GROUP BY region ORDER BY 2 DESC LIMIT 5",
            )
            .unwrap();
        assert!(text.contains("Plan for `orders` (8000 rows)"), "{text}");
        assert!(text.contains("filter: id < 10"), "{text}");
        assert!(text.contains("group by: region"), "{text}");
        assert!(text.contains("order by: #2 DESC"), "{text}");
        assert!(text.contains("limit: 5"), "{text}");
        assert!(text.contains("post: top-k (k = 5)"), "{text}");
        assert!(text.contains("estimates: ROW"), "{text}");
        assert!(text.contains("unavailable (no columnar copy)"), "{text}");
    }

    #[test]
    fn explain_reports_the_chosen_access() {
        // Narrow rows (17 bytes, 8 touched): the vectorized ROW morsel
        // kernel amortized away the per-row interpreter overhead, so the
        // line stream wins even against the fabric — the crossover moved
        // with the engine and the model moved with it.
        let mut engine = engine();
        let text = engine
            .session()
            .explain("SELECT sum(qty) FROM orders")
            .unwrap();
        assert!(text.contains("access: ROW"), "{text}");

        // Wide rows, low projectivity: ROW drags the untouched 120
        // bytes per row through the hierarchy, and the fabric path wins
        // scans — the paper's headline regime is unchanged.
        let pairs: Vec<(&str, ColumnType)> = (0..16)
            .map(|i| {
                let name: &'static str = Box::leak(format!("c{i}").into_boxed_str());
                (name, ColumnType::I64)
            })
            .collect();
        let schema = Schema::from_pairs(&pairs);
        let mut t = RowTable::create(engine.mem(), schema, 8192).unwrap();
        for i in 0..8000i64 {
            t.load(
                engine.mem(),
                &(0..16).map(|k| Value::I64(i + k)).collect::<Vec<_>>(),
            )
            .unwrap();
        }
        engine.register_rows("wide", t);
        let text = engine
            .session()
            .explain("SELECT sum(c3) FROM wide")
            .unwrap();
        assert!(text.contains("access: RM"), "{text}");
        assert!(text.contains("ephemeral column group"), "{text}");
    }

    #[test]
    fn explain_propagates_bind_errors() {
        let mut engine = engine();
        let mut s = engine.session();
        assert!(s.explain("SELECT nope FROM orders").is_err());
        assert!(s.explain("SELECT id FROM missing").is_err());
    }

    #[test]
    fn explain_analyze_measures_all_three_paths() {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let (rt, ct) = both_layouts(engine.mem(), 2000);
        engine.register("orders", rt, ct);
        let text = engine
            .session()
            .explain_analyze("SELECT sum(qty) FROM orders WHERE id < 1000")
            .unwrap();
        let mem = engine.mem_ref();
        assert!(text.contains("analyze:"), "{text}");
        for path in ["ROW", "COL", "RM"] {
            assert!(
                text.lines().any(|l| {
                    l.trim_start().starts_with(path) && l.contains("est") && l.contains("actual")
                }),
                "missing {path} analyze row in:\n{text}"
            );
        }
        assert!(text.contains("err ns"), "{text}");
        assert!(text.contains("nodes (chosen path):"), "{text}");
        assert!(text.contains("top-down (chosen path):"), "{text}");
        assert!(text.contains("stall.retry"), "{text}");
        // Relative-error gauges landed in the metrics registry for every
        // path, and the model stays honest on this selective-aggregate
        // shape: the ROW estimate tracks the vectorized morsel kernel
        // (the old per-row Volcano pricing would drift past 50% here),
        // and the COL/RM estimates stay within their documented slack.
        for (key, bound) in [("row", 30.0), ("col", 60.0), ("rm", 50.0)] {
            for dim in ["ns", "bytes"] {
                let name = format!("explain.rel_err_pct.{dim}.{key}");
                assert!(mem.metrics().gauge(&name).is_some(), "missing gauge {name}");
            }
            let err = mem
                .metrics()
                .gauge(&format!("explain.rel_err_pct.ns.{key}"))
                .unwrap();
            assert!(err < bound, "{key} ns rel-err {err:.1}% ≥ {bound}%");
        }
        // The per-operator split inherits the same honesty: every
        // stage-0 operator's rel-err gauge stays inside the path bound
        // (the scan absorbs the phase remainder, so it is the
        // worst-case node).
        for (key, scan, bound) in [
            ("row", "scan_row", 30.0),
            ("col", "scan_col", 60.0),
            ("rm", "scan_rm", 50.0),
        ] {
            let name = format!("explain.op_rel_err_pct.ns.{key}.{scan}");
            let err = mem
                .metrics()
                .gauge(&name)
                .unwrap_or_else(|| panic!("missing gauge {name}"));
            assert!(err < bound, "{name} = {err:.1}% ≥ {bound}%");
        }
        assert!(text.contains("operators (chosen path):"), "{text}");
        assert!(text.contains("selectivity est 100.0%"), "{text}");
        assert_eq!(mem.metrics().counter("explain.analyze_runs"), 1);
    }

    #[test]
    fn explain_analyze_without_columnar_copy_marks_col_unavailable() {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut t = RowTable::create(engine.mem(), schema, 512).unwrap();
        for i in 0..500i64 {
            t.load(engine.mem(), &[Value::I64(i), Value::F64(i as f64)])
                .unwrap();
        }
        engine.register_rows("orders", t);
        let text = engine
            .session()
            .explain_analyze("SELECT sum(qty) FROM orders ORDER BY 1")
            .unwrap();
        let mem = engine.mem_ref();
        assert!(
            text.contains("COL  unavailable (no columnar copy)"),
            "{text}"
        );
        // A full sort is rendered as one, and its phase keeps its name.
        assert!(text.contains("post: sort\n"), "{text}");
        assert!(text.contains("query::post::sort"), "{text}");
        assert!(mem.metrics().gauge("explain.rel_err_pct.ns.col").is_none());
        assert!(mem.metrics().gauge("explain.rel_err_pct.ns.rm").is_some());
    }

    #[test]
    fn analyze_reports_are_structurally_sound() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let (rt, ct) = both_layouts(&mut mem, 500);
        let mut c = crate::catalog::Catalog::new();
        c.register("orders", rt, ct);
        let stmt = crate::parser::parse("SELECT id FROM orders WHERE id < 100").unwrap();
        let bound = crate::bind::bind(&c, &stmt).unwrap();
        let (verified, cost, key) = crate::engine::prepare_plan(&mem, &c, &bound).unwrap();
        let entry = c.get("orders").unwrap();
        let (reports, chosen) = analyze_paths(
            &mut mem,
            &mut QueryMetrics::default(),
            entry,
            &verified,
            &cost,
            key,
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.actual_ns > 0.0, "{r:?}");
            assert!(r.actual_bytes > 0, "{r:?}");
            assert!(r.est_ns > 0.0 && r.est_bytes > 0.0, "{r:?}");
            assert!(r.ns_rel_err_pct().is_finite());
            assert!(r.bytes_rel_err_pct().is_finite());
        }
        // The chosen path's profile has at least its scan node.
        assert!(reports.iter().any(|r| r.path == chosen.path));
        assert!(!chosen.profile.is_empty());
        assert!(chosen
            .profile
            .iter()
            .any(|p| p.name.starts_with("query::scan::")));
    }
}
