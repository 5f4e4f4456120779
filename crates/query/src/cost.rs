//! The layout-aware cost model (paper §III-B).
//!
//! With a Relational Fabric the optimizer *constructs* the cheapest access
//! instead of searching a combinatorial space: for a scan-shaped query the
//! candidate paths are exactly three, and the per-row cost of each is a
//! short closed form mirroring the calibrated engine behaviours:
//!
//! * **ROW** — a vectorized morsel scan over the base rows: line traffic
//!   for the touched spans plus per-row decode and predicate cycles;
//! * **COL** — column-at-a-time over the materialized columnar copy (only
//!   if one exists!): one stream per column, selection passes, tuple
//!   reconstruction past the prefetcher's stream budget;
//! * **RM**  — ephemeral column group: device row beat overlapped with a
//!   single packed consumer stream.

use crate::bind::{BoundQuery, OutputItem};
use crate::catalog::TableEntry;
use fabric_sim::SimConfig;
use fabric_types::geometry::merge_field_spans;
use fabric_types::{FabricError, Result};
use relmem::RmConfig;

/// The three physical access paths of the fabric world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    Row,
    Col,
    Rm,
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessPath::Row => "ROW",
            AccessPath::Col => "COL",
            AccessPath::Rm => "RM",
        })
    }
}

/// Estimated nanoseconds and data movement per path (`None` = path
/// unavailable). The byte estimates let `EXPLAIN ANALYZE` report the cost
/// model's relative error against the hierarchy's measured traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    pub row_ns: f64,
    pub col_ns: Option<f64>,
    pub rm_ns: f64,
    /// Core count the estimates are priced for. Morsel-parallel speedup is
    /// capped by the shared L2-port/DRAM bandwidth floor, so `row_ns` at 4
    /// cores is *not* `row_ns(1) / 4` for memory-bound scans.
    pub cores: usize,
    /// Payload bytes the ROW path reads through the hierarchy (the touched
    /// spans of every base row).
    pub row_bytes: f64,
    /// Bytes the COL path reads: projection streams plus selection passes.
    pub col_bytes: Option<f64>,
    /// Bytes the RM device delivers over the bus (line-granular packed
    /// output).
    pub rm_bytes: f64,
}

impl PathCost {
    /// The cheapest available path.
    pub fn best(&self) -> AccessPath {
        let mut best = (AccessPath::Row, self.row_ns);
        if let Some(c) = self.col_ns {
            if c < best.1 {
                best = (AccessPath::Col, c);
            }
        }
        if self.rm_ns < best.1 {
            best = (AccessPath::Rm, self.rm_ns);
        }
        best.0
    }

    /// Estimated nanoseconds for `path` (`None` = unavailable).
    pub fn ns(&self, path: AccessPath) -> Option<f64> {
        match path {
            AccessPath::Row => Some(self.row_ns),
            AccessPath::Col => self.col_ns,
            AccessPath::Rm => Some(self.rm_ns),
        }
    }

    /// Estimated bytes moved for `path` (`None` = unavailable).
    pub fn bytes(&self, path: AccessPath) -> Option<f64> {
        match path {
            AccessPath::Row => Some(self.row_bytes),
            AccessPath::Col => self.col_bytes,
            AccessPath::Rm => Some(self.rm_bytes),
        }
    }
}

/// Estimate all three paths when the scan is morsel-parallelized over
/// `cores` simulated cores.
///
/// The parallel term divides each path's software time by the core count
/// but floors it at the shared-memory bandwidth: every line a core misses
/// must cross the single L2 port (and ultimately the shared DRAM
/// controller), so a memory-bound scan stops scaling once the port is
/// saturated. The RM path only parallelizes its *consume* side — the
/// device produces batches at its own serial beat regardless of how many
/// cores drain them.
pub fn estimate_parallel(
    sim: &SimConfig,
    rm: &RmConfig,
    entry: &TableEntry,
    bound: &BoundQuery,
    cores: usize,
) -> Result<PathCost> {
    let rows = entry.rows.len() as f64;
    let line = sim.line_size as f64;
    let t = path_terms(sim, rm, entry, bound)?;

    let row_ns_per = t.row_scan_ns + t.pred_ns + t.consume_ns;
    let col_ns_per = t.col_scan_ns.map(|scan| scan + t.pred_ns + t.consume_ns);

    // RM: device row beat overlapped with packed consumption.
    let rm_consume = t.rm_scan_ns + t.pred_ns + t.consume_ns;
    let rm_ns_per = rm.engine_ns_per_row.max(rm_consume);

    let row_bytes = t.row_bytes;
    let col_bytes = t.col_bytes;
    let rm_bytes = t.rm_bytes;

    // Parallel scaling: divide by cores, floored at the shared-resource
    // bandwidth (one line per L2-port slot, DRAM banks overlapped behind
    // it) and never cheaper than that floor allows.
    let cores_f = cores.max(1) as f64;
    let shared_line_ns = sim
        .cycles_to_ns(sim.l2_port_cycles)
        .max(sim.dram_row_hit_ns / sim.dram_banks as f64);
    let par = |serial_ns: f64, bytes: f64| {
        let floor_ns = (bytes / line) * shared_line_ns;
        (serial_ns / cores_f).max(floor_ns).min(serial_ns)
    };

    let rm_consume_total = rm_consume * rows;
    let rm_engine_total = rm.engine_ns_per_row * rows;
    // `rm_ns_per` (the serial per-row max) is what cores == 1 must match.
    let rm_ns = if cores <= 1 {
        rm_ns_per * rows + rm.configure_ns
    } else {
        rm_engine_total.max(par(rm_consume_total, rm_bytes)) + rm.configure_ns
    };

    Ok(PathCost {
        row_ns: par(row_ns_per * rows, row_bytes),
        col_ns: col_ns_per.map(|c| par(c * rows, col_bytes.unwrap_or(0.0))),
        rm_ns,
        cores: cores.max(1),
        row_bytes,
        col_bytes,
        rm_bytes,
    })
}

/// Per-operator cost components of the three paths, before parallel
/// scaling. The per-row time of every path is the sum of a path-specific
/// scan term plus the shared `pred` and `consume` terms — the three pieces
/// of stage 0's fused kernel, which is what lets [`split_path_cost`]
/// attribute the path estimate to individual operators.
struct PathTerms {
    /// ROW scan per-row ns: line traffic + morsel-kernel decode.
    row_scan_ns: f64,
    /// COL scan per-row ns (`None` without a columnar copy).
    col_scan_ns: Option<f64>,
    /// RM consume-side per-row ns (bus transfer + vectorized drain);
    /// the device beat `rm.engine_ns_per_row` overlaps it.
    rm_scan_ns: f64,
    /// Predicate evaluation per row (the Filter operator's share).
    pred_ns: f64,
    /// Projection/aggregation per row (the Project|Aggregate share).
    consume_ns: f64,
    /// Payload bytes the ROW path reads (all rows).
    row_bytes: f64,
    /// Bytes the COL path reads (all rows).
    col_bytes: Option<f64>,
    /// Bytes the RM device ships (all rows, line-granular).
    rm_bytes: f64,
}

/// Compute the shared per-operator terms. Extracted from
/// [`estimate_parallel`] verbatim — association order of every float
/// expression is load-bearing (the perf gate pins estimates bit-exactly).
fn path_terms(
    sim: &SimConfig,
    rm: &RmConfig,
    entry: &TableEntry,
    bound: &BoundQuery,
) -> Result<PathTerms> {
    let rows = entry.rows.len() as f64;
    let layout = entry.rows.layout();
    let line = sim.line_size as f64;
    let l2_ns = sim.cycles_to_ns(sim.l2_hit_cycles);
    let cyc = |c: u64| sim.cycles_to_ns(c);
    let costs = fabric_sim::hierarchy::OpCosts::default();

    let n_touched = bound.touched.len() as f64;
    let n_preds = bound.preds.len() as f64;
    // Group width the query moves per row.
    let fields = layout.fields(&bound.touched)?;
    let group_width: usize = fields.iter().map(|f| f.width()).sum();
    let spans = merge_field_spans(&fields, 0);
    let span_lines: f64 = spans
        .iter()
        .map(|&(_, len)| (len as f64 / line).ceil().max(1.0))
        .sum();

    // Shared per-row compute: predicate evaluation + consumption.
    let agg_ops: u64 = bound
        .items
        .iter()
        .map(|i| match i {
            OutputItem::Agg(_, e) => e.ops() + 1,
            OutputItem::Expr(e) => e.ops() + 1,
        })
        .sum();
    let consume_ns = if bound.has_aggregates() {
        let hash = if bound.group_by.is_empty() {
            0.0
        } else {
            cyc(costs.hash_op)
        };
        hash + cyc(costs.f64_op) * agg_ops as f64
    } else {
        cyc(costs.value_op) * agg_ops as f64
    };
    let pred_ns = cyc(costs.value_op) * n_preds;

    // ROW: prefetched line stream + the vectorized morsel kernel. Rows
    // narrower than a line share line fetches; wider rows pay one fetch
    // per span line. The kernel replaced the old per-row Volcano
    // `next()` pair with one vector-setup charge per morsel, amortized
    // here across the morsel's rows; predicates are branch-free, so
    // there is no mispredict term either.
    let rows_per_line = (line / layout.row_width() as f64).max(1.0);
    let row_mem = span_lines * l2_ns / rows_per_line;
    let row_scan_ns = row_mem
        + cyc(costs.vector_setup) / crate::exec::MORSEL_ROWS as f64
        + cyc(costs.decode) * n_touched;

    // COL: per touched column one stream (sequential line cost amortized)
    // plus vectorized per-value work; selection passes add full-column
    // evaluation; beyond the prefetcher's stream budget reconstruction
    // pays demand misses.
    let col_scan_ns = entry.cols.as_ref().map(|_| {
        let per_col_bytes: f64 = group_width as f64 / n_touched.max(1.0);
        let seq_line = l2_ns / (line / per_col_bytes);
        let stream_penalty = if n_touched > sim.prefetch_streams as f64 {
            // A fraction of line fetches become overlapped demand misses.
            let miss = sim.dram_row_miss_ns + sim.dram_demand_overhead_ns;
            (miss / 16.0) * (n_touched - sim.prefetch_streams as f64) / n_touched
        } else {
            0.0
        };
        n_touched * (seq_line + cyc(costs.vector_elem + costs.reconstruct) + stream_penalty)
    });

    // RM consume side: bus transfer of the packed group + the vectorized
    // drain kernel.
    let rm_scan_ns = (group_width as f64 / line) * rm.bus_ns_per_line + cyc(costs.vector_elem);

    // Data movement per path. ROW reads the touched spans of every base
    // row; COL streams the projected columns and re-reads the distinct
    // predicate columns for its selection passes; RM ships line-granular
    // packed output over the bus.
    let span_bytes: f64 = spans.iter().map(|&(_, len)| len as f64).sum();
    let row_bytes = span_bytes * rows;
    let pred_bytes: f64 = {
        let mut cols: Vec<usize> = bound.preds.iter().map(|(slot, ..)| *slot).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.iter().map(|&slot| fields[slot].width() as f64).sum()
    };
    let col_bytes = entry
        .cols
        .as_ref()
        .map(|_| (group_width as f64 + pred_bytes) * rows);
    let packed_rows_per_line = (line / group_width as f64).floor().max(1.0);
    let rm_bytes = (rows / packed_rows_per_line).ceil() * line;

    Ok(PathTerms {
        row_scan_ns,
        col_scan_ns,
        rm_scan_ns,
        pred_ns,
        consume_ns,
        row_bytes,
        col_bytes,
        rm_bytes,
    })
}

/// One operator's share of a path estimate, produced by
/// [`split_path_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpEstimate {
    /// Operator name (`scan_row`, `scan_col`, `scan_rm`, `filter`,
    /// `aggregate`, `project`, `merge`).
    pub op: &'static str,
    /// This operator's share of the path's estimated nanoseconds.
    pub ns: f64,
    /// This operator's share of the path's estimated bytes (all data
    /// movement is attributed to the scan node).
    pub bytes: f64,
}

/// The one place a plan's operator list is decided: split a path's
/// estimate across `scan_<path> → [filter] → project|aggregate → merge`,
/// in that order. The first three are stage 0's fused kernel; `filter`
/// exists only under predicates. The executor's per-operator records
/// follow this list and derive their rows from the stage totals.
///
/// Shares are proportional to the per-row cost terms of
/// [`estimate_parallel`] (scan term, predicate term, consume term);
/// the merge node absorbs the floating-point residue so the shares sum
/// to the path estimate **bit-exactly** — enforced here like the
/// top-down `buckets_reconcile` invariant, and re-checked by the
/// querylog determinism suite.
pub fn split_path_cost(
    sim: &SimConfig,
    rm: &RmConfig,
    entry: &TableEntry,
    bound: &BoundQuery,
    path: AccessPath,
    cost: &PathCost,
) -> Result<Vec<OpEstimate>> {
    let total_ns = cost.ns(path).ok_or_else(|| {
        FabricError::Internal(format!("cannot split estimate of unavailable path {path}"))
    })?;
    let total_bytes = cost.bytes(path).unwrap_or(0.0);
    let t = path_terms(sim, rm, entry, bound)?;

    let scan_weight = match path {
        AccessPath::Row => t.row_scan_ns,
        AccessPath::Col => t.col_scan_ns.ok_or_else(|| {
            FabricError::Internal("COL split requested without a columnar copy".to_string())
        })?,
        // The device beat overlaps the consume stream; the scan node owns
        // whichever side dominates.
        AccessPath::Rm => rm.engine_ns_per_row.max(t.rm_scan_ns),
    };
    let scan_op = match path {
        AccessPath::Row => "scan_row",
        AccessPath::Col => "scan_col",
        AccessPath::Rm => "scan_rm",
    };

    // Stage-0 weights: the filter exists only under predicates;
    // consumption is an aggregate or a projection.
    let mut weighted: Vec<(&'static str, f64)> = vec![(scan_op, scan_weight)];
    if !bound.preds.is_empty() {
        weighted.push(("filter", t.pred_ns));
    }
    weighted.push((
        if bound.has_aggregates() {
            "aggregate"
        } else {
            "project"
        },
        t.consume_ns,
    ));

    let wsum: f64 = weighted.iter().map(|(_, w)| w).sum();
    let mut ops: Vec<OpEstimate> = if wsum > 0.0 {
        weighted
            .iter()
            .map(|&(op, w)| OpEstimate {
                op,
                ns: total_ns * (w / wsum),
                bytes: 0.0,
            })
            .collect()
    } else {
        // Degenerate weights: the scan owns the whole estimate.
        weighted
            .iter()
            .enumerate()
            .map(|(i, &(op, _))| OpEstimate {
                op,
                ns: if i == 0 { total_ns } else { 0.0 },
                bytes: 0.0,
            })
            .collect()
    };
    ops[0].bytes = total_bytes;

    // The merge node is driver-side bookkeeping the path model does not
    // price; it absorbs the remainder so the left-to-right sum lands on
    // the path estimate exactly. `total - s + s == total` is not an f64
    // identity, so nudge the remainder until the re-summed total
    // round-trips (one or two iterations in practice).
    let stage0_sum = |ops: &[OpEstimate]| ops.iter().map(|o| o.ns).fold(0.0, |a, b| a + b);
    let mut merge_ns = total_ns - stage0_sum(&ops);
    for _ in 0..4 {
        let sum = stage0_sum(&ops) + merge_ns;
        if sum == total_ns {
            break;
        }
        merge_ns += total_ns - sum;
    }
    ops.push(OpEstimate {
        op: "merge",
        ns: merge_ns,
        bytes: 0.0,
    });
    let sum = stage0_sum(&ops);
    if sum != total_ns {
        return Err(FabricError::Internal(format!(
            "per-operator estimates sum to {sum} but the {path} path estimate is {total_ns}"
        )));
    }
    Ok(ops)
}

/// Pick the best path when the executor has `cores` simulated cores (the
/// "construct the fastest plan" of §III-B): a 1-core RM win can flip to a
/// parallel software scan once the morsel speedup outruns the device's
/// serial production beat (and vice versa — the bandwidth floor keeps
/// wide scans on the device).
pub fn choose_path_parallel(
    sim: &SimConfig,
    rm: &RmConfig,
    entry: &TableEntry,
    bound: &BoundQuery,
    cores: usize,
) -> Result<(AccessPath, PathCost)> {
    let cost = estimate_parallel(sim, rm, entry, bound, cores)?;
    Ok((cost.best(), cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use colstore::ColTable;
    use fabric_sim::MemoryHierarchy;
    use fabric_types::{ColumnType, Schema, Value};
    use rowstore::RowTable;

    fn catalog(with_cols: bool) -> Catalog {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::uniform(16, ColumnType::I32);
        let mut t = RowTable::create(&mut mem, schema.clone(), 4096).unwrap();
        let mut ct = ColTable::create(&mut mem, schema, 4096).unwrap();
        let row: Vec<Value> = (0..16).map(Value::I32).collect();
        for _ in 0..1000 {
            t.load(&mut mem, &row).unwrap();
            ct.load(&mut mem, &row).unwrap();
        }
        let mut c = Catalog::new();
        if with_cols {
            c.register("t", t, ct);
        } else {
            c.register_rows("t", t);
        }
        c
    }

    fn cost_of(c: &Catalog, sql: &str) -> (AccessPath, PathCost) {
        let bound = bind(c, &parse(sql).unwrap()).unwrap();
        choose_path_parallel(
            &SimConfig::zynq_a53(),
            &RmConfig::prototype(),
            c.get("t").unwrap(),
            &bound,
            1,
        )
        .unwrap()
    }

    #[test]
    fn without_columnar_copy_col_path_is_unavailable() {
        let c = catalog(false);
        let (_, cost) = cost_of(&c, "SELECT c0 FROM t");
        assert!(cost.col_ns.is_none());
    }

    #[test]
    fn narrow_projection_prefers_col_when_available() {
        let c = catalog(true);
        let (path, cost) = cost_of(&c, "SELECT sum(c0) FROM t");
        assert_eq!(path, AccessPath::Col, "{cost:?}");
    }

    #[test]
    fn wide_projection_prefers_rm() {
        let c = catalog(true);
        let (path, cost) = cost_of(
            &c,
            "SELECT sum(c0), sum(c1), sum(c2), sum(c3), sum(c4), sum(c5), sum(c6), sum(c7) FROM t",
        );
        assert_eq!(path, AccessPath::Rm, "{cost:?}");
    }

    #[test]
    fn rm_always_beats_row_for_scans() {
        let c = catalog(true);
        for sql in ["SELECT c0 FROM t", "SELECT sum(c3) FROM t WHERE c5 < 100"] {
            let (_, cost) = cost_of(&c, sql);
            assert!(cost.rm_ns < cost.row_ns, "{sql}: {cost:?}");
        }
    }

    #[test]
    fn byte_estimates_cover_all_paths() {
        let c = catalog(true);
        let (_, cost) = cost_of(&c, "SELECT c0 FROM t WHERE c1 < 100");
        assert!(cost.row_bytes > 0.0, "{cost:?}");
        assert!(cost.col_bytes.is_some_and(|b| b > 0.0), "{cost:?}");
        assert!(cost.rm_bytes > 0.0, "{cost:?}");
        // Packed RM delivery is line-granular, so it never undershoots one
        // line per batch of rows.
        assert!(cost.rm_bytes >= 64.0, "{cost:?}");
        // The accessors mirror the fields.
        assert_eq!(cost.ns(AccessPath::Row), Some(cost.row_ns));
        assert_eq!(cost.bytes(AccessPath::Col), cost.col_bytes);
        assert_eq!(cost.bytes(AccessPath::Rm), Some(cost.rm_bytes));

        let c = catalog(false);
        let (_, cost) = cost_of(&c, "SELECT c0 FROM t");
        assert_eq!(cost.bytes(AccessPath::Col), None);
    }

    fn parallel_cost(c: &Catalog, sql: &str, cores: usize) -> PathCost {
        let bound = bind(c, &parse(sql).unwrap()).unwrap();
        estimate_parallel(
            &SimConfig::zynq_a53(),
            &RmConfig::prototype(),
            c.get("t").unwrap(),
            &bound,
            cores,
        )
        .unwrap()
    }

    #[test]
    fn parallel_speedup_is_monotonic_and_bounded_by_core_count() {
        let c = catalog(true);
        let sql = "SELECT sum(c0), sum(c1) FROM t WHERE c2 < 50";
        let base = parallel_cost(&c, sql, 1);
        let mut prev = base;
        for cores in [2usize, 4, 8] {
            let cost = parallel_cost(&c, sql, cores);
            for path in [AccessPath::Row, AccessPath::Col] {
                let serial = base.ns(path).unwrap();
                let par = cost.ns(path).unwrap();
                assert!(
                    par <= prev.ns(path).unwrap(),
                    "{path} regressed at {cores} cores"
                );
                assert!(
                    serial / par <= cores as f64 + 1e-9,
                    "{path} speedup {:.2} beats the core count at {cores} cores",
                    serial / par
                );
            }
            // More cores never make the RM path cheaper than its serial
            // device beat allows.
            assert!(
                cost.rm_ns <= prev.rm_ns + 1e-9,
                "RM regressed at {cores} cores"
            );
            prev = cost;
        }
    }

    #[test]
    fn parallel_estimates_never_undercut_the_bandwidth_floor() {
        // At an absurd core count the estimate must converge to the
        // shared-resource floor — bytes/line slots through the L2 port or
        // the DRAM controller, whichever is tighter — not to zero.
        let c = catalog(true);
        let sim = SimConfig::zynq_a53();
        let shared_line_ns = sim
            .cycles_to_ns(sim.l2_port_cycles)
            .max(sim.dram_row_hit_ns / sim.dram_banks as f64);
        let cost = parallel_cost(&c, "SELECT c0, c1, c2, c3 FROM t", 1024);
        let line = sim.line_size as f64;
        for path in [AccessPath::Row, AccessPath::Col] {
            let floor = (cost.bytes(path).unwrap() / line) * shared_line_ns;
            assert!(
                cost.ns(path).unwrap() >= floor - 1e-9,
                "{path} priced below the bandwidth floor: {:?}",
                cost.ns(path)
            );
        }
    }

    #[test]
    fn rm_device_beat_stays_serial_under_parallelism() {
        // The device produces rows at its own beat; cores only drain
        // faster. A device-bound query therefore keeps its engine time no
        // matter how many cores consume.
        let c = catalog(true);
        let rm = RmConfig::prototype();
        let rows = c.get("t").unwrap().rows.len() as f64;
        let cost = parallel_cost(&c, "SELECT c0, c1, c2, c3, c4, c5, c6, c7 FROM t", 64);
        assert!(
            cost.rm_ns >= rm.engine_ns_per_row * rows,
            "RM priced below the device's serial production beat: {:?}",
            cost.rm_ns
        );
    }

    #[test]
    fn split_estimates_sum_bit_exactly_on_every_path() {
        let c = catalog(true);
        let sim = SimConfig::zynq_a53();
        let rm = RmConfig::prototype();
        for sql in [
            "SELECT c0 FROM t",
            "SELECT sum(c2) FROM t WHERE c1 < 50",
            "SELECT c0, sum(c3) FROM t WHERE c1 < 50 GROUP BY c0",
        ] {
            let bound = bind(&c, &parse(sql).unwrap()).unwrap();
            let entry = c.get("t").unwrap();
            for cores in [1usize, 4] {
                let cost = estimate_parallel(&sim, &rm, entry, &bound, cores).unwrap();
                for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
                    let ops = split_path_cost(&sim, &rm, entry, &bound, path, &cost).unwrap();
                    let sum: f64 = ops.iter().map(|o| o.ns).fold(0.0, |a, b| a + b);
                    assert_eq!(
                        sum.to_bits(),
                        cost.ns(path).unwrap().to_bits(),
                        "{sql} on {path} at {cores} cores: {sum} != {:?}",
                        cost.ns(path)
                    );
                    let byte_sum: f64 = ops.iter().map(|o| o.bytes).sum();
                    assert_eq!(byte_sum, cost.bytes(path).unwrap(), "{sql} on {path}");
                    assert!(ops.iter().all(|o| o.ns >= 0.0 || o.op == "merge"));
                }
            }
        }
    }

    #[test]
    fn operator_list_follows_the_plan() {
        let c = catalog(true);
        let sim = SimConfig::zynq_a53();
        let rm = RmConfig::prototype();
        let entry = c.get("t").unwrap();
        let names = |sql: &str, path| {
            let bound = bind(&c, &parse(sql).unwrap()).unwrap();
            let cost = estimate_parallel(&sim, &rm, entry, &bound, 1).unwrap();
            let ops = split_path_cost(&sim, &rm, entry, &bound, path, &cost).unwrap();
            ops.iter().map(|o| o.op).collect::<Vec<_>>()
        };
        // Stage 0 is the scan, a filter under predicates and the
        // consumer; the merge breaks the pipeline and comes last.
        assert_eq!(
            names("SELECT c0 FROM t WHERE c0 < 5", AccessPath::Row),
            ["scan_row", "filter", "project", "merge"]
        );
        assert_eq!(
            names("SELECT sum(c1) FROM t", AccessPath::Rm),
            ["scan_rm", "aggregate", "merge"]
        );
    }

    #[test]
    fn split_mirrors_the_lowered_operator_chain() {
        let c = catalog(true);
        let sim = SimConfig::zynq_a53();
        let rm = RmConfig::prototype();
        let entry = c.get("t").unwrap();

        let bound = bind(&c, &parse("SELECT c0 FROM t").unwrap()).unwrap();
        let cost = estimate_parallel(&sim, &rm, entry, &bound, 1).unwrap();
        let ops = split_path_cost(&sim, &rm, entry, &bound, AccessPath::Row, &cost).unwrap();
        let names: Vec<&str> = ops.iter().map(|o| o.op).collect();
        assert_eq!(names, ["scan_row", "project", "merge"], "no filter node");
        // All data movement belongs to the scan.
        assert_eq!(ops[0].bytes, cost.row_bytes);
        assert!(ops[1..].iter().all(|o| o.bytes == 0.0));

        let bound = bind(&c, &parse("SELECT sum(c0) FROM t WHERE c1 < 10").unwrap()).unwrap();
        let cost = estimate_parallel(&sim, &rm, entry, &bound, 1).unwrap();
        let ops = split_path_cost(&sim, &rm, entry, &bound, AccessPath::Col, &cost).unwrap();
        let names: Vec<&str> = ops.iter().map(|o| o.op).collect();
        assert_eq!(names, ["scan_col", "filter", "aggregate", "merge"]);

        // Splitting an unavailable path is an error, not a zero split.
        let c = catalog(false);
        let entry = c.get("t").unwrap();
        let bound = bind(&c, &parse("SELECT c0 FROM t").unwrap()).unwrap();
        let cost = estimate_parallel(&sim, &rm, entry, &bound, 1).unwrap();
        assert!(split_path_cost(&sim, &rm, entry, &bound, AccessPath::Col, &cost).is_err());
    }

    #[test]
    fn estimates_scale_with_rows() {
        let c = catalog(true);
        let full = parallel_cost(&c, "SELECT c0 FROM t", 1);
        assert!(full.row_ns > 0.0 && full.rm_ns > 0.0);
    }
}
