//! Typed chunk-at-a-time stage 0 (DESIGN.md §21) against the one
//! reference executor, and its kernels against the per-row kernels they
//! replaced, on generated tables and statements (`tests/support/reference.rs`).
//!
//! Two suites, both seeded by `FABRIC_CHAOS_SEED` through `for_each_case`:
//!
//! * **answers** — a generated statement (conjunctions, projections with
//!   literal and arithmetic items, `count/sum/avg/min/max` with and without
//!   `GROUP BY`, keys whose renderings collide, ORDER BY and LIMIT) over a
//!   generated table of all eight column types runs on ROW, COL and RM
//!   through `Session::run_bound_on` and must return the rows — bit for
//!   bit — or the error of `reference::execute`. Each run's per-operator
//!   records must count every table row into the scan, the qualifying rows
//!   out of the filter, and one invocation per morsel (per delivered batch
//!   on RM) on every stage-0 operator.
//! * **clocks** — each layout's chunk kernel and its row-callback adaptor
//!   run beside the verbatim old per-row kernel (kept below) over the same
//!   morsel loop on identically built hierarchies, and must leave every
//!   core's `MemStats` and clock identical, hand the sink the same rows,
//!   and — when the sink fails on a row — stop at the same cycle. This is
//!   the direct check of "predicate first, verbatim charge loop, bulk
//!   consume": nothing the simulator does depends on *when* the host
//!   evaluated a row.
//!
//! ```text
//! FABRIC_CHAOS_SEED=12345 cargo test --test typed_stage0
//! ```

use colstore::exec as colx;
use colstore::ColTable;
use fabric_sim::{MemStats, MemoryHierarchy, SimConfig};
use fabric_types::geometry::merge_field_spans;
use fabric_types::rng::for_each_case;
use fabric_types::{
    Chunk, ChunkError, CmpOp, ColumnId, ColumnType, Expr, FabricError, Result, ScanScratch, Value,
};
use query::bind::{BoundQuery, OutputItem};
use query::{AccessPath, QueryOutput, MORSEL_ROWS};
use relmem::{EphemeralColumns, RmConfig};
use rowstore::RowTable;

mod support;
use support::bits;
use support::reference::{self, Table};

const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// `rows` loaded into both layouts of a fresh `cores`-core hierarchy,
/// always by the same calls: two such hierarchies are in the same state.
fn load(cores: usize, rows: &[Vec<Value>]) -> (MemoryHierarchy, RowTable, ColTable) {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    mem.set_core_count(cores);
    let schema = reference::schema();
    let mut rt = RowTable::create(&mut mem, schema.clone(), rows.len().max(1)).unwrap();
    let mut ct = ColTable::create(&mut mem, schema, rows.len().max(1)).unwrap();
    for row in rows {
        rt.load(&mut mem, row).unwrap();
        ct.load(&mut mem, row).unwrap();
    }
    (mem, rt, ct)
}

/// The rows of `stored` that pass every conjunct of `bound`.
fn qualifying(bound: &BoundQuery, stored: &[Vec<Value>]) -> u64 {
    let passes = |row: &Vec<Value>| {
        let pass = |(slot, op, lit): &(usize, CmpOp, Value)| {
            let v = &row[bound.touched[*slot]];
            v.compare(lit).is_ok_and(|o| op.matches(o))
        };
        bound.preds.iter().all(pass)
    };
    stored.iter().filter(|row| passes(row)).count() as u64
}

/// Stage 0's per-operator actuals in `out`: every stage-0 operator ran
/// once per kernel pass (a morsel on ROW and COL, a delivered batch on
/// RM), the scan read all `rows` of the table, and the filter kept — and
/// the consumer was fed — the `qualifying` ones.
fn check_actuals(out: &QueryOutput, rows: usize, qualifying: u64, ctx: &str) {
    assert!(!out.cache_hit, "{ctx}: a cold run is what is checked");
    let passes = match out.path {
        AccessPath::Rm => out.rm_stats.expect("the RM path ran").batches,
        _ => rows.div_ceil(MORSEL_ROWS) as u64,
    };
    let Some((merge, stage0)) = out.ops.split_last() else {
        panic!("{ctx}: no operator records");
    };
    assert_eq!(merge.op, "merge", "{ctx}");
    let (scan, consumer) = (&stage0[0], &stage0[stage0.len() - 1]);
    for op in stage0 {
        assert_eq!(op.invocations, passes, "{ctx}: {} invocations", op.op);
    }
    assert_eq!(scan.rows_in, rows as u64, "{ctx}: {} rows in", scan.op);
    if let Some(filter) = stage0.iter().find(|op| op.op == "filter") {
        assert_eq!(filter.rows_out, qualifying, "{ctx}: filter rows out");
    }
    assert_eq!(
        consumer.rows_in, qualifying,
        "{ctx}: {} rows in",
        consumer.op
    );
}

/// Whether two groups of `rows`, the answer of the grouped `bound`, have
/// keys that render alike.
fn renderings_collide(bound: &BoundQuery, rows: &[Vec<Value>]) -> bool {
    let item_of = |slot: &usize| {
        let is_key = |i: &OutputItem| matches!(i, OutputItem::Expr(Expr::Col(s)) if s == slot);
        bound
            .items
            .iter()
            .position(is_key)
            .expect("group columns are items")
    };
    let items: Vec<usize> = bound.group_by.iter().map(item_of).collect();
    let key = |r: &Vec<Value>| -> Vec<Value> { items.iter().map(|&i| r[i].clone()).collect() };
    let mut keys: Vec<String> = rows
        .iter()
        .map(|r| reference::rendered_key(&key(r)))
        .collect();
    keys.sort();
    keys.windows(2).any(|w| w[0] == w[1])
}

#[test]
fn every_path_returns_the_row_at_a_time_rows_or_its_error() {
    let (mut answers, mut errors, mut big_answers, mut empty, mut all, mut collisions) =
        (0, 0, 0, 0, 0, 0);
    for_each_case("typed stage 0 answers", |case| {
        // (A table of no rows has no admissible RM geometry.)
        let n = reference::size(case).max(1);
        let n = case.rows(n);
        let table = Table::generate(case, n);
        let many_groups = case.gen_bool(0.5) && table.len() > 2 * MORSEL_ROWS;
        let bound = reference::statement(case, many_groups);
        let cores = [1, 2, 4][case.gen_range(0..3usize)];
        case.note(format!("{cores} cores, {bound:?}"));
        let want = reference::execute(&bound, &table.stored);
        let kept = qualifying(&bound, &table.stored);
        match &want {
            Ok(rows) => {
                answers += 1;
                let grouped = !bound.group_by.is_empty();
                big_answers += usize::from(grouped && rows.len() > MORSEL_ROWS);
                collisions += usize::from(grouped && renderings_collide(&bound, rows));
                if !bound.has_aggregates() {
                    empty += usize::from(kept == 0);
                    all += usize::from(kept == table.len() as u64 && !bound.preds.is_empty());
                }
            }
            Err(_) => errors += 1,
        }
        let mut e = table.engine(cores);
        for path in PATHS {
            let got = e.session().run_bound_on(&bound, path);
            let ctx = format!(
                "{path:?} at {cores} cores over {} rows diverged on {bound:?}",
                table.len()
            );
            if let Ok(out) = &got {
                check_actuals(out, table.len(), kept, &ctx);
            }
            let got = got.map(|out| out.rows);
            match (&got, &want) {
                (Ok(got), Ok(want)) => reference::assert_answer(&bound, got, want, &ctx),
                _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{ctx}"),
            }
        }
    });
    // The generator reaches what the suite is for.
    assert!(answers >= 100, "{answers} answers");
    assert!(errors >= 10, "{errors} data-dependent errors");
    assert!(
        empty >= 1 && all >= 1,
        "{empty} empty, {all} all-pass selections"
    );
    assert!(big_answers >= 1, "{big_answers} cases with > 4096 groups");
    assert!(
        collisions >= 1,
        "{collisions} answers with keys that render alike"
    );
}

// ------------------------------------------- the old per-row kernels

/// `rowstore::scan_range_vectorized` as it was before chunks, verbatim.
#[allow(clippy::too_many_arguments)]
fn old_scan_range_vectorized(
    mem: &mut MemoryHierarchy,
    table: &RowTable,
    cols: &[ColumnId],
    preds: &[(usize, CmpOp, Value)],
    start: usize,
    end: usize,
    tuple: &mut Vec<Value>,
    mut emit: impl FnMut(&mut MemoryHierarchy, &[Value]) -> Result<()>,
) -> Result<rowstore::ScanCounts> {
    let costs = mem.costs();
    let layout = table.layout();
    let fields = layout.fields(cols)?;
    let spans = merge_field_spans(&fields, 0);
    let end = end.min(table.len());
    let start = start.min(end);
    mem.cpu_vector(0, 0);

    let row_cycles = costs.decode * cols.len() as u64 + costs.value_op * preds.len() as u64;
    let mut counts = rowstore::ScanCounts::default();
    let mut parts: Vec<(u64, usize)> = Vec::with_capacity(spans.len());
    for r in start..end {
        counts.rows_in += 1;
        let row_addr = table.row_addr(r);
        if spans.len() == 1 {
            let (off, len) = spans[0];
            mem.touch_read(row_addr + off as u64, len);
        } else {
            parts.clear();
            parts.extend(spans.iter().map(|&(off, len)| (row_addr + off as u64, len)));
            mem.touch_read_gather(&parts);
        }
        mem.cpu(row_cycles);

        let row = mem.bytes(row_addr, layout.row_width());
        Value::decode_row_into(tuple, fields.iter().map(|f| (f.ty, &row[f.range()])));
        let mut pass = true;
        for (slot, op, lit) in preds {
            pass &= op.matches(tuple[*slot].compare(lit)?);
        }
        if pass {
            counts.rows_out += 1;
            emit(mem, tuple)?;
        }
    }
    Ok(counts)
}

fn old_cmp_cycles(costs: &fabric_sim::hierarchy::OpCosts, ty: ColumnType) -> u64 {
    match ty {
        ColumnType::F32 | ColumnType::F64 => costs.f64_op,
        _ => costs.value_op,
    }
}

/// `colstore::exec::scan_filter_conj_range_into` before typed compares.
fn old_scan_filter_conj(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    col: ColumnId,
    preds: &[(CmpOp, Value)],
    start: usize,
    end: usize,
    sel: &mut Vec<u32>,
) -> Result<()> {
    sel.clear();
    let c = t.col(col)?;
    let w = c.ty.width();
    let costs = mem.costs();
    let end = end.min(t.len());
    let mut kept: Vec<u32> = Vec::with_capacity(colx::BATCH_ROWS);
    let mut row = start.min(end);
    if row < end {
        mem.cpu(costs.vector_setup);
    }
    while row < end {
        let n = colx::BATCH_ROWS.min(end - row);
        mem.touch_read(c.at(row), n * w);
        mem.cpu(n as u64 * (costs.vector_elem + old_cmp_cycles(&costs, c.ty) * preds.len() as u64));
        let bytes = mem.bytes(c.at(row), n * w);
        'rows: for i in 0..n {
            let v = Value::decode(c.ty, &bytes[i * w..(i + 1) * w]);
            for (op, value) in preds {
                if !op.matches(v.compare(value)?) {
                    continue 'rows;
                }
            }
            kept.push((row + i) as u32);
        }
        if !kept.is_empty() {
            mem.touch_write(t.sv_out_addr(sel.len()), kept.len() * 4);
            sel.append(&mut kept);
        }
        row += n;
    }
    Ok(())
}

/// `colstore::exec::scan_filter_cand_range_into` before typed compares
/// (its range checks, which did not change, left out: the candidates here
/// come from the pass before).
#[allow(clippy::too_many_arguments)]
fn old_scan_filter_cand(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    col: ColumnId,
    preds: &[(CmpOp, Value)],
    candidates: &[u32],
    start: usize,
    end: usize,
    out: &mut Vec<u32>,
) -> Result<()> {
    out.clear();
    let c = t.col(col)?;
    let w = c.ty.width();
    let costs = mem.costs();
    let end = end.min(t.len());
    out.reserve(candidates.len());
    let mut kept: Vec<u32> = Vec::with_capacity(colx::BATCH_ROWS);
    let mut ci = 0usize;
    let mut row = start.min(end);
    if row < end {
        mem.cpu(costs.vector_setup);
    }
    while row < end {
        let n = colx::BATCH_ROWS.min(end - row);
        mem.touch_read(c.at(row), n * w);
        mem.cpu(n as u64 * (costs.vector_elem + old_cmp_cycles(&costs, c.ty) * preds.len() as u64));
        let ci0 = ci;
        while ci < candidates.len() && (candidates[ci] as usize) < row + n {
            ci += 1;
        }
        if ci > ci0 {
            mem.touch_read(t.sv_in_addr(ci0), (ci - ci0) * 4);
            mem.cpu((ci - ci0) as u64 * costs.value_op);
        }
        let bytes = mem.bytes(c.at(row), n * w);
        'cands: for &pos in &candidates[ci0..ci] {
            let i = pos as usize - row;
            let v = Value::decode(c.ty, &bytes[i * w..(i + 1) * w]);
            for (op, value) in preds {
                if !op.matches(v.compare(value)?) {
                    continue 'cands;
                }
            }
            kept.push(pos);
        }
        if !kept.is_empty() {
            mem.touch_write(t.sv_out_addr(out.len()), kept.len() * 4);
            out.append(&mut kept);
        }
        row += n;
    }
    Ok(())
}

/// Which rows the old lockstep pass visits.
enum OldRowSet<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

/// `colstore::exec::lockstep_impl` as it was before chunks, verbatim but
/// for its batch-end event (nothing here listens to it) and the selection
/// bounds check (the selections here come from the filter passes).
fn old_lockstep(
    mem: &mut MemoryHierarchy,
    t: &ColTable,
    cols: &[ColumnId],
    rows: OldRowSet<'_>,
    materialize: bool,
    read_sv: bool,
    mut emit: impl FnMut(&mut MemoryHierarchy, usize, &[Value]) -> Result<()>,
) -> Result<()> {
    let costs = mem.costs();
    let refs: Vec<_> = cols.iter().map(|&c| t.col(c)).collect::<Result<_>>()?;
    let (range_start, total_rows, sel) = match rows {
        OldRowSet::Range(start, end) => (start, end - start, None),
        OldRowSet::Sel(s) => (0, s.len(), Some(s)),
    };
    let line = mem.config().line_size as u64;
    let mut last_line: Vec<u64> = vec![u64::MAX; cols.len()];
    let mut row_buf: Vec<Value> = Vec::with_capacity(cols.len());
    let per_value = costs.vector_elem + if materialize { costs.reconstruct } else { 0 };
    let row_cycles = per_value * cols.len() as u64;
    let mut gather: Vec<(u64, usize)> = Vec::with_capacity(cols.len());

    let mut done = 0usize;
    if total_rows > 0 {
        mem.cpu(costs.vector_setup);
    }
    while done < total_rows {
        let n = colx::BATCH_ROWS.min(total_rows - done);
        if sel.is_some() && read_sv {
            mem.touch_read(t.sv_in_addr(done), n * 4);
        }
        for i in 0..n {
            let row_id = match sel {
                None => range_start + done + i,
                Some(s) => s[done + i] as usize,
            };
            gather.clear();
            for (j, c) in refs.iter().enumerate() {
                let addr = c.at(row_id);
                let la = addr & !(line - 1);
                if la != last_line[j] {
                    gather.push((addr, c.ty.width()));
                    last_line[j] = la;
                }
            }
            if !gather.is_empty() {
                mem.touch_read_gather(&gather);
            }
            mem.cpu(row_cycles);
            Value::decode_row_into(
                &mut row_buf,
                refs.iter()
                    .map(|c| (c.ty, mem.bytes(c.at(row_id), c.ty.width()))),
            );
            emit(mem, row_id, &row_buf)?;
        }
        done += n;
    }
    Ok(())
}

// ------------------------------------------------- clocks, side by side

/// What a kernel run left behind: every core's counters and clock, the
/// rows the sink saw, and how the run ended.
#[derive(Debug, PartialEq)]
struct Trace {
    cores: Vec<(MemStats, u64)>,
    now: u64,
    rows: Vec<Vec<(u8, u64, String)>>,
    outcome: Result<u64>,
}

/// Collects the rows a kernel hands over; fails on the `fail_at`-th.
struct Sink {
    rows: Vec<Vec<Value>>,
    fail_at: Option<usize>,
}

fn planted() -> FabricError {
    FabricError::Internal("planted failure".into())
}

impl Sink {
    fn row(&mut self, vals: &[Value]) -> Result<()> {
        if self.fail_at == Some(self.rows.len()) {
            return Err(planted());
        }
        self.rows.push(vals.to_vec());
        Ok(())
    }

    /// The chunk form of [`Self::row`] over `rows` of `chunk`.
    fn chunk(&mut self, chunk: &Chunk<'_>, rows: &[u32]) -> std::result::Result<(), ChunkError> {
        for (at, &r) in rows.iter().enumerate() {
            let vals: Vec<Value> = (0..chunk.arity())
                .map(|i| chunk.col(i).unwrap().value(r as usize))
                .collect();
            let fed = self.row(&vals);
            fed.map_err(|error| ChunkError { at, error })?;
        }
        Ok(())
    }
}

fn earliest_core(mem: &MemoryHierarchy) -> usize {
    (0..mem.num_cores())
        .min_by_key(|&i| (mem.core_now(i), i))
        .unwrap()
}

/// Run `step(mem, sink, i)` for `i = 0, 1, …` until it has no more work
/// (`Ok(None)`), each step on the earliest-free core, between a fork and a
/// join — the executor's stage-0 loop — and report what it left. A step
/// returns how many rows it kept.
fn drive(
    mem: &mut MemoryHierarchy,
    sink: Sink,
    mut step: impl FnMut(&mut MemoryHierarchy, &mut Sink, usize) -> Result<Option<u64>>,
) -> Trace {
    let mut sink = sink;
    mem.fork_clocks();
    let mut kept = 0;
    let mut i = 0;
    let outcome = loop {
        mem.set_active_core(earliest_core(mem));
        match step(mem, &mut sink, i) {
            Ok(Some(k)) => kept += k,
            Ok(None) => break Ok(kept),
            Err(e) => break Err(e),
        }
        i += 1;
    };
    // Before the join: the cores' own clocks are what must agree.
    let cores = (0..mem.num_cores())
        .map(|i| (mem.core_stats(i), mem.core_now(i)))
        .collect();
    mem.join_clocks();
    mem.set_active_core(0);
    Trace {
        cores,
        now: mem.now(),
        rows: bits(&sink.rows),
        outcome,
    }
}

/// Step `i` of a morsel loop over `total` rows: its `[start, end)`, or
/// `None` past the end (the first morsel runs even over an empty table, as
/// the executor's does).
fn morsel(total: usize, i: usize) -> Option<(usize, usize)> {
    let start = i * MORSEL_ROWS;
    (i == 0 || start < total).then(|| (start, (start + MORSEL_ROWS).min(total)))
}

/// The conjuncts of `bound` per table column, in first-use order — how the
/// COL path runs a conjunction: a full scan of the first column, candidate
/// passes over the others.
fn by_column(bound: &BoundQuery) -> Vec<(ColumnId, Vec<(CmpOp, Value)>)> {
    let mut by_col: Vec<(ColumnId, Vec<(CmpOp, Value)>)> = Vec::new();
    for (slot, op, v) in &bound.preds {
        let col = bound.touched[*slot];
        match by_col.iter_mut().find(|(c, _)| *c == col) {
            Some((_, list)) => list.push((*op, v.clone())),
            None => by_col.push((col, vec![(*op, v.clone())])),
        }
    }
    by_col
}

/// Today's selection passes of one morsel `[start, end)`: `sv` ← the rows
/// every conjunct keeps (`next` is the ping-pong buffer). `false` when
/// there is no conjunct to select by.
fn select_into(
    mem: &mut MemoryHierarchy,
    ct: &ColTable,
    by_col: &[(ColumnId, Vec<(CmpOp, Value)>)],
    (start, end): (usize, usize),
    sv: &mut Vec<u32>,
    next: &mut Vec<u32>,
) -> Result<bool> {
    let Some(((c0, preds0), rest)) = by_col.split_first() else {
        return Ok(false);
    };
    colx::scan_filter_conj_range_into(mem, ct, *c0, preds0, start, end, sv)?;
    for (c, preds) in rest {
        colx::scan_filter_cand_range_into(mem, ct, *c, preds, sv, start, end, next)?;
        std::mem::swap(sv, next);
    }
    Ok(true)
}

#[test]
fn chunk_kernels_leave_every_core_where_the_per_row_kernels_did() {
    let (mut failures, mut multi_morsel, mut unfiltered) = (0, 0, 0);
    for_each_case("typed stage 0 clocks", |case| {
        let n = reference::size(case).min(2 * MORSEL_ROWS + 300);
        let rows = case.rows(n);
        let table = Table::generate(case, rows).rows;
        let bound = reference::statement(case, false);
        let (cols, preds) = (&bound.touched, &bound.preds);
        let cores = [1, 2, 4][case.gen_range(0..3usize)];
        let pass_cycles = case.gen_range(0..40u64);
        // Sometimes the sink fails on one of the rows that reach it.
        let fail_at = case.gen_bool(0.3).then(|| case.gen_range(0..rows.max(1)));
        let sink = || Sink {
            rows: Vec::new(),
            fail_at,
        };
        multi_morsel += usize::from(rows > MORSEL_ROWS);
        let ctx = format!(
            "{rows} rows, {cores} cores, sink failing at {fail_at:?}, \
             columns {cols:?}, predicate {preds:?}"
        );
        case.note(&ctx);

        // ROW: old kernel, chunk kernel, row adaptor.
        let old = {
            let (mut mem, rt, _) = load(cores, &table);
            let mut tuple = Vec::new();
            drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let emit = |mem: &mut MemoryHierarchy, vals: &[Value]| {
                    mem.cpu(pass_cycles);
                    sink.row(vals)
                };
                old_scan_range_vectorized(mem, &rt, cols, preds, start, end, &mut tuple, emit)
                    .map(|c| Some(c.rows_out))
            })
        };
        failures += usize::from(old.outcome.is_err());
        let chunked = {
            let (mut mem, rt, _) = load(cores, &table);
            let mut scratch = ScanScratch::default();
            drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let scratch = &mut scratch;
                let consume = |chunk: &Chunk<'_>, rows: &[u32]| sink.chunk(chunk, rows);
                rowstore::scan_range_chunks(
                    mem,
                    &rt,
                    cols,
                    preds,
                    start,
                    end,
                    pass_cycles,
                    scratch,
                    consume,
                )
                .map(|c| Some(c.rows_out))
            })
        };
        assert_eq!(chunked, old, "ROW chunk kernel: {ctx}");
        let adapted = {
            let (mut mem, rt, _) = load(cores, &table);
            let mut tuple = Vec::new();
            drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let emit = |mem: &mut MemoryHierarchy, vals: &[Value]| {
                    mem.cpu(pass_cycles);
                    sink.row(vals)
                };
                rowstore::scan_range_vectorized(mem, &rt, cols, preds, start, end, &mut tuple, emit)
                    .map(|c| Some(c.rows_out))
            })
        };
        assert_eq!(adapted, old, "ROW row adaptor: {ctx}");

        // COL: selection passes, then the fused lockstep pass (a dense
        // range pass when there is no predicate).
        let by_col = by_column(&bound);
        let old = {
            let (mut mem, _, ct) = load(cores, &table);
            let (mut sv, mut next) = (Vec::new(), Vec::new());
            drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let emit = |mem: &mut MemoryHierarchy, _: usize, vals: &[Value]| {
                    mem.cpu(pass_cycles);
                    sink.row(vals)
                };
                let Some(((c0, preds0), rest)) = by_col.split_first() else {
                    let range = OldRowSet::Range(start, end);
                    old_lockstep(mem, &ct, cols, range, false, true, emit)?;
                    return Ok(Some((end - start) as u64));
                };
                old_scan_filter_conj(mem, &ct, *c0, preds0, start, end, &mut sv)?;
                for (c, preds) in rest {
                    old_scan_filter_cand(mem, &ct, *c, preds, &sv, start, end, &mut next)?;
                    std::mem::swap(&mut sv, &mut next);
                }
                old_lockstep(mem, &ct, cols, OldRowSet::Sel(&sv), false, false, emit)?;
                Ok(Some(sv.len() as u64))
            })
        };
        let chunked = {
            let (mut mem, _, ct) = load(cores, &table);
            let (mut sv, mut next) = (Vec::new(), Vec::new());
            let mut scratch = ScanScratch::default();
            drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let scratch = &mut scratch;
                let consume = |chunk: &Chunk<'_>, rows: &[u32]| sink.chunk(chunk, rows);
                if !select_into(mem, &ct, &by_col, (start, end), &mut sv, &mut next)? {
                    colx::lockstep_chunks_range(
                        mem,
                        &ct,
                        cols,
                        start,
                        end,
                        pass_cycles,
                        scratch,
                        consume,
                    )?;
                    return Ok(Some((end - start) as u64));
                }
                colx::lockstep_chunks_fused(mem, &ct, cols, &sv, pass_cycles, scratch, consume)?;
                Ok(Some(sv.len() as u64))
            })
        };
        assert_eq!(chunked, old, "COL chunk kernel: {ctx}");
        // The row adaptor runs dense ranges only: the pass without a
        // predicate.
        if by_col.is_empty() {
            unfiltered += 1;
            let (mut mem, _, ct) = load(cores, &table);
            let adapted = drive(&mut mem, sink(), |mem, sink, i| {
                let Some((start, end)) = morsel(rows, i) else {
                    return Ok(None);
                };
                let emit = |mem: &mut MemoryHierarchy, _: usize, vals: &[Value]| {
                    mem.cpu(pass_cycles);
                    sink.row(vals)
                };
                colx::for_each_lockstep_range(mem, &ct, cols, start, end, emit)?;
                Ok(Some((end - start) as u64))
            });
            assert_eq!(adapted, old, "COL row adaptor: {ctx}");
        }

        // RM: delivered batches consumed on the earliest-free core, the
        // sink's rows rolling over at morsel boundaries (which only the
        // chunk kernel's pieces can see).
        if rows == 0 {
            return; // a zero-row geometry is not admitted
        }
        let types: Vec<ColumnType> = cols.iter().map(|&c| reference::ty(c)).collect();
        let old = {
            let (mut mem, rt, _) = load(cores, &table);
            let costs = mem.costs();
            let geometry = rt.geometry(cols).unwrap();
            let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), geometry);
            let eph = eph.as_mut().unwrap();
            let pred_cycles = costs.value_op * preds.len() as u64;
            let mut vals = Vec::new();
            // One step per delivered batch: the loop of `run_rm`.
            drive(&mut mem, sink(), |mem, sink, _| {
                let Some(b) = eph.next_batch(mem) else {
                    return Ok(None);
                };
                let mut kept = 0u64;
                for r in 0..b.len() {
                    mem.cpu(pred_cycles);
                    let fields = (0..types.len()).map(|f| (types[f], b.field_bytes(r, f)));
                    Value::decode_row_into(&mut vals, fields);
                    let mut pass = true;
                    for (slot, op, lit) in preds {
                        pass &= op.matches(vals[*slot].compare(lit)?);
                    }
                    if !pass {
                        continue;
                    }
                    kept += 1;
                    mem.cpu(pass_cycles);
                    sink.row(&vals)?;
                }
                Ok(Some(kept))
            })
        };
        let chunked = {
            let (mut mem, rt, _) = load(cores, &table);
            let geometry = rt.geometry(cols).unwrap();
            let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), geometry);
            let eph = eph.as_mut().unwrap();
            let mut scratch = ScanScratch::default();
            let mut consumed = 0usize;
            drive(&mut mem, sink(), |mem, sink, _| {
                let Some(b) = eph.next_batch(mem) else {
                    return Ok(None);
                };
                let mut kept = 0u64;
                let mut r = 0usize;
                while r < b.len() {
                    let n = (MORSEL_ROWS - consumed % MORSEL_ROWS).min(b.len() - r);
                    let consume = |chunk: &Chunk<'_>, rows: &[u32]| sink.chunk(chunk, rows);
                    let piece = r..r + n;
                    let rows = &mut scratch.rows;
                    kept += b.consume_chunks(mem, piece, preds, pass_cycles, rows, consume)?;
                    consumed += n;
                    r += n;
                }
                Ok(Some(kept))
            })
        };
        assert_eq!(chunked, old, "RM chunk kernel: {ctx}");
    });
    assert!(failures >= 20, "{failures} runs with a failing sink");
    assert!(
        multi_morsel >= 10,
        "{multi_morsel} tables of several morsels"
    );
    assert!(
        unfiltered >= 20,
        "{unfiltered} statements without a predicate"
    );
}
