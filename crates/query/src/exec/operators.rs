//! Operator DAG nodes and the shared consumption operator.
//!
//! A verified plan lowers to a small, fixed operator DAG (DESIGN.md §16):
//!
//! ```text
//! Scan(path) → [Filter] → Project | Aggregate  ──barrier──▶  Merge
//! └──────────── stage 0 (fused, per morsel) ─┘   └ stage 1 (core 0) ┘
//! ```
//!
//! Stage 0's operators are *streamable*: each morsel flows through all of
//! them in one fused kernel pass without materializing between nodes.
//! Merge is the pipeline breaker — it needs every partial, in morsel
//! order, so it forms its own stage. The node list exists so the
//! executor can attribute per-operator actuals ([`fabric_sim::OpStats`],
//! exported as `query.op.*`) and so EXPLAIN-style surfaces can render
//! the stage partition; operators are constructed only inside this crate
//! (lint rule `exec-internals`).

use super::batch::ResultBatch;
use crate::bind::{BoundQuery, OutputItem};
use crate::cost::AccessPath;
use fabric_sim::{MemoryHierarchy, OpStats};
use fabric_types::{AggFunc, ColumnType, Expr, F64Program, FabricError, Result, Value, ValueAgg};
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};

/// The operator vocabulary of the staged executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Path-specific morsel scan (the fused kernel's input end).
    Scan(AccessPath),
    /// Conjunctive predicate over scanned slots.
    Filter,
    /// Per-row expression evaluation into output rows.
    Project,
    /// Grouped/scalar aggregation into partial accumulators.
    Aggregate,
    /// Morsel-order partial merge + finalization (pipeline breaker).
    Merge,
}

impl OpKind {
    /// Metric segment for `query.op.<name>.*`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::Scan(AccessPath::Row) => "scan_row",
            OpKind::Scan(AccessPath::Col) => "scan_col",
            OpKind::Scan(AccessPath::Rm) => "scan_rm",
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::Aggregate => "aggregate",
            OpKind::Merge => "merge",
        }
    }

    /// Streamable operators fuse into stage 0; pipeline breakers start a
    /// new stage.
    pub(crate) fn streamable(self) -> bool {
        !matches!(self, OpKind::Merge)
    }
}

/// One node of the lowered DAG: its kind plus accumulated actuals.
#[derive(Debug)]
pub(crate) struct OpNode {
    pub(crate) kind: OpKind,
    pub(crate) stats: OpStats,
}

impl OpNode {
    pub(crate) fn new(kind: OpKind) -> Self {
        OpNode {
            kind,
            stats: OpStats::default(),
        }
    }
}

/// Deterministic morsel scheduling: the earliest-free core, ties broken
/// toward the lowest id. With one core this is always core 0 and the
/// stage-0 kernels reduce to the serial engine.
pub(crate) fn earliest_core(mem: &MemoryHierarchy) -> usize {
    (0..mem.num_cores())
        .min_by_key(|&i| (mem.core_now(i), i))
        .unwrap_or(0)
}

/// A group key as decoded values, ordered so that two keys are equal
/// exactly when their rendered forms ([`render_key`]) are: per column the
/// type tag, then the bit pattern — every NaN one key, `-0.0` and `0.0`
/// two — and strings byte-wise. Comparing these per row replaces
/// formatting a `String` per row; the rendered key is still what orders
/// the output (see [`merge_partials`]).
#[derive(Debug, Clone, Default)]
struct RawKey(Vec<Value>);

/// `(type tag, bits)` of a non-string key column.
fn key_bits(v: &Value) -> (u8, u64) {
    match v {
        Value::I8(x) => (0, *x as u64),
        Value::I16(x) => (1, *x as u64),
        Value::I32(x) => (2, *x as u64),
        Value::I64(x) => (3, *x as u64),
        Value::F32(x) if x.is_nan() => (4, u64::from(f32::NAN.to_bits())),
        Value::F32(x) => (4, u64::from(x.to_bits())),
        Value::F64(x) if x.is_nan() => (5, f64::NAN.to_bits()),
        Value::F64(x) => (5, x.to_bits()),
        Value::Date(x) => (6, u64::from(*x)),
        Value::Str(_) => (7, 0),
    }
}

fn key_part_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        _ => key_bits(a).cmp(&key_bits(b)),
    }
}

impl Ord for RawKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_part = self.0.iter().zip(&other.0);
        by_part
            .map(|(a, b)| key_part_cmp(a, b))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.0.len().cmp(&other.0.len()))
    }
}

impl PartialOrd for RawKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RawKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RawKey {}

/// The rendered group key: each key value through `Display`, each followed
/// by a unit separator. Its `String` order is the order grouped output
/// leaves the merge stage in.
fn render_key(key: &[Value]) -> Result<String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in key {
        write!(out, "{v}\u{1f}")
            .map_err(|e| FabricError::Internal(format!("group key formatting: {e}")))?;
    }
    Ok(out)
}

/// How one aggregate of the plan is fed a row.
#[derive(Clone)]
enum AggFeed<'q> {
    /// `count`: the row itself is the input.
    Count,
    /// `sum` / `avg`: the expression as a compiled `f64` program (the
    /// same operands in the same order as `Expr::eval_f64`, so the same
    /// bits).
    Sum(F64Program),
    /// `min` / `max`: the expression's `Value`, so the result keeps the
    /// column's type.
    Value(&'q Expr),
}

/// Fresh accumulators for the plan's aggregates, in item order.
fn new_accs(bound: &BoundQuery) -> Vec<ValueAgg> {
    bound
        .items
        .iter()
        .filter_map(|i| match i {
            OutputItem::Agg(f, _) => Some(ValueAgg::new(*f)),
            OutputItem::Expr(_) => None,
        })
        .collect()
}

/// Grouped partials keyed by rendered key: a `BTreeMap` so iteration is
/// key-ordered on every core count — group output order must never depend
/// on hash iteration (rule `nondeterministic-core`).
type RenderedGroups = BTreeMap<String, (Vec<Value>, Vec<ValueAgg>)>;

/// How one item of a projecting plan is produced from a row's slots.
#[derive(Clone)]
enum Projection<'q> {
    /// The slot's value, as decoded.
    Slot(usize),
    Literal(&'q Value),
    /// Arithmetic, as a compiled `f64` program (the same bits as
    /// `Expr::eval`).
    Arithmetic(F64Program),
}

/// Shared consumption: either appends projected rows to a typed batch or
/// maintains grouped aggregates. One `Consumer` holds one morsel's partial
/// result.
pub(crate) struct Consumer<'q> {
    bound: &'q BoundQuery,
    /// The morsel's projected rows (stays empty when the plan aggregates).
    batch: ResultBatch,
    /// One per item of a projecting plan, in item order.
    projections: Vec<Projection<'q>>,
    /// Accumulators per group, in first-seen order.
    groups: Vec<Vec<ValueAgg>>,
    /// Raw key → position in `groups`.
    index: BTreeMap<RawKey, usize>,
    /// The previous row's key (refilled in place) and the group it fell
    /// in: consecutive rows of one group skip the lookup.
    probe: RawKey,
    last: Option<usize>,
    /// One feed per aggregate, in item order.
    feeds: Vec<AggFeed<'q>>,
    aggregated: bool,
}

impl<'q> Consumer<'q> {
    /// Resolve how `bound`, whose output items have the static `types`
    /// ([`VerifiedQuery::output_types`]), consumes a row. Done once per
    /// stage-0 run; every morsel then gets a [`Self::fresh`] copy.
    ///
    /// [`VerifiedQuery::output_types`]: crate::analyze::VerifiedQuery::output_types
    pub(crate) fn new(bound: &'q BoundQuery, types: &[ColumnType]) -> Result<Self> {
        let aggregated = bound.has_aggregates();
        let feeds = bound
            .items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Agg(AggFunc::Count, _) => Some(AggFeed::Count),
                OutputItem::Agg(AggFunc::Sum | AggFunc::Avg, e) => {
                    Some(AggFeed::Sum(e.compile_f64()))
                }
                OutputItem::Agg(AggFunc::Min | AggFunc::Max, e) => Some(AggFeed::Value(e)),
                OutputItem::Expr(_) => None,
            })
            .collect();
        let mut projections = Vec::new();
        if !aggregated {
            projections.reserve_exact(bound.items.len());
            for item in &bound.items {
                projections.push(match item {
                    OutputItem::Expr(Expr::Col(slot)) => Projection::Slot(*slot),
                    OutputItem::Expr(Expr::Const(v)) => Projection::Literal(v),
                    OutputItem::Expr(e) => Projection::Arithmetic(e.compile_f64()),
                    OutputItem::Agg(..) => {
                        return Err(FabricError::Internal(
                            "aggregate item in non-aggregated plan".into(),
                        ))
                    }
                });
            }
        }
        Ok(Consumer {
            bound,
            batch: ResultBatch::new(types),
            projections,
            groups: Vec::new(),
            index: BTreeMap::new(),
            probe: RawKey::default(),
            last: None,
            feeds,
            aggregated,
        })
    }

    /// An empty consumer of the same plan, for the next morsel, copied
    /// from this one, which must not have been fed (its own compiled
    /// programs: each carries the operand stack it runs on).
    pub(crate) fn fresh(&self) -> Self {
        Consumer {
            bound: self.bound,
            batch: self.batch.clone(),
            projections: self.projections.clone(),
            groups: Vec::new(),
            index: BTreeMap::new(),
            probe: RawKey::default(),
            last: None,
            feeds: self.feeds.clone(),
            aggregated: self.aggregated,
        }
    }

    /// CPU cycles one fed row costs (charged by the caller's engine loop).
    pub(crate) fn row_cycles(&self, costs: &fabric_sim::hierarchy::OpCosts) -> u64 {
        let ops: u64 = self
            .bound
            .items
            .iter()
            .map(|i| match i {
                OutputItem::Agg(_, e) | OutputItem::Expr(e) => e.ops() + 1,
            })
            .sum();
        if self.aggregated {
            let hash = if self.bound.group_by.is_empty() {
                0
            } else {
                costs.hash_op
            };
            hash + costs.f64_op * ops
        } else {
            costs.value_op * ops
        }
    }

    /// Rows (or groups) this partial currently holds — the partial's
    /// contribution to the merge stage's `rows_in`.
    pub(crate) fn partial_len(&self) -> usize {
        if self.aggregated {
            self.groups.len()
        } else {
            self.batch.len()
        }
    }

    /// Position in `groups` of the group `vals` belongs to, created on
    /// first sight.
    fn group_of(&mut self, vals: &[Value]) -> usize {
        let slots = &self.bound.group_by;
        let probe = &mut self.probe.0;
        if let Some(g) = self.last {
            let mut parts = slots.iter().zip(probe.iter());
            if parts.all(|(&s, k)| key_part_cmp(&vals[s], k).is_eq()) {
                return g;
            }
        }
        // Refill the probe in place (no allocation once its strings have
        // grown); it has no slots yet on the first row.
        probe.resize(slots.len(), Value::I8(0));
        for (k, &s) in probe.iter_mut().zip(slots) {
            match (k, &vals[s]) {
                (Value::Str(dst), Value::Str(src)) => {
                    dst.clear();
                    dst.push_str(src);
                }
                (k, v) => *k = v.clone(),
            }
        }
        let g = match self.index.get(&self.probe) {
            Some(&g) => g,
            None => {
                let g = self.groups.len();
                self.groups.push(new_accs(self.bound));
                self.index.insert(self.probe.clone(), g);
                g
            }
        };
        self.last = Some(g);
        g
    }

    pub(crate) fn feed(&mut self, vals: &[Value]) -> Result<()> {
        if !self.aggregated {
            let projections = &mut self.projections;
            return self.batch.push_row(|i, col| match &mut projections[i] {
                Projection::Slot(slot) => {
                    col.push(vals.get(*slot).ok_or(FabricError::ColumnIndexOutOfRange {
                        index: *slot,
                        len: vals.len(),
                    })?)
                }
                Projection::Literal(v) => col.push(v),
                Projection::Arithmetic(program) => col.push(&Value::F64(program.eval(vals)?)),
            });
        }
        let g = self.group_of(vals);
        for (acc, feed) in self.groups[g].iter_mut().zip(&mut self.feeds) {
            match feed {
                AggFeed::Count => acc.update_f64(0.0),
                AggFeed::Sum(program) => acc.update_f64(program.eval(vals)?),
                AggFeed::Value(e) => acc.update(&e.eval(vals)?)?,
            }
        }
        Ok(())
    }

    /// This partial's groups under their rendered keys. Raw-key equality
    /// is rendered-key equality except for strings that embed the key
    /// separator; such groups fold together here, as they always did.
    fn into_rendered(self) -> Result<RenderedGroups> {
        let mut groups = self.groups;
        let mut out = RenderedGroups::new();
        for (key, g) in self.index {
            let accs = std::mem::take(&mut groups[g]);
            match out.entry(render_key(&key.0)?) {
                Entry::Vacant(v) => {
                    v.insert((key.0, accs));
                }
                Entry::Occupied(mut e) => {
                    for (mine, theirs) in e.get_mut().1.iter_mut().zip(&accs) {
                        mine.merge(theirs)?;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Fold `other` (a later morsel's groups) into `acc`. Every group is
/// independent and [`ValueAgg::merge`] is applied pairwise, so the fold is
/// deterministic; `other` is walked in rendered-key order, which fixes the
/// order of the charges too.
fn merge_groups(
    mem: &mut MemoryHierarchy,
    acc: &mut RenderedGroups,
    other: RenderedGroups,
) -> Result<()> {
    let costs = mem.costs();
    for (key, (key_vals, accs)) in other {
        mem.cpu(costs.hash_op);
        match acc.entry(key) {
            Entry::Occupied(mut e) => {
                for (mine, theirs) in e.get_mut().1.iter_mut().zip(&accs) {
                    mem.cpu(costs.f64_op);
                    mine.merge(theirs)?;
                }
            }
            Entry::Vacant(v) => {
                v.insert((key_vals, accs));
            }
        }
    }
    Ok(())
}

/// Where one item of a grouped plan's output row comes from.
enum GroupedItem {
    /// A grouping column: position of its slot within `group_by`.
    Key(usize),
    /// An aggregate: its position among the plan's accumulators.
    Aggregate(usize),
}

/// Turn merged groups into the output batch, in rendered-key order.
fn finish_groups(
    bound: &BoundQuery,
    types: &[ColumnType],
    mut groups: RenderedGroups,
) -> Result<ResultBatch> {
    let mut sources = Vec::with_capacity(bound.items.len());
    let mut aggregates = 0;
    for item in &bound.items {
        sources.push(match item {
            OutputItem::Expr(Expr::Col(slot)) => {
                GroupedItem::Key(bound.group_by.iter().position(|g| g == slot).ok_or_else(
                    || FabricError::Internal(format!("grouped output slot {slot} not in GROUP BY")),
                )?)
            }
            OutputItem::Expr(other) => {
                return Err(FabricError::Internal(format!(
                    "non-column expression `{other}` in grouped output"
                )))
            }
            OutputItem::Agg(..) => {
                aggregates += 1;
                GroupedItem::Aggregate(aggregates - 1)
            }
        });
    }
    // Scalar aggregation over zero rows still returns one row
    // (count = 0, sum = 0; min/max/avg error, as they have no value).
    if groups.is_empty() && bound.group_by.is_empty() {
        groups.insert(String::new(), (Vec::new(), new_accs(bound)));
    }
    let mut out = ResultBatch::new(types);
    for (key_vals, accs) in groups.into_values() {
        out.push_row(|i, col| match sources[i] {
            GroupedItem::Key(pos) => col.push(&key_vals[pos]),
            GroupedItem::Aggregate(acc) => col.push(&accs[acc].finish()?),
        })?;
    }
    Ok(out)
}

/// Merge per-morsel partial consumers *in morsel order* on the active core
/// and produce the plan's output batch. The fold shape is fixed by the
/// morsel count (which depends only on the input size), never by the core
/// count — that is what makes N-core output bit-identical to 1-core even
/// for floating-point aggregates. Projected morsels concatenate, so the
/// result is the scan order; aggregated morsels fold their groups under
/// the rendered key, rendered here once per group per partial.
pub(crate) fn merge_partials<'q>(
    mem: &mut MemoryHierarchy,
    bound: &'q BoundQuery,
    types: &[ColumnType],
    partials: Vec<Consumer<'q>>,
) -> Result<ResultBatch> {
    let costs = mem.costs();
    if !bound.has_aggregates() {
        let batches: Vec<ResultBatch> = partials.into_iter().map(|p| p.batch).collect();
        for later in batches.iter().skip(1) {
            mem.cpu(costs.value_op * later.len() as u64);
        }
        return ResultBatch::concat(types, batches);
    }
    let mut it = partials.into_iter();
    let mut acc = match it.next() {
        Some(first) => first.into_rendered()?,
        None => RenderedGroups::new(),
    };
    for p in it {
        merge_groups(mem, &mut acc, p.into_rendered()?)?;
    }
    finish_groups(bound, types, acc)
}
