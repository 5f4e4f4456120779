//! The shared consumption operator and the merge.
//!
//! A plan runs as two stages (DESIGN.md §16):
//!
//! ```text
//! scan(path) → [filter] → project | aggregate  ──barrier──▶  merge
//! └──────────── stage 0 (fused, per morsel) ──┘   └ stage 1 (core 0) ┘
//! ```
//!
//! Stage 0 is one fused kernel pass per morsel, which ends in a
//! [`Consumer`]: a partial of its own per morsel, projecting rows or
//! folding them into groups. [`merge_partials`] is the pipeline breaker —
//! it needs every partial, in morsel order. The operator list itself, as
//! EXPLAIN ANALYZE and the query log report it, is decided in one place,
//! [`crate::cost::split_path_cost`]. Consumers are constructed only inside
//! this crate (lint rule `exec-internals`).

use super::batch::ResultBatch;
use super::buffer::EvalScratch;
use crate::bind::{BoundQuery, OutputItem};
use fabric_sim::MemoryHierarchy;
use fabric_types::{
    le_array, AggFunc, Chunk, ChunkError, ColumnType, ColumnView, Expr, F64Column, F64Program,
    FabricError, Result, Value, ValueAgg, BATCH_ROWS,
};
use std::collections::btree_map::{BTreeMap, Entry};
use std::rc::Rc;

/// The rendered group key: each key value through `Display`, each followed
/// by a unit separator. Its `String` order is the order grouped output
/// leaves the merge stage in ([`finish_groups`]).
fn render_key(key: &[Value]) -> Result<String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for v in key {
        write!(out, "{v}\u{1f}")
            .map_err(|e| FabricError::Internal(format!("group key formatting: {e}")))?;
    }
    Ok(out)
}

/// How one aggregate of the plan is fed a chunk.
enum AggFeed<'q> {
    /// `count`: the rows themselves are the input.
    Count,
    /// `sum` / `avg`: the expression as a compiled `f64` program (the
    /// same operands in the same order as `Expr::eval_f64`, so the same
    /// bits).
    Sum(F64Program),
    /// `min` / `max`: the expression's `Value`, so the result keeps the
    /// column's type.
    Value(MinMaxInput<'q>),
}

/// What a `min` / `max` ranges over.
enum MinMaxInput<'q> {
    Slot(usize),
    Literal(&'q Value),
    Arithmetic(F64Program),
}

/// Fresh accumulators for the plan's aggregates, in item order.
fn new_accs(bound: &BoundQuery) -> impl Iterator<Item = ValueAgg> + '_ {
    bound.items.iter().filter_map(|i| match i {
        OutputItem::Agg(f, _) => Some(ValueAgg::new(*f)),
        OutputItem::Expr(_) => None,
    })
}

/// Merged groups keyed by canonical key bytes ([`canonical_key`]), each
/// with its key values as first seen and its accumulators: a `BTreeMap`
/// so iteration is key-ordered on every core count — group output order
/// must never depend on hash iteration (rule `nondeterministic-core`).
type MergedGroups = BTreeMap<Box<[u8]>, (Vec<Value>, Vec<ValueAgg>)>;

/// How one item of a projecting plan is produced from a chunk's columns.
enum Projection<'q> {
    /// The column's values, as stored.
    Slot(usize),
    Literal(&'q Value),
    /// Arithmetic, as a compiled `f64` program (the same bits as
    /// `Expr::eval`).
    Arithmetic(F64Program),
}

/// A plan's consumption, resolved once per stage-0 run
/// ([`Consumer::plan`]) and shared by every morsel's partial.
pub(crate) struct ConsumePlan<'q> {
    bound: &'q BoundQuery,
    /// The output items' static types.
    types: Vec<ColumnType>,
    /// One per item of a projecting plan, in item order.
    projections: Vec<Projection<'q>>,
    /// One feed per aggregate, in item order.
    feeds: Vec<AggFeed<'q>>,
    /// The GROUP BY columns' types, in `group_by` order.
    key_types: Vec<ColumnType>,
    /// How a row's raw group key is read into words.
    key: KeyLayout,
    aggregated: bool,
}

/// A row's raw group key — the GROUP BY columns' encoded bytes back to
/// back — as `words` little-endian `u64`s, zero-padded. Two rows have
/// equal words exactly when they have equal raw keys.
struct KeyLayout {
    /// Reads that fill the words, none crossing a word boundary.
    pieces: Vec<KeyPiece>,
    /// Bytes of the raw key.
    width: usize,
    /// Words per row, at least one.
    words: usize,
}

/// `width` (1, 2, 4 or 8) bytes of a GROUP BY column's value, from its
/// byte `at` on, into word `word` at bit `shift`.
struct KeyPiece {
    slot: usize,
    at: usize,
    width: usize,
    word: usize,
    shift: u32,
}

impl KeyLayout {
    fn new(slots: &[usize], types: &[ColumnType]) -> Self {
        let mut pieces = Vec::new();
        // Byte offset in the raw key.
        let mut to = 0;
        for (&slot, ty) in slots.iter().zip(types) {
            let mut at = 0;
            while at < ty.width() {
                let fits = |w: usize| w <= ty.width() - at && w <= 8 - to % 8;
                let width = [8, 4, 2, 1].into_iter().find(|&w| fits(w)).unwrap_or(1);
                let word = to / 8;
                let shift = (to % 8 * 8) as u32;
                pieces.push(KeyPiece {
                    slot,
                    at,
                    width,
                    word,
                    shift,
                });
                at += width;
                to += width;
            }
        }
        KeyLayout {
            pieces,
            width: to,
            words: to.div_ceil(8).max(1),
        }
    }
}

/// `words[k * stride + word] |= piece of rows[k]`, `W` bytes a read.
fn fill_words<const W: usize>(
    col: &ColumnView<'_>,
    piece: &KeyPiece,
    rows: &[u32],
    words: &mut [u64],
    stride: usize,
) {
    let slots = words.iter_mut().skip(piece.word).step_by(stride);
    for (w, &r) in slots.zip(rows) {
        *w |= col.word_at::<W>(r as usize, piece.at) << piece.shift;
    }
}

/// Key equality as an inline loop: `==` on slices calls `memcmp`, which
/// costs more than the compare for keys of a word or two.
fn words_eq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
}

/// One morsel's groups, dense ids in first-seen order.
#[derive(Default)]
struct Groups {
    /// Group `g`'s accumulators, one per feed, at `g * feeds ..`.
    accs: Vec<ValueAgg>,
    /// Group `g`'s key as first seen, one value per GROUP BY column, at
    /// `g * columns ..`.
    keys: Vec<Value>,
    /// Canonical key bytes ([`canonical_key`]) → group id. Looked up, never
    /// iterated.
    index: BTreeMap<Box<[u8]>, u32>,
    /// Raw key words → group id, for the keys this morsel saw first that
    /// fit.
    seen: SeenKeys,
}

/// Words of the linear table of [`SeenKeys`].
const LINEAR_WORDS: usize = 16;

/// Slots of the open-addressed index into the linear table, four times as
/// many as it can hold keys, so a probe ends at an empty slot.
const SLOTS: usize = 64;

/// The raw key words a morsel has seen, each with its group: as many as
/// fit in a short linear table, reached through an open-addressed index
/// hashed from the words. Looked up, never iterated. A key that does not
/// fit is not held: each of its rows is canonicalized and looked up in
/// [`Groups::index`].
///
/// Once the morsel has seen a row's key, the probe nearly always ends at
/// the first slot it tries, whichever key the row has: the path does not
/// depend on the order of the keys, so shuffled keys cost about what
/// sorted ones do.
struct SeenKeys {
    linear: [u64; LINEAR_WORDS],
    linear_groups: [u32; LINEAR_WORDS],
    /// Keys in the linear table.
    held: usize,
    /// Linear-table entry + 1 of the key hashed here, or 0.
    slots: [u8; SLOTS],
}

impl Default for SeenKeys {
    fn default() -> Self {
        SeenKeys {
            linear: [0; LINEAR_WORDS],
            linear_groups: [0; LINEAR_WORDS],
            held: 0,
            slots: [0; SLOTS],
        }
    }
}

impl SeenKeys {
    /// The first slot to probe for `key`.
    fn slot(key: &[u64]) -> usize {
        let h = key
            .iter()
            .fold(0u64, |h, &w| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h >> (64 - SLOTS.trailing_zeros())) as usize
    }

    fn get(&self, key: &[u64]) -> Option<u32> {
        let mut s = Self::slot(key);
        // At most a quarter of the slots are taken, so the probe ends.
        while let Some(e) = self.slots[s].checked_sub(1) {
            let e = usize::from(e);
            if words_eq(&self.linear[e * key.len()..][..key.len()], key) {
                return Some(self.linear_groups[e]);
            }
            s = (s + 1) % SLOTS;
        }
        None
    }

    /// Hold `key` with its group `g`, if the linear table has room.
    fn insert(&mut self, key: &[u64], g: u32) {
        let at = self.held * key.len();
        let Some(entry) = self.linear.get_mut(at..at + key.len()) else {
            return;
        };
        entry.copy_from_slice(key);
        self.linear_groups[self.held] = g;
        self.held += 1;
        let mut s = Self::slot(key);
        while self.slots[s] != 0 {
            s = (s + 1) % SLOTS;
        }
        self.slots[s] = self.held as u8;
    }
}

impl Groups {
    /// The group of a key whose words [`Self::seen`] does not hold: by its
    /// canonical form, created if that is new. `raw` and `canon` are
    /// scratch.
    fn canonical_group(
        &mut self,
        plan: &ConsumePlan<'_>,
        key: &[u64],
        raw: &mut Vec<u8>,
        canon: &mut Vec<u8>,
    ) -> u32 {
        raw.clear();
        raw.extend(key.iter().flat_map(|w| w.to_le_bytes()));
        raw.truncate(plan.key.width);
        canonical_key(&plan.key_types, raw, canon);
        if let Some(&g) = self.index.get(canon.as_slice()) {
            return g;
        }
        let g = self.index.len() as u32;
        self.index.insert(canon.as_slice().into(), g);
        self.accs.extend(new_accs(plan.bound));
        let mut rest = raw.as_slice();
        for &ty in &plan.key_types {
            let (field, after) = rest.split_at(ty.width());
            self.keys.push(Value::decode(ty, field));
            rest = after;
        }
        g
    }
}

/// Shared consumption: either appends projected rows to a typed batch or
/// maintains grouped aggregates. One `Consumer` holds one morsel's partial
/// result.
pub(crate) struct Consumer<'q> {
    plan: Rc<ConsumePlan<'q>>,
    /// The morsel's projected rows (stays empty when the plan aggregates).
    batch: ResultBatch,
    groups: Groups,
}

/// `best` ← `new` if `new` failed on an earlier row: a row-at-a-time loop
/// stops at the first failing row, and on that row at the first failing
/// item — items report in item order, so ties keep what is there.
fn keep_first(best: &mut Option<ChunkError>, new: ChunkError) {
    if best.as_ref().is_none_or(|b| new.at < b.at) {
        *best = Some(new);
    }
}

/// An error every row would raise, so the chunk's first row did.
fn on_first_row(error: FabricError) -> ChunkError {
    ChunkError { at: 0, error }
}

/// `out` ← the canonical form of a raw group key (the GROUP BY columns'
/// encoded bytes back to back, of types `types`): two keys have equal
/// canonical bytes exactly when they are one group — every NaN one key,
/// `-0.0` and `0.0` two, a text up to its first NUL as decoded and then a
/// NUL, so texts of different lengths cannot run into each other. These
/// bytes are a group's identity from the morsel to the merge.
fn canonical_key(types: &[ColumnType], mut raw: &[u8], out: &mut Vec<u8>) {
    out.clear();
    for &ty in types {
        let (field, rest) = raw.split_at(ty.width());
        raw = rest;
        match ty {
            ColumnType::F32 if f32::from_le_bytes(le_array(field)).is_nan() => {
                out.extend_from_slice(&f32::NAN.to_le_bytes());
            }
            ColumnType::F64 if f64::from_le_bytes(le_array(field)).is_nan() => {
                out.extend_from_slice(&f64::NAN.to_le_bytes());
            }
            ColumnType::FixedStr(_) => {
                out.extend_from_slice(ColumnView::new(ty, field, 0).text(0).as_bytes());
                out.push(0);
            }
            _ => out.extend_from_slice(field),
        }
    }
}

impl<'q> Consumer<'q> {
    /// Resolve how `bound`, whose output items have the static `types`
    /// ([`VerifiedQuery::output_types`]) and whose GROUP BY columns the
    /// `key_types`, consumes a chunk. Done once per stage-0 run; every
    /// morsel then consumes into its own [`Self::new`] /
    /// [`Self::successor`].
    ///
    /// [`VerifiedQuery::output_types`]: crate::analyze::VerifiedQuery::output_types
    pub(crate) fn plan(
        bound: &'q BoundQuery,
        types: Vec<ColumnType>,
        key_types: Vec<ColumnType>,
    ) -> Result<Rc<ConsumePlan<'q>>> {
        let aggregated = bound.has_aggregates();
        let feeds = bound
            .items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Agg(AggFunc::Count, _) => Some(AggFeed::Count),
                OutputItem::Agg(AggFunc::Sum | AggFunc::Avg, e) => {
                    Some(AggFeed::Sum(e.compile_f64()))
                }
                OutputItem::Agg(AggFunc::Min | AggFunc::Max, e) => Some(AggFeed::Value(match e {
                    Expr::Col(slot) => MinMaxInput::Slot(*slot),
                    Expr::Const(v) => MinMaxInput::Literal(v),
                    e => MinMaxInput::Arithmetic(e.compile_f64()),
                })),
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
        let key = KeyLayout::new(&bound.group_by, &key_types);
        Ok(Rc::new(ConsumePlan {
            bound,
            types,
            projections,
            feeds,
            key_types,
            key,
            aggregated,
        }))
    }

    /// An empty partial of `plan`, for the first morsel.
    pub(crate) fn new(plan: &Rc<ConsumePlan<'q>>) -> Self {
        Consumer {
            plan: Rc::clone(plan),
            batch: ResultBatch::new(&plan.types),
            groups: Groups::default(),
        }
    }

    /// An empty partial for the next morsel, its buffers reserved for as
    /// many rows (or groups) as this one, the morsel before it, holds.
    pub(crate) fn successor(&self) -> Self {
        Consumer {
            plan: Rc::clone(&self.plan),
            batch: self.batch.successor(),
            groups: Groups {
                accs: Vec::with_capacity(self.groups.accs.len()),
                keys: Vec::with_capacity(self.groups.keys.len()),
                ..Groups::default()
            },
        }
    }

    /// CPU cycles one consumed row costs (charged by the kernel).
    pub(crate) fn row_cycles(
        plan: &ConsumePlan<'_>,
        costs: &fabric_sim::hierarchy::OpCosts,
    ) -> u64 {
        let bound = plan.bound;
        let ops: u64 = bound
            .items
            .iter()
            .map(|i| match i {
                OutputItem::Agg(_, e) | OutputItem::Expr(e) => e.ops() + 1,
            })
            .sum();
        if plan.aggregated {
            let hash = if bound.group_by.is_empty() {
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
        if self.plan.aggregated {
            // An aggregating plan has at least one feed.
            self.groups.accs.len() / self.plan.feeds.len()
        } else {
            self.batch.len()
        }
    }

    /// Consume `rows` of `chunk`, in that order: what feeding each row's
    /// decoded tuple to a row-at-a-time consumer would leave behind, done
    /// a column — an item, an accumulator — at a time. On an error the
    /// partial is unusable (the query fails); the error names the row a
    /// row-at-a-time loop would have failed on.
    pub(crate) fn consume(
        &mut self,
        chunk: &Chunk<'_>,
        rows: &[u32],
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), ChunkError> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut failed = None;
        if self.plan.aggregated {
            self.assign_groups(chunk, rows, scratch)?;
            self.accumulate(chunk, rows, scratch, &mut failed);
        } else {
            let projections = &self.plan.projections;
            self.batch.append_rows(rows.len(), |i, col| {
                let appended = match &projections[i] {
                    Projection::Slot(slot) => chunk
                        .col(*slot)
                        .and_then(|values| col.extend_from(&values, rows))
                        .map_err(on_first_row),
                    Projection::Literal(v) => col.push_n(v, rows.len()).map_err(on_first_row),
                    Projection::Arithmetic(program) => program
                        .eval_chunk(chunk, rows, &mut scratch.regs)
                        .and_then(|v| col.extend_f64(v, rows.len()).map_err(on_first_row)),
                };
                if let Err(e) = appended {
                    keep_first(&mut failed, e);
                }
            });
        }
        failed.map_or(Ok(()), Err)
    }

    /// `scratch.gids[k]` ← the group of `rows[k]`, created on first sight:
    /// the rows' raw keys are read into words a column piece at a time, and
    /// each row's words are looked up among those [`Groups::seen`] holds —
    /// canonicalized only if it does not hold them.
    fn assign_groups(
        &mut self,
        chunk: &Chunk<'_>,
        rows: &[u32],
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), ChunkError> {
        let plan = &*self.plan;
        let groups = &mut self.groups;
        let EvalScratch {
            gids,
            words,
            raw,
            canon,
            ..
        } = scratch;
        gids.clear();
        let slots = &plan.bound.group_by;
        if slots.is_empty() {
            // One group, there from the first row consumed.
            if groups.accs.is_empty() {
                groups.accs.extend(new_accs(plan.bound));
            }
            gids.resize(rows.len(), 0);
            return Ok(());
        }
        for (&ty, &slot) in plan.key_types.iter().zip(slots) {
            let col = chunk.col(slot).map_err(on_first_row)?;
            if col.ty() != ty {
                return Err(on_first_row(FabricError::Internal(format!(
                    "GROUP BY slot {slot} is {}, planned as {}",
                    col.ty().name(),
                    ty.name()
                ))));
            }
        }
        let stride = plan.key.words;
        words.clear();
        // Sized for a whole chunk the first time, like the other buffers.
        words.reserve_exact(BATCH_ROWS * stride);
        words.resize(rows.len() * stride, 0);
        for piece in &plan.key.pieces {
            let col = chunk.col(piece.slot).map_err(on_first_row)?;
            match piece.width {
                1 => fill_words::<1>(&col, piece, rows, words, stride),
                2 => fill_words::<2>(&col, piece, rows, words, stride),
                4 => fill_words::<4>(&col, piece, rows, words, stride),
                _ => fill_words::<8>(&col, piece, rows, words, stride),
            }
        }
        for key in words.chunks_exact(stride) {
            let g = match groups.seen.get(key) {
                Some(g) => g,
                None => {
                    let g = groups.canonical_group(plan, key, raw, canon);
                    groups.seen.insert(key, g);
                    g
                }
            };
            gids.push(g);
        }
        Ok(())
    }

    /// Update every accumulator with its rows, an accumulator at a time,
    /// each in row order. The columns the feeds' programs read are
    /// gathered once for all of them.
    fn accumulate(
        &mut self,
        chunk: &Chunk<'_>,
        rows: &[u32],
        scratch: &mut EvalScratch,
        failed: &mut Option<ChunkError>,
    ) {
        let EvalScratch { gids, regs, .. } = scratch;
        let plan = &*self.plan;
        let programs = plan.feeds.iter().filter_map(|feed| match feed {
            AggFeed::Sum(p) | AggFeed::Value(MinMaxInput::Arithmetic(p)) => Some(p),
            AggFeed::Count | AggFeed::Value(_) => None,
        });
        regs.load(chunk, rows, programs.flat_map(F64Program::slots));
        let accs = &mut self.groups.accs;
        let stride = plan.feeds.len();
        for (a, feed) in plan.feeds.iter().enumerate() {
            // Group `g`'s accumulator for this feed, and row `k`'s.
            let of = |g: u32| g as usize * stride + a;
            let at = |k: usize| of(gids[k]);
            let fed = match feed {
                AggFeed::Count => {
                    gids.iter().for_each(|&g| accs[of(g)].count_row());
                    Ok(())
                }
                AggFeed::Sum(program) => program.eval_loaded(regs).map(|values| match values {
                    F64Column::Scalar(x) => gids.iter().for_each(|&g| accs[of(g)].add_f64(x)),
                    F64Column::Vector(v) => {
                        let fed = gids.iter().zip(v);
                        fed.for_each(|(&g, &x)| accs[of(g)].add_f64(x));
                    }
                }),
                AggFeed::Value(MinMaxInput::Slot(s)) => {
                    chunk.col(*s).map_err(on_first_row).and_then(|col| {
                        rows.iter().enumerate().try_for_each(|(k, &r)| {
                            let updated = accs[at(k)].update_at(&col, r as usize);
                            updated.map_err(|error| ChunkError { at: k, error })
                        })
                    })
                }
                AggFeed::Value(MinMaxInput::Literal(v)) => (0..rows.len()).try_for_each(|k| {
                    accs[at(k)]
                        .update(v)
                        .map_err(|error| ChunkError { at: k, error })
                }),
                AggFeed::Value(MinMaxInput::Arithmetic(program)) => {
                    program.eval_loaded(regs).and_then(|values| {
                        (0..rows.len()).try_for_each(|k| {
                            let updated = accs[at(k)].update(&Value::F64(values.at(k)));
                            updated.map_err(|error| ChunkError { at: k, error })
                        })
                    })
                }
            };
            if let Err(e) = fed {
                keep_first(failed, e);
            }
        }
    }

    /// This partial's groups in group-id order, each under its
    /// canonical key bytes. A plan without GROUP BY has one group, keyed
    /// by no bytes.
    fn into_groups(self) -> impl Iterator<Item = (Box<[u8]>, Vec<Value>, Vec<ValueAgg>)> {
        let (columns, feeds) = (self.plan.bound.group_by.len(), self.plan.feeds.len());
        let Groups {
            accs, keys, index, ..
        } = self.groups;
        let mut canon = vec![Box::default(); accs.len() / feeds];
        for (key, g) in index {
            canon[g as usize] = key;
        }
        let (mut keys, mut accs) = (keys.into_iter(), accs.into_iter());
        canon.into_iter().map(move |key| {
            let values = keys.by_ref().take(columns).collect();
            (key, values, accs.by_ref().take(feeds).collect())
        })
    }
}

/// Fold `other` (a later morsel's groups) into `acc`. Every group is
/// independent and [`ValueAgg::merge`] is applied pairwise, so the fold is
/// deterministic.
fn merge_groups(
    mem: &mut MemoryHierarchy,
    acc: &mut MergedGroups,
    other: impl Iterator<Item = (Box<[u8]>, Vec<Value>, Vec<ValueAgg>)>,
) -> Result<()> {
    let costs = mem.costs();
    for (key, key_vals, accs) in other {
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

/// Turn merged groups into the output batch, ordered by rendered key and,
/// among groups whose keys render alike, by canonical key.
fn finish_groups(
    bound: &BoundQuery,
    types: &[ColumnType],
    groups: MergedGroups,
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
    // The groups arrive in canonical-key order, which the stable sort
    // keeps among equal renderings.
    let mut groups = groups
        .into_values()
        .map(|group| Ok((render_key(&group.0)?, group)))
        .collect::<Result<Vec<_>>>()?;
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    // Scalar aggregation over zero rows still returns one row
    // (count = 0, sum = 0; min/max/avg error, as they have no value).
    if groups.is_empty() && bound.group_by.is_empty() {
        groups.push((String::new(), (Vec::new(), new_accs(bound).collect())));
    }
    let mut out = ResultBatch::new(types);
    for (_, (key_vals, accs)) in groups {
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
/// their canonical key bytes, and each merged group is rendered once, to
/// order the output.
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
    let mut acc = MergedGroups::new();
    if let Some(first) = it.next() {
        acc.extend(
            first
                .into_groups()
                .map(|(key, vals, accs)| (key, (vals, accs))),
        );
    }
    for p in it {
        merge_groups(mem, &mut acc, p.into_groups())?;
    }
    finish_groups(bound, types, acc)
}
