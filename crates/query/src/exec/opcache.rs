//! Signature-keyed operator cache (DESIGN.md §16).
//!
//! The staged executor's stage-0 + merge output for a given plan is a
//! pure function of (table contents, plan shape, predicate constants,
//! access path). A [`Session`](crate::Session) therefore memoizes that
//! output in an [`OpCache`] keyed by a 128-bit FNV-1a signature over
//! exactly those inputs; a hit returns the memoized batch without
//! re-touching the memory hierarchy at all. The signature hashes the
//! plan's fields through their `Hash` impls — never a rendering — and is
//! computed once, when the plan is prepared: the same number keys the
//! cache, names the plan in the query log (`plan_sig`), and, over the
//! geometry alone, names it in the calibration ledger (DESIGN.md §32).
//! Float literals hash by bit pattern, so `0.0` and `-0.0`, two NaN
//! payloads, or an `F32` and an `F64` of the same number are different
//! plans. ORDER BY and LIMIT are
//! deliberately **excluded** from the signature — a cached batch is the
//! pre-sort/pre-limit stage output, so plans differing only in their
//! post-processing share one entry. Entries are shared, not copied: the
//! run that fills one and every hit on it hold the same immutable
//! [`ResultBatch`] behind an `Rc` (DESIGN.md §19).
//!
//! Soundness:
//!
//! * the cache lives on the engine and is cleared whenever the catalog
//!   or machine shape changes (`register*`, `set_cores`,
//!   `open_recovered`, `clear_plan_cache`) — a signature can never
//!   outlive the table contents it hashed;
//! * only *clean* runs are inserted: a degraded run or an RM run with
//!   injected faults is never memoized, so fault-path behaviour
//!   (fallback counters, breaker state, chaos-suite invariants) is
//!   identical with or without the cache;
//! * the map is a `BTreeMap` — iteration order is never consulted, but
//!   the determinism rules of this workspace ban `HashMap` in
//!   result-affecting library code outright.

use super::batch::ResultBatch;
use crate::bind::BoundQuery;
use crate::cost::AccessPath;
use fabric_types::Geometry;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Default byte budget for memoized stage outputs. Generous on purpose:
/// the CI workloads' working sets fit with a wide margin, so eviction
/// only triggers on genuinely unbounded workloads (asserted by the
/// `abl_opcache` bench, whose hit ratio would collapse if CI-sized
/// entries were evicted).
pub const DEFAULT_OPCACHE_CAP_BYTES: u64 = 8 << 20;

/// One memoized stage output: the pre-sort/pre-limit batch and its heap
/// footprint ([`ResultBatch::heap_bytes`]) for the byte budget. The path
/// that produced it is the one the key names: only clean runs, which ran
/// the requested path, are inserted.
struct CachedScan {
    batch: Rc<ResultBatch>,
    bytes: u64,
}

/// The per-engine operator cache. See the module docs for keying and
/// invalidation rules.
pub struct OpCache {
    map: BTreeMap<u128, CachedScan>,
    /// Insertion order for FIFO eviction under the byte budget.
    order: VecDeque<u128>,
    bytes: u64,
    cap_bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Default for OpCache {
    fn default() -> Self {
        OpCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            cap_bytes: DEFAULT_OPCACHE_CAP_BYTES,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }
}

impl OpCache {
    /// Look up a signature; a hit shares the memoized stage output.
    pub(crate) fn probe(&mut self, key: u128) -> Option<Rc<ResultBatch>> {
        match self.map.get(&key) {
            Some(e) => {
                self.hits += 1;
                Some(Rc::clone(&e.batch))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoize a clean run's stage output under its signature, then
    /// evict oldest-first until the byte budget holds (the entry just
    /// inserted is never evicted — a cache that cannot admit the current
    /// query is useless).
    pub(crate) fn insert(&mut self, key: u128, batch: Rc<ResultBatch>) {
        self.insertions += 1;
        let bytes = batch.heap_bytes() as u64;
        if let Some(old) = self.map.insert(key, CachedScan { batch, bytes }) {
            self.bytes -= old.bytes;
            self.order.retain(|k| *k != key);
        }
        self.bytes += bytes;
        self.order.push_back(key);
        while self.bytes > self.cap_bytes && self.order.len() > 1 {
            let victim = self.order[0];
            if victim == key {
                break;
            }
            self.order.pop_front();
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }

    /// `(hits, misses)` since the engine was created (cleared entries do
    /// not reset the counters).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries inserted since the engine was created.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Entries evicted by the byte budget since the engine was created
    /// (`clear` is invalidation, not eviction, and is not counted here).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Heap bytes the memoized batches hold (their buffers' capacities).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The byte budget evictions hold the cache under.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Override the byte budget (tests and capacity experiments); evicts
    /// nothing retroactively — the next insert enforces the new budget.
    pub fn set_cap_bytes(&mut self, cap: u64) {
        self.cap_bytes = cap.max(1);
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry (catalog or machine-shape change).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// A plan's identity, 128-bit FNV-1a over its fields: table name, row
/// count, the RM geometry the analyzer admitted, and the plan shape
/// (touched columns, predicates *with constants*, output items, GROUP BY),
/// each hashed structurally, float literals by bit pattern.
/// `order_by` and `limit` are excluded by design — see module docs.
pub(crate) fn plan_signature(bound: &BoundQuery, table_rows: usize, geometry: &Geometry) -> u128 {
    let mut h = Fnv128::new();
    bound.table.hash(&mut h);
    table_rows.hash(&mut h);
    geometry.hash(&mut h);
    bound.touched.hash(&mut h);
    bound.preds.hash(&mut h);
    bound.items.hash(&mut h);
    bound.group_by.hash(&mut h);
    h.0
}

/// The same hash over the geometry alone: the calibration ledger keys
/// its entries by the top 32 bits.
pub(crate) fn geometry_signature(geometry: &Geometry) -> u128 {
    let mut h = Fnv128::new();
    geometry.hash(&mut h);
    h.0
}

/// Mix the executed access path into a base signature: the same plan on
/// a different path is a different cache entry (paths are answers-equal
/// but stats/path metadata differ).
pub(crate) fn keyed(base: u128, path: AccessPath) -> u128 {
    let tag: u8 = match path {
        AccessPath::Row => 1,
        AccessPath::Col => 2,
        AccessPath::Rm => 3,
    };
    let mut h = Fnv128(base);
    h.write(&[tag]);
    h.0
}

/// 128-bit FNV-1a, fed through [`Hasher`] so derived `Hash` impls can
/// write into it; the full state is the signature.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The low 64 bits; signatures read the whole state instead.
    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::OutputItem;
    use crate::exec::batch::Returned;
    use fabric_types::rng::{for_each_case, DetRng};
    use fabric_types::{
        AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, Expr, FieldSlice, OutputMode,
        Predicate, TsFilter, Value,
    };
    use std::collections::BTreeSet;

    /// `rows` rows of `arity` `i64` items, row `r` holding `r` throughout.
    fn batch(rows: usize, arity: usize) -> Rc<ResultBatch> {
        let mut b = ResultBatch::new(&vec![ColumnType::I64; arity]);
        for r in 0..rows {
            b.push_row(|_, col| col.push(&Value::I64(r as i64)))
                .unwrap();
        }
        Rc::new(b)
    }

    fn q(table: &str, pred_lit: i64) -> BoundQuery {
        BoundQuery {
            table: table.into(),
            touched: vec![0, 2],
            preds: vec![(0, CmpOp::Lt, Value::I64(pred_lit))],
            items: vec![OutputItem::Expr(Expr::Col(0))],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    fn field(column: usize) -> FieldSlice {
        FieldSlice::new(column, 8 * column, ColumnType::I64)
    }

    /// A packed geometry over the first `fields` `i64` columns of a
    /// 64-byte row.
    fn geom(fields: usize) -> Geometry {
        Geometry::packed(0x1000, 64, 100, (0..fields).map(field).collect())
    }

    /// Literals `==` confuses or that sit at the edge of their type, every
    /// one a different bit pattern or type from the others.
    fn edge_literals() -> [Value; 10] {
        [
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::F64(f64::from_bits(f64::NAN.to_bits() | 1)),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F32(1.5),
            Value::F64(1.5),
            Value::I32(7),
            Value::I64(7),
        ]
    }

    /// Geometries equal in everything but their mode, visibility or base.
    fn geometry_variants() -> [Geometry; 5] {
        let g = geom(2);
        let ts = TsFilter {
            begin: field(4),
            end: field(5),
            snapshot_ts: 9,
        };
        [
            g.clone(),
            g.clone().with_mode(OutputMode::FilteredRows),
            g.clone()
                .with_mode(OutputMode::Aggregate(vec![AggSpec::count()])),
            g.clone().with_visibility(ts),
            Geometry {
                base: g.base + 64,
                ..g
            },
        ]
    }

    #[test]
    fn signature_tracks_constants_but_not_post_processing() {
        let g = geom(2);
        let base = plan_signature(&q("t", 5), 100, &g);
        assert_eq!(base, plan_signature(&q("t", 5), 100, &g), "deterministic");
        assert_ne!(base, plan_signature(&q("t", 6), 100, &g), "constants");
        assert_ne!(base, plan_signature(&q("u", 5), 100, &g), "table");
        assert_ne!(base, plan_signature(&q("t", 5), 101, &g), "row count");
        assert_ne!(base, plan_signature(&q("t", 5), 100, &geom(3)), "geometry");

        // A literal is its bits and its type: ±0.0, two NaN payloads, the
        // integer extremes, and one number as F32 and F64 (or I32 and
        // I64) are different plans, in a predicate and in an output item.
        let in_pred = |v: Value| {
            let mut b = q("t", 0);
            b.preds[0].2 = v;
            plan_signature(&b, 100, &g)
        };
        let in_item = |v: Value| {
            let mut b = q("t", 0);
            b.items = vec![OutputItem::Expr(Expr::mul(Expr::Col(0), Expr::Const(v)))];
            plan_signature(&b, 100, &g)
        };
        for sign in [&in_pred as &dyn Fn(Value) -> u128, &in_item] {
            let sigs: BTreeSet<u128> = edge_literals().into_iter().map(sign).collect();
            assert_eq!(sigs.len(), edge_literals().len(), "{sigs:x?}");
            assert_eq!(sign(Value::F64(f64::NAN)), sign(Value::F64(f64::NAN)));
        }
        let sigs: BTreeSet<u128> = geometry_variants()
            .iter()
            .map(|g| plan_signature(&q("t", 5), 100, g))
            .collect();
        assert_eq!(sigs.len(), 5, "mode, visibility and base are identity");
        let tags: BTreeSet<u128> = geometry_variants()
            .iter()
            .map(|g| geometry_signature(g) >> 96)
            .collect();
        assert_eq!(tags.len(), 5, "so are they for the ledger's tag");

        let mut sorted = q("t", 5);
        sorted.order_by = vec![(0, true)];
        sorted.limit = Some(3);
        assert_eq!(
            base,
            plan_signature(&sorted, 100, &g),
            "ORDER BY/LIMIT share the cached stage output"
        );

        let k = keyed(base, AccessPath::Row);
        assert_ne!(k, keyed(base, AccessPath::Col));
        assert_ne!(k, keyed(base, AccessPath::Rm));
    }

    /// Everything the signature covers, with every float literal replaced
    /// by a text of its type and bits — so `==` on it is bitwise equality.
    type Identity = (
        String,
        usize,
        Geometry,
        Vec<usize>,
        Vec<(usize, CmpOp, Value)>,
        Vec<OutputItem>,
        Vec<usize>,
    );

    fn bits(v: &Value) -> Value {
        match v {
            Value::F32(x) => Value::Str(format!("f32:{:08x}", x.to_bits())),
            Value::F64(x) => Value::Str(format!("f64:{:016x}", x.to_bits())),
            v => v.clone(),
        }
    }

    fn expr_bits(e: &Expr) -> Expr {
        match e {
            Expr::Col(s) => Expr::Col(*s),
            Expr::Const(v) => Expr::Const(bits(v)),
            Expr::Add(a, b) => Expr::add(expr_bits(a), expr_bits(b)),
            Expr::Sub(a, b) => Expr::sub(expr_bits(a), expr_bits(b)),
            Expr::Mul(a, b) => Expr::mul(expr_bits(a), expr_bits(b)),
            Expr::Div(a, b) => Expr::div(expr_bits(a), expr_bits(b)),
        }
    }

    fn identity(b: &BoundQuery, rows: usize, g: &Geometry) -> Identity {
        let conjuncts = g.predicate.conjuncts().iter();
        let predicate = conjuncts
            .map(|c| ColumnPredicate::new(c.field, c.op, bits(&c.value)))
            .collect();
        let items = b.items.iter().map(|i| match i {
            OutputItem::Expr(e) => OutputItem::Expr(expr_bits(e)),
            OutputItem::Agg(f, e) => OutputItem::Agg(*f, expr_bits(e)),
        });
        (
            b.table.clone(),
            rows,
            g.clone().with_predicate(Predicate::new(predicate)),
            b.touched.clone(),
            b.preds
                .iter()
                .map(|(s, op, v)| (*s, *op, bits(v)))
                .collect(),
            items.collect(),
            b.group_by.clone(),
        )
    }

    fn pick<T: Clone>(rng: &mut DetRng, from: &[T]) -> T {
        from[rng.gen_range(0..from.len())].clone()
    }

    /// One part of a plan, drawn from a domain small enough that two
    /// draws often agree.
    fn draw_part(
        rng: &mut DetRng,
        part: usize,
        b: &mut BoundQuery,
        rows: &mut usize,
        g: &mut Geometry,
    ) {
        let lit = |rng: &mut DetRng| pick(rng, &edge_literals());
        match part {
            0 => b.table = pick(rng, &["t", "u"]).into(),
            1 => *rows = pick(rng, &[100, 101]),
            2 => b.touched = pick(rng, &[vec![0, 2], vec![2, 0], vec![0, 1, 2]]),
            3 => {
                let n = rng.gen_range(0..3usize);
                b.preds = (0..n)
                    .map(|_| {
                        (
                            rng.gen_range(0..2usize),
                            pick(rng, &[CmpOp::Lt, CmpOp::Ge]),
                            lit(rng),
                        )
                    })
                    .collect();
            }
            4 => {
                let e = match rng.gen_range(0..3u32) {
                    0 => Expr::Col(rng.gen_range(0..2usize)),
                    1 => Expr::Const(lit(rng)),
                    _ => Expr::mul(Expr::Col(0), Expr::Const(lit(rng))),
                };
                b.items = vec![match rng.gen_range(0..2u32) {
                    0 => OutputItem::Expr(e),
                    _ => OutputItem::Agg(pick(rng, &[AggFunc::Sum, AggFunc::Min]), e),
                }];
            }
            5 => b.group_by = pick(rng, &[vec![], vec![0], vec![1]]),
            6 => {
                *g = pick(rng, &geometry_variants());
                if rng.gen_bool(0.5) {
                    let p = ColumnPredicate::new(field(0), CmpOp::Lt, lit(rng));
                    *g = g.clone().with_predicate(Predicate::new(vec![p]));
                }
            }
            _ => {
                b.order_by = pick(rng, &[vec![], vec![(0, false)], vec![(0, true)]]);
                b.limit = pick(rng, &[None, Some(1), Some(5)]);
            }
        }
    }

    /// Equal signatures if and only if the plans are bitwise equal outside
    /// ORDER BY and LIMIT: each case draws a plan, copies it, and redraws
    /// one part of the copy — often to what it was, often only its ORDER
    /// BY / LIMIT, otherwise to something else.
    #[test]
    fn equal_signatures_iff_bitwise_equal_plans() {
        let (mut equal, mut unequal) = (0, 0);
        for_each_case("plan signature is bitwise plan identity", |rng| {
            let (mut a, mut rows_a, mut ga) = (q("t", 0), 100, geom(2));
            for part in 0..8 {
                draw_part(rng, part, &mut a, &mut rows_a, &mut ga);
            }
            let (mut b, mut rows_b, mut gb) = (a.clone(), rows_a, ga.clone());
            let part = rng.gen_range(0..8usize);
            draw_part(rng, part, &mut b, &mut rows_b, &mut gb);
            let same = identity(&a, rows_a, &ga) == identity(&b, rows_b, &gb);
            let keys = (
                plan_signature(&a, rows_a, &ga),
                plan_signature(&b, rows_b, &gb),
            );
            assert_eq!(keys.0 == keys.1, same, "{a:?} {ga:?}\n{b:?} {gb:?}");
            if same {
                equal += 1;
            } else {
                unequal += 1;
            }
        });
        assert!(
            equal > 16 && unequal > 16,
            "{equal} equal, {unequal} unequal"
        );
    }

    #[test]
    fn probe_and_insert_round_trip_with_counters() {
        let mut c = OpCache::default();
        assert!(c.probe(7).is_none());
        let stored = batch(2, 1);
        c.insert(7, Rc::clone(&stored));
        assert_eq!(c.bytes(), stored.heap_bytes() as u64, "exact accounting");
        let hit = c.probe(7).expect("hit");
        assert!(Rc::ptr_eq(&hit, &stored), "a hit shares the entry");
        assert_eq!(
            hit.rows(Returned::First(2)).unwrap(),
            vec![vec![Value::I64(0)], vec![Value::I64(1)]]
        );
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.insertions(), 1);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), (1, 1), "counters survive invalidation");
        assert_eq!(c.bytes(), 0, "invalidation returns the byte budget");
    }

    #[test]
    fn byte_budget_evicts_oldest_first_but_never_the_new_entry() {
        let mut c = OpCache::default();
        let wide = || batch(8, 4);
        c.set_cap_bytes(wide().heap_bytes() as u64 * 2);
        c.insert(1, wide());
        c.insert(2, wide());
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        c.insert(3, wide());
        assert_eq!(c.len(), 2, "budget holds two entries");
        assert_eq!(c.evictions(), 1);
        assert!(c.probe(1).is_none(), "oldest entry evicted");
        assert!(c.probe(3).is_some(), "the new entry survives");
        assert!(c.bytes() <= c.cap_bytes());

        // One entry larger than the whole budget is still admitted.
        c.set_cap_bytes(1);
        c.insert(9, wide());
        assert!(c.probe(9).is_some());
        assert_eq!(c.len(), 1);

        // Re-inserting under the same key replaces, not duplicates.
        let before = c.bytes();
        c.insert(9, wide());
        assert_eq!(c.bytes(), before);
        assert_eq!(c.len(), 1);
    }
}
