//! Signature-keyed operator cache (DESIGN.md §16).
//!
//! The staged executor's stage-0 + merge output for a given plan is a
//! pure function of (table contents, plan shape, predicate constants,
//! access path). A [`Session`](crate::Session) therefore memoizes that
//! output in an [`OpCache`] keyed by a 128-bit FNV-1a signature over
//! exactly those inputs; a hit returns the memoized batch without
//! re-touching the memory hierarchy at all. ORDER BY and LIMIT are
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
use relmem::RmStats;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Default byte budget for memoized stage outputs. Generous on purpose:
/// the CI workloads' working sets fit with a wide margin, so eviction
/// only triggers on genuinely unbounded workloads (asserted by the
/// `abl_opcache` bench, whose hit ratio would collapse if CI-sized
/// entries were evicted).
pub const DEFAULT_OPCACHE_CAP_BYTES: u64 = 8 << 20;

/// One memoized stage output: the pre-sort/pre-limit batch, the path that
/// produced it, the (clean) device stats when that path was RM, and the
/// entry's heap footprint ([`ResultBatch::heap_bytes`]) for the byte
/// budget.
struct CachedScan {
    batch: Rc<ResultBatch>,
    path: AccessPath,
    rm_stats: Option<RmStats>,
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
    pub(crate) fn probe(
        &mut self,
        key: u128,
    ) -> Option<(Rc<ResultBatch>, AccessPath, Option<RmStats>)> {
        match self.map.get(&key) {
            Some(e) => {
                self.hits += 1;
                Some((Rc::clone(&e.batch), e.path, e.rm_stats))
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
    pub(crate) fn insert(
        &mut self,
        key: u128,
        batch: Rc<ResultBatch>,
        path: AccessPath,
        rm_stats: Option<RmStats>,
    ) {
        self.insertions += 1;
        let bytes = batch.heap_bytes() as u64;
        if let Some(old) = self.map.insert(
            key,
            CachedScan {
                batch,
                path,
                rm_stats,
                bytes,
            },
        ) {
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

/// How a pipeline run participates in the operator cache: `None` runs
/// cold and fills nothing (measurement entry points — benches and
/// EXPLAIN ANALYZE must observe the real hierarchy), `Keyed` probes and
/// fills the session's cache under a precomputed signature.
pub(crate) enum CacheSlot<'c> {
    None,
    Keyed(&'c mut OpCache, u128),
}

impl CacheSlot<'_> {
    pub(crate) fn probe(&mut self) -> Option<(Rc<ResultBatch>, AccessPath, Option<RmStats>)> {
        match self {
            CacheSlot::Keyed(c, key) => c.probe(*key),
            CacheSlot::None => None,
        }
    }
}

/// 128-bit FNV-1a over the cache-relevant plan identity: table name,
/// row count, the RM geometry the analyzer admitted, and the plan shape
/// (touched columns, predicates *with constants*, output items, GROUP
/// BY). `order_by` and `limit` are excluded by design — see module docs.
pub(crate) fn plan_signature(bound: &BoundQuery, table_rows: usize, geometry: &str) -> u128 {
    let mut h = Fnv128::new();
    h.update(bound.table.as_bytes());
    h.update(&(table_rows as u64).to_le_bytes());
    h.update(geometry.as_bytes());
    h.update(
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            bound.touched, bound.preds, bound.items, bound.group_by
        )
        .as_bytes(),
    );
    h.finish()
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
    h.update(&[tag]);
    h.finish()
}

struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::OutputItem;
    use fabric_types::{CmpOp, ColumnType, Expr, Value};

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

    #[test]
    fn signature_tracks_constants_but_not_post_processing() {
        let base = plan_signature(&q("t", 5), 100, "g");
        assert_eq!(base, plan_signature(&q("t", 5), 100, "g"), "deterministic");
        assert_ne!(base, plan_signature(&q("t", 6), 100, "g"), "constants");
        assert_ne!(base, plan_signature(&q("u", 5), 100, "g"), "table");
        assert_ne!(base, plan_signature(&q("t", 5), 101, "g"), "row count");
        assert_ne!(base, plan_signature(&q("t", 5), 100, "g2"), "geometry");

        let mut sorted = q("t", 5);
        sorted.order_by = vec![(0, true)];
        sorted.limit = Some(3);
        assert_eq!(
            base,
            plan_signature(&sorted, 100, "g"),
            "ORDER BY/LIMIT share the cached stage output"
        );

        let k = keyed(base, AccessPath::Row);
        assert_ne!(k, keyed(base, AccessPath::Col));
        assert_ne!(k, keyed(base, AccessPath::Rm));
    }

    #[test]
    fn probe_and_insert_round_trip_with_counters() {
        let mut c = OpCache::default();
        assert!(c.probe(7).is_none());
        let stored = batch(2, 1);
        c.insert(7, Rc::clone(&stored), AccessPath::Col, None);
        assert_eq!(c.bytes(), stored.heap_bytes() as u64, "exact accounting");
        let (hit, path, rm) = c.probe(7).expect("hit");
        assert!(Rc::ptr_eq(&hit, &stored), "a hit shares the entry");
        assert_eq!(
            hit.rows(0..2),
            vec![vec![Value::I64(0)], vec![Value::I64(1)]]
        );
        assert_eq!(path, AccessPath::Col);
        assert!(rm.is_none());
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
        c.insert(1, wide(), AccessPath::Row, None);
        c.insert(2, wide(), AccessPath::Row, None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        c.insert(3, wide(), AccessPath::Row, None);
        assert_eq!(c.len(), 2, "budget holds two entries");
        assert_eq!(c.evictions(), 1);
        assert!(c.probe(1).is_none(), "oldest entry evicted");
        assert!(c.probe(3).is_some(), "the new entry survives");
        assert!(c.bytes() <= c.cap_bytes());

        // One entry larger than the whole budget is still admitted.
        c.set_cap_bytes(1);
        c.insert(9, wide(), AccessPath::Col, None);
        assert!(c.probe(9).is_some());
        assert_eq!(c.len(), 1);

        // Re-inserting under the same key replaces, not duplicates.
        let before = c.bytes();
        c.insert(9, wide(), AccessPath::Col, None);
        assert_eq!(c.bytes(), before);
        assert_eq!(c.len(), 1);
    }
}
