//! Metrics registry: named monotonic counters, gauges, and log-bucketed
//! histograms, with a stable snapshot/delta API and a single JSON
//! serialization path.
//!
//! All maps are `BTreeMap`s so iteration — and therefore serialization —
//! is deterministic: same counter updates, byte-identical JSON. This is
//! the one formatter the workspace's stats flow through (`raw-stats-print`
//! in fabric-lint flags hand-rolled alternatives in core crates).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets in a [`Histogram`]. Bucket `i` counts values
/// `v` with `63 - v.leading_zeros() == i` (bucket 0 also takes `v == 0`),
/// covering the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` samples (latencies in cycles,
/// amplification ratios scaled ×100, byte counts, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of observed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Deterministic quantile estimate (`q` in `[0, 1]`).
    ///
    /// The histogram keeps log2 buckets, so the estimate selects the
    /// bucket containing the target rank and interpolates linearly inside
    /// the bucket's `[2^i, 2^(i+1))` value range, clamped to the observed
    /// `[min, max]`. Pure integer/f64 arithmetic over the bucket counts:
    /// the same samples always yield bit-identical quantiles, which is
    /// what lets p50/p99 gauges pass through the exact-match perf gate.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n)),
            self.count,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            q,
        )
    }

    /// Immutable snapshot used by [`MetricsSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]; only non-empty buckets are kept,
/// as `(log2_bucket, count)` pairs sorted by bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Same estimator as [`Histogram::quantile`], over the snapshot's
    /// sparse bucket list.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(
            self.buckets.iter().copied(),
            self.count,
            self.min,
            self.max,
            q,
        )
    }
}

/// Shared quantile walk over sparse `(log2_bucket, count)` pairs.
///
/// Rank is `ceil(q * count)` clamped to `[1, count]` (nearest-rank with
/// interpolation inside the owning bucket). Bucket `i > 0` spans values
/// `[2^i, 2^(i+1))`; bucket 0 spans `[0, 2)`. The interpolated value is
/// clamped to the observed `[min, max]` so quantiles never exaggerate
/// past real samples. Empty histograms report 0.0.
fn quantile_from_buckets(
    buckets: impl Iterator<Item = (u32, u64)>,
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (bucket, n) in buckets {
        if seen + n >= rank {
            let lo = if bucket == 0 {
                0.0
            } else {
                (1u64 << bucket) as f64
            };
            let hi = if bucket >= 63 {
                u64::MAX as f64
            } else {
                (1u64 << (bucket + 1)) as f64
            };
            // Midpoint-of-rank interpolation: the k-th of n samples in a
            // bucket sits at fraction (k - 0.5) / n of the bucket span.
            let k = rank - seen;
            let frac = (k as f64 - 0.5) / n as f64;
            let v = lo + frac * (hi - lo);
            return v.clamp(min as f64, max as f64);
        }
        seen += n;
    }
    max as f64
}

/// A monotonic counter, plus what [`MetricsRegistry::delta_since_mark`]
/// needs: its value just before its first write after the latest mark.
#[derive(Debug, Clone, Copy)]
struct Counter {
    value: u64,
    /// The value before the first write under mark `mark`; meaningful only
    /// while `mark` is the registry's current one.
    at_mark: u64,
    /// The mark this counter was last written under.
    mark: u64,
}

/// Which registry issued a handle: every [`MetricsRegistry`] gets its own
/// when it is created, so a holder of handles can tell that the
/// registry it writes to is still the one it resolved them on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryId(u64);

impl RegistryId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        RegistryId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A slot of one registry: what the three handle types wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Handle {
    registry: RegistryId,
    slot: usize,
}

/// A counter resolved once by [`MetricsRegistry::counter_id`]; writing
/// through it with [`MetricsRegistry::counter_add_id`] looks up no name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(Handle);

/// A gauge resolved once by [`MetricsRegistry::gauge_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(Handle);

/// A histogram resolved once by [`MetricsRegistry::histogram_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(Handle);

/// One kind of metric: the ordered name index and the slots it points
/// into. A slot is `None` until its first write, so a name resolved but
/// never written is in no snapshot.
#[derive(Debug)]
struct Slots<T> {
    names: BTreeMap<String, usize>,
    slots: Vec<Option<T>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            names: BTreeMap::new(),
            slots: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// The slot of `name`, made (unwritten) on first sight.
    fn resolve(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.names.get(name) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.push(None);
        self.names.insert(name.to_string(), slot);
        slot
    }

    /// The written value of `name`, if any.
    fn get(&self, name: &str) -> Option<&T> {
        self.names
            .get(name)
            .and_then(|&slot| self.slots[slot].as_ref())
    }

    /// Written metrics in name order.
    fn written(&self) -> impl Iterator<Item = (&String, &T)> {
        self.names
            .iter()
            .filter_map(|(k, &slot)| self.slots[slot].as_ref().map(|v| (k, v)))
    }
}

/// The workspace-wide metrics registry.
///
/// Counters are monotonic `u64`s, gauges are last-write-wins `f64`s,
/// histograms are log2-bucketed. Names are dotted paths
/// (`"mem.l1.hits"`, `"rm.retries"`, `"explain.rel_err_pct"`), owned
/// strings so callers can build them dynamically.
///
/// Each name maps to a slot. A writer that writes the same metrics over
/// and over resolves their names once ([`MetricsRegistry::counter_id`],
/// [`MetricsRegistry::gauge_id`], [`MetricsRegistry::histogram_id`]) and
/// writes through the handles, which index the slot directly; a write by
/// name is a resolution and then the same write. A handle is valid only on
/// the registry that resolved it ([`MetricsRegistry::id`]); using it on
/// another panics instead of writing whatever that registry keeps in the
/// same slot (DESIGN.md §30).
///
/// [`MetricsRegistry::mark`] starts a window in O(1):
/// [`MetricsRegistry::delta_since_mark`] later reports exactly the counter
/// deltas against a snapshot taken at the mark, without taking one
/// (DESIGN.md §24).
#[derive(Debug)]
pub struct MetricsRegistry {
    id: RegistryId,
    counters: Slots<Counter>,
    gauges: Slots<f64>,
    histograms: Slots<Histogram>,
    /// Names looked up to resolve a handle or to write by name.
    resolutions: u64,
    /// The current mark; 0 until the first [`MetricsRegistry::mark`].
    mark: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            id: RegistryId::fresh(),
            counters: Slots::default(),
            gauges: Slots::default(),
            histograms: Slots::default(),
            resolutions: 0,
            mark: 0,
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// This registry's identity: the one its handles carry.
    pub fn id(&self) -> RegistryId {
        self.id
    }

    /// How many names this registry has looked up to resolve a handle or
    /// to write by name — a writer that holds handles adds none.
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// The slot a handle names, after checking that this registry issued it.
    fn slot(&self, h: Handle) -> usize {
        assert!(
            h.registry == self.id,
            "a metric handle is valid only on the registry that resolved it"
        );
        h.slot
    }

    /// Resolve counter `name` once for [`MetricsRegistry::counter_add_id`].
    /// The counter appears in snapshots from its first write on.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.resolutions += 1;
        CounterId(Handle {
            registry: self.id,
            slot: self.counters.resolve(name),
        })
    }

    /// Resolve gauge `name` once for [`MetricsRegistry::gauge_set_id`].
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        self.resolutions += 1;
        GaugeId(Handle {
            registry: self.id,
            slot: self.gauges.resolve(name),
        })
    }

    /// Resolve histogram `name` once for [`MetricsRegistry::observe_id`].
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        self.resolutions += 1;
        HistogramId(Handle {
            registry: self.id,
            slot: self.histograms.resolve(name),
        })
    }

    /// Add to a monotonic counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        self.counter_add_id(id, delta);
    }

    /// [`MetricsRegistry::counter_add`] through a resolved handle.
    pub fn counter_add_id(&mut self, id: CounterId, delta: u64) {
        let mark = self.mark;
        let slot = self.slot(id.0);
        match &mut self.counters.slots[slot] {
            Some(c) => {
                if c.mark != mark {
                    // First write since the mark: remember where it started.
                    c.at_mark = c.value;
                    c.mark = mark;
                }
                c.value = c.value.saturating_add(delta);
            }
            // First write ever, after the mark: its delta is its whole value.
            unwritten => {
                *unwritten = Some(Counter {
                    value: delta,
                    at_mark: 0,
                    mark,
                })
            }
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.value)
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let id = self.gauge_id(name);
        self.gauge_set_id(id, value);
    }

    /// [`MetricsRegistry::gauge_set`] through a resolved handle.
    pub fn gauge_set_id(&mut self, id: GaugeId, value: f64) {
        let slot = self.slot(id.0);
        self.gauges.slots[slot] = Some(value);
    }

    /// Read a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a histogram sample (histogram created on first touch).
    pub fn observe(&mut self, name: &str, value: u64) {
        let id = self.histogram_id(name);
        self.observe_id(id, value);
    }

    /// [`MetricsRegistry::observe`] through a resolved handle.
    pub fn observe_id(&mut self, id: HistogramId, value: u64) {
        let slot = self.slot(id.0);
        self.histograms.slots[slot]
            .get_or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Read a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Start a new window for [`MetricsRegistry::delta_since_mark`].
    /// O(1): counters note their start lazily, on their first write after
    /// the mark.
    pub fn mark(&mut self) {
        self.mark += 1;
    }

    /// Counters that advanced since the latest [`MetricsRegistry::mark`]
    /// (one created since then counts from 0), plus gauges and histograms
    /// at their current values. Counters with zero delta are omitted, so a
    /// delta over an idle window is empty. Before the first mark every
    /// counter counts from 0.
    pub fn delta_since_mark(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .written()
            .filter_map(|(k, c)| {
                let base = if c.mark == self.mark {
                    c.at_mark
                } else {
                    c.value
                };
                let d = c.value - base;
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauge_values(),
            histograms: self.histogram_snapshots(),
        }
    }

    /// Point-in-time snapshot of all metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .written()
                .map(|(k, c)| (k.clone(), c.value))
                .collect(),
            gauges: self.gauge_values(),
            histograms: self.histogram_snapshots(),
        }
    }

    fn gauge_values(&self) -> BTreeMap<String, f64> {
        self.gauges
            .written()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    fn histogram_snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .written()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// Immutable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value at snapshot time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The prefix-stripped subtree of this snapshot: every metric whose
    /// name starts with `"<prefix>."` (the dot is appended if missing),
    /// re-keyed without the prefix, so `subtree("durability")` reads
    /// `"durability.wal.appends"` as `"wal.appends"`.
    pub fn subtree(&self, prefix: &str) -> MetricsSnapshot {
        let mut p = prefix.to_string();
        if !p.ends_with('.') {
            p.push('.');
        }
        fn strip<V: Clone>(m: &BTreeMap<String, V>, p: &str) -> BTreeMap<String, V> {
            m.iter()
                .filter_map(|(k, v)| k.strip_prefix(p).map(|rest| (rest.to_string(), v.clone())))
                .collect()
        }
        MetricsSnapshot {
            counters: strip(&self.counters, &p),
            gauges: strip(&self.gauges, &p),
            histograms: strip(&self.histograms, &p),
        }
    }

    /// The single serialization path: deterministic JSON (sorted keys,
    /// fixed float formatting). Every stats export in the workspace —
    /// bench `BENCH_*.json` files, EXPLAIN ANALYZE appendices, CI
    /// artifacts — goes through here.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(out, "\"{}\":{}", crate::json::escaped(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(out, "\"{}\":{}", crate::json::escaped(k), fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                crate::json::escaped(k),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ignored = write!(out, "[{bucket},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic float rendering for JSON: finite values via `{:?}`
/// (shortest round-trip form, locale-independent), non-finite mapped to
/// JSON-legal sentinels.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Infinity/NaN; null keeps the document parseable.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_strips_the_prefix() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("session.1.queries", 4);
        reg.counter_add("session.11.queries", 9);
        reg.counter_add("unrelated", 1);
        let snap = reg.snapshot();
        let s1 = snap.subtree("session.1");
        assert_eq!(s1.counter("queries"), 4);
        // "session.11.*" must not leak into "session.1"'s subtree.
        assert_eq!(s1.counters.len(), 1);
        assert!(snap.subtree("session.2").counters.is_empty());
    }

    #[test]
    fn counters_are_monotonic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        r.counter_add("b.second", 3);
        assert_eq!(r.counter("b.second"), 5);
        assert_eq!(r.counter("missing"), 0);
        let snap = r.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, ["a.first", "b.second"]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 1024 in 10; MAX in 63.
        assert_eq!(s.buckets, vec![(0, 2), (1, 2), (10, 1), (63, 1)]);
    }

    /// The delta the flight recorder used to compute from a snapshot
    /// taken when it was armed: the oracle for
    /// [`MetricsRegistry::delta_since_mark`].
    fn delta_since(now: &MetricsSnapshot, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = now
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.counter(k));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: now.gauges.clone(),
            histograms: now.histograms.clone(),
        }
    }

    #[test]
    fn delta_omits_idle_counters() {
        let mut r = MetricsRegistry::new();
        r.counter_add("x", 10);
        r.counter_add("y", 1);
        r.mark();
        r.counter_add("x", 7);
        r.counter_add("z", 2);
        let delta = r.delta_since_mark();
        assert_eq!(delta.counter("x"), 7);
        assert_eq!(delta.counter("z"), 2, "created after the mark: from 0");
        assert!(!delta.counters.contains_key("y"));
        r.mark();
        assert!(r.delta_since_mark().counters.is_empty());
    }

    /// Generated write sequences — counters created before and after a
    /// mark, touched and untouched since, zero deltas, marks in a row,
    /// per-session keys, gauges and histograms, never armed — give the same
    /// postmortem bytes as the snapshot-at-arm recorder did.
    #[test]
    fn delta_since_mark_matches_a_snapshot_taken_at_the_mark() {
        use crate::flight::FlightRecorder;
        const NAMES: [&str; 6] = ["a", "b.c", "b.d", "query.core0.td.retired", "x", "zz"];
        fabric_types::rng::for_each_case("delta_since_mark", |rng| {
            let mut reg = MetricsRegistry::new();
            let mut fr = FlightRecorder::with_capacity(4);
            let mut at_arm: Option<MetricsSnapshot> = None;
            for _ in 0..rng.gen_range(1..60usize) {
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                let delta = rng.gen_range(0..4u64);
                match rng.gen_range(0..10u32) {
                    0 | 1 => {
                        // One mark, or two in a row.
                        for _ in 0..rng.gen_range(1..3u32) {
                            fr.arm(&mut reg);
                            at_arm = Some(reg.snapshot());
                        }
                    }
                    2 => {
                        let session = rng.gen_range(0..3u32);
                        reg.counter_add(&format!("session.{session}.{name}"), delta);
                    }
                    3 => reg.gauge_set(name, delta as f64),
                    4 => reg.observe(name, delta),
                    _ => reg.counter_add(name, delta),
                }
                let expected = match &at_arm {
                    Some(at) => delta_since(&reg.snapshot(), at),
                    None => reg.snapshot(),
                }
                .to_json();
                if at_arm.is_some() {
                    assert_eq!(reg.delta_since_mark().to_json(), expected);
                }
                let pm = fr.dump("check", 0, &reg, &[]);
                assert_eq!(pm.metrics_delta, expected);
            }
        });
    }

    /// One generated write sequence, applied to one registry by name and
    /// to another through handles resolved at random points — some
    /// resolved again, some resolved and never written — with marks
    /// interleaved: after every step the two read, snapshot and delta
    /// alike, and the handle side's delta is the one a snapshot taken at
    /// the mark gives.
    #[test]
    fn handles_write_what_names_write() {
        const NAMES: [&str; 6] = ["a", "b.c", "b.d", "query.core0.td.retired", "x", "zz"];
        fabric_types::rng::for_each_case("handles_vs_names", |rng| {
            let mut by_name = MetricsRegistry::new();
            let mut by_id = MetricsRegistry::new();
            let mut counters: [Option<CounterId>; NAMES.len()] = [None; NAMES.len()];
            let mut gauges: [Option<GaugeId>; NAMES.len()] = [None; NAMES.len()];
            let mut histograms: [Option<HistogramId>; NAMES.len()] = [None; NAMES.len()];
            let mut at_mark: Option<MetricsSnapshot> = None;
            for _ in 0..rng.gen_range(1..80usize) {
                let i = rng.gen_range(0..NAMES.len());
                let name = NAMES[i];
                let v = rng.gen_range(0..4u64);
                match rng.gen_range(0..12u32) {
                    0 => {
                        by_name.mark();
                        by_id.mark();
                        at_mark = Some(by_id.snapshot());
                    }
                    // Resolve (perhaps again) without writing.
                    1 => match rng.gen_range(0..3u32) {
                        0 => counters[i] = Some(by_id.counter_id(name)),
                        1 => gauges[i] = Some(by_id.gauge_id(name)),
                        _ => histograms[i] = Some(by_id.histogram_id(name)),
                    },
                    2 | 3 => {
                        by_name.gauge_set(name, v as f64);
                        let id = *gauges[i].get_or_insert_with(|| by_id.gauge_id(name));
                        by_id.gauge_set_id(id, v as f64);
                    }
                    4 | 5 => {
                        by_name.observe(name, v);
                        let id = *histograms[i].get_or_insert_with(|| by_id.histogram_id(name));
                        by_id.observe_id(id, v);
                    }
                    _ => {
                        by_name.counter_add(name, v);
                        let id = *counters[i].get_or_insert_with(|| by_id.counter_id(name));
                        by_id.counter_add_id(id, v);
                    }
                }
                assert_eq!(by_id.snapshot().to_json(), by_name.snapshot().to_json());
                let delta = by_id.delta_since_mark().to_json();
                assert_eq!(delta, by_name.delta_since_mark().to_json());
                if let Some(at) = &at_mark {
                    assert_eq!(delta, delta_since(&by_id.snapshot(), at).to_json());
                }
                for name in NAMES {
                    assert_eq!(by_id.counter(name), by_name.counter(name), "{name}");
                    assert_eq!(by_id.gauge(name), by_name.gauge(name), "{name}");
                    assert_eq!(by_id.histogram(name), by_name.histogram(name), "{name}");
                }
            }
        });
    }

    #[test]
    fn a_handle_counts_no_resolution_and_writes_only_its_own_registry() {
        let mut r = MetricsRegistry::new();
        let id = r.counter_id("x");
        assert_eq!(r.resolutions(), 1);
        assert!(r.snapshot().counters.is_empty(), "resolved, not written");
        r.counter_add_id(id, 0);
        assert_eq!(r.snapshot().counter("x"), 0);
        assert!(
            r.snapshot().counters.contains_key("x"),
            "a zero write adds the key"
        );
        r.counter_add_id(id, 2);
        r.counter_add("x", 1);
        assert_eq!((r.counter("x"), r.resolutions()), (3, 2));
        let mut other = MetricsRegistry::new();
        other.counter_id("x");
        assert_ne!(other.id(), r.id());
        let foreign = std::panic::catch_unwind(move || other.counter_add_id(id, 1));
        assert!(
            foreign.is_err(),
            "a handle from another registry must not write"
        );
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let mut r = MetricsRegistry::new();
        r.counter_add("mem.l1.hits", 42);
        r.gauge_set("explain.rel_err_pct", 12.5);
        r.observe("rm.batch_cycles", 900);
        r.observe("rm.batch_cycles", 1100);
        let s = r.snapshot();
        let j1 = s.to_json();
        let j2 = s.to_json();
        assert_eq!(j1, j2);
        let parsed = crate::json::parse_json(&j1).expect("snapshot JSON parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("mem.l1.hits"))
                .and_then(crate::json::Json::as_num),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("explain.rel_err_pct"))
                .and_then(crate::json::Json::as_num),
            Some(12.5)
        );
    }

    #[test]
    fn quantiles_are_deterministic_and_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((1.0..=1000.0).contains(&p50));
        assert!(p99 <= 1000.0);
        // Snapshot agrees bit-for-bit with the live histogram.
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50).to_bits(), p50.to_bits());
        assert_eq!(s.quantile(0.99).to_bits(), p99.to_bits());
        // Empty histogram and extremes stay well-defined.
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        let mut one = Histogram::new();
        one.observe(7);
        assert_eq!(one.quantile(0.0), 7.0);
        assert_eq!(one.quantile(1.0), 7.0);
    }

    #[test]
    fn non_finite_gauges_stay_parseable() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("bad", f64::INFINITY);
        let j = r.snapshot().to_json();
        crate::json::parse_json(&j).expect("still valid JSON");
        assert!(j.contains("\"bad\":null"));
    }
}
