//! Scoped metric registries: a borrowed view over [`MetricsRegistry`]
//! that prefixes every metric name with a dotted scope
//! (`"session.3."`, `"durability.wal."`, …).
//!
//! Scopes are a *naming* convention, not separate storage — every write
//! lands in the one global registry, so the prefix tree rolls up into the
//! same [`MetricsSnapshot`] that benches export and the perf gate checks.
//! [`MetricsSnapshot::subtree`] is the read-side complement: it carves a
//! prefix-stripped view back out of a snapshot.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::fmt::{self, Write as _};

/// A write handle that namespaces metric names under a dotted prefix.
///
/// Created by [`MetricsRegistry::scoped`]; the prefix always ends with
/// `'.'` (appended if the caller omitted it), so `scoped("session.3")`
/// and `scoped("session.3.")` name the same subtree. The prefix may be
/// formatted (`scoped(format_args!("query.core{i}"))`): names are
/// assembled in a buffer the registry lends the scope and takes back when
/// it drops, so opening a scope and writing keys that already exist
/// allocates nothing (DESIGN.md §24).
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    /// The prefix, then the name of the latest access.
    key: String,
    prefix_len: usize,
}

impl<'a> ScopedMetrics<'a> {
    pub(crate) fn new(reg: &'a mut MetricsRegistry, prefix: impl fmt::Display) -> Self {
        let mut key = std::mem::take(&mut reg.key_buf);
        key.clear();
        let _ignored = write!(key, "{prefix}");
        if !key.ends_with('.') {
            key.push('.');
        }
        let prefix_len = key.len();
        ScopedMetrics {
            reg,
            key,
            prefix_len,
        }
    }

    /// Point the buffer at `"<prefix><name>"`.
    fn name(&mut self, name: &str) {
        self.key.truncate(self.prefix_len);
        self.key.push_str(name);
    }

    /// The scope's full dotted prefix, trailing `'.'` included.
    pub fn prefix(&self) -> &str {
        &self.key[..self.prefix_len]
    }

    /// Add to `"<prefix><name>"` in the underlying registry.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.name(name);
        self.reg.counter_add(&self.key, delta);
    }

    /// Read counter `"<prefix><name>"` (0 when absent).
    pub fn counter(&mut self, name: &str) -> u64 {
        self.name(name);
        self.reg.counter(&self.key)
    }

    /// Set gauge `"<prefix><name>"`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.name(name);
        self.reg.gauge_set(&self.key, value);
    }

    /// Record a histogram sample under `"<prefix><name>"`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.name(name);
        self.reg.observe(&self.key, value);
    }

    /// A child scope: `scope("wal")` under `"durability."` writes to
    /// `"durability.wal.*"`. Reborrows the same registry.
    pub fn scope(&mut self, name: &str) -> ScopedMetrics<'_> {
        let parent = &self.key[..self.prefix_len];
        ScopedMetrics::new(self.reg, format_args!("{parent}{name}"))
    }
}

impl Drop for ScopedMetrics<'_> {
    fn drop(&mut self) {
        // Hand the buffer, and the capacity it grew, back for the next scope.
        self.reg.key_buf = std::mem::take(&mut self.key);
    }
}

impl MetricsRegistry {
    /// A scoped write handle over this registry; see [`ScopedMetrics`].
    pub fn scoped(&mut self, prefix: impl fmt::Display) -> ScopedMetrics<'_> {
        ScopedMetrics::new(self, prefix)
    }
}

impl MetricsSnapshot {
    /// The prefix-stripped subtree of this snapshot: every metric whose
    /// name starts with `"<prefix>."` (the dot is appended if missing),
    /// re-keyed without the prefix. `subtree("session.3").counter("queries")`
    /// reads what `scoped("session.3").counter_add("queries", ..)` wrote.
    pub fn subtree(&self, prefix: &str) -> MetricsSnapshot {
        let mut p = prefix.to_string();
        if !p.ends_with('.') {
            p.push('.');
        }
        fn strip<V: Clone>(
            m: &std::collections::BTreeMap<String, V>,
            p: &str,
        ) -> std::collections::BTreeMap<String, V> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn scopes_prefix_and_roll_up() {
        let mut reg = MetricsRegistry::new();
        {
            let mut s = reg.scoped("session.3");
            s.counter_add("queries", 2);
            s.observe("latency.q1", 700);
            s.gauge_set("p99", 700.0);
            let mut child = s.scope("io");
            child.counter_add("reads", 5);
        }
        assert_eq!(reg.counter("session.3.queries"), 2);
        assert_eq!(reg.counter("session.3.io.reads"), 5);
        assert_eq!(reg.gauge("session.3.p99"), Some(700.0));
        assert_eq!(
            reg.histogram("session.3.latency.q1").map(Histogram::count),
            Some(1)
        );
    }

    #[test]
    fn trailing_dot_is_normalized() {
        let mut reg = MetricsRegistry::new();
        reg.scoped("durability.wal.").counter_add("appends", 1);
        reg.scoped("durability.wal").counter_add("appends", 1);
        assert_eq!(reg.counter("durability.wal.appends"), 2);
    }

    #[test]
    fn formatted_prefixes_and_reads_share_one_buffer() {
        let mut reg = MetricsRegistry::new();
        for core in 0..3 {
            let mut s = reg.scoped(format_args!("query.core{core}"));
            assert_eq!(s.prefix(), format!("query.core{core}."));
            s.counter_add("busy_cycles", core + 1);
            s.counter_add("idle_cycles", 10);
            assert_eq!(s.counter("busy_cycles"), core + 1);
        }
        assert_eq!(reg.counter("query.core2.busy_cycles"), 3);
        assert_eq!(reg.counter("query.core0.idle_cycles"), 10);
        let mut outer = reg.scoped("a");
        outer.scope("b").observe("h", 4);
        outer.counter_add("c", 1);
        drop(outer);
        assert_eq!(reg.histogram("a.b.h").map(Histogram::count), Some(1));
        assert_eq!(reg.counter("a.c"), 1);
    }

    #[test]
    fn subtree_strips_the_prefix() {
        let mut reg = MetricsRegistry::new();
        reg.scoped("session.1").counter_add("queries", 4);
        reg.scoped("session.11").counter_add("queries", 9);
        reg.counter_add("unrelated", 1);
        let snap = reg.snapshot();
        let s1 = snap.subtree("session.1");
        assert_eq!(s1.counter("queries"), 4);
        // "session.11.*" must not leak into "session.1"'s subtree.
        assert_eq!(s1.counters.len(), 1);
        assert!(snap.subtree("session.2").counters.is_empty());
    }
}
