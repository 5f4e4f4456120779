//! Per-operator actuals for the staged query executor (DESIGN.md §16).
//!
//! Each operator node in the executor's DAG accumulates row counts and
//! invocation counts host-side while it runs; recording them into the
//! metrics registry (as `query.op.<name>.*` counters) happens after the
//! query window closes, so — like every observability surface in this
//! crate — the bookkeeping never advances the simulated clock.

use crate::metrics::MetricsRegistry;

/// One operator's accumulated actuals across a query (all morsels, all
/// cores): how many times the operator body ran, how many rows it was fed,
/// and how many it emitted downstream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Operator body invocations (morsels for fused scan stages, merge
    /// folds for the merge stage).
    pub invocations: u64,
    /// Rows the operator consumed.
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
}

impl OpStats {
    /// Count one invocation consuming `rows_in` and producing `rows_out`.
    pub fn record(&mut self, rows_in: u64, rows_out: u64) {
        self.invocations += 1;
        self.rows_in += rows_in;
        self.rows_out += rows_out;
    }

    /// Fold another operator's accumulation into this one.
    pub fn merge(&mut self, other: &OpStats) {
        self.invocations += other.invocations;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
    }

    /// Export as monotonic counters under `<prefix>.<op>.{invocations,
    /// rows_in,rows_out}` — the `query.op.*` namespace the executor uses.
    pub fn record_into(&self, reg: &mut MetricsRegistry, prefix: &str, op: &str) {
        let mut node = reg.scoped(format_args!("{prefix}.{op}"));
        node.counter_add("invocations", self.invocations);
        node.counter_add("rows_in", self.rows_in);
        node.counter_add("rows_out", self.rows_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_exports_counters() {
        let mut s = OpStats::default();
        s.record(4096, 100);
        s.record(4096, 99);
        let mut other = OpStats::default();
        other.record(1000, 1000);
        s.merge(&other);
        assert_eq!(s.invocations, 3);
        assert_eq!(s.rows_in, 9192);
        assert_eq!(s.rows_out, 1199);

        let mut reg = MetricsRegistry::new();
        s.record_into(&mut reg, "query.op", "filter");
        assert_eq!(reg.counter("query.op.filter.invocations"), 3);
        assert_eq!(reg.counter("query.op.filter.rows_in"), 9192);
        assert_eq!(reg.counter("query.op.filter.rows_out"), 1199);
    }
}
