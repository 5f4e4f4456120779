//! Per-operator actuals for the staged query executor (DESIGN.md §16).
//!
//! Each operator node in the executor's DAG accumulates row counts and
//! invocation counts host-side while it runs; the driver copies them into
//! the query's one per-operator record ([`crate::OpRecord`]) after the
//! query window closes, so — like every observability surface in this
//! crate — the bookkeeping never advances the simulated clock.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_invocations_and_rows() {
        let mut s = OpStats::default();
        s.record(4096, 100);
        s.record(4096, 99);
        s.record(1000, 1000);
        assert_eq!(
            s,
            OpStats {
                invocations: 3,
                rows_in: 9192,
                rows_out: 1199,
            }
        );
    }
}
