//! Deterministic workload generators and the paper's evaluation queries.
//! The figures run the queries as SQL through `query::Engine` on every
//! access path (ROW / COL / RM).
//!
//! * [`synthetic`] — the §V microbenchmark table: 64-byte rows of 16
//!   four-byte integer columns;
//! * [`tpch`] — a TPC-H-style `lineitem` generator with the columns,
//!   value distributions, and ~152-byte rows that Q1/Q6 need, and the
//!   Q1 / Q6 texts of Fig. 7;
//! * [`micro`] — the projection/selection microbenchmarks behind Figs. 5
//!   and 6 as SQL, plus the two direct RM-device programs the device
//!   ablations sweep;
//! * [`mix`] — interleaved HTAP mixes: the single-layout fabric model vs
//!   the conventional dual-layout (convert-and-copy) design.
//!
//! Everything is seeded and deterministic: the same seed produces the same
//! table bytes, the same query answers, and the same simulated timings.

pub mod micro;
pub mod mix;
pub mod synthetic;
pub mod tpch;

pub use synthetic::SyntheticData;
pub use tpch::Lineitem;

/// Result of one measured direct run: simulated time plus a checksum that
/// must agree with the SQL answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Simulated wall time of the measured region, in nanoseconds.
    pub ns: f64,
    /// Engine-independent checksum of the query result.
    pub checksum: f64,
}
