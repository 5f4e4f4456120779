//! `fabric-obs`: the observability spine of the Relational Fabric
//! reproduction (DESIGN.md §10).
//!
//! The paper's claims are quantitative — less data movement, fewer
//! stalls, single-copy HTAP at no transactional cost — so every layer of
//! the reproduction must be able to attribute cycles and bytes to the
//! component that spent them. This crate provides the two pieces that
//! make that attribution uniform across the workspace:
//!
//! * **Cycle-domain structured tracing** ([`trace`]): span begin/end and
//!   instant events stamped with the *simulated* cycle clock, recorded
//!   into a bounded ring buffer ([`TraceBuffer`]) that never reallocates
//!   and counts drops on overflow. Traces export as Chrome trace-event
//!   JSON ([`TraceBuffer::to_chrome_json`]) loadable in Perfetto, and as
//!   folded stacks ([`TraceBuffer::to_folded`]), an exact fold of the
//!   same events into cycles per open-span stack. Both are fully
//!   deterministic: the same seed and fault plan produce byte-identical
//!   output. Recording never charges simulated cycles, so a traced run
//!   is cycle-identical to an untraced one (asserted in
//!   `tests/trace_determinism.rs`).
//! * **Metrics registry** ([`metrics`]): named monotonic counters, gauges,
//!   and log-bucketed histograms with a stable snapshot/delta API and a
//!   single JSON serialization path ([`MetricsSnapshot::to_json`]) that
//!   replaces every hand-rolled stats formatter in the workspace (the
//!   `raw-stats-print` fabric-lint rule enforces this).
//!
//! Like the rest of the workspace, this crate is std-only and resolves
//! offline. The minimal JSON model in [`json`] exists so exported traces
//! and metric snapshots can be structurally validated without external
//! parsers.

pub mod calib;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod querylog;
pub mod regress;
pub mod topdown;
pub mod trace;

pub use calib::{CalibEntry, CalibLedger, EWMA_ALPHA};
pub use flight::{FlightRecorder, Postmortem};
pub use json::{escaped, parse_json, validate_chrome_trace, ChromeTraceSummary, Json};
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, RegistryId,
};
pub use querylog::{
    OpRecord, QueryLog, QueryRecord, WorkloadEntry, WorkloadReport, DEFAULT_QUERYLOG_CAP,
};
pub use regress::{compare_bench, GatePolicy, GateReport, Regression, BENCH_SCHEMA_VERSION};
pub use topdown::{CoreAttribution, TopDownSummary};
pub use trace::{Category, Phase, TraceBuffer, TraceEvent, MAX_ARGS};

/// Simulated time, measured in CPU core cycles (mirrors `fabric_sim::Cycles`;
/// redeclared here so this crate stays at the bottom of the dependency DAG).
pub type Cycles = u64;
