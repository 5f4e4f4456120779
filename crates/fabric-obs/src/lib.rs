//! `fabric-obs`: the observability spine of the Relational Fabric
//! reproduction (DESIGN.md §10).
//!
//! The paper's claims are quantitative — less data movement, fewer
//! stalls, single-copy HTAP at no transactional cost — so every layer of
//! the reproduction must be able to attribute cycles and bytes to the
//! component that spent them. This crate provides the three pieces that
//! make that attribution uniform across the workspace:
//!
//! * **Cycle-domain structured tracing** ([`trace`]): span begin/end and
//!   instant events stamped with the *simulated* cycle clock, recorded
//!   into a bounded ring buffer ([`TraceBuffer`]) that never reallocates
//!   and counts drops on overflow. Traces export as Chrome trace-event
//!   JSON ([`TraceBuffer::to_chrome_json`]) loadable in Perfetto, and are
//!   fully deterministic: the same seed and fault plan produce a
//!   byte-identical trace.
//! * **Metrics registry** ([`metrics`]): named monotonic counters, gauges,
//!   and log-bucketed histograms with a stable snapshot/delta API and a
//!   single JSON serialization path ([`MetricsSnapshot::to_json`]) that
//!   replaces every hand-rolled stats formatter in the workspace (the
//!   `raw-stats-print` fabric-lint rule enforces this).
//! * **Recorder trait** ([`recorder`]): engines emit events through
//!   [`FabricRecorder`], whose [`NoopRecorder`] implementation is free —
//!   recording never charges simulated cycles, so a query executed with
//!   the no-op recorder is cycle-identical to an un-instrumented run
//!   (asserted in `tests/trace_determinism.rs`).
//!
//! Like the rest of the workspace, this crate is std-only and resolves
//! offline. The minimal JSON model in [`json`] exists so exported traces
//! and metric snapshots can be structurally validated without external
//! parsers.

pub mod calib;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod querylog;
pub mod recorder;
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
pub use profile::{ProfileStats, SamplingProfiler};
pub use querylog::{
    OpRecord, QueryLog, QueryRecord, WorkloadEntry, WorkloadReport, DEFAULT_QUERYLOG_CAP,
};
pub use recorder::{FabricRecorder, NoopRecorder, RingRecorder};
pub use regress::{compare_bench, GatePolicy, GateReport, Regression, BENCH_SCHEMA_VERSION};
pub use topdown::{CoreAttribution, TopDownSummary};
pub use trace::{Category, Phase, TraceBuffer, TraceEvent, MAX_ARGS};

/// Simulated time, measured in CPU core cycles (mirrors `fabric_sim::Cycles`;
/// redeclared here so this crate stays at the bottom of the dependency DAG).
pub type Cycles = u64;
