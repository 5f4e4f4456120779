//! A software-timed model of the memory hierarchy of the paper's target
//! platform (Xilinx Zynq UltraScale+ MPSoC: Cortex-A53 cores, private L1,
//! shared L2, DDR memory behind a banked controller).
//!
//! The Relational Fabric paper evaluates a *hardware* prototype; this crate
//! is the substitution that lets the whole reproduction run as pure
//! software. Every engine in the workspace reads real bytes out of a
//! [`MemArena`] *through* a [`MemoryHierarchy`], which charges simulated
//! CPU cycles for cache hits, misses, DRAM bank contention, and prefetch
//! behaviour. Simulated time — not wall-clock time — is what the figure
//! benchmarks report, so the paper's *shape* claims (who wins, where the
//! crossovers are) emerge from the modeled mechanisms:
//!
//! * set-associative L1/L2 caches with LRU replacement ([`cache`]);
//! * a stream prefetcher that tracks a small number of concurrent
//!   sequential streams — four on the A53, which is exactly why the paper's
//!   columnar baseline stops scaling past four projected columns
//!   ([`prefetch`]);
//! * a DRAM model with per-bank queues and open-row tracking ([`dram`]);
//! * byte-accurate backing storage ([`arena`]);
//! * and cycle accounting plus traffic statistics ([`stats`]).
//!
//! Device-side components (the RM engine in `relmem`, the SSD controller in
//! `relstore`) reuse [`dram::DramModel`] directly: they sit *near* the data,
//! so they access DRAM banks without going through the CPU caches.

pub mod arena;
pub mod cache;
pub mod config;
pub mod dram;
pub mod faults;
pub mod hierarchy;
pub mod prefetch;
pub mod stats;

pub use arena::MemArena;
pub use cache::SetAssocCache;
pub use config::SimConfig;
pub use dram::DramModel;
pub use faults::{
    BreakerState, CircuitBreaker, FaultConfig, FaultPlan, FaultStats, RecoveryPolicy,
};
pub use hierarchy::MemoryHierarchy;
pub use stats::MemStats;

// Observability spine (see `fabric-obs`): re-exported so instrumented
// engines that already depend on `fabric-sim` need no extra manifest
// entry to emit spans or metrics.
pub use fabric_obs::topdown;
pub use fabric_obs::{
    compare_bench, escaped, parse_json, validate_chrome_trace, CalibEntry, CalibLedger, Category,
    ChromeTraceSummary, CoreAttribution, CounterId, FlightRecorder, GatePolicy, GateReport,
    GaugeId, HistogramId, Json, MetricsRegistry, MetricsSnapshot, OpRecord, Postmortem, QueryLog,
    QueryRecord, RegistryId, TopDownSummary, TraceBuffer, WorkloadEntry, WorkloadReport,
    BENCH_SCHEMA_VERSION,
};

/// Simulated time, measured in CPU core cycles.
pub type Cycles = u64;
