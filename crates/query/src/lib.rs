//! A small SQL front end with a layout-aware optimizer over the three
//! access paths (ROW / COL / RM) — the software stack of paper §III-B.
//!
//! The paper's observation: with a Relational Fabric, the optimizer no
//! longer *searches* a combinatorial space of physical designs — it
//! *constructs* the fastest plan, because any column group is reachable
//! on the fly. This crate demonstrates exactly that:
//!
//! * [`lexer`] / [`parser`] accept a SQL subset
//!   (`SELECT expr-or-agg, … FROM t [WHERE conj] [GROUP BY cols]`);
//! * [`bind`] resolves names against a [`catalog::Catalog`] into a typed
//!   logical plan;
//! * [`analyze`](mod@analyze) verifies every bound plan before execution
//!   (slot ranges, predicate/aggregate types, ephemeral-geometry admission)
//!   and returns structured diagnostics instead of panicking;
//! * [`cost`] prices the plan on each access path with a model mirroring
//!   the calibrated engine behaviours (movement + per-row compute);
//! * [`exec`] runs the plan in two stages on the chosen path — a fused
//!   scan→filter→consume kernel per morsel, then the merge — plus ORDER BY
//!   / LIMIT post-processing, returning identical results regardless of
//!   path; stage buffers are lent from a per-session [`Scratchpad`], and
//!   clean stage outputs memoize in a signature-keyed [`OpCache`];
//! * `explain` renders the chosen plan and the per-path
//!   estimates; `EXPLAIN ANALYZE` additionally runs the query on every
//!   available path and reports estimated vs. measured cycles and bytes —
//!   the cost model held accountable;
//! * [`engine`] wraps all of the above in one object: [`Engine`] owns the
//!   simulated machine (hierarchy + core count), catalog, fault state,
//!   plan cache, and operator cache, and [`Session`] exposes `prepare` /
//!   `run` / `explain` / `explain_analyze`. Queries execute morsel-driven
//!   across however many simulated cores the engine has, with results
//!   bit-identical to a single core.
//!
//! [`Session`] is the one way in: every query, bound plan, `EXPLAIN` and
//! `EXPLAIN ANALYZE` runs through it.

pub mod analyze;
pub mod bind;
pub mod catalog;
pub mod cost;
pub mod engine;
pub mod exec;
mod explain;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze, AnalysisError, PlanDiagnostic, VerifiedQuery};
pub use bind::{BoundQuery, OutputItem};
pub use catalog::Catalog;
pub use cost::{choose_path_parallel, split_path_cost, AccessPath, OpEstimate, PathCost};
pub use engine::{Engine, Prepared, Session};
pub use exec::{
    FaultContext, OpCache, PhaseProfile, QueryExecutor, QueryOutput, Scratchpad, CLIENT_FILL_ROWS,
    CLIENT_GATHER_BYTES, MORSEL_ROWS,
};
pub use fabric_sim::{CoreAttribution, OpRecord};

/// The engine-facing surface in one import: the [`Engine`]/[`Session`]
/// lifecycle, the [`Prepared`] handle, execution outputs, and the staged
/// executor's public types ([`QueryExecutor`], [`Scratchpad`],
/// [`OpCache`]). Their *construction* stays inside this crate (lint rule
/// `exec-internals`); the prelude exposes everything a host needs to
/// drive them.
pub mod prelude {
    pub use crate::engine::{Engine, Prepared, Session};
    pub use crate::exec::{
        FaultContext, OpCache, PhaseProfile, QueryExecutor, QueryOutput, Scratchpad, MORSEL_ROWS,
    };
    pub use crate::{AccessPath, BoundQuery, Catalog, PathCost};
    pub use fabric_sim::{CoreAttribution, OpRecord};
}
