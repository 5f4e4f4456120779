//! The COL baseline: an in-memory column store with column-at-a-time
//! processing.
//!
//! Paper §V: *"[we custom implement] an in-memory column-store following the
//! column-at-a-time processing model"*. Unlike the Relational Memory path,
//! this engine keeps a *materialized* copy of every column as a dense array
//! (that is precisely the data duplication the Relational Fabric removes):
//!
//! * [`ColTable`] holds per-column arrays in the simulated arena;
//! * [`exec`] provides vectorized primitives: full-column predicate scans,
//!   candidate-list refinement, lockstep multi-column iteration, and tuple
//!   reconstruction — the operation whose cost the paper identifies as
//!   COL's weakness at high projectivity.

pub mod exec;
pub mod table;

pub use table::{ColRef, ColTable};
