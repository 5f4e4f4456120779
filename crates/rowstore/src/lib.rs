//! The ROW baseline: an in-memory row store with Volcano-style
//! (tuple-at-a-time) query processing.
//!
//! Paper §V: *"we custom implement an in-memory row-store following the
//! volcano-style processing model (tuple-at-a-time)"*. This crate is that
//! baseline, built over the simulated memory hierarchy:
//!
//! * [`RowTable`] stores fixed-width rows contiguously in the arena — the
//!   same base data the Relational Memory device gathers from, so ROW and RM
//!   literally share one copy of the data (the paper's single-layout HTAP
//!   story);
//! * [`volcano`] provides the classic iterator operators — sequential scan,
//!   filter, projection, (hash) aggregation — each charging per-tuple CPU
//!   costs and going through the timed memory hierarchy for row access.

pub mod index;
pub mod table;
pub mod vector;
pub mod volcano;

pub use index::{HashIndex, OrderedIndex};
pub use table::{RowId, RowTable};
pub use vector::{scan_range_chunks, scan_range_vectorized, ScanCounts};
pub use volcano::{execute_collect, Filter, HashAggregate, Operator, Project, SeqScan};
