//! The ROW baseline: an in-memory row store and its scan kernel.
//!
//! Paper §V: *"we custom implement an in-memory row-store"*. This crate is
//! that baseline, built over the simulated memory hierarchy:
//!
//! * [`RowTable`] stores fixed-width rows contiguously in the arena — the
//!   same base data the Relational Memory device gathers from, so ROW and RM
//!   literally share one copy of the data (the paper's single-layout HTAP
//!   story);
//! * [`vector`] is the one ROW scan kernel the engine's ROW path runs: a
//!   fused, chunk-at-a-time scan → filter → emit pass over a morsel, going
//!   through the timed memory hierarchy for row access;
//! * [`index`] holds the hash and ordered secondary indexes of §III-A.

pub mod index;
pub mod table;
pub mod vector;

pub use index::{HashIndex, OrderedIndex};
pub use table::{RowId, RowTable};
pub use vector::{scan_range_chunks, scan_range_vectorized, ScanCounts};
