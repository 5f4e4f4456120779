//! Shared vocabulary for the Relational Fabric reproduction.
//!
//! Every other crate in the workspace speaks in terms of the types defined
//! here: relational [`Schema`]s, fixed-width [`RowLayout`]s, scalar
//! [`Value`]s, conjunctive [`Predicate`]s, and — most importantly — the
//! [`Geometry`] descriptor, the "intuitive API" of the paper: a complete,
//! self-contained description of *which bytes of which rows* an ephemeral
//! access wants, and in what output shape.
//!
//! The paper (§II) calls arbitrary subsets of relational data "data
//! geometries"; [`Geometry`] is the direct encoding of that idea. It is what
//! the software hands to the Relational Memory device model (`relmem`), to
//! the computational-SSD controller (`relstore`), and to the query
//! optimizer's cost model (`query`).

pub mod cast;
pub mod chunk;
pub mod crc;
pub mod error;
pub mod expr;
pub mod geometry;
pub mod layout;
pub mod predicate;
pub mod rng;
pub mod schema;
pub mod value;

pub use chunk::{
    f64_decoder, Chunk, ChunkError, ColumnSpec, ColumnView, RowCharge, RowSelection, ScanScratch,
    BATCH_ROWS,
};
pub use crc::{crc32, Crc32};
pub use error::{FabricError, Result};
pub use expr::{Expr, F64Column, F64Program, F64Regs, ValueAgg};
pub use geometry::{AggFunc, AggSpec, FieldSlice, Geometry, OutputMode, TsFilter};
pub use layout::RowLayout;
pub use predicate::{CmpOp, ColumnPredicate, Predicate};
pub use rng::DetRng;
pub use schema::{ColumnDef, ColumnId, ColumnType, Schema};
pub use value::{le_array, Value};

/// A byte address inside a simulated memory arena.
pub type Addr = u64;

/// The cache-line size every component of the reproduction assumes (bytes).
///
/// Both the Cortex-A53 platform of the paper and the simulated hierarchy in
/// `fabric-sim` use 64-byte lines; the RM device packs its output into units
/// of this size.
pub const CACHE_LINE: usize = 64;
