//! # Relational Fabric
//!
//! A complete, software-simulated implementation of **"Relational Fabric:
//! Transparent Data Transformation"** (ICDE 2023): near-data hardware that
//! carves arbitrary column groups out of row-oriented base data on the fly,
//! so one physical layout serves both transactional and analytical work.
//!
//! This crate is the facade over the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | schemas, values, layouts, geometries, predicates, expressions |
//! | [`sim`] | the timed memory-hierarchy simulator (caches, prefetcher, DRAM) |
//! | [`rm`] | **Relational Memory** — the paper's core: device model + ephemeral variables |
//! | [`row`] | the row-store baseline and its vectorized scan kernel |
//! | [`col`] | the column-at-a-time column-store baseline |
//! | [`mvcc`] | snapshot isolation over begin/end row timestamps (§III-C) |
//! | [`durability`] | WAL + checkpoint media with seeded crash injection (§14 of DESIGN.md) |
//! | [`compress`] | fabric-compatible codecs and the §III-D analysis |
//! | [`rs`] | **Relational Storage** — the computational-SSD instance (§IV-D) |
//! | [`sql`] | SQL front end + layout-aware optimizer (§III-B) |
//! | [`workload`] | TPC-H-style and synthetic generators, the figures' queries as SQL |
//!
//! ## Quick start
//!
//! ```
//! use relational_fabric::prelude::*;
//!
//! // A simulated platform and a row-oriented table.
//! let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
//! let schema = Schema::uniform(16, ColumnType::I32);
//! let mut table = RowTable::create(&mut mem, schema, 1024).unwrap();
//! for i in 0..1024i32 {
//!     let row: Vec<Value> = (0..16).map(|j| Value::I32(i * 16 + j)).collect();
//!     table.load(&mut mem, &row).unwrap();
//! }
//!
//! // Configure an ephemeral column group (columns 2 and 7) and stream it.
//! let geometry = table.geometry(&[2, 7]).unwrap();
//! let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), geometry).unwrap();
//! let mut sum = 0i64;
//! while let Some(batch) = eph.next_batch(&mut mem) {
//!     for r in 0..batch.len() {
//!         sum += batch.i32_at(r, 0) as i64 + batch.i32_at(r, 1) as i64;
//!     }
//! }
//! assert!(sum > 0);
//! ```

pub use colstore as col;
pub use compress;
pub use durability;
pub use fabric_sim as sim;
pub use fabric_types as types;
pub use mvcc;
pub use query as sql;
pub use relmem as rm;
pub use relstore as rs;
pub use rowstore as row;
pub use workload;

/// The most common imports in one place.
pub mod prelude {
    pub use colstore::ColTable;
    pub use durability::{DurabilityConfig, DurableImage, DurableMedia};
    pub use fabric_sim::{MemoryHierarchy, MetricsRegistry, SimConfig, TraceBuffer};
    pub use fabric_types::{
        AggFunc, CmpOp, ColumnType, Expr, Geometry, Predicate, RowLayout, Schema, Value,
    };
    pub use mvcc::{DurableStore, RecoveryReport, TxnManager, VersionedTable};
    pub use query::{Catalog, Engine};
    pub use relmem::{EphemeralColumns, PackedBatch, RmConfig};
    pub use relstore::{RsConfig, SsdDevice};
    pub use rowstore::RowTable;
}
