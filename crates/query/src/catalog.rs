//! The catalog: named tables in their physical layouts.
//!
//! Under a Relational Fabric only the row layout is mandatory — the COL
//! copy is optional and exists here so the optimizer can be demonstrated
//! choosing between genuine alternatives (and to show what fabric
//! deployments get to delete).

use colstore::ColTable;
use fabric_types::{FabricError, Result, Schema};
use rowstore::RowTable;
use std::collections::BTreeMap;

/// A registered table.
pub struct TableEntry {
    pub rows: RowTable,
    /// Optional materialized columnar copy (legacy-system baggage).
    pub cols: Option<ColTable>,
}

impl TableEntry {
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }
}

/// Named tables. Keyed by a `BTreeMap` so every traversal (name listing,
/// registry export) is in lexicographic order on any core count — the
/// catalog feeds result-affecting paths and must stay hash-order-free
/// (fabric-lint rule `nondeterministic-core`).
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table with only the row-oriented base layout (the
    /// fabric-native configuration).
    pub fn register_rows(&mut self, name: impl Into<String>, rows: RowTable) {
        self.tables
            .insert(name.into(), TableEntry { rows, cols: None });
    }

    /// Register a table with both layouts.
    pub fn register(&mut self, name: impl Into<String>, rows: RowTable, cols: ColTable) {
        self.tables.insert(
            name.into(),
            TableEntry {
                rows,
                cols: Some(cols),
            },
        );
    }

    pub fn get(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| FabricError::Sql(format!("unknown table `{name}`")))
    }

    pub fn names(&self) -> Vec<&str> {
        // BTreeMap iterates in key order; no sort needed.
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::{MemoryHierarchy, SimConfig};
    use fabric_types::ColumnType;

    #[test]
    fn register_and_lookup() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::uniform(2, ColumnType::I64);
        let t = RowTable::create(&mut mem, schema, 4).unwrap();
        let mut c = Catalog::new();
        c.register_rows("t", t);
        assert!(c.get("t").is_ok());
        assert!(c.get("t").unwrap().cols.is_none());
        assert!(c.get("nope").is_err());
        assert_eq!(c.names(), vec!["t"]);
    }
}
