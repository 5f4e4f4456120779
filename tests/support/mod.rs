//! Shared by the integration suites (`mod support;`): one place that
//! reads the seed and core-grid environment variables, and the engines
//! several suites build. Each suite uses a subset.
#![allow(dead_code)]

pub mod map_prefetcher;
pub mod ref_hierarchy;
pub mod reference;
pub mod value_rows;

use colstore::ColTable;
use fabric_sim::hierarchy::OpCosts;
use fabric_sim::{Cycles, DramModel, MemStats, MemoryHierarchy, SimConfig};
use fabric_types::{ColumnSpec, ColumnType, Schema, Value};
use query::Engine;
use rowstore::RowTable;
use workload::Lineitem;

/// The lineitem the grid suites share.
pub const ROWS: usize = 20_000;
pub const DATA_SEED: u64 = 0x9A5_5EED;

pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub const DEFAULT_SEED: u64 = fabric_types::rng::DEFAULT_CHAOS_SEED;

/// The sweep seed (`FABRIC_CHAOS_SEED`), read where the property runner
/// reads it.
pub fn seed() -> u64 {
    fabric_types::rng::chaos_seed()
}

/// Core counts under test; override with `FABRIC_PAR_CORES=1,2,4,8`.
pub fn core_grid() -> Vec<usize> {
    std::env::var("FABRIC_PAR_CORES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// TPC-H Q1 as the SQL front end runs it: grouped f64 aggregates over
/// most of the table — the hard case for fold-shape identity, touching
/// scan, predicate and grouping on all three access paths.
pub const Q1: &str = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
     sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*) \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus";
/// TPC-H Q6: a scalar aggregate over a selective conjunctive range filter.
pub const Q6: &str = workload::tpch::Q6_SQL;
/// A projection with ORDER BY / LIMIT post-processing.
pub const TOP10: &str = "SELECT l_orderkey, l_extendedprice FROM lineitem \
     WHERE l_quantity < 5 ORDER BY 2 DESC LIMIT 10";

/// `ROWS` rows of TPC-H lineitem, registered with both layouts.
pub fn engine(cores: usize) -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let li = Lineitem::generate(e.mem(), ROWS, DATA_SEED).unwrap();
    e.register("lineitem", li.rows, li.cols);
    e
}

/// `rows` of `schema` as table `t`, in both layouts, on a `cores`-core
/// engine.
pub fn table_engine(cores: usize, schema: &Schema, rows: &[Vec<Value>]) -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let capacity = rows.len().max(1);
    let mut rt = RowTable::create(e.mem(), schema.clone(), capacity).unwrap();
    let mut ct = ColTable::create(e.mem(), schema.clone(), capacity).unwrap();
    for row in rows {
        rt.load(e.mem(), row).unwrap();
        ct.load(e.mem(), row).unwrap();
    }
    e.register("t", rt, ct);
    e
}

/// A value as its type tag and exact bit pattern, a text as its bytes:
/// `==` on `Value` would call NaN unequal to itself and `-0.0` equal to
/// `0.0`.
pub fn value_bits(v: &Value) -> (u8, u64, &str) {
    match v {
        Value::I8(x) => (1, *x as u64, ""),
        Value::I16(x) => (2, *x as u64, ""),
        Value::I32(x) => (3, *x as u64, ""),
        Value::I64(x) => (4, *x as u64, ""),
        Value::F32(x) => (5, u64::from(x.to_bits()), ""),
        Value::F64(x) => (6, x.to_bits(), ""),
        Value::Date(x) => (7, u64::from(*x), ""),
        Value::Str(s) => (8, 0, s),
    }
}

/// A result set as [`value_bits`].
pub fn bits(rows: &[Vec<Value>]) -> Vec<Vec<(u8, u64, String)>> {
    let one = |v: &Value| {
        let (tag, bits, text) = value_bits(v);
        (tag, bits, text.to_owned())
    };
    rows.iter().map(|r| r.iter().map(one).collect()).collect()
}

/// Wide rows-only table `t` the optimizer always routes to RM (16 × i64,
/// no columnar copy; the packed projection dominates a full-row scan).
/// c_j(i) = i*16 + j.
pub fn wide_rm_engine(rows: usize) -> Engine {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let names: Vec<(String, ColumnType)> = (0..16)
        .map(|i| (format!("c{i}"), ColumnType::I64))
        .collect();
    let pairs: Vec<(&str, ColumnType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    let mut rt = RowTable::create(engine.mem(), schema, rows).unwrap();
    for i in 0..rows as i64 {
        let row: Vec<Value> = (0..16).map(|j| Value::I64(i * 16 + j)).collect();
        rt.load(engine.mem(), &row).unwrap();
    }
    engine.register_rows("t", rt);
    engine
}

/// `rows` (one value per `types` entry each) packed row-major, as a row
/// table or an RM batch lays them out: the bytes and the column specs a
/// `Chunk` over them takes.
pub fn packed_rows(types: &[ColumnType], rows: &[Vec<Value>]) -> (Vec<u8>, Vec<ColumnSpec>) {
    let stride: usize = types.iter().map(ColumnType::width).sum();
    let mut specs = Vec::with_capacity(types.len());
    let mut offset = 0;
    for &ty in types {
        specs.push(ColumnSpec { ty, offset, stride });
        offset += ty.width();
    }
    let mut bytes = vec![0u8; rows.len() * stride];
    for (r, row) in rows.iter().enumerate() {
        for (v, spec) in row.iter().zip(&specs) {
            let at = r * stride + spec.offset;
            v.encode_into(spec.ty, &mut bytes[at..at + spec.ty.width()])
                .unwrap();
        }
    }
    (bytes, specs)
}

/// Gather reads and sequential reads of the same spans account the same
/// bytes and leave the same cache contents (timing may differ — that is
/// the point — but correctness must not). Each `(off, len)` is a read of
/// `len` bytes at byte offset `off * 16`. Shared by the generated suite
/// and the pinned regressions.
pub fn check_gather_and_serial_agree(spans: &[(u64, usize)]) {
    let build = || {
        let mut mem = MemoryHierarchy::new(SimConfig::tiny());
        let base = mem.alloc(64 * 64 * 8, 64).unwrap();
        (mem, base)
    };
    let parts: Vec<(u64, usize)> = spans.iter().map(|&(off, len)| (off * 16, len)).collect();

    let (mut serial, base) = build();
    for &(off, len) in &parts {
        serial.touch_read(base + off, len);
    }
    let (mut gather, base2) = build();
    let abs: Vec<(u64, usize)> = parts.iter().map(|&(o, l)| (base2 + o, l)).collect();
    gather.touch_read_gather(&abs);

    let s = serial.stats();
    let g = gather.stats();
    assert_eq!(s.bytes_read, g.bytes_read, "bytes diverge for {spans:?}");
    assert_eq!(
        s.line_accesses, g.line_accesses,
        "line accesses diverge for {spans:?}"
    );
    // Gather may only be cheaper by overlapping misses, or dearer by its
    // small per-miss issue slot — never wildly different.
    let issue_slack = g.demand_misses * SimConfig::tiny().l1_hit_cycles;
    assert!(
        gather.now() <= serial.now() + issue_slack,
        "gather {} vs serial {} (+{}) for {spans:?}",
        gather.now(),
        serial.now(),
        issue_slack
    );
}
