//! HTAP workload mixes: the paper's §I trade-off, made measurable.
//!
//! Classic HTAP systems *"maintain multiple copies of data in different
//! formats or convert data between different layouts … compromising between
//! efficient analytics and data freshness."* The Relational Fabric keeps a
//! single row layout and carves fresh column groups on demand.
//!
//! Two system models run the identical interleaved workload (update batches
//! plus periodic analytical scans over a balance column):
//!
//! * [`run_fabric_htap`] — single layout: OLTP commits into a versioned row
//!   table; every scan reads the *current* snapshot through the RM device
//!   (visibility filtered in the fabric). Staleness is always zero.
//! * [`run_dual_layout_htap`] — the conventional design: the same OLTP
//!   stream, plus a materialized columnar copy refreshed by a (timed) full
//!   conversion every `convert_every` batches; scans run on the copy and
//!   see data as old as the last conversion.

use colstore::{exec as colx, ColTable};
use fabric_sim::MemoryHierarchy;
use fabric_types::rng::DetRng;
use fabric_types::{ColumnType, Expr, Result, Schema, Value};
use mvcc::scan::rm_visible_sum;
use mvcc::{TxnManager, VersionedTable};
use relmem::RmConfig;

/// Parameters of one HTAP mix run.
#[derive(Debug, Clone, Copy)]
pub struct MixParams {
    /// Logical rows (accounts).
    pub accounts: usize,
    /// Update batches (each is one transaction).
    pub batches: usize,
    /// Updates per batch.
    pub updates_per_batch: usize,
    /// Run an analytical scan after every batch.
    pub scans: bool,
    /// Dual-layout only: refresh the columnar copy every this many batches
    /// (`usize::MAX` = never after the initial load).
    pub convert_every: usize,
    pub seed: u64,
}

impl Default for MixParams {
    fn default() -> Self {
        MixParams {
            accounts: 20_000,
            batches: 20,
            updates_per_batch: 200,
            scans: true,
            convert_every: 4,
            seed: 0x41AB,
        }
    }
}

/// Outcome of one mix run.
#[derive(Debug, Clone, Copy)]
pub struct MixOutcome {
    /// Simulated time spent in OLTP commits.
    pub oltp_ns: f64,
    /// Simulated time spent in analytical scans.
    pub olap_ns: f64,
    /// Simulated time spent maintaining the analytical copy (dual-layout
    /// only; zero for the fabric).
    pub maintenance_ns: f64,
    /// Average staleness of scan results, in commits-behind.
    pub avg_staleness_commits: f64,
    /// Sum of all scan results (a checksum; fresh systems see newer data,
    /// so this differs between models unless `convert_every == 1`).
    pub scan_checksum: f64,
    pub scans: usize,
}

impl MixOutcome {
    pub fn total_ns(&self) -> f64 {
        self.oltp_ns + self.olap_ns + self.maintenance_ns
    }
}

struct Oltp {
    table: VersionedTable,
    tm: TxnManager,
    ids: Vec<mvcc::LogicalId>,
    rng: DetRng,
}

fn setup_oltp(mem: &mut MemoryHierarchy, p: &MixParams) -> Result<Oltp> {
    let schema = Schema::from_pairs(&[("acct", ColumnType::I64), ("balance", ColumnType::I64)]);
    let capacity = p.accounts + p.batches * p.updates_per_batch + 16;
    let mut table = VersionedTable::create(mem, schema, capacity)?;
    let tm = TxnManager::new();
    let mut txn = tm.begin();
    for a in 0..p.accounts as i64 {
        txn.insert(vec![Value::I64(a), Value::I64(1000)]);
    }
    let ids = tm.commit(mem, &mut table, txn)?.inserted;
    Ok(Oltp {
        table,
        tm,
        ids,
        rng: DetRng::seed_from_u64(p.seed),
    })
}

fn run_batch(mem: &mut MemoryHierarchy, o: &mut Oltp, n: usize) -> Result<()> {
    let mut txn = o.tm.begin();
    for _ in 0..n {
        let l = o.ids[o.rng.gen_range(0..o.ids.len())];
        let delta = o.rng.gen_range(-50..=50i64);
        let bal = o
            .table
            .read_at(mem, l, 1, txn.start_ts)?
            .expect("account visible")
            .as_i64()?;
        txn.update(l, vec![(1, Value::I64(bal + delta))]);
    }
    o.tm.commit(mem, &mut o.table, txn)?;
    Ok(())
}

/// The fabric-native model: one layout, always-fresh scans.
pub fn run_fabric_htap(mem: &mut MemoryHierarchy, p: &MixParams) -> Result<MixOutcome> {
    let mut o = setup_oltp(mem, p)?;
    let mut out = MixOutcome {
        oltp_ns: 0.0,
        olap_ns: 0.0,
        maintenance_ns: 0.0,
        avg_staleness_commits: 0.0,
        scan_checksum: 0.0,
        scans: 0,
    };
    for _ in 0..p.batches {
        let t0 = mem.now();
        run_batch(mem, &mut o, p.updates_per_batch)?;
        out.oltp_ns += mem.ns_since(t0);

        if p.scans {
            let t0 = mem.now();
            let ts = o.tm.snapshot_ts();
            let (sum, _) = rm_visible_sum(mem, &o.table, 1, ts, RmConfig::prototype())?;
            out.olap_ns += mem.ns_since(t0);
            out.scan_checksum += sum;
            out.scans += 1;
            // Fresh by construction: the snapshot is the latest commit.
        }
    }
    Ok(out)
}

/// The conventional dual-layout model: OLTP rows plus a periodically
/// reconverted columnar copy; scans read the copy.
pub fn run_dual_layout_htap(mem: &mut MemoryHierarchy, p: &MixParams) -> Result<MixOutcome> {
    let mut o = setup_oltp(mem, p)?;
    let schema = Schema::from_pairs(&[("balance", ColumnType::I64)]);
    let mut copy = ColTable::create(mem, schema, p.accounts)?;
    let mut out = MixOutcome {
        oltp_ns: 0.0,
        olap_ns: 0.0,
        maintenance_ns: 0.0,
        avg_staleness_commits: 0.0,
        scan_checksum: 0.0,
        scans: 0,
    };

    // Initial conversion (counted as maintenance).
    let t0 = mem.now();
    convert(mem, &o, &mut copy)?;
    out.maintenance_ns += mem.ns_since(t0);
    let mut commits_since_convert = 0usize;
    let mut staleness_acc = 0usize;

    for batch in 0..p.batches {
        let t0 = mem.now();
        run_batch(mem, &mut o, p.updates_per_batch)?;
        out.oltp_ns += mem.ns_since(t0);
        commits_since_convert += 1;

        if p.convert_every != usize::MAX && (batch + 1) % p.convert_every == 0 {
            let t0 = mem.now();
            convert(mem, &o, &mut copy)?;
            out.maintenance_ns += mem.ns_since(t0);
            commits_since_convert = 0;
        }

        if p.scans {
            let t0 = mem.now();
            let sum = colx::sum_expr(mem, &copy, &[0], &Expr::col(0))?;
            out.olap_ns += mem.ns_since(t0);
            out.scan_checksum += sum;
            out.scans += 1;
            staleness_acc += commits_since_convert;
        }
    }
    if out.scans > 0 {
        out.avg_staleness_commits = staleness_acc as f64 / out.scans as f64;
    }
    Ok(out)
}

/// Timed full conversion: read the visible snapshot out of the row store
/// and rewrite the columnar copy — the layout-conversion cost HTAP systems
/// pay (§I).
fn convert(mem: &mut MemoryHierarchy, o: &Oltp, copy: &mut ColTable) -> Result<()> {
    let ts = o.tm.snapshot_ts();
    let rows = mvcc::scan::collect_visible(mem, &o.table, ts)?;
    copy.clear();
    for row in rows {
        copy.append(mem, &[row[1].clone()])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;

    /// Run both models, each on a machine of its own: `(fabric, dual)`.
    fn compare_htap(p: &MixParams) -> Result<(MixOutcome, MixOutcome)> {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let fabric = run_fabric_htap(&mut mem, p)?;
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let dual = run_dual_layout_htap(&mut mem, p)?;
        Ok((fabric, dual))
    }

    fn small() -> MixParams {
        MixParams {
            accounts: 2_000,
            batches: 6,
            updates_per_batch: 50,
            scans: true,
            convert_every: 1,
            seed: 9,
        }
    }

    #[test]
    fn convert_every_batch_matches_fabric_freshness() {
        // With conversion after every batch, the dual-layout scans see the
        // same data the fabric sees: identical checksums.
        let (fabric, dual) = compare_htap(&small()).unwrap();
        assert_eq!(fabric.scans, dual.scans);
        assert_eq!(fabric.scan_checksum, dual.scan_checksum);
        assert_eq!(fabric.avg_staleness_commits, 0.0);
        assert_eq!(dual.avg_staleness_commits, 0.0);
        // But it pays for it in maintenance.
        assert_eq!(fabric.maintenance_ns, 0.0);
        assert!(dual.maintenance_ns > 0.0);
    }

    #[test]
    fn infrequent_conversion_trades_freshness() {
        let p = MixParams {
            convert_every: 3,
            ..small()
        };
        let (fabric, dual) = compare_htap(&p).unwrap();
        assert!(
            dual.avg_staleness_commits > 0.5,
            "{}",
            dual.avg_staleness_commits
        );
        // Stale scans generally see different balances.
        assert_ne!(fabric.scan_checksum, dual.scan_checksum);
        assert_eq!(fabric.avg_staleness_commits, 0.0);
    }

    #[test]
    fn never_converting_is_maximally_stale() {
        let p = MixParams {
            convert_every: usize::MAX,
            ..small()
        };
        let (_, dual) = compare_htap(&p).unwrap();
        // Staleness accumulates 1, 2, ..., batches.
        assert!(dual.avg_staleness_commits >= (p.batches as f64) / 2.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let (a1, d1) = compare_htap(&small()).unwrap();
        let (a2, d2) = compare_htap(&small()).unwrap();
        assert_eq!(a1.scan_checksum, a2.scan_checksum);
        assert_eq!(d1.scan_checksum, d2.scan_checksum);
        assert_eq!(a1.total_ns(), a2.total_ns());
    }
}
