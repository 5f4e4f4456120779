//! Compressed column storage with on-the-fly reconstruction — the paper's
//! open question Q3: *"the storage \[fabric\] can convert from compressed
//! columns to rows in memory"*.
//!
//! Columns are dictionary encoded (a fabric-compatible codec, §III-D) and
//! stored on flash. The controller decompresses requested columns and
//! reconstructs row-major output while streaming, so the host receives
//! plain rows of the requested column group; the baseline ships the
//! compressed blobs and decodes on the host CPU.

use crate::store::{RsStats, SsdDevice, StoredTable};
use compress::DictEncoded;
use fabric_sim::{Cycles, MemoryHierarchy};
use fabric_types::{ColumnId, FabricError, Result, Schema};

/// A table stored as dictionary-compressed columns on the device.
pub struct CompressedTable {
    rows: usize,
    /// One encoded column per schema column, plus the flash footprint of
    /// each (pages).
    cols: Vec<(DictEncoded, StoredTable)>,
}

impl CompressedTable {
    /// Compress and store `rows` of `schema`-shaped data given as one raw
    /// column-major buffer per column.
    pub fn store(
        dev: &mut SsdDevice,
        schema: Schema,
        rows: usize,
        columns: Vec<Vec<u8>>,
    ) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(FabricError::Storage("column count mismatch".into()));
        }
        let mut cols = Vec::with_capacity(columns.len());
        for ((_, def), raw) in schema.iter().zip(&columns) {
            let w = def.ty.width();
            if raw.len() != rows * w {
                return Err(FabricError::Storage(format!(
                    "column `{}` has {} bytes, expected {}",
                    def.name,
                    raw.len(),
                    rows * w
                )));
            }
            let enc = DictEncoded::encode(raw, w)?;
            // The compressed image (dict + codes) lives on flash; store it
            // as an opaque byte run (1-byte "rows" so page accounting is
            // byte-accurate).
            let image_len = enc.compressed_bytes();
            let stored = dev.store_rows(&vec![0u8; image_len.max(1)], 1)?;
            cols.push((enc, stored));
        }
        Ok(CompressedTable { rows, cols })
    }

    /// Total compressed bytes on flash.
    pub fn compressed_bytes(&self) -> usize {
        self.cols.iter().map(|(e, _)| e.compressed_bytes()).sum()
    }

    /// Uncompressed size.
    pub fn original_bytes(&self) -> usize {
        self.cols.iter().map(|(e, _)| e.original_bytes()).sum()
    }

    /// The encoded columns `cols` names, in that order, each with its
    /// flash footprint.
    fn columns(&self, cols: &[ColumnId]) -> Result<Vec<&(DictEncoded, StoredTable)>> {
        let len = self.cols.len();
        let col = |&index: &ColumnId| {
            (self.cols.get(index)).ok_or(FabricError::ColumnIndexOutOfRange { index, len })
        };
        cols.iter().map(col).collect()
    }

    /// Row-major tuples of `touched`, decoded untimed, and the statistics
    /// of a fetch that reads their images and ships the tuples.
    fn rows_of(&self, touched: &[&(DictEncoded, StoredTable)]) -> (Vec<u8>, RsStats) {
        let mut out = Vec::new();
        for i in 0..self.rows {
            for (enc, _) in touched {
                out.extend_from_slice(enc.get(i));
            }
        }
        let stats = RsStats {
            pages_read: touched.iter().map(|(_, s)| s.pages as u64).sum(),
            rows_scanned: self.rows as u64,
            rows_emitted: self.rows as u64,
            bytes_shipped: out.len() as u64,
            ..RsStats::default()
        };
        (out, stats)
    }

    /// Near-data path: the controller reads the compressed columns,
    /// decodes them, and ships reconstructed row-major tuples of the
    /// requested columns.
    pub fn fetch_rows_decompressed(
        &self,
        dev: &mut SsdDevice,
        mem: &mut MemoryHierarchy,
        cols: &[ColumnId],
    ) -> Result<(Vec<u8>, RsStats)> {
        let touched = self.columns(cols)?;
        let (out, stats) = self.rows_of(&touched);
        // The controller decodes every value of the requested columns and
        // reconstructs every row as pages land; the link is pipelined with
        // it, as in `SsdDevice::fetch_geometry`.
        let cfg = dev.config();
        let values = (self.rows * cols.len()) as f64;
        let ctrl_ns = values * cfg.ctrl_ns_per_value + self.rows as f64 * cfg.ctrl_ns_per_row;
        let ctrl = dev.ns_to_cycles(ctrl_ns);
        let link = dev.link_cycles(out.len());
        let args = [
            ("pages", stats.pages_read),
            ("bytes_shipped", stats.bytes_shipped),
        ];
        let arrival = |start: Cycles, flash: Cycles| flash.max(start + ctrl).max(start + link);
        let runs = touched.iter().map(|(_, s)| s.page_range());
        let stats = dev.run_fetch(mem, runs, "rs.fetch_decompressed", stats, arrival, &args)?;
        Ok((out, stats))
    }

    /// Host path: ship the compressed images; the host CPU decodes and
    /// reconstructs once they have arrived (decode cost charged to the
    /// CPU).
    pub fn fetch_rows_host_decode(
        &self,
        dev: &mut SsdDevice,
        mem: &mut MemoryHierarchy,
        cols: &[ColumnId],
    ) -> Result<(Vec<u8>, RsStats)> {
        let touched = self.columns(cols)?;
        let (out, mut stats) = self.rows_of(&touched);
        let shipped = touched.iter().map(|(e, _)| e.compressed_bytes()).sum();
        stats.bytes_shipped = shipped as u64;
        let link = dev.link_cycles(shipped);
        let args = [
            ("pages", stats.pages_read),
            ("bytes_shipped", stats.bytes_shipped),
        ];
        let arrival = |start: Cycles, flash: Cycles| flash.max(start + link);
        let runs = touched.iter().map(|(_, s)| s.page_range());
        let stats = dev.run_fetch(mem, runs, "rs.fetch_host_decode", stats, arrival, &args)?;
        let costs = mem.costs();
        mem.cpu(
            (self.rows * cols.len()) as u64 * (costs.vector_elem + costs.value_op)
                + self.rows as u64 * costs.reconstruct,
        );
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RsConfig;
    use fabric_sim::{
        validate_chrome_trace, BreakerState, FaultConfig, FaultPlan, RecoveryPolicy, SimConfig,
    };
    use fabric_types::rng::chaos_seed;
    use fabric_types::ColumnType;

    /// 10k rows, 2 columns: low-cardinality i32 and repetitive i64.
    fn setup() -> (MemoryHierarchy, SsdDevice, CompressedTable) {
        let mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let rows = 10_000usize;
        let schema = Schema::from_pairs(&[("a", ColumnType::I32), ("b", ColumnType::I64)]);
        let col_a: Vec<u8> = (0..rows)
            .flat_map(|i| ((i % 16) as i32).to_le_bytes())
            .collect();
        let col_b: Vec<u8> = (0..rows)
            .flat_map(|i| ((i % 4) as i64 * 7).to_le_bytes())
            .collect();
        let t = CompressedTable::store(&mut dev, schema, rows, vec![col_a, col_b]).unwrap();
        (mem, dev, t)
    }

    #[test]
    fn compresses_low_cardinality_columns() {
        let (_, _, t) = setup();
        assert!(t.compressed_bytes() < t.original_bytes() / 4);
    }

    #[test]
    fn device_reconstruction_is_correct() {
        let (mut mem, mut dev, t) = setup();
        let (out, stats) = t
            .fetch_rows_decompressed(&mut dev, &mut mem, &[1, 0])
            .unwrap();
        assert_eq!(out.len(), 10_000 * 12);
        // Row 7: b = (7 % 4) * 7 = 21, a = 7.
        let b = i64::from_le_bytes(out[7 * 12..7 * 12 + 8].try_into().unwrap());
        let a = i32::from_le_bytes(out[7 * 12 + 8..7 * 12 + 12].try_into().unwrap());
        assert_eq!((b, a), (21, 7));
        assert_eq!(stats.rows_emitted, 10_000);
    }

    #[test]
    fn both_paths_agree_on_data() {
        let (mut mem, mut dev, t) = setup();
        let (near, _) = t
            .fetch_rows_decompressed(&mut dev, &mut mem, &[0, 1])
            .unwrap();
        let (host, _) = t
            .fetch_rows_host_decode(&mut dev, &mut mem, &[0, 1])
            .unwrap();
        assert_eq!(near, host);
    }

    #[test]
    fn host_path_ships_fewer_bytes_but_pays_cpu() {
        let (mut mem, mut dev, t) = setup();
        let (_, near) = t.fetch_rows_decompressed(&mut dev, &mut mem, &[0]).unwrap();
        let cpu_before = mem.stats().cpu_cycles;
        let (_, host) = t.fetch_rows_host_decode(&mut dev, &mut mem, &[0]).unwrap();
        let cpu_spent = mem.stats().cpu_cycles - cpu_before;
        // The compressed image is smaller than the decompressed rows.
        assert!(host.bytes_shipped < near.bytes_shipped);
        // And the host had to burn CPU to decode it.
        assert!(cpu_spent > 10_000);
    }

    #[test]
    fn bad_column_ids_and_shapes_error() {
        let (mut mem, mut dev, t) = setup();
        assert!(t.fetch_rows_decompressed(&mut dev, &mut mem, &[9]).is_err());
        let schema = Schema::from_pairs(&[("a", ColumnType::I32)]);
        assert!(CompressedTable::store(&mut dev, schema.clone(), 10, vec![]).is_err());
        assert!(CompressedTable::store(&mut dev, schema, 10, vec![vec![0u8; 3]]).is_err());
    }

    // The fetches under a fault plan, seeded from `FABRIC_CHAOS_SEED`:
    // the same pipeline as `SsdDevice`'s own fetches.

    type Fetch = fn(
        &CompressedTable,
        &mut SsdDevice,
        &mut MemoryHierarchy,
        &[ColumnId],
    ) -> Result<(Vec<u8>, RsStats)>;

    const FETCHES: [Fetch; 2] = [
        CompressedTable::fetch_rows_decompressed,
        CompressedTable::fetch_rows_host_decode,
    ];

    /// Budgets no transient fault at the rates below exhausts.
    fn patient() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 24,
            ..RecoveryPolicy::default()
        }
    }

    #[test]
    fn under_faults_transient_page_and_link_faults_return_quiet_bytes() {
        let (mut mem, mut dev, t) = setup();
        let quiet: Vec<_> = FETCHES
            .iter()
            .map(|f| f(&t, &mut dev, &mut mem, &[1, 0]).unwrap())
            .collect();
        let cfg = FaultConfig {
            flash_transient_prob: 0.3,
            link_corrupt_prob: 0.3,
            ..FaultConfig::quiet(chaos_seed())
        };
        dev.inject_faults(FaultPlan::new(cfg), patient());
        let mut injected = 0;
        for _ in 0..4 {
            for (f, (bytes, clean)) in FETCHES.iter().zip(&quiet) {
                let t0 = mem.now();
                let (out, stats) = f(&t, &mut dev, &mut mem, &[1, 0]).unwrap();
                assert_eq!(&out, bytes, "a recovered fetch returns the quiet bytes");
                assert_eq!(stats.retries, stats.injected_faults);
                let faults = RsStats {
                    injected_faults: 0,
                    retries: 0,
                    ..stats
                };
                assert_eq!(&faults, clean);
                assert!(mem.now() > t0);
                injected += stats.injected_faults;
            }
        }
        assert!(injected > 0, "p = 0.3 over 8 fetches should hit");
        assert_eq!(dev.fault_stats().total(), injected);
        assert_eq!(dev.health().state(), BreakerState::Closed);
    }

    #[test]
    fn under_faults_a_latent_page_surfaces_flash_read_error() {
        let (mut mem, mut dev, t) = setup();
        let cfg = FaultConfig::quiet(chaos_seed()).with_latent(1.0);
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        for (f, c) in FETCHES.iter().zip([1, 0]) {
            let err = f(&t, &mut dev, &mut mem, &[c]).unwrap_err();
            assert_eq!(
                err,
                FabricError::FlashReadError {
                    page: t.cols[c].1.first_page,
                    attempts: policy.max_retries + 1,
                }
            );
        }
    }

    #[test]
    fn under_faults_trace_spans_balance() {
        let (mut mem, mut dev, t) = setup();
        mem.trace_to(1 << 14);
        let transient = FaultConfig {
            flash_transient_prob: 0.3,
            link_corrupt_prob: 0.3,
            ..FaultConfig::quiet(chaos_seed())
        };
        let dead_link = FaultConfig {
            link_corrupt_prob: 1.0,
            ..FaultConfig::quiet(chaos_seed())
        };
        let latent = FaultConfig::quiet(chaos_seed()).with_latent(1.0);
        let mut failed = 0;
        for (cfg, policy) in [
            (transient, patient()),
            (dead_link, RecoveryPolicy::default()),
            (latent, RecoveryPolicy::default()),
        ] {
            dev.inject_faults(FaultPlan::new(cfg), policy);
            // Past the breaker threshold: failures, then fail-fast rejections.
            for f in FETCHES.iter().cycle().take(6) {
                failed += u32::from(f(&t, &mut dev, &mut mem, &[0, 1]).is_err());
            }
        }
        assert_eq!(failed, 12, "the dead link and the latent pages fail");
        let summary = validate_chrome_trace(&mem.export_trace().unwrap()).unwrap();
        assert!(summary.begins > 0 && summary.instants > 0);
        assert_eq!(summary.begins, summary.ends, "every span closes");
    }
}
