//! Compressed column storage with on-the-fly reconstruction — the paper's
//! open question Q3: *"the storage \[fabric\] can convert from compressed
//! columns to rows in memory"*.
//!
//! Columns are dictionary encoded (a fabric-compatible codec, §III-D) and
//! stored on flash. The controller decompresses requested columns and
//! reconstructs row-major output while streaming, so the host receives
//! plain rows of the requested column group; the baseline ships the
//! compressed blobs and decodes on the host CPU.

use crate::config::RsConfig;
use crate::store::{RsStats, SsdDevice};
use compress::DictEncoded;
use fabric_sim::MemoryHierarchy;
use fabric_types::{ColumnId, FabricError, Result, Schema};

/// A table stored as dictionary-compressed columns on the device.
pub struct CompressedTable {
    rows: usize,
    /// One encoded column per schema column, plus the flash footprint of
    /// each (pages).
    cols: Vec<(DictEncoded, crate::store::StoredTable)>,
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

    /// Near-data path: the controller reads the compressed columns,
    /// decodes them, and ships reconstructed row-major tuples of the
    /// requested columns.
    pub fn fetch_rows_decompressed(
        &self,
        dev: &mut SsdDevice,
        mem: &mut MemoryHierarchy,
        cols: &[ColumnId],
    ) -> Result<(Vec<u8>, RsStats)> {
        let cfg = *dev.config();
        let start = mem.now();
        // Flash: only the compressed images of the touched columns.
        let mut pages = 0u64;
        for &c in cols {
            let stored = &self
                .cols
                .get(c)
                .ok_or(FabricError::ColumnIndexOutOfRange {
                    index: c,
                    len: self.cols.len(),
                })?
                .1;
            pages += stored.pages as u64;
        }
        // Controller decode: per value per requested column.
        let values = (self.rows * cols.len()) as f64;
        let ctrl_ns = values * cfg.ctrl_ns_per_value + self.rows as f64 * cfg.ctrl_ns_per_row;

        // Functional reconstruction.
        let mut out = Vec::new();
        for i in 0..self.rows {
            for &c in cols {
                out.extend_from_slice(self.cols[c].0.get(i));
            }
        }

        let done = timing(mem, &cfg, start, pages, ctrl_ns, out.len());
        mem.stall_until(done);
        Ok((
            out.clone(),
            RsStats {
                pages_read: pages,
                rows_scanned: self.rows as u64,
                rows_emitted: self.rows as u64,
                bytes_shipped: out.len() as u64,
                ..RsStats::default()
            },
        ))
    }

    /// Host path: ship the compressed images; the host CPU decodes and
    /// reconstructs (decode cost charged to the CPU).
    pub fn fetch_rows_host_decode(
        &self,
        dev: &mut SsdDevice,
        mem: &mut MemoryHierarchy,
        cols: &[ColumnId],
    ) -> Result<(Vec<u8>, RsStats)> {
        let cfg = *dev.config();
        let start = mem.now();
        let mut pages = 0u64;
        let mut shipped = 0u64;
        for &c in cols {
            let (enc, stored) = self.cols.get(c).ok_or(FabricError::ColumnIndexOutOfRange {
                index: c,
                len: self.cols.len(),
            })?;
            pages += stored.pages as u64;
            shipped += enc.compressed_bytes() as u64;
        }
        let done = timing(mem, &cfg, start, pages, 0.0, shipped as usize);
        mem.stall_until(done);

        // Host-side decode + reconstruction.
        let costs = mem.costs();
        let mut out = Vec::new();
        for i in 0..self.rows {
            for &c in cols {
                out.extend_from_slice(self.cols[c].0.get(i));
            }
        }
        mem.cpu(
            (self.rows * cols.len()) as u64 * (costs.vector_elem + costs.value_op)
                + self.rows as u64 * costs.reconstruct,
        );
        Ok((
            out.clone(),
            RsStats {
                pages_read: pages,
                rows_scanned: self.rows as u64,
                rows_emitted: self.rows as u64,
                bytes_shipped: shipped,
                ..RsStats::default()
            },
        ))
    }
}

/// Shared pipeline-timing helper: flash reads + controller work + link.
fn timing(
    mem: &MemoryHierarchy,
    cfg: &RsConfig,
    start: fabric_sim::Cycles,
    pages: u64,
    ctrl_ns: f64,
    ship_bytes: usize,
) -> fabric_sim::Cycles {
    let sim = mem.config();
    // Approximate flash time: channel-parallel page stream.
    let per_wave = cfg.channels as u64;
    let waves = pages.div_ceil(per_wave).max(1);
    let flash_done =
        start + sim.ns_to_cycles(cfg.read_page_ns) + waves * sim.ns_to_cycles(cfg.channel_xfer_ns);
    let ctrl_done = start + sim.ns_to_cycles(ctrl_ns.max(1.0));
    let link_done = start
        + sim.ns_to_cycles(cfg.link_base_ns)
        + sim.ns_to_cycles(ship_bytes.max(1) as f64 * cfg.link_ns_per_byte);
    flash_done.max(ctrl_done).max(link_done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
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
}
