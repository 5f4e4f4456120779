//! The timed RM device model.
//!
//! Implements the four key operations of paper §IV-A on top of the pure
//! data path in [`crate::packer`]:
//!
//! 1. *"receives the intended access stride of the query … and issues
//!    parallel main memory requests for the target data"* — the gather
//!    loop streams the touched source lines of every base row into the
//!    device's own [`DramModel`] port, where bank-level parallelism
//!    determines completion times;
//! 2. *"assembles multiple entries into a single packed cache line"* —
//!    packing the bytes [`crate::packer::pack_row`] defines, with the
//!    engine emitting one 64-byte output line per engine clock (100 MHz
//!    in the prototype);
//! 3. + 4. capture of CPU requests and delivery happen in
//!    [`crate::ephemeral`], which imposes the staging-buffer flow control.

use crate::aggregate::AggBank;
use crate::config::RmConfig;
use crate::packer;
use crate::stats::RmStats;
use fabric_sim::{Cycles, DramModel, FaultPlan, MemArena, SimConfig};
use fabric_types::{crc32, le_array, FabricError, Geometry, OutputMode, Result, Value};

/// One batch of packed output as produced by the device, with the simulated
/// time at which its last line left the engine.
#[derive(Debug, Clone)]
pub struct ProducedBatch {
    pub data: Vec<u8>,
    pub rows: usize,
    pub ready_at: Cycles,
    /// CRC-32 frame computed over the pristine payload as it left the
    /// engine; consumers verify it after the bus transfer to detect
    /// in-flight corruption (DESIGN.md §9).
    pub crc: u32,
    /// When the engine started on this batch (observability: the consumer
    /// retro-reports the device timeline as `rm.gather`/`rm.pack` spans).
    pub started_at: Cycles,
    /// When the last source line of this batch arrived from DRAM.
    pub gather_done: Cycles,
    /// Source cache lines this batch fetched from DRAM.
    pub source_lines: u64,
}

/// Device-side execution state for one configured geometry.
///
/// The host simulates the engine a batch at a time (DESIGN.md §26): what
/// depends only on the geometry is worked out once, at configure time, and
/// each row pays for its DRAM gather — charged line by line in the order
/// the engine issues them — plus one copy per contiguous run of requested
/// bytes.
pub struct DeviceRun {
    dram: DramModel,
    line_size: u64,
    engine_cycles: Cycles,
    row_beat_cycles: Cycles,
    /// When the engine finished its previous batch (it cannot start the
    /// next one earlier).
    device_free: Cycles,
    /// Next base row to examine.
    cursor: usize,
    /// Merged byte spans of the touched fields within one row.
    spans: Vec<(usize, usize)>,
    /// Last source line fetched (dedup across adjacent rows).
    last_line: u64,
    /// Core cycles per nanosecond, for charging injected stall time.
    cpu_ghz: f64,
    stats: RmStats,
    /// The copies that make one delivered row out of a base row, with
    /// their offsets in both worked out at configure time.
    copies: Vec<FieldCopy>,
    /// Whether rows must be qualified: the geometry has a predicate or a
    /// visibility filter. Without either every row qualifies.
    filters: bool,
    /// Source lines of the row being gathered (reused across rows and
    /// batches).
    lines: Vec<u64>,
}

impl DeviceRun {
    /// Prepare a run for `geometry`. `sim` supplies the platform clock and
    /// DRAM geometry; `cfg` the device parameters.
    pub fn new(sim: &SimConfig, cfg: &RmConfig, geometry: &Geometry) -> Self {
        let engine_cycles = sim.ns_to_cycles(cfg.engine_ns_per_line);
        let row_beat_cycles = if cfg.engine_ns_per_row > 0.0 {
            sim.ns_to_cycles(cfg.engine_ns_per_row)
        } else {
            0
        };
        // Bridging sub-line gaps costs nothing extra: fetching is per line.
        let spans = packer::touched_spans(geometry, sim.line_size - 1);
        DeviceRun {
            dram: DramModel::new(sim),
            line_size: sim.line_size as u64,
            engine_cycles,
            row_beat_cycles,
            device_free: 0,
            cursor: 0,
            spans,
            last_line: u64::MAX,
            cpu_ghz: sim.cpu_ghz,
            stats: RmStats::default(),
            copies: row_copies(geometry),
            filters: !geometry.predicate.is_trivial() || geometry.visibility.is_some(),
            lines: Vec::with_capacity(8),
        }
    }

    /// Rows examined so far (the scan cursor).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    pub fn stats(&self) -> RmStats {
        self.stats
    }

    /// `(accesses, open-row hits)` of the device's own DRAM port.
    pub fn dram_counters(&self) -> (u64, u64) {
        self.dram.counters()
    }

    pub(crate) fn stats_mut(&mut self) -> &mut RmStats {
        &mut self.stats
    }

    pub(crate) fn note_configure(&mut self) {
        self.stats.configures += 1;
    }

    /// Gather the base row at `row_addr`: fetch each source line it needs
    /// that the previous row did not, all issued at `issue_t`, and count
    /// the row. Returns the latest completion (0 when every line was
    /// already fetched).
    #[inline]
    fn gather_row(&mut self, row_addr: u64, issue_t: Cycles) -> Cycles {
        self.lines.clear();
        packer::row_source_lines(
            row_addr,
            &self.spans,
            self.line_size,
            &mut self.last_line,
            &mut self.lines,
        );
        let mut done = 0;
        for &la in &self.lines {
            done = done.max(self.dram.access(la, issue_t));
        }
        self.stats.source_lines += self.lines.len() as u64;
        self.stats.rows_scanned += 1;
        done
    }

    /// Produce the next delivery batch of at most `max_bytes` of packed
    /// output, starting no earlier than `start_at` (buffer-slot
    /// availability). Returns `None` when the base data is exhausted and
    /// nothing was packed.
    ///
    /// `faults`, when present, may inject an engine-side stall: the batch
    /// is produced correctly but becomes ready late (recoverable slowness,
    /// not an error). A predicate whose literal cannot compare with its
    /// field is an error, returned before the device does anything.
    pub fn produce(
        &mut self,
        arena: &MemArena,
        g: &Geometry,
        start_at: Cycles,
        max_bytes: usize,
        faults: Option<&mut FaultPlan>,
    ) -> Result<Option<ProducedBatch>> {
        g.predicate.check()?;
        if self.cursor >= g.rows {
            return Ok(None);
        }
        let start = start_at.max(self.device_free);
        let out_width = g.output_row_width();
        debug_assert!(out_width > 0, "produce() called on an aggregate geometry");
        assert!(
            max_bytes >= out_width,
            "delivery batch ({max_bytes} B) smaller than one packed row ({out_width} B)"
        );

        // Rows that fit in the batch, and the base rows left to examine.
        let fit = max_bytes / out_width;
        let left = g.rows - self.cursor;
        let mut data = vec![0u8; fit.min(left) * out_width];
        let mut rows_emitted = 0usize;
        let mut issue_t = start;
        let mut gather_done = start;
        let source_lines_before = self.stats.source_lines;
        let first = self.cursor;
        let base_rows = arena.slice(row_addr(g, first), left * g.row_width);

        for (i, row) in base_rows.chunks_exact(g.row_width).enumerate() {
            if rows_emitted == fit {
                break;
            }
            gather_done = gather_done.max(self.gather_row(row_addr(g, first + i), issue_t));
            issue_t += self.row_beat_cycles;
            self.cursor += 1;
            if !self.filters || packer::row_qualifies(g, row)? {
                let out = &mut data[rows_emitted * out_width..][..out_width];
                for c in &self.copies {
                    c.apply(row, out);
                }
                rows_emitted += 1;
            }
        }
        data.truncate(rows_emitted * out_width);

        if data.is_empty() && self.cursor >= g.rows && rows_emitted == 0 && self.stats.batches > 0 {
            // Trailing empty scan (e.g. last rows all filtered out) still
            // consumed device time; fold it into device_free and stop.
            self.device_free = gather_done.max(self.device_free);
            return Ok(None);
        }

        let out_lines = (data.len() as u64).div_ceil(self.line_size);
        // Pipelined engine: limited by the last gathered line plus a drain
        // beat, by output-line throughput, or by row-ingest throughput.
        let mut ready = (gather_done + self.engine_cycles)
            .max(start + out_lines * self.engine_cycles)
            .max(issue_t);
        if let Some(plan) = faults {
            if let Some(stall_ns) = plan.rm_engine_stall() {
                ready += (stall_ns * self.cpu_ghz).round().max(1.0) as Cycles;
                self.stats.injected_faults += 1;
            }
        }
        self.device_free = ready;
        self.stats.output_lines += out_lines;
        self.stats.rows_emitted += rows_emitted as u64;
        self.stats.batches += 1;

        let crc = crc32(&data);
        Ok(Some(ProducedBatch {
            data,
            rows: rows_emitted,
            ready_at: ready,
            crc,
            started_at: start,
            gather_done,
            source_lines: self.stats.source_lines - source_lines_before,
        }))
    }

    /// Run the whole geometry as a device-side aggregation (paper §IV-B):
    /// only the aggregate results leave the device. Returns the values and
    /// the simulated time they are ready. A predicate whose literal cannot
    /// compare with its field is an error, returned before the device
    /// does anything.
    pub fn run_aggregate(
        &mut self,
        arena: &MemArena,
        g: &Geometry,
        start_at: Cycles,
    ) -> Result<(Vec<Value>, Cycles)> {
        let OutputMode::Aggregate(specs) = &g.mode else {
            return Err(FabricError::InvalidGeometry(
                "run_aggregate on a non-aggregate geometry".into(),
            ));
        };
        g.predicate.check()?;
        let start = start_at.max(self.device_free);
        let mut bank = AggBank::new(specs);
        let mut issue_t = start;
        let mut gather_done = start;
        let first = self.cursor;
        let base_rows = arena.slice(row_addr(g, first), (g.rows - first) * g.row_width);

        for (i, row) in base_rows.chunks_exact(g.row_width).enumerate() {
            gather_done = gather_done.max(self.gather_row(row_addr(g, first + i), issue_t));
            issue_t += self.row_beat_cycles;
            if !self.filters || packer::row_qualifies(g, row)? {
                bank.update_raw(row)?;
                self.stats.rows_emitted += 1;
            }
            self.cursor += 1;
        }

        let ready = (gather_done + self.engine_cycles).max(issue_t);
        self.device_free = ready;
        self.stats.output_lines += 1;
        self.stats.batches += 1;
        Ok((bank.finish()?, ready))
    }
}

/// Address of base row `row`.
#[inline]
fn row_addr(g: &Geometry, row: usize) -> u64 {
    g.base + row as u64 * g.row_width as u64
}

/// One run of bytes copied from a base row into a delivered row.
struct FieldCopy {
    /// Offset in the base row.
    src: usize,
    /// Offset in the delivered row.
    dst: usize,
    len: usize,
}

impl FieldCopy {
    /// Copy this run of `row` into `out` with fixed-size moves and no
    /// library call: a run of `len` bytes, `W ≤ len ≤ 2W`, is two `W`-byte
    /// moves, one from each end, which overlap in the middle; a longer
    /// one is 32-byte moves and a last one that ends at the run's end.
    #[inline(always)]
    fn apply(&self, row: &[u8], out: &mut [u8]) {
        let len = self.len;
        let (src, dst) = (&row[self.src..][..len], &mut out[self.dst..][..len]);
        match len {
            0 => {}
            1 => dst[0] = src[0],
            2..=3 => ends::<2>(src, dst),
            4..=7 => ends::<4>(src, dst),
            8..=15 => ends::<8>(src, dst),
            16..=31 => ends::<16>(src, dst),
            _ => {
                let mut at = 0;
                while at + 32 < len {
                    dst[at..at + 32].copy_from_slice(&src[at..at + 32]);
                    at += 32;
                }
                dst[len - 32..][..32].copy_from_slice(&src[len - 32..][..32]);
            }
        }
    }
}

/// Copy `src` to `dst` (equal lengths in `W..=2W`) as two `W`-byte moves,
/// the first `W` bytes and the last `W`.
#[inline(always)]
fn ends<const W: usize>(src: &[u8], dst: &mut [u8]) {
    let last = src.len() - W;
    let (head, tail): ([u8; W], [u8; W]) = (le_array(src), le_array(&src[last..]));
    dst[..W].copy_from_slice(&head);
    dst[last..][..W].copy_from_slice(&tail);
}

/// The copies that pack one row of `g` (see [`DeviceRun::copies`]):
/// [`packer::pack_row`]'s output, with fields that are adjacent in both the
/// base row and the output merged into one copy, or the whole row in
/// [`OutputMode::FilteredRows`].
fn row_copies(g: &Geometry) -> Vec<FieldCopy> {
    match &g.mode {
        OutputMode::PackedColumns => {
            let mut copies: Vec<FieldCopy> = Vec::with_capacity(g.fields.len());
            let mut dst = 0;
            for f in &g.fields {
                match copies.last_mut() {
                    Some(c) if c.src + c.len == f.offset => c.len += f.width(),
                    _ => copies.push(FieldCopy {
                        src: f.offset,
                        dst,
                        len: f.width(),
                    }),
                }
                dst += f.width();
            }
            copies
        }
        OutputMode::FilteredRows => vec![FieldCopy {
            src: 0,
            dst: 0,
            len: g.row_width,
        }],
        OutputMode::Aggregate(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::{
        AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, FieldSlice, Predicate,
    };

    /// 1000 rows of 16 i32 columns; c_j of row i = (i * 16 + j) as i32.
    fn setup() -> (MemArena, Geometry) {
        let mut arena = MemArena::new();
        let rows = 1000usize;
        let base = arena.alloc(rows * 64, 64).unwrap();
        for i in 0..rows {
            for j in 0..16usize {
                let v = (i * 16 + j) as i32;
                arena.write(base + (i * 64 + j * 4) as u64, &v.to_le_bytes());
            }
        }
        let fields = vec![
            FieldSlice::new(0, 0, ColumnType::I32),
            FieldSlice::new(5, 20, ColumnType::I32),
        ];
        (arena, Geometry::packed(base, 64, rows, fields))
    }

    fn run(cfg: &RmConfig, arena: &MemArena, g: &Geometry) -> (Vec<u8>, usize, Cycles) {
        let sim = SimConfig::zynq_a53();
        let mut dev = DeviceRun::new(&sim, cfg, g);
        let mut all = Vec::new();
        let mut rows = 0;
        let mut last_ready = 0;
        while let Some(b) = dev.produce(arena, g, 0, cfg.batch_bytes, None).unwrap() {
            all.extend_from_slice(&b.data);
            rows += b.rows;
            last_ready = b.ready_at;
        }
        (all, rows, last_ready)
    }

    #[test]
    fn produces_correct_packed_data() {
        let (arena, g) = setup();
        let (data, rows, ready) = run(&RmConfig::prototype(), &arena, &g);
        assert_eq!(rows, 1000);
        assert_eq!(data.len(), 1000 * 8);
        assert!(ready > 0);
        // Row 7: c0 = 112, c5 = 117.
        let off = 7 * 8;
        assert_eq!(
            i32::from_le_bytes(data[off..off + 4].try_into().unwrap()),
            112
        );
        assert_eq!(
            i32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap()),
            117
        );
    }

    #[test]
    fn an_incomparable_predicate_fails_before_any_device_time() {
        let (arena, g) = setup();
        let text = ColumnPredicate::new(
            FieldSlice::new(0, 0, ColumnType::I32),
            CmpOp::Ge,
            Value::Str("x".into()),
        );
        let packed = g.with_predicate(Predicate::always_true().and(text));
        let agg = packed
            .clone()
            .with_mode(OutputMode::Aggregate(vec![AggSpec::count()]));
        let (sim, cfg) = (SimConfig::zynq_a53(), RmConfig::prototype());
        let untouched = |dev: &DeviceRun| {
            assert_eq!(dev.stats(), RmStats::default());
            assert_eq!((dev.dram_counters(), dev.cursor()), ((0, 0), 0));
        };
        let mut dev = DeviceRun::new(&sim, &cfg, &agg);
        let err = dev.run_aggregate(&arena, &agg, 0).unwrap_err();
        assert!(matches!(err, FabricError::TypeMismatch { .. }), "{err}");
        untouched(&dev);
        let mut dev = DeviceRun::new(&sim, &cfg, &packed);
        let err = dev
            .produce(&arena, &packed, 0, cfg.batch_bytes, None)
            .unwrap_err();
        assert!(matches!(err, FabricError::TypeMismatch { .. }), "{err}");
        untouched(&dev);
    }

    #[test]
    fn a_run_copies_what_copy_from_slice_copies_and_nothing_else() {
        let row: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        let lens = (1..=64).chain([65, 96, 100, 152]);
        for len in lens {
            for src in [0, 1, 7, 60] {
                for dst in [0, 3, 8, 33] {
                    let mut out = vec![0xEE; 256];
                    let mut want = out.clone();
                    want[dst..dst + len].copy_from_slice(&row[src..src + len]);
                    FieldCopy { src, dst, len }.apply(&row, &mut out);
                    assert_eq!(out, want, "len {len}, src {src}, dst {dst}");
                }
            }
        }
    }

    #[test]
    fn lineitem_geometries_pack_with_the_runs_they_always_had() {
        // `lineitem`'s packed 152-byte rows, fields in the order the
        // executor binds them for the benchmark's Q1, Q6 and key lookup.
        use ColumnType::{Date, FixedStr, F64, I32, I64};
        let runs = |fields: &[(usize, usize, ColumnType)]| {
            let fields = fields.iter().map(|&(c, o, t)| FieldSlice::new(c, o, t));
            let g = Geometry::packed(0, 152, 1, fields.collect());
            let copies = row_copies(&g);
            copies
                .iter()
                .map(|c| (c.src, c.dst, c.len))
                .collect::<Vec<_>>()
        };
        let q1 = [
            (8, 60, FixedStr(1)),
            (9, 61, FixedStr(1)),
            (4, 28, F64),
            (5, 36, F64),
            (6, 44, F64),
            (7, 52, F64),
            (10, 62, Date),
        ];
        assert_eq!(runs(&q1), [(60, 0, 2), (28, 2, 32), (62, 34, 4)]);
        let q6 = [(5, 36, F64), (6, 44, F64), (10, 62, Date), (4, 28, F64)];
        assert_eq!(runs(&q6), [(36, 0, 16), (62, 16, 4), (28, 20, 8)]);
        let lookup = [(0, 0, I64), (3, 24, I32), (4, 28, F64), (5, 36, F64)];
        assert_eq!(runs(&lookup), [(0, 0, 8), (24, 8, 20)]);
    }

    #[test]
    fn batches_respect_max_bytes() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        let b = dev.produce(&arena, &g, 0, 256, None).unwrap().unwrap();
        assert!(b.data.len() <= 256);
        assert_eq!(b.rows, 32); // 256 / 8 bytes per packed row
        assert_eq!(dev.cursor(), 32);
    }

    #[test]
    fn device_predicate_filters_rows() {
        let (arena, mut g) = setup();
        // c0 = i * 16, keep rows with c0 < 160 (first 10 rows).
        g = g.with_predicate(Predicate::always_true().and(ColumnPredicate::new(
            FieldSlice::new(0, 0, ColumnType::I32),
            CmpOp::Lt,
            Value::I32(160),
        )));
        let (data, rows, _) = run(&RmConfig::prototype(), &arena, &g);
        assert_eq!(rows, 10);
        assert_eq!(data.len(), 80);
    }

    #[test]
    fn ready_time_respects_engine_throughput() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        // Pathologically slow engine: 1000 ns per output line.
        let slow = RmConfig {
            engine_ns_per_line: 1000.0,
            ..RmConfig::prototype()
        };
        let fast = RmConfig::prototype();
        let (_, _, t_slow) = run(&slow, &arena, &g);
        let (_, _, t_fast) = run(&fast, &arena, &g);
        assert!(
            t_slow > t_fast * 10,
            "slow engine {t_slow} vs fast {t_fast}"
        );
        // Slow engine is throughput-bound: 125 output lines * 1000 ns.
        let expect = sim.ns_to_cycles(1000.0) * 125;
        assert!(t_slow >= expect, "t_slow={t_slow} expect>={expect}");
    }

    #[test]
    fn narrow_projection_fetches_fewer_lines_when_rows_share_lines() {
        // 16-byte rows: 4 rows per line; projecting one column should fetch
        // each line once, not once per row.
        let mut arena = MemArena::new();
        let rows = 400usize;
        let base = arena.alloc(rows * 16, 64).unwrap();
        let g = Geometry::packed(base, 16, rows, vec![FieldSlice::new(0, 0, ColumnType::I32)]);
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        while dev
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .is_some()
        {}
        assert_eq!(dev.stats().source_lines, 100); // 400 rows / 4 per line
        assert_eq!(dev.stats().rows_scanned, 400);
    }

    #[test]
    fn aggregate_mode_returns_results_not_data() {
        let (arena, g) = setup();
        let field = FieldSlice::new(0, 0, ColumnType::I32);
        let g = g.with_mode(OutputMode::Aggregate(vec![
            AggSpec::count(),
            AggSpec::over(AggFunc::Sum, field),
        ]));
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        let (vals, ready) = dev.run_aggregate(&arena, &g, 0).unwrap();
        assert_eq!(vals[0], Value::I64(1000));
        // sum of c0 = sum of i*16 for i in 0..1000
        let expect: i64 = (0..1000i64).map(|i| i * 16).sum();
        assert_eq!(vals[1], Value::I64(expect));
        assert!(ready > 0);
        assert_eq!(dev.stats().output_lines, 1);
    }

    #[test]
    fn run_aggregate_rejects_wrong_mode() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        assert!(dev.run_aggregate(&arena, &g, 0).is_err());
    }

    #[test]
    fn exhausted_run_returns_none() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        while dev
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .is_some()
        {}
        assert!(dev
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .is_none());
        assert_eq!(dev.cursor(), 1000);
    }

    #[test]
    fn produced_batch_crc_frames_the_payload() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut dev = DeviceRun::new(&sim, &cfg, &g);
        let b = dev
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .unwrap();
        assert_eq!(b.crc, crc32(&b.data));
        let mut flipped = b.data.clone();
        flipped[3] ^= 0x40;
        assert_ne!(crc32(&flipped), b.crc);
    }

    #[test]
    fn injected_engine_stall_delays_ready_but_not_data() {
        use fabric_sim::{FaultConfig, FaultPlan};
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        // Stall every batch by 10 µs.
        let mut plan = FaultPlan::new(FaultConfig {
            rm_stall_prob: 1.0,
            rm_stall_ns: 10_000.0,
            ..FaultConfig::quiet(7)
        });
        let mut clean = DeviceRun::new(&sim, &cfg, &g);
        let mut faulty = DeviceRun::new(&sim, &cfg, &g);
        let c = clean
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .unwrap();
        let f = faulty
            .produce(&arena, &g, 0, cfg.batch_bytes, Some(&mut plan))
            .unwrap()
            .unwrap();
        assert_eq!(c.data, f.data, "a stall must not change the payload");
        assert_eq!(c.crc, f.crc);
        assert!(f.ready_at >= c.ready_at + sim.ns_to_cycles(10_000.0));
        assert_eq!(faulty.stats().injected_faults, 1);
        assert_eq!(plan.stats().rm_stalls, 1);
        assert_eq!(clean.stats().injected_faults, 0);
    }

    #[test]
    fn later_start_at_delays_ready() {
        let (arena, g) = setup();
        let sim = SimConfig::zynq_a53();
        let cfg = RmConfig::prototype();
        let mut d1 = DeviceRun::new(&sim, &cfg, &g);
        let r1 = d1
            .produce(&arena, &g, 0, cfg.batch_bytes, None)
            .unwrap()
            .unwrap();
        let mut d2 = DeviceRun::new(&sim, &cfg, &g);
        let r2 = d2
            .produce(&arena, &g, 1_000_000, cfg.batch_bytes, None)
            .unwrap()
            .unwrap();
        assert_eq!(r2.ready_at - 1_000_000, r1.ready_at);
    }
}
