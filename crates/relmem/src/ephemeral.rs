//! Ephemeral variables — the CPU-facing API of Relational Memory.
//!
//! Paper §II: *"these transient variables are never instantiated in main
//! memory. Instead, upon accessing such a variable, the underlying machinery
//! is set in motion and generates an on-the-fly projection of the requested
//! columns."* Accordingly, [`PackedBatch`] data lives in plain host buffers
//! handed over by the device model — never in the simulated [`fabric_sim::MemArena`] —
//! and consuming it charges bus-transfer time plus producer-readiness
//! stalls instead of cache/DRAM accesses.
//!
//! ```
//! use fabric_sim::{MemoryHierarchy, SimConfig};
//! use fabric_types::{ColumnType, Geometry, RowLayout, Schema};
//! use relmem::{EphemeralColumns, RmConfig};
//!
//! // A 16-column row-oriented table (the paper's microbenchmark shape).
//! let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
//! let schema = Schema::uniform(16, ColumnType::I32);
//! let layout = RowLayout::packed(&schema);
//! let rows = 1024;
//! let base = mem.alloc(rows * layout.row_width(), 64).unwrap();
//!
//! // `configure` = line 25 of paper Fig. 3.
//! let fields = layout.fields(&[0, 5, 9]).unwrap();
//! let geometry = Geometry::packed(base, layout.row_width(), rows, fields);
//! let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), geometry).unwrap();
//!
//! // Reading the ephemeral variable sets the machinery in motion.
//! let mut total_rows = 0;
//! while let Some(batch) = eph.next_batch(&mut mem) {
//!     total_rows += batch.len();
//! }
//! assert_eq!(total_rows, 1024);
//! ```

use crate::config::RmConfig;
use crate::device::DeviceRun;
use crate::packer;
use crate::stats::RmStats;
use fabric_sim::{Category, Cycles, FaultPlan, MemoryHierarchy, RecoveryPolicy};
use fabric_types::{
    crc32, le_array, Chunk, ChunkError, CmpOp, ColumnSpec, FabricError, Geometry, OutputMode,
    Result, RowSelection, Value, BATCH_ROWS,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Device name reported in fault errors raised by this module.
const DEVICE_NAME: &str = "rm-engine";

/// One delivery batch of packed column-group rows.
///
/// The payload layout is row-major packed structs, exactly the
/// `ephemeral struct column_group` of paper Fig. 3: for each qualifying base
/// row, the requested fields concatenated in request order.
#[derive(Debug, Clone)]
pub struct PackedBatch {
    data: Vec<u8>,
    /// Number of qualifying rows in this batch.
    rows: usize,
    row_width: usize,
    /// Where each requested field lies in the payload (offset within a
    /// delivered row, stride = `row_width`), shared with the
    /// [`EphemeralColumns`] that delivered the batch (an `Arc`, not an
    /// `Rc`, only so batches stay `Send`).
    fields: Arc<[ColumnSpec]>,
    pub(crate) _private: (),
}

impl PackedBatch {
    /// Number of packed rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Width of one packed row in bytes.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// The raw packed payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Raw bytes of packed row `row`.
    #[inline]
    pub fn row_bytes(&self, row: usize) -> &[u8] {
        let off = row * self.row_width;
        &self.data[off..off + self.row_width]
    }

    /// Raw bytes of field `field` (index into the geometry's request list)
    /// of packed row `row`.
    #[inline]
    pub fn field_bytes(&self, row: usize, field: usize) -> &[u8] {
        let spec = self.fields[field];
        let off = row * self.row_width + spec.offset;
        &self.data[off..off + spec.ty.width()]
    }

    /// Decode field `field` of row `row`.
    #[inline]
    pub fn value(&self, row: usize, field: usize) -> Value {
        Value::decode(self.fields[field].ty, self.field_bytes(row, field))
    }

    /// Packed rows `rows` as typed column views, one per requested field
    /// in request order (stride = packed-row width); row 0 of the chunk is
    /// `rows.start`.
    pub fn chunk(&self, rows: Range<usize>) -> Chunk<'_> {
        let bytes = &self.data[rows.start * self.row_width..rows.end * self.row_width];
        Chunk::new(bytes, &self.fields)
    }

    /// Consume packed rows `rows` with a branch-free predicate: every
    /// `(field, op, literal)` conjunct is charged (`value_op` each) and
    /// evaluated on every row — rejection is a data dependency, not a
    /// mispredicted branch — and each passing row costs `pass_cycles`.
    /// Rows reach `consume` a chunk at a time (at most [`BATCH_ROWS`]), as
    /// [`Self::chunk`] views plus the positions that passed. Returns how
    /// many passed.
    ///
    /// `consume` is host-only and runs before its chunk's rows are
    /// charged; when it fails on a row, exactly the rows up to that one
    /// are. The payload is host memory, so nothing but `cpu` is charged —
    /// and a chunk's `cpu` charges, with nothing between them that reads
    /// the clock, are one sum.
    pub fn consume_chunks(
        &self,
        mem: &mut MemoryHierarchy,
        rows: Range<usize>,
        preds: &[(usize, CmpOp, Value)],
        pass_cycles: u64,
        selection: &mut RowSelection,
        mut consume: impl FnMut(&Chunk<'_>, &[u32]) -> std::result::Result<(), ChunkError>,
    ) -> Result<u64> {
        let pred_cycles = mem.costs().value_op * preds.len() as u64;
        let mut kept = 0u64;
        let mut first = rows.start;
        while first < rows.end {
            let n = BATCH_ROWS.min(rows.end - first);
            let chunk = self.chunk(first..first + n);
            // A predicate that cannot be evaluated fails on the first row.
            let (reached, failure) = match selection.select(&chunk, n, preds) {
                Err(e) => (1, Some(e)),
                Ok(()) => match consume(&chunk, selection.sel()) {
                    Ok(()) => (n, None),
                    Err(ChunkError { at, error }) => {
                        (selection.sel()[at] as usize + 1, Some(error))
                    }
                },
            };
            let passed = selection.pass()[..reached].iter().filter(|&&p| p).count() as u64;
            mem.cpu(pred_cycles * reached as u64 + pass_cycles * passed);
            kept += passed;
            if let Some(e) = failure {
                return Err(e);
            }
            first += n;
        }
        Ok(kept)
    }

    /// Fast path: little-endian `i32` field.
    #[inline]
    pub fn i32_at(&self, row: usize, field: usize) -> i32 {
        i32::from_le_bytes(le_array(self.field_bytes(row, field)))
    }

    /// Fast path: little-endian `i64` field.
    #[inline]
    pub fn i64_at(&self, row: usize, field: usize) -> i64 {
        i64::from_le_bytes(le_array(self.field_bytes(row, field)))
    }

    /// Fast path: little-endian `f64` field.
    #[inline]
    pub fn f64_at(&self, row: usize, field: usize) -> f64 {
        f64::from_le_bytes(le_array(self.field_bytes(row, field)))
    }
}

/// A configured ephemeral variable: the handle through which the CPU streams
/// an arbitrary data geometry out of row-oriented base data.
pub struct EphemeralColumns {
    geometry: Arc<Geometry>,
    cfg: RmConfig,
    run: DeviceRun,
    bus_cycles_per_line: Cycles,
    batch_bytes: usize,
    fields: Arc<[ColumnSpec]>,
    pending: Option<crate::device::ProducedBatch>,
    /// Times at which recent batches were taken by the CPU; bounds the
    /// device's production lookahead to the staging-buffer window.
    taken_at: VecDeque<Cycles>,
    line_size: usize,
}

impl EphemeralColumns {
    /// Configure the device for `geometry` (paper Fig. 3 line 25).
    ///
    /// Convenience wrapper: verifies the geometry against `cfg` (see
    /// [`crate::verify::VerifiedGeometry`]) and then delegates to
    /// [`Self::configure_verified`].
    pub fn configure(mem: &mut MemoryHierarchy, cfg: RmConfig, geometry: Geometry) -> Result<Self> {
        let verified = crate::verify::VerifiedGeometry::new(&cfg, geometry)?;
        Ok(Self::configure_verified(mem, cfg, verified))
    }

    /// Configure the device for an already-verified geometry. Charges the
    /// configuration cost and immediately starts production of the first
    /// batch. Infallible: every admission check ran at verification time.
    pub fn configure_verified(
        mem: &mut MemoryHierarchy,
        cfg: RmConfig,
        verified: crate::verify::VerifiedGeometry,
    ) -> Self {
        let geometry = verified.into_shared();
        let sim = mem.config().clone();
        mem.trace_begin("rm.configure", Category::Rm);
        mem.cpu(sim.ns_to_cycles(cfg.configure_ns));
        mem.trace_end(
            "rm.configure",
            Category::Rm,
            &[("fields", verified_field_count(&geometry))],
        );

        let out_width = geometry.output_row_width();
        let batch_bytes = cfg.batch_bytes.max(out_width.max(1));
        let mut run = DeviceRun::new(&sim, &cfg, &geometry);
        run.note_configure();
        // Field locations within one delivered row: packed prefix sums for
        // column groups; the *original* row offsets when whole rows are
        // delivered.
        let field_offsets = match geometry.mode {
            OutputMode::FilteredRows => geometry.fields.iter().map(|f| f.offset).collect(),
            _ => packer::packed_offsets(&geometry),
        };
        let specs = field_offsets.into_iter().zip(&geometry.fields);
        let fields = specs
            .map(|(offset, f)| ColumnSpec {
                ty: f.ty,
                offset,
                stride: out_width,
            })
            .collect();

        let mut this = EphemeralColumns {
            geometry,
            cfg,
            run,
            bus_cycles_per_line: sim.ns_to_cycles(cfg.bus_ns_per_line),
            batch_bytes,
            fields,
            pending: None,
            taken_at: VecDeque::new(),
            line_size: sim.line_size,
        };
        if !matches!(this.geometry.mode, OutputMode::Aggregate(_)) {
            this.start_next_production(mem, mem.now(), None);
        }
        this
    }

    /// The geometry this variable serves.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Device statistics so far.
    pub fn stats(&self) -> RmStats {
        self.run.stats()
    }

    fn start_next_production(
        &mut self,
        mem: &MemoryHierarchy,
        cpu_now: Cycles,
        faults: Option<&mut FaultPlan>,
    ) {
        // The device may only run `window` batches ahead of consumption:
        // the batch about to be produced reuses the buffer slot of the
        // batch taken `window` deliveries ago.
        let window = self.cfg.window_batches();
        let slot_free_at = if self.taken_at.len() >= window {
            self.taken_at[self.taken_at.len() - window]
        } else {
            0
        };
        let start_at = slot_free_at.max(if self.taken_at.is_empty() { cpu_now } else { 0 });
        let produced = self.run.produce(
            mem.arena(),
            &self.geometry,
            start_at,
            self.batch_bytes,
            faults,
        );
        // `produce` fails only on a literal that cannot compare with its
        // field, which verification (`Geometry::validate`) has ruled out.
        debug_assert!(produced.is_ok(), "{produced:?}");
        self.pending = produced.ok().flatten();
    }

    /// Pull the next batch of packed rows (paper Fig. 3 line 31: touching
    /// the ephemeral variable makes the machinery deliver the data).
    ///
    /// Charges: a stall until the device has the batch ready, plus the bus
    /// transfer of its output lines. Returns `None` when the geometry is
    /// exhausted.
    pub fn next_batch(&mut self, mem: &mut MemoryHierarchy) -> Option<PackedBatch> {
        let produced = self.pending.take()?;
        trace_device_phases(mem, &produced);
        // Wait for the producer, then pull the lines across the bus.
        mem.trace_begin("rm.deliver", Category::Rm);
        mem.stall_until(produced.ready_at);
        let lines = produced.data.len().div_ceil(self.line_size) as u64;
        mem.stall_until(mem.now() + lines * self.bus_cycles_per_line);
        let args = [
            ("rows", produced.rows as u64),
            ("bytes", produced.data.len() as u64),
            ("lines", lines),
        ];
        Some(self.hand_over(mem, produced.data, produced.rows, &args, None))
    }

    /// The end of every successful delivery: close the `rm.deliver` span
    /// with `args`, note when the batch was taken (the device's window
    /// slides on it), start producing the next batch and hand this one to
    /// the consumer.
    fn hand_over(
        &mut self,
        mem: &mut MemoryHierarchy,
        data: Vec<u8>,
        rows: usize,
        args: &[(&'static str, u64)],
        faults: Option<&mut FaultPlan>,
    ) -> PackedBatch {
        mem.trace_end("rm.deliver", Category::Rm, args);
        self.taken_at.push_back(mem.now());
        if self.taken_at.len() > self.cfg.window_batches() + 1 {
            self.taken_at.pop_front();
        }
        self.start_next_production(mem, mem.now(), faults);
        PackedBatch {
            data,
            rows,
            row_width: self.geometry.output_row_width(),
            fields: Arc::clone(&self.fields),
            _private: (),
        }
    }

    /// Fault-aware variant of [`Self::next_batch`]: delivery runs under a
    /// seeded [`FaultPlan`] and recovers per `policy` (DESIGN.md §9).
    ///
    /// Each delivery attempt may time out (the device produced the batch
    /// but delivery elapses with no data) or arrive with flipped bits; the
    /// consumer verifies the batch's CRC-32 frame and requests redelivery,
    /// charging an exponential backoff to the simulated clock per retry.
    /// Past `policy.max_retries` redeliveries the fault is surfaced as
    /// [`FabricError::DeviceTimeout`] or [`FabricError::CorruptBatch`] so a
    /// higher layer (e.g. `query::exec`) can degrade onto a software path.
    ///
    /// With a quiet plan this is byte- and time-identical to
    /// [`Self::next_batch`] except for the per-batch CRC-check charge.
    pub fn next_batch_resilient(
        &mut self,
        mem: &mut MemoryHierarchy,
        plan: &mut FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<Option<PackedBatch>> {
        let Some(produced) = self.pending.take() else {
            return Ok(None);
        };
        trace_device_phases(mem, &produced);
        mem.trace_begin("rm.deliver", Category::Rm);
        mem.stall_until(produced.ready_at);
        let lines = (produced.data.len().div_ceil(self.line_size) as u64).max(1);
        let cpu_ghz = mem.config().cpu_ghz;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if plan.rm_timeout() {
                // The delivery window elapsed with no data on the bus.
                let s = self.run.stats_mut();
                s.injected_faults += 1;
                s.delivery_timeouts += 1;
                mem.trace_instant(
                    "rm.fault.timeout",
                    Category::Fault,
                    &[("attempt", attempts as u64)],
                );
                if attempts > policy.max_retries {
                    mem.trace_end("rm.deliver", Category::Rm, &[("failed", 1)]);
                    return Err(FabricError::DeviceTimeout {
                        device: DEVICE_NAME.into(),
                        attempts,
                    });
                }
                self.run.stats_mut().retries += 1;
                mem.trace_instant("rm.retry", Category::Fault, &[("attempt", attempts as u64)]);
                mem.stall_retry_until(mem.now() + policy.backoff_cycles(attempts, cpu_ghz));
                continue;
            }

            // Pull the lines across the bus; the wire may flip a bit. A
            // clean transfer is the produced frame itself: only a flipped
            // one needs bytes of its own.
            mem.stall_until(mem.now() + lines * self.bus_cycles_per_line);
            let flipped = plan.rm_corrupt(produced.data.len()).map(|(byte, mask)| {
                let mut data = produced.data.clone();
                data[byte] ^= mask;
                data
            });
            if flipped.is_some() {
                self.run.stats_mut().injected_faults += 1;
            }
            let delivered = flipped.as_deref().unwrap_or(&produced.data);

            // CPU-side frame check, charged per delivered line.
            mem.cpu(lines * mem.costs().value_op);
            if crc32(delivered) == produced.crc {
                let args = [
                    ("rows", produced.rows as u64),
                    ("bytes", delivered.len() as u64),
                    ("lines", lines),
                    ("attempts", attempts as u64),
                ];
                let data = flipped.unwrap_or(produced.data);
                return Ok(Some(self.hand_over(
                    mem,
                    data,
                    produced.rows,
                    &args,
                    Some(plan),
                )));
            }

            self.run.stats_mut().crc_failures += 1;
            mem.trace_instant(
                "rm.fault.crc",
                Category::Fault,
                &[("attempt", attempts as u64)],
            );
            // Data corruption is a flight-recorder trigger: capture the
            // events leading up to the bad CRC while they are still in
            // the ring.
            mem.flight_dump("crc-failure");
            if attempts > policy.max_retries {
                mem.trace_end("rm.deliver", Category::Rm, &[("failed", 1)]);
                return Err(FabricError::CorruptBatch {
                    device: DEVICE_NAME.into(),
                    attempts,
                });
            }
            self.run.stats_mut().retries += 1;
            mem.trace_instant("rm.retry", Category::Fault, &[("attempt", attempts as u64)]);
            mem.stall_retry_until(mem.now() + policy.backoff_cycles(attempts, cpu_ghz));
        }
    }

    /// Run a device-side aggregation to completion (paper §IV-B). Only
    /// valid for [`OutputMode::Aggregate`] geometries; returns one value per
    /// requested aggregate.
    pub fn run_aggregate(&mut self, mem: &mut MemoryHierarchy) -> Result<Vec<Value>> {
        if !matches!(self.geometry.mode, OutputMode::Aggregate(_)) {
            return Err(FabricError::InvalidGeometry(
                "run_aggregate requires an Aggregate geometry".into(),
            ));
        }
        mem.trace_begin("rm.aggregate", Category::Rm);
        let (values, ready) = self
            .run
            .run_aggregate(mem.arena(), &self.geometry, mem.now())?;
        mem.stall_until(ready);
        // The result is a single line's worth of scalars.
        mem.stall_until(mem.now() + self.bus_cycles_per_line);
        mem.trace_end(
            "rm.aggregate",
            Category::Rm,
            &[("values", values.len() as u64)],
        );
        Ok(values)
    }
}

/// Arg helper for the `rm.configure` span.
fn verified_field_count(geometry: &Geometry) -> u64 {
    geometry.fields.len() as u64
}

/// Retro-report the device-side timeline of a produced batch as
/// `rm.gather` (source-line fetches into the device DRAM port) and
/// `rm.pack` (engine packing until the batch is ready) spans. The phases
/// ran in the simulated past, concurrently with whatever the CPU was
/// doing, which is exactly what the explicit-timestamp span API is for.
fn trace_device_phases(mem: &mut MemoryHierarchy, produced: &crate::device::ProducedBatch) {
    if !mem.tracing() {
        return;
    }
    mem.trace_begin_at(produced.started_at, "rm.gather", Category::Rm);
    mem.trace_end_at(
        produced.gather_done,
        "rm.gather",
        Category::Rm,
        &[("source_lines", produced.source_lines)],
    );
    mem.trace_begin_at(produced.gather_done, "rm.pack", Category::Rm);
    mem.trace_end_at(
        produced.ready_at,
        "rm.pack",
        Category::Rm,
        &[
            ("rows", produced.rows as u64),
            ("bytes", produced.data.len() as u64),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{
        AggFunc, AggSpec, ColumnPredicate, ColumnType, FieldSlice, Predicate, RowLayout, Schema,
    };

    /// Standard fixture: `rows` rows of 16 i32 columns, c_j(i) = i*16+j.
    fn fixture(rows: usize) -> (MemoryHierarchy, Geometry, RowLayout) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::uniform(16, ColumnType::I32);
        let layout = RowLayout::packed(&schema);
        let base = mem.alloc(rows * 64, 64).unwrap();
        for i in 0..rows {
            for j in 0..16usize {
                let v = (i * 16 + j) as i32;
                mem.write_untimed(base + (i * 64 + j * 4) as u64, &v.to_le_bytes());
            }
        }
        let fields = layout.fields(&[0, 5]).unwrap();
        let g = Geometry::packed(base, 64, rows, fields);
        (mem, g, layout)
    }

    #[test]
    fn streams_all_rows_with_correct_values() {
        let (mut mem, g, _) = fixture(5000);
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let mut seen = 0usize;
        while let Some(b) = eph.next_batch(&mut mem) {
            for r in 0..b.len() {
                let i = seen + r;
                assert_eq!(b.i32_at(r, 0), (i * 16) as i32);
                assert_eq!(b.i32_at(r, 1), (i * 16 + 5) as i32);
            }
            seen += b.len();
        }
        assert_eq!(seen, 5000);
        assert_eq!(eph.stats().rows_scanned, 5000);
    }

    #[test]
    fn consuming_advances_simulated_time() {
        let (mut mem, g, _) = fixture(2000);
        let t0 = mem.now();
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        while eph.next_batch(&mut mem).is_some() {}
        assert!(mem.now() > t0);
        // Configuration cost alone does not explain the elapsed time.
        let cfg_cycles = mem
            .config()
            .ns_to_cycles(RmConfig::prototype().configure_ns);
        assert!(mem.now() - t0 > cfg_cycles * 2);
    }

    #[test]
    fn predicate_filters_on_device() {
        let (mut mem, g, layout) = fixture(1000);
        let pred = Predicate::always_true().and(ColumnPredicate::new(
            layout.field(0).unwrap(),
            CmpOp::Lt,
            Value::I32(100 * 16),
        ));
        let g = g.with_predicate(pred);
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let mut rows = 0;
        while let Some(b) = eph.next_batch(&mut mem) {
            rows += b.len();
        }
        assert_eq!(rows, 100);
        assert_eq!(eph.stats().rows_scanned, 1000);
        assert_eq!(eph.stats().rows_emitted, 100);
    }

    #[test]
    fn aggregate_roundtrip_through_api() {
        let (mut mem, g, layout) = fixture(1000);
        let f0 = layout.field(0).unwrap();
        let g = g.with_mode(OutputMode::Aggregate(vec![
            AggSpec::count(),
            AggSpec::over(AggFunc::Sum, f0),
        ]));
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let vals = eph.run_aggregate(&mut mem).unwrap();
        assert_eq!(vals[0], Value::I64(1000));
        let expect: i64 = (0..1000i64).map(|i| i * 16).sum();
        assert_eq!(vals[1], Value::I64(expect));
    }

    #[test]
    fn aggregate_api_rejects_packed_geometry_and_vice_versa() {
        let (mut mem, g, _) = fixture(10);
        let mut eph =
            EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g.clone()).unwrap();
        assert!(eph.run_aggregate(&mut mem).is_err());
    }

    #[test]
    fn an_incomparable_predicate_is_refused_before_any_device_time() {
        let (mut mem, g, layout) = fixture(100);
        let text =
            ColumnPredicate::new(layout.field(0).unwrap(), CmpOp::Lt, Value::Str("x".into()));
        let g = g.with_predicate(Predicate::always_true().and(text));
        let agg = g
            .clone()
            .with_mode(OutputMode::Aggregate(vec![AggSpec::count()]));
        for g in [g, agg] {
            let now = mem.now();
            let refused = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).err();
            assert!(
                matches!(refused, Some(FabricError::TypeMismatch { .. })),
                "{refused:?}"
            );
            assert_eq!(mem.now(), now, "no device time is charged");
        }
    }

    #[test]
    fn invalid_geometry_rejected_at_configure() {
        let (mut mem, mut g, _) = fixture(10);
        g.fields[0] = FieldSlice::new(0, 62, ColumnType::I32); // out of row
        assert!(EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).is_err());
    }

    #[test]
    fn filtered_rows_mode_delivers_full_rows() {
        let (mut mem, g, layout) = fixture(100);
        let pred = Predicate::always_true().and(ColumnPredicate::new(
            layout.field(0).unwrap(),
            CmpOp::Ge,
            Value::I32(90 * 16),
        ));
        let g = g.with_predicate(pred).with_mode(OutputMode::FilteredRows);
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let mut rows = 0;
        while let Some(b) = eph.next_batch(&mut mem) {
            assert_eq!(b.row_width(), 64);
            for r in 0..b.len() {
                // Field accessors must use the ORIGINAL row offsets when
                // whole rows are delivered: field 1 is column 5.
                let i = 90 + rows + r;
                assert_eq!(b.i32_at(r, 0), (i * 16) as i32);
                assert_eq!(b.i32_at(r, 1), (i * 16 + 5) as i32);
                assert_eq!(b.value(r, 1), Value::I32((i * 16 + 5) as i32));
            }
            rows += b.len();
        }
        assert_eq!(rows, 10);
    }

    #[test]
    fn smaller_buffer_is_never_faster() {
        // Identical batch size; only the staging-buffer lookahead varies.
        let run = |buffer_bytes: usize| {
            let (mut mem, g, _) = fixture(20_000);
            let cfg = RmConfig {
                buffer_bytes,
                batch_bytes: 4096,
                ..RmConfig::prototype()
            };
            let t0 = mem.now();
            let mut eph = EphemeralColumns::configure(&mut mem, cfg, g).unwrap();
            let mut acc = 0i64;
            while let Some(b) = eph.next_batch(&mut mem) {
                for r in 0..b.len() {
                    acc = acc.wrapping_add(b.i32_at(r, 0) as i64);
                }
                mem.cpu(b.len() as u64 * 2);
            }
            std::hint::black_box(acc);
            mem.now() - t0
        };
        let small = run(8 * 1024);
        let large = run(2 * 1024 * 1024);
        assert!(
            large <= small,
            "large buffer {large} should be <= small buffer {small}"
        );
    }

    #[test]
    fn resilient_quiet_plan_delivers_identical_bytes() {
        use fabric_sim::{FaultPlan, RecoveryPolicy};
        let (mut mem, g, _) = fixture(3000);
        let mut eph =
            EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g.clone()).unwrap();
        let mut plain = Vec::new();
        while let Some(b) = eph.next_batch(&mut mem) {
            plain.extend_from_slice(b.data());
        }

        let (mut mem2, g2, _) = fixture(3000);
        let mut eph2 = EphemeralColumns::configure(&mut mem2, RmConfig::prototype(), g2).unwrap();
        let mut plan = FaultPlan::quiet();
        let policy = RecoveryPolicy::default();
        let mut resilient = Vec::new();
        while let Some(b) = eph2
            .next_batch_resilient(&mut mem2, &mut plan, &policy)
            .unwrap()
        {
            resilient.extend_from_slice(b.data());
        }
        assert_eq!(plain, resilient);
        assert_eq!(plan.stats().total(), 0);
        assert_eq!(eph2.stats().retries, 0);
    }

    #[test]
    fn resilient_recovers_from_sporadic_corruption() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, g, _) = fixture(3000);
        let cfg = FaultConfig {
            rm_corrupt_prob: 0.25,
            ..FaultConfig::quiet(1234)
        };
        let mut plan = FaultPlan::new(cfg);
        let policy = RecoveryPolicy::default();
        // Small batches so the run makes many deliveries (= many draws).
        let rm_cfg = RmConfig {
            batch_bytes: 1024,
            ..RmConfig::prototype()
        };
        let mut eph = EphemeralColumns::configure(&mut mem, rm_cfg, g).unwrap();
        let mut seen = 0usize;
        while let Some(b) = eph
            .next_batch_resilient(&mut mem, &mut plan, &policy)
            .expect("p=0.25 per attempt cannot exhaust 4 attempts at this seed")
        {
            for r in 0..b.len() {
                let i = seen + r;
                assert_eq!(b.i32_at(r, 0), (i * 16) as i32, "corruption leaked");
            }
            seen += b.len();
        }
        assert_eq!(seen, 3000);
        let s = eph.stats();
        assert!(s.crc_failures > 0, "expected some injected corruption");
        assert_eq!(s.retries, s.crc_failures + s.delivery_timeouts);
        assert!(s.injected_faults >= s.crc_failures);
    }

    #[test]
    fn resilient_surfaces_timeout_past_retry_budget() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, g, _) = fixture(100);
        let cfg = FaultConfig {
            rm_timeout_prob: 1.0,
            ..FaultConfig::quiet(5)
        };
        let mut plan = FaultPlan::new(cfg);
        let policy = RecoveryPolicy::default();
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let t0 = mem.now();
        let err = eph
            .next_batch_resilient(&mut mem, &mut plan, &policy)
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::DeviceTimeout {
                device: "rm-engine".into(),
                attempts: policy.max_retries + 1,
            }
        );
        assert!(mem.now() > t0, "retries must charge simulated time");
        assert_eq!(eph.stats().delivery_timeouts as u32, policy.max_retries + 1);
    }

    #[test]
    fn resilient_surfaces_corruption_past_retry_budget() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, g, _) = fixture(100);
        let cfg = FaultConfig {
            rm_corrupt_prob: 1.0,
            ..FaultConfig::quiet(5)
        };
        let mut plan = FaultPlan::new(cfg);
        let policy = RecoveryPolicy::default();
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let err = eph
            .next_batch_resilient(&mut mem, &mut plan, &policy)
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::CorruptBatch {
                device: "rm-engine".into(),
                attempts: policy.max_retries + 1,
            }
        );
        assert_eq!(eph.stats().crc_failures as u32, policy.max_retries + 1);
    }

    #[test]
    fn batch_value_accessors_agree() {
        let (mut mem, g, _) = fixture(64);
        let mut eph = EphemeralColumns::configure(&mut mem, RmConfig::prototype(), g).unwrap();
        let b = eph.next_batch(&mut mem).unwrap();
        assert_eq!(b.value(3, 1), Value::I32(b.i32_at(3, 1)));
        assert_eq!(b.row_bytes(0).len(), 8);
        assert!(!b.is_empty());
    }
}
