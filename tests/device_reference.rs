//! The RM device's batch-at-a-time host loop (DESIGN.md §26) against the
//! row-at-a-time loop it replaced, kept below verbatim as the reference.
//!
//! `relmem::device::DeviceRun` works out at configure time what depends
//! only on the geometry — the rows that fit in a batch, where each field
//! goes, whether rows need qualifying at all — and keeps its line list
//! across batches. None of that may change what the simulated device does.
//! On generated geometries (packed columns and whole filtered rows, with
//! and without predicates and MVCC visibility, rows that straddle cache
//! lines, `batch_bytes` from one row up to 64 KiB, device-side aggregates)
//! both run side by side, under quiet and armed fault plans, and must
//! agree after every batch on every `ProducedBatch` field, on `RmStats`,
//! on the device DRAM port's counters and on which batches the fault plan
//! stalled.
//!
//! Seeded by `FABRIC_CHAOS_SEED` through `for_each_case`:
//!
//! ```text
//! FABRIC_CHAOS_SEED=12345 cargo test --test device_reference
//! ```

use fabric_sim::{Cycles, DramModel, FaultConfig, FaultPlan, MemArena, SimConfig};
use fabric_types::rng::for_each_case;
use fabric_types::{
    crc32, AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, DetRng, FabricError, FieldSlice,
    Geometry, OutputMode, Result, TsFilter, Value,
};
use relmem::aggregate::AggBank;
use relmem::device::{DeviceRun, ProducedBatch};
use relmem::{packer, RmConfig, RmStats};

// ------------------------------------------- the old per-row device loop

/// `DeviceRun` as it was before the host work moved to per-batch: the
/// same fields, `produce` and `run_aggregate` verbatim.
struct OldDeviceRun {
    dram: DramModel,
    line_size: u64,
    engine_cycles: Cycles,
    row_beat_cycles: Cycles,
    device_free: Cycles,
    cursor: usize,
    spans: Vec<(usize, usize)>,
    last_line: u64,
    cpu_ghz: f64,
    stats: RmStats,
}

impl OldDeviceRun {
    fn new(sim: &SimConfig, cfg: &RmConfig, geometry: &Geometry) -> Self {
        let engine_cycles = sim.ns_to_cycles(cfg.engine_ns_per_line);
        let row_beat_cycles = if cfg.engine_ns_per_row > 0.0 {
            sim.ns_to_cycles(cfg.engine_ns_per_row)
        } else {
            0
        };
        let spans = packer::touched_spans(geometry, sim.line_size - 1);
        OldDeviceRun {
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
        }
    }

    fn produce(
        &mut self,
        arena: &MemArena,
        g: &Geometry,
        start_at: Cycles,
        max_bytes: usize,
        faults: Option<&mut FaultPlan>,
    ) -> Option<ProducedBatch> {
        if self.cursor >= g.rows {
            return None;
        }
        let start = start_at.max(self.device_free);
        let out_width = g.output_row_width();
        assert!(max_bytes >= out_width);

        let mut data = Vec::with_capacity(max_bytes.min(1 << 20));
        let mut rows_emitted = 0usize;
        let mut issue_t = start;
        let mut gather_done = start;
        let source_lines_before = self.stats.source_lines;
        let mut line_buf: Vec<u64> = Vec::with_capacity(8);

        while self.cursor < g.rows && data.len() + out_width <= max_bytes {
            let row_addr = g.base + (self.cursor as u64) * g.row_width as u64;
            line_buf.clear();
            packer::row_source_lines(
                row_addr,
                &self.spans,
                self.line_size,
                &mut self.last_line,
                &mut line_buf,
            );
            for &la in &line_buf {
                let done = self.dram.access(la, issue_t);
                gather_done = gather_done.max(done);
                self.stats.source_lines += 1;
            }
            issue_t += self.row_beat_cycles;
            self.stats.rows_scanned += 1;

            let row = arena.slice(row_addr, g.row_width);
            if packer::row_qualifies(g, row).unwrap_or(false) {
                packer::pack_row(g, row, &mut data);
                rows_emitted += 1;
            }
            self.cursor += 1;
        }

        if data.is_empty() && self.cursor >= g.rows && rows_emitted == 0 && self.stats.batches > 0 {
            self.device_free = gather_done.max(self.device_free);
            return None;
        }

        let out_lines = (data.len() as u64).div_ceil(self.line_size);
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
        Some(ProducedBatch {
            data,
            rows: rows_emitted,
            ready_at: ready,
            crc,
            started_at: start,
            gather_done,
            source_lines: self.stats.source_lines - source_lines_before,
        })
    }

    fn run_aggregate(
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
        let start = start_at.max(self.device_free);
        let mut bank = AggBank::new(specs);
        let mut issue_t = start;
        let mut gather_done = start;
        let mut line_buf: Vec<u64> = Vec::with_capacity(8);

        while self.cursor < g.rows {
            let row_addr = g.base + (self.cursor as u64) * g.row_width as u64;
            line_buf.clear();
            packer::row_source_lines(
                row_addr,
                &self.spans,
                self.line_size,
                &mut self.last_line,
                &mut line_buf,
            );
            for &la in &line_buf {
                let done = self.dram.access(la, issue_t);
                gather_done = gather_done.max(done);
                self.stats.source_lines += 1;
            }
            issue_t += self.row_beat_cycles;
            self.stats.rows_scanned += 1;

            let row = arena.slice(row_addr, g.row_width);
            if packer::row_qualifies(g, row)? {
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

// ------------------------------------------------------ generated cases

/// Column types a generated row is built from.
const TYPES: [ColumnType; 9] = [
    ColumnType::I8,
    ColumnType::I16,
    ColumnType::I32,
    ColumnType::I64,
    ColumnType::F32,
    ColumnType::F64,
    ColumnType::Date,
    ColumnType::FixedStr(3),
    ColumnType::FixedStr(13),
];

/// A generated base table in an arena and a geometry over it.
struct Case {
    arena: MemArena,
    geometry: Geometry,
    sim: SimConfig,
    cfg: RmConfig,
    batch_bytes: usize,
    faults: Option<FaultConfig>,
}

fn pick<T: Copy>(rng: &mut DetRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn numeric(ty: ColumnType) -> bool {
    !matches!(ty, ColumnType::FixedStr(_))
}

fn generate(rng: &mut DetRng) -> Case {
    let visibility = rng.gen_range(0..10u32) < 3;
    // Rows from 8 B to 200 B: most do not divide the 64-byte line.
    let row_width = rng.gen_range(if visibility { 16 } else { 8 }..=200usize);
    // The columns of a row, left to right with random gaps; under
    // visibility the first two are the begin / end timestamps.
    let mut columns: Vec<FieldSlice> = Vec::new();
    let mut offset = 0;
    if visibility {
        columns.push(FieldSlice::new(0, 0, ColumnType::I64));
        columns.push(FieldSlice::new(1, 8, ColumnType::I64));
        offset = 16;
    }
    loop {
        let ty = pick(rng, &TYPES);
        if offset + ty.width() > row_width {
            break;
        }
        columns.push(FieldSlice::new(columns.len(), offset, ty));
        offset += ty.width() + rng.gen_range(0..4usize);
    }
    if columns.len() == usize::from(visibility) * 2 {
        columns.push(FieldSlice::new(
            columns.len(),
            row_width - 1,
            ColumnType::I8,
        ));
    }
    let data_cols = if visibility {
        &columns[2..]
    } else {
        &columns[..]
    };

    // The table, at a base anywhere within a line, so rows straddle lines.
    let rows = rng.gen_range(1..=700usize);
    let mut arena = MemArena::new();
    let region = arena.alloc(rows * row_width + 64, 64).unwrap();
    let base = region + rng.gen_range(0..64u64);
    let mut bytes: Vec<u8> = (0..rows * row_width)
        .map(|_| rng.next_u64() as u8)
        .collect();
    // Few distinct values per column, so predicates select anything from
    // nothing to everything; timestamps small, so snapshots split rows.
    for r in 0..rows {
        let row = &mut bytes[r * row_width..(r + 1) * row_width];
        for c in data_cols {
            if rng.gen_range(0..2u32) == 0 {
                row[c.range()].fill(rng.gen_range(0..3u8));
            }
        }
        if visibility {
            row[..8].copy_from_slice(&rng.gen_range(0..20u64).to_le_bytes());
            let end = if rng.gen_range(0..2u32) == 0 {
                0
            } else {
                rng.gen_range(0..20u64)
            };
            row[8..16].copy_from_slice(&end.to_le_bytes());
        }
    }
    arena.write(base, &bytes);

    // Requested fields: a random subset, in row order (adjacent fields
    // then merge into one copy) or shuffled.
    let mut fields: Vec<FieldSlice> = data_cols
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0..3u32) > 0)
        .collect();
    if fields.is_empty() {
        fields.push(data_cols[rng.gen_range(0..data_cols.len())]);
    }
    if rng.gen_range(0..2u32) == 0 {
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut g = Geometry::packed(base, row_width, rows, fields);

    // Up to two conjuncts, each against a value some row holds; one in
    // ten compares a column with a literal of another type, which the
    // device refuses before doing anything.
    for _ in 0..rng.gen_range(0..3u32) {
        let c = data_cols[rng.gen_range(0..data_cols.len())];
        let r = rng.gen_range(0..rows);
        let literal = if rng.gen_range(0..10u32) == 0 {
            if numeric(c.ty) {
                Value::Str("x".into())
            } else {
                Value::I32(1)
            }
        } else {
            Value::decode(c.ty, &bytes[r * row_width..][c.range()])
        };
        let op = pick(
            rng,
            &[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ],
        );
        g.predicate = g.predicate.and(ColumnPredicate::new(c, op, literal));
    }
    if visibility {
        g = g.with_visibility(TsFilter {
            begin: columns[0],
            end: columns[1],
            snapshot_ts: rng.gen_range(0..20u64),
        });
    }
    match rng.gen_range(0..4u32) {
        0 => g = g.with_mode(OutputMode::FilteredRows),
        1 => {
            let numeric_cols: Vec<FieldSlice> = data_cols
                .iter()
                .copied()
                .filter(|c| numeric(c.ty))
                .collect();
            let mut specs = vec![AggSpec::count()];
            for _ in 0..rng.gen_range(0..4u32) {
                if let Some(&c) = numeric_cols.get(rng.gen_range(0..numeric_cols.len().max(1))) {
                    let func = pick(
                        rng,
                        &[AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg],
                    );
                    specs.push(AggSpec::over(func, c));
                }
            }
            g = g.with_mode(OutputMode::Aggregate(specs));
        }
        _ => {}
    }
    // Valid but for a mismatched literal, which `validate` rejects too.
    match g.validate() {
        Err(FabricError::TypeMismatch { .. }) if g.predicate.check().is_err() => {}
        checked => checked.unwrap(),
    }

    // Batches from one row up to 64 KiB.
    let out_width = g.output_row_width().max(1);
    let batch_bytes = match rng.gen_range(0..4u32) {
        0 => out_width,
        1 => out_width * rng.gen_range(2..=8usize) + rng.gen_range(0..out_width),
        2 => 64 * 1024,
        _ => rng.gen_range(out_width..=64 * 1024),
    };
    let sim = SimConfig {
        dram_banks: 1 << rng.gen_range(0..5u32),
        ..SimConfig::zynq_a53()
    };
    let cfg = if rng.gen_range(0..2u32) == 0 {
        RmConfig::prototype()
    } else {
        RmConfig {
            engine_ns_per_row: 0.0,
            ..RmConfig::rmc()
        }
    };
    let faults = (rng.gen_range(0..2u32) == 0).then(|| FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 1_000.0,
        ..FaultConfig::quiet(rng.next_u64())
    });
    Case {
        arena,
        geometry: g,
        sim,
        cfg,
        batch_bytes,
        faults,
    }
}

fn plan(faults: Option<FaultConfig>) -> FaultPlan {
    faults.map_or_else(FaultPlan::quiet, FaultPlan::new)
}

fn same_batch(new: &Option<ProducedBatch>, old: &Option<ProducedBatch>, at: usize) {
    match (new, old) {
        (None, None) => {}
        (Some(n), Some(o)) => {
            assert_eq!(n.data, o.data, "batch {at}: data");
            assert_eq!(n.rows, o.rows, "batch {at}: rows");
            assert_eq!(n.crc, o.crc, "batch {at}: crc");
            assert_eq!(n.started_at, o.started_at, "batch {at}: started_at");
            assert_eq!(n.gather_done, o.gather_done, "batch {at}: gather_done");
            assert_eq!(n.ready_at, o.ready_at, "batch {at}: ready_at");
            assert_eq!(n.source_lines, o.source_lines, "batch {at}: source_lines");
        }
        _ => panic!(
            "batch {at}: new produced {}, old {}",
            new.is_some(),
            old.is_some()
        ),
    }
}

/// What the generated cases exercised, so that a generator change that
/// stops reaching a path fails loudly.
#[derive(Default)]
struct Coverage {
    aggregates: u32,
    /// Geometries refused for an incomparable predicate.
    refused: u32,
    filtered_out_rows: u64,
    one_row_batches: u32,
    stalled_batches: u64,
}

#[test]
fn batch_at_a_time_device_equals_the_per_row_loop() {
    let mut seen = Coverage::default();
    for_each_case("device reference", |rng| {
        let case = generate(rng);
        let g = &case.geometry;
        let mut new = DeviceRun::new(&case.sim, &case.cfg, g);
        let mut old = OldDeviceRun::new(&case.sim, &case.cfg, g);
        let (mut new_plan, mut old_plan) = (plan(case.faults), plan(case.faults));
        let armed = case.faults.is_some();
        let mut start_at: Cycles = rng.gen_range(0..1_000u64);

        // A literal of the wrong type: the device refuses it before doing
        // anything (the loop below swallowed it as "no row", or failed an
        // aggregate after its gathers).
        if g.predicate.check().is_err() {
            let refused = match g.mode {
                OutputMode::Aggregate(_) => new.run_aggregate(&case.arena, g, start_at).err(),
                _ => new
                    .produce(&case.arena, g, start_at, case.batch_bytes, None)
                    .err(),
            };
            assert!(
                matches!(refused, Some(FabricError::TypeMismatch { .. })),
                "{refused:?}"
            );
            assert_eq!(new.stats(), RmStats::default(), "RmStats of a refused run");
            assert_eq!(new.dram_counters(), (0, 0), "device DRAM of a refused run");
            assert_eq!(new.cursor(), 0, "cursor of a refused run");
            seen.refused += 1;
            return;
        }

        if let OutputMode::Aggregate(_) = g.mode {
            let n = new.run_aggregate(&case.arena, g, start_at);
            let o = old.run_aggregate(&case.arena, g, start_at);
            match (&n, &o) {
                // Both NaN-free sums and NaN results compare as bits.
                (Ok((nv, nt)), Ok((ov, ot))) => {
                    assert_eq!(nt, ot, "aggregate ready time");
                    assert_eq!(format!("{nv:?}"), format!("{ov:?}"), "aggregate values");
                }
                _ => assert_eq!(n, o, "aggregate outcome"),
            }
            assert_eq!(new.stats(), old.stats, "RmStats");
            assert_eq!(new.dram_counters(), old.dram.counters(), "device DRAM");
            assert_eq!(new.cursor(), old.cursor, "cursor");
            seen.aggregates += 1;
            return;
        }

        for at in 0.. {
            let n = new
                .produce(
                    &case.arena,
                    g,
                    start_at,
                    case.batch_bytes,
                    armed.then_some(&mut new_plan),
                )
                .expect("a comparable predicate");
            let o = old.produce(
                &case.arena,
                g,
                start_at,
                case.batch_bytes,
                armed.then_some(&mut old_plan),
            );
            same_batch(&n, &o, at);
            assert_eq!(new.stats(), old.stats, "batch {at}: RmStats");
            assert_eq!(
                new.dram_counters(),
                old.dram.counters(),
                "batch {at}: device DRAM"
            );
            assert_eq!(
                new_plan.stats(),
                old_plan.stats(),
                "batch {at}: fault sites"
            );
            let Some(b) = n else { break };
            seen.one_row_batches += u32::from(case.batch_bytes == g.output_row_width());
            // The consumer frees a slot anywhere from before the batch is
            // ready to well after it.
            start_at = b.ready_at.saturating_sub(50) + rng.gen_range(0..200u64);
        }
        assert_eq!(new.cursor(), g.rows);
        let s = new.stats();
        seen.filtered_out_rows += s.rows_scanned - s.rows_emitted;
        seen.stalled_batches += s.injected_faults;
    });
    assert!(seen.aggregates > 0, "no aggregates");
    assert!(seen.refused > 0, "no incomparable predicate");
    assert!(seen.filtered_out_rows > 0, "no row was filtered out");
    assert!(seen.one_row_batches > 0, "no one-row batches");
    assert!(seen.stalled_batches > 0, "no fault fired");
}
