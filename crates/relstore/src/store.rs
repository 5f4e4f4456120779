//! Row-oriented page layout and the two access paths: near-data geometry
//! fetch (the RS fabric) versus ship-everything-to-host.

use crate::config::RsConfig;
use crate::flash::FlashArray;
use fabric_sim::{
    Category, CircuitBreaker, Cycles, FaultPlan, FaultStats, MemoryHierarchy, RecoveryPolicy,
};
use fabric_types::{FabricError, FieldSlice, Geometry, OutputMode, Predicate, Result};
use relmem::packer;
use std::ops::Range;

/// Device name reported in breaker fail-fast errors.
const DEVICE_NAME: &str = "relstore-ssd";
/// Link name reported in shipment-corruption errors.
const LINK_NAME: &str = "host-link";

/// A table stored row-major on flash pages. Rows never straddle pages
/// (pages carry `rows_per_page` whole rows plus padding).
#[derive(Debug, Clone)]
pub struct StoredTable {
    pub first_page: u64,
    pub pages: usize,
    pub rows: usize,
    pub row_width: usize,
    pub rows_per_page: usize,
}

impl StoredTable {
    /// Page index and in-page byte offset of row `i`.
    pub fn locate(&self, i: usize) -> (u64, usize) {
        let page = self.first_page + (i / self.rows_per_page) as u64;
        let off = (i % self.rows_per_page) * self.row_width;
        (page, off)
    }

    /// The flash pages the table occupies.
    pub(crate) fn page_range(&self) -> Range<u64> {
        self.first_page..self.first_page + self.pages as u64
    }
}

/// Statistics of one fetch operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RsStats {
    pub pages_read: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    /// Bytes that crossed the host link.
    pub bytes_shipped: u64,
    /// Faults injected into this fetch (failed page reads, corrupted
    /// shipments) by the active [`fabric_sim::FaultPlan`].
    pub injected_faults: u64,
    /// Recovery attempts (page re-reads, link re-shipments).
    pub retries: u64,
}

/// The simulated computational SSD.
pub struct SsdDevice {
    cfg: RsConfig,
    flash: FlashArray,
    data: Vec<u8>,
    next_page: u64,
    link_ns_per_byte: f64,
    link_base: Cycles,
    ctrl_row: Cycles,
    cpu_ghz: f64,
    /// Active fault plan; `None` = infallible device (the historical
    /// behaviour, bit- and cycle-identical to before faults existed).
    faults: Option<FaultPlan>,
    policy: RecoveryPolicy,
    /// Consecutive-failure breaker guarding the whole device.
    health: CircuitBreaker,
}

impl SsdDevice {
    /// Build a device whose clock is the simulation's CPU clock (so device
    /// completion times compose with [`MemoryHierarchy::stall_until`]).
    pub fn new(cfg: RsConfig, mem: &MemoryHierarchy) -> Self {
        let sim = mem.config().clone();
        let sim2 = sim.clone();
        let policy = RecoveryPolicy::default();
        SsdDevice {
            flash: FlashArray::new(&cfg, move |ns| sim2.ns_to_cycles(ns)),
            data: Vec::new(),
            next_page: 0,
            link_ns_per_byte: cfg.link_ns_per_byte,
            link_base: sim.ns_to_cycles(cfg.link_base_ns),
            ctrl_row: sim.ns_to_cycles(cfg.ctrl_ns_per_row),
            cpu_ghz: sim.cpu_ghz,
            faults: None,
            health: CircuitBreaker::new(&policy),
            policy,
            cfg,
        }
    }

    pub fn config(&self) -> &RsConfig {
        &self.cfg
    }

    /// Arm the device with a seeded fault plan and recovery budgets. Every
    /// subsequent fetch runs page reads and shipments under injection.
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RecoveryPolicy) {
        self.faults = Some(plan);
        self.health = CircuitBreaker::new(&policy);
        self.policy = policy;
    }

    /// Faults injected so far by the active plan (all zero when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Health of the device's circuit breaker.
    pub fn health(&self) -> &CircuitBreaker {
        &self.health
    }

    pub(crate) fn ns_to_cycles(&self, ns: f64) -> Cycles {
        ((ns * self.cpu_ghz).round() as Cycles).max(1)
    }

    /// Cycles from the first byte on the host link to the last of `bytes`.
    pub(crate) fn link_cycles(&self, bytes: usize) -> Cycles {
        self.link_base + self.ns_to_cycles(bytes.max(1) as f64 * self.link_ns_per_byte)
    }

    /// Store `rows` fixed-width rows (concatenated in `bytes`) onto flash.
    /// Untimed: loading happens outside the measured window.
    pub fn store_rows(&mut self, bytes: &[u8], row_width: usize) -> Result<StoredTable> {
        if row_width == 0 || !bytes.len().is_multiple_of(row_width) {
            return Err(FabricError::Storage(format!(
                "byte length {} not a multiple of row width {row_width}",
                bytes.len()
            )));
        }
        if row_width > self.cfg.page_bytes {
            return Err(FabricError::Storage("row wider than a flash page".into()));
        }
        let rows = bytes.len() / row_width;
        let rows_per_page = self.cfg.page_bytes / row_width;
        let pages = rows.div_ceil(rows_per_page).max(1);
        let first_page = self.next_page;
        self.next_page += pages as u64;
        self.data
            .resize((self.next_page as usize) * self.cfg.page_bytes, 0);
        for i in 0..rows {
            let page = first_page as usize + i / rows_per_page;
            let off = (i % rows_per_page) * row_width;
            let dst = page * self.cfg.page_bytes + off;
            self.data[dst..dst + row_width]
                .copy_from_slice(&bytes[i * row_width..(i + 1) * row_width]);
        }
        Ok(StoredTable {
            first_page,
            pages,
            rows,
            row_width,
            rows_per_page,
        })
    }

    fn row_bytes(&self, t: &StoredTable, i: usize) -> &[u8] {
        let (page, off) = t.locate(i);
        let base = page as usize * self.cfg.page_bytes + off;
        &self.data[base..base + t.row_width]
    }

    /// Read `page` under the active fault plan, retrying with backoff.
    /// Each retry is physically another read: it re-occupies the page's
    /// die and channel, so contention compounds under fault storms. A
    /// latent sector error fails every attempt and surfaces as
    /// [`FabricError::FlashReadError`].
    fn read_page_checked(
        &mut self,
        mem: &mut MemoryHierarchy,
        page: u64,
        issue_at: Cycles,
        stats: &mut RsStats,
    ) -> Result<Cycles> {
        let flash = &mut self.flash;
        let Some(plan) = self.faults.as_mut() else {
            return Ok(flash.read_page(page, issue_at));
        };
        let mut attempts = 0u32;
        let mut at = issue_at;
        loop {
            attempts += 1;
            let done = flash.read_page(page, at);
            if !plan.flash_read_failed(page) {
                return Ok(done);
            }
            stats.injected_faults += 1;
            mem.trace_instant(
                "rs.fault.flash",
                Category::Fault,
                &[("page", page), ("attempt", attempts as u64)],
            );
            if attempts > self.policy.max_retries {
                return Err(FabricError::FlashReadError { page, attempts });
            }
            stats.retries += 1;
            at = done + self.policy.backoff_cycles(attempts, self.cpu_ghz);
        }
    }

    /// Ship `bytes` over the host link, arriving no earlier than
    /// `arrive_at`. Under a fault plan the host checks the shipment's
    /// CRC-32 frame (charged per shipped line) and requests re-shipment on
    /// corruption, bounded by the retry budget.
    fn finish_shipment(
        &mut self,
        mem: &mut MemoryHierarchy,
        arrive_at: Cycles,
        bytes: usize,
        stats: &mut RsStats,
    ) -> Result<()> {
        let Some(plan) = self.faults.as_mut() else {
            mem.stall_until(arrive_at);
            return Ok(());
        };
        let reship = self.link_base
            + ((bytes.max(1) as f64 * self.link_ns_per_byte * self.cpu_ghz).round() as Cycles)
                .max(1);
        let check = ((bytes / 64).max(1)) as u64 * mem.costs().value_op;
        let mut arrive = arrive_at;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            mem.stall_until(arrive);
            mem.cpu(check);
            if !plan.link_corrupted() {
                return Ok(());
            }
            stats.injected_faults += 1;
            mem.trace_instant(
                "rs.fault.link",
                Category::Fault,
                &[("attempt", attempts as u64)],
            );
            if attempts > self.policy.max_retries {
                return Err(FabricError::CorruptBatch {
                    device: LINK_NAME.into(),
                    attempts,
                });
            }
            stats.retries += 1;
            arrive = mem.now() + self.policy.backoff_cycles(attempts, self.cpu_ghz) + reship;
        }
    }

    /// The timed half of every fetch, run once its functional result is
    /// in hand: admit through the breaker, read every page of `runs`
    /// (issued as fast as the channels accept them), then ship
    /// `stats.bytes_shipped` bytes to arrive at `arrival(start,
    /// flash_done)` — all under span `span`, which closes with `args` on
    /// success and `failed` on error. The breaker records the outcome: a
    /// page that stays unreadable and a shipment that stays corrupt both
    /// count as failures.
    pub(crate) fn run_fetch(
        &mut self,
        mem: &mut MemoryHierarchy,
        runs: impl IntoIterator<Item = Range<u64>>,
        span: &'static str,
        mut stats: RsStats,
        arrival: impl FnOnce(Cycles, Cycles) -> Cycles,
        args: &[(&'static str, u64)],
    ) -> Result<RsStats> {
        if !self.health.allow() {
            return Err(FabricError::DeviceTimeout {
                device: DEVICE_NAME.into(),
                attempts: 0,
            });
        }
        mem.trace_begin(span, Category::Store);
        let start = mem.now();
        let bytes = stats.bytes_shipped as usize;
        let flash_done = runs.into_iter().flatten().try_fold(start, |done, page| {
            Ok(done.max(self.read_page_checked(mem, page, start, &mut stats)?))
        });
        let shipped = flash_done
            .and_then(|flash| self.finish_shipment(mem, arrival(start, flash), bytes, &mut stats));
        match shipped {
            Ok(()) => {
                self.health.record_success();
                mem.trace_end(span, Category::Store, args);
                Ok(stats)
            }
            Err(e) => {
                self.health.record_failure();
                mem.trace_end(span, Category::Store, &[("failed", 1)]);
                Err(e)
            }
        }
    }

    /// Near-data path: the controller reads pages with full channel
    /// parallelism, evaluates the geometry (projection + selection), and
    /// ships only the packed result over the host link. Blocks the CPU
    /// until the result has arrived (`mem.stall_until`).
    pub fn fetch_geometry(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
        fields: Vec<FieldSlice>,
        predicate: Predicate,
    ) -> Result<(Vec<u8>, RsStats)> {
        let g = Geometry::packed(0, t.row_width, t.rows, fields).with_predicate(predicate);
        g.validate()?;
        let mut out = Vec::new();
        let mut emitted = 0u64;
        for i in 0..t.rows {
            let row = self.row_bytes(t, i);
            if packer::row_qualifies(&g, row)? {
                packer::pack_row(&g, row, &mut out);
                emitted += 1;
            }
        }
        // The controller streams rows as pages land, and the host link is
        // pipelined with it: the last byte arrives after the slowest of
        // flash, controller and link drain.
        let ctrl = t.rows as u64 * self.ctrl_row;
        let link = self.link_cycles(out.len());
        let stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            rows_emitted: emitted,
            bytes_shipped: out.len() as u64,
            ..RsStats::default()
        };
        let args = [
            ("pages", stats.pages_read),
            ("rows_emitted", emitted),
            ("bytes_shipped", stats.bytes_shipped),
        ];
        let arrival = |start: Cycles, flash: Cycles| flash.max(start + ctrl).max(start + link);
        let stats = self.run_fetch(
            mem,
            [t.page_range()],
            "rs.fetch_geometry",
            stats,
            arrival,
            &args,
        )?;
        Ok((out, stats))
    }

    /// Near-data aggregation: only the aggregate scalars cross the link
    /// (§IV-B applied to storage).
    pub fn fetch_aggregate(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
        g: &Geometry,
    ) -> Result<(Vec<fabric_types::Value>, RsStats)> {
        let OutputMode::Aggregate(specs) = &g.mode else {
            return Err(FabricError::Storage(
                "fetch_aggregate needs an Aggregate geometry".into(),
            ));
        };
        g.validate()?;
        let mut bank = relmem::aggregate::AggBank::new(specs);
        let mut emitted = 0u64;
        for i in 0..t.rows {
            let row = self.row_bytes(t, i);
            if packer::row_qualifies(g, row)? {
                bank.update_raw(row)?;
                emitted += 1;
            }
        }
        let values = bank.finish()?;
        // The scalars leave once the controller has seen every row.
        let ctrl = t.rows as u64 * self.ctrl_row;
        let link_base = self.link_base;
        let stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            rows_emitted: emitted,
            bytes_shipped: 64,
            ..RsStats::default()
        };
        let args = [("pages", stats.pages_read), ("rows_emitted", emitted)];
        let arrival = |start: Cycles, flash: Cycles| flash.max(start + ctrl) + link_base;
        let stats = self.run_fetch(
            mem,
            [t.page_range()],
            "rs.fetch_aggregate",
            stats,
            arrival,
            &args,
        )?;
        Ok((values, stats))
    }

    /// Host-side baseline: ship every page over the link; the host filters
    /// and projects on the CPU afterwards (the caller does that part).
    /// Returns the raw row bytes (page padding stripped).
    pub fn fetch_raw(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
    ) -> Result<(Vec<u8>, RsStats)> {
        let mut out = Vec::with_capacity(t.rows * t.row_width);
        for i in 0..t.rows {
            out.extend_from_slice(self.row_bytes(t, i));
        }
        let shipped = (t.pages * self.cfg.page_bytes) as u64;
        let link = self.link_cycles(shipped as usize);
        let stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            rows_emitted: t.rows as u64,
            bytes_shipped: shipped,
            ..RsStats::default()
        };
        let args = [("pages", stats.pages_read), ("bytes_shipped", shipped)];
        let arrival = |start: Cycles, flash: Cycles| flash.max(start + link);
        let stats = self.run_fetch(mem, [t.page_range()], "rs.fetch_raw", stats, arrival, &args)?;
        Ok((out, stats))
    }

    /// Reset device queue state between experiments.
    pub fn reset_timing(&mut self) {
        self.flash.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, Value};

    /// 2000 rows of 4 i32 columns; c_j(i) = i * 4 + j.
    fn setup() -> (MemoryHierarchy, SsdDevice, StoredTable) {
        let mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let rows = 2000usize;
        let mut bytes = Vec::with_capacity(rows * 16);
        for i in 0..rows {
            for j in 0..4 {
                bytes.extend_from_slice(&((i * 4 + j) as i32).to_le_bytes());
            }
        }
        let t = dev.store_rows(&bytes, 16).unwrap();
        (mem, dev, t)
    }

    fn f32field(col: usize, offset: usize) -> FieldSlice {
        FieldSlice::new(col, offset, ColumnType::I32)
    }

    #[test]
    fn layout_and_locate() {
        let (_, _, t) = setup();
        assert_eq!(t.rows_per_page, 256);
        assert_eq!(t.pages, 8); // 2000 / 256 -> 8 pages
        assert_eq!(t.locate(0), (0, 0));
        assert_eq!(t.locate(256), (1, 0));
        assert_eq!(t.locate(257), (1, 16));
    }

    #[test]
    fn near_data_projection_returns_correct_bytes() {
        let (mut mem, mut dev, t) = setup();
        let (out, stats) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(2, 8)], Predicate::always_true())
            .unwrap();
        assert_eq!(out.len(), 2000 * 4);
        assert_eq!(stats.rows_emitted, 2000);
        // Row 100, column 2 = 402.
        let v = i32::from_le_bytes(out[400..404].try_into().unwrap());
        assert_eq!(v, 402);
    }

    #[test]
    fn near_data_selection_filters() {
        let (mut mem, mut dev, t) = setup();
        let pred = Predicate::always_true().and(ColumnPredicate::new(
            f32field(0, 0),
            CmpOp::Lt,
            Value::I32(40),
        ));
        let (out, stats) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], pred)
            .unwrap();
        assert_eq!(stats.rows_emitted, 10); // c0 = 4i < 40 -> i < 10
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn near_data_ships_fewer_bytes_and_finishes_faster_for_narrow_projections() {
        let (mut mem, mut dev, t) = setup();
        let t0 = mem.now();
        let (_, near) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], Predicate::always_true())
            .unwrap();
        let near_time = mem.now() - t0;
        dev.reset_timing();
        let t0 = mem.now();
        let (_, host) = dev.fetch_raw(&mut mem, &t).unwrap();
        let host_time = mem.now() - t0;
        assert!(near.bytes_shipped < host.bytes_shipped / 3);
        assert!(
            near_time <= host_time,
            "near {near_time} vs host {host_time}"
        );
    }

    #[test]
    fn aggregate_ships_only_scalars() {
        let (mut mem, mut dev, t) = setup();
        let g = Geometry::packed(0, 16, t.rows, vec![f32field(1, 4)]).with_mode(
            OutputMode::Aggregate(vec![
                AggSpec::count(),
                AggSpec::over(AggFunc::Sum, f32field(1, 4)),
            ]),
        );
        let (vals, stats) = dev.fetch_aggregate(&mut mem, &t, &g).unwrap();
        assert_eq!(vals[0], Value::I64(2000));
        let expect: i64 = (0..2000i64).map(|i| i * 4 + 1).sum();
        assert_eq!(vals[1], Value::I64(expect));
        assert_eq!(stats.bytes_shipped, 64);
    }

    #[test]
    fn fetch_raw_roundtrips_rows() {
        let (mut mem, mut dev, t) = setup();
        let (out, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(out.len(), 2000 * 16);
        let v = i32::from_le_bytes(out[16 * 1234 + 12..16 * 1234 + 16].try_into().unwrap());
        assert_eq!(v, 1234 * 4 + 3);
    }

    #[test]
    fn store_validates_input() {
        let (mem, _, _) = setup();
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        assert!(dev.store_rows(&[1, 2, 3], 2).is_err());
        assert!(dev.store_rows(&[0; 8192], 8192).is_err()); // row > page
    }

    #[test]
    fn transient_flash_faults_recover_with_identical_bytes() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let (clean, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        dev.reset_timing();

        let cfg = FaultConfig {
            flash_transient_prob: 0.2,
            link_corrupt_prob: 0.2,
            ..FaultConfig::quiet(77)
        };
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        let t0 = mem.now();
        let (faulty, stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(clean, faulty, "recovered fetch must be bit-identical");
        assert!(stats.injected_faults > 0, "p=0.2 over 8 pages should hit");
        assert_eq!(stats.retries, stats.injected_faults);
        assert!(mem.now() > t0);
        assert_eq!(dev.fault_stats().total(), stats.injected_faults);
    }

    #[test]
    fn latent_sector_error_surfaces_cleanly() {
        use fabric_sim::{BreakerState, FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        // Latent probability 1.0: every page is bad, retries cannot help.
        let cfg = FaultConfig::quiet(3).with_latent(1.0);
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert_eq!(
            err,
            FabricError::FlashReadError {
                page: t.first_page,
                attempts: policy.max_retries + 1,
            }
        );
        // Repeated failures trip the breaker; further fetches fail fast.
        let _ = dev.fetch_raw(&mut mem, &t).unwrap_err();
        let _ = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert!(matches!(
            dev.health().state(),
            BreakerState::Open { .. } | BreakerState::HalfOpen
        ));
        let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert_eq!(
            err,
            FabricError::DeviceTimeout {
                device: "relstore-ssd".into(),
                attempts: 0,
            }
        );
        assert!(dev.health().rejections > 0);
    }

    #[test]
    fn unshippable_link_surfaces_corrupt_batch() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let cfg = FaultConfig {
            link_corrupt_prob: 1.0,
            ..FaultConfig::quiet(3)
        };
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        let err = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], Predicate::always_true())
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::CorruptBatch {
                device: "host-link".into(),
                attempts: policy.max_retries + 1,
            }
        );
    }

    /// A shipment that stays corrupt past its retries is a device failure
    /// like an unreadable page: `breaker_threshold` of them open the
    /// breaker, and the next fetch fails fast without touching the clock.
    #[test]
    fn shipment_failures_trip_the_breaker() {
        use fabric_sim::{BreakerState, FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let cfg = FaultConfig {
            link_corrupt_prob: 1.0,
            ..FaultConfig::quiet(3)
        };
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        for _ in 0..policy.breaker_threshold {
            assert_eq!(dev.health().state(), BreakerState::Closed);
            let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
            assert!(matches!(err, FabricError::CorruptBatch { .. }), "{err}");
        }
        assert_eq!(dev.health().trips, 1);
        let now = mem.now();
        let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert_eq!(
            err,
            FabricError::DeviceTimeout {
                device: "relstore-ssd".into(),
                attempts: 0,
            }
        );
        assert_eq!(mem.now(), now, "a rejected fetch charges nothing");
    }

    #[test]
    fn quiet_plan_changes_nothing_but_the_crc_check() {
        use fabric_sim::{FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let (clean, clean_stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        dev.reset_timing();
        dev.inject_faults(FaultPlan::quiet(), RecoveryPolicy::default());
        let (quiet, quiet_stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(clean, quiet);
        assert_eq!(clean_stats.bytes_shipped, quiet_stats.bytes_shipped);
        assert_eq!(quiet_stats.injected_faults, 0);
        assert_eq!(quiet_stats.retries, 0);
    }

    #[test]
    fn multiple_tables_coexist() {
        let (mut mem, mut dev, t1) = setup();
        let bytes: Vec<u8> = (0..64u8).collect();
        let t2 = dev.store_rows(&bytes, 8).unwrap();
        assert!(t2.first_page >= t1.first_page + t1.pages as u64);
        let (out, _) = dev.fetch_raw(&mut mem, &t2).unwrap();
        assert_eq!(out, bytes);
    }

    /// A predicate that compares an `I32` field with a string passes
    /// `Geometry::validate` but cannot be evaluated. Both near-data fetches
    /// return the type error before they are admitted: no span is left
    /// open, no flash or link time is charged, and the breaker is not
    /// consulted — whether it is closed or open.
    #[test]
    fn a_predicate_type_error_returns_before_the_device_is_touched() {
        use fabric_sim::{validate_chrome_trace, BreakerState, FaultConfig, FaultPlan};
        let (mut mem, mut dev, t) = setup();
        mem.trace_to(1 << 12);
        let bad = Predicate::always_true().and(ColumnPredicate::new(
            f32field(0, 0),
            CmpOp::Lt,
            Value::Str("x".into()),
        ));
        let agg = Geometry::packed(0, 16, t.rows, vec![f32field(1, 4)])
            .with_predicate(bad.clone())
            .with_mode(OutputMode::Aggregate(vec![AggSpec::count()]));
        let check = |mem: &mut MemoryHierarchy, dev: &mut SsdDevice| {
            let (now, state) = (mem.now(), dev.health().state());
            let err = dev
                .fetch_geometry(mem, &t, vec![f32field(1, 4)], bad.clone())
                .unwrap_err();
            assert!(matches!(err, FabricError::TypeMismatch { .. }), "{err}");
            let err = dev.fetch_aggregate(mem, &t, &agg).unwrap_err();
            assert!(matches!(err, FabricError::TypeMismatch { .. }), "{err}");
            assert_eq!(mem.now(), now, "no device time is charged");
            assert_eq!(dev.health().state(), state, "the breaker is not consulted");
        };
        check(&mut mem, &mut dev);
        // Trip the breaker with latent sector errors, then try again.
        dev.inject_faults(
            FaultPlan::new(FaultConfig::quiet(3).with_latent(1.0)),
            RecoveryPolicy::default(),
        );
        while dev.health().state() == BreakerState::Closed {
            let _ = dev.fetch_raw(&mut mem, &t).unwrap_err();
        }
        check(&mut mem, &mut dev);
        let trace = mem.export_trace().unwrap();
        let summary = validate_chrome_trace(&trace).unwrap();
        assert!(summary.begins > 0);
        assert_eq!(summary.begins, summary.ends, "every span closes");
    }
}
