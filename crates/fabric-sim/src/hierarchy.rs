//! The CPU-side memory port: caches + prefetcher + DRAM + time.
//!
//! Engines interact with simulated memory exclusively through
//! [`MemoryHierarchy`]:
//!
//! * [`MemoryHierarchy::read`] / [`MemoryHierarchy::write`] move real bytes
//!   *and* charge simulated cycles;
//! * [`MemoryHierarchy::cpu`] charges pure compute;
//! * the `*_untimed` variants load or inspect data without advancing time
//!   (used when populating tables, which the paper's experiments also do
//!   outside the measured window);
//! * [`MemoryHierarchy::stall_until`] lets device models (RM, the SSD
//!   controller) impose producer-side readiness on the consuming CPU.

use crate::arena::MemArena;
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::prefetch::StreamPrefetcher;
use crate::stats::MemStats;
use crate::Cycles;
use fabric_obs::{
    CalibLedger, Category, CoreAttribution, FlightRecorder, MetricsRegistry, Phase, Postmortem,
    QueryLog, TraceBuffer, TraceEvent,
};
use fabric_types::{Addr, Result};

/// Per-operation CPU cost model (cycles), shared by all engines so that
/// compute is charged consistently.
///
/// The values approximate an in-order Cortex-A53: a cycle for an
/// arithmetic op on a loaded value, a few for a floating-point one, and so
/// on. They are deliberately simple; the reproduction's claims rest on
/// *ratios* between data-movement costs, with compute providing realistic
/// dilution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// One arithmetic/comparison op on a register value.
    pub value_op: Cycles,
    /// Amortized per-element cost of a tight vectorized kernel on an
    /// in-order core (load + loop bookkeeping).
    pub vector_elem: Cycles,
    /// Per-value decode cost in a tuple-at-a-time engine (load + widen /
    /// convert into the tuple representation).
    pub decode: Cycles,
    /// Per-value tuple-reconstruction cost in a column store (stitching a
    /// value into an output tuple).
    pub reconstruct: Cycles,
    /// Mispredicted branch penalty (charged by engines on selective
    /// branches).
    pub branch_miss: Cycles,
    /// Per-batch fixed overhead of starting a vectorized primitive.
    pub vector_setup: Cycles,
    /// One double-precision arithmetic op (the A53 FPU has ~4-cycle FMA
    /// latency; aggregation kernels are chains of these).
    pub f64_op: Cycles,
    /// Per-row cost of hashing a group key and probing a hash table
    /// (excluding the memory traffic of very large tables, which the
    /// engines charge separately when applicable).
    pub hash_op: Cycles,
}

impl Default for OpCosts {
    fn default() -> Self {
        OpCosts {
            value_op: 1,
            vector_elem: 2,
            decode: 2,
            reconstruct: 1,
            branch_miss: 8,
            vector_setup: 40,
            f64_op: 4,
            hash_op: 20,
        }
    }
}

/// One simulated core's private memory-system state: its L1, its stream
/// prefetcher, its logical clock, and the statistics it accumulated.
///
/// Cores share everything else — the L2, the DRAM controller, and the
/// arena — through [`MemoryHierarchy`]. There are no OS threads: cores are
/// *logical* contexts multiplexed by the (single-threaded) caller, each
/// advancing its own clock, reconciled at explicit barrier points
/// ([`MemoryHierarchy::join_clocks`]).
struct CoreCtx {
    l1: SetAssocCache,
    prefetcher: StreamPrefetcher,
    /// Private DRAM timing view (multi-core only): per-bank cursors and
    /// open-row state for *this core's* access stream. Latency is a
    /// per-stream property; shared-controller contention is modelled
    /// separately by the aggregate-bandwidth ledger, because a single set
    /// of shared cursors cannot be replayed out of order (the host
    /// simulates one core's whole morsel before the next core's, so a
    /// shared cursor would serialize parallel work behind the first
    /// core's entire timeline).
    dram: DramModel,
    now: Cycles,
    stats: MemStats,
}

impl CoreCtx {
    fn new(cfg: &SimConfig, now: Cycles) -> Self {
        CoreCtx {
            l1: SetAssocCache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.line_size),
            prefetcher: StreamPrefetcher::new(cfg),
            dram: DramModel::new(cfg),
            now,
            stats: MemStats::default(),
        }
    }
}

/// The simulated CPU-side memory system.
///
/// Models N cores (default 1), each owning a private L1, stream
/// prefetcher, and DRAM timing view, sharing one L2, one DRAM controller,
/// and the arena. With more than one core the shared L2 port and DRAM
/// controller are finite resources: aggregate-bandwidth ledgers admit at
/// most one fill per port slot (and one DRAM line per
/// `t_row_hit / banks`) across all cores since the last fork point, so
/// parallel speedup saturates exactly when the shared fabric does. A
/// single-core hierarchy is cycle-identical to the original model.
///
/// Also the host of the workspace's observability spine: every engine
/// already threads a `&mut MemoryHierarchy`, so the trace buffer and the
/// metrics registry live here and are reachable from every instrumented
/// layer without new plumbing. Recording *never* advances `now` — a
/// traced run is cycle-identical to an untraced one.
pub struct MemoryHierarchy {
    cfg: SimConfig,
    costs: OpCosts,
    arena: MemArena,
    cores: Vec<CoreCtx>,
    /// Index of the core all timed operations currently charge to.
    active: usize,
    l2: SetAssocCache,
    dram: DramModel,
    demand_overhead: Cycles,
    /// Start of the current parallel region (the last fork point): the
    /// bandwidth ledgers below meter shared throughput from this instant.
    shared_base: Cycles,
    /// Aggregate-bandwidth ledger for the shared L2 port (multi-core
    /// only): fills admitted since `shared_base`. The `k`-th fill cannot
    /// start before `shared_base + k * l2_port_cycles` — an
    /// order-insensitive cap on aggregate port throughput. A cursor
    /// ("port busy until cycle T") cannot be used here because cores are
    /// simulated one morsel at a time, not interleaved in virtual time;
    /// a counter ledger meters the same physical capacity regardless of
    /// the order morsels are replayed in.
    l2_port_fills: u64,
    /// Same ledger for the shared DRAM controller: lines fetched from
    /// DRAM (demand misses and consumed prefetches) since `shared_base`.
    /// The `k`-th line cannot arrive before
    /// `shared_base + k * t_row_hit / banks` — the controller's peak
    /// streaming throughput with all banks pipelined.
    dram_line_fills: u64,
    /// The trace, when one is installed ([`Self::trace_to`]): every
    /// event the `trace_*` entry points record, for Chrome JSON and
    /// folded-stack export.
    trace: Option<TraceBuffer>,
    metrics: MetricsRegistry,
    /// Always-on bounded event ring for postmortems (DESIGN.md §12):
    /// fed by every trace entry point whether or not a trace is
    /// installed, so a failure can dump its recent history even on
    /// untraced runs.
    flight: FlightRecorder,
    /// Engine-wide ring of per-query envelopes (DESIGN.md §17). Host-side
    /// bookkeeping: pushing a record never advances `now`.
    querylog: QueryLog,
    /// Per-(table, geometry, path) observed-cost history feeding the
    /// adaptive re-planner (DESIGN.md §17). Host-side, like `querylog`.
    calib: CalibLedger,
}

impl MemoryHierarchy {
    /// Build a single-core hierarchy with the default 4 GiB arena.
    pub fn new(cfg: SimConfig) -> Self {
        let l2 = SetAssocCache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_size);
        let dram = DramModel::new(&cfg);
        let demand_overhead = cfg.ns_to_cycles(cfg.dram_demand_overhead_ns);
        let core0 = CoreCtx::new(&cfg, 0);
        MemoryHierarchy {
            cfg,
            costs: OpCosts::default(),
            arena: MemArena::new(),
            cores: vec![core0],
            active: 0,
            l2,
            dram,
            demand_overhead,
            shared_base: 0,
            l2_port_fills: 0,
            dram_line_fills: 0,
            trace: None,
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
            querylog: QueryLog::default(),
            calib: CalibLedger::default(),
        }
    }

    /// The platform configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The shared per-operation cost model.
    #[inline]
    pub fn costs(&self) -> OpCosts {
        self.costs
    }

    /// Current simulated time in cycles (the active core's clock).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.cores[self.active].now
    }

    /// Nanoseconds between `t0` and now.
    pub fn ns_since(&self, t0: Cycles) -> f64 {
        self.cfg.cycles_to_ns(self.now() - t0)
    }

    /// Statistics so far, summed over all cores.
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for c in &self.cores {
            total.accumulate(&c.stats);
        }
        total
    }

    // ----------------------------------------------------------- multi-core

    /// Reconfigure the number of simulated cores. Core 0 keeps its cache
    /// and prefetcher state; new cores start cold with their clock at the
    /// active core's current time. When shrinking, the dropped cores'
    /// statistics fold into core 0 so [`Self::stats`] stays monotonic.
    pub fn set_core_count(&mut self, n: usize) {
        let n = n.max(1);
        let now = self.now();
        while self.cores.len() < n {
            self.cores.push(CoreCtx::new(&self.cfg, now));
        }
        while self.cores.len() > n {
            let dropped = self.cores.pop().expect("len > n >= 1");
            let folded = dropped.stats;
            self.cores[0].stats.accumulate(&folded);
        }
        if self.active >= n {
            self.active = 0;
        }
        self.shared_base = now;
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Index of the core timed operations currently charge to.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Switch the core that subsequent timed operations charge to.
    ///
    /// # Panics
    /// Panics if `i >= num_cores()` — scheduling onto a core that does not
    /// exist is a logic error in the caller.
    pub fn set_active_core(&mut self, i: usize) {
        assert!(i < self.cores.len(), "core {i} out of range");
        self.active = i;
    }

    /// Core `i`'s logical clock.
    pub fn core_now(&self, i: usize) -> Cycles {
        self.cores[i].now
    }

    /// Core `i`'s private statistics.
    pub fn core_stats(&self, i: usize) -> MemStats {
        self.cores[i].stats
    }

    /// Fork point: align every core's clock to the global frontier (the
    /// maximum across cores) so a parallel region starts from one instant.
    /// Returns the fork timestamp.
    pub fn fork_clocks(&mut self) -> Cycles {
        let t = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        for c in &mut self.cores {
            c.now = t;
        }
        self.shared_base = t;
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
        t
    }

    /// Barrier point: reconcile the per-core clocks to the global frontier
    /// (the maximum across cores — laggards were idle waiting). Returns
    /// the barrier timestamp; afterwards every core's clock equals it.
    pub fn join_clocks(&mut self) -> Cycles {
        self.fork_clocks()
    }

    // ------------------------------------------------------- observability

    /// Start recording trace events from every instrumented layer into a
    /// fresh ring of `capacity` events (replacing any trace installed
    /// before). Recording never advances simulated time.
    pub fn trace_to(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::with_capacity(capacity));
    }

    /// Stop tracing and hand back the recorded events, if a trace was
    /// installed.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// Whether a trace is installed (cheap to poll).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The installed trace as Chrome trace-event JSON.
    pub fn export_trace(&self) -> Option<String> {
        self.trace.as_ref().map(TraceBuffer::to_chrome_json)
    }

    /// The installed trace folded into cycles per open-span stack.
    pub fn export_folded(&self) -> Option<String> {
        self.trace.as_ref().map(TraceBuffer::to_folded)
    }

    /// The workspace metrics registry hosted by this hierarchy.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access for instrumented layers recording counters,
    /// gauges, and histogram samples.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The engine-wide query log hosted by this hierarchy.
    pub fn querylog(&self) -> &QueryLog {
        &self.querylog
    }

    /// Mutable access for the executor pushing query records.
    pub fn querylog_mut(&mut self) -> &mut QueryLog {
        &mut self.querylog
    }

    /// The per-(table, geometry, path) cost-calibration ledger.
    pub fn calib(&self) -> &CalibLedger {
        &self.calib
    }

    /// Mutable access for the executor folding clean-cold observations.
    pub fn calib_mut(&mut self) -> &mut CalibLedger {
        &mut self.calib
    }

    /// Record `ev` into the trace, when one is installed, and the flight
    /// ring.
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(ev);
        }
        self.flight.record(ev);
    }

    /// Open a span at the current cycle.
    #[inline]
    pub fn trace_begin(&mut self, name: &'static str, cat: Category) {
        self.trace_begin_at(self.now(), name, cat);
    }

    /// Close a span at the current cycle, attaching `args`.
    #[inline]
    pub fn trace_end(&mut self, name: &'static str, cat: Category, args: &[(&'static str, u64)]) {
        self.trace_end_at(self.now(), name, cat, args);
    }

    /// Open a span at an explicit cycle timestamp (device models report
    /// phases that completed in the simulated past, e.g. a gather that ran
    /// while the CPU was elsewhere).
    #[inline]
    pub fn trace_begin_at(&mut self, ts: Cycles, name: &'static str, cat: Category) {
        self.record(TraceEvent::new(Phase::Begin, ts, name, cat, &[]));
    }

    /// Close a span at an explicit cycle timestamp.
    #[inline]
    pub fn trace_end_at(
        &mut self,
        ts: Cycles,
        name: &'static str,
        cat: Category,
        args: &[(&'static str, u64)],
    ) {
        self.record(TraceEvent::new(Phase::End, ts, name, cat, args));
    }

    /// Record an instant event at the current cycle.
    #[inline]
    pub fn trace_instant(
        &mut self,
        name: &'static str,
        cat: Category,
        args: &[(&'static str, u64)],
    ) {
        self.record(TraceEvent::new(Phase::Instant, self.now(), name, cat, args));
    }

    /// Run `f` inside a span, attributing the memory-hierarchy activity it
    /// caused — per-level hits, demand misses, stall cycles, bytes read —
    /// as args on the closing edge. This is how callers get per-level
    /// hit/miss/stall attribution without threading counters by hand.
    pub fn traced<R>(
        &mut self,
        name: &'static str,
        cat: Category,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let before = self.stats();
        self.trace_begin(name, cat);
        let out = f(self);
        let d = self.stats().delta_since(&before);
        self.trace_end(
            name,
            cat,
            &[
                ("l1_hits", d.l1_hits),
                ("l2_hits", d.l2_hits),
                ("prefetch_hits", d.prefetch_hits),
                ("demand_misses", d.demand_misses),
                ("stall_cycles", d.stall_cycles),
                ("bytes_read", d.bytes_read),
            ],
        );
        out
    }

    // ----------------------------------------------------- flight recorder

    /// Arm the flight recorder at the start of a measured window: a
    /// postmortem taken later reports the metrics delta since this call.
    /// O(1) in the number of metrics (DESIGN.md §24).
    pub fn flight_arm(&mut self) {
        self.flight.arm(&mut self.metrics);
    }

    /// Capture a postmortem artifact (last-N events, metrics delta,
    /// top-down breakdown, fault timeline) and count the dump in the
    /// metrics registry. Triggered by the resilience layer on
    /// degradation, breaker trips, and CRC failures.
    pub fn flight_dump(&mut self, reason: &'static str) {
        let now = self.now();
        let cores = self.attribution_now();
        self.flight.dump(reason, now, &self.metrics, &cores);
        self.metrics.counter_add("flight.dumps", 1);
    }

    /// [`MemoryHierarchy::flight_dump`] with a caller-supplied JSON
    /// context document (e.g. a recovery report) embedded in the
    /// postmortem under `"context"`.
    pub fn flight_dump_with(&mut self, reason: &'static str, context: String) {
        let now = self.now();
        let cores = self.attribution_now();
        self.flight
            .dump_with_context(reason, now, &self.metrics, &cores, Some(context));
        self.metrics.counter_add("flight.dumps", 1);
    }

    /// The flight recorder (to inspect or drain postmortems).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Drain the retained postmortem artifacts, oldest first.
    pub fn take_postmortems(&mut self) -> Vec<Postmortem> {
        self.flight.take_postmortems()
    }

    /// Cumulative attribution per core (no idle attribution — barrier
    /// waits are attributed by the query layer, which owns the fork/join
    /// windows). Used for mid-query postmortems.
    fn attribution_now(&self) -> Vec<CoreAttribution> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, c)| c.stats.attribution(i, 0))
            .collect()
    }

    // ---------------------------------------------------------------- time

    /// Charge `cycles` of CPU compute (to the active core).
    #[inline]
    pub fn cpu(&mut self, cycles: Cycles) {
        let core = &mut self.cores[self.active];
        core.now += cycles;
        core.stats.cpu_cycles += cycles;
    }

    /// Charge a vectorized primitive: one `vector_setup` for the whole
    /// invocation plus `per_elem` cycles for each of `elems` elements,
    /// attributed to the active core as CPU compute. The staged executor's
    /// branch-free kernels (DESIGN.md §16) charge through here so "set up
    /// once, stream many" has a single attributable charge site.
    #[inline]
    pub fn cpu_vector(&mut self, elems: u64, per_elem: Cycles) {
        let cycles = self.costs.vector_setup + elems * per_elem;
        let core = &mut self.cores[self.active];
        core.now += cycles;
        core.stats.cpu_cycles += cycles;
    }

    /// Block until simulated time `t` (no-op if already past); the waited
    /// cycles are accounted as memory stall, attributed to the
    /// producer-device bucket. Device models use this to make the CPU wait
    /// for data they have not produced yet.
    #[inline]
    pub fn stall_until(&mut self, t: Cycles) {
        let core = &mut self.cores[self.active];
        if t > core.now {
            core.stats.stall_cycles += t - core.now;
            core.stats.stall_device_cycles += t - core.now;
            core.now = t;
        }
    }

    /// Like [`Self::stall_until`], but the waited cycles are attributed to
    /// the fault-retry bucket. Recovery policies use this for backoff so
    /// top-down accounting can separate "the device was slow" from "we
    /// were re-trying after a fault".
    #[inline]
    pub fn stall_retry_until(&mut self, t: Cycles) {
        let core = &mut self.cores[self.active];
        if t > core.now {
            core.stats.stall_cycles += t - core.now;
            core.stats.stall_retry_cycles += t - core.now;
            core.now = t;
        }
    }

    // -------------------------------------------------------------- memory

    /// Allocate arena memory (cache-line aligned by default callers).
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<Addr> {
        self.arena.alloc(len, align)
    }

    /// Charge the timing for reading `[addr, addr+len)` without touching
    /// the data. Combined with [`Self::bytes`] this is the zero-copy path.
    #[inline]
    pub fn touch_read(&mut self, addr: Addr, len: usize) {
        self.cores[self.active].stats.bytes_read += len as u64;
        self.for_each_line(addr, len);
    }

    /// Charge the timing for writing `[addr, addr+len)` (write-allocate:
    /// same line traffic as a read).
    pub fn touch_write(&mut self, addr: Addr, len: usize) {
        self.cores[self.active].stats.bytes_written += len as u64;
        self.for_each_line(addr, len);
    }

    /// Charge the timing for reading several *independent* spans at once,
    /// letting their cache misses overlap (non-blocking caches / MLP).
    ///
    /// This models the load-level parallelism of a tuple-reconstruction
    /// loop: the `p` column loads of one output tuple have no data
    /// dependencies, so even an in-order core overlaps their line fills.
    /// Hits are charged serially (they are latency, not occupancy); misses
    /// issue together and the CPU stalls once for the slowest.
    pub fn touch_read_gather(&mut self, parts: &[(Addr, usize)]) {
        let mut port = self.line_port();
        let mut max_done = *port.now;
        for &(addr, len) in parts {
            if len == 0 {
                continue;
            }
            port.stats.bytes_read += len as u64;
            max_done = max_done.max(port.access_span(addr, len, Completion::Collect));
        }
        port.stall_dram_until(max_done);
    }

    /// Raw data view without timing (pair with [`Self::touch_read`]).
    #[inline]
    pub fn bytes(&self, addr: Addr, len: usize) -> &[u8] {
        self.arena.slice(addr, len)
    }

    /// Timed read: charges timing and returns the bytes.
    pub fn read(&mut self, addr: Addr, len: usize) -> &[u8] {
        self.touch_read(addr, len);
        self.arena.slice(addr, len)
    }

    /// Timed read into a caller-provided buffer.
    pub fn read_into(&mut self, addr: Addr, buf: &mut [u8]) {
        self.touch_read(addr, buf.len());
        buf.copy_from_slice(self.arena.slice(addr, buf.len()));
    }

    /// Timed write.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        self.touch_write(addr, data.len());
        self.arena.write(addr, data);
    }

    /// Untimed write, for loading data sets outside the measured window.
    pub fn write_untimed(&mut self, addr: Addr, data: &[u8]) {
        self.arena.write(addr, data);
    }

    /// Untimed read (inspection / verification).
    pub fn read_untimed(&self, addr: Addr, len: usize) -> &[u8] {
        self.arena.slice(addr, len)
    }

    /// Direct arena access for device models (they read source data
    /// without CPU-side timing; their timing runs through their own
    /// [`DramModel`]).
    pub fn arena(&self) -> &MemArena {
        &self.arena
    }

    /// Drop all cached state and prefetcher training (between experiments),
    /// without resetting time or the arena contents. Flushes every core's
    /// private L1 and prefetcher plus the shared L2/DRAM.
    pub fn flush_caches(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.prefetcher.reset();
            c.dram.reset();
        }
        self.l2.flush();
        self.dram.reset();
        self.shared_base = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
    }

    // ------------------------------------------------------------ internals

    #[inline]
    fn for_each_line(&mut self, addr: Addr, len: usize) {
        if len == 0 {
            return;
        }
        self.line_port()
            .access_span(addr, len, Completion::StallNow);
    }

    /// Borrow everything one line access can touch: the active core's
    /// private state plus the shared L2, DRAM view and ledgers.
    #[inline]
    fn line_port(&mut self) -> LinePort<'_> {
        let multi = self.cores.len() > 1;
        let CoreCtx {
            l1,
            prefetcher,
            dram: core_dram,
            now,
            stats,
        } = &mut self.cores[self.active];
        LinePort {
            cfg: &self.cfg,
            multi,
            l1,
            prefetcher,
            // Latency past L2 is a per-stream property: in multi-core mode
            // it comes from this core's private DRAM timing view, while the
            // shared controller's capacity is metered by the ledger.
            dram: if multi { core_dram } else { &mut self.dram },
            now,
            stats,
            l2: &mut self.l2,
            demand_overhead: self.demand_overhead,
            shared_base: self.shared_base,
            l2_port_fills: &mut self.l2_port_fills,
            dram_line_fills: &mut self.dram_line_fills,
        }
    }
}

/// What a line access does about the DRAM completion it may have to
/// wait for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// A dependent load: stall the core until the line arrives.
    StallNow,
    /// One of several independent loads ([`MemoryHierarchy::touch_read_gather`]):
    /// occupy the core only for the issue slot and report the arrival
    /// time, which the caller awaits once for the slowest.
    Collect,
}

/// The state one line access reads and writes, borrowed once per
/// `touch_*` call by [`MemoryHierarchy::line_port`].
struct LinePort<'a> {
    cfg: &'a SimConfig,
    multi: bool,
    l1: &'a mut SetAssocCache,
    prefetcher: &'a mut StreamPrefetcher,
    dram: &'a mut DramModel,
    now: &'a mut Cycles,
    stats: &'a mut MemStats,
    l2: &'a mut SetAssocCache,
    demand_overhead: Cycles,
    shared_base: Cycles,
    l2_port_fills: &'a mut u64,
    dram_line_fills: &'a mut u64,
}

impl LinePort<'_> {
    /// An L1-latency occupancy of the core (a hit, or a miss's issue slot).
    #[inline(always)]
    fn l1_latency(&mut self) {
        let cycles = self.cfg.l1_hit_cycles;
        *self.now += cycles;
        self.stats.mem_lat_cycles += cycles;
        self.stats.lat_l1_cycles += cycles;
    }

    /// An L2-latency occupancy of the core (a hit, or the L2-to-L1
    /// transfer of a prefetched line).
    #[inline(always)]
    fn l2_latency(&mut self) {
        let cycles = self.cfg.l2_hit_cycles;
        *self.now += cycles;
        self.stats.mem_lat_cycles += cycles;
        self.stats.lat_l2_cycles += cycles;
    }

    /// Wait for a slot of a shared-fabric bandwidth ledger.
    #[inline(always)]
    fn stall_bw_until(&mut self, t: Cycles) {
        if t > *self.now {
            self.stats.stall_cycles += t - *self.now;
            self.stats.stall_bw_cycles += t - *self.now;
            *self.now = t;
        }
    }

    /// Wait for DRAM data (demand or prefetch completion).
    #[inline(always)]
    fn stall_dram_until(&mut self, t: Cycles) {
        if t > *self.now {
            self.stats.stall_cycles += t - *self.now;
            self.stats.stall_dram_cycles += t - *self.now;
            *self.now = t;
        }
    }

    /// [`Self::access`] for every line of the non-empty span
    /// `[addr, addr + len)`, in address order; the latest arrival.
    #[inline(always)]
    fn access_span(&mut self, addr: Addr, len: usize, completion: Completion) -> Cycles {
        let line = self.cfg.line_size as u64;
        let last = (addr + len as u64 - 1) & !(line - 1);
        let mut la = addr & !(line - 1);
        let mut arrives = 0;
        loop {
            arrives = arrives.max(self.access(la, completion));
            if la == last {
                return arrives;
            }
            la += line;
        }
    }

    /// The per-line state machine: L1 → L2-port ledger → L2 → DRAM ledger
    /// → prefetch hit or demand miss. Returns the time the line's data
    /// arrives from DRAM (0 for a cache hit); under
    /// [`Completion::StallNow`] the core has already waited for it.
    #[inline(always)]
    fn access(&mut self, line_addr: u64, completion: Completion) -> Cycles {
        self.stats.line_accesses += 1;
        if self.l1.probe(line_addr) {
            self.stats.l1_hits += 1;
            self.l1_latency();
            return 0;
        }
        // Past the private L1: every fill crosses the shared L2 port.
        // With more than one core the port is a finite resource — the
        // ledger admits at most one fill per `l2_port_cycles` across all
        // cores since the fork point (see the field docs for why this is
        // a counter, not a busy-until cursor).
        if self.multi {
            self.stall_bw_until(self.shared_base + *self.l2_port_fills * self.cfg.l2_port_cycles);
            *self.l2_port_fills += 1;
        }
        if self.l2.probe(line_addr) {
            self.stats.l2_hits += 1;
            self.l2_latency();
            self.l1.fill_missed(line_addr);
            return 0;
        }
        // The line comes from DRAM (prefetched or on demand): meter the
        // shared controller's aggregate streaming bandwidth.
        if self.multi {
            self.stall_bw_until(self.shared_base + self.dram.stream_slot(*self.dram_line_fills));
            *self.dram_line_fills += 1;
        }
        let stall_now = completion == Completion::StallNow;
        let arrives = if let Some(ready) = self.prefetcher.take_inflight(line_addr, *self.now) {
            // The prefetch is (or will be) in L2; then pay the L2-to-L1
            // transfer.
            self.stats.prefetch_hits += 1;
            if stall_now {
                self.stall_dram_until(ready);
            }
            self.l2_latency();
            ready
        } else {
            self.stats.demand_misses += 1;
            if !stall_now {
                // The issue slot occupies the core briefly.
                self.l1_latency();
            }
            let arrives = self.dram.access(line_addr, *self.now) + self.demand_overhead;
            if stall_now {
                self.stall_dram_until(arrives);
            }
            arrives
        };
        // Both probes above missed, and nothing since touched either set.
        self.l2.fill_missed(line_addr);
        self.l1.fill_missed(line_addr);
        self.prefetcher.observe(line_addr, *self.now, self.dram);
        arrives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::zynq_a53())
    }

    #[test]
    fn read_returns_real_bytes_and_advances_time() {
        let mut m = hierarchy();
        let p = m.alloc(128, 64).unwrap();
        m.write_untimed(p, &[7u8; 128]);
        let t0 = m.now();
        let data = m.read(p, 128);
        assert!(data.iter().all(|&b| b == 7));
        assert!(m.now() > t0);
        assert_eq!(m.stats().bytes_read, 128);
        assert_eq!(m.stats().line_accesses, 2);
    }

    #[test]
    fn second_read_hits_l1_and_is_cheap() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        m.touch_read(p, 64);
        let t0 = m.now();
        m.touch_read(p, 64);
        assert_eq!(m.now() - t0, SimConfig::zynq_a53().l1_hit_cycles);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn cpu_charges_compute() {
        let mut m = hierarchy();
        let t0 = m.now();
        m.cpu(100);
        assert_eq!(m.now() - t0, 100);
        assert_eq!(m.stats().cpu_cycles, 100);
    }

    #[test]
    fn stall_until_only_moves_forward() {
        let mut m = hierarchy();
        m.cpu(1000);
        m.stall_until(500); // in the past: no-op
        assert_eq!(m.now(), 1000);
        m.stall_until(1500);
        assert_eq!(m.now(), 1500);
        assert_eq!(m.stats().stall_cycles, 500);
    }

    #[test]
    fn sequential_scan_gets_prefetched() {
        let mut m = hierarchy();
        let n = 512 * 1024;
        let p = m.alloc(n, 64).unwrap();
        // Stream through half a MB line by line.
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        let s = m.stats();
        assert!(
            s.prefetch_hits > s.demand_misses * 10,
            "sequential scan should be mostly prefetch hits: {s:?}"
        );
    }

    #[test]
    fn big_random_pattern_mostly_misses() {
        let mut m = hierarchy();
        let n = 8 * 1024 * 1024;
        let p = m.alloc(n, 64).unwrap();
        // A deliberately non-sequential pattern (large co-prime hops).
        let lines = (n / 64) as u64;
        let mut idx = 0u64;
        let mut demand_t0 = m.stats().demand_misses;
        for _ in 0..4096 {
            idx = (idx + 2_654_435_761) % lines;
            m.touch_read(p + idx * 64, 64);
        }
        demand_t0 = m.stats().demand_misses - demand_t0;
        assert!(
            demand_t0 > 3500,
            "random pattern should demand-miss: {demand_t0}"
        );
    }

    #[test]
    fn flush_caches_forces_misses_again() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        m.touch_read(p, 64);
        m.flush_caches();
        let misses0 = m.stats().demand_misses;
        m.touch_read(p, 64);
        assert_eq!(m.stats().demand_misses, misses0 + 1);
    }

    #[test]
    fn working_set_in_l2_hits_l2() {
        let mut m = hierarchy();
        let n = 256 * 1024; // fits in 1 MB L2, not in 32 KB L1
        let p = m.alloc(n, 64).unwrap();
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        // Second pass: should be L2 hits (L1 too small).
        let before = m.stats();
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        let d = m.stats().delta_since(&before);
        assert!(
            d.l2_hits > (n / 64) as u64 * 8 / 10,
            "expected mostly L2 hits: {d:?}"
        );
    }

    #[test]
    fn untimed_accessors_do_not_advance_time() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        let t0 = m.now();
        m.write_untimed(p, &[1u8; 64]);
        let _ = m.read_untimed(p, 64);
        assert_eq!(m.now(), t0);
    }

    #[test]
    fn recorder_never_advances_time() {
        let mut bare = hierarchy();
        let mut traced = hierarchy();
        traced.trace_to(256);
        for m in [&mut bare, &mut traced] {
            let p = m.alloc(4096, 64).unwrap();
            m.traced("scan", Category::Mem, |m| {
                m.touch_read(p, 4096);
                m.cpu(100);
            });
            m.trace_instant("tick", Category::Fault, &[("k", 1)]);
        }
        assert_eq!(bare.now(), traced.now(), "recording must be cycle-free");
        assert_eq!(bare.stats(), traced.stats());
        assert!(traced.tracing() && !bare.tracing());
    }

    #[test]
    fn traced_span_attributes_hierarchy_activity() {
        let mut m = hierarchy();
        m.trace_to(64);
        let p = m.alloc(256, 64).unwrap();
        m.traced("scan", Category::Mem, |m| m.touch_read(p, 256));
        let json = m.export_trace().expect("an installed trace exports");
        let summary = fabric_obs::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((summary.begins, summary.ends), (1, 1));
        // The closing edge carries per-level attribution.
        assert!(json.contains("\"demand_misses\""), "{json}");
        assert!(json.contains("\"stall_cycles\""), "{json}");
        let folded = m.export_folded().expect("an installed trace folds");
        assert!(folded.starts_with("fabric;mem:scan "), "{folded}");
        let trace = m.take_trace().expect("trace installed");
        assert!(!m.tracing());
        assert_eq!(trace.to_chrome_json(), json);
        assert!(m.export_trace().is_none(), "no trace, no export");
    }

    #[test]
    fn metrics_registry_is_hosted() {
        let mut m = hierarchy();
        m.metrics_mut().counter_add("mem.test", 3);
        m.stats().record_into(m.metrics_mut(), "mem");
        assert_eq!(m.metrics().counter("mem.test"), 3);
        let snap = m.metrics().snapshot();
        assert!(snap.counters.contains_key("mem.cpu_cycles"));
    }

    #[test]
    fn single_core_never_pays_the_l2_port() {
        // One core must be cycle-identical to the pre-multi-core model:
        // the shared-port arbitration is gated on `num_cores() > 1`.
        let mut a = hierarchy();
        let mut b = hierarchy();
        b.set_core_count(1);
        for m in [&mut a, &mut b] {
            let p = m.alloc(64 * 1024, 64).unwrap();
            for i in 0..1024u64 {
                m.touch_read(p + i * 64, 64);
            }
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn core_clock_advance_is_fully_attributed() {
        // Δnow == Δ(cpu + stall + mem_lat) on every core, which is what
        // lets EXPLAIN ANALYZE reconcile per-core busy time with the
        // global clock.
        let mut m = hierarchy();
        m.set_core_count(4);
        m.fork_clocks();
        let mut snaps = Vec::new();
        for i in 0..4 {
            snaps.push((m.core_now(i), m.core_stats(i)));
        }
        let p = m.alloc(1 << 20, 64).unwrap();
        for i in 0..4 {
            m.set_active_core(i);
            let base = p + (i as u64) * 256 * 1024;
            for l in 0..4096u64 {
                m.touch_read(base + l * 64, 64);
            }
            m.cpu(1000);
        }
        for i in 0..4 {
            let (t0, s0) = snaps[i];
            let d = m.core_stats(i).delta_since(&s0);
            assert_eq!(
                m.core_now(i) - t0,
                d.busy_cycles(),
                "core {i} clock advance must equal cpu+stall+mem_lat"
            );
        }
        let t = m.join_clocks();
        for i in 0..4 {
            assert_eq!(m.core_now(i), t);
        }
        m.set_active_core(0);
    }

    #[test]
    fn parallel_streams_under_the_bandwidth_cap_run_at_full_speed() {
        // A second core streaming a disjoint region must not slow the
        // first one down while the shared port and DRAM controller are
        // below their aggregate-throughput caps: core 0's timeline is
        // cycle-identical to a solo run over the same addresses.
        let solo = {
            let mut m = hierarchy();
            let p = m.alloc(1 << 20, 64).unwrap();
            m.flush_caches();
            let t0 = m.now();
            for l in 0..4096u64 {
                m.touch_read(p + l * 64, 64);
            }
            m.now() - t0
        };
        let mut m = hierarchy();
        m.set_core_count(2);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..4096u64 {
            for c in 0..2u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 512 * 1024 + l * 64, 64);
            }
        }
        let core0 = m.core_now(0) - t0;
        assert_eq!(
            core0, solo,
            "an under-cap parallel stream must run at solo speed"
        );
        m.set_active_core(0);
        m.join_clocks();
    }

    #[test]
    fn saturated_l2_port_caps_aggregate_throughput() {
        // Narrow the shared port so two streaming cores exceed its
        // aggregate bandwidth: the ledger must stretch the parallel
        // region to at least `fills * port` cycles, and past what either
        // core would take alone.
        let cfg = SimConfig {
            l2_port_cycles: 40,
            ..SimConfig::zynq_a53()
        };
        let solo = {
            let mut m = MemoryHierarchy::new(cfg.clone());
            let p = m.alloc(1 << 20, 64).unwrap();
            m.flush_caches();
            let t0 = m.now();
            for l in 0..4096u64 {
                m.touch_read(p + l * 64, 64);
            }
            m.now() - t0
        };
        let mut m = MemoryHierarchy::new(cfg.clone());
        m.set_core_count(2);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..4096u64 {
            for c in 0..2u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 512 * 1024 + l * 64, 64);
            }
        }
        m.set_active_core(0);
        let contended = m.join_clocks() - t0;
        assert!(
            contended >= (2 * 4096 - 1) * cfg.l2_port_cycles,
            "a saturated port must admit at most one fill per slot \
             ({contended} < {})",
            (2 * 4096 - 1) * cfg.l2_port_cycles
        );
        assert!(
            contended > solo,
            "two over-cap streams ({contended}) must exceed one solo stream ({solo})"
        );
    }

    #[test]
    fn saturated_dram_controller_caps_aggregate_throughput() {
        // A single-bank DRAM gives the controller no pipelining: four
        // cold streams must serialize at one line per `t_row_hit`.
        let cfg = SimConfig {
            dram_banks: 1,
            ..SimConfig::zynq_a53()
        };
        let t_hit = cfg.ns_to_cycles(cfg.dram_row_hit_ns);
        let mut m = MemoryHierarchy::new(cfg);
        m.set_core_count(4);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..1024u64 {
            for c in 0..4u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 256 * 1024 + l * 64, 64);
            }
        }
        m.set_active_core(0);
        let elapsed = m.join_clocks() - t0;
        assert!(
            elapsed >= (4 * 1024 - 1) * t_hit,
            "a saturated single-bank controller must admit at most one \
             line per t_row_hit ({elapsed} < {})",
            (4 * 1024 - 1) * t_hit
        );
    }

    #[test]
    fn set_core_count_folds_stats_and_keeps_them_monotonic() {
        let mut m = hierarchy();
        m.set_core_count(3);
        let p = m.alloc(4096, 64).unwrap();
        m.set_active_core(2);
        m.touch_read(p, 4096);
        m.cpu(50);
        let before = m.stats();
        m.set_active_core(0);
        m.set_core_count(1);
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.stats(), before, "shrinking must not lose statistics");
        assert_eq!(m.active_core(), 0);
    }

    #[test]
    fn fork_aligns_new_cores_to_the_frontier() {
        let mut m = hierarchy();
        m.cpu(500);
        m.set_core_count(2);
        assert_eq!(m.core_now(1), 500);
        m.cpu(100); // core 0 runs ahead
        let t = m.fork_clocks();
        assert_eq!(t, 600);
        assert_eq!(m.core_now(0), m.core_now(1));
    }

    #[test]
    fn inflight_store_holds_the_live_lookahead_not_every_stale_line() {
        // A ROW-shaped pass over a 19 MiB table at four cores: 152-byte
        // lineitem rows, the two spans Q6 gathers from each (bytes 28..52
        // and 62..66, about 1.6 of a row's 2.4 lines), a quarter of the
        // rows per core. The lookahead covers every line and the scan
        // demands about two thirds of them, so tens of thousands of lines
        // a core stay in flight; the pages that remember completion times
        // stay at what may still lie ahead.
        const ROW: u64 = 152;
        const ROWS: u64 = 131_072;
        let mut m = hierarchy();
        m.set_core_count(4);
        let base = m.alloc((ROW * ROWS) as usize, 64).unwrap();
        m.fork_clocks();
        for core in 0..4 {
            m.set_active_core(core);
            for r in (core as u64 * ROWS / 4)..((core as u64 + 1) * ROWS / 4) {
                let row = base + r * ROW;
                m.touch_read_gather(&[(row + 28, 24), (row + 62, 4)]);
                m.cpu(20);
            }
        }
        m.join_clocks();
        m.set_active_core(0);
        for (i, c) in m.cores.iter().enumerate() {
            let (issued, useful) = c.prefetcher.counters();
            assert!(
                issued - useful > 10_000,
                "core {i}: the pass must leave stale lines in flight ({issued} issued, {useful} used)"
            );
            assert!(
                c.prefetcher.pages_held() <= 32,
                "core {i} holds {} pages",
                c.prefetcher.pages_held()
            );
        }
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        let t0 = m.now();
        m.touch_read(p, 0);
        assert_eq!(m.now(), t0);
        assert_eq!(m.stats().line_accesses, 0);
    }
}
