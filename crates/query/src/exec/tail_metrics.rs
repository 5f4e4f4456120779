//! The per-query tail's metric handles (DESIGN.md §30).
//!
//! Every query writes the same few dozen metrics: the plan- and
//! operator-cache counters, the execution counters, twelve `query.core<i>.*`
//! counters per core, the RM device counters and the latency histograms.
//! [`QueryMetrics`], owned by the engine beside its caches, resolves their
//! names once and hands the tail a [`TailMetrics`] of handles, so a query
//! writes them without formatting, allocating or comparing a key.

use crate::bind::CLASSES;
use crate::cost::AccessPath;
use crate::exec::{path_tag, QueryOutput};
use fabric_sim::{
    topdown, CoreAttribution, CounterId, GaugeId, HistogramId, MemoryHierarchy, MetricsRegistry,
    RegistryId,
};
use relmem::RmStats;

/// The access paths in [`path_slot`] order.
const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// `path`'s position in [`PATHS`].
fn path_slot(path: AccessPath) -> usize {
    match path {
        AccessPath::Row => 0,
        AccessPath::Col => 1,
        AccessPath::Rm => 2,
    }
}

/// The holder: handles resolved on one registry for some number of cores,
/// resolved again whenever the registry is another one or has more cores.
#[derive(Default)]
pub(crate) struct QueryMetrics {
    resolved: Option<TailMetrics>,
}

impl QueryMetrics {
    /// Handles valid on `mem`'s registry for every core it has. Compares
    /// the registry's identity and the core count; resolves (and so
    /// formats and allocates) only on the first query and after the
    /// registry or the machine changed.
    pub(crate) fn on(&mut self, mem: &mut MemoryHierarchy) -> &TailMetrics {
        let cores = mem.num_cores();
        let reg = mem.metrics_mut();
        if self
            .resolved
            .as_ref()
            .is_some_and(|t| t.registry != reg.id() || t.cores.len() < cores)
        {
            self.resolved = None;
        }
        self.resolved
            .get_or_insert_with(|| TailMetrics::resolve(reg, cores))
    }
}

/// One handle for every metric the per-query tail writes, all on one
/// registry.
pub(crate) struct TailMetrics {
    registry: RegistryId,
    pub plan_cache_hits: CounterId,
    pub plan_cache_misses: CounterId,
    pub opcache_hits: CounterId,
    pub opcache_misses: CounterId,
    pub opcache_insertions: CounterId,
    pub opcache_evictions: CounterId,
    pub opcache_entries: GaugeId,
    pub opcache_bytes: GaugeId,
    executions: CounterId,
    /// `query.path.<p>`, by [`path_slot`].
    paths: [CounterId; 3],
    rows_out: CounterId,
    degraded: CounterId,
    exec_cycles: HistogramId,
    /// `query.core<i>.<key>`, by core, in [`CoreAttribution::counters`]
    /// order.
    cores: Vec<[CounterId; topdown::COUNTERS]>,
    /// `query.rm.<name>`, in [`RmStats::counters`] order.
    rm: [CounterId; 10],
    pub querylog_records: CounterId,
    pub calib_observations: CounterId,
    /// `query.class.<class>.{cold,hit}.latency_cycles`, by class index.
    latency: [[HistogramId; 2]; 3],
    pub scratchpad_hwm: GaugeId,
}

impl TailMetrics {
    fn resolve(reg: &mut MetricsRegistry, cores: usize) -> Self {
        let core_keys = CoreAttribution::default().counters().map(|(k, _)| k);
        let rm_keys = RmStats::default().counters().map(|(k, _)| k);
        TailMetrics {
            registry: reg.id(),
            plan_cache_hits: reg.counter_id("query.plan_cache.hits"),
            plan_cache_misses: reg.counter_id("query.plan_cache.misses"),
            opcache_hits: reg.counter_id("query.opcache.hits"),
            opcache_misses: reg.counter_id("query.opcache.misses"),
            opcache_insertions: reg.counter_id("query.opcache.insertions"),
            opcache_evictions: reg.counter_id("query.opcache.evictions"),
            opcache_entries: reg.gauge_id("query.opcache.entries"),
            opcache_bytes: reg.gauge_id("query.opcache.bytes"),
            executions: reg.counter_id("query.executions"),
            paths: PATHS.map(|p| reg.counter_id(&format!("query.path.{}", path_tag(p)))),
            rows_out: reg.counter_id("query.rows_out"),
            degraded: reg.counter_id("query.degraded"),
            exec_cycles: reg.histogram_id("query.exec_cycles"),
            cores: (0..cores)
                .map(|i| core_keys.map(|k| reg.counter_id(&format!("query.core{i}.{k}"))))
                .collect(),
            rm: rm_keys.map(|k| reg.counter_id(&format!("query.rm.{k}"))),
            querylog_records: reg.counter_id("querylog.records"),
            calib_observations: reg.counter_id("calib.observations"),
            latency: CLASSES.map(|class| {
                ["cold", "hit"].map(|temp| {
                    reg.histogram_id(&format!("query.class.{class}.{temp}.latency_cycles"))
                })
            }),
            scratchpad_hwm: reg.gauge_id("query.scratchpad.hwm_bytes"),
        }
    }

    /// The latency histogram of a query of class `class` (an index into
    /// [`CLASSES`]), cold or an op-cache hit.
    pub fn latency(&self, class: usize, cache_hit: bool) -> HistogramId {
        self.latency[class][usize::from(cache_hit)]
    }

    /// Count a finished execution: its path, rows, degradation and cycles,
    /// every core's attribution record and the RM device's counters.
    pub fn record_execution(&self, reg: &mut MetricsRegistry, out: &QueryOutput, total: u64) {
        reg.counter_add_id(self.executions, 1);
        reg.counter_add_id(self.paths[path_slot(out.path)], 1);
        reg.counter_add_id(self.rows_out, out.rows.len() as u64);
        if out.degraded_from.is_some() {
            reg.counter_add_id(self.degraded, 1);
        }
        reg.observe_id(self.exec_cycles, total);
        for c in &out.cores {
            for (&id, (_, v)) in self.cores[c.core].iter().zip(c.counters()) {
                reg.counter_add_id(id, v);
            }
        }
        if let Some(rm) = &out.rm_stats {
            for (&id, (_, v)) in self.rm.iter().zip(rm.counters()) {
                reg.counter_add_id(id, v);
            }
        }
    }
}
