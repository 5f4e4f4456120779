//! A deliberately naive reference of `fabric_sim::MemoryHierarchy`'s
//! line path (ROADMAP item 2(b)), for `tests/line_path_reference.rs`.
//!
//! Same model, none of the host-side work: L1 and L2 are a `Vec` of
//! tags per set in LRU order (least recent first, found by linear
//! search), the prefetcher is the map-based one with exact completion
//! times, and every line goes through one plain function. DRAM timing
//! is `fabric_sim::DramModel` itself, and the L2-port and DRAM ledgers
//! are the hierarchy's arithmetic written out again. Timing only: there
//! is no arena, so addresses need no allocation.

use super::map_prefetcher::MapPrefetcher;
use super::{Cycles, DramModel, MemStats, OpCosts, SimConfig};

/// Tags only, LRU per set.
struct LruCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_size: u64,
}

impl LruCache {
    fn new(bytes: usize, ways: usize, line_size: usize) -> Self {
        let sets = (bytes / line_size / ways).max(1);
        LruCache {
            sets: vec![Vec::new(); sets],
            ways,
            line_size: line_size as u64,
        }
    }

    fn set(&mut self, line_addr: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line_addr / self.line_size % n) as usize]
    }

    /// Hit: move to most recent.
    fn probe(&mut self, line_addr: u64) -> bool {
        let set = self.set(line_addr);
        match set.iter().position(|&t| t == line_addr) {
            Some(i) => {
                let tag = set.remove(i);
                set.push(tag);
                true
            }
            None => false,
        }
    }

    fn fill(&mut self, line_addr: u64) {
        let ways = self.ways;
        let set = self.set(line_addr);
        if !set.contains(&line_addr) {
            if set.len() == ways {
                set.remove(0);
            }
            set.push(line_addr);
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

struct Core {
    l1: LruCache,
    prefetcher: MapPrefetcher,
    /// Private DRAM timing view, used with more than one core.
    dram: DramModel,
    now: Cycles,
    stats: MemStats,
}

impl Core {
    fn new(cfg: &SimConfig, now: Cycles) -> Self {
        Core {
            l1: LruCache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.line_size),
            prefetcher: MapPrefetcher::new(cfg),
            dram: DramModel::new(cfg),
            now,
            stats: MemStats::default(),
        }
    }
}

pub struct RefHierarchy {
    cfg: SimConfig,
    costs: OpCosts,
    cores: Vec<Core>,
    active: usize,
    l2: LruCache,
    dram: DramModel,
    shared_base: Cycles,
    l2_port_fills: u64,
    dram_line_fills: u64,
}

impl RefHierarchy {
    pub fn new(cfg: SimConfig) -> Self {
        RefHierarchy {
            costs: OpCosts::default(),
            cores: vec![Core::new(&cfg, 0)],
            active: 0,
            l2: LruCache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_size),
            dram: DramModel::new(&cfg),
            shared_base: 0,
            l2_port_fills: 0,
            dram_line_fills: 0,
            cfg,
        }
    }

    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    pub fn now(&self) -> Cycles {
        self.cores[self.active].now
    }

    pub fn core_now(&self, i: usize) -> Cycles {
        self.cores[i].now
    }

    pub fn core_stats(&self, i: usize) -> MemStats {
        self.cores[i].stats
    }

    fn restart_ledgers(&mut self, at: Cycles) {
        self.shared_base = at;
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
    }

    pub fn set_core_count(&mut self, n: usize) {
        let n = n.max(1);
        let now = self.cores[self.active].now;
        while self.cores.len() < n {
            self.cores.push(Core::new(&self.cfg, now));
        }
        while self.cores.len() > n {
            let dropped = self.cores.pop().unwrap().stats;
            self.cores[0].stats.accumulate(&dropped);
        }
        if self.active >= n {
            self.active = 0;
        }
        self.restart_ledgers(now);
    }

    pub fn set_active_core(&mut self, i: usize) {
        assert!(i < self.cores.len());
        self.active = i;
    }

    pub fn fork_clocks(&mut self) -> Cycles {
        let t = self.cores.iter().map(|c| c.now).max().unwrap();
        for c in &mut self.cores {
            c.now = t;
        }
        self.restart_ledgers(t);
        t
    }

    pub fn join_clocks(&mut self) -> Cycles {
        self.fork_clocks()
    }

    pub fn flush_caches(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.prefetcher.reset();
            c.dram.reset();
        }
        self.l2.flush();
        self.dram.reset();
        let frontier = self.cores.iter().map(|c| c.now).max().unwrap();
        self.restart_ledgers(frontier);
    }

    pub fn cpu(&mut self, cycles: Cycles) {
        let c = &mut self.cores[self.active];
        c.now += cycles;
        c.stats.cpu_cycles += cycles;
    }

    pub fn cpu_vector(&mut self, elems: u64, per_elem: Cycles) {
        self.cpu(self.costs.vector_setup + elems * per_elem);
    }

    pub fn stall_until(&mut self, t: Cycles) {
        let c = &mut self.cores[self.active];
        if t > c.now {
            c.stats.stall_cycles += t - c.now;
            c.stats.stall_device_cycles += t - c.now;
            c.now = t;
        }
    }

    pub fn stall_retry_until(&mut self, t: Cycles) {
        let c = &mut self.cores[self.active];
        if t > c.now {
            c.stats.stall_cycles += t - c.now;
            c.stats.stall_retry_cycles += t - c.now;
            c.now = t;
        }
    }

    pub fn touch_read(&mut self, addr: u64, len: usize) {
        self.cores[self.active].stats.bytes_read += len as u64;
        for line in self.lines(addr, len) {
            self.access(line, true);
        }
    }

    pub fn touch_write(&mut self, addr: u64, len: usize) {
        self.cores[self.active].stats.bytes_written += len as u64;
        for line in self.lines(addr, len) {
            self.access(line, true);
        }
    }

    pub fn touch_read_gather(&mut self, parts: &[(u64, usize)]) {
        let mut max_done = self.cores[self.active].now;
        for &(addr, len) in parts {
            self.cores[self.active].stats.bytes_read += len as u64;
            for line in self.lines(addr, len) {
                max_done = max_done.max(self.access(line, false));
            }
        }
        self.stall_dram_until(max_done);
    }

    /// Line addresses of `[addr, addr + len)`.
    fn lines(&self, addr: u64, len: usize) -> Vec<u64> {
        let size = self.cfg.line_size as u64;
        if len == 0 {
            return Vec::new();
        }
        (addr / size..=(addr + len as u64 - 1) / size)
            .map(|l| l * size)
            .collect()
    }

    fn l1_latency(&mut self) {
        let cycles = self.cfg.l1_hit_cycles;
        let c = &mut self.cores[self.active];
        c.now += cycles;
        c.stats.mem_lat_cycles += cycles;
        c.stats.lat_l1_cycles += cycles;
    }

    fn l2_latency(&mut self) {
        let cycles = self.cfg.l2_hit_cycles;
        let c = &mut self.cores[self.active];
        c.now += cycles;
        c.stats.mem_lat_cycles += cycles;
        c.stats.lat_l2_cycles += cycles;
    }

    fn stall_bw_until(&mut self, t: Cycles) {
        let c = &mut self.cores[self.active];
        if t > c.now {
            c.stats.stall_cycles += t - c.now;
            c.stats.stall_bw_cycles += t - c.now;
            c.now = t;
        }
    }

    fn stall_dram_until(&mut self, t: Cycles) {
        let c = &mut self.cores[self.active];
        if t > c.now {
            c.stats.stall_cycles += t - c.now;
            c.stats.stall_dram_cycles += t - c.now;
            c.now = t;
        }
    }

    /// One line: L1, the L2 port, L2, the DRAM ledger, then an in-flight
    /// prefetch or a demand miss. Returns when the data arrives from DRAM
    /// (0 for a cache hit); a dependent load (`stall`) has waited for it.
    fn access(&mut self, line: u64, stall: bool) -> Cycles {
        let multi = self.cores.len() > 1;
        let a = self.active;
        self.cores[a].stats.line_accesses += 1;
        if self.cores[a].l1.probe(line) {
            self.cores[a].stats.l1_hits += 1;
            self.l1_latency();
            return 0;
        }
        if multi {
            let slot = self.shared_base + self.l2_port_fills * self.cfg.l2_port_cycles;
            self.stall_bw_until(slot);
            self.l2_port_fills += 1;
        }
        if self.l2.probe(line) {
            self.cores[a].stats.l2_hits += 1;
            self.l2_latency();
            self.cores[a].l1.fill(line);
            return 0;
        }
        if multi {
            let t_row_hit = self.cfg.ns_to_cycles(self.cfg.dram_row_hit_ns);
            let slot =
                self.shared_base + self.dram_line_fills * t_row_hit / self.cfg.dram_banks as u64;
            self.stall_bw_until(slot);
            self.dram_line_fills += 1;
        }
        let arrives = match self.cores[a].prefetcher.take_inflight(line) {
            Some(ready) => {
                self.cores[a].stats.prefetch_hits += 1;
                if stall {
                    self.stall_dram_until(ready);
                }
                self.l2_latency();
                ready
            }
            None => {
                self.cores[a].stats.demand_misses += 1;
                if !stall {
                    self.l1_latency();
                }
                let now = self.cores[a].now;
                let dram = if multi {
                    &mut self.cores[a].dram
                } else {
                    &mut self.dram
                };
                let arrives = dram.access(line, now)
                    + self.cfg.ns_to_cycles(self.cfg.dram_demand_overhead_ns);
                if stall {
                    self.stall_dram_until(arrives);
                }
                arrives
            }
        };
        self.l2.fill(line);
        let c = &mut self.cores[a];
        c.l1.fill(line);
        let dram = if multi { &mut c.dram } else { &mut self.dram };
        c.prefetcher.observe(line, c.now, dram);
        arrives
    }
}
