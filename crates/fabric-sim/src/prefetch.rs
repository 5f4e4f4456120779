//! Hardware stream prefetcher model.
//!
//! The Cortex-A53 L2 prefetcher tracks a small number of sequential streams
//! (four — the number the paper leans on: *"the prefetcher can efficiently
//! support up to four parallel sequential accesses"*, §V). This model keeps
//! a stream table with LRU allocation: an access pattern with at most
//! [`SimConfig::prefetch_streams`] interleaved sequential streams trains
//! quickly and hides DRAM latency; more streams thrash the table and every
//! access pays the full demand-miss cost. That mechanism — not a fitted
//! curve — is what produces the paper's four-column crossover in Fig. 5/6.

use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::Cycles;

#[derive(Debug, Clone)]
struct Stream {
    /// Line index (not byte address) expected next.
    next_line: u64,
    /// Stride in lines (>= 1; ascending streams only).
    stride: u64,
    /// Consecutive confirmations; prefetch starts at `train`.
    score: usize,
    /// Highest line index already sent to DRAM for this stream.
    issued_until: u64,
    /// LRU tick of last use.
    last_use: u64,
}

/// Safety valve: if the in-flight table ever exceeds this many entries the
/// prefetcher drops them all (real prefetch buffers are tiny; this only
/// guards against pathological leak in very long simulations).
const MAX_INFLIGHT: usize = 1 << 20;

/// Maximum stride (in lines) a new stream allocation will infer.
const MAX_STRIDE_LINES: u64 = 8;

/// Deterministic pseudo-random source for victim selection.
#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Slot marker for "no entry": line numbers are byte addresses shifted
/// right by the line size, so no real line reaches it.
const EMPTY: u64 = u64::MAX;

/// Lines below this bound (4 GiB of 64-byte lines, the default arena
/// limit) get a membership bit; the bitmap therefore never exceeds 8 MiB
/// however wild an address a caller passes. Lines above it are answered
/// by the slot table alone.
const BITMAP_LINES: u64 = 1 << 26;

/// The prefetcher's in-flight set: an exact `line → ready` map.
///
/// Lines that are prefetched and never demanded are never retired (a
/// later access to one is a prefetch hit — model behaviour), so the set
/// holds tens of thousands of entries and is probed several times per
/// L2 miss. Two structures keep that O(1): a bitmap indexed by line
/// number answers membership — the question `observe` asks for every
/// line of lookahead — and an open-addressed table (multiplicative hash,
/// linear probing, backward-shift deletion, load at most 7/8) holds the
/// completion times. Nothing ever iterates it, so results cannot depend
/// on slot order.
#[derive(Debug, Default)]
struct InflightTable {
    /// Bit `l % 64` of word `l / 64` is set iff line `l` is in the table
    /// (lines below [`BITMAP_LINES`] only); grown on insert.
    bits: Vec<u64>,
    /// `(line, ready)` slots, [`EMPTY`] when free; the length is zero or
    /// a power of two.
    slots: Vec<(u64, Cycles)>,
    len: usize,
}

impl InflightTable {
    const MIN_SLOTS: usize = 16;

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Home slot of `line` in a table of `slots` (a power of two) slots.
    #[inline]
    fn home(line: u64, slots: usize) -> usize {
        let hashed = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hashed >> (64 - slots.trailing_zeros())) as usize
    }

    /// Slot holding `line`, if present. The table must be non-empty.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(line, self.slots.len());
        loop {
            match self.slots[i].0 {
                l if l == line => return Some(i),
                EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        if line < BITMAP_LINES {
            self.bits
                .get((line / 64) as usize)
                .is_some_and(|w| w & (1 << (line % 64)) != 0)
        } else {
            self.len > 0 && self.find(line).is_some()
        }
    }

    /// Insert or overwrite `line`'s completion time.
    fn insert(&mut self, line: u64, ready: Cycles) {
        debug_assert_ne!(line, EMPTY);
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(line, self.slots.len());
        loop {
            match self.slots[i].0 {
                l if l == line => {
                    self.slots[i].1 = ready;
                    return;
                }
                EMPTY => break,
                _ => i = (i + 1) & mask,
            }
        }
        self.slots[i] = (line, ready);
        self.len += 1;
        if line < BITMAP_LINES {
            let word = (line / 64) as usize;
            if word >= self.bits.len() {
                self.bits.resize((word + 1).next_power_of_two(), 0);
            }
            self.bits[word] |= 1 << (line % 64);
        }
    }

    /// Double the slot array (or allocate the first one) and re-home
    /// every entry.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); slots]);
        for (line, ready) in old {
            if line == EMPTY {
                continue;
            }
            let mut i = Self::home(line, slots);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & (slots - 1);
            }
            self.slots[i] = (line, ready);
        }
    }

    /// Remove `line`, returning its completion time if it was present.
    #[inline]
    fn remove(&mut self, line: u64) -> Option<Cycles> {
        if self.len == 0 || (line < BITMAP_LINES && !self.contains(line)) {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.find(line)?;
        let ready = self.slots[hole].1;
        // Backward-shift deletion: pull each later member of the probe
        // run into the hole unless that would move it before its home
        // slot, so lookups never need tombstones.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let l = self.slots[j].0;
            if l == EMPTY {
                break;
            }
            let home = Self::home(l, self.slots.len());
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = EMPTY;
        self.len -= 1;
        if line < BITMAP_LINES {
            self.bits[(line / 64) as usize] &= !(1 << (line % 64));
        }
        Some(ready)
    }

    /// Drop every entry and the memory holding them.
    fn clear(&mut self) {
        *self = InflightTable::default();
    }
}

/// Stream prefetcher with a bounded stream table.
#[derive(Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: u64,
    train: usize,
    tick: u64,
    line_shift: u32,
    /// line index -> completion time of the prefetch.
    inflight: InflightTable,
    issued: u64,
    useful: u64,
}

impl StreamPrefetcher {
    pub fn new(cfg: &SimConfig) -> Self {
        StreamPrefetcher {
            streams: Vec::with_capacity(cfg.prefetch_streams),
            capacity: cfg.prefetch_streams,
            degree: cfg.prefetch_degree as u64,
            train: cfg.prefetch_train,
            tick: 0,
            line_shift: cfg.line_size.trailing_zeros(),
            inflight: InflightTable::default(),
            issued: 0,
            useful: 0,
        }
    }

    /// If a prefetch for this line is in flight, consume it and return its
    /// completion time.
    #[inline]
    pub fn take_inflight(&mut self, line_addr: u64) -> Option<Cycles> {
        let line = line_addr >> self.line_shift;
        let ready = self.inflight.remove(line);
        if ready.is_some() {
            self.useful += 1;
        }
        ready
    }

    /// Notify the prefetcher of an L2-level demand access (miss or prefetch
    /// hit); trains streams and issues new prefetches against `dram`.
    #[inline]
    pub fn observe(&mut self, line_addr: u64, now: Cycles, dram: &mut DramModel) {
        self.tick += 1;
        let line = line_addr >> self.line_shift;

        // Try to match an existing stream.
        let mut matched: Option<usize> = None;
        for (i, s) in self.streams.iter_mut().enumerate() {
            if line == s.next_line {
                matched = Some(i);
                break;
            }
            // Allow an un-stabilised stream (stride guess pending) to lock
            // its stride from the second access.
            if s.score == 1 && line > s.next_line - s.stride {
                let delta = line - (s.next_line - s.stride);
                if delta <= MAX_STRIDE_LINES {
                    s.stride = delta;
                    s.next_line = line; // will be advanced below
                    matched = Some(i);
                    break;
                }
            }
        }

        match matched {
            Some(i) => {
                let tick = self.tick;
                let (degree, train) = (self.degree, self.train);
                let s = &mut self.streams[i];
                s.score += 1;
                s.next_line = line + s.stride;
                s.last_use = tick;
                if s.score >= train {
                    // Keep `degree` lines of lookahead in flight.
                    let target = line + degree * s.stride;
                    let mut next = s.issued_until.max(line + s.stride);
                    // Round `next` up onto the stream's phase.
                    let phase_off = (next.wrapping_sub(line)) % s.stride;
                    if phase_off != 0 {
                        next += s.stride - phase_off;
                    }
                    let stride = s.stride;
                    let mut issued_until = s.issued_until;
                    while next <= target {
                        if !self.inflight.contains(next) {
                            let ready = dram.access(next << self.line_shift, now);
                            self.inflight.insert(next, ready);
                            self.issued += 1;
                        }
                        issued_until = issued_until.max(next);
                        next += stride;
                    }
                    self.streams[i].issued_until = issued_until;
                }
            }
            None => {
                // Allocate a fresh stream guessing a +1-line stride; the
                // stride locks on the second access.
                let tick = self.tick;
                if self.streams.len() == self.capacity {
                    // Pseudo-random replacement, like the Cortex-A53's
                    // caches: with N interleaved streams and a smaller
                    // table, a fraction of streams survives each round, so
                    // prefetch coverage degrades gradually — adversarial
                    // LRU would collapse to zero coverage at N+1 streams.
                    let victim = (xorshift(tick) as usize) % self.streams.len();
                    self.streams.swap_remove(victim);
                }
                self.streams.push(Stream {
                    next_line: line + 1,
                    stride: 1,
                    score: 1,
                    issued_until: line,
                    last_use: tick,
                });
            }
        }

        if self.inflight.len() > MAX_INFLIGHT {
            self.inflight.clear();
        }
    }

    /// `(prefetches issued, prefetches that serviced a demand access)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.useful)
    }

    /// Drop all state (new experiment).
    pub fn reset(&mut self) {
        self.streams.clear();
        self.inflight.clear();
        self.tick = 0;
        self.issued = 0;
        self.useful = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StreamPrefetcher, DramModel, SimConfig) {
        let cfg = SimConfig::zynq_a53();
        (StreamPrefetcher::new(&cfg), DramModel::new(&cfg), cfg)
    }

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let (mut pf, mut dram, _) = setup();
        // Two observations train the stream; the third access should find
        // its line in flight.
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 100, &mut dram);
        let (issued, _) = pf.counters();
        assert!(issued > 0, "trained stream must issue prefetches");
        assert!(pf.take_inflight(128).is_some());
    }

    #[test]
    fn strided_stream_locks_stride() {
        let (mut pf, mut dram, _) = setup();
        // Stride of 2 lines (a 128-byte-row scan).
        pf.observe(0, 0, &mut dram);
        pf.observe(128, 100, &mut dram);
        pf.observe(256, 200, &mut dram);
        assert!(
            pf.take_inflight(384).is_some(),
            "stride-2 line should be prefetched"
        );
        // Lines between the stride must NOT be prefetched.
        assert!(pf.take_inflight(320).is_none());
    }

    #[test]
    fn four_interleaved_streams_all_train() {
        let (mut pf, mut dram, _) = setup();
        let bases: Vec<u64> = (0..4).map(|i| i * 1 << 20).collect();
        let mut now = 0;
        for step in 0..4u64 {
            for &b in &bases {
                pf.observe(b + step * 64, now, &mut dram);
                now += 50;
            }
        }
        for &b in &bases {
            assert!(
                pf.take_inflight(b + 4 * 64).is_some(),
                "stream at base {b:#x} should be prefetching"
            );
        }
    }

    #[test]
    fn excess_interleaved_streams_degrade_coverage() {
        // Coverage (prefetches issued per access) must drop substantially
        // once the number of round-robin streams exceeds the table size,
        // but — thanks to random replacement — not collapse to zero.
        let run = |n_streams: u64| {
            let (mut pf, mut dram, _) = setup();
            let bases: Vec<u64> = (0..n_streams).map(|i| i << 20).collect();
            let mut now = 0;
            let steps = 64u64;
            for step in 0..steps {
                for &b in &bases {
                    pf.observe(b + step * 64, now, &mut dram);
                    now += 50;
                }
            }
            let (issued, _) = pf.counters();
            issued as f64 / (steps * n_streams) as f64
        };
        let cov4 = run(4);
        let cov8 = run(8);
        assert!(cov4 > 0.9, "4 streams should be fully covered: {cov4}");
        assert!(
            cov8 < cov4 * 0.7,
            "8 streams should degrade: {cov8} vs {cov4}"
        );
    }

    #[test]
    fn take_inflight_consumes_once() {
        let (mut pf, mut dram, _) = setup();
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 10, &mut dram);
        assert!(pf.take_inflight(128).is_some());
        assert!(pf.take_inflight(128).is_none());
    }

    #[test]
    fn reset_clears_counters_and_streams() {
        let (mut pf, mut dram, _) = setup();
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 10, &mut dram);
        pf.reset();
        assert_eq!(pf.counters(), (0, 0));
        assert!(pf.take_inflight(128).is_none());
    }

    // ---- differential tests against the `BTreeMap` the table replaced ----

    use fabric_types::DetRng;
    use std::collections::BTreeMap;

    /// Seed of the generated sequences below; a failure prints it.
    fn chaos_seed() -> u64 {
        std::env::var("FABRIC_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xFA_B51C)
    }

    /// `n` lines whose home slot in a table of `slots` slots is one of
    /// the last two: their probe runs wrap past the end of the array.
    fn lines_homed_at_the_end(slots: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&l| InflightTable::home(l, slots) >= slots - 2)
            .take(n)
            .collect()
    }

    #[test]
    fn inflight_table_matches_the_map_it_replaced() {
        let seed = chaos_seed();
        let mut rng = DetRng::seed_from_u64(seed ^ 0x1F_7AB1E);
        let mut table = InflightTable::default();
        let mut map: BTreeMap<u64, Cycles> = BTreeMap::new();
        // A universe small enough that inserts, hits and removals all
        // recur: a dense run (what a scan leaves), lines that collide at
        // the end of the smallest table (wrap-around deletion), and lines
        // on both sides of the bitmap bound.
        let mut universe: Vec<u64> = (1000..1400).collect();
        universe.extend(lines_homed_at_the_end(InflightTable::MIN_SLOTS, 12));
        universe.extend(lines_homed_at_the_end(4 * InflightTable::MIN_SLOTS, 12));
        universe.extend([
            BITMAP_LINES - 1,
            BITMAP_LINES,
            BITMAP_LINES + 77,
            u64::MAX >> 6,
        ]);
        for step in 0..60_000u32 {
            let line = universe[rng.gen_range(0..universe.len())];
            let ctx = format!("step {step}, line {line}, replay: FABRIC_CHAOS_SEED={seed}");
            match rng.gen_range(0..100u32) {
                // Phases of mostly-insert and mostly-remove make the table
                // grow through several doublings and drain again.
                0..=54 => {
                    let grow_phase = (step / 5_000) % 2 == 0;
                    if grow_phase == rng.gen_bool(0.8) {
                        let ready = rng.next_u64() >> 8;
                        table.insert(line, ready);
                        map.insert(line, ready);
                    } else {
                        assert_eq!(table.remove(line), map.remove(&line), "remove, {ctx}");
                    }
                }
                55..=98 => {
                    assert_eq!(
                        table.contains(line),
                        map.contains_key(&line),
                        "contains, {ctx}"
                    );
                }
                _ => {
                    if rng.gen_bool(0.05) {
                        table.clear();
                        map.clear();
                    }
                }
            }
            assert_eq!(table.len(), map.len(), "len, {ctx}");
            if step % 997 == 0 {
                for &l in &universe {
                    assert_eq!(
                        table.contains(l),
                        map.contains_key(&l),
                        "sweep of {l}, {ctx}"
                    );
                }
            }
        }
        // Drain through `remove`: every completion time must come back.
        for &l in &universe {
            assert_eq!(table.remove(l), map.remove(&l), "drain of {l}, seed {seed}");
        }
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn removal_from_a_wrapped_probe_run_keeps_the_rest_reachable() {
        // Fill the last two home slots of the smallest table several
        // times over so the run wraps to slot 0, then delete from the
        // front, the middle and the back of the run.
        let lines = lines_homed_at_the_end(InflightTable::MIN_SLOTS, 6);
        for victim in 0..lines.len() {
            let mut table = InflightTable::default();
            for (i, &l) in lines.iter().enumerate() {
                table.insert(l, i as Cycles);
            }
            assert_eq!(table.slots.len(), InflightTable::MIN_SLOTS);
            assert_ne!(table.slots[0].0, EMPTY, "the run must wrap");
            assert_eq!(table.remove(lines[victim]), Some(victim as Cycles));
            for (i, &l) in lines.iter().enumerate() {
                let expect = (i != victim).then_some(i as Cycles);
                assert_eq!(table.contains(l), expect.is_some());
                assert_eq!(table.find(l).map(|s| table.slots[s].1), expect);
            }
        }
    }

    #[test]
    fn table_memory_stays_at_sixteen_bytes_a_slot_under_seven_eighths_load() {
        let mut table = InflightTable::default();
        assert_eq!(table.slots.capacity(), 0, "empty until the first insert");
        for l in 0..28_000u64 {
            table.insert(l, l);
        }
        assert_eq!(size_of::<(u64, Cycles)>(), 16);
        assert_eq!(table.slots.len(), 32_768);
        assert!(table.len() * 8 <= table.slots.len() * 7);
        assert!(table.bits.len() * 8 <= 28_000 / 8 * 2, "one bit a line");
        table.clear();
        assert_eq!(table.slots.capacity() + table.bits.capacity(), 0);
    }

    /// The prefetcher as it was before the in-flight table: identical but
    /// for `inflight: BTreeMap`. Kept as the reference of the trace
    /// differential below.
    struct MapPrefetcher {
        streams: Vec<Stream>,
        capacity: usize,
        degree: u64,
        train: usize,
        tick: u64,
        line_shift: u32,
        inflight: BTreeMap<u64, Cycles>,
        issued: u64,
        useful: u64,
    }

    impl MapPrefetcher {
        fn new(cfg: &SimConfig) -> Self {
            MapPrefetcher {
                streams: Vec::with_capacity(cfg.prefetch_streams),
                capacity: cfg.prefetch_streams,
                degree: cfg.prefetch_degree as u64,
                train: cfg.prefetch_train,
                tick: 0,
                line_shift: cfg.line_size.trailing_zeros(),
                inflight: BTreeMap::new(),
                issued: 0,
                useful: 0,
            }
        }

        fn take_inflight(&mut self, line_addr: u64) -> Option<Cycles> {
            let line = line_addr >> self.line_shift;
            let ready = self.inflight.remove(&line);
            if ready.is_some() {
                self.useful += 1;
            }
            ready
        }

        fn observe(&mut self, line_addr: u64, now: Cycles, dram: &mut DramModel) {
            self.tick += 1;
            let line = line_addr >> self.line_shift;
            let mut matched: Option<usize> = None;
            for (i, s) in self.streams.iter_mut().enumerate() {
                if line == s.next_line {
                    matched = Some(i);
                    break;
                }
                if s.score == 1 && line > s.next_line - s.stride {
                    let delta = line - (s.next_line - s.stride);
                    if delta <= MAX_STRIDE_LINES {
                        s.stride = delta;
                        s.next_line = line;
                        matched = Some(i);
                        break;
                    }
                }
            }
            match matched {
                Some(i) => {
                    let tick = self.tick;
                    let (degree, train) = (self.degree, self.train);
                    let s = &mut self.streams[i];
                    s.score += 1;
                    s.next_line = line + s.stride;
                    s.last_use = tick;
                    if s.score >= train {
                        let target = line + degree * s.stride;
                        let mut next = s.issued_until.max(line + s.stride);
                        let phase_off = (next.wrapping_sub(line)) % s.stride;
                        if phase_off != 0 {
                            next += s.stride - phase_off;
                        }
                        let stride = s.stride;
                        let mut issued_until = s.issued_until;
                        while next <= target {
                            if !self.inflight.contains_key(&next) {
                                let ready = dram.access(next << self.line_shift, now);
                                self.inflight.insert(next, ready);
                                self.issued += 1;
                            }
                            issued_until = issued_until.max(next);
                            next += stride;
                        }
                        self.streams[i].issued_until = issued_until;
                    }
                }
                None => {
                    let tick = self.tick;
                    if self.streams.len() == self.capacity {
                        let victim = (xorshift(tick) as usize) % self.streams.len();
                        self.streams.swap_remove(victim);
                    }
                    self.streams.push(Stream {
                        next_line: line + 1,
                        stride: 1,
                        score: 1,
                        issued_until: line,
                        last_use: tick,
                    });
                }
            }
            if self.inflight.len() > MAX_INFLIGHT {
                self.inflight.clear();
            }
        }

        fn reset(&mut self) {
            self.streams.clear();
            self.inflight.clear();
            self.tick = 0;
            self.issued = 0;
            self.useful = 0;
        }
    }

    /// Both prefetchers, each with its own (identical) DRAM model, driven
    /// the way the hierarchy drives them: take, then observe.
    struct Pair {
        new: (StreamPrefetcher, DramModel),
        old: (MapPrefetcher, DramModel),
    }

    impl Pair {
        fn new() -> Self {
            let cfg = SimConfig::zynq_a53();
            Pair {
                new: (StreamPrefetcher::new(&cfg), DramModel::new(&cfg)),
                old: (MapPrefetcher::new(&cfg), DramModel::new(&cfg)),
            }
        }

        /// One L2-missing access to `line`; returns whether it was a
        /// prefetch hit (the same answer from both, or panic).
        fn access(&mut self, line: u64, now: Cycles, ctx: &dyn std::fmt::Display) -> bool {
            let addr = line << 6;
            let taken = self.new.0.take_inflight(addr);
            assert_eq!(
                taken,
                self.old.0.take_inflight(addr),
                "take_inflight, {ctx}"
            );
            self.new.0.observe(addr, now, &mut self.new.1);
            self.old.0.observe(addr, now, &mut self.old.1);
            taken.is_some()
        }

        fn assert_same_counters(&self, ctx: &dyn std::fmt::Display) {
            let old = (self.old.0.issued, self.old.0.useful);
            assert_eq!(self.new.0.counters(), old, "(issued, useful), {ctx}");
            assert_eq!(self.new.1.counters(), self.old.1.counters(), "dram, {ctx}");
            assert_eq!(
                self.new.0.inflight.len(),
                self.old.0.inflight.len(),
                "in flight, {ctx}"
            );
        }
    }

    #[test]
    fn generated_traces_match_the_map_based_prefetcher() {
        let seed = chaos_seed();
        let mut rng = DetRng::seed_from_u64(seed ^ 0x7_2ACE);
        let mut pair = Pair::new();
        // Cursors are interleaved scans (more of them than stream-table
        // entries, so streams are evicted and re-allocated and their
        // lookahead is left in flight, never demanded); restarts and
        // re-scans of old regions then hit those leftovers.
        let mut cursors: Vec<(u64, u64)> = (0..6).map(|i| (i * 50_000, 1 + i % 3)).collect();
        let mut now: Cycles = 0;
        let (mut hits, mut peak) = (0u64, 0usize);
        for step in 0..120_000u32 {
            let ctx = format!("step {step}, replay: FABRIC_CHAOS_SEED={seed}");
            now += rng.gen_range(1..200u64);
            let active = if step % 20_000 < 10_000 {
                3
            } else {
                cursors.len()
            };
            let c = rng.gen_range(0..active);
            match rng.gen_range(0..1000u32) {
                0..=2 => cursors[c] = (rng.gen_range(0..400_000u64), rng.gen_range(1..=4u64)),
                3 => cursors[c].0 = cursors[c].0.saturating_sub(rng.gen_range(0..3_000u64)),
                4 if rng.gen_bool(0.1) => {
                    pair.new.0.reset();
                    pair.old.0.reset();
                    pair.new.1.reset();
                    pair.old.1.reset();
                }
                _ => {}
            }
            let (line, stride) = cursors[c];
            hits += u64::from(pair.access(line, now, &ctx));
            cursors[c].0 = line + stride;
            peak = peak.max(pair.new.0.inflight.len());
            if step % 1_000 == 0 {
                pair.assert_same_counters(&ctx);
            }
        }
        pair.assert_same_counters(&format!("end, seed {seed}"));
        assert!(
            hits > 10_000,
            "the trace must exercise prefetch hits: {hits}"
        );
        assert!(
            peak > 1_000,
            "the trace must leave never-demanded lines in flight: {peak}"
        );
    }

    #[test]
    fn the_inflight_valve_drops_everything_in_both() {
        // A trained stream whose lookahead is never demanded (`observe`
        // without `take_inflight`) leaks one line per access; past
        // MAX_INFLIGHT entries both versions forget them all at the same
        // access.
        let mut pair = Pair::new();
        let mut dropped_at = None;
        for line in 0..(MAX_INFLIGHT as u64 + 10_000) {
            let before = pair.new.0.inflight.len();
            pair.new.0.observe(line << 6, line, &mut pair.new.1);
            pair.old.0.observe(line << 6, line, &mut pair.old.1);
            let after = pair.new.0.inflight.len();
            assert_eq!(after, pair.old.0.inflight.len(), "line {line}");
            if after < before {
                assert_eq!(dropped_at.replace(before), None, "one drop only");
            }
        }
        assert_eq!(
            dropped_at,
            Some(MAX_INFLIGHT),
            "full to the brim, then one more"
        );
        pair.assert_same_counters(&"valve");
        // Lines prefetched before the drop are gone, later ones are not.
        for line in [5, MAX_INFLIGHT as u64 / 2, MAX_INFLIGHT as u64 + 9_000] {
            pair.access(line, u64::MAX >> 1, &line);
        }
        pair.assert_same_counters(&"after the valve");
    }
}
