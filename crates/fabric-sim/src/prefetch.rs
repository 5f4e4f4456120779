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
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Stream {
    /// Line index (not byte address) expected next.
    next_line: u64,
    /// Stride in lines (>= 1; ascending streams only).
    stride: u64,
    /// Consecutive confirmations; prefetch starts at `train`.
    score: usize,
    /// Highest line index already sent to DRAM for this stream. Always
    /// congruent to every line the stream matches, modulo `stride`: it
    /// starts as the allocating line, which the stride lock at the second
    /// access measures from; after that `stride` never changes, matched
    /// lines step by it, and issues only raise it to such lines.
    issued_until: u64,
}

/// Safety valve: if the in-flight set ever exceeds this many entries the
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

/// `x % n` for `n > 0`, without a division when `n` is a power of two
/// (the calibrated stream table has four entries).
#[inline]
fn reduce(x: u64, n: usize) -> usize {
    if n.is_power_of_two() {
        (x & (n as u64 - 1)) as usize
    } else {
        (x % n as u64) as usize
    }
}

/// Lines below this bound (4 GiB of 64-byte lines, the default arena
/// limit) get a membership bit; the bitmap therefore never exceeds 8 MiB
/// however wild an address a caller passes. Lines above it live in a
/// map of their own.
const BITMAP_LINES: u64 = 1 << 26;

/// Lines per page: one bitmap word.
const PAGE_LINES: usize = 64;

/// `page_of` / `Page::word` marker for "none".
const NO_PAGE: u32 = u32::MAX;

/// Pages a store may hold before an allocation first sweeps for
/// recyclable ones.
const MIN_SWEEP: usize = 8;

/// Completion times of the lines of one bitmap word that may still lie
/// in the owning core's future.
#[derive(Debug, Clone)]
struct Page {
    /// Bitmap word this page serves, [`NO_PAGE`] while on the free list.
    word: u32,
    /// Bit `i` set iff `ready[i]` belongs to line `64 × word + i`.
    valid: u64,
    /// Upper bound of every `ready[i]` written since the page was taken
    /// off the free list.
    max_ready: Cycles,
    ready: [Cycles; PAGE_LINES],
}

/// The prefetcher's in-flight set: `line → ready`, answered as
/// `max(ready, now)`.
///
/// Lines that are prefetched and never demanded are never retired (a
/// later access to one is a prefetch hit — model behaviour), so the set
/// holds tens of thousands of members. Almost all of them were issued
/// long ago, and the hierarchy uses a completion time only to wait for
/// it (DESIGN.md §22): once the owning core's clock — which only moves
/// forward — has passed it, "ready now" is the whole answer. So
/// membership is one bit per line, and completion times live in pages
/// of [`PAGE_LINES`] lines that return to a free list as soon as their
/// latest time has passed. The store holds the live lookahead, not
/// every stale line. Nothing iterates it but the sweep, which only
/// releases pages, so no result can depend on page order.
#[derive(Debug, Default)]
struct InflightStore {
    /// Bit `l % 64` of word `l / 64` is set iff line `l` is in the set
    /// (lines below [`BITMAP_LINES`] only); grown on insert.
    bits: Vec<u64>,
    /// Page of each bitmap word, [`NO_PAGE`] when every member of the
    /// word is ready; as long as `bits`.
    page_of: Vec<u32>,
    pages: Vec<Page>,
    /// Indices of the pages that serve no word.
    free: Vec<u32>,
    /// Allocating with `pages.len()` at or above this sweeps first.
    sweep_at: usize,
    /// Members at or above [`BITMAP_LINES`], with exact times.
    far: BTreeMap<u64, Cycles>,
    len: usize,
}

impl InflightStore {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        if line < BITMAP_LINES {
            self.bits
                .get((line / 64) as usize)
                .is_some_and(|w| w & (1 << (line % 64)) != 0)
        } else {
            self.far.contains_key(&line)
        }
    }

    /// Insert or overwrite `line`'s completion time; `now` is the owning
    /// core's clock.
    #[inline]
    fn insert(&mut self, line: u64, ready: Cycles, now: Cycles) {
        if line >= BITMAP_LINES {
            if self.far.insert(line, ready).is_none() {
                self.len += 1;
            }
            return;
        }
        let word = (line / 64) as usize;
        if word >= self.bits.len() {
            let words = (word + 1).next_power_of_two();
            self.bits.resize(words, 0);
            self.page_of.resize(words, NO_PAGE);
        }
        let bit = 1 << (line % 64);
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.len += 1;
        }
        let mut p = self.page_of[word];
        if p == NO_PAGE {
            p = self.alloc_page(word, now);
        }
        let page = &mut self.pages[p as usize];
        page.ready[(line % 64) as usize] = ready;
        page.valid |= bit;
        page.max_ready = page.max_ready.max(ready);
    }

    /// Remove `line`, returning `max(ready, now)` if it was present.
    #[inline]
    fn take(&mut self, line: u64, now: Cycles) -> Option<Cycles> {
        if line >= BITMAP_LINES {
            let ready = self.far.remove(&line)?;
            self.len -= 1;
            return Some(ready.max(now));
        }
        let word = (line / 64) as usize;
        let bit = 1 << (line % 64);
        let bits = self.bits.get_mut(word)?;
        if *bits & bit == 0 {
            return None;
        }
        *bits &= !bit;
        self.len -= 1;
        let p = self.page_of[word];
        if p == NO_PAGE {
            return Some(now);
        }
        let page = &mut self.pages[p as usize];
        let mut ready = now;
        if page.valid & bit != 0 {
            page.valid &= !bit;
            ready = ready.max(page.ready[(line % 64) as usize]);
        }
        if page.valid == 0 || page.max_ready <= now {
            self.release(p);
        }
        Some(ready)
    }

    /// A page for `word`, from the free list when it has one. An empty
    /// free list at [`Self::sweep_at`] pages first recycles every page
    /// whose times have all passed, then lets the pool grow to twice
    /// what is still live before the next sweep (O(1) amortised).
    fn alloc_page(&mut self, word: usize, now: Cycles) -> u32 {
        if self.free.is_empty() && self.pages.len() >= self.sweep_at {
            for p in 0..self.pages.len() as u32 {
                let page = &self.pages[p as usize];
                if page.word != NO_PAGE && page.max_ready <= now {
                    self.release(p);
                }
            }
            self.sweep_at = (2 * (self.pages.len() - self.free.len())).max(MIN_SWEEP);
        }
        let p = self.free.pop().unwrap_or_else(|| {
            self.pages.push(Page {
                word: NO_PAGE,
                valid: 0,
                max_ready: 0,
                ready: [0; PAGE_LINES],
            });
            (self.pages.len() - 1) as u32
        });
        let page = &mut self.pages[p as usize];
        page.word = word as u32;
        page.valid = 0;
        page.max_ready = 0;
        self.page_of[word] = p;
        p
    }

    /// Return page `p` to the free list; its word's members, if any, are
    /// ready from now on.
    #[inline]
    fn release(&mut self, p: u32) {
        let page = &mut self.pages[p as usize];
        self.page_of[page.word as usize] = NO_PAGE;
        page.word = NO_PAGE;
        self.free.push(p);
    }

    /// Drop every entry, keeping the buffers.
    fn clear(&mut self) {
        self.bits.fill(0);
        for p in 0..self.pages.len() as u32 {
            if self.pages[p as usize].word != NO_PAGE {
                self.release(p);
            }
        }
        self.far.clear();
        self.len = 0;
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
    inflight: InflightStore,
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
            inflight: InflightStore::default(),
            issued: 0,
            useful: 0,
        }
    }

    /// If a prefetch for this line is in flight, consume it and return
    /// when its data is there as seen from `now`, the owning core's
    /// clock: `max(completion, now)`. The clock only moves forward, and
    /// the hierarchy only waits for the answer, so that is all a
    /// completion time can tell it (DESIGN.md §22).
    #[inline]
    pub fn take_inflight(&mut self, line_addr: u64, now: Cycles) -> Option<Cycles> {
        let ready = self.inflight.take(line_addr >> self.line_shift, now);
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
                let (degree, train) = (self.degree, self.train);
                let s = &mut self.streams[i];
                s.score += 1;
                s.next_line = line + s.stride;
                if s.score >= train {
                    // Keep `degree` lines of lookahead in flight. `next`
                    // is on the stream's phase (`issued_until` is, see
                    // the field), so no rounding is needed.
                    let target = line + degree * s.stride;
                    let mut next = s.issued_until.max(line + s.stride);
                    debug_assert_eq!((next - line) % s.stride, 0, "off the stream's phase");
                    let stride = s.stride;
                    let mut issued_until = s.issued_until;
                    while next <= target {
                        if !self.inflight.contains(next) {
                            let ready = dram.access(next << self.line_shift, now);
                            self.inflight.insert(next, ready, now);
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
                if self.streams.len() == self.capacity {
                    // Pseudo-random replacement, like the Cortex-A53's
                    // caches: with N interleaved streams and a smaller
                    // table, a fraction of streams survives each round, so
                    // prefetch coverage degrades gradually — adversarial
                    // LRU would collapse to zero coverage at N+1 streams.
                    let victim = reduce(xorshift(self.tick), self.capacity);
                    self.streams.swap_remove(victim);
                }
                self.streams.push(Stream {
                    next_line: line + 1,
                    stride: 1,
                    score: 1,
                    issued_until: line,
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

    /// Pages the in-flight store has allocated (its memory high-water
    /// mark, in [`PAGE_LINES`]-line pages).
    #[cfg(test)]
    pub(crate) fn pages_held(&self) -> usize {
        self.inflight.pages.len()
    }
}

/// The reference the store is checked against, shared with
/// `tests/line_path_reference.rs`.
#[cfg(test)]
#[path = "../../../tests/support/map_prefetcher.rs"]
mod map_prefetcher;

#[cfg(test)]
mod tests {
    use super::map_prefetcher::MapPrefetcher;
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
        assert!(pf.take_inflight(128, 100).is_some());
    }

    #[test]
    fn strided_stream_locks_stride() {
        let (mut pf, mut dram, _) = setup();
        // Stride of 2 lines (a 128-byte-row scan).
        pf.observe(0, 0, &mut dram);
        pf.observe(128, 100, &mut dram);
        pf.observe(256, 200, &mut dram);
        assert!(
            pf.take_inflight(384, 200).is_some(),
            "stride-2 line should be prefetched"
        );
        // Lines between the stride must NOT be prefetched.
        assert!(pf.take_inflight(320, 200).is_none());
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
                pf.take_inflight(b + 4 * 64, now).is_some(),
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
        assert!(pf.take_inflight(128, 10).is_some());
        assert!(pf.take_inflight(128, 10).is_none());
    }

    #[test]
    fn reset_clears_counters_and_streams() {
        let (mut pf, mut dram, _) = setup();
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 10, &mut dram);
        pf.reset();
        assert_eq!(pf.counters(), (0, 0));
        assert!(pf.take_inflight(128, 10).is_none());
    }

    #[test]
    fn a_page_is_recycled_only_once_its_last_completion_has_passed() {
        let mut store = InflightStore::default();
        // Three lines of word 1, due at 500, 900 and 700; one, due at
        // 300, in word 2.
        store.insert(64, 500, 0);
        store.insert(65, 900, 0);
        store.insert(66, 700, 0);
        store.insert(128, 300, 0);
        assert_eq!(store.pages.len(), 2);
        // Taken early, a line waits for its own time, not the page's.
        assert_eq!(store.take(64, 100), Some(500));
        assert_eq!(store.page_of[1], 0, "900 is still ahead");
        // Past a page's last time, the next take on it frees the page ...
        assert_eq!(store.take(128, 400), Some(400));
        assert_eq!((store.page_of[2], store.free.clone()), (NO_PAGE, vec![1]));
        // ... which the next word to need one reuses.
        store.insert(197, 1500, 400);
        assert_eq!((store.pages.len(), store.page_of[3]), (2, 1));
        assert_eq!(store.take(65, 950), Some(950));
        assert_eq!(store.page_of[1], NO_PAGE);
        // A member whose page went away is ready now.
        assert_eq!(store.take(66, 950), Some(950));
        assert_eq!(store.len(), 1);
        // Eight words in flight fill the pool; the ninth sweeps it, which
        // frees the words due by now and keeps the rest.
        for w in 0..MIN_SWEEP as u64 {
            store.insert(w * 64 + 3, 2000 + w * 100, 1000);
        }
        assert_eq!(store.pages.len(), MIN_SWEEP);
        store.insert(MIN_SWEEP as u64 * 64, 5000, 2350);
        assert_eq!(store.pages.len(), MIN_SWEEP, "swept, not grown");
        assert_eq!(store.page_of[..4], [NO_PAGE; 4]);
        assert_eq!(store.take(3, 2350), Some(2350));
        assert_eq!(store.take(197, 2350), Some(2350));
        assert_eq!(store.take(7 * 64 + 3, 2350), Some(2700));
        assert_eq!(store.take(MIN_SWEEP as u64 * 64, 2350), Some(5000));
        // `clear` keeps the buffers and frees every page.
        store.clear();
        assert_eq!(store.free.len(), store.pages.len());
        assert!(store.pages.len() <= MIN_SWEEP + 1);
        assert!(store.page_of.iter().all(|&p| p == NO_PAGE));
        assert_eq!(store.take(5 * 64 + 3, 5000), None);
    }

    // ---- differential tests against the `BTreeMap` prefetcher ----

    use fabric_types::DetRng;

    /// Seed of the generated sequences below; a failure prints it.
    fn chaos_seed() -> u64 {
        fabric_types::rng::chaos_seed()
    }

    #[test]
    fn inflight_table_matches_the_map_it_replaced() {
        // The store answers `max(ready, now)` under a clock that only
        // moves forward; the map keeps every time exactly.
        let seed = chaos_seed();
        let mut rng = DetRng::seed_from_u64(seed ^ 0x1F_7AB1E);
        let mut store = InflightStore::default();
        let mut map: BTreeMap<u64, Cycles> = BTreeMap::new();
        // A universe small enough that inserts, hits and removals all
        // recur: a dense run (what a scan leaves), lines scattered over
        // many words (page churn and sweeps), and lines on both sides of
        // the bitmap bound.
        let mut universe: Vec<u64> = (1000..1400).collect();
        universe.extend((0..40u64).map(|w| 5_000 + w * 64 + w % 7));
        universe.extend([
            BITMAP_LINES - 1,
            BITMAP_LINES,
            BITMAP_LINES + 77,
            u64::MAX >> 6,
        ]);
        let mut now: Cycles = 0;
        for step in 0..60_000u32 {
            let line = universe[rng.gen_range(0..universe.len())];
            let ctx = format!("step {step}, line {line}, replay: FABRIC_CHAOS_SEED={seed}");
            if rng.gen_bool(0.3) {
                now += rng.gen_range(0..400u64);
            }
            match rng.gen_range(0..100u32) {
                // Phases of mostly-insert and mostly-take make the set
                // grow and drain again.
                0..=54 => {
                    let grow_phase = (step / 5_000) % 2 == 0;
                    if grow_phase == rng.gen_bool(0.8) {
                        let ready = now + rng.gen_range(0..3_000u64);
                        store.insert(line, ready, now);
                        map.insert(line, ready);
                    } else {
                        assert_eq!(
                            store.take(line, now),
                            map.remove(&line).map(|r| r.max(now)),
                            "take, {ctx}"
                        );
                    }
                }
                55..=98 => {
                    assert_eq!(
                        store.contains(line),
                        map.contains_key(&line),
                        "contains, {ctx}"
                    );
                }
                _ => {
                    if rng.gen_bool(0.05) {
                        store.clear();
                        map.clear();
                    }
                }
            }
            assert_eq!(store.len(), map.len(), "len, {ctx}");
            if step % 997 == 0 {
                for &l in &universe {
                    assert_eq!(
                        store.contains(l),
                        map.contains_key(&l),
                        "sweep of {l}, {ctx}"
                    );
                }
            }
        }
        // Drain through `take`: every completion time must come back.
        for &l in &universe {
            assert_eq!(
                store.take(l, now),
                map.remove(&l).map(|r| r.max(now)),
                "drain of {l}, seed {seed}"
            );
        }
        assert_eq!(store.len(), 0);
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

        /// One L2-missing access to `line` at `now`; returns whether it
        /// was a prefetch hit (the same answer from both, or panic).
        fn access(&mut self, line: u64, now: Cycles, ctx: &dyn std::fmt::Display) -> bool {
            let addr = line << 6;
            let taken = self.new.0.take_inflight(addr, now);
            assert_eq!(
                taken,
                self.old.0.take_inflight(addr).map(|r| r.max(now)),
                "take_inflight, {ctx}"
            );
            self.new.0.observe(addr, now, &mut self.new.1);
            self.old.0.observe(addr, now, &mut self.old.1);
            taken.is_some()
        }

        fn assert_same_counters(&self, ctx: &dyn std::fmt::Display) {
            assert_eq!(
                self.new.0.counters(),
                self.old.0.counters(),
                "(issued, useful), {ctx}"
            );
            assert_eq!(self.new.1.counters(), self.old.1.counters(), "dram, {ctx}");
            assert_eq!(
                self.new.0.inflight.len(),
                self.old.0.len(),
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
        assert!(
            pair.new.0.pages_held() < 64,
            "pages hold the live lookahead only: {}",
            pair.new.0.pages_held()
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
            assert_eq!(after, pair.old.0.len(), "line {line}");
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
