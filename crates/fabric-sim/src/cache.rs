//! Set-associative cache model with LRU replacement.
//!
//! Tags only — data lives in the [`crate::arena::MemArena`]; the cache model
//! exists purely to decide hit/miss and therefore latency.

/// A set-associative, LRU, tag-only cache.
///
/// Ways never move. Each set keeps its LRU order as a word of 4-bit way
/// numbers, least recently used in the low nibble, so a fill takes the
/// low nibble as its victim and a hit moves one nibble to the top: a few
/// shifts, where an ordered list of tags moves memory.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Set `s`'s ways are `tags[s * assoc..][..assoc]`; [`VACANT`] marks
    /// a way that holds no line.
    tags: Vec<u64>,
    /// Set `s`'s ways in LRU order: nibble `i` of `order[s]` is the way
    /// used `i`-th least recently, for `i < assoc`. Vacant ways are the
    /// least recent (only a fill makes a way valid, and it becomes the
    /// most recent), so a full set is never scanned for a free way.
    order: Vec<u64>,
    assoc: usize,
    /// Shift of the most recent way's nibble, `4 × (assoc − 1)`.
    top: u32,
    set_mask: u64,
    line_shift: u32,
}

/// Tag of a vacant way: no line-aligned address equals it.
const VACANT: u64 = u64::MAX;

/// Most ways a set can have: one nibble each in a 64-bit order word.
pub const MAX_ASSOC: usize = 16;

/// The way of `ways` holding `line_addr`, if any. Sized `N`, the scan is
/// unrolled; the calibrated L1 and L2 widths (4 and 16) take that path.
#[inline(always)]
fn find<const N: usize>(ways: &[u64], line_addr: u64) -> Option<usize> {
    let ways: &[u64; N] = ways.try_into().expect("a set has N ways");
    ways.iter().position(|&t| t == line_addr)
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `assoc` ways and
    /// `line_size`-byte lines. Capacity must divide into a power-of-two
    /// number of sets, of at most [`MAX_ASSOC`] ways.
    pub fn new(capacity_bytes: usize, assoc: usize, line_size: usize) -> Self {
        assert!(
            (1..=MAX_ASSOC).contains(&assoc),
            "{assoc} ways (must be 1 to {MAX_ASSOC})"
        );
        let num_lines = capacity_bytes / line_size;
        let num_sets = (num_lines / assoc).max(1);
        assert!(
            num_sets.is_power_of_two(),
            "cache with {num_lines} lines / {assoc} ways gives {num_sets} sets (must be a power of two)"
        );
        let mut cache = SetAssocCache {
            tags: vec![VACANT; num_sets * assoc],
            order: vec![0; num_sets],
            assoc,
            top: u32::try_from(4 * (assoc - 1)).expect("at most 16 ways"),
            set_mask: (num_sets - 1) as u64,
            line_shift: line_size.trailing_zeros(),
        };
        cache.flush();
        cache
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) & self.set_mask) as usize
    }

    /// The way of set `set` holding `line_addr`.
    #[inline(always)]
    fn way_of(&self, set: usize, line_addr: u64) -> Option<usize> {
        let ways = &self.tags[set * self.assoc..][..self.assoc];
        match self.assoc {
            4 => find::<4>(ways, line_addr),
            16 => find::<16>(ways, line_addr),
            _ => ways.iter().position(|&t| t == line_addr),
        }
    }

    /// Look up the line containing `line_addr` (must be line aligned).
    /// On hit, refresh LRU position and return `true`.
    #[inline]
    pub fn probe(&mut self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let top = self.top;
        let order = self.order[set];
        // Most hits re-touch the line that is already most recently used
        // (consecutive fields of one row): nothing to reorder then.
        if self.tags[set * self.assoc + (order >> top) as usize] == line_addr {
            return true;
        }
        let Some(way) = self.way_of(set, line_addr) else {
            return false;
        };
        // The lowest nibble equal to `way` (nibbles at `assoc` and above
        // are zero, but `way` occurs below them): zero in `x`, and the
        // lowest zero nibble is the lowest flagged one.
        let x = order ^ (way as u64 * 0x1111_1111_1111_1111);
        let flags = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
        let at = flags.trailing_zeros() & !3;
        // `at < top` (`way` is not the most recent): the nibbles above
        // `at` move down one, `way` goes on top.
        let below = order & ((1 << at) - 1);
        let above = (order >> (at + 4)) << at;
        self.order[set] = below | above | ((way as u64) << top);
        true
    }

    /// Install the line containing `line_addr`, evicting the LRU way if the
    /// set is full. Returns the evicted line address, if any.
    pub fn fill(&mut self, line_addr: u64) -> Option<u64> {
        if self.contains(line_addr) {
            return None; // already present
        }
        self.fill_missed(line_addr)
    }

    /// [`Self::fill`] for a line that [`Self::probe`] has just missed,
    /// with nothing touching its set since: the line is known absent, so
    /// the set is not scanned for it again.
    #[inline]
    pub fn fill_missed(&mut self, line_addr: u64) -> Option<u64> {
        let set = self.set_of(line_addr);
        debug_assert!(
            self.way_of(set, line_addr).is_none(),
            "fill_missed of a cached line"
        );
        let order = self.order[set];
        let way = order & 0xF;
        self.order[set] = (order >> 4) | (way << self.top);
        let evicted = std::mem::replace(&mut self.tags[set * self.assoc + way as usize], line_addr);
        (evicted != VACANT).then_some(evicted)
    }

    /// Check for presence without updating LRU.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.way_of(self.set_of(line_addr), line_addr).is_some()
    }

    /// Drop every cached line (e.g. between experiments).
    pub fn flush(&mut self) {
        self.tags.fill(VACANT);
        let identity = (0..self.assoc as u64).fold(0, |o, w| o | w << (4 * w));
        self.order.fill(identity);
    }

    /// Number of sets (for tests / introspection).
    pub fn num_sets(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_of_l1() {
        // 32 KB, 4-way, 64 B lines -> 128 sets.
        let c = SetAssocCache::new(32 * 1024, 4, 64);
        assert_eq!(c.num_sets(), 128);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        assert!(!c.probe(0));
        c.fill(0);
        assert!(c.probe(0));
        assert!(!c.probe(64), "a different line still misses");
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way: fill A, B (same set), touch A, fill C -> B evicted.
        let mut c = SetAssocCache::new(2 * 64, 2, 64); // 1 set, 2 ways
        assert_eq!(c.num_sets(), 1);
        c.fill(0);
        c.fill(64);
        assert!(c.probe(0)); // A is now MRU
        let evicted = c.fill(128);
        assert_eq!(evicted, Some(64)); // B was LRU
        assert!(c.contains(0));
        assert!(c.contains(128));
        assert!(!c.contains(64));
    }

    #[test]
    fn fill_existing_line_is_noop() {
        let mut c = SetAssocCache::new(2 * 64, 2, 64);
        c.fill(0);
        assert_eq!(c.fill(0), None);
        c.fill(64);
        // Set is full but refilling an existing line must not evict.
        assert_eq!(c.fill(64), None);
        assert!(c.contains(0) && c.contains(64));
    }

    #[test]
    fn fill_missed_after_a_miss_equals_fill() {
        // 2 sets × 2 ways; the trace re-touches, evicts and re-fills.
        let mut a = SetAssocCache::new(4 * 64, 2, 64);
        let mut b = a.clone();
        for line in [0u64, 128, 64, 256, 0, 384, 128, 192, 0, 64] {
            let hit = a.probe(line);
            assert_eq!(b.probe(line), hit);
            if !hit {
                assert_eq!(a.fill(line), b.fill_missed(line), "evicted by {line}");
            }
        }
        for line in [0u64, 64, 128, 192, 256, 384] {
            assert_eq!(a.contains(line), b.contains(line), "line {line}");
        }
    }

    #[test]
    fn every_width_evicts_as_an_lru_list_does() {
        // The calibrated widths take the unrolled scans, the others the
        // generic one; all must keep the order a list of tags, least
        // recently used first, keeps.
        let seed = fabric_types::rng::chaos_seed();
        let mut rng = fabric_types::DetRng::seed_from_u64(seed ^ 0x1_2C);
        for assoc in 1..=MAX_ASSOC {
            let sets = 4;
            let mut cache = SetAssocCache::new(sets * assoc * 64, assoc, 64);
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sets];
            // A universe a little larger than the cache: hits, misses and
            // evictions all recur.
            let universe = (sets * assoc + sets * 2) as u64;
            for step in 0..4_000 {
                let line = rng.gen_range(0..universe) * 64;
                let ctx = format!("{assoc} ways, step {step}, seed {seed}");
                let list = &mut lists[(line / 64 % sets as u64) as usize];
                let pos = list.iter().position(|&t| t == line);
                assert_eq!(cache.contains(line), pos.is_some(), "contains, {ctx}");
                if rng.gen_bool(0.02) {
                    cache.flush();
                    lists.iter_mut().for_each(Vec::clear);
                    continue;
                }
                assert_eq!(cache.probe(line), pos.is_some(), "probe, {ctx}");
                match pos {
                    Some(i) => {
                        let tag = list.remove(i);
                        list.push(tag);
                    }
                    None => {
                        let evicted = (list.len() == assoc).then(|| list.remove(0));
                        list.push(line);
                        assert_eq!(cache.fill_missed(line), evicted, "evicted, {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssocCache::new(4 * 64, 2, 64); // 2 sets, 2 ways
        assert_eq!(c.num_sets(), 2);
        // Lines 0 and 64 go to different sets.
        c.fill(0);
        c.fill(64);
        c.fill(128); // same set as 0
        c.fill(256); // same set as 0 -> evicts 0 (LRU)
        assert!(!c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        c.fill(0);
        c.fill(64);
        c.flush();
        assert!(!c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        // 16 lines. Stream 64 distinct lines twice; the second pass must
        // still miss (capacity misses), since the working set is 4x the
        // capacity.
        let mut c = SetAssocCache::new(1024, 2, 64);
        let mut hits = 0;
        for _pass in 0..2 {
            for i in 0..64u64 {
                if c.probe(i * 64) {
                    hits += 1;
                } else {
                    c.fill(i * 64);
                }
            }
        }
        assert_eq!(hits, 0);
    }
}
