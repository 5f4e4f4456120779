//! Set-associative cache model with LRU replacement.
//!
//! Tags only — data lives in the [`crate::arena::MemArena`]; the cache model
//! exists purely to decide hit/miss and therefore latency.

/// A set-associative, LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `sets[s]` holds up to `assoc` line addresses, most recently used last.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `assoc` ways and
    /// `line_size`-byte lines. Capacity must divide into a power-of-two
    /// number of sets.
    pub fn new(capacity_bytes: usize, assoc: usize, line_size: usize) -> Self {
        assert!(assoc >= 1);
        let num_lines = capacity_bytes / line_size;
        let num_sets = (num_lines / assoc).max(1);
        assert!(
            num_sets.is_power_of_two(),
            "cache with {num_lines} lines / {assoc} ways gives {num_sets} sets (must be a power of two)"
        );
        SetAssocCache {
            sets: vec![Vec::with_capacity(assoc); num_sets],
            assoc,
            set_mask: (num_sets - 1) as u64,
            line_shift: line_size.trailing_zeros(),
        }
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Look up the line containing `line_addr` (must be line aligned).
    /// On hit, refresh LRU position and return `true`.
    #[inline]
    pub fn probe(&mut self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let ways = &mut self.sets[set];
        // Most hits re-touch the line that is already most recently used
        // (consecutive fields of one row): nothing to reorder then.
        if ways.last() == Some(&line_addr) {
            return true;
        }
        if let Some(pos) = ways.iter().position(|&t| t == line_addr) {
            ways[pos..].rotate_left(1);
            true
        } else {
            false
        }
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
        let ways = &mut self.sets[set];
        debug_assert!(!ways.contains(&line_addr), "fill_missed of a cached line");
        let evicted = if ways.len() == self.assoc {
            Some(ways.remove(0))
        } else {
            None
        };
        ways.push(line_addr);
        evicted
    }

    /// Check for presence without updating LRU.
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        self.sets[set].contains(&line_addr)
    }

    /// Drop every cached line (e.g. between experiments).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of sets (for tests / introspection).
    pub fn num_sets(&self) -> usize {
        self.sets.len()
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
