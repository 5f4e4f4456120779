//! Property-based tests of the simulator substrate: the reproduction's
//! conclusions are only as good as the hierarchy model, so its invariants
//! get the same adversarial treatment as the data structures.
//!
//! Generated from `FABRIC_CHAOS_SEED`; a failing case prints the seed
//! and its index.

use fabric_sim::{MemoryHierarchy, SetAssocCache, SimConfig};
use fabric_types::rng::for_each_case;

mod support;
use support::check_gather_and_serial_agree;

/// A shadow model of one LRU set: a vector of tags, MRU last.
#[derive(Default)]
struct ShadowSet {
    ways: Vec<u64>,
    assoc: usize,
}

impl ShadowSet {
    fn probe(&mut self, tag: u64) -> bool {
        if let Some(pos) = self.ways.iter().position(|&t| t == tag) {
            let t = self.ways.remove(pos);
            self.ways.push(t);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, tag: u64) {
        if self.ways.contains(&tag) {
            return;
        }
        if self.ways.len() == self.assoc {
            self.ways.remove(0);
        }
        self.ways.push(tag);
    }
}

/// The cache agrees with a straightforward LRU shadow model under any
/// access sequence confined to one set.
#[test]
fn cache_matches_lru_shadow_model() {
    for_each_case("cache matches lru shadow model", |rng| {
        // One set, 4 ways; lines 0..12 all map to set 0 of a 4x64-line,
        // single-set configuration.
        let mut cache = SetAssocCache::new(4 * 64, 4, 64);
        assert_eq!(cache.num_sets(), 1);
        let mut shadow = ShadowSet {
            ways: Vec::new(),
            assoc: 4,
        };
        for _ in 0..rng.gen_range(1..300usize) {
            let (line, do_fill) = (rng.gen_range(0..12u64), rng.gen_bool(0.5));
            let addr = line * 64;
            let hit = cache.probe(addr);
            let shadow_hit = shadow.probe(addr);
            assert_eq!(hit, shadow_hit, "probe divergence on line {line}");
            if !hit && do_fill {
                cache.fill(addr);
                shadow.fill(addr);
            }
        }
    });
}

/// Simulated time is monotone and every read returns the bytes that
/// were last written, regardless of the access pattern.
#[test]
fn hierarchy_time_monotone_and_data_correct() {
    for_each_case("hierarchy time monotone and data correct", |rng| {
        let mut mem = MemoryHierarchy::new(SimConfig::tiny());
        let base = mem.alloc(64 * 64, 64).unwrap();
        let mut shadow = vec![0u8; 64 * 64];
        let mut last_now = mem.now();
        for _ in 0..rng.gen_range(1..100usize) {
            let (slot, byte) = (rng.gen_range(0..64u64), rng.next_u64() as u8);
            let addr = base + slot * 64;
            mem.write(addr, &[byte; 64]);
            shadow[(slot * 64) as usize..(slot * 64 + 64) as usize].fill(byte);
            assert!(mem.now() >= last_now);
            last_now = mem.now();
        }
        for slot in 0..64u64 {
            let got = mem.read(base + slot * 64, 64).to_vec();
            assert_eq!(
                &got[..],
                &shadow[(slot * 64) as usize..(slot * 64 + 64) as usize]
            );
        }
        assert!(mem.now() > 0);
    });
}

/// `support::check_gather_and_serial_agree` on generated spans.
#[test]
fn gather_and_serial_reads_agree_on_traffic() {
    for_each_case("gather and serial reads agree on traffic", |rng| {
        let spans: Vec<(u64, usize)> = (0..rng.gen_range(1..20usize))
            .map(|_| (rng.gen_range(0..256u64), rng.gen_range(1..32usize)))
            .collect();
        check_gather_and_serial_agree(&spans);
    });
}

/// Flushing the caches never changes data, only timing.
#[test]
fn flush_is_timing_only() {
    for_each_case("flush is timing only", |rng| {
        let values: Vec<u8> = (0..rng.gen_range(64..256usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut mem = MemoryHierarchy::new(SimConfig::tiny());
        let base = mem.alloc(values.len(), 64).unwrap();
        mem.write_untimed(base, &values);
        let before = mem.read(base, values.len()).to_vec();
        mem.flush_caches();
        let after = mem.read(base, values.len()).to_vec();
        assert_eq!(before, after);
        assert_eq!(before, values);
    });
}
