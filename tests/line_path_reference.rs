//! The optimised line path against a naive reference (ROADMAP item 2(b),
//! first half; DESIGN.md §22).
//!
//! `support::ref_hierarchy::RefHierarchy` is the same memory model with
//! none of the host-side work: `Vec`-per-set LRU caches and the
//! map-based prefetcher that keeps every completion time exactly, where
//! `MemoryHierarchy` has caches whose ways stay put under a per-set word
//! of LRU order (scans unrolled at the calibrated 4 and 16 ways) and an
//! in-flight store that forgets completion times once they have passed.
//! Cache widths are drawn from 1 to 16 ways. Generated traces —
//! ROW-shaped strided rows with one to four spans, COL-shaped lockstep
//! spans, four-stream gathers, random lines (some above the in-flight
//! bitmap), re-scans of old regions, long stalls, and flushes while
//! streams on a narrow DRAM have completions far in the future — drive
//! both at 1, 2 and 4 cores (`FABRIC_PAR_CORES`), and after every
//! operation every core's `MemStats` and clock must be identical.
//!
//! ```text
//! FABRIC_CHAOS_SEED=12345 cargo test --test line_path_reference
//! ```

use fabric_sim::{MemStats, MemoryHierarchy, SimConfig};
use fabric_types::rng::for_each_case;
use fabric_types::DetRng;

mod support;
use support::ref_hierarchy::RefHierarchy;

/// One call on the hierarchy's public surface.
#[derive(Debug, Clone)]
enum Op {
    Read(u64, usize),
    Write(u64, usize),
    Gather(Vec<(u64, usize)>),
    Cpu(u64),
    CpuVector(u64, u64),
    /// `stall_until(now + d)` on the active core.
    Stall(u64),
    /// `stall_retry_until(now + d)` on the active core.
    StallRetry(u64),
    Active(usize),
    Fork,
    Join,
    Flush,
    Cores(usize),
}

/// Byte address of a line far above the in-flight bitmap (lines ≥ 2^26).
const FAR: u64 = 1 << 33;

/// The configurations a case runs under: the calibrated one, small
/// caches (more misses and evictions per line), and a narrow DRAM with
/// deep lookahead, whose bank queues push completion times far ahead of
/// the clock. Half of the small-cache ones redraw both caches' widths:
/// the calibrated 4 and 16 ways, which the cache scans unrolled, and
/// others (1, 2, 3, 8), which take its generic scan, over a power-of-two
/// number of sets.
fn config(rng: &mut DetRng) -> SimConfig {
    let cfg = match rng.gen_range(0..4u32) {
        0 => SimConfig::zynq_a53(),
        1 => SimConfig::tiny(),
        2 => SimConfig {
            dram_banks: 1 << rng.gen_range(0..2u32),
            prefetch_degree: 32,
            ..SimConfig::tiny()
        },
        _ => SimConfig {
            prefetch_streams: rng.gen_range(1..=6usize),
            prefetch_degree: rng.gen_range(1..=24usize),
            prefetch_train: rng.gen_range(1..=3usize),
            dram_banks: 1 << rng.gen_range(0..5u32),
            ..SimConfig::tiny()
        },
    };
    if cfg.l1_bytes == SimConfig::tiny().l1_bytes && rng.gen_bool(0.5) {
        const WAYS: [usize; 6] = [1, 2, 3, 4, 8, 16];
        let l1_assoc = WAYS[rng.gen_range(0..WAYS.len())];
        let l2_assoc = WAYS[rng.gen_range(1..WAYS.len())];
        return SimConfig {
            l1_assoc,
            l1_bytes: (4 << rng.gen_range(0..3u32)) * l1_assoc * cfg.line_size,
            l2_assoc,
            l2_bytes: (32 << rng.gen_range(0..3u32)) * l2_assoc * cfg.line_size,
            ..cfg
        };
    }
    cfg
}

/// The first byte of a random 64-line word (one page of the in-flight
/// store), well away from the regions `trace` scans otherwise.
fn fresh_word(rng: &mut DetRng) -> u64 {
    (1 << 26) + rng.gen_range(0..1u64 << 12) * 64 * 64
}

/// A trace of `bursts` access patterns, each on one core, for a
/// hierarchy of `cores` cores.
fn trace(rng: &mut DetRng, cfg: &SimConfig, cores: usize, bursts: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    // Regions scanned so far, for re-scans; the first few are fresh.
    let mut regions: Vec<u64> = Vec::new();
    let region = |rng: &mut DetRng, regions: &mut Vec<u64>| {
        if !regions.is_empty() && rng.gen_bool(0.3) {
            regions[rng.gen_range(0..regions.len())]
        } else {
            let base = match rng.gen_range(0..16u32) {
                0 => FAR + rng.gen_range(0..1u64 << 20) * 64,
                _ => rng.gen_range(0..1u64 << 18) * 64,
            };
            regions.push(base);
            base
        }
    };
    for _ in 0..bursts {
        if cores > 1 {
            match rng.gen_range(0..8u32) {
                0 => ops.push(Op::Fork),
                1 => ops.push(Op::Join),
                2 if rng.gen_bool(0.2) => ops.push(Op::Cores(rng.gen_range(1..=cores))),
                _ => {}
            }
            ops.push(Op::Active(rng.gen_range(0..cores)));
        }
        match rng.gen_range(0..9u32) {
            // ROW: strided rows, one to four spans each.
            0 | 1 => {
                let base = region(rng, &mut regions);
                let width = rng.gen_range(16..=256u64);
                let spans: Vec<(u64, usize)> = (0..rng.gen_range(1..=4usize))
                    .map(|_| {
                        let off = rng.gen_range(0..width);
                        (off, rng.gen_range(1..=(width - off).min(64) as usize))
                    })
                    .collect();
                let first = rng.gen_range(0..64u64);
                for r in first..first + rng.gen_range(8..160u64) {
                    let row = base + r * width;
                    match spans.as_slice() {
                        [(off, len)] => ops.push(Op::Read(row + off, *len)),
                        many => ops.push(Op::Gather(
                            many.iter().map(|&(off, len)| (row + off, len)).collect(),
                        )),
                    }
                    if rng.gen_bool(0.3) {
                        ops.push(Op::Cpu(rng.gen_range(0..40u64)));
                    }
                }
            }
            // COL: lockstep spans of one to eight columns.
            2 | 3 => {
                let cols: Vec<(u64, u64)> = (0..rng.gen_range(1..=8usize))
                    .map(|_| (region(rng, &mut regions), 1 << rng.gen_range(0..4u32)))
                    .collect();
                let batch = rng.gen_range(4..=128u64);
                for b in 0..rng.gen_range(1..12u64) {
                    for &(base, w) in &cols {
                        ops.push(Op::Read(base + b * batch * w, (batch * w) as usize));
                    }
                    ops.push(Op::CpuVector(batch, rng.gen_range(0..4u64)));
                }
            }
            // Four independent streams gathered together.
            4 => {
                let mut cursors: Vec<u64> = (0..4).map(|_| region(rng, &mut regions)).collect();
                for _ in 0..rng.gen_range(4..64u32) {
                    let parts = cursors
                        .iter_mut()
                        .map(|c| {
                            let len = rng.gen_range(1..=96usize);
                            let at = *c;
                            *c += len as u64 + rng.gen_range(0..64u64);
                            (at, len)
                        })
                        .collect();
                    ops.push(Op::Gather(parts));
                }
            }
            // Random lines, reads and writes.
            5 => {
                for _ in 0..rng.gen_range(1..40u32) {
                    let addr = match rng.gen_range(0..64u32) {
                        // Either side of the bitmap bound.
                        0 => (1 << 32) - 128 + rng.gen_range(0..256u64),
                        1..=8 => FAR + rng.gen_range(0..1u64 << 24),
                        _ => rng.gen_range(0..1u64 << 24),
                    };
                    let len = rng.gen_range(0..=200usize);
                    ops.push(if rng.gen_bool(0.3) {
                        Op::Write(addr, len)
                    } else {
                        Op::Read(addr, len)
                    });
                }
            }
            // Fast interleaved scans — with few banks their lookahead
            // queues far ahead of the clock — and a flush while those
            // completions are still ahead: the store's pages go back to
            // the free list holding times in the future. Then, in one
            // fresh word, a stream whose lookahead completes undemanded
            // (its page is recycled under members yet to be taken) and a
            // second stream below it whose lookahead gives the word a
            // page again — one of those the flush freed — before the
            // first stream takes its members.
            6 => {
                let word = fresh_word(rng);
                let line = |word: u64, slot: u64| word + slot * 64;
                // Where the slow stream's lookahead runs past the end of
                // the word exactly when its page has been recycled, so the
                // next page the word gets is not its own again.
                let first = 62u64.saturating_sub(cfg.prefetch_degree as u64).max(17);
                // The fast streams stop where the slow one will start, so
                // the pages the flush frees hold future times at the slots
                // the slow one's members occupy.
                let streams = cfg.prefetch_streams;
                let fast: Vec<u64> = (0..rng.gen_range(streams / 2 + 1..=streams))
                    .map(|_| fresh_word(rng))
                    .collect();
                let steps = rng.gen_range((first + 3) / 2..=first + 3);
                for i in first + 3 - steps..first + 3 {
                    for &f in &fast {
                        ops.push(Op::Read(line(f, i), 8));
                    }
                }
                if rng.gen_bool(0.9) {
                    ops.push(Op::Flush);
                }
                ops.push(Op::Read(line(word, first), 8));
                ops.push(Op::Read(line(word, first + 1), 8));
                // About as long as the slow stream's lookahead takes.
                let settle = cfg.prefetch_degree as u64 * 90 / cfg.dram_banks as u64;
                ops.push(Op::Cpu(settle + rng.gen_range(0..600u64)));
                ops.push(Op::Read(line(word, first + 2), 8));
                let below = rng.gen_range(0..first - 2);
                ops.push(Op::Read(line(word, below), 8));
                ops.push(Op::Read(line(word, below + 1), 8));
                for slot in first + 3..first + rng.gen_range(4..24u64) {
                    ops.push(Op::Read(line(word, slot), 8));
                }
            }
            // Stalls, long and short, and compute.
            7 => match rng.gen_range(0..4u32) {
                0 => ops.push(Op::Stall(rng.gen_range(0..100_000u64))),
                1 => ops.push(Op::StallRetry(rng.gen_range(0..5_000u64))),
                2 => ops.push(Op::Cpu(rng.gen_range(0..20_000u64))),
                _ => ops.push(Op::Stall(rng.gen_range(0..200u64))),
            },
            _ => {
                if rng.gen_bool(0.15) {
                    ops.push(Op::Flush);
                }
            }
        }
    }
    ops
}

/// What the two hierarchies must agree on: they share the method names,
/// so one body serves both.
trait LinePath {
    fn apply(&mut self, op: &Op);
    fn cores(&self) -> Vec<(u64, MemStats)>;
}

macro_rules! line_path {
    ($hierarchy:ty) => {
        impl LinePath for $hierarchy {
            fn apply(&mut self, op: &Op) {
                match op {
                    Op::Read(a, l) => self.touch_read(*a, *l),
                    Op::Write(a, l) => self.touch_write(*a, *l),
                    Op::Gather(parts) => self.touch_read_gather(parts),
                    Op::Cpu(c) => self.cpu(*c),
                    Op::CpuVector(n, per) => self.cpu_vector(*n, *per),
                    Op::Stall(d) => self.stall_until(self.now() + d),
                    Op::StallRetry(d) => self.stall_retry_until(self.now() + d),
                    Op::Active(i) => self.set_active_core(*i % self.num_cores()),
                    Op::Fork => {
                        self.fork_clocks();
                    }
                    Op::Join => {
                        self.join_clocks();
                    }
                    Op::Flush => self.flush_caches(),
                    Op::Cores(n) => self.set_core_count(*n),
                }
            }

            fn cores(&self) -> Vec<(u64, MemStats)> {
                (0..self.num_cores())
                    .map(|i| (self.core_now(i), self.core_stats(i)))
                    .collect()
            }
        }
    };
}

line_path!(MemoryHierarchy);
line_path!(RefHierarchy);

#[test]
fn generated_traces_match_the_reference_hierarchy() {
    let grid = support::core_grid();
    let (mut lines, mut prefetch_hits, mut generic_widths) = (0u64, 0u64, 0u32);
    for_each_case("line path matches the reference", |rng| {
        let cfg = config(rng);
        let calibrated = |ways| ways == 4 || ways == 16;
        generic_widths += u32::from(!calibrated(cfg.l1_assoc) || !calibrated(cfg.l2_assoc));
        for &cores in &grid {
            let mut fast = MemoryHierarchy::new(cfg.clone());
            let mut slow = RefHierarchy::new(cfg.clone());
            fast.set_core_count(cores);
            slow.set_core_count(cores);
            let ops = trace(rng, &cfg, cores, 24);
            for (step, op) in ops.iter().enumerate() {
                fast.apply(op);
                slow.apply(op);
                assert_eq!(
                    fast.cores(),
                    slow.cores(),
                    "cores {cores}, op {step} {op:?}, config {cfg:?}"
                );
            }
            let s = fast.stats();
            lines += s.line_accesses;
            prefetch_hits += s.prefetch_hits;
        }
    });
    assert!(
        prefetch_hits > lines / 20,
        "the traces must exercise prefetch hits: {prefetch_hits} of {lines} lines"
    );
    assert!(
        generic_widths > 0,
        "no case drew a cache width of 1, 2, 3 or 8 ways"
    );
}
