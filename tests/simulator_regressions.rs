//! Fixed simulator cases: the replay-determinism check, and every
//! failing input the generated suite in `simulator_properties.rs` has
//! found, pinned so it is checked under any seed.

use fabric_sim::{MemoryHierarchy, SimConfig};

mod support;
use support::check_gather_and_serial_agree;

/// Deterministic replay: identical access sequences produce identical
/// simulated times and statistics.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let base = mem.alloc(1 << 20, 64).unwrap();
        for i in 0..4096u64 {
            mem.touch_read(base + (i * 97) % (1 << 20), 16);
            mem.cpu(3);
        }
        (mem.now(), mem.stats())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}

/// A failure that shrank to `spans = [(0, 1)]`: a single one-byte read. The original
/// failure was a timing asymmetry on the smallest possible gather — the
/// gather path must not be slower than one serial read plus its issue slot.
#[test]
fn regression_single_byte_gather_matches_serial() {
    check_gather_and_serial_agree(&[(0, 1)]);
}

/// Neighborhood of the shrunken seed: tiny spans at the base of the arena,
/// where any fixed per-gather setup cost is proportionally largest.
#[test]
fn regression_small_span_gathers_match_serial() {
    check_gather_and_serial_agree(&[(0, 1), (0, 1)]);
    check_gather_and_serial_agree(&[(0, 16)]);
    check_gather_and_serial_agree(&[(1, 1)]);
    check_gather_and_serial_agree(&[(0, 1), (4, 1), (8, 1)]);
    check_gather_and_serial_agree(&[(255, 31)]);
}
