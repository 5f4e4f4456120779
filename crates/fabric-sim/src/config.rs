//! Simulator configuration and platform presets.

use crate::Cycles;

/// All tunable parameters of the simulated platform.
///
/// The default ([`SimConfig::zynq_a53`]) approximates the paper's target: a
/// Cortex-A53 at 1.5 GHz with 32 KB L1D, 1 MB shared L2, 64-byte lines, a
/// stream prefetcher good for four concurrent streams, and DDR4 behind an
/// 8-bank controller. Latency numbers are deliberately round; what matters
/// for the reproduction is their *ratios*.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core clock in GHz (used to convert DRAM nanoseconds into cycles).
    pub cpu_ghz: f64,
    /// Cache-line size in bytes (64 everywhere in this project).
    pub line_size: usize,

    /// L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: Cycles,

    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency in cycles.
    pub l2_hit_cycles: Cycles,
    /// Occupancy of the shared L2 port per line transaction (cycles).
    /// With more than one core configured, conflicting fills serialize on
    /// this port; a single core never pays it (bit-identical to the
    /// original single-core model).
    pub l2_port_cycles: Cycles,

    /// Number of DRAM banks the controller interleaves lines across.
    pub dram_banks: usize,
    /// Bytes of one DRAM row per bank (open-row window).
    pub dram_row_bytes: usize,
    /// Bank occupancy for an access that hits the open row (ns).
    pub dram_row_hit_ns: f64,
    /// Bank occupancy for an access that must open a new row (ns).
    pub dram_row_miss_ns: f64,
    /// Fixed controller/bus overhead added to every demand miss (ns).
    pub dram_demand_overhead_ns: f64,

    /// Number of concurrent sequential streams the prefetcher can track.
    /// The Cortex-A53 manual and the paper both put this at 4.
    pub prefetch_streams: usize,
    /// How many lines ahead a trained stream prefetches.
    pub prefetch_degree: usize,
    /// Consecutive same-stride observations needed before a stream is
    /// considered trained and prefetching starts.
    pub prefetch_train: usize,
}

impl SimConfig {
    /// The paper's platform (§V "Target Platform").
    pub fn zynq_a53() -> Self {
        SimConfig {
            cpu_ghz: 1.5,
            line_size: 64,
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l1_hit_cycles: 4,
            l2_bytes: 1024 * 1024,
            l2_assoc: 16,
            l2_hit_cycles: 13,
            l2_port_cycles: 4,
            dram_banks: 16,
            dram_row_bytes: 2048,
            dram_row_hit_ns: 30.0,
            dram_row_miss_ns: 60.0,
            dram_demand_overhead_ns: 40.0,
            prefetch_streams: 4,
            prefetch_degree: 16,
            prefetch_train: 2,
        }
    }

    /// A tiny configuration for fast unit tests: small caches so miss paths
    /// are exercised with little data.
    pub fn tiny() -> Self {
        SimConfig {
            l1_bytes: 1024,
            l1_assoc: 2,
            l2_bytes: 8 * 1024,
            l2_assoc: 4,
            ..Self::zynq_a53()
        }
    }

    /// Convert nanoseconds into core cycles (rounded to nearest, min 1).
    pub fn ns_to_cycles(&self, ns: f64) -> Cycles {
        ((ns * self.cpu_ghz).round() as Cycles).max(1)
    }

    /// Convert core cycles into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycles) -> f64 {
        cycles as f64 / self.cpu_ghz
    }

    /// Number of cache lines covering `bytes` starting at `addr`.
    pub fn lines_spanned(&self, addr: u64, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.line_size as u64;
        let last = (addr + bytes as u64 - 1) / self.line_size as u64;
        last - first + 1
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::zynq_a53()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_platform() {
        let c = SimConfig::zynq_a53();
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 1024 * 1024);
        assert_eq!(c.line_size, 64);
        assert_eq!(c.prefetch_streams, 4);
        assert!((c.cpu_ghz - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ns_cycle_conversions() {
        let c = SimConfig::zynq_a53();
        assert_eq!(c.ns_to_cycles(10.0), 15);
        assert!((c.cycles_to_ns(15) - 10.0).abs() < 1e-9);
        // Never zero cycles for a positive latency.
        assert_eq!(c.ns_to_cycles(0.01), 1);
    }

    #[test]
    fn lines_spanned_handles_straddles() {
        let c = SimConfig::zynq_a53();
        assert_eq!(c.lines_spanned(0, 0), 0);
        assert_eq!(c.lines_spanned(0, 1), 1);
        assert_eq!(c.lines_spanned(0, 64), 1);
        assert_eq!(c.lines_spanned(0, 65), 2);
        assert_eq!(c.lines_spanned(60, 8), 2);
        assert_eq!(c.lines_spanned(64, 64), 1);
        assert_eq!(c.lines_spanned(63, 2), 2);
    }
}
