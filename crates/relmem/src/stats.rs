//! Device-side statistics.

/// What the RM device did while serving ephemeral accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmStats {
    /// Base rows examined (visibility + predicate evaluated).
    pub rows_scanned: u64,
    /// Rows that qualified and contributed output.
    pub rows_emitted: u64,
    /// Source cache lines fetched from DRAM by the gather engine.
    pub source_lines: u64,
    /// Packed output lines delivered toward the CPU.
    pub output_lines: u64,
    /// Delivery batches produced.
    pub batches: u64,
    /// Ephemeral variables configured.
    pub configures: u64,
    /// Faults injected into this device (engine stalls, delivery
    /// timeouts, bit flips) by the active [`fabric_sim::FaultPlan`].
    pub injected_faults: u64,
    /// Delivery attempts that elapsed with no data (device timeout).
    pub delivery_timeouts: u64,
    /// Delivered batches whose CRC32 frame check failed.
    pub crc_failures: u64,
    /// Redelivery attempts performed during fault recovery.
    pub retries: u64,
}

impl RmStats {
    /// Ratio of source bytes fetched to output bytes delivered — the
    /// device-side amplification of a sparse geometry.
    pub fn gather_amplification(&self) -> f64 {
        if self.output_lines == 0 {
            return 0.0;
        }
        self.source_lines as f64 / self.output_lines as f64
    }

    /// Every counter as a `(name, value)` pair, in declaration order: the
    /// query layer writes them as `query.rm.<name>`, each name resolved
    /// once (DESIGN.md §30).
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("rows_scanned", self.rows_scanned),
            ("rows_emitted", self.rows_emitted),
            ("source_lines", self.source_lines),
            ("output_lines", self.output_lines),
            ("batches", self.batches),
            ("configures", self.configures),
            ("injected_faults", self.injected_faults),
            ("delivery_timeouts", self.delivery_timeouts),
            ("crc_failures", self.crc_failures),
            ("retries", self.retries),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification() {
        let s = RmStats {
            source_lines: 160,
            output_lines: 10,
            ..Default::default()
        };
        assert!((s.gather_amplification() - 16.0).abs() < 1e-12);
        assert_eq!(RmStats::default().gather_amplification(), 0.0);
    }
}
