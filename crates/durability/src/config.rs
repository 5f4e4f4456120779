//! Timing, layout, and fault posture of the durable device.

use fabric_sim::{FaultConfig, RecoveryPolicy};

/// Configuration of one [`DurableMedia`](crate::DurableMedia).
///
/// Write timings are those of a SmartSSD-class NAND program: an order of
/// magnitude slower than `relstore`'s page read, with a byte-proportional
/// term for the channel transfer into the plane register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Fault posture of the device (seed, crash/tear/program-error rates).
    pub faults: FaultConfig,
    /// Retry and backoff budgets for transient program failures.
    pub policy: RecoveryPolicy,
    /// Checkpoint page granularity in bytes; the torn-write and CRC unit.
    pub page_bytes: usize,
    /// Fixed cost of one durable write (flash program latency), ns.
    pub write_base_ns: f64,
    /// Per-byte transfer cost of a durable write, ns.
    pub write_ns_per_byte: f64,
}

impl DurabilityConfig {
    /// A fault-free device with SmartSSD-flavoured write timings.
    pub fn quiet(seed: u64) -> Self {
        DurabilityConfig {
            faults: FaultConfig::quiet(seed),
            policy: RecoveryPolicy::default(),
            page_bytes: 4096,
            write_base_ns: 200_000.0,
            write_ns_per_byte: 0.5,
        }
    }

    /// This configuration with the given fault posture.
    pub fn with_faults(self, faults: FaultConfig) -> Self {
        DurabilityConfig { faults, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_config_is_fault_free() {
        let c = DurabilityConfig::quiet(7);
        assert_eq!(c.faults.wal_crash_prob, 0.0);
        assert_eq!(c.faults.crash_at_write, 0);
        assert!(c.page_bytes > 0);
        let f = FaultConfig::quiet(7).with_crash_at(3);
        assert_eq!(c.with_faults(f).faults.crash_at_write, 3);
    }
}
