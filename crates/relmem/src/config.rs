//! Relational Memory device parameters.

/// Parameters of the RM engine, defaulting to the paper's prototype
/// (§V "Target Platform": programmable logic constrained to 100 MHz, a 2 MB
/// on-device data memory refilled whenever it is full).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmConfig {
    /// Time for the engine to emit one packed 64-byte output line
    /// (one beat of the 100 MHz datapath = 10 ns).
    pub engine_ns_per_line: f64,
    /// Time for the row-disassembly pipeline to ingest one base row
    /// (one row per engine clock in the prototype: the gather stage issues
    /// all of a row's line requests in parallel across banks/AXI ports,
    /// and the shredder consumes one row per cycle regardless of width).
    pub engine_ns_per_row: f64,
    /// Capacity of the on-device staging buffer.
    pub buffer_bytes: usize,
    /// Size of one delivery batch; the buffer holds
    /// `buffer_bytes / batch_bytes` batches of production lookahead.
    pub batch_bytes: usize,
    /// CPU-side cost of pulling one ready output line across the bus into
    /// the core (an uncached-but-streaming AXI read; dearer than an L2 hit,
    /// far cheaper than a DRAM miss).
    pub bus_ns_per_line: f64,
    /// One-time cost of configuring an ephemeral variable (writing the
    /// geometry into the device's control registers).
    pub configure_ns: f64,
}

impl RmConfig {
    /// The paper's prototype parameters.
    pub fn prototype() -> Self {
        RmConfig {
            engine_ns_per_line: 10.0,
            engine_ns_per_row: 10.0,
            buffer_bytes: 2 * 1024 * 1024,
            batch_bytes: 64 * 1024,
            bus_ns_per_line: 7.0,
            configure_ns: 500.0,
        }
    }

    /// The envisioned Relational Memory *Controller* (§IV-C): the engine
    /// integrated into the memory controller itself. Low-level DIMM access
    /// and ISA integration shrink both the per-access setup and the
    /// delivery cost; the engine runs at the controller clock.
    pub fn rmc() -> Self {
        RmConfig {
            engine_ns_per_line: 2.5, // 400 MHz controller-domain engine
            engine_ns_per_row: 2.5,
            buffer_bytes: 2 * 1024 * 1024,
            batch_bytes: 64 * 1024,
            bus_ns_per_line: 5.0, // no AXI hop: data arrives like a miss fill
            configure_ns: 50.0,   // an ISA instruction, not MMIO writes
        }
    }

    /// This configuration with the engine time-multiplexed across
    /// `tenants` concurrently active ephemeral variables (the EDBT
    /// prototype exposes a small number of geometry slots): each tenant
    /// sees a 1/`tenants` share of the row and line beats, and of the
    /// staging buffer.
    pub fn shared(self, tenants: usize) -> RmConfig {
        assert!(tenants >= 1);
        RmConfig {
            engine_ns_per_line: self.engine_ns_per_line * tenants as f64,
            engine_ns_per_row: self.engine_ns_per_row * tenants as f64,
            buffer_bytes: (self.buffer_bytes / tenants).max(self.batch_bytes.min(4096) * 2),
            batch_bytes: self
                .batch_bytes
                .min((self.buffer_bytes / tenants / 2).max(4096)),
            ..self
        }
    }

    /// Batches of lookahead the staging buffer affords (min 2: classic
    /// double buffering).
    pub fn window_batches(&self) -> usize {
        (self.buffer_bytes / self.batch_bytes).max(2)
    }
}

impl Default for RmConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper() {
        let c = RmConfig::prototype();
        assert_eq!(c.buffer_bytes, 2 * 1024 * 1024);
        assert!((c.engine_ns_per_line - 10.0).abs() < 1e-9); // 100 MHz
    }

    #[test]
    fn shared_divides_engine_and_buffer() {
        let c = RmConfig::prototype().shared(4);
        assert!((c.engine_ns_per_row - 40.0).abs() < 1e-9);
        assert!((c.engine_ns_per_line - 40.0).abs() < 1e-9);
        assert_eq!(c.buffer_bytes, 512 * 1024);
        assert_eq!(RmConfig::prototype().shared(1), RmConfig::prototype());
    }

    #[test]
    fn rmc_is_strictly_tighter_than_the_prototype() {
        let rm = RmConfig::prototype();
        let rmc = RmConfig::rmc();
        assert!(rmc.engine_ns_per_row < rm.engine_ns_per_row);
        assert!(rmc.bus_ns_per_line < rm.bus_ns_per_line);
        assert!(rmc.configure_ns < rm.configure_ns);
    }

    #[test]
    fn window_is_buffer_over_batch_with_floor() {
        let c = RmConfig::prototype();
        assert_eq!(c.window_batches(), 32);
        let tiny = RmConfig {
            buffer_bytes: 1024,
            batch_bytes: 1024,
            ..c
        };
        assert_eq!(tiny.window_batches(), 2);
    }
}
