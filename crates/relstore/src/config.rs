//! Computational-SSD parameters.

/// Parameters of the simulated computational SSD.
///
/// Defaults approximate a SmartSSD-class device: 8 channels × 2 dies of
/// NAND with ~60 µs page reads, a PCIe 3.0 x4 host link (~3.2 GB/s), and an
/// embedded controller that processes a row per ~4 ns once pages are
/// buffered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsConfig {
    /// Independent flash channels.
    pub channels: usize,
    /// Dies per channel (interleaving within a channel).
    pub dies_per_channel: usize,
    /// Flash page size in bytes.
    pub page_bytes: usize,
    /// NAND array read time per page (ns).
    pub read_page_ns: f64,
    /// Channel-bus transfer time per page (ns) — the per-channel
    /// serialization resource.
    pub channel_xfer_ns: f64,
    /// Host-link throughput (ns per byte; 0.3125 ≈ 3.2 GB/s).
    pub link_ns_per_byte: f64,
    /// Fixed host-link command latency (ns).
    pub link_base_ns: f64,
    /// Controller processing time per row (ns) — predicate evaluation and
    /// packing in the device.
    pub ctrl_ns_per_row: f64,
    /// Controller time per decompressed value (ns) — hardware dictionary
    /// decoders run several units in parallel.
    pub ctrl_ns_per_value: f64,
}

impl RsConfig {
    /// SmartSSD-like defaults.
    pub fn smartssd() -> Self {
        RsConfig {
            channels: 8,
            dies_per_channel: 8,
            page_bytes: 4096,
            read_page_ns: 25_000.0,
            channel_xfer_ns: 3_300.0,
            link_ns_per_byte: 0.3125,
            link_base_ns: 10_000.0,
            ctrl_ns_per_row: 4.0,
            ctrl_ns_per_value: 0.5,
        }
    }

    /// Peak internal read bandwidth in bytes/ns (all channels streaming).
    pub fn internal_bw(&self) -> f64 {
        self.page_bytes as f64 * self.channels as f64 / self.channel_xfer_ns.max(1.0)
    }

    /// Host-link bandwidth in bytes/ns.
    pub fn link_bw(&self) -> f64 {
        1.0 / self.link_ns_per_byte
    }
}

impl Default for RsConfig {
    fn default() -> Self {
        Self::smartssd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_bandwidth_exceeds_link_bandwidth() {
        // The premise of near-storage computation: the device can read
        // flash internally faster than it can ship bytes to the host.
        let c = RsConfig::smartssd();
        assert!(
            c.internal_bw() > 2.0 * c.link_bw(),
            "internal {} vs link {}",
            c.internal_bw(),
            c.link_bw()
        );
    }
}
