//! Banked DRAM timing model with open-row tracking.
//!
//! Cache lines are interleaved across banks (line `i` lives in bank
//! `i % banks`), the layout memory controllers use to give sequential
//! streams bank-level parallelism. Each bank is a simple resource with a
//! `free_at` time and an open row: an access to the open row occupies the
//! bank for `t_row_hit`, anything else pays `t_row_miss`.
//!
//! Both the CPU side (through [`crate::hierarchy::MemoryHierarchy`]) and the
//! near-data devices (`relmem`, `relstore`) use this model; the devices get
//! their own instance because they sit on their own memory port — exactly
//! the asymmetry the paper exploits: *"operating closer to the data allows
//! to exploit the inherent parallelism of memory cells"* (§II).

use crate::config::SimConfig;
use crate::Cycles;

/// Banked DRAM with open-row state.
#[derive(Debug, Clone)]
pub struct DramModel {
    /// `banks - 1`: the bank of a hashed line index is its low bits.
    bank_mask: u64,
    /// `log2(banks)`.
    bank_shift: u32,
    /// `log2(banks · lines_per_row)`: a line index's DRAM row is its
    /// bits above the bank and the line-within-row bits.
    row_shift: u32,
    line_shift: u32,
    t_hit: Cycles,
    t_miss: Cycles,
    banks: Vec<Bank>,
    accesses: u64,
    row_hits: u64,
}

/// One bank's queue and open-row state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// When the bank finishes the access it is serving.
    free_at: Cycles,
    /// The DRAM row held open in its row buffer.
    open_row: Option<u64>,
}

impl DramModel {
    /// Build from the simulator configuration. The bank count and the
    /// lines per DRAM row must be powers of two, so that locating a line
    /// is shifts and masks.
    pub fn new(cfg: &SimConfig) -> Self {
        let banks = cfg.dram_banks;
        let lines_per_row = (cfg.dram_row_bytes / cfg.line_size).max(1);
        assert!(
            banks.is_power_of_two(),
            "{banks} DRAM banks (must be a power of two)"
        );
        assert!(
            lines_per_row.is_power_of_two(),
            "{lines_per_row} lines per DRAM row (must be a power of two)"
        );
        let bank_shift = banks.trailing_zeros();
        DramModel {
            bank_mask: (banks - 1) as u64,
            bank_shift,
            row_shift: bank_shift + lines_per_row.trailing_zeros(),
            line_shift: cfg.line_size.trailing_zeros(),
            t_hit: cfg.ns_to_cycles(cfg.dram_row_hit_ns),
            t_miss: cfg.ns_to_cycles(cfg.dram_row_miss_ns),
            banks: vec![Bank::default(); banks],
            accesses: 0,
            row_hits: 0,
        }
    }

    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        let line_index = line_addr >> self.line_shift;
        // XOR-fold higher address bits into the bank index (bank-address
        // hashing, standard in memory controllers): without it, arrays
        // allocated at power-of-two distances would alias their k-th lines
        // onto one bank and serialize what should be parallel fetches.
        let hashed = line_index
            ^ (line_index >> 4)
            ^ (line_index >> 8)
            ^ (line_index >> 12)
            ^ (line_index >> 16);
        let bank = (hashed & self.bank_mask) as usize;
        let row = line_index >> self.row_shift;
        (bank, row)
    }

    /// Bank index of a line address (exposed for tests and device planning).
    pub fn bank_of(&self, line_addr: u64) -> usize {
        self.locate(line_addr).0
    }

    /// Schedule a line fetch issued at time `now`; returns its completion
    /// time. Bank queuing and open-row state advance accordingly.
    #[inline]
    pub fn access(&mut self, line_addr: u64, now: Cycles) -> Cycles {
        let (bank, row) = self.locate(line_addr);
        let bank = &mut self.banks[bank];
        let start = now.max(bank.free_at);
        let occupancy = if bank.open_row == Some(row) {
            self.row_hits += 1;
            self.t_hit
        } else {
            bank.open_row = Some(row);
            self.t_miss
        };
        self.accesses += 1;
        let done = start + occupancy;
        bank.free_at = done;
        done
    }

    /// `(total accesses, open-row hits)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.accesses, self.row_hits)
    }

    /// Forget queue state and open rows (new experiment), keep geometry.
    pub fn reset(&mut self) {
        self.banks.fill(Bank::default());
        self.accesses = 0;
        self.row_hits = 0;
    }

    /// Row-hit occupancy in cycles (device throughput planning).
    pub fn t_row_hit(&self) -> Cycles {
        self.t_hit
    }

    /// `k · t_row_hit / banks`: how long after the start of a stream its
    /// `k`-th line can arrive at the controller's peak throughput, with
    /// every bank pipelined (the shared-controller ledger's slot).
    #[inline]
    pub fn stream_slot(&self, k: u64) -> Cycles {
        (k * self.t_hit) >> self.bank_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(&SimConfig::zynq_a53())
    }

    #[test]
    fn consecutive_lines_use_different_banks() {
        let mut d = model();
        // 8 consecutive lines issued at t=0 all start immediately
        // (8 banks, line-interleaved), so the batch finishes in one
        // row-miss occupancy.
        let done = (0..8).map(|i| d.access(i * 64, 0)).max().unwrap();
        let t_miss = SimConfig::zynq_a53().ns_to_cycles(60.0);
        assert_eq!(done, t_miss);
    }

    /// Find a line address beyond `from_idx` that maps to the same bank as
    /// line 0.
    fn same_bank_as_zero(d: &DramModel, from_idx: u64) -> u64 {
        let target = d.bank_of(0);
        (from_idx..from_idx + 4096)
            .find(|i| d.bank_of(i * 64) == target)
            .expect("a same-bank line exists")
            * 64
    }

    #[test]
    fn same_bank_lines_serialize() {
        let mut d = model();
        let other = same_bank_as_zero(&d, 1);
        let d1 = d.access(0, 0);
        let d2 = d.access(other, 0);
        assert!(d2 > d1);
    }

    #[test]
    fn open_row_hits_are_faster() {
        let cfg = SimConfig::zynq_a53();
        let mut d = model();
        // Same bank within the first DRAM row window (rows span
        // banks * lines_per_row consecutive lines).
        let row_span = (cfg.dram_banks * cfg.dram_row_bytes / cfg.line_size) as u64;
        let other = same_bank_as_zero(&d, 1);
        assert!(
            other / 64 < row_span,
            "test assumes a same-bank line within row 0"
        );
        let first = d.access(0, 0);
        let second = d.access(other, first);
        assert_eq!(second - first, cfg.ns_to_cycles(cfg.dram_row_hit_ns));
        let (acc, hits) = d.counters();
        assert_eq!(acc, 2);
        assert_eq!(hits, 1);
    }

    #[test]
    fn row_conflict_pays_miss_latency() {
        let cfg = SimConfig::zynq_a53();
        let mut d = model();
        let row_span = (cfg.dram_banks * cfg.dram_row_bytes / cfg.line_size) as u64;
        // A same-bank line in a different DRAM row.
        let far = same_bank_as_zero(&d, row_span);
        let first = d.access(0, 0);
        let second = d.access(far, first);
        assert_eq!(second - first, cfg.ns_to_cycles(cfg.dram_row_miss_ns));
    }

    #[test]
    fn sequential_stream_sustains_bank_parallel_bandwidth() {
        let cfg = SimConfig::zynq_a53();
        let mut d = model();
        // Issue 8 * 32 consecutive lines as fast as the banks allow.
        let n = 256u64;
        let mut done = 0;
        for i in 0..n {
            done = done.max(d.access(i * 64, 0));
        }
        // Perfect pipelining: each bank services n/8 requests back to back;
        // most are open-row hits.
        let per_bank = n / cfg.dram_banks as u64;
        let upper = per_bank * cfg.ns_to_cycles(cfg.dram_row_miss_ns);
        let lower = per_bank * cfg.ns_to_cycles(cfg.dram_row_hit_ns);
        assert!(
            done >= lower && done <= upper,
            "done={done} not in [{lower},{upper}]"
        );
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn rejects_a_bank_count_that_is_not_a_power_of_two() {
        DramModel::new(&SimConfig {
            dram_banks: 12,
            ..SimConfig::zynq_a53()
        });
    }

    #[test]
    fn stream_slot_is_the_divided_ledger_term() {
        for banks in [1usize, 2, 8, 16] {
            let cfg = SimConfig {
                dram_banks: banks,
                ..SimConfig::zynq_a53()
            };
            let d = DramModel::new(&cfg);
            for k in [0u64, 1, 7, 1000, 123_457] {
                assert_eq!(d.stream_slot(k), k * d.t_row_hit() / banks as u64);
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut d = model();
        d.access(0, 0);
        d.reset();
        assert_eq!(d.counters(), (0, 0));
        // After reset the bank is free at t=0 again.
        let done = d.access(0, 0);
        assert_eq!(done, SimConfig::zynq_a53().ns_to_cycles(60.0));
    }
}
