//! One attribution record per query (DESIGN.md §12, §25).
//!
//! Classifies every simulated cycle a core's clock advanced into a
//! two-level hierarchy, in the spirit of Yasin's top-down method adapted
//! to the fabric's cycle-accurate simulator:
//!
//! ```text
//! elapsed
//! ├── retired            compute the core actually executed
//! ├── memory-bound
//! │   ├── L1             L1 service latency (hits + miss issue slots)
//! │   ├── L2             L2 service latency (hits + prefetch transfers)
//! │   ├── DRAM           demand-miss / prefetch-completion waits
//! │   └── RM-device      producer-side device readiness (RM beat, SSD, bus)
//! └── stall
//!     ├── bw-ledger      shared L2-port / DRAM-controller bandwidth caps
//!     ├── fault-retry    recovery-policy backoff after injected faults
//!     └── idle           barrier wait for peer cores
//! ```
//!
//! [`CoreAttribution`] is the one per-core record: EXPLAIN ANALYZE, the
//! query log's [`TopDownSummary`], postmortems and the `query.core<i>.*`
//! metrics all render it. The **hard invariant**: the leaf buckets sum
//! *exactly* to the elapsed cycles of the measured window on every core —
//! no cycle is unaccounted for and none is counted twice.
//! [`CoreAttribution::verify`] checks it; `query::exec` asserts it after
//! every query.

/// One core's share of a measured window: where its cycles went and how
/// much data it pulled through the hierarchy.
///
/// `busy_cycles` comes from the hierarchy's aggregate counters
/// (`cpu + stall + mem_lat`), the seven leaf buckets from their
/// sub-buckets. The two are charged at every site independently, so
/// [`verify`](Self::verify) catches a site that advanced the clock past
/// the sub-bucket accounting. `busy_cycles + idle_cycles` is the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreAttribution {
    /// Core index.
    pub core: usize,
    /// Cycles this core worked: its clock advance inside the window.
    pub busy_cycles: u64,
    /// Cycles this core sat at barriers waiting for slower peers (or for
    /// the merge running on core 0).
    pub idle_cycles: u64,
    /// Payload bytes this core read through the hierarchy.
    pub bytes_read: u64,
    /// Cycles spent retiring compute.
    pub retired: u64,
    /// L1 service latency (hits and miss issue slots).
    pub mem_l1: u64,
    /// L2 service latency (hits and L2-to-L1 prefetch transfers).
    pub mem_l2: u64,
    /// Waits for DRAM data (demand misses, in-flight prefetches).
    pub mem_dram: u64,
    /// Waits for a producer-side device (RM engine, SSD, bus transfer).
    pub mem_rm_device: u64,
    /// Waits on a shared-fabric bandwidth ledger (L2 port / DRAM
    /// controller aggregate-throughput cap).
    pub bw_wait: u64,
    /// Fault-retry backoff imposed by the recovery policy.
    pub fault_retry: u64,
}

/// Number of leaf buckets, idle included.
pub const BUCKETS: usize = 8;

/// Number of counters in [`CoreAttribution::counters`].
pub const COUNTERS: usize = BUCKETS + 4;

impl CoreAttribution {
    /// The window this core closes: `busy_cycles + idle_cycles`.
    pub fn elapsed(&self) -> u64 {
        self.busy_cycles + self.idle_cycles
    }

    /// The eight leaf buckets in canonical order, as `(short name, value)`
    /// pairs. Used by every renderer and exporter so the ordering is
    /// uniform.
    pub fn buckets(&self) -> [(&'static str, u64); BUCKETS] {
        [
            ("retired", self.retired),
            ("mem.l1", self.mem_l1),
            ("mem.l2", self.mem_l2),
            ("mem.dram", self.mem_dram),
            ("mem.rm_device", self.mem_rm_device),
            ("stall.bw", self.bw_wait),
            ("stall.retry", self.fault_retry),
            ("stall.idle", self.idle_cycles),
        ]
    }

    /// The record as the counters of `<prefix>.core<i>.`, as `(key,
    /// value)` pairs: `busy_cycles`, `idle_cycles`, `bytes_read`, each leaf
    /// bucket as `td.<bucket>` (dots in bucket names kept) and
    /// `td.elapsed` — the snapshot-visible form of the record. The query
    /// layer resolves the keys once per core and writes the values through
    /// handles (DESIGN.md §30).
    pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
        [
            ("busy_cycles", self.busy_cycles),
            ("idle_cycles", self.idle_cycles),
            ("bytes_read", self.bytes_read),
            ("td.retired", self.retired),
            ("td.mem.l1", self.mem_l1),
            ("td.mem.l2", self.mem_l2),
            ("td.mem.dram", self.mem_dram),
            ("td.mem.rm_device", self.mem_rm_device),
            ("td.stall.bw", self.bw_wait),
            ("td.stall.retry", self.fault_retry),
            ("td.stall.idle", self.idle_cycles),
            ("td.elapsed", self.elapsed()),
        ]
    }

    /// Cache-hit service latency, the hierarchy's `mem_lat_cycles`:
    /// L1 + L2.
    pub fn mem_lat(&self) -> u64 {
        self.mem_l1 + self.mem_l2
    }

    /// Cycles stalled on memory, the hierarchy's `stall_cycles`:
    /// DRAM + RM-device + bandwidth-ledger + fault-retry waits.
    pub fn stall_cycles(&self) -> u64 {
        self.mem_dram + self.mem_rm_device + self.bw_wait + self.fault_retry
    }

    /// The top-down Level-1 memory-bound total: L1 + L2 + DRAM +
    /// RM-device.
    pub fn memory_bound(&self) -> u64 {
        self.mem_lat() + self.mem_dram + self.mem_rm_device
    }

    /// The top-down Level-1 stall total without barrier idle: the cycles
    /// the fabric held a working core back, bandwidth-ledger waits plus
    /// fault-retry backoff. The query log reports it as `topdown.stall`.
    pub fn fabric_stall(&self) -> u64 {
        self.bw_wait + self.fault_retry
    }

    /// The hard invariant: every busy cycle lands in exactly one leaf
    /// bucket (and so every elapsed cycle, idle being its own bucket).
    pub fn verify(&self) -> Result<(), String> {
        let leaves = self.retired + self.memory_bound() + self.fabric_stall();
        if leaves == self.busy_cycles {
            Ok(())
        } else {
            Err(format!(
                "top-down buckets on core {} sum to {} but {} cycles elapsed ({:?})",
                self.core,
                leaves + self.idle_cycles,
                self.elapsed(),
                self
            ))
        }
    }
}

/// Render as an aligned text table with per-bucket percentages of
/// elapsed, for `EXPLAIN ANALYZE` and postmortem artifacts.
pub fn render(cores: &[CoreAttribution]) -> String {
    let mut out = String::new();
    out.push_str(
        "  core   retired     mem.l1     mem.l2   mem.dram     mem.rm   stall.bw  stall.retry  stall.idle     elapsed\n",
    );
    for c in cores {
        let elapsed = c.elapsed();
        let pct = |v: u64| {
            if elapsed == 0 {
                0.0
            } else {
                v as f64 * 100.0 / elapsed as f64
            }
        };
        out.push_str(&format!(
            "  {:>4} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>11} {:>11}\n",
            c.core,
            format!("{:.1}%", pct(c.retired)),
            format!("{:.1}%", pct(c.mem_l1)),
            format!("{:.1}%", pct(c.mem_l2)),
            format!("{:.1}%", pct(c.mem_dram)),
            format!("{:.1}%", pct(c.mem_rm_device)),
            format!("{:.1}%", pct(c.bw_wait)),
            format!("{:.1}%", pct(c.fault_retry)),
            format!("{:.1}%", pct(c.idle_cycles)),
            elapsed,
        ));
    }
    out
}

/// Serialize the leaf buckets as a deterministic JSON array (fixed field
/// order), for embedding in postmortem artifacts.
pub fn to_json(cores: &[CoreAttribution]) -> String {
    let mut out = String::from("[");
    for (i, c) in cores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"core\":{}", c.core));
        for (name, v) in c.buckets() {
            out.push_str(&format!(",\"{name}\":{v}"));
        }
        out.push_str(&format!(",\"elapsed\":{}}}", c.elapsed()));
    }
    out.push(']');
    out
}

/// Engine-wide top-down cycle summary for one query: the leaf buckets
/// summed over all participating cores, as the query log records them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopDownSummary {
    /// Useful work cycles.
    pub retired: u64,
    /// Memory-bound cycles ([`CoreAttribution::memory_bound`]).
    pub mem: u64,
    /// Stalled cycles ([`CoreAttribution::fabric_stall`]).
    pub stall: u64,
    /// Idle cycles (core finished its morsels early).
    pub idle: u64,
    /// Elapsed cycles summed over cores; equals the other buckets' sum.
    pub elapsed: u64,
}

impl TopDownSummary {
    /// Sum `cores` into the summary's five buckets.
    pub fn of(cores: &[CoreAttribution]) -> Self {
        let mut sum = TopDownSummary::default();
        for c in cores {
            sum.retired += c.retired;
            sum.mem += c.memory_bound();
            sum.stall += c.fabric_stall();
            sum.idle += c.idle_cycles;
            sum.elapsed += c.elapsed();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreAttribution {
        CoreAttribution {
            core: 0,
            busy_cycles: 94,
            idle_cycles: 6,
            bytes_read: 4096,
            retired: 40,
            mem_l1: 10,
            mem_l2: 8,
            mem_dram: 20,
            mem_rm_device: 5,
            bw_wait: 7,
            fault_retry: 4,
        }
    }

    #[test]
    fn buckets_partition_elapsed() {
        let c = sample();
        assert_eq!(c.buckets().iter().map(|&(_, v)| v).sum::<u64>(), 100);
        assert_eq!(c.elapsed(), 100);
        c.verify().unwrap();
        assert_eq!(c.memory_bound(), 43);
        assert_eq!(c.mem_lat(), 18);
        assert_eq!(c.stall_cycles(), 36);
        assert_eq!(c.fabric_stall(), 11);
        let sum = TopDownSummary::of(&[c, c]);
        assert_eq!(sum.retired + sum.mem + sum.stall + sum.idle, sum.elapsed);
        assert_eq!(sum.elapsed, 200);
    }

    #[test]
    fn export_and_json_are_stable() {
        let cores = [sample()];
        let counters = cores[0].counters();
        let value = |key: &str| counters.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        assert_eq!(value("td.retired"), Some(40));
        assert_eq!(value("td.stall.idle"), Some(6));
        assert_eq!(value("td.elapsed"), Some(100));
        assert_eq!(value("busy_cycles"), Some(94));
        assert_eq!(value("bytes_read"), Some(4096));
        // Every leaf bucket, under its short name, in `buckets` order.
        for ((key, v), (name, b)) in counters[3..].iter().zip(cores[0].buckets()) {
            assert_eq!((*key, *v), (&*format!("td.{name}"), b));
        }
        let json = to_json(&cores);
        assert!(json.starts_with("[{\"core\":0,\"retired\":40,"));
        assert!(json.ends_with(",\"stall.idle\":6,\"elapsed\":100}]"));
        crate::parse_json(&json).expect("topdown json parses");
        let rendered = render(&cores);
        assert!(rendered.contains("40.0%"), "{rendered}");
    }
}
