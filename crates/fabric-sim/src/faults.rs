//! Deterministic, seeded fault injection for the simulated hardware.
//!
//! The paper's premise is a hardware layer that is *transparent* to
//! software; transparency has to survive the hardware misbehaving. This
//! module is the single source of truth for *when* a simulated component
//! misbehaves: every injection site draws its faults from a [`FaultPlan`],
//! and every draw is a pure function of `(seed, site, counter)` — so a
//! chaos run is bit-replayable from its seed alone, regardless of how the
//! consuming code interleaves sites.
//!
//! What can be injected (consumers detect and recover, see DESIGN.md §9):
//!
//! * **RM engine stalls** — a produced batch becomes ready late
//!   ([`FaultPlan::rm_engine_stall`]; charged straight to the cycle clock,
//!   recoverable by waiting);
//! * **RM delivery timeouts** — a delivery attempt elapses with no data
//!   ([`FaultPlan::rm_timeout`]; consumer retries with backoff, then
//!   surfaces `FabricError::DeviceTimeout`);
//! * **bit flips in delivered batches** ([`FaultPlan::rm_corrupt`];
//!   detected by the CRC-32 frame, redelivered, then
//!   `FabricError::CorruptBatch`);
//! * **transient flash read failures** ([`FaultPlan::flash_read_failed`])
//!   and **latent sector errors** ([`FaultPlan::flash_latent`], persistent
//!   per page — retries cannot fix them);
//! * **host-link corruption** ([`FaultPlan::link_corrupted`]; detected by
//!   the shipment CRC, re-shipped, then `FabricError::CorruptBatch`).
//!
//! The *write path* (DESIGN.md §14) has its own sites:
//!
//! * **flash program failures** ([`FaultPlan::flash_write_failed`];
//!   retried with backoff, then `FabricError::FlashWriteError`);
//! * **power cuts** ([`FaultPlan::write_crash`]; either drawn per durable
//!   write from `wal_crash_prob` or *scheduled* at the `crash_at_write`-th
//!   write for systematic crash matrices — the in-flight write survives
//!   only as the prefix picked by [`FaultPlan::crash_keep`], and the
//!   device surfaces `FabricError::PowerLoss`);
//! * **silent torn page writes** ([`FaultPlan::torn_write`]; a checkpoint
//!   page persists only partially with no error at write time — detected
//!   later by the per-page CRC at read).
//!
//! Recovery budgets (retries, backoff, circuit-breaker thresholds) live in
//! [`RecoveryPolicy`]; per-device health in [`CircuitBreaker`].

use crate::Cycles;
use fabric_types::rng::SplitMix64;

/// Per-site salts: distinct streams per fault kind so enabling one fault
/// class never perturbs the draws of another.
const SALT_RM_STALL: u64 = 0x524D_5354_414C_4C01;
const SALT_RM_TIMEOUT: u64 = 0x524D_5449_4D45_4F02;
const SALT_RM_CORRUPT: u64 = 0x524D_434F_5252_5003;
const SALT_FLASH_TRANSIENT: u64 = 0x464C_5452_414E_5304;
const SALT_FLASH_LATENT: u64 = 0x464C_4C41_5445_4E05;
const SALT_LINK: u64 = 0x4C49_4E4B_434F_5206;
const SALT_FLASH_WRITE: u64 = 0x464C_5752_4954_4507;
const SALT_WAL_CRASH: u64 = 0x5741_4C43_5241_5308;
const SALT_TORN: u64 = 0x544F_524E_5747_5409;

/// Number of counter-backed sites (latent errors are stateless per page).
const N_SITES: usize = 8;
const SITE_RM_STALL: usize = 0;
const SITE_RM_TIMEOUT: usize = 1;
const SITE_RM_CORRUPT: usize = 2;
const SITE_FLASH_TRANSIENT: usize = 3;
const SITE_LINK: usize = 4;
const SITE_FLASH_WRITE: usize = 5;
const SITE_WAL_CRASH: usize = 6;
const SITE_TORN: usize = 7;

/// Probabilities of each injectable fault (all default to 0 = fault-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of every fault stream; the replay handle for a chaos run.
    pub seed: u64,
    /// Probability a produced RM batch is delayed in the engine
    /// (recoverable slowness, charged to `ready_at`).
    pub rm_stall_prob: f64,
    /// Extra engine latency charged when a stall hits (simulated ns).
    pub rm_stall_ns: f64,
    /// Probability an RM delivery attempt times out with no data.
    pub rm_timeout_prob: f64,
    /// Probability a delivered RM batch arrives with a flipped bit.
    pub rm_corrupt_prob: f64,
    /// Probability a flash page read fails transiently (per attempt).
    pub flash_transient_prob: f64,
    /// Probability a flash page carries a latent sector error
    /// (persistent per page: every read of that page fails).
    pub flash_latent_prob: f64,
    /// Probability a host-link shipment arrives corrupted (per attempt).
    pub link_corrupt_prob: f64,
    /// Probability a flash page program attempt fails (per attempt).
    pub flash_write_prob: f64,
    /// Probability a durable write (WAL append or checkpoint page) is
    /// interrupted by a power cut.
    pub wal_crash_prob: f64,
    /// Probability a checkpoint page write silently persists only a
    /// prefix of its bytes (no error at write time; caught by CRC).
    pub torn_write_prob: f64,
    /// Scheduled power cut at exactly the n-th durable write (1-based;
    /// 0 disables). Counts every [`FaultPlan::write_crash`] ask across
    /// the device, so a crash matrix can step a run through each write.
    pub crash_at_write: u64,
}

impl FaultConfig {
    /// A fault-free plan (all probabilities zero).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            rm_stall_prob: 0.0,
            rm_stall_ns: 2_000.0,
            rm_timeout_prob: 0.0,
            rm_corrupt_prob: 0.0,
            flash_transient_prob: 0.0,
            flash_latent_prob: 0.0,
            link_corrupt_prob: 0.0,
            flash_write_prob: 0.0,
            wal_crash_prob: 0.0,
            torn_write_prob: 0.0,
            crash_at_write: 0,
        }
    }

    /// `true` when this configuration can never inject anything: every
    /// probability is zero and no scheduled power cut is armed. Consumers
    /// use this to keep fault-visible behaviour (degradation, breaker
    /// state) identical whether or not they hold caches — a memoized
    /// result must not short-circuit a device that is configured to fail.
    pub fn is_quiet(&self) -> bool {
        self.rm_stall_prob == 0.0
            && self.rm_timeout_prob == 0.0
            && self.rm_corrupt_prob == 0.0
            && self.flash_transient_prob == 0.0
            && self.flash_latent_prob == 0.0
            && self.link_corrupt_prob == 0.0
            && self.flash_write_prob == 0.0
            && self.wal_crash_prob == 0.0
            && self.torn_write_prob == 0.0
            && self.crash_at_write == 0
    }

    /// Every *transient* fault at the same `rate`; latent errors and
    /// power cuts stay off (they are unrecoverable in place and deserve
    /// an explicit opt-in).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            rm_stall_prob: rate,
            rm_timeout_prob: rate,
            rm_corrupt_prob: rate,
            flash_transient_prob: rate,
            link_corrupt_prob: rate,
            flash_write_prob: rate,
            ..FaultConfig::quiet(seed)
        }
    }

    /// This configuration with latent sector errors at `rate`.
    pub fn with_latent(self, rate: f64) -> Self {
        FaultConfig {
            flash_latent_prob: rate,
            ..self
        }
    }

    /// This configuration with a power cut scheduled at the `n`-th
    /// durable write (1-based; 0 disables).
    pub fn with_crash_at(self, n: u64) -> Self {
        FaultConfig {
            crash_at_write: n,
            ..self
        }
    }
}

/// Detection-and-recovery budgets shared by every consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Redelivery attempts after the first failure before surfacing an
    /// error to the caller.
    pub max_retries: u32,
    /// Base backoff charged to the simulated clock per retry; doubles
    /// each attempt (capped at 2^8 × base).
    pub backoff_ns: f64,
    /// Consecutive operation-level failures that open a device's circuit
    /// breaker.
    pub breaker_threshold: u32,
    /// Operations the open breaker fails fast before letting one trial
    /// through (half-open probe).
    pub breaker_cooldown: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_ns: 250.0,
            breaker_threshold: 3,
            breaker_cooldown: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff for retry number `attempt` (1-based) in cycles, exponential
    /// with a cap, on a clock of `cpu_ghz` cycles per nanosecond.
    pub fn backoff_cycles(&self, attempt: u32, cpu_ghz: f64) -> Cycles {
        let base = (self.backoff_ns * cpu_ghz).round().max(1.0) as Cycles;
        base << attempt.saturating_sub(1).min(8)
    }
}

/// Counts of faults actually injected (not merely probable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub rm_stalls: u64,
    pub rm_timeouts: u64,
    pub rm_corruptions: u64,
    pub flash_transients: u64,
    pub flash_latents: u64,
    pub link_corruptions: u64,
    pub flash_write_errors: u64,
    pub wal_crashes: u64,
    pub torn_writes: u64,
}

impl FaultStats {
    /// Total injected faults across every site.
    pub fn total(&self) -> u64 {
        self.rm_stalls
            + self.rm_timeouts
            + self.rm_corruptions
            + self.flash_transients
            + self.flash_latents
            + self.link_corruptions
            + self.flash_write_errors
            + self.wal_crashes
            + self.torn_writes
    }
}

/// A seeded, deterministic fault plan. Clone-free by design: each device
/// holds (or borrows) exactly one plan so counters advance exactly once
/// per injection opportunity.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    counters: [u64; N_SITES],
    stats: FaultStats,
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            counters: [0; N_SITES],
            stats: FaultStats::default(),
        }
    }

    /// A plan that never injects anything.
    pub fn quiet() -> Self {
        FaultPlan::new(FaultConfig::quiet(0))
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One uniform draw in `[0, 1)` for `(seed, salt, n)`.
    fn unit(seed: u64, salt: u64, n: u64) -> f64 {
        let mut sm = SplitMix64::new(seed ^ salt ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Advance `site`'s counter and decide with probability `prob`.
    fn decide(&mut self, site: usize, salt: u64, prob: f64) -> bool {
        let n = self.counters[site];
        self.counters[site] += 1;
        prob > 0.0 && Self::unit(self.cfg.seed, salt, n) < prob
    }

    /// An auxiliary draw tied to the *current* count of `site` (used to
    /// pick corruption positions without disturbing the decision stream).
    fn aux(&self, site: usize, salt: u64) -> u64 {
        let n = self.counters[site];
        let mut sm = SplitMix64::new(self.cfg.seed ^ salt.rotate_left(17) ^ n);
        sm.next_u64()
    }

    /// Engine-side stall of a produced batch: `Some(extra_ns)` to add to
    /// its readiness time.
    pub fn rm_engine_stall(&mut self) -> Option<f64> {
        if self.decide(SITE_RM_STALL, SALT_RM_STALL, self.cfg.rm_stall_prob) {
            self.stats.rm_stalls += 1;
            Some(self.cfg.rm_stall_ns)
        } else {
            None
        }
    }

    /// Does this RM delivery attempt time out (no data arrives)?
    pub fn rm_timeout(&mut self) -> bool {
        let hit = self.decide(SITE_RM_TIMEOUT, SALT_RM_TIMEOUT, self.cfg.rm_timeout_prob);
        if hit {
            self.stats.rm_timeouts += 1;
        }
        hit
    }

    /// Bit flip in a delivered batch of `len` bytes: `Some((byte, mask))`
    /// to xor into the delivered copy.
    pub fn rm_corrupt(&mut self, len: usize) -> Option<(usize, u8)> {
        if len == 0 || !self.decide(SITE_RM_CORRUPT, SALT_RM_CORRUPT, self.cfg.rm_corrupt_prob) {
            return None;
        }
        self.stats.rm_corruptions += 1;
        let raw = self.aux(SITE_RM_CORRUPT, SALT_RM_CORRUPT);
        let byte = (raw % len as u64) as usize;
        let mask = 1u8 << ((raw >> 32) % 8);
        Some((byte, mask))
    }

    /// Does this read attempt of `page` fail? Latent sector errors fail
    /// every attempt; transient failures are drawn per attempt.
    pub fn flash_read_failed(&mut self, page: u64) -> bool {
        if self.flash_latent(page) {
            self.stats.flash_latents += 1;
            return true;
        }
        let hit = self.decide(
            SITE_FLASH_TRANSIENT,
            SALT_FLASH_TRANSIENT,
            self.cfg.flash_transient_prob,
        );
        if hit {
            self.stats.flash_transients += 1;
        }
        hit
    }

    /// Persistent latent sector error on `page`: a pure function of
    /// `(seed, page)`, so retries deterministically keep failing.
    pub fn flash_latent(&self, page: u64) -> bool {
        self.cfg.flash_latent_prob > 0.0
            && Self::unit(self.cfg.seed, SALT_FLASH_LATENT, page) < self.cfg.flash_latent_prob
    }

    /// Does this host-link shipment arrive corrupted?
    pub fn link_corrupted(&mut self) -> bool {
        let hit = self.decide(SITE_LINK, SALT_LINK, self.cfg.link_corrupt_prob);
        if hit {
            self.stats.link_corruptions += 1;
        }
        hit
    }

    /// Does this flash page program attempt fail? Drawn per attempt, so
    /// a retry with backoff can succeed.
    pub fn flash_write_failed(&mut self) -> bool {
        let hit = self.decide(
            SITE_FLASH_WRITE,
            SALT_FLASH_WRITE,
            self.cfg.flash_write_prob,
        );
        if hit {
            self.stats.flash_write_errors += 1;
        }
        hit
    }

    /// Does the power cut out during this durable write? Every durable
    /// write on the device (WAL append or checkpoint page) must ask
    /// exactly once, so `crash_at_write = n` deterministically cuts the
    /// n-th write regardless of which kind it is. A hit means volatile
    /// state is lost and the in-flight write survives only as the prefix
    /// picked by [`FaultPlan::crash_keep`].
    pub fn write_crash(&mut self) -> bool {
        let n = self.counters[SITE_WAL_CRASH];
        self.counters[SITE_WAL_CRASH] += 1;
        let scheduled = self.cfg.crash_at_write > 0 && n + 1 == self.cfg.crash_at_write;
        let drawn = self.cfg.wal_crash_prob > 0.0
            && Self::unit(self.cfg.seed, SALT_WAL_CRASH, n) < self.cfg.wal_crash_prob;
        let hit = scheduled || drawn;
        if hit {
            self.stats.wal_crashes += 1;
        }
        hit
    }

    /// How many of the `len` in-flight bytes made it to the medium before
    /// the cut: a deterministic draw in `[0, len]` tied to the crash that
    /// just fired. `len` itself is possible — the write was durable but
    /// the caller never saw the acknowledgement (commit ambiguity).
    pub fn crash_keep(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.aux(SITE_WAL_CRASH, SALT_WAL_CRASH) % (len as u64 + 1)) as usize
    }

    /// Does this page write silently tear? `Some(keep)` with
    /// `0 < keep < len` means only the first `keep` bytes persist and the
    /// device reports success anyway — the lie a CRC check must catch.
    pub fn torn_write(&mut self, len: usize) -> Option<usize> {
        let hit = self.decide(SITE_TORN, SALT_TORN, self.cfg.torn_write_prob);
        if !hit || len < 2 {
            return None;
        }
        self.stats.torn_writes += 1;
        let keep = 1 + (self.aux(SITE_TORN, SALT_TORN) % (len as u64 - 1)) as usize;
        Some(keep)
    }
}

/// Breaker state, for introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Operations flow through; failures are being counted.
    Closed,
    /// Failing fast: `skips_left` more operations are rejected unprobed.
    Open { skips_left: u32 },
    /// The cooldown elapsed; the next operation is a probe.
    HalfOpen,
}

/// Consecutive-failure circuit breaker guarding one device.
///
/// After `breaker_threshold` consecutive failures the breaker *opens*:
/// the next `breaker_cooldown` operations fail fast without touching the
/// device (no retry storms against dead hardware). It then goes
/// *half-open*, letting a single probe through; success closes it,
/// failure re-opens it for another cooldown.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u32,
    consecutive_failures: u32,
    skips_left: u32,
    open: bool,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Operations rejected while open.
    pub rejections: u64,
}

impl CircuitBreaker {
    pub fn new(policy: &RecoveryPolicy) -> Self {
        CircuitBreaker {
            threshold: policy.breaker_threshold.max(1),
            cooldown: policy.breaker_cooldown,
            consecutive_failures: 0,
            skips_left: 0,
            open: false,
            trips: 0,
            rejections: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        if !self.open {
            BreakerState::Closed
        } else if self.skips_left > 0 {
            BreakerState::Open {
                skips_left: self.skips_left,
            }
        } else {
            BreakerState::HalfOpen
        }
    }

    /// May the next operation touch the device? `false` means fail fast.
    pub fn allow(&mut self) -> bool {
        if !self.open {
            return true;
        }
        if self.skips_left > 0 {
            self.skips_left -= 1;
            self.rejections += 1;
            false
        } else {
            // Half-open: admit one probe.
            true
        }
    }

    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open = false;
        self.skips_left = 0;
    }

    pub fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            if !self.open {
                self.trips += 1;
            }
            self.open = true;
            self.skips_left = self.cooldown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultPlan::new(FaultConfig::uniform(42, 0.3));
        let mut b = FaultPlan::new(FaultConfig::uniform(42, 0.3));
        for _ in 0..500 {
            assert_eq!(a.rm_timeout(), b.rm_timeout());
            assert_eq!(a.rm_corrupt(64), b.rm_corrupt(64));
            assert_eq!(a.flash_read_failed(7), b.flash_read_failed(7));
            assert_eq!(a.link_corrupted(), b.link_corrupted());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Drawing 100 extra timeouts must not change the corruption stream.
        let mut a = FaultPlan::new(FaultConfig::uniform(9, 0.5));
        let mut b = FaultPlan::new(FaultConfig::uniform(9, 0.5));
        for _ in 0..100 {
            let _ignored = b.rm_timeout();
        }
        for _ in 0..50 {
            assert_eq!(a.rm_corrupt(1024), b.rm_corrupt(1024));
        }
    }

    #[test]
    fn rates_track_probabilities() {
        let mut p = FaultPlan::new(FaultConfig::uniform(3, 0.25));
        let hits = (0..10_000).filter(|_| p.rm_timeout()).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
        let mut quiet = FaultPlan::quiet();
        assert!(!(0..1000).any(|_| quiet.rm_timeout()));
        assert_eq!(quiet.stats().total(), 0);
    }

    #[test]
    fn latent_errors_are_persistent_per_page() {
        let p = FaultPlan::new(FaultConfig::quiet(11).with_latent(0.05));
        let bad: Vec<u64> = (0..2000).filter(|&pg| p.flash_latent(pg)).collect();
        assert!(
            (40..250).contains(&bad.len()),
            "expected ~5% latent pages, got {}",
            bad.len()
        );
        // Persistence: the verdict never changes across re-asks.
        for &pg in bad.iter().take(10) {
            for _ in 0..5 {
                assert!(p.flash_latent(pg));
            }
        }
    }

    #[test]
    fn corruption_targets_are_in_bounds() {
        let mut p = FaultPlan::new(FaultConfig::uniform(5, 1.0));
        for len in [1usize, 7, 64, 4096] {
            for _ in 0..100 {
                let (byte, mask) = p.rm_corrupt(len).expect("prob 1.0 always corrupts");
                assert!(byte < len);
                assert_eq!(mask.count_ones(), 1);
            }
        }
        assert!(p.rm_corrupt(0).is_none(), "empty batches cannot corrupt");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let pol = RecoveryPolicy::default();
        let b1 = pol.backoff_cycles(1, 1.2);
        let b2 = pol.backoff_cycles(2, 1.2);
        let b3 = pol.backoff_cycles(3, 1.2);
        assert_eq!(b2, b1 * 2);
        assert_eq!(b3, b1 * 4);
        assert_eq!(pol.backoff_cycles(40, 1.2), b1 << 8); // capped
        assert!(b1 > 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens() {
        let pol = RecoveryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: 2,
            ..RecoveryPolicy::default()
        };
        let mut cb = CircuitBreaker::new(&pol);
        assert!(cb.allow());
        cb.record_failure();
        cb.record_failure();
        assert_eq!(cb.state(), BreakerState::Closed);
        cb.record_failure(); // third: trips
        assert_eq!(cb.trips, 1);
        assert!(!cb.allow()); // cooldown 1
        assert!(!cb.allow()); // cooldown 2
        assert_eq!(cb.rejections, 2);
        assert_eq!(cb.state(), BreakerState::HalfOpen);
        assert!(cb.allow(), "half-open admits a probe");
        cb.record_failure(); // probe fails: re-open without a new trip count
        assert!(!cb.allow());
        assert_eq!(cb.trips, 1, "re-open of an open breaker is not a new trip");
        // Let cooldown drain, probe succeeds, breaker closes.
        assert!(!cb.allow());
        assert!(cb.allow());
        cb.record_success();
        assert_eq!(cb.state(), BreakerState::Closed);
        assert!(cb.allow());
    }

    #[test]
    fn uniform_config_keeps_latent_off() {
        let c = FaultConfig::uniform(1, 0.1);
        assert_eq!(c.flash_latent_prob, 0.0);
        assert_eq!(c.with_latent(0.01).flash_latent_prob, 0.01);
    }

    #[test]
    fn uniform_config_keeps_power_cuts_off() {
        let c = FaultConfig::uniform(1, 0.1);
        assert_eq!(c.flash_write_prob, 0.1);
        assert_eq!(c.wal_crash_prob, 0.0);
        assert_eq!(c.torn_write_prob, 0.0);
        assert_eq!(c.crash_at_write, 0);
        assert_eq!(c.with_crash_at(7).crash_at_write, 7);
    }

    #[test]
    fn write_sites_replay_bit_identically_from_the_seed() {
        let cfg = FaultConfig {
            wal_crash_prob: 0.2,
            torn_write_prob: 0.3,
            ..FaultConfig::uniform(77, 0.3)
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.flash_write_failed(), b.flash_write_failed());
            let (ca, cb) = (a.write_crash(), b.write_crash());
            assert_eq!(ca, cb);
            if ca {
                assert_eq!(a.crash_keep(4096), b.crash_keep(4096));
            }
            assert_eq!(a.torn_write(4096), b.torn_write(4096));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().wal_crashes > 0);
        assert!(a.stats().torn_writes > 0);
        assert!(a.stats().flash_write_errors > 0);
    }

    #[test]
    fn write_sites_do_not_perturb_read_streams() {
        let cfg = FaultConfig {
            wal_crash_prob: 0.5,
            torn_write_prob: 0.5,
            ..FaultConfig::uniform(13, 0.5)
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..100 {
            let _ignored = b.flash_write_failed();
            let _ignored = b.write_crash();
            let _ignored = b.torn_write(512);
        }
        for _ in 0..50 {
            assert_eq!(a.rm_corrupt(1024), b.rm_corrupt(1024));
            assert_eq!(a.flash_read_failed(3), b.flash_read_failed(3));
        }
    }

    #[test]
    fn scheduled_crash_fires_at_exactly_the_nth_write() {
        for n in [1u64, 2, 5, 17] {
            let mut p = FaultPlan::new(FaultConfig::quiet(0).with_crash_at(n));
            for i in 1..=30u64 {
                let crashed = p.write_crash();
                assert_eq!(crashed, i == n, "crash_at={n} write #{i}");
            }
            assert_eq!(p.stats().wal_crashes, 1);
        }
        // 0 disables scheduling entirely.
        let mut quiet = FaultPlan::quiet();
        assert!(!(0..100).any(|_| quiet.write_crash()));
    }

    #[test]
    fn crash_keep_and_tear_points_are_in_bounds() {
        let cfg = FaultConfig {
            torn_write_prob: 1.0,
            ..FaultConfig::quiet(21)
        };
        let mut p = FaultPlan::new(cfg);
        let mut seen_full = false;
        let mut seen_partial = false;
        for _ in 0..200 {
            let _advance = p.write_crash();
            let keep = p.crash_keep(64);
            assert!(keep <= 64);
            seen_full |= keep == 64;
            seen_partial |= keep < 64;
            let torn = p.torn_write(64).expect("prob 1.0 always tears");
            assert!(torn >= 1 && torn < 64, "tear keeps a strict prefix");
        }
        assert!(seen_full, "keep == len (durable-but-unacked) must occur");
        assert!(seen_partial, "partial prefixes must occur");
        assert_eq!(p.crash_keep(0), 0);
        assert!(p.torn_write(1).is_none(), "1-byte writes cannot tear");
    }
}
