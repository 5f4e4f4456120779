//! Chaos suite: seeded fault plans against the whole stack.
//!
//! Every test here drives Fig-5/Q6-shaped queries through a
//! [`query::Engine`] session while a deterministic [`FaultPlan`]
//! injects device stalls, delivery timeouts, and bit flips — and asserts
//! the **transparency invariant** of DESIGN.md §9: under any fault plan,
//! a query either succeeds on the RM path after retries or degrades onto
//! a software path, and its answer is bit-identical to the fault-free
//! run. No panics, anywhere, ever.
//!
//! Determinism makes every failure replayable: the sweep seed comes from
//! `FABRIC_CHAOS_SEED` (and the plan count from `FABRIC_CHAOS_PLANS`),
//! and every assertion message carries the seed that reproduces it:
//!
//! ```text
//! FABRIC_CHAOS_SEED=12345 cargo test --test fault_tolerance
//! ```

use fabric_sim::{FaultConfig, FaultPlan, MemoryHierarchy, RecoveryPolicy, SimConfig};
use fabric_types::rng::SplitMix64;
use fabric_types::{FabricError, Value};
use query::{AccessPath, FaultContext};
use relstore::{RsConfig, SsdDevice};

mod support;
use support::{env_u64, seed, wide_rm_engine};
/// Default number of randomized plans; override with `FABRIC_CHAOS_PLANS`.
const DEFAULT_PLANS: u64 = 8;

const CHAOS_ROWS: usize = 12_288;

/// The query shapes under chaos: Fig-5-style projections at two
/// projectivities, a Q6-shaped range-predicate aggregate, and a grouped
/// aggregate (ORDER BY exercises post-processing on the degraded path).
const QUERIES: &[&str] = &[
    "SELECT c0, c5 FROM t WHERE c0 < 64000",
    "SELECT c0, c3, c7, c11 FROM t",
    "SELECT sum(c5), count(*) FROM t WHERE c0 >= 1600 AND c0 < 160000",
    "SELECT c1, sum(c2) FROM t WHERE c0 < 512 GROUP BY c1 ORDER BY 2 DESC LIMIT 8",
];

/// Derive plan `i`'s fault configuration from the sweep seed: per-site
/// rates up to ~12% plus engine stalls, all pure functions of the seed.
fn derived_cfg(sweep_seed: u64, i: u64) -> FaultConfig {
    let mut sm = SplitMix64::new(sweep_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rate = || (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 0.12;
    let rm_stall_prob = rate();
    let rm_timeout_prob = rate();
    let rm_corrupt_prob = rate();
    FaultConfig {
        rm_stall_prob,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob,
        rm_corrupt_prob,
        ..FaultConfig::quiet(sweep_seed.wrapping_add(i))
    }
}

/// The headline chaos sweep: randomized fault plans, bit-identical
/// answers, no panics. Every failure message carries the replay seed.
#[test]
fn chaos_randomized_fault_plans_preserve_answers() {
    let seed = seed();
    let plans = env_u64("FABRIC_CHAOS_PLANS", DEFAULT_PLANS);

    // Fault-free reference answers, computed once.
    let mut engine = wide_rm_engine(CHAOS_ROWS);
    let reference: Vec<Vec<Vec<Value>>> = QUERIES
        .iter()
        .map(|sql| engine.session().run_on(sql, AccessPath::Rm).unwrap().rows)
        .collect();

    let mut total_injected = 0u64;
    let mut total_fallbacks = 0u64;
    for i in 0..plans {
        let cfg = derived_cfg(seed, i);
        let mut engine = wide_rm_engine(CHAOS_ROWS);
        engine.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
        for (qi, sql) in QUERIES.iter().enumerate() {
            let out = engine.session().run(sql).unwrap_or_else(|e| {
                panic!(
                    "plan #{i} query {qi} errored: {e}\n  replay: FABRIC_CHAOS_SEED={seed} \
                     FABRIC_CHAOS_PLANS={plans} cargo test --test fault_tolerance"
                )
            });
            assert_eq!(
                out.rows, reference[qi],
                "plan #{i} query {qi} diverged from the fault-free answer\n  \
                 replay: FABRIC_CHAOS_SEED={seed} FABRIC_CHAOS_PLANS={plans} \
                 cargo test --test fault_tolerance"
            );
            // Outputs must carry the consumer-side view of what happened.
            if let Some(s) = &out.rm_stats {
                assert!(s.retries >= (s.crc_failures + s.delivery_timeouts).saturating_sub(1));
            }
        }
        let ctx = engine.fault_context();
        total_fallbacks += ctx.fallbacks;
        total_injected += ctx.plan.stats().total();
    }
    // The sweep is vacuous if nothing was ever injected.
    assert!(
        total_injected > 0,
        "no faults injected across {plans} plans (seed {seed}) — sweep is vacuous"
    );
    // Fallbacks may legitimately be zero at low rates; record, don't require.
    let _ = total_fallbacks;
}

/// Guaranteed-fault plan: the device always times out, so every RM-routed
/// query must degrade — transparently — and the degradation must be
/// visible in `QueryOutput` and the context's counters.
#[test]
fn chaos_guaranteed_fallback_is_transparent_and_counted() {
    let seed = seed();
    let mut engine = wide_rm_engine(4096);
    let sql = QUERIES[0];
    let reference = engine.session().run_on(sql, AccessPath::Rm).unwrap().rows;

    let cfg = FaultConfig {
        rm_timeout_prob: 1.0,
        ..FaultConfig::quiet(seed)
    };
    let policy = RecoveryPolicy::default();
    engine.set_fault_context(FaultContext::new(cfg, policy));
    let mut degraded = 0u64;
    for round in 0..(policy.breaker_threshold + policy.breaker_cooldown) {
        let out = engine.session().run(sql).unwrap_or_else(|e| {
            panic!("round {round} errored: {e} (replay: FABRIC_CHAOS_SEED={seed})")
        });
        assert_eq!(out.rows, reference, "replay: FABRIC_CHAOS_SEED={seed}");
        assert_eq!(out.degraded_from, Some(AccessPath::Rm));
        assert_ne!(out.path, AccessPath::Rm);
        if let Some(s) = out.rm_stats {
            assert!(s.delivery_timeouts > 0, "failed-attempt stats must surface");
            degraded += 1;
        }
    }
    let ctx = engine.fault_context();
    assert_eq!(ctx.fallbacks, degraded, "every RM attempt fell back");
    assert_eq!(ctx.fallbacks, policy.breaker_threshold as u64);
    assert!(
        ctx.breaker_skips > 0,
        "the breaker must eventually fail fast instead of retrying a dead device"
    );
    assert!(ctx.rm_health().trips >= 1);
}

/// Replay: the same seed produces the same simulated timeline, the same
/// fault counters, and the same answers — chaos failures are debuggable.
#[test]
fn chaos_same_seed_replays_bit_identically() {
    let seed = seed();
    let run = || {
        let cfg = derived_cfg(seed, 3);
        let mut engine = wide_rm_engine(4096);
        engine.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
        let mut rows = Vec::new();
        let mut ns = Vec::new();
        for sql in QUERIES {
            let out = engine.session().run(sql).unwrap();
            rows.push(out.rows);
            ns.push(out.ns.to_bits());
        }
        let ctx = engine.fault_context();
        (rows, ns, ctx.plan.stats(), ctx.fallbacks)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "answers must replay (seed {seed})");
    assert_eq!(
        a.1, b.1,
        "simulated time must replay to the bit (seed {seed})"
    );
    assert_eq!(a.2, b.2, "fault stats must replay (seed {seed})");
    assert_eq!(a.3, b.3, "fallback counts must replay (seed {seed})");
}

/// Relational Storage under chaos: transient page failures and link
/// corruption recover to bit-identical shipments; a latent sector error
/// surfaces as a clean `FlashReadError` — never a panic, never bad data.
#[test]
fn chaos_relstore_recovers_or_fails_cleanly() {
    let seed = seed();
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
    // Enough pages that a 15% per-page fault rate injects something for
    // any seed (the no-injection probability is below 1e-9).
    let rows = 16_384usize;
    let mut bytes = Vec::with_capacity(rows * 32);
    for i in 0..rows {
        for j in 0..8 {
            bytes.extend_from_slice(&((i * 8 + j) as i32).to_le_bytes());
        }
    }
    let t = dev.store_rows(&bytes, 32).unwrap();
    let (clean, _) = dev.fetch_raw(&mut mem, &t).unwrap();
    dev.reset_timing();

    // Transient faults: either recovery is invisible in the bytes, or —
    // if some unlucky page burns the whole retry budget — the failure
    // surfaces as the typed error, never as bad data or a panic.
    let cfg = FaultConfig {
        flash_transient_prob: 0.08,
        link_corrupt_prob: 0.08,
        ..FaultConfig::quiet(seed)
    };
    dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
    match dev.fetch_raw(&mut mem, &t) {
        Ok((faulty, stats)) => {
            assert_eq!(clean, faulty, "replay: FABRIC_CHAOS_SEED={seed}");
            assert!(stats.injected_faults > 0, "sweep vacuous at seed {seed}");
            assert_eq!(stats.retries, stats.injected_faults);
        }
        Err(FabricError::FlashReadError { attempts, .. }) => {
            assert_eq!(attempts, RecoveryPolicy::default().max_retries + 1);
        }
        Err(FabricError::CorruptBatch { device, .. }) => {
            assert_eq!(device, "host-link", "replay: FABRIC_CHAOS_SEED={seed}");
        }
        Err(other) => {
            panic!("untyped transient failure: {other:?} (replay: FABRIC_CHAOS_SEED={seed})")
        }
    }

    // Latent sector errors: unrecoverable, and reported as exactly that.
    dev.inject_faults(
        FaultPlan::new(FaultConfig::quiet(seed).with_latent(1.0)),
        RecoveryPolicy::default(),
    );
    match dev.fetch_raw(&mut mem, &t) {
        Err(FabricError::FlashReadError { page, attempts }) => {
            assert_eq!(page, t.first_page);
            assert_eq!(attempts, RecoveryPolicy::default().max_retries + 1);
        }
        other => panic!("expected FlashReadError, got {other:?} (seed {seed})"),
    }
}

/// FNV-1a (64-bit) over `texts` in order, each followed by a separator
/// byte.
fn digest(texts: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in text.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The SSD's read-side fault path, pinned to the bit: the geometry,
/// aggregate and raw fetches each run twice under transient page and link
/// faults, at three fixed seeds and two rates (the higher one exhausts
/// retry budgets and trips the breaker). Each fetch's bytes or values,
/// `RsStats` or typed error, the simulated clock, the fault counters and
/// the breaker state are digested with FNV-1a. The constants were computed
/// in a separate clone of the commit before the three fetches shared one
/// pipeline, so every draw, retry and cycle of the fold is checked against
/// the code it replaced.
#[test]
fn relstore_fault_path_matches_the_pinned_digests() {
    use fabric_types::{
        AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, FieldSlice, Geometry, OutputMode,
        Predicate,
    };
    let rows = 2048usize;
    let mut bytes = Vec::with_capacity(rows * 32);
    for i in 0..rows {
        for j in 0..8 {
            bytes.extend_from_slice(&((i * 8 + j) as i32).to_le_bytes());
        }
    }
    let f = |c: usize| FieldSlice::new(c, c * 4, ColumnType::I32);
    let mut got = Vec::new();
    for seed in [1u64, 7, 42] {
        for rate in [0.1, 0.5] {
            let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
            let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
            let t = dev.store_rows(&bytes, 32).unwrap();
            let cfg = FaultConfig {
                flash_transient_prob: rate,
                link_corrupt_prob: rate,
                ..FaultConfig::quiet(seed)
            };
            dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
            let pred = Predicate::always_true().and(ColumnPredicate::new(
                f(3),
                CmpOp::Lt,
                Value::I32(4_000),
            ));
            let agg =
                Geometry::packed(0, 32, t.rows, vec![f(1)]).with_mode(OutputMode::Aggregate(vec![
                    AggSpec::count(),
                    AggSpec::over(AggFunc::Sum, f(1)),
                ]));
            let mut texts = Vec::new();
            for _ in 0..2 {
                let r = dev.fetch_geometry(&mut mem, &t, vec![f(0), f(5)], pred.clone());
                texts.push(format!("{r:?}"));
                let r = dev.fetch_aggregate(&mut mem, &t, &agg);
                texts.push(format!("{r:?}"));
                let r = dev.fetch_raw(&mut mem, &t);
                texts.push(format!("{r:?}"));
                texts.push(format!(
                    "{} {:?} {:?}",
                    mem.now(),
                    dev.fault_stats(),
                    dev.health().state()
                ));
            }
            got.push((seed, rate.to_bits(), digest(texts)));
        }
    }
    let want: [(u64, u64, u64); 6] = [
        (1, 0.1f64.to_bits(), 577164851826429344),
        (1, 0.5f64.to_bits(), 15650500935020704606),
        (7, 0.1f64.to_bits(), 1535911875768251133),
        (7, 0.5f64.to_bits(), 5866454202565716620),
        (42, 0.1f64.to_bits(), 4624081826563585387),
        (42, 0.5f64.to_bits(), 10933704647945720650),
    ];
    assert_eq!(got, want);
}
