//! Crash-recovery matrix: a deterministic power cut at **every** durable
//! write site of a transactional workload, with the DESIGN.md §14
//! invariant checked at each one:
//!
//! * every transaction whose commit was acknowledged before the cut is
//!   durable and visible after recovery;
//! * effects of unacknowledged transactions are absent — except the one
//!   legitimate ambiguity, a commit record that became fully durable in
//!   the same write the crash interrupted (recovery may resurrect it);
//! * the recovered store's answers are **bit-identical** to a
//!   never-crashed run of the same workload at the same watermark;
//! * replaying the same surviving image twice yields the same store
//!   (recovery is idempotent);
//! * every crash leaves a validator-clean, byte-deterministic
//!   [`fabric_obs::Postmortem`] in the flight recorder.
//!
//! Determinism: the crash schedule is `FaultConfig::with_crash_at(n)` on
//! the sweep seed, so any red run replays with
//! `FABRIC_CHAOS_SEED=<seed> cargo test --test crash_recovery`.

use durability::DurabilityConfig;
use fabric_obs::validate_chrome_trace;
use fabric_sim::{parse_json, FaultConfig, Json, MemoryHierarchy, Postmortem, SimConfig};
use fabric_types::{ColumnType, FabricError, Result, Schema, Value};
use mvcc::{CommitReceipt, DurableStore, LogicalId};
use query::Engine;
use rowstore::RowTable;
use std::collections::BTreeMap;

mod support;
use support::{seed, DEFAULT_SEED};
/// Commits in the workload and the auto-checkpoint cadence: small enough
/// that the full per-write crash matrix stays fast, large enough to put
/// crash sites on commit appends, checkpoint pages, and checkpoint refs.
const N_OPS: u64 = 12;
const CKPT_EVERY: u64 = 3;
const CAPACITY: usize = 256;

fn schema() -> Schema {
    Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)])
}

fn mem() -> MemoryHierarchy {
    MemoryHierarchy::new(SimConfig::zynq_a53())
}

/// Op `i` of the deterministic workload: mostly inserts, with an update
/// every 4th op and a delete every 7th — so checkpoints carry version
/// chains and tombstones, not just fresh rows.
fn apply_op(
    m: &mut MemoryHierarchy,
    s: &mut DurableStore,
    i: u64,
    logicals: &mut Vec<LogicalId>,
) -> Result<CommitReceipt> {
    let mut txn = s.begin();
    if i % 4 == 3 && !logicals.is_empty() {
        let l = logicals[i as usize % logicals.len()];
        txn.update(l, vec![(1, Value::I64(i as i64 * 1000))]);
    } else if i % 7 == 6 && logicals.len() > 1 {
        let l = logicals.remove(0);
        txn.delete(l);
    } else {
        txn.insert(vec![Value::I64(i as i64), Value::I64(i as i64 * 10)]);
    }
    let receipt = s.commit(m, txn)?;
    logicals.extend(receipt.inserted.iter().copied());
    Ok(receipt)
}

/// The never-crashed run: every `watermark -> visible rows` point along
/// the workload, plus the total durable-write count (the crash-site
/// budget for the matrix).
fn reference_run(seed: u64) -> (BTreeMap<u64, Vec<Vec<Value>>>, u64) {
    let mut m = mem();
    let mut s = DurableStore::create(
        &mut m,
        schema(),
        CAPACITY,
        DurabilityConfig::quiet(seed),
        CKPT_EVERY,
    )
    .unwrap();
    let mut snapshots = BTreeMap::new();
    snapshots.insert(s.snapshot_ts(), s.snapshot_rows(&mut m).unwrap());
    let mut logicals = Vec::new();
    for i in 0..N_OPS {
        let r = apply_op(&mut m, &mut s, i, &mut logicals).unwrap();
        snapshots.insert(r.commit_ts, s.snapshot_rows(&mut m).unwrap());
    }
    let writes = s.media().stats().durable_writes;
    (snapshots, writes)
}

/// Run the workload against a device scheduled to cut power at durable
/// write `crash_at`; returns the hierarchy (postmortems inside), the
/// surviving image, and the highest acknowledged commit timestamp.
fn crashed_run(seed: u64, crash_at: u64) -> (MemoryHierarchy, durability::DurableImage, u64) {
    let mut m = mem();
    let cfg =
        DurabilityConfig::quiet(seed).with_faults(FaultConfig::quiet(seed).with_crash_at(crash_at));
    let mut s = DurableStore::create(&mut m, schema(), CAPACITY, cfg, CKPT_EVERY).unwrap();
    let mut logicals = Vec::new();
    let mut acked = 0u64;
    let mut crashed = false;
    for i in 0..N_OPS {
        match apply_op(&mut m, &mut s, i, &mut logicals) {
            Ok(r) => {
                acked = acked.max(r.commit_ts);
                // A cut during the cadence checkpoint surfaces out-of-band:
                // the commit itself was durable and acknowledged.
                if let Some(e) = s.take_checkpoint_failure() {
                    match e {
                        FabricError::PowerLoss { device, .. } => {
                            assert!(
                                device == "wal" || device == "checkpoint",
                                "cut on unexpected device `{device}`"
                            );
                            crashed = true;
                            break;
                        }
                        other => panic!(
                            "crash_at={crash_at}: unexpected checkpoint error {other} \
                             (replay: FABRIC_CHAOS_SEED={seed})"
                        ),
                    }
                }
            }
            Err(FabricError::PowerLoss { device, .. }) => {
                assert_eq!(
                    device, "wal",
                    "a commit-path cut can only strike the WAL append"
                );
                crashed = true;
                break;
            }
            Err(e) => panic!(
                "crash_at={crash_at}: unexpected error {e} \
                 (replay: FABRIC_CHAOS_SEED={seed})"
            ),
        }
    }
    assert!(
        crashed,
        "crash_at={crash_at} is within the write budget, the run must cut"
    );
    (m, s.crash_image(), acked)
}

/// The headline matrix: cut power at every durable write the workload
/// performs, recover, and hold the whole §14 invariant each time.
#[test]
fn crash_matrix_every_write_site_recovers_consistently() {
    let seed = seed();
    let (reference, total_writes) = reference_run(seed);
    assert!(
        total_writes > N_OPS,
        "workload must write checkpoints too (got {total_writes} writes)"
    );

    let mut saw_partial_tail = false;
    for crash_at in 1..=total_writes {
        let (mut m, image, acked) = crashed_run(seed, crash_at);

        // Recover twice from the same image: idempotent by the bit.
        let recover = |m: &mut MemoryHierarchy, image| {
            DurableStore::replay(
                m,
                schema(),
                CAPACITY,
                image,
                DurabilityConfig::quiet(seed ^ 0xD0),
                CKPT_EVERY,
            )
            .unwrap()
        };
        let (r1, rep1) = recover(&mut m, image.clone());
        let (r2, rep2) = recover(&mut m, image);
        assert_eq!(rep1, rep2, "crash_at={crash_at}: recovery not idempotent");
        let rows = r1.snapshot_rows(&mut m).unwrap();
        assert_eq!(
            rows,
            r2.snapshot_rows(&mut m).unwrap(),
            "crash_at={crash_at}: recovered rows not idempotent"
        );

        // Acknowledged commits are durable: the watermark covers them.
        assert!(
            rep1.watermark >= acked,
            "crash_at={crash_at}: acked commit ts {acked} lost \
             (recovered watermark {}, seed {seed})",
            rep1.watermark
        );

        // Bit-identical to the never-crashed run at the same watermark —
        // which also proves unacknowledged effects beyond it are absent.
        let expect = reference.get(&rep1.watermark).unwrap_or_else(|| {
            panic!(
                "crash_at={crash_at}: recovered watermark {} matches no \
                 point of the reference run (seed {seed})",
                rep1.watermark
            )
        });
        assert_eq!(
            &rows, expect,
            "crash_at={crash_at}: recovered answers diverge from the \
             never-crashed run at watermark {} (seed {seed})",
            rep1.watermark
        );

        // The cut left a validator-clean postmortem; recovery logged one
        // of its own ("crash-recovery" or "recovery-degraded").
        let pms = m.take_postmortems();
        assert!(
            pms.iter().any(|p| p.reason == "power-loss"),
            "crash_at={crash_at}: no power-loss postmortem"
        );
        assert!(
            pms.iter()
                .any(|p| p.reason == "crash-recovery" || p.reason == "recovery-degraded"),
            "crash_at={crash_at}: no recovery postmortem"
        );
        for p in &pms {
            validate_chrome_trace(&p.trace).unwrap_or_else(|e| {
                panic!(
                    "crash_at={crash_at}: postmortem `{}` trace invalid: {e}",
                    p.reason
                )
            });
        }

        // Every recovery postmortem embeds a parseable RecoveryReport
        // context with the watermark the replay settled on.
        for p in pms
            .iter()
            .filter(|p| p.reason == "crash-recovery" || p.reason == "recovery-degraded")
        {
            let ctx = p.context.as_deref().unwrap_or_else(|| {
                panic!("crash_at={crash_at}: recovery postmortem has no report context")
            });
            let doc = parse_json(ctx).unwrap_or_else(|e| {
                panic!("crash_at={crash_at}: postmortem context does not parse: {e}")
            });
            assert_eq!(
                doc.get("watermark").and_then(Json::as_num),
                Some(rep1.watermark as f64),
                "crash_at={crash_at}: context watermark diverges from the report"
            );
        }

        // A commit acknowledged *after* recovery must survive a second,
        // clean restart — the regression where replay left the torn tail
        // on the log, so post-recovery appends landed after garbage and
        // the next scan dropped them.
        saw_partial_tail |= rep1.truncated_bytes > 0;
        let mut r1 = r1;
        let mut txn = r1.begin();
        let key = 900_000 + crash_at as i64;
        txn.insert(vec![Value::I64(key), Value::I64(1)]);
        let rc = r1.commit(&mut m, txn).unwrap_or_else(|e| {
            panic!("crash_at={crash_at}: post-recovery commit failed: {e} (seed {seed})")
        });
        let mut expect2 = rows.clone();
        expect2.push(vec![Value::I64(key), Value::I64(1)]);
        let (r3, rep3) = recover(&mut m, r1.crash_image());
        assert_eq!(
            rep3.truncated_bytes, 0,
            "crash_at={crash_at}: clean restart found a torn tail (seed {seed})"
        );
        assert_eq!(
            rep3.watermark, rc.commit_ts,
            "crash_at={crash_at}: post-recovery commit missing from the \
             second restart's watermark (seed {seed})"
        );
        assert_eq!(
            r3.snapshot_rows(&mut m).unwrap(),
            expect2,
            "crash_at={crash_at}: acked post-recovery commit lost after a \
             second restart (seed {seed})"
        );

        // The instrumented write path counted its work on this machine:
        // WAL appends (the post-recovery commit at minimum), the cut
        // itself, and all three replays.
        let reg = m.metrics();
        assert!(
            reg.counter("durability.wal.appends") > 0,
            "crash_at={crash_at}: no WAL appends counted"
        );
        assert!(
            reg.counter("durability.power_losses") >= 1,
            "crash_at={crash_at}: the cut was not counted"
        );
        assert!(
            reg.counter("durability.replay.count") >= 3,
            "crash_at={crash_at}: all three replays must be counted"
        );
    }
    if seed == DEFAULT_SEED {
        assert!(
            saw_partial_tail,
            "no crash point left a partial torn tail — the second-restart \
             sweep never exercised tail truncation; rechoose DEFAULT_SEED"
        );
    }
}

/// The same cut produces byte-for-byte the same postmortem artifact —
/// crash forensics are replayable, not just the data.
#[test]
fn crash_postmortems_are_byte_deterministic() {
    let seed = seed();
    let dump = |crash_at: u64| -> Vec<Postmortem> {
        let (mut m, _, _) = crashed_run(seed, crash_at);
        m.take_postmortems()
    };
    for crash_at in [1, 4, 9] {
        let a = dump(crash_at);
        let b = dump(crash_at);
        assert!(!a.is_empty(), "crash_at={crash_at}: no postmortems");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_json(),
                y.to_json(),
                "crash_at={crash_at}: postmortem bytes diverge (seed {seed})"
            );
        }
    }
}

/// Query-level closure of the invariant: an engine opened from the
/// surviving image answers SQL bit-identically to an engine loaded with
/// the never-crashed rows at the same watermark.
#[test]
fn recovered_engine_answers_match_the_never_crashed_run() {
    let seed = seed();
    let (reference, total_writes) = reference_run(seed);
    let sqls = [
        "SELECT count(*), sum(v) FROM t",
        "SELECT k, v FROM t WHERE k >= 3 ORDER BY 1, 2",
    ];
    for crash_at in [2, total_writes / 2, total_writes - 1] {
        let (_, image, _) = crashed_run(seed, crash_at);

        let mut recovered = Engine::new(SimConfig::zynq_a53());
        let (_, report) = recovered
            .open_recovered(
                "t",
                &schema(),
                CAPACITY,
                image,
                DurabilityConfig::quiet(seed ^ 0xD0),
                CKPT_EVERY,
            )
            .unwrap();
        assert_eq!(recovered.recoveries().len(), 1);

        let mut never_crashed = Engine::new(SimConfig::zynq_a53());
        let mut t = RowTable::create(never_crashed.mem(), schema(), CAPACITY).unwrap();
        for row in &reference[&report.watermark] {
            t.load(never_crashed.mem(), row).unwrap();
        }
        never_crashed.register_rows("t", t);

        for sql in sqls {
            let a = recovered.session().run(sql).unwrap().rows;
            let b = never_crashed.session().run(sql).unwrap().rows;
            assert_eq!(
                a, b,
                "crash_at={crash_at}: `{sql}` diverged after recovery (seed {seed})"
            );
        }
    }
}

/// Oracle edge cases at the recovery boundary: the first post-recovery
/// commit lands exactly one past the watermark, a transaction begun
/// immediately after replay (the "begin during replay" snapshot) sees
/// exactly the recovered state, and time travel to the pre-crash
/// watermark still answers bit-identically after new commits.
#[test]
fn oracle_watermark_ordering_survives_recovery() {
    let seed = seed();
    let (_, image, acked) = crashed_run(seed, 5);
    let mut m = mem();
    let (mut r, report) = DurableStore::replay(
        &mut m,
        schema(),
        CAPACITY,
        image,
        DurabilityConfig::quiet(seed ^ 0xD0),
        CKPT_EVERY,
    )
    .unwrap();
    assert!(report.watermark >= acked);

    // A snapshot begun right after replay reads at the watermark.
    assert_eq!(r.snapshot_ts(), report.watermark);
    let early = r.begin();
    assert_eq!(early.start_ts, report.watermark);
    let at_watermark = r.snapshot_rows(&mut m).unwrap();

    // The next commit is ordered strictly after everything recovered.
    let mut txn = r.begin();
    txn.insert(vec![Value::I64(777), Value::I64(7770)]);
    let receipt = r.commit(&mut m, txn).unwrap();
    assert_eq!(receipt.commit_ts, report.watermark + 1);

    // New state sees the commit; the early snapshot does not.
    let now_rows = r.snapshot_rows(&mut m).unwrap();
    assert_eq!(now_rows.len(), at_watermark.len() + 1);
    assert_eq!(
        r.table().snapshot_rows(&mut m, report.watermark).unwrap(),
        at_watermark,
        "time travel to the recovery watermark must still be exact"
    );
    assert_eq!(early.start_ts, report.watermark);
}

/// Crashing *again* — including during the recovered run's own writes —
/// still recovers: what the second survivor replays is the first
/// recovered state plus whatever the second run acknowledged.
#[test]
fn double_crash_recovery_stays_consistent() {
    let seed = seed();
    let (_, image, _) = crashed_run(seed, 4);
    let mut m = mem();

    // First recovery, armed to crash again on its own 2nd durable write.
    let cfg2 = DurabilityConfig::quiet(seed)
        .with_faults(FaultConfig::quiet(seed ^ 0xBEEF).with_crash_at(2));
    let (mut r, rep1) = DurableStore::replay(&mut m, schema(), CAPACITY, image, cfg2, 0).unwrap();
    let recovered_rows = r.snapshot_rows(&mut m).unwrap();

    // Continue with fresh keys until the second cut.
    let mut acked2 = Vec::new();
    let mut second_cut = false;
    for i in 0..4i64 {
        let mut txn = r.begin();
        txn.insert(vec![Value::I64(1000 + i), Value::I64(i)]);
        match r.commit(&mut m, txn) {
            Ok(rc) => acked2.push((1000 + i, rc.commit_ts)),
            Err(FabricError::PowerLoss { .. }) => {
                second_cut = true;
                break;
            }
            Err(e) => panic!("unexpected error after recovery: {e}"),
        }
    }
    assert!(second_cut, "the re-armed device must cut again");

    // Second recovery: first recovered state is intact, acked post-
    // recovery commits survive, order is preserved.
    let (r2, rep2) = DurableStore::replay(
        &mut m,
        schema(),
        CAPACITY,
        r.crash_image(),
        DurabilityConfig::quiet(seed ^ 0xD00D),
        0,
    )
    .unwrap();
    assert!(rep2.watermark >= rep1.watermark);
    assert!(rep2.watermark >= acked2.iter().map(|&(_, ts)| ts).max().unwrap_or(0));
    let final_rows = r2.snapshot_rows(&mut m).unwrap();
    assert_eq!(
        &final_rows[..recovered_rows.len()],
        &recovered_rows[..],
        "first recovery's rows must survive the second crash in order"
    );
    let tail: Vec<i64> = final_rows[recovered_rows.len()..]
        .iter()
        .map(|row| match row[0] {
            Value::I64(k) => k,
            ref other => panic!("unexpected key {other:?}"),
        })
        .collect();
    for (i, &(k, _)) in acked2.iter().enumerate() {
        assert_eq!(tail[i], k, "acked post-recovery commit lost");
    }
    // At most one unacknowledged in-flight commit may be resurrected.
    assert!(tail.len() <= acked2.len() + 1, "tail {tail:?}");
}

/// A degraded open at the engine layer dumps an `engine-degraded-open`
/// postmortem whose context embeds the [`mvcc::RecoveryReport`] verbatim
/// — and the artifact is byte-deterministic across identical opens.
#[test]
fn degraded_open_postmortem_embeds_the_recovery_report() {
    let seed = seed();
    // Every checkpoint page tears: the blob is unreadable at recovery, so
    // the open must fall back to full log replay and report degraded.
    let torn = DurabilityConfig::quiet(seed).with_faults(FaultConfig {
        torn_write_prob: 1.0,
        ..FaultConfig::quiet(seed)
    });
    let image = {
        let mut m = mem();
        let mut s = DurableStore::create(&mut m, schema(), CAPACITY, torn, 0).unwrap();
        let mut logicals = Vec::new();
        for i in 0..5 {
            apply_op(&mut m, &mut s, i, &mut logicals).unwrap();
        }
        s.checkpoint(&mut m).unwrap();
        s.crash_image()
    };

    let open = |image: durability::DurableImage| {
        let mut engine = Engine::new(SimConfig::zynq_a53());
        let (_, report) = engine
            .open_recovered(
                "t",
                &schema(),
                CAPACITY,
                image,
                DurabilityConfig::quiet(seed ^ 0xD0),
                0,
            )
            .unwrap();
        let pm = engine
            .mem()
            .take_postmortems()
            .into_iter()
            .find(|p| p.reason == "engine-degraded-open")
            .expect("degraded open dumps an engine postmortem");
        (report, pm)
    };
    let (report, pm) = open(image.clone());
    assert!(report.degraded.is_some(), "torn checkpoint must degrade");
    assert_eq!(
        pm.context.as_deref(),
        Some(report.to_json().as_str()),
        "postmortem context must embed the report verbatim"
    );
    let doc = parse_json(&pm.to_json()).expect("postmortem parses");
    assert_eq!(
        doc.get("context")
            .and_then(|c| c.get("watermark"))
            .and_then(Json::as_num),
        Some(report.watermark as f64)
    );
    assert_eq!(
        doc.get("context")
            .and_then(|c| c.get("degraded"))
            .and_then(Json::as_str),
        report.degraded.as_deref()
    );

    // Same image, same config: the artifact is byte-deterministic.
    let (_, pm2) = open(image);
    assert_eq!(pm.to_json(), pm2.to_json(), "degraded-open bytes diverge");
}
