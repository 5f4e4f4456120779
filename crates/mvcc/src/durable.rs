//! The crash-consistent commit path: WAL-before-apply, periodic
//! checkpoints, and `replay()` recovery (DESIGN.md §14).
//!
//! [`DurableStore`] wraps a [`VersionedTable`] + [`TxnManager`] pair
//! around one [`durability::DurableMedia`] and enforces the commit
//! protocol:
//!
//! 1. validate (first-committer-wins, unchanged);
//! 2. precheck the volatile apply (arity, column range, liveness,
//!    version capacity) — a record must never become durable unless the
//!    table mutation it describes will succeed;
//! 3. allocate the commit timestamp;
//! 4. append the encoded write set to the WAL — **only if this durable
//!    write succeeds** does the commit proceed;
//! 5. apply the write set to the volatile table;
//! 6. maybe take a cadence checkpoint — whose failure does **not** fail
//!    the commit (the transaction is already durable); it is surfaced via
//!    [`DurableStore::take_checkpoint_failure`].
//!
//! A power cut can strike step 4 after the record is fully on the medium
//! but before the acknowledgement: the caller sees
//! [`fabric_types::FabricError::PowerLoss`] yet recovery will resurrect
//! the transaction. That *commit ambiguity* is fundamental to write-ahead
//! logging and the crash-matrix tests accept either outcome for the one
//! in-flight transaction. Should step 5 ever fail despite the precheck,
//! the store is *poisoned* — commits and checkpoints refuse to run so the
//! volatile/durable divergence can never be persisted.
//!
//! [`DurableStore::replay`] rebuilds everything from what physically
//! survived ([`durability::DurableImage`]): it picks the newest checkpoint
//! whose blob passes its page CRCs (falling back to older ones — or to an
//! empty table — on torn pages, flagged as a degraded recovery), restores
//! the physical table, re-applies the log tail, and resumes the oracle
//! above the recovered watermark. The torn tail a crash left on the log
//! is truncated from the reopened medium, so post-recovery appends land
//! right after the last valid record — an acknowledged post-recovery
//! commit survives any later restart. Replay is idempotent: it only
//! reads the image, so replaying twice yields bit-identical state.

use crate::table::{LogicalId, VersionedTable};
use crate::txn::{CommitReceipt, Transaction, TxnManager, WriteOp};
use crate::wal as codec;
use durability::{DurabilityConfig, DurableImage, DurableMedia, RecordKind};
use fabric_sim::{Category, MemoryHierarchy};
use fabric_types::{FabricError, Result, Schema, Value};

/// What `replay()` found and did, for tests, postmortems, and the
/// engine's degraded-mode surfacing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blob id of the checkpoint restored from, if any.
    pub checkpoint_used: Option<u64>,
    /// Valid records found in the log's intact prefix.
    pub records_scanned: usize,
    /// Commit records re-applied on top of the checkpoint.
    pub commits_replayed: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: usize,
    /// Recovered oracle watermark (latest durable commit timestamp).
    pub watermark: u64,
    /// Why recovery had less than the best state to work with (e.g. the
    /// newest checkpoint blob was torn); `None` for a clean recovery.
    pub degraded: Option<String>,
}

impl RecoveryReport {
    /// Deterministic JSON rendering, embedded verbatim in the flight
    /// recorder's postmortem `"context"` field (same document for the
    /// same image, byte for byte).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(160);
        out.push_str("{\"checkpoint_used\":");
        match self.checkpoint_used {
            Some(id) => {
                let _ignored = write!(out, "{id}");
            }
            None => out.push_str("null"),
        }
        let _ignored = write!(
            out,
            ",\"records_scanned\":{},\"commits_replayed\":{},\
             \"truncated_bytes\":{},\"watermark\":{},\"degraded\":",
            self.records_scanned, self.commits_replayed, self.truncated_bytes, self.watermark,
        );
        match &self.degraded {
            Some(why) => {
                let _ignored = write!(out, "\"{}\"", fabric_sim::escaped(why));
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// A versioned table whose commits survive power loss.
pub struct DurableStore {
    table: VersionedTable,
    tm: TxnManager,
    media: DurableMedia,
    user_schema: Schema,
    capacity: usize,
    /// Take a checkpoint every this many commits (0 = only on demand).
    checkpoint_every: u64,
    commits_since_ckpt: u64,
    next_ckpt_id: u64,
    /// Set when a volatile apply failed *after* its WAL append succeeded:
    /// the table diverged from the log and only `replay()` can reconcile
    /// them. Never set in practice — `precheck_apply` rejects every known
    /// apply failure before the append — but kept as a backstop so the
    /// divergence can never be committed or checkpointed.
    poisoned: bool,
    /// Failure of the most recent cadence checkpoint. The commit that
    /// triggered it still returned its receipt (the transaction *is*
    /// durable); callers retrieve this out-of-band via
    /// [`Self::take_checkpoint_failure`].
    last_ckpt_failure: Option<FabricError>,
}

impl DurableStore {
    /// A fresh store over an empty durable medium.
    pub fn create(
        mem: &mut MemoryHierarchy,
        user_schema: Schema,
        capacity: usize,
        cfg: DurabilityConfig,
        checkpoint_every: u64,
    ) -> Result<Self> {
        let table = VersionedTable::create(mem, user_schema.clone(), capacity)?;
        Ok(DurableStore {
            table,
            tm: TxnManager::new(),
            media: DurableMedia::new(cfg),
            user_schema,
            capacity,
            checkpoint_every,
            commits_since_ckpt: 0,
            next_ckpt_id: 1,
            poisoned: false,
            last_ckpt_failure: None,
        })
    }

    pub fn table(&self) -> &VersionedTable {
        &self.table
    }

    pub fn media(&self) -> &DurableMedia {
        &self.media
    }

    pub fn user_schema(&self) -> &Schema {
        &self.user_schema
    }

    /// Physical version capacity the table was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Begin a transaction at the current snapshot.
    pub fn begin(&self) -> Transaction {
        self.tm.begin()
    }

    /// The current oracle watermark.
    pub fn snapshot_ts(&self) -> u64 {
        self.tm.snapshot_ts()
    }

    /// Snapshot read through a transaction (delegates to the table).
    pub fn read(
        &self,
        mem: &mut MemoryHierarchy,
        txn: &Transaction,
        logical: LogicalId,
        col: usize,
    ) -> Result<Option<Value>> {
        txn.read(mem, &self.table, logical, col)
    }

    /// Commit with the WAL-before-apply protocol. Read-only transactions
    /// skip both the timestamp allocation and the log append — they leave
    /// no durable trace, so replay reproduces the same watermark.
    ///
    /// `Ok(receipt)` means the transaction is durable and applied. A
    /// failing *cadence* checkpoint does not turn the result into an
    /// error — the transaction already committed; the checkpoint failure
    /// is surfaced out-of-band via [`Self::take_checkpoint_failure`].
    /// `Err` means the transaction did not commit, with one exception
    /// inherent to write-ahead logging: [`FabricError::PowerLoss`] from
    /// the log append is ambiguous (the record may be fully durable), and
    /// recovery may legitimately resurrect that one transaction.
    pub fn commit(&mut self, mem: &mut MemoryHierarchy, txn: Transaction) -> Result<CommitReceipt> {
        self.check_usable()?;
        if txn.is_read_only() {
            return Ok(CommitReceipt {
                commit_ts: self.tm.snapshot_ts(),
                inserted: Vec::new(),
            });
        }
        self.tm.validate(&self.table, &txn)?;
        // Reject, *before* anything durable happens, every write set the
        // volatile apply would refuse: a record must never reach the log
        // unless the table mutation it describes will succeed, or the
        // volatile state diverges from the durable one and replay() hits
        // the same apply error — an unrecoverable image.
        self.precheck_apply(mem, &txn)?;
        let commit_ts = self.tm.oracle().allocate();
        let payload = codec::encode_commit(&self.user_schema, txn.id, commit_ts, txn.writes())?;
        self.media
            .append_record(mem, RecordKind::Commit, &payload)?;
        let receipt = match self.tm.apply(mem, &mut self.table, &txn, commit_ts) {
            Ok(r) => r,
            Err(e) => {
                // The record is durable but the table rejected it: the
                // two views diverged. Poison the store — every later
                // commit or checkpoint would persist the divergence.
                self.poisoned = true;
                mem.metrics_mut().counter_add("durability.poisoned", 1);
                return Err(FabricError::Storage(format!(
                    "commit {commit_ts} is durable but its volatile apply failed ({e}); \
                     store poisoned — reopen via replay"
                )));
            }
        };
        self.commits_since_ckpt += 1;
        if self.checkpoint_every > 0 && self.commits_since_ckpt >= self.checkpoint_every {
            if let Err(e) = self.checkpoint(mem) {
                mem.metrics_mut()
                    .counter_add("durability.ckpt.failures_deferred", 1);
                self.last_ckpt_failure = Some(e);
            }
        }
        Ok(receipt)
    }

    /// Failure of the most recent cadence checkpoint, if any. The commit
    /// that triggered it still returned its receipt — that transaction is
    /// durable; only the checkpoint is missing, so replay just reads a
    /// longer log tail. A [`FabricError::PowerLoss`] here means the
    /// device is down: every later durable operation fails until the
    /// store is reopened via [`Self::replay`].
    pub fn take_checkpoint_failure(&mut self) -> Option<FabricError> {
        self.last_ckpt_failure.take()
    }

    /// Did a volatile apply ever fail after its WAL append? A poisoned
    /// store refuses commits and checkpoints; reopen via [`Self::replay`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_usable(&self) -> Result<()> {
        if self.poisoned {
            return Err(FabricError::Storage(
                "store is poisoned (volatile state diverged from the log); \
                 reopen via replay"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Everything that could make [`TxnManager::apply`] fail, checked
    /// before the WAL append: insert arity, update column range, liveness
    /// of updated/deleted rows (tracking deletes earlier in the same
    /// write set), and physical version capacity. Charges nothing.
    fn precheck_apply(&self, mem: &mut MemoryHierarchy, txn: &Transaction) -> Result<()> {
        let user_cols = self.user_schema.len();
        let mut new_versions = 0usize;
        let mut fresh = 0usize;
        let mut dead: Vec<LogicalId> = Vec::new();
        for w in txn.writes() {
            match w {
                WriteOp::Insert(values) => {
                    if values.len() != user_cols {
                        return Err(FabricError::Txn(format!(
                            "insert has {} values, schema has {user_cols} columns",
                            values.len()
                        )));
                    }
                    new_versions += 1;
                    fresh += 1;
                }
                WriteOp::Update(l, updates) => {
                    for (col, _) in updates {
                        if *col >= user_cols {
                            return Err(FabricError::ColumnIndexOutOfRange {
                                index: *col,
                                len: user_cols,
                            });
                        }
                    }
                    self.precheck_live(mem, *l, fresh, &dead)?;
                    new_versions += 1;
                }
                WriteOp::Delete(l) => {
                    self.precheck_live(mem, *l, fresh, &dead)?;
                    dead.push(*l);
                }
            }
        }
        let free = self.capacity - self.table.version_count();
        if new_versions > free {
            return Err(FabricError::Txn(format!(
                "commit needs {new_versions} new versions but only {free} of {} remain; \
                 rejected before the WAL append",
                self.capacity
            )));
        }
        Ok(())
    }

    /// Is `l` a live (undeleted) row from this write set's viewpoint —
    /// counting `fresh` rows inserted and `dead` rows deleted by earlier
    /// ops of the same transaction?
    fn precheck_live(
        &self,
        mem: &mut MemoryHierarchy,
        l: LogicalId,
        fresh: usize,
        dead: &[LogicalId],
    ) -> Result<()> {
        if dead.contains(&l) {
            return Err(FabricError::Txn(format!("logical row {l} is deleted")));
        }
        let known = self.table.logical_len();
        if l < known {
            if !self.table.latest_is_live(mem, l)? {
                return Err(FabricError::Txn(format!("logical row {l} is deleted")));
            }
            Ok(())
        } else if l < known + fresh {
            Ok(())
        } else {
            Err(FabricError::Txn(format!("unknown logical row {l}")))
        }
    }

    /// Take a checkpoint now: write the blob pages, then log the ref.
    /// Returns the blob id.
    pub fn checkpoint(&mut self, mem: &mut MemoryHierarchy) -> Result<u64> {
        self.check_usable()?;
        let watermark = self.tm.snapshot_ts();
        let payload = codec::encode_checkpoint(mem, &self.table, watermark)?;
        let id = self.next_ckpt_id;
        self.next_ckpt_id += 1;
        self.media.write_checkpoint(mem, id, &payload)?;
        self.media.append_record(
            mem,
            RecordKind::Checkpoint,
            &codec::encode_checkpoint_ref(id, watermark),
        )?;
        self.commits_since_ckpt = 0;
        Ok(id)
    }

    /// Tear down the volatile half and keep what a power cut keeps.
    pub fn crash_image(self) -> DurableImage {
        self.media.into_survivor()
    }

    /// All user rows visible at the current watermark, in physical order.
    pub fn snapshot_rows(&self, mem: &mut MemoryHierarchy) -> Result<Vec<Vec<Value>>> {
        self.table.snapshot_rows(mem, self.tm.snapshot_ts())
    }

    /// Rebuild a store from the surviving durable image.
    ///
    /// Deterministic and read-only with respect to the image, hence
    /// idempotent; the rebuilt store's medium restarts its fault plan
    /// from `cfg` (a recovered run schedules its own crashes).
    pub fn replay(
        mem: &mut MemoryHierarchy,
        user_schema: Schema,
        capacity: usize,
        image: DurableImage,
        cfg: DurabilityConfig,
        checkpoint_every: u64,
    ) -> Result<(Self, RecoveryReport)> {
        // Arm the flight recorder across recovery: the postmortem dumped
        // at the end reports the metrics delta of recovery itself, not of
        // whatever the process did before the restart.
        mem.flight_arm();
        mem.trace_begin("replay", Category::Store);
        let result = Self::replay_phases(mem, user_schema, capacity, image, cfg, checkpoint_every);
        match &result {
            Ok((_, report)) => mem.trace_end(
                "replay",
                Category::Store,
                &[
                    ("records", report.records_scanned as u64),
                    ("commits", report.commits_replayed),
                    ("watermark", report.watermark),
                ],
            ),
            Err(_) => mem.trace_end("replay", Category::Store, &[("error", 1)]),
        }
        let (store, report) = result?;
        let m = mem.metrics_mut();
        m.counter_add("durability.replay.count", 1);
        m.counter_add("durability.replay.records", report.records_scanned as u64);
        m.counter_add("durability.replay.commits", report.commits_replayed);
        m.counter_add(
            "durability.replay.truncated_tail_bytes",
            report.truncated_bytes as u64,
        );
        if report.degraded.is_some() {
            m.counter_add("durability.replay.degraded", 1);
        }
        m.gauge_set("durability.replay.watermark", report.watermark as f64);
        let reason = if report.degraded.is_some() {
            "recovery-degraded"
        } else {
            "crash-recovery"
        };
        mem.flight_dump_with(reason, report.to_json());
        Ok((store, report))
    }

    /// The three recovery phases — log scan, checkpoint load, log
    /// reapply — each under its own balanced span. Fallible work runs
    /// inside per-phase closures so the span closes before an error
    /// propagates: even a failing recovery exports a validator-clean
    /// trace.
    fn replay_phases(
        mem: &mut MemoryHierarchy,
        user_schema: Schema,
        capacity: usize,
        image: DurableImage,
        cfg: DurabilityConfig,
        checkpoint_every: u64,
    ) -> Result<(Self, RecoveryReport)> {
        // Phase 1: scan the surviving log image and truncate the torn
        // tail from it before reopening the device — post-recovery
        // appends must land right after the last valid record. Left in
        // place, the garbage would end every future scan early and
        // silently discard each commit acknowledged after this recovery.
        mem.trace_begin("replay-scan", Category::Store);
        let (records, truncated_bytes) = durability::scan(image.log_bytes());
        let mut image = image;
        image.truncate_log_tail(truncated_bytes);
        let media = DurableMedia::from_image(cfg, image);
        mem.trace_end(
            "replay-scan",
            Category::Store,
            &[
                ("records", records.len() as u64),
                ("truncated_bytes", truncated_bytes as u64),
            ],
        );

        // Phase 2: newest checkpoint whose blob reads back clean wins;
        // torn or incomplete blobs degrade us to the next older one
        // (ultimately to a full log replay from an empty table).
        mem.trace_begin("replay-ckpt-load", Category::Store);
        let mut degraded = None;
        let loaded = (|| -> Result<_> {
            let full_schema = VersionedTable::full_schema(&user_schema);
            for rec in records.iter().rev() {
                if rec.kind != RecordKind::Checkpoint {
                    continue;
                }
                let (id, _watermark) = codec::decode_checkpoint_ref(&rec.payload)?;
                let blob = media.read_checkpoint(id);
                let img = match &blob {
                    Ok(bytes) => codec::decode_checkpoint(&full_schema, bytes),
                    Err(e) => Err(e.clone()),
                };
                match img {
                    // The restore installs the row images straight from
                    // the blob.
                    Ok(img) => {
                        let t = VersionedTable::restore(
                            mem,
                            user_schema.clone(),
                            capacity,
                            img.rows,
                            img.chains,
                            img.last_commit,
                        )?;
                        return Ok((t, img.watermark, Some(rec.lsn), Some(id)));
                    }
                    Err(e) => {
                        if degraded.is_none() {
                            degraded = Some(format!("checkpoint {id} unreadable: {e}"));
                        }
                    }
                }
            }
            Ok((
                VersionedTable::create(mem, user_schema.clone(), capacity)?,
                0,
                None,
                None,
            ))
        })();
        mem.trace_end(
            "replay-ckpt-load",
            Category::Store,
            &[(
                "checkpoint",
                loaded
                    .as_ref()
                    .ok()
                    .and_then(|(_, _, _, id)| *id)
                    .unwrap_or(0),
            )],
        );
        let (mut table, ckpt_watermark, ckpt_lsn, checkpoint_used) = loaded?;

        // Phase 3: re-apply every commit the checkpoint does not already
        // contain. Commit records are logged before their effects, in
        // commit-ts order, so applying in log order reproduces the exact
        // physical row order of the original run.
        mem.trace_begin("replay-reapply", Category::Store);
        let mut watermark = ckpt_watermark;
        let mut commits_replayed = 0u64;
        let reapplied = (|| -> Result<()> {
            for rec in &records {
                if rec.kind != RecordKind::Commit {
                    continue;
                }
                if let Some(lsn) = ckpt_lsn {
                    if rec.lsn < lsn {
                        continue;
                    }
                }
                let img = codec::decode_commit(&user_schema, &rec.payload)?;
                for w in &img.writes {
                    match w {
                        WriteOp::Insert(values) => {
                            table.apply_insert(mem, values, img.commit_ts)?;
                        }
                        WriteOp::Update(l, updates) => {
                            table.apply_update(mem, *l, updates, img.commit_ts)?;
                        }
                        WriteOp::Delete(l) => table.apply_delete(mem, *l, img.commit_ts)?,
                    }
                }
                watermark = watermark.max(img.commit_ts);
                commits_replayed += 1;
            }
            Ok(())
        })();
        mem.trace_end(
            "replay-reapply",
            Category::Store,
            &[("commits", commits_replayed), ("watermark", watermark)],
        );
        reapplied?;

        let report = RecoveryReport {
            checkpoint_used,
            records_scanned: records.len(),
            commits_replayed,
            truncated_bytes,
            watermark,
            degraded,
        };
        let next_id = report.checkpoint_used.map_or(1, |id| id + 1);
        Ok((
            DurableStore {
                table,
                tm: TxnManager::starting_at(watermark + 1),
                media,
                user_schema,
                capacity,
                checkpoint_every,
                commits_since_ckpt: 0,
                next_ckpt_id: next_id,
                poisoned: false,
                last_ckpt_failure: None,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::{FaultConfig, SimConfig};
    use fabric_types::{ColumnType, FabricError, Value};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::zynq_a53())
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)])
    }

    fn quiet(seed: u64) -> DurabilityConfig {
        DurabilityConfig::quiet(seed)
    }

    fn commit_kv(
        mem: &mut MemoryHierarchy,
        s: &mut DurableStore,
        k: i64,
        v: i64,
    ) -> Result<CommitReceipt> {
        let mut txn = s.begin();
        txn.insert(vec![Value::I64(k), Value::I64(v)]);
        s.commit(mem, txn)
    }

    #[test]
    fn committed_transactions_survive_a_clean_restart() {
        let mut m = mem();
        let mut s = DurableStore::create(&mut m, schema(), 1024, quiet(1), 0).unwrap();
        commit_kv(&mut m, &mut s, 1, 10).unwrap();
        commit_kv(&mut m, &mut s, 2, 20).unwrap();
        let before = s.snapshot_rows(&mut m).unwrap();
        let watermark = s.snapshot_ts();

        let image = s.crash_image();
        let (r, report) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(1), 0).unwrap();
        assert_eq!(report.watermark, watermark);
        assert_eq!(report.commits_replayed, 2);
        assert_eq!(report.checkpoint_used, None);
        assert!(report.degraded.is_none());
        assert_eq!(r.snapshot_rows(&mut m).unwrap(), before);
        // The oracle resumes above the watermark: new commits go after.
        let mut r = r;
        let receipt = commit_kv(&mut m, &mut r, 3, 30).unwrap();
        assert!(receipt.commit_ts > watermark);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_answers() {
        let mut m = mem();
        // Checkpoint every 4 commits.
        let mut s = DurableStore::create(&mut m, schema(), 1024, quiet(2), 4).unwrap();
        let mut logicals = Vec::new();
        for i in 0..10i64 {
            logicals.push(commit_kv(&mut m, &mut s, i, i * 10).unwrap().inserted[0]);
        }
        let mut txn = s.begin();
        txn.update(logicals[0], vec![(1, Value::I64(999))]);
        txn.delete(logicals[1]);
        s.commit(&mut m, txn).unwrap();
        let before = s.snapshot_rows(&mut m).unwrap();
        let watermark = s.snapshot_ts();

        let image = s.crash_image();
        let (r, report) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(2), 4).unwrap();
        assert!(report.checkpoint_used.is_some());
        assert!(
            report.commits_replayed < 11,
            "checkpoint must bound the log tail, replayed {}",
            report.commits_replayed
        );
        assert_eq!(report.watermark, watermark);
        assert_eq!(r.snapshot_rows(&mut m).unwrap(), before);
    }

    #[test]
    fn replay_is_idempotent() {
        let mut m = mem();
        let mut s = DurableStore::create(&mut m, schema(), 1024, quiet(3), 3).unwrap();
        for i in 0..8i64 {
            commit_kv(&mut m, &mut s, i, i).unwrap();
        }
        let image = s.crash_image();
        let (a, ra) =
            DurableStore::replay(&mut m, schema(), 1024, image.clone(), quiet(3), 3).unwrap();
        let (b, rb) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(3), 3).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(
            a.snapshot_rows(&mut m).unwrap(),
            b.snapshot_rows(&mut m).unwrap()
        );
        // Replay of a replayed store's image is also stable.
        let again = a.crash_image();
        let (c, rc) = DurableStore::replay(&mut m, schema(), 1024, again, quiet(3), 3).unwrap();
        assert_eq!(rc.watermark, rb.watermark);
        assert_eq!(
            c.snapshot_rows(&mut m).unwrap(),
            b.snapshot_rows(&mut m).unwrap()
        );
    }

    #[test]
    fn power_loss_during_commit_preserves_prior_commits() {
        let mut m = mem();
        let cfg = quiet(4).with_faults(FaultConfig::quiet(4).with_crash_at(3));
        let mut s = DurableStore::create(&mut m, schema(), 1024, cfg, 0).unwrap();
        commit_kv(&mut m, &mut s, 1, 10).unwrap();
        commit_kv(&mut m, &mut s, 2, 20).unwrap();
        let err = commit_kv(&mut m, &mut s, 3, 30);
        assert!(matches!(err, Err(FabricError::PowerLoss { .. })));

        let image = s.crash_image();
        let (r, report) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(4), 0).unwrap();
        let rows = r.snapshot_rows(&mut m).unwrap();
        // Both acknowledged commits are there; the in-flight one is
        // either fully present or fully absent (commit ambiguity).
        assert!(
            rows.len() == 2 || rows.len() == 3,
            "got {} rows",
            rows.len()
        );
        assert_eq!(rows[0], vec![Value::I64(1), Value::I64(10)]);
        assert_eq!(rows[1], vec![Value::I64(2), Value::I64(20)]);
        assert_eq!(report.commits_replayed as usize, rows.len());
    }

    #[test]
    fn torn_checkpoint_degrades_to_full_log_replay() {
        let mut m = mem();
        let cfg = quiet(5).with_faults(FaultConfig {
            torn_write_prob: 1.0,
            ..FaultConfig::quiet(5)
        });
        let mut s = DurableStore::create(&mut m, schema(), 1024, cfg, 0).unwrap();
        for i in 0..5i64 {
            commit_kv(&mut m, &mut s, i, i * 2).unwrap();
        }
        // Big enough that the blob spans pages and *will* tear.
        s.checkpoint(&mut m).unwrap();
        let expect: Vec<Vec<Value>> = (0..5i64)
            .map(|i| vec![Value::I64(i), Value::I64(i * 2)])
            .collect();
        let image = s.crash_image();
        let (r, report) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(5), 0).unwrap();
        assert!(report.degraded.is_some(), "torn blob must be flagged");
        assert_eq!(report.checkpoint_used, None);
        assert_eq!(report.commits_replayed, 5);
        assert_eq!(r.snapshot_rows(&mut m).unwrap(), expect);
        // The degraded recovery dumped a postmortem whose context embeds
        // this exact report, and the durability.replay.* rollup advanced.
        let pm = m
            .take_postmortems()
            .into_iter()
            .find(|p| p.reason == "recovery-degraded")
            .expect("degraded recovery dumps a postmortem");
        assert_eq!(pm.context.as_deref(), Some(report.to_json().as_str()));
        let doc = fabric_sim::parse_json(&pm.to_json()).expect("postmortem parses");
        assert_eq!(
            doc.get("context")
                .and_then(|c| c.get("degraded"))
                .and_then(fabric_sim::Json::as_str),
            report.degraded.as_deref()
        );
        assert_eq!(m.metrics().counter("durability.replay.degraded"), 1);
        assert_eq!(m.metrics().counter("durability.replay.commits"), 5);
    }

    #[test]
    fn post_recovery_commits_survive_a_torn_tail_truncation() {
        // The REVIEW.md regression: a crash that leaves a *partial* frame
        // on the log, a recovery, an acknowledged fault-free commit, and
        // a clean restart — the commit must still be there. Sweep a small
        // deterministic (seed, crash_at) grid until a partial tail shows
        // up (crash_keep must land strictly inside the frame).
        let mut exercised = false;
        'sweep: for seed in 0..32u64 {
            for crash_at in 1..=5u64 {
                let mut m = mem();
                let cfg = quiet(seed).with_faults(FaultConfig::quiet(seed).with_crash_at(crash_at));
                let mut s = match DurableStore::create(&mut m, schema(), 1024, cfg, 0) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let mut crashed = false;
                for i in 0..5i64 {
                    if commit_kv(&mut m, &mut s, i, i * 10).is_err() {
                        crashed = true;
                        break;
                    }
                }
                if !crashed {
                    continue;
                }
                let (mut r, rep) =
                    DurableStore::replay(&mut m, schema(), 1024, s.crash_image(), quiet(seed), 0)
                        .unwrap();
                if rep.truncated_bytes == 0 {
                    continue;
                }
                // Partial tail found: recovery truncated it. Now the
                // acked, fault-free post-recovery commit must survive a
                // second, clean restart.
                let rc = commit_kv(&mut m, &mut r, 777, 7770).unwrap();
                let expect = r.snapshot_rows(&mut m).unwrap();
                let (r2, rep2) =
                    DurableStore::replay(&mut m, schema(), 1024, r.crash_image(), quiet(seed), 0)
                        .unwrap();
                assert_eq!(rep2.truncated_bytes, 0, "clean restart, no torn tail");
                assert_eq!(
                    rep2.watermark, rc.commit_ts,
                    "seed={seed} crash_at={crash_at}: post-recovery commit \
                     not covered by the second restart's watermark"
                );
                assert_eq!(
                    r2.snapshot_rows(&mut m).unwrap(),
                    expect,
                    "seed={seed} crash_at={crash_at}: acked post-recovery \
                     commit lost"
                );
                exercised = true;
                break 'sweep;
            }
        }
        assert!(exercised, "sweep never produced a partial torn tail");
    }

    #[test]
    fn over_capacity_commits_are_rejected_before_the_wal_append() {
        let mut m = mem();
        // Room for 3 physical versions.
        let mut s = DurableStore::create(&mut m, schema(), 3, quiet(7), 0).unwrap();
        let l0 = commit_kv(&mut m, &mut s, 1, 10).unwrap().inserted[0];
        commit_kv(&mut m, &mut s, 2, 20).unwrap();
        let appends = s.media().stats().appends;

        // Needs 2 free versions (insert + update), only 1 remains: the
        // commit is rejected with nothing appended to the log.
        let mut txn = s.begin();
        txn.insert(vec![Value::I64(3), Value::I64(30)]);
        txn.update(l0, vec![(1, Value::I64(11))]);
        let err = s.commit(&mut m, txn);
        assert!(matches!(err, Err(FabricError::Txn(_))), "{err:?}");
        assert_eq!(s.media().stats().appends, appends, "no durable trace");
        assert!(
            !s.is_poisoned(),
            "a prechecked reject leaves the store usable"
        );

        // The store still takes commits that do fit…
        let mut txn = s.begin();
        txn.update(l0, vec![(1, Value::I64(12))]);
        s.commit(&mut m, txn).unwrap();
        let rows = s.snapshot_rows(&mut m).unwrap();

        // …and the image replays cleanly: the log never saw the record
        // whose apply would have failed.
        let (r, _) =
            DurableStore::replay(&mut m, schema(), 3, s.crash_image(), quiet(7), 0).unwrap();
        assert_eq!(r.snapshot_rows(&mut m).unwrap(), rows);
    }

    #[test]
    fn bad_write_sets_are_rejected_before_the_wal_append() {
        let mut m = mem();
        let mut s = DurableStore::create(&mut m, schema(), 1024, quiet(8), 0).unwrap();
        let l = commit_kv(&mut m, &mut s, 1, 10).unwrap().inserted[0];
        let appends = s.media().stats().appends;

        // Insert arity mismatch.
        let mut txn = s.begin();
        txn.insert(vec![Value::I64(2)]);
        assert!(matches!(s.commit(&mut m, txn), Err(FabricError::Txn(_))));

        // Update column out of range.
        let mut txn = s.begin();
        txn.update(l, vec![(9, Value::I64(0))]);
        assert!(matches!(
            s.commit(&mut m, txn),
            Err(FabricError::ColumnIndexOutOfRange { .. })
        ));

        // Delete-then-update of the same row within one write set.
        let mut txn = s.begin();
        txn.delete(l);
        txn.update(l, vec![(1, Value::I64(0))]);
        assert!(matches!(s.commit(&mut m, txn), Err(FabricError::Txn(_))));

        assert_eq!(s.media().stats().appends, appends, "no durable trace");
        assert!(!s.is_poisoned());
        // The row is untouched — no partial application.
        let rows = s.snapshot_rows(&mut m).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(1), Value::I64(10)]]);
    }

    #[test]
    fn cadence_checkpoint_failure_defers_but_keeps_the_receipt() {
        let mut m = mem();
        // Checkpoint after every commit; the cut strikes durable write 2 —
        // the checkpoint blob write right after the first commit's append.
        let cfg = quiet(9).with_faults(FaultConfig::quiet(9).with_crash_at(2));
        let mut s = DurableStore::create(&mut m, schema(), 1024, cfg, 1).unwrap();
        let receipt = commit_kv(&mut m, &mut s, 1, 10).expect(
            "the transaction durably committed; a failing cadence \
             checkpoint must not eat the receipt",
        );
        let failure = s.take_checkpoint_failure();
        assert!(
            matches!(failure, Some(FabricError::PowerLoss { .. })),
            "{failure:?}"
        );
        assert!(s.take_checkpoint_failure().is_none(), "taken once");
        // The device is down: the next commit fails until replay.
        assert!(commit_kv(&mut m, &mut s, 2, 20).is_err());
        // And the receipt was honest — the commit survives recovery.
        let (r, rep) =
            DurableStore::replay(&mut m, schema(), 1024, s.crash_image(), quiet(9), 1).unwrap();
        assert_eq!(rep.watermark, receipt.commit_ts);
        assert_eq!(
            r.snapshot_rows(&mut m).unwrap(),
            vec![vec![Value::I64(1), Value::I64(10)]]
        );
    }

    #[test]
    fn read_only_transactions_leave_no_durable_trace() {
        let mut m = mem();
        let mut s = DurableStore::create(&mut m, schema(), 1024, quiet(6), 0).unwrap();
        commit_kv(&mut m, &mut s, 1, 10).unwrap();
        let appends_before = s.media().stats().appends;
        let watermark = s.snapshot_ts();
        let ro = s.begin();
        let receipt = s.commit(&mut m, ro).unwrap();
        assert_eq!(receipt.commit_ts, watermark);
        assert_eq!(s.media().stats().appends, appends_before);
        assert_eq!(s.snapshot_ts(), watermark, "no timestamp burned");
        // And the replayed watermark matches the live one.
        let image = s.crash_image();
        let (_, report) = DurableStore::replay(&mut m, schema(), 1024, image, quiet(6), 0).unwrap();
        assert_eq!(report.watermark, watermark);
    }
}
