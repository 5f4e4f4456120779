//! The durable device: one power domain for log and checkpoint writes.
//!
//! A [`DurableMedia`] owns a single [`FaultPlan`], so the power-cut
//! counter ([`FaultPlan::write_crash`]) advances once per durable write
//! *across both kinds* — WAL appends and checkpoint pages share the same
//! crash schedule, which is what lets a crash matrix step a workload
//! through every write it performs with `crash_at_write = 1..=N`.
//!
//! After a cut the device object refuses further writes; the caller
//! tears everything volatile down and rebuilds from
//! [`DurableMedia::into_survivor`], exactly like a process restart.

use crate::config::DurabilityConfig;
use crate::wal::{frame_record, Lsn, RecordKind};
use fabric_sim::{Category, FaultPlan, MemoryHierarchy};
use fabric_types::{crc32, FabricError, Result};

/// A checkpoint blob as it sits on the medium: page-granular, with the
/// *intended* CRC of every page recorded beside the (possibly torn)
/// stored bytes.
#[derive(Debug, Clone)]
struct CheckpointBlob {
    id: u64,
    /// Stored page images; a torn page holds only a prefix.
    pages: Vec<Vec<u8>>,
    /// CRC of what the writer meant each page to hold.
    intended_crcs: Vec<u32>,
    /// Did every page write complete before a cut?
    complete: bool,
}

/// Counters of device activity (injected faults live in
/// [`FaultPlan::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// WAL records fully appended.
    pub appends: u64,
    /// Bytes fully appended to the log.
    pub append_bytes: u64,
    /// Checkpoint pages fully written.
    pub checkpoint_pages: u64,
    /// Durable writes completed (appends + pages), the crash-site count.
    pub durable_writes: u64,
    /// Program retries taken after transient flash write failures.
    pub write_retries: u64,
}

/// What physically survives a power cut: the log image and every
/// checkpoint blob, torn bytes included. `Clone` so tests can replay the
/// same post-crash state twice (idempotence checks).
#[derive(Debug, Clone)]
pub struct DurableImage {
    log: Vec<u8>,
    checkpoints: Vec<CheckpointBlob>,
}

impl DurableImage {
    /// An empty medium (first boot: no log, no checkpoints).
    pub fn empty() -> Self {
        DurableImage {
            log: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// The raw log image, torn tail and all ([`crate::wal::scan`] it).
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Drop `bytes` trailing bytes from the log image. Recovery calls
    /// this with the torn-tail length [`crate::wal::scan`] reported, so
    /// a device reopened from the image appends immediately after the
    /// last valid record — never after unscannable garbage, which a
    /// later scan would treat as the end of the log and thereby lose
    /// every record appended beyond it.
    pub fn truncate_log_tail(&mut self, bytes: usize) {
        let keep = self.log.len().saturating_sub(bytes);
        self.log.truncate(keep);
    }
}

/// The simulated durable device.
#[derive(Debug)]
pub struct DurableMedia {
    cfg: DurabilityConfig,
    plan: FaultPlan,
    log: Vec<u8>,
    checkpoints: Vec<CheckpointBlob>,
    crashed: bool,
    stats: MediaStats,
}

impl DurableMedia {
    /// A fresh, empty device.
    pub fn new(cfg: DurabilityConfig) -> Self {
        DurableMedia::from_image(cfg, DurableImage::empty())
    }

    /// Re-open a device around what survived a crash. The fault plan
    /// restarts from the (possibly new) seed in `cfg`, so a recovered
    /// run can schedule its *own* crash points (double-crash tests).
    pub fn from_image(cfg: DurabilityConfig, image: DurableImage) -> Self {
        DurableMedia {
            plan: FaultPlan::new(cfg.faults),
            cfg,
            log: image.log,
            checkpoints: image.checkpoints,
            crashed: false,
            stats: MediaStats::default(),
        }
    }

    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    pub fn stats(&self) -> MediaStats {
        self.stats
    }

    /// Injected-fault counters of the device's plan.
    pub fn fault_stats(&self) -> fabric_sim::FaultStats {
        self.plan.stats()
    }

    /// Has a power cut already struck this device object?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Next append position (current log length).
    pub fn log_end(&self) -> Lsn {
        self.log.len() as Lsn
    }

    /// The bytes on the medium right now, as a crash survivor image.
    pub fn into_survivor(self) -> DurableImage {
        DurableImage {
            log: self.log,
            checkpoints: self.checkpoints,
        }
    }

    /// Charge the cycle cost of one durable write of `len` bytes.
    fn charge_write(&self, mem: &mut MemoryHierarchy, len: usize) {
        let ns = self.cfg.write_base_ns + self.cfg.write_ns_per_byte * len as f64;
        let done = mem.now() + mem.config().ns_to_cycles(ns);
        mem.stall_until(done);
    }

    /// The shared preamble of every durable write: refuse a crashed
    /// device, draw the crash site, and run the flash-program retry
    /// loop. `Ok(())` means the write may proceed in full; a crash
    /// returns how many of `len` bytes survive via the error path.
    fn admit_write(
        &mut self,
        mem: &mut MemoryHierarchy,
        device: &str,
        len: usize,
        page: u64,
    ) -> Result<()> {
        if self.crashed {
            return Err(FabricError::Storage(format!(
                "`{device}` lost power; reopen via replay"
            )));
        }
        if self.plan.write_crash() {
            self.crashed = true;
            mem.trace_instant("power-loss", Category::Fault, &[("write", page)]);
            mem.metrics_mut().counter_add("durability.power_losses", 1);
            mem.flight_dump("power-loss");
            return Err(FabricError::PowerLoss {
                device: device.to_string(),
                writes_done: self.stats.durable_writes,
            });
        }
        let mut attempt = 0u32;
        while self.plan.flash_write_failed() {
            attempt += 1;
            self.stats.write_retries += 1;
            let key = if device == "wal" {
                "durability.wal.retries"
            } else {
                "durability.ckpt.retries"
            };
            mem.metrics_mut().counter_add(key, 1);
            if attempt > self.cfg.policy.max_retries {
                mem.trace_instant("flash-write-error", Category::Fault, &[("page", page)]);
                return Err(FabricError::FlashWriteError {
                    page,
                    attempts: attempt,
                });
            }
            let ghz = mem.config().cpu_ghz;
            let backoff = self.cfg.policy.backoff_cycles(attempt, ghz);
            let t = mem.now() + backoff;
            mem.stall_retry_until(t);
            self.charge_write(mem, len);
        }
        Ok(())
    }

    /// Append one framed WAL record; returns its LSN. Log-before-apply:
    /// callers mutate volatile state only after this returns `Ok`. On
    /// [`FabricError::PowerLoss`] an arbitrary prefix of the frame —
    /// possibly all of it — is on the medium; [`crate::wal::scan`]
    /// sorts that out at recovery.
    pub fn append_record(
        &mut self,
        mem: &mut MemoryHierarchy,
        kind: RecordKind,
        payload: &[u8],
    ) -> Result<Lsn> {
        let frame = frame_record(kind, payload)?;
        let lsn = self.log_end();
        mem.trace_begin("wal-append", Category::Store);
        let t0 = mem.now();
        self.charge_write(mem, frame.len());
        let admitted = self.admit_write(mem, "wal", frame.len(), lsn);
        let outcome = match admitted {
            Ok(()) => {
                self.log.extend_from_slice(&frame);
                self.stats.appends += 1;
                self.stats.append_bytes += frame.len() as u64;
                self.stats.durable_writes += 1;
                let elapsed = mem.now().saturating_sub(t0);
                let m = mem.metrics_mut();
                m.counter_add("durability.wal.appends", 1);
                m.counter_add("durability.wal.bytes", frame.len() as u64);
                m.counter_add("durability.wal.commit_cycles", elapsed);
                m.observe("durability.wal.append_cycles", elapsed);
                Ok(lsn)
            }
            Err(FabricError::PowerLoss {
                device,
                writes_done,
            }) => {
                let keep = self.plan.crash_keep(frame.len());
                self.log.extend_from_slice(&frame[..keep]);
                Err(FabricError::PowerLoss {
                    device,
                    writes_done,
                })
            }
            Err(e) => Err(e),
        };
        mem.trace_end(
            "wal-append",
            Category::Store,
            &[("bytes", frame.len() as u64)],
        );
        outcome
    }

    /// Write `payload` as checkpoint blob `id`, page by page. Pages may
    /// silently tear (caught by [`Self::read_checkpoint`]'s CRC check);
    /// a power cut mid-blob leaves it incomplete and unreadable.
    pub fn write_checkpoint(
        &mut self,
        mem: &mut MemoryHierarchy,
        id: u64,
        payload: &[u8],
    ) -> Result<()> {
        let page_bytes = self.cfg.page_bytes.max(1);
        let mut blob = CheckpointBlob {
            id,
            pages: Vec::new(),
            intended_crcs: Vec::new(),
            complete: false,
        };
        mem.trace_begin("ckpt-write", Category::Store);
        let mut failure = None;
        let chunks: Vec<&[u8]> = if payload.is_empty() {
            vec![&[][..]]
        } else {
            payload.chunks(page_bytes).collect()
        };
        for (i, chunk) in chunks.iter().enumerate() {
            self.charge_write(mem, chunk.len());
            match self.admit_write(mem, "checkpoint", chunk.len(), i as u64) {
                Ok(()) => {
                    blob.intended_crcs.push(crc32(chunk));
                    let stored = match self.plan.torn_write(chunk.len()) {
                        Some(keep) => chunk[..keep].to_vec(),
                        None => chunk.to_vec(),
                    };
                    blob.pages.push(stored);
                    self.stats.checkpoint_pages += 1;
                    self.stats.durable_writes += 1;
                }
                Err(FabricError::PowerLoss {
                    device,
                    writes_done,
                }) => {
                    let keep = self.plan.crash_keep(chunk.len());
                    blob.intended_crcs.push(crc32(chunk));
                    blob.pages.push(chunk[..keep].to_vec());
                    failure = Some(FabricError::PowerLoss {
                        device,
                        writes_done,
                    });
                    break;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        blob.complete = failure.is_none();
        mem.trace_end(
            "ckpt-write",
            Category::Store,
            &[
                ("id", id),
                ("pages", blob.pages.len() as u64),
                ("complete", u64::from(blob.complete)),
            ],
        );
        // Even a torn or incomplete blob occupies the medium — recovery
        // must see it, fail its CRC check, and fall back.
        self.checkpoints.push(blob);
        let m = mem.metrics_mut();
        if failure.is_none() {
            m.counter_add("durability.ckpt.count", 1);
            m.counter_add("durability.ckpt.bytes", payload.len() as u64);
        } else {
            m.counter_add("durability.ckpt.failures", 1);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Read checkpoint blob `id` back, verifying every page against its
    /// intended CRC. Incomplete or torn blobs fail with a typed error so
    /// recovery can fall back to an older checkpoint.
    pub fn read_checkpoint(&self, id: u64) -> Result<Vec<u8>> {
        let blob = self
            .checkpoints
            .iter()
            .rev()
            .find(|b| b.id == id)
            .ok_or_else(|| FabricError::Storage(format!("no checkpoint blob {id}")))?;
        if !blob.complete {
            return Err(FabricError::Storage(format!(
                "checkpoint blob {id} is incomplete (power cut mid-write)"
            )));
        }
        let mut out = Vec::new();
        for (i, (page, intended)) in blob.pages.iter().zip(&blob.intended_crcs).enumerate() {
            if crc32(page) != *intended {
                return Err(FabricError::CorruptBatch {
                    device: format!("checkpoint/{id}/page{i}"),
                    attempts: 1,
                });
            }
            out.extend_from_slice(page);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::scan;
    use fabric_sim::{FaultConfig, SimConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::default())
    }

    fn quiet_media(seed: u64) -> DurableMedia {
        DurableMedia::new(DurabilityConfig::quiet(seed))
    }

    #[test]
    fn appends_are_scannable_and_charged() {
        let mut m = mem();
        let mut d = quiet_media(1);
        let t0 = m.now();
        let l0 = d
            .append_record(&mut m, RecordKind::Commit, b"alpha")
            .expect("append");
        let l1 = d
            .append_record(&mut m, RecordKind::Commit, b"beta")
            .expect("append");
        assert_eq!(l0, 0);
        assert!(l1 > l0);
        assert!(m.now() > t0, "durable writes cost simulated time");
        let img = d.into_survivor();
        let (recs, trunc) = scan(img.log_bytes());
        assert_eq!(trunc, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, b"alpha");
        assert_eq!(recs[1].lsn, l1);
    }

    #[test]
    fn checkpoint_roundtrip_spans_pages() {
        let mut m = mem();
        let mut d = quiet_media(2);
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        d.write_checkpoint(&mut m, 7, &payload).expect("ckpt");
        assert_eq!(d.read_checkpoint(7).expect("read"), payload);
        assert!(d.read_checkpoint(8).is_err());
        assert!(d.stats().checkpoint_pages >= 3, "4 KiB pages over 10 KB");
        // Empty payloads still produce a readable (empty) blob.
        d.write_checkpoint(&mut m, 8, &[]).expect("ckpt");
        assert_eq!(d.read_checkpoint(8).expect("read"), Vec::<u8>::new());
    }

    #[test]
    fn scheduled_crash_tears_the_log_tail_only() {
        // Crash at the 3rd durable write: two records survive whole, the
        // third survives only as a torn tail that scan() truncates.
        let cfg = DurabilityConfig::quiet(3).with_faults(FaultConfig::quiet(3).with_crash_at(3));
        let mut m = mem();
        let mut d = DurableMedia::new(cfg);
        d.append_record(&mut m, RecordKind::Commit, b"one")
            .expect("append");
        d.append_record(&mut m, RecordKind::Commit, b"two")
            .expect("append");
        let err = d.append_record(&mut m, RecordKind::Commit, b"three");
        match err {
            Err(FabricError::PowerLoss {
                device,
                writes_done,
            }) => {
                assert_eq!(device, "wal");
                assert_eq!(writes_done, 2);
            }
            other => panic!("expected PowerLoss, got {other:?}"),
        }
        assert!(d.is_crashed());
        // A crashed device refuses everything until reopened.
        assert!(d.append_record(&mut m, RecordKind::Commit, b"x").is_err());
        let (recs, _trunc) = scan(d.into_survivor().log_bytes());
        assert!(recs.len() == 2 || recs.len() == 3, "tail is torn or whole");
        assert_eq!(recs[0].payload, b"one");
        assert_eq!(recs[1].payload, b"two");
    }

    #[test]
    fn crash_mid_checkpoint_leaves_blob_unreadable_but_log_intact() {
        let payload = vec![0xAB; 20_000];
        // Write 2 records, then a checkpoint; crash on the checkpoint's
        // 2nd page (durable write #4).
        let cfg = DurabilityConfig::quiet(4).with_faults(FaultConfig::quiet(4).with_crash_at(4));
        let mut m = mem();
        let mut d = DurableMedia::new(cfg);
        d.append_record(&mut m, RecordKind::Commit, b"a")
            .expect("append");
        d.append_record(&mut m, RecordKind::Commit, b"b")
            .expect("append");
        let err = d.write_checkpoint(&mut m, 1, &payload);
        assert!(matches!(err, Err(FabricError::PowerLoss { .. })));
        let survivor = DurableMedia::from_image(DurabilityConfig::quiet(4), d.into_survivor());
        assert!(survivor.read_checkpoint(1).is_err(), "incomplete blob");
        let (recs, trunc) = scan(survivor.log.as_slice());
        assert_eq!(recs.len(), 2, "log records predate the crash");
        assert_eq!(trunc, 0);
    }

    #[test]
    fn truncating_the_torn_tail_keeps_the_reopened_log_appendable() {
        let mut m = mem();
        let mut d = quiet_media(7);
        d.append_record(&mut m, RecordKind::Commit, b"keep")
            .expect("append");
        let mut img = d.into_survivor();
        // A crash left a strict prefix of an in-flight frame on the log.
        let torn = frame_record(RecordKind::Commit, b"in-flight").expect("frame");
        img.log.extend_from_slice(&torn[..torn.len() - 3]);
        let (recs, trunc) = scan(img.log_bytes());
        assert_eq!(recs.len(), 1);
        assert!(trunc > 0);
        // Without truncation the next append would land after the garbage
        // and be invisible to every future scan; with it the log stays
        // fully scannable.
        img.truncate_log_tail(trunc);
        let mut d = DurableMedia::from_image(DurabilityConfig::quiet(7), img);
        d.append_record(&mut m, RecordKind::Commit, b"after")
            .expect("append");
        let (recs, trunc) = scan(d.into_survivor().log_bytes());
        assert_eq!(trunc, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"after");
    }

    #[test]
    fn torn_checkpoint_pages_fail_their_crc() {
        let cfg = DurabilityConfig::quiet(5).with_faults(FaultConfig {
            torn_write_prob: 1.0,
            ..FaultConfig::quiet(5)
        });
        let mut m = mem();
        let mut d = DurableMedia::new(cfg);
        let payload = vec![7u8; 9000];
        d.write_checkpoint(&mut m, 1, &payload)
            .expect("write reports success");
        match d.read_checkpoint(1) {
            Err(FabricError::CorruptBatch { device, .. }) => {
                assert!(device.starts_with("checkpoint/1/page"));
            }
            other => panic!("expected CorruptBatch, got {other:?}"),
        }
        assert!(d.fault_stats().torn_writes > 0);
    }

    #[test]
    fn flash_write_errors_exhaust_the_retry_budget() {
        let cfg = DurabilityConfig::quiet(6).with_faults(FaultConfig {
            flash_write_prob: 1.0,
            ..FaultConfig::quiet(6)
        });
        let mut m = mem();
        let mut d = DurableMedia::new(cfg);
        let t0 = m.now();
        match d.append_record(&mut m, RecordKind::Commit, b"doomed") {
            Err(FabricError::FlashWriteError { attempts, .. }) => {
                assert_eq!(attempts, cfg.policy.max_retries + 1);
            }
            other => panic!("expected FlashWriteError, got {other:?}"),
        }
        assert!(m.now() > t0, "retries charge backoff");
        assert!(!d.is_crashed(), "program failure is not a power cut");
        assert_eq!(d.stats().appends, 0);
        assert_eq!(scan(&d.log).0.len(), 0, "nothing half-appended");
    }

    #[test]
    fn identical_seeds_replay_identical_device_histories() {
        let cfg = DurabilityConfig::quiet(9).with_faults(FaultConfig {
            wal_crash_prob: 0.08,
            flash_write_prob: 0.05,
            torn_write_prob: 0.1,
            ..FaultConfig::quiet(9)
        });
        let run = || {
            let mut m = mem();
            let mut d = DurableMedia::new(cfg);
            let mut outcomes = Vec::new();
            for i in 0..60u64 {
                if i % 10 == 9 {
                    outcomes.push(format!(
                        "{:?}",
                        d.write_checkpoint(&mut m, i, &vec![i as u8; 5000])
                    ));
                } else {
                    let r = d.append_record(&mut m, RecordKind::Commit, &i.to_le_bytes());
                    outcomes.push(format!("{r:?}"));
                }
                if d.is_crashed() {
                    break;
                }
            }
            (outcomes, d.into_survivor().log, m.now())
        };
        let (oa, la, ta) = run();
        let (ob, lb, tb) = run();
        assert_eq!(oa, ob);
        assert_eq!(la, lb, "surviving log images are bit-identical");
        assert_eq!(ta, tb, "cycle clocks agree");
    }
}
