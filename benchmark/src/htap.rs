//! `htap_mix`: writes beside reads on one copy of the data.
//!
//! A cycle is one *epoch* on a fresh `mvcc::DurableStore`: accounts are
//! loaded, then `htap_commits` commits of `htap_batch` read-modify-write
//! updates run; after every fourth commit the balance total is computed
//! twice, by `rm_visible_sum` and by `sw_visible_sum`; at the midpoint
//! and at the end the store is crashed and replayed. No vacuum is
//! reachable through `DurableStore`, so versions accumulate and scans
//! slow down within an epoch; a fresh store per epoch keeps every cycle
//! the same work however many of them the host fits into a run.
//!
//! A shadow model (one `i64` per account) is the oracle: every read in a
//! transaction, every snapshot total by either scan, and every recovered
//! row must equal it.

use crate::query_workload::SIM_CORES;
use crate::stats::{quantile, ratio};
use crate::tracer::NO_ARGS;
use crate::{probes, Recorder, RunConfig, Scale, Workload};
use durability::{DurabilityConfig, DurableMedia};
use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::{ColumnType, DetRng, Schema, Value};
use mvcc::scan::{rm_visible_sum, sw_visible_sum};
use mvcc::DurableStore;
use relmem::RmConfig;
use std::time::Instant;

const BALANCE: usize = 1;
const CHECKPOINT_EVERY: u64 = 32;
const LOAD_BATCH: usize = 1000;

enum Step {
    /// `(account, delta)` for distinct accounts.
    Commit(Vec<(usize, i64)>),
    Snapshot,
    Crash,
}

/// One epoch's machine, store and oracle.
struct Epoch {
    mem: MemoryHierarchy,
    store: DurableStore,
    balances: Vec<i64>,
    total: i64,
    /// [`media_counts`] after the account load.
    loaded: [u64; 4],
}

/// Counters of the traced cycles.
#[derive(Clone, Default)]
struct Counters {
    ops: u64,
    commit_sim_cycles: Vec<u64>,
    rm_scan_sim_cycles: u64,
    sw_scan_sim_cycles: u64,
    versions_examined: u64,
    visible: u64,
    conflicts: u64,
    updates: u64,
    /// See [`media_counts`]; the account load is not counted.
    media: [u64; 4],
    replays: u64,
    replay_sim_cycles: u64,
    replay_records: u64,
    mem: fabric_sim::MemStats,
    sim_cycles: u64,
    host_ns: u64,
    metrics_json_ms: f64,
    metrics_keys: u64,
}

pub struct HtapMix {
    scale: Scale,
    seed: u64,
    schema: Schema,
    initial: Vec<i64>,
    steps: Vec<Step>,
    /// The epoch set-up built, for the first cycle.
    ready: Option<Epoch>,
    gen_rows_per_s: f64,
    all: Counters,
    first: Option<Counters>,
}

/// `[appends, append bytes, checkpoint pages, write retries]` of a
/// medium since it was created or reopened.
fn media_counts(media: &DurableMedia) -> [u64; 4] {
    let s = media.stats();
    [
        s.appends,
        s.append_bytes,
        s.checkpoint_pages,
        s.write_retries,
    ]
}

impl HtapMix {
    pub fn setup(cfg: &RunConfig, rec: &mut Recorder) -> Self {
        let scale = cfg.scale.clone();
        let mut rng = DetRng::seed_from_u64(cfg.seed ^ 0x4854_4150);
        let t = Instant::now();
        let initial: Vec<i64> = (0..scale.htap_accounts)
            .map(|_| rng.gen_range(1_000..=1_000_000))
            .collect();
        let mut steps = Vec::new();
        for commit in 1..=scale.htap_commits {
            let mut batch: Vec<(usize, i64)> = Vec::with_capacity(scale.htap_batch);
            while batch.len() < scale.htap_batch.min(scale.htap_accounts) {
                let account = rng.gen_range(0..scale.htap_accounts);
                if batch.iter().all(|(a, _)| *a != account) {
                    batch.push((account, rng.gen_range(-500..=500)));
                }
            }
            steps.push(Step::Commit(batch));
            if commit % 4 == 0 {
                steps.push(Step::Snapshot);
            }
            if commit == scale.htap_commits / 2 || commit == scale.htap_commits {
                steps.push(Step::Crash);
            }
        }
        let mut this = HtapMix {
            scale,
            seed: cfg.seed,
            schema: Schema::from_pairs(&[("id", ColumnType::I64), ("balance", ColumnType::I64)]),
            initial,
            steps,
            ready: None,
            gen_rows_per_s: 0.0,
            all: Counters::default(),
            first: None,
        };
        this.ready = Some(this.build_epoch(rec));
        this.gen_rows_per_s = ratio(this.scale.htap_accounts as f64, t.elapsed().as_secs_f64());
        // Warm-up: one whole epoch, checked like any other but not timed.
        let mut warm = Recorder::new(0);
        this.cycle(&mut warm, false);
        rec.attempted += warm.attempted;
        rec.failed += warm.failed;
        rec.failures.append(&mut warm.failures);
        this.ready = Some(this.build_epoch(rec));
        this
    }

    fn capacity(&self) -> usize {
        self.scale.htap_accounts + self.scale.htap_commits * self.scale.htap_batch + 16
    }

    /// A fresh machine with the accounts loaded by insert commits.
    fn build_epoch(&self, rec: &mut Recorder) -> Epoch {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        mem.set_core_count(SIM_CORES);
        let mut store = DurableStore::create(
            &mut mem,
            self.schema.clone(),
            self.capacity(),
            DurabilityConfig::quiet(self.seed),
            CHECKPOINT_EVERY,
        )
        .expect("store creation");
        for (chunk_at, chunk) in self.initial.chunks(LOAD_BATCH).enumerate() {
            let mut txn = store.begin();
            for (i, balance) in chunk.iter().enumerate() {
                let id = (chunk_at * LOAD_BATCH + i) as i64;
                txn.insert(vec![Value::I64(id), Value::I64(*balance)]);
            }
            let loaded = store.commit(&mut mem, txn);
            rec.check(loaded.is_ok(), || format!("account load: {loaded:?}"));
        }
        Epoch {
            mem,
            balances: self.initial.clone(),
            total: self.initial.iter().sum(),
            loaded: media_counts(store.media()),
            store,
        }
    }
}

/// The pieces of one timed operation the cycle loop needs back.
struct Timed {
    start: Instant,
    end: Instant,
    sim_cycles: u64,
}

fn timed<R>(mem: &mut MemoryHierarchy, f: impl FnOnce(&mut MemoryHierarchy) -> R) -> (R, Timed) {
    let now0 = mem.now();
    let start = Instant::now();
    let out = f(mem);
    let end = Instant::now();
    let sim_cycles = mem.now() - now0;
    (
        out,
        Timed {
            start,
            end,
            sim_cycles,
        },
    )
}

impl Workload for HtapMix {
    fn cycle(&mut self, rec: &mut Recorder, traced: bool) {
        let Epoch {
            mut mem,
            store,
            mut balances,
            mut total,
            loaded,
        } = match self.ready.take() {
            Some(epoch) => epoch,
            None => self.build_epoch(rec),
        };
        // `None` only between a crash and the replay that follows it.
        let mut store = Some(store);
        let accounts = self.scale.htap_accounts as u64;
        let capacity = self.capacity();
        let (now0, mem0) = (mem.now(), mem.stats());
        let mut c = Counters::default();
        let mut ops = 0u64;
        // What the current medium had counted when this cycle took it
        // over: the account load at first, nothing after a replay.
        let mut media_base = loaded;
        let count_media = |c: &mut Counters, media: &DurableMedia, base: [u64; 4]| {
            for ((sum, now), base) in c.media.iter_mut().zip(media_counts(media)).zip(base) {
                *sum += now - base;
            }
        };

        // One finished operation: latency, verdict, and when tracing a
        // root span with the layer call and the check as children.
        let mut finish = |rec: &mut Recorder,
                          c: &mut Counters,
                          name: &'static str,
                          t: &Timed,
                          ok: bool,
                          why: &dyn Fn() -> String| {
            let lat = (t.end - t.start).as_nanos() as u64;
            ops += 1;
            rec.op(traced, lat, ok, why);
            if traced {
                let tr = &mut rec.tracer;
                let (a, b) = (tr.at(t.start), tr.at(t.end));
                let mut root = tr.begin_at("op", a);
                tr.child(
                    &mut root,
                    name,
                    a,
                    b,
                    [("sim_cycles", t.sim_cycles), ("", 0)],
                );
                let now = tr.now_ns();
                tr.child(&mut root, "check", b, now, NO_ARGS);
                tr.end(root);
                c.host_ns += lat;
            }
        };

        for step in &self.steps {
            match step {
                Step::Commit(batch) => {
                    let live = store.as_mut().expect("store is live between crashes");
                    let mut reads_ok = true;
                    let (committed, t) = timed(&mut mem, |mem| {
                        let mut txn = live.begin();
                        for (account, delta) in batch {
                            let read = live.read(mem, &txn, *account, BALANCE);
                            let old = match read {
                                Ok(Some(Value::I64(v))) => v,
                                _ => i64::MIN,
                            };
                            reads_ok &= old == balances[*account];
                            txn.update(*account, vec![(BALANCE, Value::I64(old + delta))]);
                        }
                        live.commit(mem, txn)
                    });
                    let ckpt = live.take_checkpoint_failure();
                    let ok = committed.is_ok() && reads_ok && ckpt.is_none();
                    if committed.is_ok() {
                        for (account, delta) in batch {
                            balances[*account] += delta;
                            total += delta;
                        }
                    } else {
                        c.conflicts += 1;
                    }
                    c.updates += batch.len() as u64;
                    c.commit_sim_cycles.push(t.sim_cycles);
                    finish(rec, &mut c, "mvcc.commit", &t, ok, &|| {
                        format!("commit: {committed:?} reads_ok={reads_ok} ckpt={ckpt:?}")
                    });
                }
                Step::Snapshot => {
                    let live = store.as_ref().expect("store is live between crashes");
                    let ts = live.snapshot_ts();
                    let versions = live.table().version_count() as u64;
                    let want = (total as f64, accounts);
                    let (rm, t) = timed(&mut mem, |mem| {
                        rm_visible_sum(mem, live.table(), BALANCE, ts, RmConfig::prototype())
                    });
                    c.rm_scan_sim_cycles += t.sim_cycles;
                    finish(
                        rec,
                        &mut c,
                        "mvcc.scan.rm",
                        &t,
                        rm.as_ref().ok() == Some(&want),
                        &|| format!("RM snapshot sum {rm:?}, shadow {want:?}"),
                    );
                    let (sw, t) = timed(&mut mem, |mem| {
                        sw_visible_sum(mem, live.table(), BALANCE, ts)
                    });
                    c.sw_scan_sim_cycles += t.sim_cycles;
                    finish(
                        rec,
                        &mut c,
                        "mvcc.scan.sw",
                        &t,
                        sw.as_ref().ok() == Some(&want),
                        &|| format!("software snapshot sum {sw:?}, shadow {want:?}"),
                    );
                    c.versions_examined += versions;
                    c.visible += accounts;
                }
                Step::Crash => {
                    let crashed = store.take().expect("store is live between crashes");
                    let watermark = crashed.snapshot_ts();
                    count_media(&mut c, crashed.media(), media_base);
                    media_base = [0; 4];
                    let (replayed, t) = timed(&mut mem, |mem| {
                        DurableStore::replay(
                            mem,
                            self.schema.clone(),
                            capacity,
                            crashed.crash_image(),
                            DurabilityConfig::quiet(self.seed + 1),
                            CHECKPOINT_EVERY,
                        )
                    });
                    let mut ok = false;
                    let mut why = String::new();
                    match replayed {
                        Ok((recovered, report)) => {
                            c.replays += 1;
                            c.replay_sim_cycles += t.sim_cycles;
                            c.replay_records += report.records_scanned as u64;
                            let rows = recovered.snapshot_rows(&mut mem);
                            let rows_ok = rows.as_ref().is_ok_and(|rows| {
                                rows.len() == balances.len()
                                    && rows.iter().all(|r| match r.as_slice() {
                                        [Value::I64(id), Value::I64(b)] => {
                                            balances.get(*id as usize) == Some(b)
                                        }
                                        _ => false,
                                    })
                            });
                            ok = rows_ok
                                && report.watermark == watermark
                                && report.degraded.is_none();
                            if !ok {
                                why = format!(
                                    "recovery: rows_ok={rows_ok} watermark {} want {watermark} \
                                     degraded {:?}",
                                    report.watermark, report.degraded
                                );
                            }
                            store = Some(recovered);
                        }
                        Err(e) => why = format!("replay: {e}"),
                    }
                    finish(rec, &mut c, "durability.replay", &t, ok, &|| why.clone());
                    if store.is_none() {
                        // Unrecoverable: the epoch cannot go on.
                        break;
                    }
                }
            }
        }

        let sim_cycles = mem.now() - now0;
        rec.first_cycle.get_or_insert((sim_cycles, ops));
        if traced {
            if let Some(live) = &store {
                count_media(&mut c, live.media(), media_base);
            }
            c.ops = ops;
            c.sim_cycles = sim_cycles;
            c.mem = mem.stats().delta_since(&mem0);
            let all = &mut self.all;
            all.ops += c.ops;
            all.host_ns += c.host_ns;
            all.sim_cycles += c.sim_cycles;
            all.mem.accumulate(&c.mem);
            if self.first.is_none() {
                (c.metrics_json_ms, c.metrics_keys) = crate::metrics_export(&mem);
                self.first = Some(c);
            }
        }
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        let Some(first) = self.first.take() else {
            return;
        };
        let all = &self.all;
        let tr = &rec.tracer;
        let versions = first.versions_examined as f64;
        crate::hierarchy_metrics(
            &first.mem,
            first.ops,
            &all.mem,
            all.sim_cycles,
            all.host_ns,
            out,
        );
        out.extend([
            ("workload.gen_rows_per_s", self.gen_rows_per_s),
            ("mvcc.commit_host_us_p50", tr.p50_us("mvcc.commit")),
            (
                "mvcc.commit_sim_cycles_p50",
                quantile(&mut first.commit_sim_cycles.clone(), 0.5) as f64,
            ),
            ("mvcc.rm_scan_host_ms_p50", tr.p50_us("mvcc.scan.rm") / 1e3),
            ("mvcc.sw_scan_host_ms_p50", tr.p50_us("mvcc.scan.sw") / 1e3),
            (
                "mvcc.rm_scan_sim_cycles_per_version",
                ratio(first.rm_scan_sim_cycles as f64, versions),
            ),
            (
                "mvcc.sw_scan_sim_cycles_per_version",
                ratio(first.sw_scan_sim_cycles as f64, versions),
            ),
            (
                "mvcc.visible_per_version",
                ratio(first.visible as f64, versions),
            ),
            ("mvcc.conflicts", first.conflicts as f64),
            ("durability.wal_appends", first.media[0] as f64),
            (
                "durability.wal_bytes_per_update",
                ratio(first.media[1] as f64, first.updates as f64),
            ),
            ("durability.ckpt_pages", first.media[2] as f64),
            ("durability.write_retries", first.media[3] as f64),
            (
                "durability.replay_host_ms",
                tr.p50_us("durability.replay") / 1e3,
            ),
            (
                "durability.replay_sim_cycles",
                ratio(first.replay_sim_cycles as f64, first.replays as f64),
            ),
            (
                "durability.replay_records",
                ratio(first.replay_records as f64, first.replays as f64),
            ),
            ("obs.metrics_json_host_ms", first.metrics_json_ms),
            ("obs.metrics_keys", first.metrics_keys as f64),
        ]);
        let mut root = rec.tracer.begin("probes");
        let ok = probes::simulator(&mut rec.tracer, &mut root, out);
        rec.tracer.end(root);
        rec.check(ok, || "a simulator probe could not run".into());
    }
}
