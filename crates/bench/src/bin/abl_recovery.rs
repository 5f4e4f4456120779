//! Ablation of the durability subsystem (DESIGN.md §14): what the
//! WAL-before-apply protocol costs at commit time, and what checkpoints
//! buy at recovery time — replay ns versus checkpoint cadence at a fixed
//! workload, with the recovered state asserted bit-identical.
//!
//! Usage: `abl_recovery [--commits N]`

use bench::{arg_usize, fmt_ns, render_table};
use durability::DurabilityConfig;
use fabric_sim::{validate_chrome_trace, MemoryHierarchy, SimConfig};
use fabric_types::{ColumnType, Schema, Value};
use mvcc::DurableStore;

/// Fold the write-path `durability.*` counters a run accumulated into the
/// bench registry under the cadence label, so the envelope carries the
/// instrumented WAL/checkpoint/replay totals per configuration.
fn merge_durability_counters(
    reg: &mut fabric_sim::MetricsRegistry,
    label: &str,
    src: &MemoryHierarchy,
) {
    let snap = src.metrics().snapshot();
    for (key, value) in snap.subtree("durability.").counters {
        reg.counter_add(&format!("{label}.durability.{key}"), value);
    }
}

fn main() {
    let args = bench::harness::cli_args();
    let commits = arg_usize(&args, "--commits", 512);
    let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);

    let mut out = Vec::new();
    let mut reg = fabric_sim::MetricsRegistry::new();
    // Cadence 0 = never checkpoint (pure log replay) up to every 16
    // commits; each run commits the same workload, crashes at the end,
    // and times recovery from what survived.
    for ckpt_every in [0u64, 64, 16] {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store = DurableStore::create(
            &mut mem,
            schema.clone(),
            commits * 2 + 16,
            DurabilityConfig::quiet(7),
            ckpt_every,
        )
        .expect("create");

        let t0 = mem.now();
        for i in 0..commits as i64 {
            let mut txn = store.begin();
            if i % 3 == 2 {
                // Every third commit updates an existing row: the log and
                // checkpoints carry version chains, not just inserts.
                txn.update((i / 3) as usize, vec![(1, Value::I64(i * 100))]);
            } else {
                txn.insert(vec![Value::I64(i), Value::I64(i * 10)]);
            }
            store.commit(&mut mem, txn).expect("commit");
        }
        let commit_ns = mem.ns_since(t0);
        let log_bytes = store.media().stats().append_bytes;
        let ckpt_pages = store.media().stats().checkpoint_pages;
        let before = store.snapshot_rows(&mut mem).expect("rows");
        let watermark = store.snapshot_ts();

        // Crash now; time recovery on a fresh machine.
        let image = store.crash_image();
        let mut mem2 = MemoryHierarchy::new(SimConfig::zynq_a53());
        let t0 = mem2.now();
        let (recovered, report) = DurableStore::replay(
            &mut mem2,
            schema.clone(),
            commits * 2 + 16,
            image,
            DurabilityConfig::quiet(8),
            ckpt_every,
        )
        .expect("replay");
        let replay_ns = mem2.ns_since(t0);
        assert_eq!(report.watermark, watermark, "watermark must survive");
        assert_eq!(
            recovered.snapshot_rows(&mut mem2).expect("rows"),
            before,
            "recovered answers must be bit-identical"
        );

        let label = format!("recovery.e{ckpt_every:03}");
        // Fold the instrumented write-path counters from both machines:
        // the commit-phase WAL/checkpoint totals and the replay totals.
        merge_durability_counters(&mut reg, &label, &mem);
        merge_durability_counters(&mut reg, &label, &mem2);
        assert!(
            reg.counter(&format!("{label}.durability.wal.appends")) > 0,
            "commit phase must count WAL appends"
        );
        assert!(
            reg.counter(&format!("{label}.durability.replay.records")) > 0,
            "recovery must count replayed records"
        );
        reg.gauge_set(&format!("{label}.commit_ns"), commit_ns / commits as f64);
        reg.gauge_set(&format!("{label}.replay_ns"), replay_ns);
        reg.counter_add(&format!("{label}.log_bytes"), log_bytes);
        reg.counter_add(&format!("{label}.ckpt_pages"), ckpt_pages);
        reg.counter_add(
            &format!("{label}.commits_replayed"),
            report.commits_replayed,
        );

        out.push(vec![
            if ckpt_every == 0 {
                "never".into()
            } else {
                format!("every {ckpt_every}")
            },
            format!("{:.1} KiB", log_bytes as f64 / 1024.0),
            format!("{ckpt_pages}"),
            fmt_ns(commit_ns / commits as f64),
            format!("{}", report.commits_replayed),
            fmt_ns(replay_ns),
        ]);
    }

    // One traced pass: replay a crashed image, then push the recovered
    // store past a checkpoint boundary, so a single validated Chrome
    // trace covers the replay phases AND the WAL-append /
    // checkpoint-write spans of the live write path.
    {
        let ckpt_every = 8u64;
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store = DurableStore::create(
            &mut mem,
            schema.clone(),
            256,
            DurabilityConfig::quiet(9),
            ckpt_every,
        )
        .expect("create");
        // 27 commits with a cadence of 8: the last checkpoint lands at
        // commit 24, so replay reloads it and reapplies a 3-commit tail.
        for i in 0..27i64 {
            let mut txn = store.begin();
            txn.insert(vec![Value::I64(i), Value::I64(i * 10)]);
            store.commit(&mut mem, txn).expect("commit");
        }
        let image = store.crash_image();

        let mut mem2 = MemoryHierarchy::new(SimConfig::zynq_a53());
        mem2.trace_to(1 << 15);
        let (mut recovered, report) = DurableStore::replay(
            &mut mem2,
            schema.clone(),
            256,
            image,
            DurabilityConfig::quiet(10),
            ckpt_every,
        )
        .expect("replay");
        for i in 24..24 + ckpt_every as i64 {
            let mut txn = recovered.begin();
            txn.insert(vec![Value::I64(i), Value::I64(i * 10)]);
            recovered.commit(&mut mem2, txn).expect("commit");
        }
        let trace = mem2.export_trace().expect("a trace is installed");
        let summary = validate_chrome_trace(&trace).expect("trace must be structurally valid");
        for span in [
            "replay-scan",
            "replay-ckpt-load",
            "replay-reapply",
            "wal-append",
            "ckpt-write",
        ] {
            assert!(
                trace.contains(span),
                "instrumented trace must cover `{span}`"
            );
        }
        let path =
            bench::harness::write_artifact("TRACE_recovery.json", &trace).expect("write trace");
        eprintln!(
            "# instrumented recovery trace: {} events ({} spans), {} commits replayed -> {}",
            summary.events,
            summary.begins,
            report.commits_replayed,
            path.display()
        );
    }

    println!("Crash recovery: WAL commit tax and checkpoint-bounded replay ({commits} commits):");
    println!(
        "{}",
        render_table(
            &[
                "checkpoint",
                "log size",
                "ckpt pages",
                "commit (avg)",
                "replayed",
                "replay time",
            ],
            &out
        )
    );
    bench::emit_bench_json("abl_recovery", &reg);
}
