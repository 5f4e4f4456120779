//! Property-based testing of snapshot isolation: a random history of
//! inserts/updates/deletes is applied both to the versioned table and to a
//! shadow model that records the logical state after every commit; every
//! snapshot of the real table must match the model exactly, through both
//! the software and the in-fabric visibility paths — and keep matching
//! after vacuum.
//!
//! Generated from `FABRIC_CHAOS_SEED`; a failing case prints the seed
//! and its index.

use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::rng::{for_each_case, DetRng};
use relational_fabric::mvcc::scan::{collect_visible, rm_visible_sum, sw_visible_sum};
use relational_fabric::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Update(usize, i64),
    Delete(usize),
}

/// `len` operations, each kind equally likely; ids span more logical
/// rows than a history creates, so some updates and deletes miss.
fn ops(rng: &mut DetRng, len: std::ops::Range<usize>) -> Vec<Op> {
    (0..rng.gen_range(len))
        .map(|_| match rng.gen_range(0..3u8) {
            0 => Op::Insert(rng.gen_range(0..1000i64)),
            1 => Op::Update(rng.gen_range(0..64usize), rng.gen_range(0..1000i64)),
            _ => Op::Delete(rng.gen_range(0..64usize)),
        })
        .collect()
}

/// The logical state (logical id -> value) after each commit timestamp.
type History = BTreeMap<u64, BTreeMap<usize, i64>>;

fn run_history(ops: &[Op]) -> (MemoryHierarchy, VersionedTable, TxnManager, History) {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let schema = Schema::from_pairs(&[("k", ColumnType::I64), ("v", ColumnType::I64)]);
    let mut table = VersionedTable::create(&mut mem, schema, ops.len() * 2 + 8).unwrap();
    let tm = TxnManager::new();
    let mut state: BTreeMap<usize, i64> = BTreeMap::new();
    let mut history = History::new();
    history.insert(0, state.clone());

    for op in ops {
        let mut txn = tm.begin();
        let mut model_effect: Option<Box<dyn FnOnce(&mut BTreeMap<usize, i64>, &[usize])>> = None;
        match op {
            Op::Insert(v) => {
                txn.insert(vec![Value::I64(*v), Value::I64(*v)]);
                let v = *v;
                model_effect = Some(Box::new(move |m, inserted| {
                    m.insert(inserted[0], v);
                }));
            }
            Op::Update(l, v) => {
                if state.contains_key(l) {
                    txn.update(*l, vec![(1, Value::I64(*v))]);
                    let (l, v) = (*l, *v);
                    model_effect = Some(Box::new(move |m, _| {
                        m.insert(l, v);
                    }));
                }
            }
            Op::Delete(l) => {
                if state.contains_key(l) {
                    txn.delete(*l);
                    let l = *l;
                    model_effect = Some(Box::new(move |m, _| {
                        m.remove(&l);
                    }));
                }
            }
        }
        if let Some(effect) = model_effect {
            let receipt = tm.commit(&mut mem, &mut table, txn).unwrap();
            effect(&mut state, &receipt.inserted);
            history.insert(receipt.commit_ts, state.clone());
        }
    }
    (mem, table, tm, history)
}

/// The visible rows of the real table at `ts`, as (logical key ordering is
/// not defined, so compare as multisets of (k, v)).
fn visible_multiset(mem: &mut MemoryHierarchy, table: &VersionedTable, ts: u64) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = collect_visible(mem, table, ts)
        .unwrap()
        .into_iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn snapshots_match_the_shadow_model() {
    for_each_case("snapshots match the shadow model", |rng| {
        let (mut mem, table, _tm, history) = run_history(&ops(rng, 1..48));
        for (&ts, model) in &history {
            let mut expect: Vec<(i64, i64)> = Vec::new();
            // The model stores logical-id -> v, where k == original v of the
            // insert; reconstruct (k, v) pairs through read_at.
            for (&l, &v) in model {
                let k = table.read_at(&mut mem, l, 0, ts).unwrap();
                assert!(k.is_some(), "logical {l} invisible at ts {ts}");
                expect.push((k.unwrap().as_i64().unwrap(), v));
            }
            expect.sort_unstable();
            let got = visible_multiset(&mut mem, &table, ts);
            assert_eq!(got, expect, "mismatch at ts {ts}");
        }
    });
}

#[test]
fn hw_and_sw_visibility_agree_everywhere() {
    for_each_case("hw and sw visibility agree everywhere", |rng| {
        let (mut mem, table, tm, history) = run_history(&ops(rng, 1..40));
        let mut timestamps: Vec<u64> = history.keys().copied().collect();
        timestamps.push(tm.snapshot_ts() + 5);
        for ts in timestamps {
            let (sw, n_sw) = sw_visible_sum(&mut mem, &table, 1, ts).unwrap();
            let (hw, n_hw) =
                rm_visible_sum(&mut mem, &table, 1, ts, RmConfig::prototype()).unwrap();
            assert_eq!((sw, n_sw), (hw, n_hw), "paths diverge at ts {ts}");
        }
    });
}

#[test]
fn vacuum_preserves_the_latest_snapshot() {
    for_each_case("vacuum preserves the latest snapshot", |rng| {
        let (mut mem, mut table, tm, _history) = run_history(&ops(rng, 1..40));
        let ts = tm.snapshot_ts();
        let before = visible_multiset(&mut mem, &table, ts);
        table.vacuum(&mut mem, ts).unwrap();
        let after = visible_multiset(&mut mem, &table, ts);
        assert_eq!(before, after);
        // Every surviving dead-version space is really gone: a second
        // vacuum removes nothing.
        assert_eq!(table.vacuum(&mut mem, ts).unwrap(), 0);
    });
}
