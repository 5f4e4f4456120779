//! Engine-wide query log: a bounded, deterministic ring of per-query
//! envelopes (DESIGN.md §17).
//!
//! EXPLAIN ANALYZE answers "what did *this* query do"; the query log
//! answers "what has the *workload* been doing". Every query the
//! executor finishes — cold, op-cache hit, degraded, or recovered —
//! pushes one [`QueryRecord`] carrying its plan signature, chosen path,
//! per-operator estimate/actual attribution, top-down cycle summary, and
//! cache/degradation provenance. The ring is bounded (oldest records are
//! dropped and counted), lives entirely on the host side (recording never
//! advances the simulated clock), and exports byte-deterministic JSON:
//! the same seed and fault plan produce an identical document.
//!
//! [`QueryLog::workload_report`] folds the ring into a per-(class, path)
//! aggregation — the workload-level degradation view the HTAP papers
//! measure systems by — rendered by the `querylog_report` bench bin into
//! `results/QUERYLOG_*.json` artifacts.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::metrics::fmt_f64;
use crate::topdown::TopDownSummary;

/// Default ring capacity. Large enough to hold every query of the CI
/// workloads; small enough that an unbounded workload cannot grow the
/// host heap without bound.
pub const DEFAULT_QUERYLOG_CAP: usize = 256;

/// Per-operator estimated and actual attribution for one operator of an
/// executed query — the rows of the EXPLAIN ANALYZE operator tree and of
/// the query log's `ops` array.
///
/// Estimates are the operator's share of the path estimate; the shares
/// sum to the path total bit-exactly. Actuals apportion the measured scan
/// phase: each stage-0 operator gets cycles proportional to its estimate
/// share (the scan absorbing the integer remainder so the stage-0 cycles
/// also sum exactly), the scan owns the phase's bytes, and the merge
/// carries its own phase's measurements. Rows and invocations come from
/// the stage's one total: every stage-0 operator ran once per kernel
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Operator name (`scan_row`, `filter`, `aggregate`, ...).
    pub op: &'static str,
    /// Estimated nanoseconds for this operator.
    pub est_ns: f64,
    /// Estimated bytes moved by this operator.
    pub est_bytes: f64,
    /// Observed simulated cycles attributed to this operator.
    pub actual_cycles: u64,
    /// Observed bytes read attributed to this operator.
    pub actual_bytes: u64,
    /// Rows entering the operator.
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Operator body invocations (morsels, or merge folds).
    pub invocations: u64,
}

/// One query's envelope in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Monotonic sequence number, assigned by [`QueryLog::push`].
    pub seq: u64,
    /// 128-bit plan signature (op-cache key for the *planned* path —
    /// degradation changes `path`, never the signature).
    pub plan_sig: u128,
    /// Query class (`q1`, `q6`, `scan`, ...).
    pub class: &'static str,
    /// Session id that issued the query (0 for engine-direct runs).
    pub session: u64,
    /// Path that actually ran (`row`, `col`, `rm`).
    pub path: &'static str,
    /// Planner's estimated nanoseconds for the executed path.
    pub est_ns: f64,
    /// Observed simulated cycles for the whole query.
    pub actual_cycles: u64,
    /// Planner's estimated bytes for the executed path.
    pub est_bytes: f64,
    /// Observed bytes moved (0 for op-cache hits: nothing moved).
    pub actual_bytes: u64,
    /// Rows returned after post-processing.
    pub rows_out: u64,
    /// True when the answer was replayed from the op cache.
    pub cache_hit: bool,
    /// Path the query was planned on before degrading, when it did.
    pub degraded_from: Option<&'static str>,
    /// Tables recovered (WAL replay) before this query ran.
    pub recovered_tables: u64,
    /// Faults injected into this query's RM scan.
    pub faults_injected: u64,
    /// Per-operator attribution (empty for op-cache hits).
    pub ops: Vec<OpRecord>,
    /// Top-down cycle summary over all cores.
    pub topdown: TopDownSummary,
}

/// Bounded deterministic ring of [`QueryRecord`]s, hosted one-per-engine
/// on the `MemoryHierarchy`.
#[derive(Debug)]
pub struct QueryLog {
    ring: VecDeque<QueryRecord>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

impl Default for QueryLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_QUERYLOG_CAP)
    }
}

impl QueryLog {
    /// A log that retains at most `cap` records (oldest dropped first).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(cap.min(DEFAULT_QUERYLOG_CAP)),
            cap: cap.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Append a record, assigning it the next sequence number. Evicts the
    /// oldest record (counted in [`dropped`](Self::dropped)) when full.
    pub fn push(&mut self, mut record: QueryRecord) -> u64 {
        record.seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
        self.next_seq - 1
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.ring.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no record has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total queries ever recorded (including dropped ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop all retained records; sequence numbering continues.
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Byte-deterministic JSON export of the retained ring: sorted-key
    /// objects, fixed float formatting, plan signatures as 32-digit hex.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ignored = write!(
            out,
            "{{\"schema\":1,\"cap\":{},\"dropped\":{},\"records\":[",
            self.cap, self.dropped
        );
        for (i, r) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&record_json(r));
        }
        out.push_str("]}");
        out
    }

    /// Fold the retained ring into a per-(class, path) workload report.
    pub fn workload_report(&self) -> WorkloadReport {
        let mut report = WorkloadReport::default();
        for r in self.ring.iter() {
            let key = format!("{}/{}", r.class, r.path);
            let e = report.entries.entry(key).or_default();
            e.runs += 1;
            e.rows_out += r.rows_out;
            e.cycles_total += r.actual_cycles;
            e.est_ns_total += r.est_ns;
            if r.cache_hit {
                e.cache_hits += 1;
            }
            if r.degraded_from.is_some() {
                e.degraded += 1;
            }
            e.faults_injected += r.faults_injected;
            report.queries += 1;
            report.cycles_total += r.actual_cycles;
            if r.cache_hit {
                report.cache_hits += 1;
            }
            if r.degraded_from.is_some() {
                report.degraded += 1;
            }
        }
        report.dropped = self.dropped;
        report
    }
}

fn record_json(r: &QueryRecord) -> String {
    let mut out = String::with_capacity(256);
    let _ignored = write!(
        out,
        "{{\"actual_bytes\":{},\"actual_cycles\":{},\"cache_hit\":{},\"class\":\"{}\"",
        r.actual_bytes,
        r.actual_cycles,
        r.cache_hit,
        crate::json::escaped(r.class)
    );
    match r.degraded_from {
        Some(p) => {
            let _ignored = write!(out, ",\"degraded_from\":\"{}\"", crate::json::escaped(p));
        }
        None => out.push_str(",\"degraded_from\":null"),
    }
    let _ignored = write!(
        out,
        ",\"est_bytes\":{},\"est_ns\":{},\"faults_injected\":{},\"ops\":[",
        fmt_f64(r.est_bytes),
        fmt_f64(r.est_ns),
        r.faults_injected
    );
    for (i, o) in r.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ignored = write!(
            out,
            "{{\"actual_bytes\":{},\"actual_cycles\":{},\"est_bytes\":{},\"est_ns\":{},\
             \"invocations\":{},\"op\":\"{}\",\"rows_in\":{},\"rows_out\":{}}}",
            o.actual_bytes,
            o.actual_cycles,
            fmt_f64(o.est_bytes),
            fmt_f64(o.est_ns),
            o.invocations,
            crate::json::escaped(o.op),
            o.rows_in,
            o.rows_out
        );
    }
    let _ignored = write!(
        out,
        "],\"path\":\"{}\",\"plan_sig\":\"{:032x}\",\"recovered_tables\":{},\"rows_out\":{},\
         \"seq\":{},\"session\":{},\"topdown\":{{\"elapsed\":{},\"idle\":{},\"mem\":{},\
         \"retired\":{},\"stall\":{}}}}}",
        crate::json::escaped(r.path),
        r.plan_sig,
        r.recovered_tables,
        r.rows_out,
        r.seq,
        r.session,
        r.topdown.elapsed,
        r.topdown.idle,
        r.topdown.mem,
        r.topdown.retired,
        r.topdown.stall
    );
    out
}

/// Per-(class, path) aggregation bucket of a [`WorkloadReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadEntry {
    /// Queries folded into this bucket.
    pub runs: u64,
    /// How many were op-cache hits.
    pub cache_hits: u64,
    /// How many degraded off their planned path.
    pub degraded: u64,
    /// Faults injected across the bucket's RM scans.
    pub faults_injected: u64,
    /// Rows returned across the bucket.
    pub rows_out: u64,
    /// Observed cycles across the bucket.
    pub cycles_total: u64,
    /// Estimated nanoseconds across the bucket.
    pub est_ns_total: f64,
}

/// Workload-level aggregation of the query log, keyed `class/path`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// Aggregation buckets, sorted by key.
    pub entries: BTreeMap<String, WorkloadEntry>,
    /// Total queries folded (retained ring only).
    pub queries: u64,
    /// Total op-cache hits.
    pub cache_hits: u64,
    /// Total degraded queries.
    pub degraded: u64,
    /// Total observed cycles.
    pub cycles_total: u64,
    /// Records the ring had already evicted (not folded).
    pub dropped: u64,
}

impl WorkloadReport {
    /// Byte-deterministic JSON export (sorted keys, fixed floats).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ignored = write!(
            out,
            "{{\"schema\":1,\"cache_hits\":{},\"cycles_total\":{},\"degraded\":{},\
             \"dropped\":{},\"entries\":{{",
            self.cache_hits, self.cycles_total, self.degraded, self.dropped
        );
        for (i, (k, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(
                out,
                "\"{}\":{{\"cache_hits\":{},\"cycles_total\":{},\"degraded\":{},\
                 \"est_ns_total\":{},\"faults_injected\":{},\"rows_out\":{},\"runs\":{}}}",
                crate::json::escaped(k),
                e.cache_hits,
                e.cycles_total,
                e.degraded,
                fmt_f64(e.est_ns_total),
                e.faults_injected,
                e.rows_out,
                e.runs
            );
        }
        let _ignored = write!(out, "}},\"queries\":{}}}", self.queries);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(class: &'static str, path: &'static str, cycles: u64, hit: bool) -> QueryRecord {
        QueryRecord {
            seq: 0,
            plan_sig: 0xDEAD_BEEF,
            class,
            session: 1,
            path,
            est_ns: 100.0,
            actual_cycles: cycles,
            est_bytes: 4096.0,
            actual_bytes: if hit { 0 } else { 4096 },
            rows_out: 10,
            cache_hit: hit,
            degraded_from: None,
            recovered_tables: 0,
            faults_injected: 0,
            ops: vec![OpRecord {
                op: "scan_row",
                est_ns: 100.0,
                est_bytes: 4096.0,
                actual_cycles: cycles,
                actual_bytes: 4096,
                rows_in: 10,
                rows_out: 10,
                invocations: 1,
            }],
            topdown: TopDownSummary {
                retired: cycles,
                mem: 0,
                stall: 0,
                idle: 0,
                elapsed: cycles,
            },
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let mut log = QueryLog::with_capacity(2);
        assert_eq!(log.push(record("q1", "row", 10, false)), 0);
        assert_eq!(log.push(record("q1", "row", 20, false)), 1);
        assert_eq!(log.push(record("q6", "col", 30, false)), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.total_recorded(), 3);
        let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2]);
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let mut log = QueryLog::with_capacity(8);
        log.push(record("q1", "row", 10, false));
        log.push(record("q1", "row", 2, true));
        let a = log.to_json();
        let b = log.to_json();
        assert_eq!(a, b, "export must be byte-deterministic");
        let parsed = crate::json::parse_json(&a).expect("querylog JSON must parse");
        let records = parsed
            .get("records")
            .and_then(crate::json::Json::as_arr)
            .expect("records array");
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0]
                .get("plan_sig")
                .and_then(crate::json::Json::as_str),
            Some("000000000000000000000000deadbeef")
        );
    }

    #[test]
    fn workload_report_folds_by_class_and_path() {
        let mut log = QueryLog::with_capacity(8);
        log.push(record("q1", "row", 10, false));
        log.push(record("q1", "row", 2, true));
        log.push(record("q6", "col", 30, false));
        let report = log.workload_report();
        assert_eq!(report.queries, 3);
        assert_eq!(report.cache_hits, 1);
        let q1 = report.entries.get("q1/row").expect("q1/row bucket");
        assert_eq!(q1.runs, 2);
        assert_eq!(q1.cache_hits, 1);
        assert_eq!(q1.cycles_total, 12);
        let j = report.to_json();
        assert!(crate::json::parse_json(&j).is_ok(), "report JSON parses");
        assert_eq!(j, log.workload_report().to_json());
    }
}
