//! Noise-aware perf regression gate (DESIGN.md §12).
//!
//! Compares a fresh bench artifact against a checked-in baseline
//! (`results/BENCH_<name>.json`). Artifacts are schema-versioned wrappers
//! around a [`crate::MetricsSnapshot`]:
//!
//! ```json
//! {"schema_version":1,"bench":"fig5_projectivity","metrics":{...}}
//! ```
//!
//! Thresholds are per metric *kind*, chosen by what the simulator
//! guarantees:
//!
//! * **counters** — cycle/byte counts from the deterministic simulator:
//!   compared **exactly** (any drift is a real behavior change);
//! * **gauges** — derived figures (simulated-ns, ratios): compared with a
//!   relative tolerance ([`GatePolicy::gauge_rel_tol`]);
//! * **histograms** — `count`, `sum`, `min`, `max` and every bucket
//!   compared exactly: a quantile is a function of exactly these, so the
//!   gate covers every percentile a reader can compute from it;
//! * names matching an exclude pattern (host wall-clock and friends) are
//!   skipped entirely.
//!
//! A metric present in the baseline but missing from the fresh run fails
//! the gate (schema drift is a regression); a metric only in the fresh
//! run is reported but does not fail (it needs `--update-baselines`).

use crate::json::{parse_json, Json};

/// Version stamped into every bench artifact by `bench::harness` and
/// required by the gate on both sides of a comparison.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Comparison policy.
#[derive(Debug, Clone)]
pub struct GatePolicy {
    /// Maximum relative drift tolerated on gauges.
    pub gauge_rel_tol: f64,
    /// Metric-name substrings excluded from comparison (wall-clock and
    /// other host-noise figures).
    pub exclude: Vec<String>,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            gauge_rel_tol: 0.05,
            exclude: vec!["wall_ns".into(), "host_".into()],
        }
    }
}

impl GatePolicy {
    fn excluded(&self, name: &str) -> bool {
        self.exclude.iter().any(|p| name.contains(p))
    }
}

/// One metric that drifted past its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name, prefixed with its kind (`counter:`, `gauge:`, ...).
    pub metric: String,
    pub baseline: f64,
    pub fresh: f64,
    /// The relative tolerance that was applied (0 = exact).
    pub limit: f64,
}

/// Outcome of comparing one bench against its baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Bench name (from the baseline artifact).
    pub bench: String,
    /// Metrics compared.
    pub compared: usize,
    /// Metrics skipped by the exclude patterns.
    pub excluded: usize,
    /// Metrics that drifted past their threshold.
    pub regressions: Vec<Regression>,
    /// Baseline metrics absent from the fresh run (fails the gate).
    pub missing: Vec<String>,
    /// Fresh metrics absent from the baseline (reported, does not fail).
    pub added: Vec<String>,
    /// FNV-1a over the fresh artifact's digested `name=value` lines,
    /// sorted by name (counters, histogram `count` / `sum`): an unchanged
    /// digest from one trajectory line to the next means a bit-identical
    /// run.
    pub digest: u64,
    /// `(suffix, total)` of the fresh counters ending in each of
    /// [`TOTALED_COUNTERS`], for the suffixes the artifact has.
    pub totals: Vec<(&'static str, f64)>,
}

/// Counter-name suffixes whose fresh totals a trajectory line carries.
const TOTALED_COUNTERS: [&str; 3] = ["mem.cpu_cycles", "mem.bytes_read", "mem.line_accesses"];

impl GateReport {
    /// Whether the gate passes: nothing regressed, nothing went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} — {} compared, {} excluded, {} regressed, {} missing, {} added\n",
            self.bench,
            if self.passed() { "PASS" } else { "FAIL" },
            self.compared,
            self.excluded,
            self.regressions.len(),
            self.missing.len(),
            self.added.len(),
        );
        for r in &self.regressions {
            out.push_str(&format!(
                "  regressed {}: baseline {} -> fresh {} (tol {})\n",
                r.metric, r.baseline, r.fresh, r.limit
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("  missing {m}\n"));
        }
        for m in &self.added {
            out.push_str(&format!("  added {m} (needs --update-baselines)\n"));
        }
        out
    }

    /// One machine-readable JSON line for `results/TRAJECTORY.jsonl`.
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"bench\":\"{}\",\"status\":\"{}\",\"compared\":{},\"excluded\":{},\
             \"regressions\":{},\"missing\":{},\"added\":{},\"digest\":\"{:016x}\"",
            crate::json::escaped(&self.bench),
            if self.passed() { "pass" } else { "fail" },
            self.compared,
            self.excluded,
            self.regressions.len(),
            self.missing.len(),
            self.added.len(),
            self.digest,
        );
        for (suffix, total) in &self.totals {
            let key = suffix.trim_start_matches("mem.");
            line.push_str(&format!(",\"{key}\":{total}"));
        }
        line.push('}');
        line
    }
}

/// Parse one bench artifact into `(bench name, metrics object)`,
/// validating the schema version.
fn parse_artifact(src: &str, side: &str) -> Result<(String, Json), String> {
    let doc = parse_json(src).map_err(|e| format!("{side}: {e}"))?;
    let ver = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{side}: missing `schema_version`"))? as u64;
    if ver != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "{side}: schema_version {ver} != supported {BENCH_SCHEMA_VERSION}"
        ));
    }
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{side}: missing `bench` name"))?
        .to_string();
    let metrics = doc
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{side}: missing `metrics`"))?;
    Ok((bench, metrics))
}

/// How one flattened metric is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// Within [`GatePolicy::gauge_rel_tol`] (gauges).
    Tolerance,
    /// Exactly, and part of the trajectory digest (counters, histogram
    /// `count` and `sum`).
    Digested,
    /// Exactly, but outside the digest (histogram `min`, `max` and
    /// buckets), so digests stay comparable with the trajectory lines
    /// written before these were gated.
    Exact,
}

/// Flatten one snapshot into comparable `(kind-prefixed name, value,
/// check)` triples: counters and gauges directly, histograms as
/// `.count` / `.sum` / `.min` / `.max` and one `.bucket<i>` per non-empty
/// bucket. With `count` equal, every baseline bucket equal means no
/// fresh bucket can differ either.
fn flatten(metrics: &Json) -> Vec<(String, f64, Check)> {
    let mut out = Vec::new();
    let section = |key: &str, check: Check, out: &mut Vec<(String, f64, Check)>| {
        if let Some(Json::Obj(members)) = metrics.get(key) {
            for (name, v) in members {
                if let Some(n) = v.as_num() {
                    out.push((format!("{key}:{name}"), n, check));
                }
            }
        }
    };
    section("counters", Check::Digested, &mut out);
    section("gauges", Check::Tolerance, &mut out);
    if let Some(Json::Obj(members)) = metrics.get("histograms") {
        for (name, h) in members {
            for (field, check) in [
                ("count", Check::Digested),
                ("sum", Check::Digested),
                ("min", Check::Exact),
                ("max", Check::Exact),
            ] {
                if let Some(n) = h.get(field).and_then(Json::as_num) {
                    out.push((format!("histograms:{name}.{field}"), n, check));
                }
            }
            if let Some(Json::Arr(buckets)) = h.get("buckets") {
                for bucket in buckets {
                    if let Json::Arr(pair) = bucket {
                        if let [Json::Num(i), Json::Num(n)] = pair.as_slice() {
                            out.push((format!("histograms:{name}.bucket{i}"), *n, Check::Exact));
                        }
                    }
                }
            }
        }
    }
    out
}

/// FNV-1a over the sorted `name=value` lines of the digested metrics the
/// policy does not exclude.
fn digest(flat: &[(String, f64, Check)], policy: &GatePolicy) -> u64 {
    let mut lines: Vec<String> = flat
        .iter()
        .filter(|(name, _, check)| *check == Check::Digested && !policy.excluded(name))
        .map(|(name, v, _)| format!("{name}={v}\n"))
        .collect();
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.concat().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Totals of the counters ending in each of [`TOTALED_COUNTERS`].
fn totals(flat: &[(String, f64, Check)]) -> Vec<(&'static str, f64)> {
    TOTALED_COUNTERS
        .iter()
        .filter_map(|&suffix| {
            let mut matched = flat
                .iter()
                .filter(|(name, ..)| name.starts_with("counters:") && name.ends_with(suffix))
                .peekable();
            matched.peek()?;
            Some((suffix, matched.map(|(_, v, _)| v).sum()))
        })
        .collect()
}

/// Compare a fresh bench artifact against its checked-in baseline.
pub fn compare_bench(
    baseline: &str,
    fresh: &str,
    policy: &GatePolicy,
) -> Result<GateReport, String> {
    let (base_name, base_metrics) = parse_artifact(baseline, "baseline")?;
    let (fresh_name, fresh_metrics) = parse_artifact(fresh, "fresh")?;
    if base_name != fresh_name {
        return Err(format!(
            "bench name mismatch: baseline `{base_name}` vs fresh `{fresh_name}`"
        ));
    }
    let base_flat = flatten(&base_metrics);
    let fresh_flat = flatten(&fresh_metrics);
    let mut report = GateReport {
        bench: base_name,
        digest: digest(&fresh_flat, policy),
        totals: totals(&fresh_flat),
        ..GateReport::default()
    };
    for (name, base_v, check) in &base_flat {
        if policy.excluded(name) {
            report.excluded += 1;
            continue;
        }
        let Some((_, fresh_v, _)) = fresh_flat.iter().find(|(n, ..)| n == name) else {
            report.missing.push(name.clone());
            continue;
        };
        report.compared += 1;
        let exact = *check != Check::Tolerance;
        let limit = if exact { 0.0 } else { policy.gauge_rel_tol };
        let denom = base_v.abs().max(f64::MIN_POSITIVE);
        let drift = (fresh_v - base_v).abs() / denom;
        let ok = if exact {
            fresh_v == base_v
        } else {
            drift <= limit
        };
        if !ok {
            report.regressions.push(Regression {
                metric: name.clone(),
                baseline: *base_v,
                fresh: *fresh_v,
                limit,
            });
        }
    }
    for (name, ..) in &fresh_flat {
        if !policy.excluded(name) && !base_flat.iter().any(|(n, ..)| n == name) {
            report.added.push(name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(name: &str, cycles: u64, ns: f64) -> String {
        format!(
            "{{\"schema_version\":1,\"bench\":\"{name}\",\"metrics\":{{\
             \"counters\":{{\"mem.cpu_cycles\":{cycles}}},\
             \"gauges\":{{\"q.row_ns\":{ns:?},\"q.wall_ns\":123.0}},\
             \"histograms\":{{\"h\":{{\"count\":2,\"sum\":10,\"min\":1,\"max\":9,\"buckets\":[[1,2]]}}}}}}}}"
        )
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact("b1", 1000, 50.0);
        let r = compare_bench(&a, &a, &GatePolicy::default()).unwrap();
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.excluded, 1, "wall_ns gauge must be excluded");
        assert!(r.compared >= 4);
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let base = artifact("b1", 1000, 50.0);
        let fresh = artifact("b1", 1001, 50.0);
        let r = compare_bench(&base, &fresh, &GatePolicy::default()).unwrap();
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric, "counters:mem.cpu_cycles");
        assert!(r.to_json_line().contains("\"status\":\"fail\""));
    }

    #[test]
    fn gauges_tolerate_noise_but_not_ten_percent() {
        let base = artifact("b1", 1000, 100.0);
        let ok =
            compare_bench(&base, &artifact("b1", 1000, 103.0), &GatePolicy::default()).unwrap();
        assert!(ok.passed(), "3% gauge drift is within tolerance");
        let bad =
            compare_bench(&base, &artifact("b1", 1000, 110.1), &GatePolicy::default()).unwrap();
        assert!(!bad.passed(), "10% gauge drift must fail");
    }

    #[test]
    fn schema_and_name_mismatches_are_errors() {
        let good = artifact("b1", 1, 1.0);
        let other = artifact("b2", 1, 1.0);
        assert!(compare_bench(&good, &other, &GatePolicy::default()).is_err());
        let unversioned = "{\"bench\":\"b1\",\"metrics\":{}}";
        assert!(compare_bench(unversioned, &good, &GatePolicy::default()).is_err());
        let wrong_ver = good.replace("\"schema_version\":1", "\"schema_version\":9");
        assert!(compare_bench(&wrong_ver, &good, &GatePolicy::default()).is_err());
    }

    #[test]
    fn the_digest_moves_with_a_counter_and_not_with_a_gauge_inside_tolerance() {
        let policy = GatePolicy::default();
        let report = |cycles, ns| {
            let a = artifact("b1", cycles, ns);
            compare_bench(&a, &a, &policy).unwrap()
        };
        let base = report(1000, 50.0);
        assert_eq!(base.digest, report(1000, 50.0).digest, "deterministic");
        assert_ne!(base.digest, report(1001, 50.0).digest, "one counter bump");
        let gauge = report(1000, 51.0);
        assert!(gauge.passed());
        assert_eq!(base.digest, gauge.digest, "a gauge inside tolerance");
        // The histogram's count and sum are in it; its min is not (it is
        // gated, but outside the digest).
        let a = artifact("b1", 1000, 50.0);
        let moved = |from: &str, to: &str| {
            let b = a.replace(from, to);
            compare_bench(&b, &b, &policy).unwrap().digest
        };
        assert_ne!(base.digest, moved("\"sum\":10", "\"sum\":11"));
        assert_eq!(base.digest, moved("\"min\":1", "\"min\":2"));
    }

    #[test]
    fn a_histogram_shape_shift_fails_the_gate_with_count_and_sum_unchanged() {
        // Samples {3, 4, 5, 8} against {3, 3, 6, 8}: the same count, sum,
        // min and max, one sample moved from bucket 2 ([4, 8)) to bucket 1
        // ([2, 4)) — and with it the p50.
        let with = |buckets: &str| {
            format!(
                "{{\"schema_version\":1,\"bench\":\"b1\",\"metrics\":{{\"histograms\":{{\
                 \"lat\":{{\"count\":4,\"sum\":20,\"min\":3,\"max\":8,\"buckets\":{buckets}}}}}}}}}"
            )
        };
        let base = with("[[1,1],[2,2],[3,1]]");
        let fresh = with("[[1,2],[2,1],[3,1]]");
        let policy = GatePolicy::default();
        assert!(compare_bench(&base, &base, &policy).unwrap().passed());
        let r = compare_bench(&base, &fresh, &policy).unwrap();
        assert!(!r.passed(), "{}", r.render());
        let drifted: Vec<&str> = r.regressions.iter().map(|g| g.metric.as_str()).collect();
        assert_eq!(
            drifted,
            ["histograms:lat.bucket1", "histograms:lat.bucket2"]
        );
        // Outside the digest, which covers count and sum only.
        let same = compare_bench(&fresh, &fresh, &policy).unwrap();
        assert_eq!(r.digest, same.digest);
        // min and max are gated exactly too.
        for (from, to) in [("\"min\":3", "\"min\":2"), ("\"max\":8", "\"max\":9")] {
            let moved = base.replace(from, to);
            assert!(!compare_bench(&base, &moved, &policy).unwrap().passed());
        }
    }

    #[test]
    fn trajectory_lines_carry_the_digest_and_the_totals_there_are() {
        let a = artifact("b1", 1000, 50.0);
        let line = compare_bench(&a, &a, &GatePolicy::default())
            .unwrap()
            .to_json_line();
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("cpu_cycles").and_then(Json::as_num), Some(1000.0));
        assert!(doc.get("bytes_read").is_none(), "no such counter: {line}");
        let digest = doc.get("digest").and_then(Json::as_str).unwrap();
        assert_eq!(digest.len(), 16, "{line}");
        // Totals sum every counter with the suffix.
        let two = a.replace(
            "\"mem.cpu_cycles\":1000",
            "\"mem.cpu_cycles\":1000,\"q1.mem.cpu_cycles\":5,\"x.mem.bytes_read\":64",
        );
        let r = compare_bench(&two, &two, &GatePolicy::default()).unwrap();
        assert_eq!(
            r.totals,
            vec![("mem.cpu_cycles", 1005.0), ("mem.bytes_read", 64.0)]
        );
    }

    #[test]
    fn missing_metric_fails_added_metric_warns() {
        let base = artifact("b1", 1000, 50.0);
        let mut fresh = artifact("b1", 1000, 50.0);
        fresh = fresh.replace("\"q.row_ns\":50.0,", "");
        let r = compare_bench(&base, &fresh, &GatePolicy::default()).unwrap();
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["gauges:q.row_ns".to_string()]);
        let r2 = compare_bench(&fresh, &base, &GatePolicy::default()).unwrap();
        assert!(r2.passed(), "an added metric alone must not fail the gate");
        assert_eq!(r2.added, vec!["gauges:q.row_ns".to_string()]);
    }
}
