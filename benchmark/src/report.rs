//! Rendering and comparing results: the readable metric lines, the
//! driver's one-line result object, the suite's JSON file, and the
//! same-commit repeatability check between two such files.

use crate::spec::{self, MetricSpec};
use crate::stats::{quantile, ratio};
use crate::{Recorder, RunResult};
use fabric_sim::{escaped, parse_json, Json};
use std::fmt::Write as _;

/// The benchmark's own two metrics and, as notes, where the time of the
/// traced operations went: per span name, its share of all operation
/// time as self time.
pub fn trace_metrics(
    rec: &Recorder,
    metrics: &mut Vec<(&'static str, f64)>,
    notes: &mut Vec<(String, f64, &'static str)>,
) {
    let plain = quantile(&mut rec.floor_ns.clone(), 0.5) as f64;
    let traced = quantile(&mut rec.traced_floor_ns.clone(), 0.5) as f64;
    metrics.push((
        "bench.trace_overhead_pct",
        if plain > 0.0 {
            (traced / plain - 1.0) * 100.0
        } else {
            0.0
        },
    ));
    let layers = rec.tracer.layers();
    let op_total = layers.get("op").map_or(0, |l| l.total_ns) as f64;
    let op_self = layers.get("op").map_or(0, |l| l.self_ns) as f64;
    metrics.push(("bench.self_host_share", ratio(op_self, op_total)));
    for (name, layer) in layers {
        if !name.starts_with("probe") {
            notes.push((
                format!("trace.self_share.{name}"),
                ratio(layer.self_ns as f64, op_total),
                "ratio",
            ));
        }
    }
    notes.push((
        "trace.spans_kept".into(),
        rec.tracer.spans().len() as f64,
        "count",
    ));
    notes.push((
        "trace.spans_dropped".into(),
        rec.tracer.dropped() as f64,
        "count",
    ));
    let traced_ops = layers.get("op").map_or(0, |l| l.samples.len());
    notes.push(("trace.traced_ops".into(), traced_ops as f64, "count"));
}

fn unit_of(name: &str) -> &'static str {
    spec::metric(name).map_or("", |m| m.unit)
}

/// Every metric and note of `r` as `workload metric value unit` lines.
pub fn lines(r: &RunResult) -> String {
    let mut out = String::new();
    for (name, value) in &r.metrics {
        let _ = writeln!(out, "{} {name} {value} {}", r.workload, unit_of(name));
    }
    for (name, value, unit) in &r.notes {
        let _ = writeln!(out, "{} {name} {value} {unit}", r.workload);
    }
    let _ = writeln!(
        out,
        "{} failed_ops_share {} ratio",
        r.workload,
        ratio(r.failed as f64, r.attempted as f64)
    );
    out
}

/// The one-line result object the driver reads.
pub fn result_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, value)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// The `metrics` of a result line, as `(name, value)`.
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let doc = parse_json(line)?;
    let correct = doc.get("correct") == Some(&Json::Bool(true));
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_num);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, metrics))
}

/// One workload's part of a suite run.
pub struct SuiteEntry {
    pub workload: &'static str,
    pub wall_s: f64,
    pub metrics: Vec<(String, f64)>,
}

/// The suite's results file: where and on what it ran, and every metric
/// of every workload.
pub fn suite_json(seed: u64, env: &[(&str, String)], entries: &[SuiteEntry]) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n");
    for (k, v) in env {
        let _ = writeln!(out, "  \"{k}\": \"{}\",", escaped(v));
    }
    out.push_str("  \"workloads\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{\n      \"wall_s\": {},\n      \"metrics\": {{",
            e.workload, e.wall_s
        );
        for (j, (name, value)) in e.metrics.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n        \"{name}\": {value}");
        }
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let _ = write!(out, "\n      }}\n    }}{sep}\n");
    }
    out.push_str("  }\n}\n");
    out
}

fn suite_metrics(doc: &Json, workload: &str) -> Vec<(String, f64)> {
    let metrics = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"));
    match metrics {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// How one metric must agree between two runs of the same commit and
/// seed, and whether `a` and `b` do.
fn agrees(m: &MetricSpec, a: f64, b: f64) -> (String, bool) {
    if m.exact {
        return ("identical".into(), a == b);
    }
    match m.bound {
        Some(bound) => {
            let base = a.abs().max(b.abs());
            let spread = if base == 0.0 {
                0.0
            } else {
                (a - b).abs() / base
            };
            (format!("within {:.0} %", bound * 100.0), spread <= bound)
        }
        None => ("not gated".into(), true),
    }
}

/// Compare two suite files of the same commit and seed: every host and
/// memory end-to-end metric must agree within its own bound and every
/// simulated counter must be identical. Returns the per-metric table
/// and whether all rows passed.
pub fn compare(a_src: &str, b_src: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_json(a_src)?, parse_json(b_src)?);
    if a.get("seed") != b.get("seed") {
        return Err("the two files were run with different seeds".into());
    }
    let mut table = String::new();
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        let (ma, mb) = (suite_metrics(&a, w.name), suite_metrics(&b, w.name));
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
            let find = |set: &[(String, f64)]| set.iter().find(|(n, _)| n == m.name).map(|x| x.1);
            let (Some(va), Some(vb)) = (find(&ma), find(&mb)) else {
                let _ = writeln!(table, "{} {} MISSING", w.name, m.name);
                all_ok = false;
                continue;
            };
            let (rule, ok) = agrees(m, va, vb);
            all_ok &= ok;
            let _ = writeln!(
                table,
                "{} {} {va} {vb} {} [{rule}] {}",
                w.name,
                m.name,
                m.unit,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            workload: "scan_cold",
            correct: true,
            attempted: 9,
            failed: 0,
            metrics: vec![("setup_s", 1.25), ("sim_cycles_per_op", 1234.5)],
            notes: vec![("timed_ops".into(), 9.0, "count")],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(&result());
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics[1], ("sim_cycles_per_op".to_string(), 1234.5));
        assert!(lines(&result()).contains("scan_cold timed_ops 9 count\n"));
    }

    #[test]
    fn compare_gates_host_by_bound_and_sim_exactly() {
        let file = |ops: f64, cycles: f64| {
            let entries: Vec<SuiteEntry> = spec::WORKLOADS
                .iter()
                .map(|w| SuiteEntry {
                    workload: w.name,
                    wall_s: 1.0,
                    metrics: spec::END_TO_END
                        .iter()
                        .chain(spec::PER_LAYER.iter())
                        .map(|m| {
                            let v = match m.name {
                                "host_ops_per_s" => ops,
                                "sim_cycles_per_op" => cycles,
                                _ => 1.0,
                            };
                            (m.name.to_string(), v)
                        })
                        .collect(),
                })
                .collect();
            suite_json(3, &[("rustc", "r \"q\"".into())], &entries)
        };
        let base = file(100.0, 5000.0);
        assert!(
            compare(&base, &file(95.0, 5000.0)).unwrap().1,
            "5 % is inside 10 %"
        );
        assert!(
            !compare(&base, &file(80.0, 5000.0)).unwrap().1,
            "20 % is outside"
        );
        assert!(
            !compare(&base, &file(100.0, 5001.0)).unwrap().1,
            "sim must be exact"
        );
    }
}
