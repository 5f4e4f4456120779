//! Tiny-scale smoke of all four workloads: the metric schema, the trace,
//! and the repeatability of simulated counters. Runs in a debug build;
//! nothing here looks at how fast anything is.

use fabric_benchmark::spec::{self, Better, MetricSpec};
use fabric_benchmark::{run, RunConfig, RunResult, Scale};
use fabric_sim::{parse_json, validate_chrome_trace, Json};
use std::path::PathBuf;

fn tiny(workload: &str, trace: bool, trace_file: Option<&str>) -> RunResult {
    let cfg = RunConfig {
        seed: 11,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        trace_path: trace_file.map(|f| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(f)),
    };
    let result = run(workload, &cfg).expect("known workload");
    assert!(result.correct, "{workload}: {} failed", result.failed);
    assert!(result.attempted > 0 && result.failed == 0);
    result
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn the_schema_fits_the_contract() {
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!(spec::END_TO_END.len() <= 16 && spec::PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(spec::END_TO_END.iter().map(|m| m.name));
    names.extend(spec::PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(well_formed_name(name), "bad name `{name}`");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for w in &spec::WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!((1..=16).contains(&m.unit.len()) && m.unit.chars().all(unit_ok));
    }
    for m in &spec::END_TO_END {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
    }
    let setup = spec::metric("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

/// `BENCHMARK.json` states the same tables as `spec`.
#[test]
fn benchmark_json_matches_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let workloads = list("workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(text(j, "name").as_deref(), Some(w.name));
        assert_eq!(text(j, "why").as_deref(), Some(w.why));
    }
    let same = |key: &str, specs: &[MetricSpec]| {
        let listed = list(key);
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (j, m) in listed.iter().zip(specs) {
            assert_eq!(text(j, "name").as_deref(), Some(m.name));
            assert_eq!(text(j, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(text(j, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(Json::as_num), m.bound, "{}", m.name);
        }
    };
    same("end_to_end", &spec::END_TO_END);
    same("per_layer", &spec::PER_LAYER);
    let run_seconds = doc.get("run_seconds").and_then(Json::as_num);
    assert_eq!(run_seconds, Some(f64::from(spec::RUN_SECONDS)));
    assert_eq!(list("paths"), vec![Json::Str("benchmark".into())]);
    assert!(list("command").contains(&Json::Str("benchmark/Cargo.toml".into())));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in &spec::WORKLOADS {
        let (a, b) = (tiny(w.name, false, None), tiny(w.name, false, None));
        let names: Vec<&str> = a.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for (name, value) in &a.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                w.name
            );
        }
        let sim = |r: &RunResult| {
            r.metrics
                .iter()
                .find(|m| m.0 == "sim_cycles_per_op")
                .map(|m| m.1)
        };
        assert_eq!(sim(&a), sim(&b), "{}: simulated cycles must repeat", w.name);
    }
}

#[test]
fn traced_runs_validate_nest_and_repeat() {
    for w in &spec::WORKLOADS {
        let file = format!("trace_{}.json", w.name);
        let (a, b) = (tiny(w.name, true, Some(&file)), tiny(w.name, true, None));

        // Every per-layer metric, by name and in order; simulated
        // counters identical across two runs of one seed.
        let names: Vec<&str> = a.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", w.name);
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert!(va.is_finite(), "{} {name} = {va}", w.name);
            if spec::metric(name).is_some_and(|m| m.exact) {
                assert_eq!(va, vb, "{} {name} must repeat exactly", w.name);
            }
        }

        // The exported trace validates, and since its events are in
        // non-decreasing time with balanced begin/end pairs, every child
        // span lies inside its parent.
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(&file);
        let src = std::fs::read_to_string(&path).expect("trace file");
        let summary = validate_chrome_trace(&src).expect("valid Chrome trace");
        assert!(summary.begins > 0 && summary.begins == summary.ends);
        let doc = parse_json(&src).expect("JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let (mut last_ts, mut depth, mut max_depth) = (0.0, 0i32, 0);
        for e in events {
            let ts = e.get("ts").and_then(Json::as_num).expect("ts");
            assert!(ts >= last_ts, "{}: events out of order", w.name);
            last_ts = ts;
            depth += if e.get("ph").and_then(Json::as_str) == Some("B") {
                1
            } else {
                -1
            };
            assert!(depth >= 0);
            max_depth = max_depth.max(depth);
        }
        assert_eq!(
            (depth, max_depth),
            (0, 2),
            "{}: roots with children",
            w.name
        );
    }
}
