//! Shared harness utilities for the figure-regeneration binaries.

pub mod harness;

pub use harness::{
    bench_artifact_json, cli_args, emit_bench_json, results_dir, write_artifact, write_bench_json,
};

use fabric_types::Value;
use query::{AccessPath, Engine, QueryOutput};
use std::fmt::Write as _;

/// The three access paths, in the order every figure reports them.
pub const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// One figure point: `sql` forced onto `path` in a fresh session, from
/// flushed caches and an empty operator cache, so nothing of an earlier
/// point is reused.
pub fn run_cold(engine: &mut Engine, sql: &str, path: AccessPath) -> QueryOutput {
    engine.mem().flush_caches();
    engine.clear_op_cache();
    let out = engine.session().run_on(sql, path);
    out.unwrap_or_else(|e| panic!("`{sql}` on {path}: {e}"))
}

/// [`run_cold`] on ROW, COL and RM in turn. Asserts that the three answers
/// are identical and returns the three simulated times in nanoseconds.
pub fn run_paths_cold(engine: &mut Engine, sql: &str) -> [f64; 3] {
    let mut first: Option<Vec<Vec<Value>>> = None;
    PATHS.map(|path| {
        let out = run_cold(engine, sql, path);
        let ns = out.ns;
        match &first {
            None => first = Some(out.rows),
            Some(rows) => assert_eq!(&out.rows, rows, "{path} disagrees with ROW on `{sql}`"),
        }
        ns
    })
}

/// Simple command-line flag extraction: `--name value`.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `--name value` parsed as usize, with default.
pub fn arg_usize(args: &[String], name: &str, default: usize) -> usize {
    arg_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--name value` parsed as f64, with default.
pub fn arg_f64(args: &[String], name: &str, default: f64) -> f64 {
    arg_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Render a table of rows with a header, aligned for terminal reading.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in header.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse() {
        let args: Vec<String> = ["--rows", "500", "--frac", "0.25"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--rows", 1), 500);
        assert_eq!(arg_f64(&args, "--frac", 0.0), 0.25);
        assert_eq!(arg_usize(&args, "--missing", 7), 7);
    }

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            &["p", "ROW"],
            &[
                vec!["1".into(), "1.00".into()],
                vec!["10".into(), "0.55".into()],
            ],
        );
        assert!(s.contains("ROW"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1500.0), "1.50us");
        assert_eq!(fmt_ns(2.5e6), "2.50ms");
        assert_eq!(fmt_ns(3.2e9), "3.20s");
    }
}
