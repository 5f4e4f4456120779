//! Command line of the benchmark.
//!
//! ```text
//! fabric-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fabric-benchmark --seed <n> [--seconds <s>] [--out <file>]
//! fabric-benchmark --compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and ends with the
//! one-line result object. The second runs every workload, untraced and
//! traced, each in a fresh child process, prints every metric as
//! `workload metric value unit` and writes them, with the environment
//! they were measured in, to a JSON file. The third checks that two such
//! files of one commit and seed agree.

use fabric_benchmark::report::{self, SuiteEntry};
use fabric_benchmark::{spec, RunConfig, Scale};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::reference(),
        trace_path: Some(format!("{OUT_DIR}/trace_{workload}.json").into()),
    };
    let result = fabric_benchmark::run(workload, &cfg)?;
    print!("{}", report::lines(&result));
    println!("{}", report::result_line(&result));
    Ok(result.correct)
}

/// First line of `cmd`'s output, or `unknown`: the environment record
/// is best effort and never fails a run.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let start = Instant::now();
        let mut metrics = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let (readable, line) = stdout
                .trim_end()
                .rsplit_once('\n')
                .ok_or_else(|| format!("{} --trace {trace} printed no result", w.name))?;
            println!("{readable}");
            let (correct, mut part) = report::parse_result_line(line)?;
            all_correct &= correct && out.status.success();
            metrics.append(&mut part);
        }
        entries.push(SuiteEntry {
            workload: w.name,
            wall_s: start.elapsed().as_secs_f64(),
            metrics,
        });
    }
    let env = [
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("cpu_model", cpu_model()),
        ("rustc", first_line("rustc", &["-V"])),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
        ("run_seconds", args.seconds.to_string()),
    ];
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/results_seed{}.json", args.seed).into());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report::suite_json(args.seed, &env, &entries))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for e in &entries {
        println!("{} wall_s {} s", e.workload, e.wall_s);
    }
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (table, ok) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    println!("{}", if ok { "repeatable" } else { "NOT repeatable" });
    Ok(ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare(a, b),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fabric-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
