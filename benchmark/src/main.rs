//! The benchmark's command line.
//!
//! * `--workload W [--seed N] [--seconds S] [--trace 0|1]` runs one workload in this
//!   process and prints its metrics, then — as the last line — the result object of the
//!   run contract.
//! * Without `--workload`, runs the full set: every workload `--repeats` times, each run
//!   in a fresh child process (so `peak_rss_mb` belongs to that run alone), `--traced`
//!   adding one traced run per workload; prints the medians and writes `summary.json`.
//! * `--compare A B` checks two summaries of the same commit against the bounds.

use irec_benchmark::json::Json;
use irec_benchmark::metrics::{END_TO_END, KERNEL_ONLY, KERNEL_ONLY_BOUND, PER_LAYER};
use irec_benchmark::run::run;
use irec_benchmark::workloads::{median, Sizes, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: irec_benchmark [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--repeats R] [--traced] [--out DIR] | --compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: usize,
    traced: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

/// Parses the command line; an unknown flag or an unparsable value is an error, never a
/// silent fallback.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: false,
        repeats: 3,
        traced: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeats" => {
                args.repeats = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two summary files")?),
                    PathBuf::from(value("two summary files")?),
                ))
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(workload) = args.workload {
        single_run(workload, &args);
        Ok(true)
    } else {
        full_set(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Marks the line carrying a run's full report, for the full-set parent to pick up.
const REPORT_PREFIX: &str = "report ";

fn single_run(workload: Workload, args: &Args) {
    let report = run(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizes::full(),
        Some(&args.out),
    );
    print!("{}", report.table());
    println!("{REPORT_PREFIX}{}", report.full_json());
    println!("{}", report.contract_json());
}

/// Runs one workload in a child process and returns its full report.
fn child_run(workload: Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix(REPORT_PREFIX))
        .ok_or_else(|| format!("{} child printed no report", workload.name()))?;
    Json::parse(line).map_err(|e| format!("{} child report: {e}", workload.name()))
}

/// The number at `path` inside `report`, 0 when absent.
fn number(report: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(report, |json, key| json.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn full_set(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for repeat in 0..args.repeats.max(1) {
            eprintln!("{} run {}/{}", workload.name(), repeat + 1, args.repeats);
            runs.push(child_run(workload, args, false)?);
        }
        let traced = if args.traced {
            eprintln!("{} traced run", workload.name());
            Some(child_run(workload, args, true)?)
        } else {
            None
        };

        let ops: f64 = runs.iter().map(|r| number(r, &["ops"])).sum();
        let mut failed: f64 = runs.iter().map(|r| number(r, &["failed"])).sum();
        // Same seed, same inputs: every run must have computed the same outputs, and the
        // traced run (which stays on the first input) the same as they did for that input.
        let digests: std::collections::BTreeSet<&str> = runs
            .iter()
            .filter_map(|r| r.get("output_digest").and_then(Json::as_str))
            .collect();
        let first_input = |r: &Json| {
            r.get("input_digests")
                .and_then(Json::as_arr)
                .and_then(|inputs| inputs.first().cloned())
        };
        let traced_agrees = traced
            .as_ref()
            .is_none_or(|traced| first_input(traced) == first_input(&runs[0]));
        if digests.len() != 1 || !traced_agrees {
            failed = ops;
            eprintln!("{}: output digests disagree: {digests:?}", workload.name());
        }
        if let Some(traced) = &traced {
            failed += number(traced, &["failed"]);
        }
        all_ok &= failed == 0.0;

        println!(
            "{} (seed {}, {} runs): ops {ops} failed_share {} output_digest {}",
            workload.name(),
            args.seed,
            runs.len(),
            failed / ops.max(1.0),
            digests.iter().next().copied().unwrap_or("-"),
        );
        let mut metrics = Vec::new();
        let mut line = |name: &str, unit: &str, section: &str| {
            let values: Vec<f64> = runs.iter().map(|r| number(r, &[section, name])).collect();
            let (low, high) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(*v), h.max(*v)));
            let mid = median(values.iter().copied());
            println!(
                "  {name:<24} {mid:>14.6} {unit:<5} min {low:.6} max {high:.6} n {}",
                values.len()
            );
            metrics.push((name.to_string(), Json::Num(mid)));
        };
        for metric in END_TO_END {
            line(metric.name, metric.unit, "end_to_end");
        }
        if workload == Workload::RacKernel {
            for name in KERNEL_ONLY {
                line(name, "", "per_layer");
            }
        }
        let cpu_share = runs
            .iter()
            .map(|r| number(r, &["per_layer", "host.cpu_share"]))
            .fold(f64::MAX, f64::min);
        println!(
            "  {:<24} {cpu_share:>14.6} share (lowest of the runs)",
            "host.cpu_share"
        );
        if let Some(traced) = &traced {
            for metric in PER_LAYER {
                let value = number(traced, &["per_layer", metric.name]);
                if value != 0.0 {
                    println!(
                        "  {:<36} {value:>16.4} {:<6} -> {}",
                        metric.name, metric.unit, metric.moves
                    );
                }
            }
        }
        summary.push((
            workload.name(),
            Json::obj([
                ("medians", Json::obj(metrics)),
                ("ops", Json::Num(ops)),
                ("failed", Json::Num(failed)),
                ("cpu_share_min", Json::Num(cpu_share)),
                ("runs", Json::Arr(runs)),
                ("traced", traced.unwrap_or(Json::Null)),
            ]),
        ));
    }
    let summary = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(summary)),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("summary.json");
    std::fs::write(&path, format!("{summary}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("summary written to {}", path.display());
    Ok(all_ok)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Two full sets of the same commit must agree within the benchmark's own bounds, have no
/// failed operation and no noisy run.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    for workload in Workload::ALL {
        let side = |summary: &Json| {
            summary
                .get("workloads")
                .and_then(|w| w.get(workload.name()))
                .cloned()
                .ok_or_else(|| format!("summary lacks workload {}", workload.name()))
        };
        let (a, b) = (side(&a)?, side(&b)?);
        println!("{}", workload.name());
        let mut gated: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, m.bound)).collect();
        if workload == Workload::RacKernel {
            gated.extend(KERNEL_ONLY.iter().map(|name| (*name, KERNEL_ONLY_BOUND)));
        }
        for (name, bound) in gated {
            let (first, second) = (
                number(&a, &["medians", name]),
                number(&b, &["medians", name]),
            );
            let difference = (second - first) / first;
            let within = first > 0.0 && difference.abs() <= bound;
            ok &= within;
            println!(
                "  {name:<24} {first:>14.6} {second:>14.6} diff {difference:>+8.4} bound {bound:.2} {}",
                if within { "ok" } else { "OUTSIDE" }
            );
        }
        for (label, summary) in [("first", &a), ("second", &b)] {
            let failed = number(summary, &["failed"]);
            let cpu_share = number(summary, &["cpu_share_min"]);
            if failed != 0.0 {
                ok = false;
                println!("  {label} set: {failed} failed operations");
            }
            if cpu_share < 0.9 {
                ok = false;
                println!("  {label} set: noisy, cpu_share {cpu_share:.3} < 0.9");
            }
        }
    }
    println!("{}", if ok { "A/A agrees" } else { "A/A DISAGREES" });
    Ok(ok)
}
