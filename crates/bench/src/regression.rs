//! The CI bench-regression harness: compares a quick criterion run against a checked-in
//! baseline and fails on kernel regressions.
//!
//! ## How it works
//!
//! 1. CI runs the criterion benches (`rac_engine_scaling`, `delivery_scaling`,
//!    `pd_campaign_scaling`, `pd_snapshot_cost`) with `IREC_CRITERION_QUICK=1` and
//!    `IREC_CRITERION_JSON=<path>`; the vendored criterion shim appends one JSON line per
//!    benchmark (`{"bench":"group/id","mean_ns":…,"iters":…}`). Every suite also registers
//!    the **calibration kernel** ([`calibration_pass`]) as the `calibration/mix` bench, so
//!    each sweep interleaves a calibration measurement with the workload kernels it
//!    normalizes — same scheduler pressure, same cache state, same moment in time.
//! 2. The `bench_regression` binary reads those lines, takes the best `calibration/mix`
//!    measurement ([`calibration_from_samples`]; it falls back to an in-process
//!    [`measure_calibration_ns`] for input files recorded without the calibration bench),
//!    and normalizes every workload mean into a machine-speed-independent *score* =
//!    `mean_ns / calibration_ns`. The checked-in baseline stores scores, not raw
//!    nanoseconds, so a baseline recorded on one box is comparable on another. The
//!    calibration kernel deliberately mirrors the workloads' operation mix — allocator
//!    traffic, ordered-map churn and mutex hand-offs, not pure ALU — so machine-to-machine
//!    differences in memory and lock performance cancel out of the scores instead of
//!    showing up as phantom regressions.
//! 3. A kernel regresses when its score exceeds the baseline score by more than the
//!    threshold (25 % by default). The binary writes a `BENCH_ci.json` summary artifact
//!    and exits non-zero on any regression.
//!
//! Refreshing the baseline after an intentional perf change is one line (from a fresh
//! `bench-raw.jsonl` produced by step 1):
//!
//! ```text
//! cargo run --release -p irec_bench --bin bench_regression -- --input bench-raw.jsonl --write-baseline crates/bench/baselines/bench_baseline.json
//! ```
//!
//! Everything here is dependency-free: the JSON written and read is the flat format shown
//! above, parsed with a purpose-built reader (the build environment has no `serde_json`).

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Instant;

/// The bench id under which every suite registers the calibration kernel. Rows with this
/// id are the run's machine-speed normalizer — they are excluded from scoring and from
/// baselines.
pub const CALIBRATION_BENCH: &str = "calibration/mix";

/// One benchmark measurement as emitted by the criterion shim.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSample {
    /// `group/id` identifier, e.g. `rac_engine_scaling/4`.
    pub bench: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Number of timed iterations behind the mean.
    pub iters: u64,
}

/// The checked-in baseline: the calibration measurement it was recorded under and the
/// normalized score of every kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Calibration-kernel nanoseconds on the recording machine (informational; scores are
    /// already normalized by it).
    pub calibration_ns: f64,
    /// Normalized score (`mean_ns / calibration_ns`) per bench id.
    pub scores: BTreeMap<String, f64>,
}

/// Outcome of one kernel's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the threshold of the baseline.
    Ok,
    /// Slower than baseline by more than the threshold.
    Regressed,
    /// Not present in the baseline (new kernel or parameter point).
    New,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::New => "new",
        }
    }
}

/// One row of the comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Bench id.
    pub bench: String,
    /// Measured mean nanoseconds.
    pub mean_ns: f64,
    /// Normalized score of this run.
    pub score: f64,
    /// Baseline score, when the baseline knows this kernel.
    pub baseline_score: Option<f64>,
    /// `score / baseline_score`, when comparable.
    pub ratio: Option<f64>,
    /// Verdict.
    pub status: Status,
}

/// The full comparison report (serialized into `BENCH_ci.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Calibration nanoseconds measured for this run.
    pub calibration_ns: f64,
    /// Regression threshold (fractional, e.g. `0.25`).
    pub threshold: f64,
    /// Per-kernel rows, in bench-id order.
    pub rows: Vec<ReportRow>,
    /// Baseline kernels absent from this run (e.g. parameter points the CI machine's core
    /// count filtered out) — reported, never failed on.
    pub missing: Vec<String>,
}

impl Report {
    /// Whether any kernel regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.status == Status::Regressed)
    }

    /// Serializes the report as the `BENCH_ci.json` artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"calibration_ns\": {:.1},\n  \"threshold\": {},\n  \"regressed\": {},\n",
            self.calibration_ns,
            self.threshold,
            self.regressed()
        ));
        out.push_str("  \"results\": [\n");
        for (index, row) in self.rows.iter().enumerate() {
            let baseline = row
                .baseline_score
                .map(|s| format!("{s:.6}"))
                .unwrap_or_else(|| "null".to_string());
            let ratio = row
                .ratio
                .map(|r| format!("{r:.4}"))
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "    {{\"bench\": \"{}\", \"mean_ns\": {:.1}, \"score\": {:.6}, \
                 \"baseline_score\": {baseline}, \"ratio\": {ratio}, \"status\": \"{}\"}}{}\n",
                json_escape(&row.bench),
                row.mean_ns,
                row.score,
                row.status.as_str(),
                if index + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"missing\": [");
        for (index, bench) in self.missing.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(bench)));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Parses the criterion shim's JSON-lines output. Unparseable lines are skipped (the file
/// may interleave with other build output in pathological setups). Repeated records for
/// the same bench id — CI runs every suite several times into one file — reduce to the
/// **minimum** mean (best-of-N): quick-mode means are noisy upwards (scheduler
/// preemption, cache interference from the previous suite), never downwards, so the
/// minimum is the robust estimate of the kernel's true cost on this machine.
pub fn parse_samples(jsonl: &str) -> Vec<BenchSample> {
    let mut by_bench: BTreeMap<String, BenchSample> = BTreeMap::new();
    for line in jsonl.lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let (Some(bench), Some(mean_ns)) = (
            extract_string(line, "bench"),
            extract_number(line, "mean_ns"),
        ) else {
            continue;
        };
        let iters = extract_number(line, "iters").unwrap_or(0.0) as u64;
        let sample = BenchSample {
            bench: bench.clone(),
            mean_ns,
            iters,
        };
        by_bench
            .entry(bench)
            .and_modify(|best| {
                if mean_ns < best.mean_ns {
                    *best = sample.clone();
                }
            })
            .or_insert(sample);
    }
    by_bench.into_values().collect()
}

/// Serializes a baseline into the checked-in JSON format.
pub fn format_baseline(baseline: &Baseline) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"calibration_ns\": {:.1},\n  \"benches\": {{\n",
        baseline.calibration_ns
    ));
    for (index, (bench, score)) in baseline.scores.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.6}{}\n",
            json_escape(bench),
            score,
            if index + 1 < baseline.scores.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Parses the checked-in baseline format produced by [`format_baseline`].
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    let calibration_ns = extract_number(json, "calibration_ns")
        .ok_or_else(|| "baseline is missing \"calibration_ns\"".to_string())?;
    let benches_start = json
        .find("\"benches\"")
        .ok_or_else(|| "baseline is missing \"benches\"".to_string())?;
    let object_start = json[benches_start..]
        .find('{')
        .map(|offset| benches_start + offset)
        .ok_or_else(|| "baseline \"benches\" is not an object".to_string())?;
    let object_end = json[object_start..]
        .find('}')
        .map(|offset| object_start + offset)
        .ok_or_else(|| "baseline \"benches\" object is unterminated".to_string())?;
    let mut scores = BTreeMap::new();
    for entry in json[object_start + 1..object_end].split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .rsplit_once(':')
            .ok_or_else(|| format!("malformed baseline entry: {entry}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("malformed baseline score in: {entry}"))?;
        scores.insert(key, value);
    }
    Ok(Baseline {
        calibration_ns,
        scores,
    })
}

/// Builds a baseline from a run's samples and its calibration measurement. Calibration
/// rows ([`CALIBRATION_BENCH`]) are the normalizer, not a kernel — they never enter the
/// baseline.
pub fn baseline_from_samples(samples: &[BenchSample], calibration_ns: f64) -> Baseline {
    Baseline {
        calibration_ns,
        scores: samples
            .iter()
            .filter(|s| s.bench != CALIBRATION_BENCH)
            .map(|s| (s.bench.clone(), s.mean_ns / calibration_ns))
            .collect(),
    }
}

/// Compares a run against the baseline: a kernel regresses when its normalized score
/// exceeds the baseline score by more than `threshold` (fractional). Calibration rows
/// ([`CALIBRATION_BENCH`]) are never scored — they are the unit scores are expressed in.
pub fn compare(
    samples: &[BenchSample],
    baseline: &Baseline,
    calibration_ns: f64,
    threshold: f64,
) -> Report {
    let mut rows: Vec<ReportRow> = samples
        .iter()
        .filter(|s| s.bench != CALIBRATION_BENCH)
        .map(|sample| {
            let score = sample.mean_ns / calibration_ns;
            match baseline.scores.get(&sample.bench) {
                Some(&baseline_score) => {
                    let ratio = score / baseline_score;
                    ReportRow {
                        bench: sample.bench.clone(),
                        mean_ns: sample.mean_ns,
                        score,
                        baseline_score: Some(baseline_score),
                        ratio: Some(ratio),
                        status: if ratio > 1.0 + threshold {
                            Status::Regressed
                        } else {
                            Status::Ok
                        },
                    }
                }
                None => ReportRow {
                    bench: sample.bench.clone(),
                    mean_ns: sample.mean_ns,
                    score,
                    baseline_score: None,
                    ratio: None,
                    status: Status::New,
                },
            }
        })
        .collect();
    rows.sort_by(|a, b| a.bench.cmp(&b.bench));
    let measured: std::collections::BTreeSet<&str> =
        samples.iter().map(|s| s.bench.as_str()).collect();
    let missing = baseline
        .scores
        .keys()
        .filter(|k| !measured.contains(k.as_str()))
        .cloned()
        .collect();
    Report {
        calibration_ns,
        threshold,
        rows,
        missing,
    }
}

/// The best calibration measurement embedded in a run's samples: the minimum
/// [`CALIBRATION_BENCH`] mean across however many interleaved sweeps the input holds.
/// `None` when the run carried no calibration rows (pre-refinement input files).
pub fn calibration_from_samples(samples: &[BenchSample]) -> Option<f64> {
    samples
        .iter()
        .filter(|s| s.bench == CALIBRATION_BENCH && s.mean_ns > 0.0)
        .map(|s| s.mean_ns)
        .fold(None, |best: Option<f64>, mean| {
            Some(best.map_or(mean, |b| b.min(mean)))
        })
}

/// One pass of the calibration kernel: a fixed, deterministic workload whose operation mix
/// mirrors the benched kernels — `BTreeMap` entry/push churn over 512 keys (ordered-map
/// walks plus allocator traffic from the growing/drained buckets), a mutex hand-off every
/// 7th operation (the delivery plane's lock cadence), and splitmix64
/// mixing between them. Returns the accumulated checksum so callers (and `black_box`) keep
/// the work observable.
///
/// This is a **deliberate private workload**, not a reuse of any core-crate code path:
/// every checked-in baseline score is expressed in units of this exact pass, so the kernel
/// must never change without refreshing `bench_baseline.json` in the same commit.
pub fn calibration_pass() -> u64 {
    const OPS: u64 = 1 << 16;
    const KEYS: u64 = 512;
    const BUCKET_DRAIN_LEN: usize = 32;
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let shared = Mutex::new(0u64);
    let mut acc = 0u64;
    for i in 0..OPS {
        let mixed = calibration_mix(i ^ acc);
        let bucket = map.entry(mixed % KEYS).or_default();
        bucket.push(mixed);
        if bucket.len() >= BUCKET_DRAIN_LEN {
            acc = acc.wrapping_add(bucket.drain(..).fold(0u64, u64::wrapping_add));
        }
        if i % 7 == 0 {
            let mut guard = shared.lock();
            *guard = guard.wrapping_add(mixed);
            acc ^= *guard;
        }
    }
    for bucket in map.values() {
        acc = acc.wrapping_add(bucket.iter().fold(0u64, |sum, &v| sum.wrapping_add(v)));
    }
    let locked = *shared.lock();
    acc.wrapping_add(locked)
}

/// Measures the calibration kernel in-process: best (minimum) of three
/// [`calibration_pass`] runs so scheduler noise biases towards the machine's true speed.
/// The gate prefers the interleaved `calibration/mix` rows from the criterion run itself
/// ([`calibration_from_samples`]); this is the fallback for inputs recorded without them.
pub fn measure_calibration_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(calibration_pass());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// The splitmix64 finalizer mixing the calibration kernel's key stream: fixed,
/// platform-independent integer work between the allocator/lock operations.
const fn calibration_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Extracts a `"key": "string"` field from a flat JSON object.
fn extract_string(json: &str, key: &str) -> Option<String> {
    let value = field_value(json, key)?;
    let value = value.trim();
    if !value.starts_with('"') {
        return None;
    }
    let inner = &value[1..];
    let end = inner.find('"')?;
    Some(inner[..end].to_string())
}

/// Extracts a `"key": number` field from a flat JSON object.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let value = field_value(json, key)?;
    let numeric: String = value
        .trim()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    numeric.parse().ok()
}

/// The raw text following `"key":` (up to the end of the input; callers trim to the value
/// themselves).
fn field_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let key_start = json.find(&needle)?;
    let rest = &json[key_start + needle.len()..];
    let colon = rest.find(':')?;
    Some(&rest[colon + 1..])
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bench: &str, mean_ns: f64) -> BenchSample {
        BenchSample {
            bench: bench.to_string(),
            mean_ns,
            iters: 10,
        }
    }

    #[test]
    fn parses_shim_json_lines_keeping_the_best_record_per_bench() {
        let jsonl = "\
noise that is not json\n\
{\"bench\":\"rac_engine_scaling/1\",\"mean_ns\":1234.5,\"iters\":42}\n\
{\"bench\":\"delivery_scaling/4\",\"mean_ns\":99.0,\"iters\":7}\n\
{\"bench\":\"rac_engine_scaling/1\",\"mean_ns\":1000.0,\"iters\":50}\n\
{\"bench\":\"rac_engine_scaling/1\",\"mean_ns\":1100.0,\"iters\":48}\n";
        let samples = parse_samples(jsonl);
        assert_eq!(samples.len(), 2);
        // Best-of-N: the minimum mean wins, regardless of record order.
        let engine = samples
            .iter()
            .find(|s| s.bench == "rac_engine_scaling/1")
            .unwrap();
        assert_eq!(engine.mean_ns, 1000.0);
        assert_eq!(engine.iters, 50);
    }

    #[test]
    fn baseline_roundtrips_through_its_own_format() {
        let baseline =
            baseline_from_samples(&[sample("a/1", 500.0), sample("b/2", 2_000.0)], 1_000.0);
        assert_eq!(baseline.scores["a/1"], 0.5);
        let parsed = parse_baseline(&format_baseline(&baseline)).unwrap();
        assert_eq!(parsed.calibration_ns, baseline.calibration_ns);
        assert_eq!(parsed.scores.len(), 2);
        assert!((parsed.scores["a/1"] - 0.5).abs() < 1e-9);
        assert!((parsed.scores["b/2"] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parse_baseline_rejects_garbage() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"calibration_ns\": 1.0}").is_err());
        assert!(parse_baseline("{\"calibration_ns\": 1.0, \"benches\": {\"a\": x}}").is_err());
    }

    #[test]
    fn comparison_flags_regressions_over_threshold_only() {
        let baseline = baseline_from_samples(
            &[
                sample("a/1", 1_000.0),
                sample("b/1", 1_000.0),
                sample("gone/1", 1_000.0),
            ],
            1_000.0,
        );
        // Same machine speed (calibration 1000): a/1 is 20% slower (ok at 25%), b/1 is
        // 30% slower (regressed), c/1 is new.
        let run = [
            sample("a/1", 1_200.0),
            sample("b/1", 1_300.0),
            sample("c/1", 50.0),
        ];
        let report = compare(&run, &baseline, 1_000.0, 0.25);
        assert!(report.regressed());
        let status: BTreeMap<&str, Status> = report
            .rows
            .iter()
            .map(|r| (r.bench.as_str(), r.status))
            .collect();
        assert_eq!(status["a/1"], Status::Ok);
        assert_eq!(status["b/1"], Status::Regressed);
        assert_eq!(status["c/1"], Status::New);
        assert_eq!(report.missing, vec!["gone/1".to_string()]);
        // The artifact serializes without panicking and mentions the verdict.
        let json = report.to_json();
        assert!(json.contains("\"regressed\": true"));
        assert!(json.contains("\"status\": \"regressed\""));
        assert!(json.contains("\"missing\": [\"gone/1\"]"));
    }

    #[test]
    fn normalization_cancels_machine_speed() {
        let baseline = baseline_from_samples(&[sample("a/1", 1_000.0)], 1_000.0);
        // A machine 3x slower: calibration and the kernel both take 3x as long — the
        // score matches the baseline exactly, no false regression.
        let run = [sample("a/1", 3_000.0)];
        let report = compare(&run, &baseline, 3_000.0, 0.25);
        assert!(!report.regressed());
        assert!((report.rows[0].ratio.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_is_positive_and_repeatable_within_bounds() {
        let a = measure_calibration_ns();
        assert!(a > 0.0);
        // A second measurement lands within an order of magnitude (very loose: CI boxes
        // are noisy; the min-of-3 keeps this stable in practice).
        let b = measure_calibration_ns();
        assert!(a / b < 10.0 && b / a < 10.0);
    }

    #[test]
    fn calibration_pass_is_deterministic() {
        // The checksum pins the exact operation sequence: any change to the kernel (key
        // count, drain length, lock cadence) changes the unit every baseline score is
        // expressed in and must come with a baseline refresh.
        assert_eq!(calibration_pass(), calibration_pass());
    }

    #[test]
    fn calibration_rows_normalize_but_are_never_scored() {
        let run = [
            sample(CALIBRATION_BENCH, 500.0),
            sample("a/1", 1_000.0),
            sample(CALIBRATION_BENCH, 400.0),
        ];
        // The embedded calibration is the best (minimum) interleaved measurement.
        assert_eq!(calibration_from_samples(&run), Some(400.0));
        assert_eq!(calibration_from_samples(&[sample("a/1", 1.0)]), None);
        // Neither baselines nor comparison reports carry a calibration row.
        let baseline = baseline_from_samples(&run, 400.0);
        assert_eq!(baseline.scores.len(), 1);
        assert!((baseline.scores["a/1"] - 2.5).abs() < 1e-9);
        let report = compare(&run, &baseline, 400.0, 0.25);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].bench, "a/1");
        assert!(!report.regressed());
        assert!(report.missing.is_empty());
    }
}
