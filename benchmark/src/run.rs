//! One benchmark run: passes of one workload for a fixed time, aggregated into the
//! end-to-end and per-layer metrics and checked for correctness.

use crate::host;
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END, PER_LAYER};
use crate::workloads::{median, Layers, Pass, Sizes, TracedPass, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans must cover at least this share of the traced wall, so no layer can hide.
pub const MIN_BUDGET_SHARE: f64 = 0.95;

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Untraced passes completed.
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric, in table order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric, in table order; 0 where not measured in this run.
    pub per_layer: Vec<(&'static str, f64)>,
    /// What each input's passes computed, in input order.
    pub input_digests: Vec<String>,
    /// Why operations failed, and anything else worth a line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.passes > 0
    }

    /// One digest over everything the run computed.
    pub fn digest(&self) -> String {
        crate::digest::digest_of(&self.input_digests)
    }

    /// The result line the run contract asks for: exactly `correct`, `attempted`, `failed`
    /// and `metrics` — the end-to-end metrics of an untraced run, the per-layer metrics of
    /// a traced one.
    pub fn contract_json(&self) -> Json {
        let metrics: BTreeMap<String, Json> = if self.traced {
            self.per_layer
                .iter()
                .map(|(name, value)| {
                    let unit = per_layer(name).map_or("", |metric| metric.unit);
                    (name.to_string(), metric_json(*value, unit))
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .zip(END_TO_END)
                .map(|((name, value), def)| (name.to_string(), metric_json(*value, def.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything the run knows, for the full-set summary.
    pub fn full_json(&self) -> Json {
        let values = |pairs: &[(&'static str, f64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Num(*value)))
                    .collect(),
            )
        };
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("passes", Json::Num(self.passes as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("end_to_end", values(&self.end_to_end)),
            ("per_layer", values(&self.per_layer)),
            ("output_digest", Json::Str(self.digest())),
            (
                "input_digests",
                Json::Arr(self.input_digests.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} passes {} ops {} failed {} failed_share {}\n",
            self.workload,
            self.seed,
            self.passes,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for ((name, value), def) in self.end_to_end.iter().zip(END_TO_END) {
            out += &format!("  {name:<36} {value:>16.6} {}\n", def.unit);
        }
        for ((name, value), def) in self.per_layer.iter().zip(PER_LAYER) {
            if *value != 0.0 {
                out += &format!(
                    "  {name:<36} {value:>16.4} {:<6} -> {}\n",
                    def.unit, def.moves
                );
            }
        }
        out += &format!("  output_digest {}\n", self.digest());
        for note in &self.notes {
            out += &format!("  note: {note}\n");
        }
        out
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The per-name medians over a set of layer maps.
fn layer_medians<'a>(maps: impl Iterator<Item = &'a Layers> + Clone) -> Layers {
    let names: std::collections::BTreeSet<&'static str> =
        maps.clone().flat_map(|map| map.keys().copied()).collect();
    names
        .into_iter()
        .map(|name| {
            (
                name,
                median(maps.clone().filter_map(|map| map.get(name).copied())),
            )
        })
        .collect()
}

/// Inputs a run draws from its seed. An untraced run cycles through all of them and
/// reports the mean over inputs of the per-input medians, so a run samples the input
/// distribution instead of betting on one draw; a traced run stays on the first.
pub const INPUTS_PER_SEED: u64 = 5;

/// The generator seed of the `input`-th input of `seed`; distinct seeds never share one.
pub fn input_seed(seed: u64, input: u64) -> u64 {
    seed.wrapping_mul(INPUTS_PER_SEED).wrapping_add(input)
}

/// The mean over inputs of the per-input median of the values `of` picks from a pass.
fn mean_of_input_medians(
    passes: &[(u64, Pass)],
    of: impl for<'a> Fn(&'a Pass) -> &'a [f64],
) -> f64 {
    let medians: Vec<f64> = (0..INPUTS_PER_SEED)
        .filter(|input| passes.iter().any(|(i, _)| i == input))
        .map(|input| {
            median(
                passes
                    .iter()
                    .filter(|(i, _)| *i == input)
                    .flat_map(|(_, pass)| of(pass).iter().copied()),
            )
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Runs `workload` for about `seconds`: whole passes, every input at least once, stopping
/// when another pass would overrun. With `traced`, every untraced pass is followed by a
/// traced one over the same input, and the last trace is written to `trace_dir`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
    trace_dir: Option<&Path>,
) -> Report {
    let started = Instant::now();
    let loadavg_start = host::loadavg();
    let cpu = host::CpuShare::start();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let ops = workload.ops(sizes);
    let inputs = if traced { 1 } else { INPUTS_PER_SEED };

    let mut passes: Vec<(u64, Pass)> = Vec::new();
    let mut traces: Vec<TracedPass> = Vec::new();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for index in 0u64.. {
        let iteration = Instant::now();
        let input = index % inputs;
        attempted += ops;
        match workload.pass(input_seed(seed, input), sizes) {
            Ok(pass) => {
                failed += pass.failed;
                passes.push((input, pass));
            }
            Err(error) => {
                failed += ops;
                notes.push(format!("pass failed: {error}"));
            }
        }
        if traced {
            attempted += ops;
            match workload.traced_pass(input_seed(seed, input), sizes) {
                Ok(trace) => {
                    failed += trace.failed;
                    traces.push(trace);
                }
                Err(error) => {
                    failed += ops;
                    notes.push(format!("traced pass failed: {error}"));
                }
            }
        }
        if index + 1 >= inputs && started.elapsed() + iteration.elapsed() > budget {
            break;
        }
    }
    let cpu_share = cpu.share();

    // Equal inputs must give equal outputs: across passes, and between the system's own
    // driver and the bench-owned traced one. Any disagreement voids the whole run.
    let mut input_digests = Vec::new();
    for input in 0..inputs {
        let mut digests = passes
            .iter()
            .filter(|(i, _)| *i == input)
            .map(|(_, pass)| &pass.digest)
            .chain(traces.iter().map(|trace| &trace.digest));
        let first = digests.next().cloned().unwrap_or_default();
        if digests.any(|other| *other != first) {
            failed = attempted;
            notes.push(format!("output digests of input {input} disagree"));
        }
        input_digests.push(first);
    }
    let budget_share = traces
        .iter()
        .filter_map(|trace| trace.budget_share)
        .min_by(f64::total_cmp);
    if let Some(share) = budget_share.filter(|share| *share < MIN_BUDGET_SHARE) {
        failed = attempted;
        notes.push(format!(
            "spans cover only {share:.3} of the traced wall (need {MIN_BUDGET_SHARE})"
        ));
    }
    if cpu_share < 0.9 {
        notes.push(format!("noisy run: cpu_share {cpu_share:.3} < 0.9"));
    }

    let wall_s = mean_of_input_medians(&passes, |pass| std::slice::from_ref(&pass.wall_s));
    let peak_rss_mb = host::peak_rss_mb();
    let end_to_end = vec![
        ("wall_s", wall_s),
        // Every input has the same size, so set-up is one population: the plain median
        // shrugs off the first pass's cold start.
        (
            "setup_s",
            median(passes.iter().map(|(_, pass)| pass.setup_s)),
        ),
        ("peak_rss_mb", peak_rss_mb),
        (
            "round_steady_ms",
            mean_of_input_medians(&passes, |pass| &pass.steps_ms),
        ),
    ];

    // Per-layer values: what the untraced passes could read, overridden by what the
    // traced passes measured, plus the figures only the whole run knows.
    let mut layers = layer_medians(passes.iter().map(|(_, pass)| &pass.layers));
    layers.extend(layer_medians(traces.iter().map(|trace| &trace.layers)));
    layers.insert("host.cpu_share", cpu_share);
    layers.insert("host.nproc", host::nproc() as f64);
    layers.insert("host.loadavg_start", loadavg_start);
    if let (Some((_, first)), Some(occupancy)) =
        (passes.first(), layers.get("core.beacon_db.occupancy"))
    {
        // Memory is a high-water mark, so only the first pass's rise from its own set-up
        // level is attributable to the beacons it stored.
        let grown_bytes = (peak_rss_mb - first.rss_after_setup_mb).max(0.0) * 1024.0 * 1024.0;
        layers.insert(
            "core.beacon_db.bytes_per_beacon",
            grown_bytes / occupancy.max(1.0),
        );
    }
    if !traces.is_empty() && wall_s > 0.0 {
        let traced_wall_s = median(traces.iter().map(|trace| trace.wall_s));
        layers.insert("trace_overhead_share", (traced_wall_s - wall_s) / wall_s);
    }
    if let Some(share) = budget_share {
        layers.insert("trace_budget_share", share);
    }
    for name in layers.keys() {
        if per_layer(name).is_none() {
            failed = attempted;
            notes.push(format!("layer metric {name} is not in the metric table"));
        }
    }

    if let (Some(dir), Some(trace)) = (trace_dir, traces.last()) {
        let path = dir.join(format!("trace-{}.jsonl", workload.name()));
        match trace.recorder.dump(&path) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                trace.recorder.spans().len(),
                path.display()
            )),
            Err(error) => notes.push(format!("could not write {}: {error}", path.display())),
        }
    }

    Report {
        workload: workload.name(),
        seed,
        traced,
        passes: passes.len(),
        attempted,
        failed,
        end_to_end,
        per_layer: PER_LAYER
            .iter()
            .map(|metric| (metric.name, layers.get(metric.name).copied().unwrap_or(0.0)))
            .collect(),
        input_digests,
        notes,
    }
}
