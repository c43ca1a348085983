//! Algorithm-family figure: registered-path quality per selection algorithm.
//!
//! ```text
//! cargo run -p irec_bench --bin fig_alg --release -- [--ases 60] [--rounds 8] \
//!     [--algorithm A] [--aco-seed N] [--aco-budget N]
//! ```
//!
//! Deploys one selection algorithm fleet-wide per run — the fixed sweep `5SP` (truncation
//! heuristic), `5YEN` (exact Yen's k-shortest enumeration), `HD` (set-valued disjointness
//! greedy) and a seeded `aco` family (composed from `--aco-seed`/`--aco-budget`), plus
//! `--algorithm` when it names a spec outside the sweep — and prints two CDFs per family
//! over every registered path: end-to-end latency in milliseconds and AS-level hop count.
//! The per-family summary adds the coverage view HD optimizes (distinct inter-domain
//! links traversed by the selected plane) next to path count and selection overhead.
//!
//! Expected shape: `5YEN` matches or tightens `5SP`'s latency CDF (the heuristic truncates
//! the exact enumeration), `HD` trades latency for strictly higher link coverage, and the
//! ant colony lands between the extremes with its spread controlled by the iteration
//! budget.
//!
//! The tables are byte-identical from run to run; the algorithm knobs are *workload* knobs
//! and deliberately move the tables.

use irec_bench::campaign::{print_cdf, print_summary};
use irec_bench::workload::algorithm_pass;
use irec_bench::BenchArgs;
use irec_metrics::Cdf;
use irec_types::{AsId, IfId};
use std::collections::BTreeSet;

fn main() {
    let args = BenchArgs::from_env();
    let aco_spec = format!("aco:{}:{}", args.aco_seed, args.aco_budget);
    let mut specs = vec![
        "5SP".to_string(),
        "5YEN".to_string(),
        "HD".to_string(),
        aco_spec,
    ];
    if let Some(extra) = args.algorithm_spec() {
        if !specs.contains(&extra) {
            specs.push(extra);
        }
    }
    eprintln!(
        "# fig_alg — {} ASes (seed {}), {} rounds per family, families {specs:?}",
        args.ases, args.seed, args.rounds
    );
    println!("# fig_alg — registered-path quality per selection algorithm");
    println!("# columns: series, value, CDF fraction");
    println!("# lat@A: end-to-end path latency (ms) under algorithm A");
    println!("# hops@A: AS-level path hop count under algorithm A");

    let mut summaries = Vec::new();
    for spec in &specs {
        let (paths, _, _, overhead) = algorithm_pass(spec, args.ases, args.rounds, args.seed);
        assert!(!paths.is_empty(), "the {spec} run must register paths");
        let coverage: BTreeSet<(AsId, IfId)> =
            paths.iter().flat_map(|p| p.links.iter().copied()).collect();
        let selection_overhead: u64 = overhead.iter().sum();
        eprintln!(
            "# {spec}: {} paths, {} distinct links covered, overhead {selection_overhead}",
            paths.len(),
            coverage.len()
        );
        let latency = Cdf::new(
            paths
                .iter()
                .map(|p| p.metrics.latency.as_millis_f64())
                .collect(),
        );
        let hops = Cdf::new(paths.iter().map(|p| p.metrics.hops as f64).collect());
        print_cdf(&format!("lat@{spec}"), &latency);
        print_cdf(&format!("hops@{spec}"), &hops);
        summaries.push((
            spec,
            paths.len(),
            coverage.len(),
            selection_overhead,
            latency,
            hops,
        ));
    }

    println!("#\n# summary per family:");
    for (spec, paths, coverage, overhead, latency, hops) in &summaries {
        println!("# {spec}: {paths} paths, {coverage} distinct links covered, overhead {overhead}");
        print!("# ");
        print_summary(&format!("lat@{spec}"), latency);
        print!("# ");
        print_summary(&format!("hops@{spec}"), hops);
    }
}
