//! The determinism probe's scenarios, rendered to a string: three fixed simulation
//! scenarios — two beaconing scenarios plus a PD campaign — with every registered path,
//! every overhead counter and every per-pair PD result in full. With `--churn-rate > 0` a
//! fourth scenario appends a churn run (per-step deltas plus the final plane state); with
//! `--algorithm` a fifth appends a run where every AS deploys the requested catalog spec
//! (e.g. `5YEN` or a seeded `aco` family).
//!
//! Each scenario is a builder of the fixture catalog ([`crate::fixtures`]). With
//! `--ases 12 --rounds 3 --seed 5` the probe prints the `figure1`, `generated-a12-r3-s5`
//! and `pd-campaign-figure1` goldens; a churn seed or an algorithm spec appends the
//! matching `churn-…` or `algorithm-…` golden where the catalog has one for those
//! arguments. The text is byte-identical from run to run, and `tests/fixture_matrix.rs`
//! compares every fixture's text with its golden, recorded with every PCB verified inline
//! at delivery. The churn and algorithm knobs are *workload* knobs, so runs are compared
//! with runs of the same workload knobs.
//!
//! How-it-ran reporting — the selection-table counters — goes to **stderr**, so it never
//! pollutes the compared text.

use crate::fixtures;
use crate::BenchArgs;
use irec_sim::ChurnConfig;

/// Runs the scenarios `args` select and returns everything they would print.
pub fn render(args: &BenchArgs) -> String {
    let mut out = fixtures::figure1().text;
    out += &fixtures::generated(args.ases, args.seed, args.rounds).text;
    out += &fixtures::pd_campaign_figure1().text;
    // Churn and the algorithm spec are appended after the three fixed scenarios, so
    // enabling them leaves those scenarios' bytes untouched.
    if args.churn_rate > 0.0 {
        let churn = ChurnConfig::default()
            .with_rate(args.churn_rate)
            .with_seed(args.churn_seed)
            .with_kinds(args.churn_kinds);
        out += &fixtures::churn(args.ases, args.seed, churn).text;
    }
    if let Some(spec) = args.algorithm_spec() {
        out += &fixtures::algorithm(args.ases, args.seed, args.rounds, &spec).text;
    }
    out
}
