//! Churn figure: convergence-time and dropped-message CDFs per churn rate.
//!
//! ```text
//! cargo run -p irec_bench --bin fig_churn --release -- [--ases 60] [--rounds 8] \
//!     [--churn-rate R] [--churn-seed N] [--churn-kinds K] \
//!     [--round-scheduler S] [--parallelism N] [--ingress-shards N] [--path-shards N]
//! ```
//!
//! Runs one seeded churn campaign per rate — the fixed sweep `0.5, 1.0, 2.0` deltas per
//! step, plus `--churn-rate` when it names a rate outside the sweep — with `--rounds`
//! churn steps each, and prints two CDFs per rate: the settle rounds the plane needed
//! after each step (convergence time, in beaconing rounds) and the messages lost to churn
//! per step (dropped at delivery time because a link endpoint was down or the addressee
//! had left). Every step is gated by the churn invariant checker (steady registered paths
//! *and* no-blackhole within the convergence budget), so a completed run doubles as an
//! invariant pass over every scenario it shipped.
//!
//! Expected shape: higher rates apply more deltas per step, so both CDFs shift right —
//! more settle rounds per step and more dropped messages — while rate-independent floors
//! stay visible (a catalog swap settles in one round and drops nothing).
//!
//! The tables are byte-identical for every `--round-scheduler`, `--parallelism`,
//! `--ingress-shards` and `--path-shards` value; the churn knobs are *workload* knobs and
//! deliberately move the tables. The per-rate selection counters (reused / extended /
//! recomputed / invalidated) go to stderr.

use irec_bench::campaign::{print_cdf, print_summary};
use irec_bench::workload::churn_pass_with_stats;
use irec_bench::BenchArgs;
use irec_metrics::Cdf;
use irec_sim::ChurnConfig;

fn main() {
    let args = BenchArgs::from_env();
    let mut rates = vec![0.5, 1.0, 2.0];
    if args.churn_rate > 0.0 && !rates.contains(&args.churn_rate) {
        rates.push(args.churn_rate);
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    }
    let width = args.parallelism.max(args.delivery_parallelism);
    eprintln!(
        "# fig_churn — {} ASes (seed {}), {} steps per rate, churn seed {}, kinds {}, \
         rates {rates:?}",
        args.ases, args.seed, args.rounds, args.churn_seed, args.churn_kinds
    );
    println!("# fig_churn — convergence and message loss under churn");
    println!("# columns: series, value, CDF fraction");
    println!("# conv@R: settle rounds per churn step at R deltas/step");
    println!("# drop@R: messages dropped per churn step at R deltas/step");

    let mut summaries = Vec::new();
    for &rate in &rates {
        let churn = ChurnConfig::default()
            .with_rate(rate)
            .with_seed(args.churn_seed)
            .with_kinds(args.churn_kinds);
        let ((steps, _, _, _), inc) = churn_pass_with_stats(
            args.ases,
            args.rounds,
            churn,
            args.round_scheduler,
            width,
            args.ingress_shards,
            args.path_shards,
            args.seed,
        );
        let deltas: usize = steps.iter().map(|s| s.deltas.len()).sum();
        eprintln!(
            "# rate {rate}: {deltas} deltas over {} steps, all invariants held",
            steps.len()
        );
        eprintln!(
            "# rate {rate}: selections reused={} extended={} recomputed={} invalidated={}",
            inc.reused, inc.extended, inc.recomputed, inc.invalidated
        );
        let convergence = Cdf::new(steps.iter().map(|s| s.settle_rounds as f64).collect());
        let dropped = Cdf::new(steps.iter().map(|s| s.dropped_total() as f64).collect());
        print_cdf(&format!("conv@{rate}"), &convergence);
        print_cdf(&format!("drop@{rate}"), &dropped);
        summaries.push((rate, deltas, convergence, dropped));
    }

    println!("#\n# summary per rate:");
    for (rate, deltas, convergence, dropped) in &summaries {
        println!("# rate {rate}: {deltas} deltas applied, invariant checker passed");
        print!("# ");
        print_summary(&format!("conv@{rate}"), convergence);
        print!("# ");
        print_summary(&format!("drop@{rate}"), dropped);
    }
}
