//! Determinism probe: prints [`irec_bench::determinism::render`] — the fixed simulation
//! scenarios with every registered path, overhead counter and PD result in full.
//!
//! ```text
//! cargo run -p irec_bench --bin determinism --release -- [--parallelism N] [--delivery-parallelism N] [--ingress-shards N] [--pd-parallelism N] [--path-shards N] [--churn-rate R] [--churn-seed N] [--churn-kinds K] [--algorithm A] [--aco-seed N] [--aco-budget N] [--ases 12] [--rounds 3] [--seed 5]
//! ```
//!
//! The output is byte-identical for every parallelism and shard value, which
//! the CI determinism job enforces by diffing a sequential run against each knob alone
//! and all of them stacked; the selection-table counters go to stderr.

use irec_bench::BenchArgs;

fn main() {
    print!(
        "{}",
        irec_bench::determinism::render(&BenchArgs::from_env())
    );
}
