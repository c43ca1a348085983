//! Determinism probe: prints [`irec_bench::determinism::render`] — the fixed simulation
//! scenarios with every registered path, overhead counter and PD result in full.
//!
//! ```text
//! cargo run -p irec_bench --bin determinism --release -- [--churn-rate R] [--churn-seed N] [--churn-kinds K] [--algorithm A] [--aco-seed N] [--aco-budget N] [--ases 12] [--rounds 3] [--seed 5]
//! ```
//!
//! The scenarios are the fixture catalog's builders, whose text `tests/fixture_matrix.rs`
//! checks against `tests/goldens/`. The selection-table counters go to stderr.

use irec_bench::BenchArgs;

fn main() {
    print!(
        "{}",
        irec_bench::determinism::render(&BenchArgs::from_env())
    );
}
