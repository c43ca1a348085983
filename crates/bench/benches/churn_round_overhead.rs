//! Criterion benchmark for the churn engine: wall-clock time of a full churn campaign —
//! warmup, per-step delta application (withdrawal sweeps included) and the settle loop
//! with its invariant checks — against the churn rate.
//!
//! The expected shape: per-run wall-clock grows with the rate, because more deltas per
//! step mean more withdrawal sweeps and more settle rounds before the registered-path set
//! steadies. The rate-0 row is the overhead floor: a churn engine that draws nothing still
//! pays one settle round per step, so its gap to a plain `run_rounds` loop is the price of
//! the convergence/no-blackhole bookkeeping itself. Outside the timed loop this bench
//! asserts the churn determinism guarantee: the fingerprint at every rate is
//! byte-identical between the barrier and DAG schedulers and across worker/shard counts —
//! and that the rounds kept part of their selections even while the timeline's deltas
//! kept dropping them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use irec_bench::regression::calibration_pass;
use irec_bench::workload::{churn_pass, churn_pass_with_stats};
use irec_sim::{ChurnConfig, RoundScheduler};
use std::time::Duration;

const ASES: usize = 14;
const STEPS: usize = 3;
const SEED: u64 = 9;
const CHURN_SEED: u64 = 2;

fn config_at(rate: f64) -> ChurnConfig {
    ChurnConfig::default()
        .with_rate(rate)
        .with_seed(CHURN_SEED)
        .with_warmup_rounds(3)
}

fn bench_churn_round_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_round_overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    for rate in [0.0, 1.0, 2.0] {
        // Outside the timed loop: the determinism probes. One sequential barrier pass
        // pins the fingerprint; the DAG scheduler and the parallelism/shard planes must
        // reproduce it byte for byte at this rate.
        let (reference, stats) = churn_pass_with_stats(
            ASES,
            STEPS,
            config_at(rate),
            RoundScheduler::Barrier,
            1,
            1,
            1,
            SEED,
        );
        // `reused + extended + recomputed` is what from-scratch rounds would compute.
        assert!(
            stats.reused + stats.extended > 0,
            "churn rounds at rate {rate} recomputed every selection ({stats:?})"
        );
        for (scheduler, width, ingress, path) in [
            (RoundScheduler::Dag, 1, 1, 1),
            (RoundScheduler::Dag, 4, 4, 7),
            (RoundScheduler::Barrier, 4, 7, 4),
        ] {
            let fingerprint = churn_pass(
                ASES,
                STEPS,
                config_at(rate),
                scheduler,
                width,
                ingress,
                path,
                SEED,
            );
            assert_eq!(
                fingerprint, reference,
                "churn fingerprint diverged at rate {rate} under {scheduler} x{width} \
                 ingress={ingress} path={path}"
            );
        }

        group.throughput(Throughput::Elements(STEPS as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            b.iter(|| {
                churn_pass(
                    ASES,
                    STEPS,
                    config_at(rate),
                    RoundScheduler::Barrier,
                    1,
                    1,
                    1,
                    SEED,
                )
            });
        });
    }
    group.finish();
}

/// The machine-speed normalizer for the bench-regression gate: every sweep interleaves
/// one `calibration/mix` measurement with the workload kernels it normalizes.
fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.bench_function("mix", |b| b.iter(calibration_pass));
    group.finish();
}

criterion_group!(
    churn_overhead,
    bench_churn_round_overhead,
    bench_calibration
);
criterion_main!(churn_overhead);
