//! Criterion benchmark for the algorithm catalog: wall-clock time of a full beaconing
//! run — origination, delivery, per-batch selection and path registration — against the
//! deployed selection algorithm, on one fixed generated topology.
//!
//! The expected shape: the truncation heuristic (`5SP`) is the floor; exact Yen's
//! enumeration (`5YEN`) pays for its loop-free spur scans; `HD`'s set-valued greedy sits
//! between them; and the seeded ant colony (`aco:<seed>:<iters>`) scales with its
//! iteration budget times the ant count, dominating the sweep. Outside the timed loop
//! this bench asserts the catalog determinism guarantee: every family's fingerprint is
//! byte-identical across worker counts — ACO's stochasticity comes from seeded streams,
//! never from execution order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use irec_bench::regression::calibration_pass;
use irec_bench::workload::algorithm_pass;
use std::time::Duration;

const ASES: usize = 12;
const ROUNDS: usize = 3;
const SEED: u64 = 9;

/// One member per family: heuristic truncation, exact enumeration, set-valued greedy,
/// seeded stochastic. The ACO iteration budget is kept small — the kernel measures the
/// family's per-iteration slope, not a production-sized search.
const ALGORITHMS: &[&str] = &["5SP", "5YEN", "HD", "aco:7:4"];

fn bench_alg_catalog_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg_catalog_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    for &algorithm in ALGORITHMS {
        // Outside the timed loop: the determinism probes. One sequential pass pins the
        // fingerprint; the parallel plane must reproduce it byte for byte for this
        // algorithm.
        let reference = algorithm_pass(algorithm, ASES, ROUNDS, 1, SEED);
        assert!(
            !reference.0.is_empty(),
            "the {algorithm} kernel must register paths"
        );
        assert_eq!(
            algorithm_pass(algorithm, ASES, ROUNDS, 4, SEED),
            reference,
            "{algorithm} fingerprint diverged at x4"
        );

        group.throughput(Throughput::Elements(ROUNDS as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(algorithm),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| algorithm_pass(algorithm, ASES, ROUNDS, 1, SEED));
            },
        );
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

criterion_group!(alg_catalog, bench_alg_catalog_scaling, bench_calibration);
criterion_main!(alg_catalog);
