//! Criterion benchmark for the parallel RAC execution engine: wall-clock time of one full
//! RAC phase (4 static RACs × 4 candidate batches) against the engine's worker count.
//!
//! The expected shape: the per-pass wall-clock time drops as workers are added (the 16 work
//! items are independent), flattening once the worker count approaches the item count or the
//! machine's core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use irec_bench::workload::{engine_workload, workload_local_as};
use irec_core::execute_racs;
use irec_types::{IfId, SimTime};
use std::time::Duration;

fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rac_engine_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    let phi = 256usize;
    let local_as = workload_local_as();
    let (racs, db) = engine_workload(phi, 4, 7);
    let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
    let total_candidates = (phi * 4 * racs.len()) as u64;

    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w == 1 || w <= max_workers)
        .collect();

    for workers in worker_counts {
        group.throughput(Throughput::Elements(total_candidates));
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    execute_racs(&racs, &db, &local_as, &egress, SimTime::ZERO, workers)
                        .expect("engine pass succeeds")
                });
            },
        );
    }
    group.finish();
}

/// The machine-speed normalizer for the bench-regression gate: every sweep interleaves
/// one `calibration/mix` measurement with the workload kernels it normalizes.
fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.bench_function("mix", |b| b.iter(irec_bench::regression::calibration_pass));
    group.finish();
}

criterion_group!(engine, bench_engine_scaling, bench_calibration);
criterion_main!(engine);
