//! Criterion benchmark for the parallel message-delivery plane: wall-clock time of a full
//! multi-round simulation (generated topology, 5SP deployment) against the delivery plane's
//! verify-stage worker count.
//!
//! The expected shape mirrors `rac_engine_scaling`: per-run wall-clock drops as verify
//! workers are added (per-destination inboxes verify independently), flattening once the
//! worker count approaches the inbox count or the machine's core count. The delivery
//! counters are byte-identical for every worker count — only the wall-clock moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use irec_bench::workload::{delivery_workload, measure_delivery_point};
use std::time::Duration;

const ASES: usize = 24;
const ROUNDS: usize = 3;
const SEED: u64 = 7;

fn bench_delivery_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // One throwaway run pins the message volume the throughput figure is based on.
    let (stats, _) = measure_delivery_point(ASES, ROUNDS, 1, SEED);
    let total_messages = stats.delivered + stats.rejected + stats.dropped_no_node;

    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w == 1 || w <= max_workers)
        .collect();

    for workers in worker_counts {
        group.throughput(Throughput::Elements(total_messages));
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // The simulation is stateful, so each pass builds and runs a fresh one;
                    // the build cost is identical across rows and cancels in comparisons.
                    let mut sim = delivery_workload(ASES, workers, SEED);
                    sim.run_rounds(ROUNDS).expect("benchmark rounds succeed");
                    sim.delivered_messages()
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

criterion_group!(delivery, bench_delivery_scaling, bench_calibration);
criterion_main!(delivery);
