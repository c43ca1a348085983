//! Criterion benchmark for the per-pair snapshot setup cost of the PD campaign: the
//! copy-on-write path (`Simulation::snapshot_reachable_from`, the campaign default)
//! against the deep-`Clone` reference implementation, on the same warmed fig8-style
//! workload the `pd_campaign_scaling` bench uses.
//!
//! The expected shape: the COW row pays O(nodes) `Arc` clones plus the
//! reachability BFS, the deep row pays a full copy of every node's ingress database and
//! path service — so the COW setup should be at least an order of magnitude cheaper
//! (the `cow_snapshot_setup_is_an_order_of_magnitude_cheaper_than_deep_clone` unit test
//! pins the ≥10× bar; this bench feeds the CI bench-regression gate so the gap cannot
//! silently erode).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use irec_bench::workload::{pd_campaign_pairs, pd_campaign_workload, pd_snapshot_setup};
use std::time::Duration;

const ASES: usize = 14;
const WARM_ROUNDS: usize = 4;
const SEED: u64 = 7;

fn bench_pd_snapshot_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("pd_snapshot_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // The same warmed base every campaign pass snapshots per pair.
    let base = pd_campaign_workload(ASES, WARM_ROUNDS, SEED);
    let origin = pd_campaign_pairs(&base, 1, SEED)[0].0;

    for (id, deep) in [("cow", false), ("deep", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(id), &deep, |b, &deep| {
            b.iter(|| black_box(pd_snapshot_setup(&base, origin, deep)));
        });
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

criterion_group!(pd_snapshot, bench_pd_snapshot_cost, bench_calibration);
criterion_main!(pd_snapshot);
