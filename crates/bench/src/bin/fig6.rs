//! Regenerates **Fig. 6** of the paper: PCB processing latency of the IREC sub-tasks
//! (sandbox setup, candidate marshalling, algorithm execution) compared to the legacy SCION
//! control service, for candidate-set sizes |Φ| = 1 … 4096.
//!
//! ```text
//! cargo run -p irec-bench --bin fig6 --release -- [--reps 5]
//! ```
//!
//! Output: one tab-separated row per |Φ| with the four latency series in milliseconds plus
//! the IREC/legacy ratio. The paper reports a ~426× ratio at |Φ| = 64 on its hardware; the
//! absolute numbers differ here. Of the paper's shape this binary reproduces the
//! orders-of-magnitude gap at small |Φ|, a setup cost that does not grow (one cached
//! instantiation per algorithm) and execution growing roughly linearly with |Φ|. It does
//! *not* reproduce marshalling growing "much more slowly" than execution: here both are
//! linear in |Φ| — every pass encodes every candidate completely and decodes an owned
//! beacon from the bytes — so marshal : execute is a constant per candidate, not a
//! shrinking share. Measured on the repo benchmark's `rac_kernel` (|Φ| = 64, traced, seed 7,
//! `core.rac.marshal_ns` : `core.rac.execute_ns`): ≈ 6.8 : 1 with the field-by-field codec,
//! ≈ 2.1 : 1 since the codec is one inlinable kernel (PR 19). What is left is the price of
//! crossing a serialization boundary at ≈ 270 bytes and one allocation per candidate;
//! closing it would need a different boundary — candidates shared or borrowed across it —
//! not a faster codec.

use irec_bench::report::{fmt_ms, header, worker_ladder};
use irec_bench::workload::{measure_delivery_point, measure_engine_point, measure_phi};
use irec_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    let sizes: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

    println!("# Fig. 6 — PCB processing latency (ms) vs candidate set size |Phi|");
    println!("# repetitions per point: {}", args.reps);
    header(&[
        "phi",
        "wasm_setup_ms",
        "marshal_ms",
        "execution_ms",
        "irec_total_ms",
        "legacy_ms",
        "irec_over_legacy",
    ]);
    for phi in sizes {
        let m = measure_phi(phi, args.reps, args.seed);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}",
            phi,
            fmt_ms(m.setup),
            fmt_ms(m.marshal),
            fmt_ms(m.execute),
            fmt_ms(m.irec_total()),
            fmt_ms(m.legacy),
            m.ratio()
        );
    }

    // Second table (`--parallelism N`): the same setup/marshal/execute breakdown measured
    // through the parallel RAC execution engine against worker count. CPU columns stay
    // roughly constant (same work) while wall-clock drops as workers are added.
    let engine_phi = 256usize;
    let worker_counts = worker_ladder(args.parallelism);
    println!();
    println!(
        "# Engine scaling — RAC phase breakdown vs worker count (|Phi|={engine_phi}, 4 RACs x 4 batches)"
    );
    header(&[
        "workers",
        "wasm_setup_ms",
        "marshal_ms",
        "execution_ms",
        "cpu_total_ms",
        "wall_ms",
        "speedup",
    ]);
    // `worker_counts` always starts with 1; that first row doubles as the speedup baseline
    // (so the workers=1 row prints speedup 1.00 by construction and the point is not
    // measured twice).
    let mut base_wall = None;
    for workers in worker_counts {
        let (timing, wall) = measure_engine_point(
            engine_phi,
            workers,
            args.reps,
            args.seed,
            args.ingress_shards,
        );
        let base = *base_wall.get_or_insert(wall);
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.2}",
            workers,
            fmt_ms(timing.setup),
            fmt_ms(timing.marshal),
            fmt_ms(timing.execute),
            fmt_ms(timing.total()),
            fmt_ms(wall),
            speedup
        );
    }

    // Third table (`--delivery-parallelism N`): end-to-end simulation wall-clock against
    // the delivery plane's verify-stage worker count. The delivery counters are identical
    // for every row (the plane's determinism guarantee); only the wall-clock moves.
    let delivery_counts = worker_ladder(args.delivery_parallelism);
    println!();
    println!(
        "# Delivery-plane scaling — simulation wall-clock vs verify workers ({} ASes, {} rounds)",
        args.ases, args.rounds
    );
    header(&[
        "workers",
        "delivered",
        "rejected",
        "dropped_no_node",
        "wall_ms",
        "speedup",
    ]);
    let mut delivery_base = None;
    for workers in delivery_counts {
        let (stats, wall) = measure_delivery_point(
            args.ases,
            args.rounds,
            workers,
            args.ingress_shards,
            args.seed,
        );
        let base = *delivery_base.get_or_insert(wall);
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.2}",
            workers,
            stats.delivered,
            stats.rejected,
            stats.dropped_no_node,
            fmt_ms(wall),
            speedup
        );
    }
}
