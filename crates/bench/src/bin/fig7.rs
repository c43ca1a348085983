//! Regenerates **Fig. 7** of the paper: PCB processing throughput for an increasing number
//! of parallel RACs, for candidate-set sizes |Φ| ∈ {16, 64, 256, 1024, 4096}.
//!
//! ```text
//! cargo run -p irec_bench --bin fig7 --release -- [--max-racs 16]
//! ```
//!
//! Each RAC runs on its own thread and repeatedly processes the candidate set (the paper:
//! "Once the algorithm has computed the set of optimal PCBs from Φ, the RAC immediately
//! fetches Φ and runs the algorithm again"). The expected shape: throughput grows roughly
//! linearly with the number of RACs and sub-linearly with |Φ| (larger sets amortize the
//! per-batch setup and marshalling overhead, so per-PCB throughput is higher).

use irec_bench::report::{fmt_pcbs_per_sec, header};
use irec_bench::workload::{
    candidate_set, on_demand_rac, rac_processing_latency, tag_candidates, workload_local_as,
};
use irec_bench::BenchArgs;
use std::time::{Duration, Instant};

/// How long each (|Φ|, #RACs) point runs.
const MEASURE_WINDOW: Duration = Duration::from_millis(400);

fn main() {
    let args = BenchArgs::from_env();
    let sizes: [usize; 5] = [16, 64, 256, 1024, 4096];
    // The preset scan covers RAC counts up to `--max-racs` (at least 1).
    let rac_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 32]
        .into_iter()
        .filter(|&n| n <= args.max_racs.max(1))
        .collect();

    println!("# Fig. 7 — PCB processing throughput (PCB/s) vs number of RACs");
    println!("# measure window per point: {MEASURE_WINDOW:?}");
    header(&["racs", "phi", "pcbs_per_second"]);

    for &phi in &sizes {
        for &racs in &rac_counts {
            let throughput = measure_point(phi, racs, args.seed);
            println!("{racs}\t{phi}\t{throughput}");
        }
    }
}

fn measure_point(phi: usize, racs: usize, seed: u64) -> String {
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(racs);
        for worker in 0..racs {
            handles.push(scope.spawn(move || {
                let local_as = workload_local_as();
                let (rac, store) = on_demand_rac();
                let base = candidate_set(phi, seed + worker as u64);
                let tagged = tag_candidates(&base, &store);
                let mut processed: u64 = 0;
                let begin = Instant::now();
                while begin.elapsed() < MEASURE_WINDOW {
                    rac_processing_latency(&rac, &tagged, &local_as)
                        .expect("benchmark processing succeeds");
                    processed += phi as u64;
                }
                processed
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .sum()
    });
    fmt_pcbs_per_sec(total, start.elapsed())
}
