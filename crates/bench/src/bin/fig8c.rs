//! Regenerates **Fig. 8c** of the paper: the CDF of PCBs sent per interface per beaconing
//! period, for 1SP, 5SP, HD, PD, DON, DOB2000 and DOB300 — plus the PD campaign's
//! per-pair throughput table.
//!
//! ```text
//! cargo run -p irec_bench --bin fig8c --release -- [--ases 60] [--rounds 8] \
//!     [--pd-pairs 10]
//! ```
//!
//! The counts are per egress interface and per 10-simulated-minute period (non-zero cells,
//! matching the paper's log-scale x-axis). Expected shape: the push-based algorithms
//! (1SP/5SP/DON/DOB) have uniform per-interface overhead — 5SP above 1SP, the DOB variants
//! growing with the number of interface groups — while HD and PD send far fewer beacons in
//! most periods, with occasional PD spikes from per-pair pull rounds.
//!
//! The PD campaign runs its `(origin, target)` pairs one after the other, each on its own
//! simulation snapshot; only the wall-clock columns vary from run to run.

use irec_bench::campaign::{print_cdf, print_summary, Fig8Campaign};
use irec_bench::report::{fmt_ms, fmt_pcbs_per_sec};
use irec_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    eprintln!(
        "# Fig. 8c — building topology with {} ASes (seed {}), {} rounds",
        args.ases, args.seed, args.rounds
    );
    let campaign = Fig8Campaign::new(args);
    let data = campaign.run().expect("campaign run succeeds");
    let (ases, links) = data.topology_size;
    println!("# Fig. 8c — PCBs per interface per period");
    println!("# topology: {ases} ASes, {links} inter-domain links");
    println!("# columns: series, PCBs per interface per period, CDF fraction");

    let mut summaries = Vec::new();
    for series in ["1SP", "5SP", "HD", "PD", "DON", "DOB2000", "DOB300"] {
        let cdf = data.overhead_cdf(series);
        print_cdf(series, &cdf);
        summaries.push((series, cdf));
    }
    println!("#\n# summary (PCBs per interface per period):");
    for (series, cdf) in &summaries {
        print!("# ");
        print_summary(series, cdf);
    }

    // The PD campaign's per-pair throughput table. Wall-clock times go to comment rows:
    // they vary run to run, while everything above is deterministic.
    println!("#\n# PD campaign — per-pair throughput:");
    println!(
        "# pair\torigin\ttarget\tpaths\titerations\tempty\tpull_pcbs\telapsed_ms\tpaths_per_s"
    );
    let mut total_paths = 0usize;
    for (index, pair) in data.pd_pairs.iter().enumerate() {
        let paths = pair.result.paths.len();
        total_paths += paths;
        println!(
            "# {index}\t{}\t{}\t{paths}\t{}\t{}\t{}\t{}\t{}",
            pair.origin,
            pair.target,
            pair.result.iterations,
            pair.result.empty_iterations,
            pair.pull_overhead.iter().sum::<u64>(),
            fmt_ms(pair.elapsed),
            fmt_pcbs_per_sec(paths as u64, pair.elapsed),
        );
    }
    // The campaign row: the whole campaign's wall-clock, its pairs run back to back.
    println!(
        "# campaign\t-\t-\t{total_paths}\t-\t-\t-\t{}\t{}",
        fmt_ms(data.pd_campaign_elapsed),
        fmt_pcbs_per_sec(total_paths as u64, data.pd_campaign_elapsed),
    );
}
