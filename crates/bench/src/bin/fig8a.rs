//! Regenerates **Fig. 8a** of the paper: the CDF, over PoP pairs, of the minimum propagation
//! delay achieved by 5SP, DON, DOB2000 and DOB300, relative to the 1SP baseline.
//!
//! ```text
//! cargo run -p irec_bench --bin fig8a --release -- [--ases 60] [--rounds 8] [--seed 7]
//! ```
//!
//! Use `--ases 500` for the paper-scale topology. PoP pairs for which 1SP finds a path but
//! the series does not are reported with the sentinel ratio 1.5 (the paper's
//! "greater-than-one tails"). Expected shape: DOB300 < DOB2000 < DON < 5SP ≤ 1SP for most
//! PoP pairs, with DOB300 having the fewest missing pairs.

use irec_bench::campaign::{print_cdf, print_summary, Fig8Campaign};
use irec_bench::BenchArgs;

/// Sentinel relative delay for PoP pairs a series cannot connect (the >1 tail of the paper).
const MISSING_RATIO: f64 = 1.5;

fn main() {
    let args = BenchArgs::from_env();
    eprintln!(
        "# Fig. 8a — building topology with {} ASes (seed {}), {} beaconing rounds",
        args.ases, args.seed, args.rounds
    );
    let campaign = Fig8Campaign::new(args);
    let data = campaign.run().expect("campaign run succeeds");
    let (ases, links) = data.topology_size;
    println!("# Fig. 8a — latency between PoPs relative to 1SP");
    println!("# topology: {ases} ASes, {links} inter-domain links");
    println!("# columns: series, relative delay, CDF fraction");

    let mut summaries = Vec::new();
    for series in ["5SP", "DON", "DOB2000", "DOB300"] {
        let cdf = data.relative_delay_cdf(campaign.topology(), series, MISSING_RATIO);
        print_cdf(series, &cdf);
        summaries.push((series, cdf));
    }
    println!("#\n# summary (relative delay, lower is better):");
    for (series, cdf) in &summaries {
        print!("# ");
        print_summary(series, cdf);
    }
}
