//! Regenerates **Fig. 8b** of the paper: the CDF, over AS pairs, of tolerable link failures
//! (TLF) for 1SP, 5SP, HD and PD.
//!
//! ```text
//! cargo run -p irec_bench --bin fig8b --release -- [--ases 60] [--rounds 8] [--pd-pairs 10]
//! ```
//!
//! TLF is the minimum number of inter-domain links that must fail to disconnect all
//! registered paths between an AS pair (capped by the 20-path registration budget). Expected
//! shape: PD ≈ maximal for almost all sampled pairs, HD close behind, 5SP far lower, 1SP ≈ 1.

use irec_bench::campaign::{print_cdf, print_summary, Fig8Campaign};
use irec_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    eprintln!(
        "# Fig. 8b — building topology with {} ASes (seed {}), {} rounds, {} PD pairs",
        args.ases, args.seed, args.rounds, args.pd_pairs
    );
    let campaign = Fig8Campaign::new(args);
    let data = campaign.run().expect("campaign run succeeds");
    let (ases, links) = data.topology_size;
    println!("# Fig. 8b — tolerable link failures per AS pair");
    println!("# topology: {ases} ASes, {links} inter-domain links");
    println!("# columns: series, TLF, CDF fraction");

    let mut summaries = Vec::new();
    for series in ["1SP", "5SP", "HD"] {
        let cdf = data.tlf_cdf(series);
        print_cdf(series, &cdf);
        summaries.push((series.to_string(), cdf));
    }
    let pd = data.pd_tlf_cdf();
    print_cdf("PD", &pd);
    summaries.push(("PD".to_string(), pd));

    println!("#\n# summary (TLF, higher is better):");
    for (series, cdf) in &summaries {
        print!("# ");
        print_summary(series, cdf);
    }
}
