//! Internet-scale simulation: the paper's §VIII setup on a synthetic Internet topology.
//!
//! ```text
//! cargo run --release --example internet_scale -- [num_ases] [rounds]
//! ```
//!
//! Generates a tiered, geolocated AS topology (default 60 ASes; the paper uses the 500
//! highest-degree CAIDA ASes), deploys the paper's RAC set in every AS (1SP, 5SP, HD, DO and
//! an on-demand RAC), runs periodic beaconing, and prints connectivity, per-algorithm path
//! statistics, control-plane overhead and what the run cost: wall-clock, the process's peak
//! resident memory and the ingress databases' byte ledger. The last line of output is one
//! JSON object with the figures of the scale table in ROADMAP.md.

use irec_core::NodeConfig;
use irec_metrics::delay::as_pair_delays;
use irec_metrics::Cdf;
use irec_sim::{Simulation, SimulationConfig};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let num_ases: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let config = GeneratorConfig {
        num_ases,
        seed: 7,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    println!(
        "generated topology: {} ASes, {} inter-domain links",
        topology.num_ases(),
        topology.num_links()
    );

    // The paper's per-AS deployment: four static RACs plus one on-demand RAC.
    let mut sim = Simulation::new(topology, SimulationConfig::default(), |_| {
        NodeConfig::paper_simulation(false)
    })
    .expect("simulation setup");

    let start = std::time::Instant::now();
    sim.run_rounds(rounds).expect("beaconing rounds");
    let wall_s = start.elapsed().as_secs_f64();
    let connectivity = sim.connectivity();
    println!(
        "ran {rounds} beaconing rounds in {wall_s:.1} s: {} messages delivered, {} dropped, connectivity {:.1}%",
        sim.delivered_messages(),
        sim.dropped_messages(),
        connectivity * 100.0
    );
    let live_beacons = sim.ingress_occupancy();
    println!(
        "ingress databases hold {live_beacons} live beacons across {} ASes",
        sim.topology().num_ases()
    );

    // Per-algorithm registered-path statistics.
    println!("\nregistered paths per algorithm:");
    for algorithm in ["1SP", "5SP", "HD", "DON"] {
        let paths = sim.registered_paths_by(algorithm);
        if paths.is_empty() {
            println!("  {algorithm:>5}: no paths registered");
            continue;
        }
        let delays = as_pair_delays(&paths);
        let cdf = Cdf::new(delays.values().map(|l| l.as_millis_f64()).collect());
        println!(
            "  {algorithm:>5}: {:>6} paths, {:>5} AS pairs, median best delay {:.1} ms, p90 {:.1} ms",
            paths.len(),
            delays.len(),
            cdf.median().unwrap_or(f64::NAN),
            cdf.quantile(0.9).unwrap_or(f64::NAN),
        );
    }

    // Control-plane overhead (the Fig. 8c quantity).
    let overhead = Cdf::new(
        sim.overhead()
            .nonzero_samples()
            .into_iter()
            .map(|v| v as f64)
            .collect(),
    );
    println!(
        "\ncontrol-plane overhead: {} PCBs total, median {:.0} / p99 {:.0} PCBs per interface per period",
        sim.overhead().total(),
        overhead.median().unwrap_or(0.0),
        overhead.quantile(0.99).unwrap_or(0.0),
    );

    // What the run cost. The peak is the whole process's, read last, so the statistics
    // above are in it — as they are for anyone measuring the process from outside.
    let peak_rss_mb = peak_rss_mb();
    let bytes_per_beacon = peak_rss_mb * 1024.0 * 1024.0 / live_beacons.max(1) as f64;
    let ledger = sim.store_bytes();
    let ledger_bytes_per_beacon = ledger.total() as f64 / ledger.beacons.max(1) as f64;
    println!(
        "\npeak RSS {peak_rss_mb:.0} MB = {bytes_per_beacon:.0} B per live beacon, of which the stored beacons hold {ledger_bytes_per_beacon:.0} B each:\n  {} B of slots, {} B of beacons, {} B of owned entries, {} B in {} shared chains",
        ledger.slot_bytes,
        ledger.beacon_bytes,
        ledger.owned_entry_bytes,
        ledger.shared_chain_bytes,
        ledger.shared_chains
    );
    println!(
        "{{\"ases\":{},\"links\":{},\"rounds\":{rounds},\"wall_s\":{wall_s:.3},\"peak_rss_mb\":{peak_rss_mb:.1},\"live_beacons\":{live_beacons},\"bytes_per_beacon\":{bytes_per_beacon:.1},\"connectivity\":{connectivity:.4},\"messages_delivered\":{},\"ledger_bytes_per_beacon\":{ledger_bytes_per_beacon:.1}}}",
        sim.topology().num_ases(),
        sim.topology().num_links(),
        sim.delivered_messages(),
    );
}

/// Peak resident set size of this process (`VmHWM` of `/proc/self/status`) in MB; 0 where
/// there is no `/proc`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
