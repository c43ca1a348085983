//! The Fig. 8 simulation campaign: the set of simulation runs needed to regenerate the three
//! large-scale figures of the paper's §VIII-C.

use crate::args::BenchArgs;
use irec_core::{NodeConfig, RacConfig};
use irec_metrics::delay::{pop_pair_delays, relative_to_baseline, PopPairDelays};
use irec_metrics::tlf::tlf_per_as_pair;
use irec_metrics::{Cdf, RegisteredPath};
use irec_sim::{PdCampaign, PdPairResult, Simulation, SimulationConfig};
use irec_topology::pop::{points_of_presence, DEFAULT_POP_RADIUS_KM};
use irec_topology::{
    GeneratorConfig, GroupingConfig, PointOfPresence, Topology, TopologyGenerator,
};
use irec_types::{AsId, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The data produced by the campaign, consumed by the fig8a/fig8b/fig8c binaries.
#[derive(Debug, Default)]
pub struct Fig8Data {
    /// Registered paths per algorithm series (1SP, 5SP, HD, DON, DOB2000, DOB300).
    pub paths_by_series: BTreeMap<String, Vec<RegisteredPath>>,
    /// Full per-pair PD campaign results in pair order (paths, iteration counts, pull
    /// overhead and per-pair wall-clock — the fig8b PD series and the fig8c throughput
    /// table both derive from here).
    pub pd_pairs: Vec<PdPairResult>,
    /// Wall-clock time of the whole PD campaign (warm-up excluded).
    pub pd_campaign_elapsed: std::time::Duration,
    /// Per-interface-per-period overhead per series.
    pub overhead_by_series: BTreeMap<String, Vec<u64>>,
    /// The per-AS points of presence of the campaign topology.
    pub pops: BTreeMap<AsId, Vec<PointOfPresence>>,
    /// Number of ASes / links of the campaign topology.
    pub topology_size: (usize, usize),
}

impl Fig8Data {
    /// The PoP-pair minimum delays of one series.
    pub fn pop_delays(&self, topology: &Topology, series: &str) -> PopPairDelays {
        let paths = self
            .paths_by_series
            .get(series)
            .cloned()
            .unwrap_or_default();
        pop_pair_delays(topology, &self.pops, &paths)
    }

    /// The Fig. 8a CDF of one series: delay relative to the 1SP baseline.
    pub fn relative_delay_cdf(&self, topology: &Topology, series: &str, missing_ratio: f64) -> Cdf {
        let baseline = self.pop_delays(topology, "1SP");
        let series_delays = self.pop_delays(topology, series);
        Cdf::new(relative_to_baseline(
            &series_delays,
            &baseline,
            missing_ratio,
        ))
    }

    /// The Fig. 8b CDF of tolerable link failures for a push-based series.
    pub fn tlf_cdf(&self, series: &str) -> Cdf {
        let paths = self
            .paths_by_series
            .get(series)
            .cloned()
            .unwrap_or_default();
        let tlf = tlf_per_as_pair(&paths);
        Cdf::new(tlf.values().map(|&v| v.min(1_000) as f64).collect())
    }

    /// The discovered PD path sets, one per pair that found anything (the Fig. 8b
    /// samples).
    pub fn pd_paths(&self) -> impl Iterator<Item = &Vec<RegisteredPath>> {
        self.pd_pairs
            .iter()
            .map(|pair| &pair.result.paths)
            .filter(|set| !set.is_empty())
    }

    /// The Fig. 8b CDF for the PD series (per sampled AS pair).
    pub fn pd_tlf_cdf(&self) -> Cdf {
        let samples: Vec<f64> = self
            .pd_paths()
            .map(|set| {
                let links: Vec<Vec<_>> = set.iter().map(|p| p.links.clone()).collect();
                irec_metrics::tlf::min_links_to_disconnect(&links).min(1_000) as f64
            })
            .collect();
        Cdf::new(samples)
    }

    /// The Fig. 8c CDF of one series (PCBs per interface per period, non-zero cells only, as
    /// the paper plots on a log axis).
    pub fn overhead_cdf(&self, series: &str) -> Cdf {
        let samples = self
            .overhead_by_series
            .get(series)
            .cloned()
            .unwrap_or_default();
        Cdf::new(samples.into_iter().map(|v| v as f64).collect())
    }
}

/// The campaign: builds the topology, runs one simulation per series, and the PD workflow on
/// top of an HD + on-demand simulation.
pub struct Fig8Campaign {
    args: BenchArgs,
    topology: Arc<Topology>,
}

impl Fig8Campaign {
    /// Creates the campaign for the given arguments (topology size, rounds, seed, PD pairs).
    pub fn new(args: BenchArgs) -> Self {
        let config = GeneratorConfig {
            num_ases: args.ases,
            seed: args.seed,
            ..Default::default()
        };
        let topology = Arc::new(TopologyGenerator::new(config).generate());
        Fig8Campaign { args, topology }
    }

    /// The campaign topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    fn run_series(
        &self,
        rac: RacConfig,
        grouping: Option<GroupingConfig>,
    ) -> Result<(Vec<RegisteredPath>, Vec<u64>)> {
        let name = rac.name.clone();
        let mut sim = Simulation::new(
            Arc::clone(&self.topology),
            SimulationConfig::default(),
            move |_| NodeConfig::default().with_racs(vec![rac.clone()]),
        )?;
        if let Some(grouping) = grouping {
            sim.set_geographic_interface_groups(grouping)?;
        }
        sim.run_rounds(self.args.rounds)?;
        let paths = sim.registered_paths_by(&name);
        let overhead = sim.overhead().nonzero_samples();
        Ok((paths, overhead))
    }

    /// The `(origin, target)` pairs the PD campaign runs, sampled deterministically from
    /// the seed; the paper runs PD for all AS pairs, which is not laptop-feasible — the
    /// sampled distribution preserves the CDF shape.
    pub fn pd_pairs(&self) -> Vec<(AsId, AsId)> {
        sample_pd_pairs(
            &self.topology.as_ids(),
            self.args.pd_pairs.max(1),
            self.args.seed,
        )
    }

    fn run_pd(&self, data: &mut Fig8Data) -> Result<Vec<u64>> {
        // Warm up one base simulation, as in `run_series`, then run the independent
        // per-pair workflows through the PD campaign — each pair on its own snapshot of
        // the warm base, results in pair order.
        let mut sim = Simulation::new(
            Arc::clone(&self.topology),
            SimulationConfig::default(),
            move |_| {
                NodeConfig::default().with_racs(vec![
                    RacConfig::static_rac("HD", "HD"),
                    RacConfig::on_demand_rac("on-demand"),
                ])
            },
        )?;
        sim.run_rounds(self.args.rounds)?;

        let campaign_start = std::time::Instant::now();
        let results = PdCampaign::new(self.pd_pairs(), 20)
            .with_rounds_per_iteration(3)
            .run(&sim)?;
        data.pd_campaign_elapsed = campaign_start.elapsed();
        // The PD series of Fig. 8c: the pairs' pull-overhead samples, concatenated in
        // pair order (each pair's run owns its snapshot's counters).
        let mut overhead = Vec::new();
        for pair in &results {
            overhead.extend(pair.pull_overhead.iter().copied());
        }
        data.pd_pairs = results;
        Ok(overhead)
    }

    /// Runs the whole campaign.
    pub fn run(&self) -> Result<Fig8Data> {
        let mut data = Fig8Data {
            topology_size: (self.topology.num_ases(), self.topology.num_links()),
            pops: points_of_presence(&self.topology, DEFAULT_POP_RADIUS_KM),
            ..Fig8Data::default()
        };

        let series: Vec<(RacConfig, Option<GroupingConfig>)> = vec![
            (RacConfig::static_rac("1SP", "1SP"), None),
            (RacConfig::static_rac("5SP", "5SP"), None),
            (RacConfig::static_rac("HD", "HD"), None),
            (RacConfig::static_rac("DON", "DO"), None),
            (
                RacConfig::static_rac("DOB2000", "DO")
                    .with_extended_paths(true)
                    .with_interface_groups(true),
                Some(GroupingConfig::KM_2000),
            ),
            (
                RacConfig::static_rac("DOB300", "DO")
                    .with_extended_paths(true)
                    .with_interface_groups(true),
                Some(GroupingConfig::KM_300),
            ),
        ];
        for (rac, grouping) in series {
            let name = rac.name.clone();
            let (paths, overhead) = self.run_series(rac, grouping)?;
            data.paths_by_series.insert(name.clone(), paths);
            data.overhead_by_series.insert(name, overhead);
        }

        let pd_overhead = self.run_pd(&mut data)?;
        data.overhead_by_series
            .insert("PD".to_string(), pd_overhead);
        Ok(data)
    }
}

/// Deterministically samples `(origin, target)` pairs from `as_ids`: `attempts` seeded
/// draws, self-pairs skipped (so the result may hold fewer than `attempts` pairs). The
/// single sampling recipe behind [`Fig8Campaign::pd_pairs`] and the snapshot-cost unit
/// test in [`crate::workload`] — one place to change if the sampling ever needs to get
/// smarter.
pub fn sample_pd_pairs(as_ids: &[AsId], attempts: usize, seed: u64) -> Vec<(AsId, AsId)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5044);
    let mut pairs = Vec::new();
    for _ in 0..attempts {
        let a = *as_ids.choose(&mut rng).expect("topology is non-empty");
        let b = *as_ids.choose(&mut rng).expect("topology is non-empty");
        if a != b {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Helper used by the binaries: prints one CDF series as tab-separated `value fraction` rows.
pub fn print_cdf(label: &str, cdf: &Cdf) {
    println!("# series: {label} ({} samples)", cdf.len());
    if cdf.is_empty() {
        println!("# (no samples)");
        return;
    }
    for (value, fraction) in cdf.points() {
        println!("{label}\t{value:.4}\t{fraction:.4}");
    }
}

/// Helper: prints summary statistics of a CDF (median / p25 / p75 / min / max).
pub fn print_summary(label: &str, cdf: &Cdf) {
    if cdf.is_empty() {
        println!("{label:>10}: no samples");
        return;
    }
    println!(
        "{label:>10}: n={:<6} min={:<10.3} p25={:<10.3} median={:<10.3} p75={:<10.3} max={:<10.3}",
        cdf.len(),
        cdf.min().unwrap_or(f64::NAN),
        cdf.quantile(0.25).unwrap_or(f64::NAN),
        cdf.median().unwrap_or(f64::NAN),
        cdf.quantile(0.75).unwrap_or(f64::NAN),
        cdf.max().unwrap_or(f64::NAN),
    );
}

/// A reduced-size campaign used by the integration tests (small topology, few rounds).
pub fn test_campaign(seed: u64) -> Fig8Campaign {
    Fig8Campaign::new(BenchArgs {
        ases: 12,
        rounds: 3,
        seed,
        pd_pairs: 2,
        reps: 1,
        max_racs: 2,
        ..BenchArgs::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end campaign run checked against all figure pipelines (a single shared run
    /// keeps the test-suite runtime bounded; the figure binaries exercise larger scales).
    #[test]
    fn campaign_produces_all_series_and_figure_cdfs() {
        let campaign = test_campaign(3);
        let data = campaign.run().unwrap();
        for series in ["1SP", "5SP", "HD", "DON", "DOB2000", "DOB300"] {
            assert!(
                data.paths_by_series.contains_key(series),
                "missing series {series}"
            );
            assert!(
                !data.paths_by_series[series].is_empty(),
                "series {series} has no registered paths"
            );
            assert!(data.overhead_by_series.contains_key(series));
        }
        assert!(data.overhead_by_series.contains_key("PD"));
        assert_eq!(data.topology_size.0, 12);
        // The PD campaign reports one result per sampled pair, in pair order.
        assert_eq!(data.pd_pairs.len(), campaign.pd_pairs().len());
        for (pair, sampled) in data.pd_pairs.iter().zip(campaign.pd_pairs()) {
            assert_eq!((pair.origin, pair.target), sampled);
        }

        // Fig. 8a pipeline: relative delays are computable and the baseline is exactly 1.0.
        let cdf = data.relative_delay_cdf(campaign.topology(), "5SP", 1.5);
        assert!(!cdf.is_empty());
        assert!(cdf.min().unwrap() > 0.0);
        let baseline = data.relative_delay_cdf(campaign.topology(), "1SP", 1.5);
        assert!((baseline.median().unwrap() - 1.0).abs() < 1e-9);

        // Fig. 8b pipeline: HD's median disjointness is at least 1SP's.
        let sp1 = data.tlf_cdf("1SP");
        let hd = data.tlf_cdf("HD");
        assert!(!sp1.is_empty() && !hd.is_empty());
        assert!(hd.median().unwrap() >= sp1.median().unwrap());

        // Fig. 8c pipeline: per-interface overhead samples exist, 5SP sends at least as many
        // beacons as 1SP in total.
        let sp1_overhead: f64 = data.overhead_cdf("1SP").samples().iter().sum();
        let sp5_overhead: f64 = data.overhead_cdf("5SP").samples().iter().sum();
        assert!(sp5_overhead >= sp1_overhead);
    }
}
