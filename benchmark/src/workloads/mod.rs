//! The five workloads. Each offers an untraced pass — set-up, then a timed window driven
//! through the system's public entry points — and a traced pass that redoes the same work
//! with spans around each layer. Every pass is closed-loop with one client: the single
//! driver thread issues the next round, pair, step or kernel pass only after the previous
//! one returned.
//!
//! Only default configurations are used (`SimulationConfig::default()`,
//! `NodeConfig::default()` with a RAC list and, for churn, a policy). No execution knob is
//! set, so whichever value becomes a default later is what gets measured.

pub mod beacon;
pub mod churn;
pub mod kernel;
pub mod pd;

use crate::trace::Recorder;
use irec_types::Result;
use std::collections::BTreeMap;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A workload, by its fixed name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Beacon5sp,
    BeaconMix,
    PdPull,
    Churn5sp,
    RacKernel,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Beacon5sp,
        Workload::BeaconMix,
        Workload::PdPull,
        Workload::Churn5sp,
        Workload::RacKernel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Beacon5sp => "beacon_5sp",
            Workload::BeaconMix => "beacon_mix",
            Workload::PdPull => "pd_pull",
            Workload::Churn5sp => "churn_5sp",
            Workload::RacKernel => "rac_kernel",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations one pass attempts: rounds, PD pairs, churn steps or kernel passes.
    pub fn ops(self, sizes: &Sizes) -> u64 {
        match self {
            Workload::Beacon5sp => sizes.beacon_5sp.rounds as u64,
            Workload::BeaconMix => sizes.beacon_mix.rounds as u64,
            Workload::PdPull => sizes.pd.pairs as u64,
            Workload::Churn5sp => sizes.churn.steps as u64,
            Workload::RacKernel => {
                (sizes.kernel.od_passes + sizes.kernel.native_passes + sizes.kernel.engine_passes)
                    as u64
            }
        }
    }

    /// One untraced pass with inputs made from `seed`.
    pub fn pass(self, seed: u64, sizes: &Sizes) -> Result<Pass> {
        match self {
            Workload::Beacon5sp => beacon::pass(seed, &sizes.beacon_5sp),
            Workload::BeaconMix => beacon::pass(seed, &sizes.beacon_mix),
            Workload::PdPull => pd::pass(seed, &sizes.pd),
            Workload::Churn5sp => churn::pass(seed, &sizes.churn),
            Workload::RacKernel => kernel::pass(seed, &sizes.kernel),
        }
    }

    /// One traced pass over the same inputs.
    pub fn traced_pass(self, seed: u64, sizes: &Sizes) -> Result<TracedPass> {
        match self {
            Workload::Beacon5sp => beacon::traced_pass(seed, &sizes.beacon_5sp),
            Workload::BeaconMix => beacon::traced_pass(seed, &sizes.beacon_mix),
            Workload::PdPull => pd::traced_pass(seed, &sizes.pd),
            Workload::Churn5sp => churn::traced_pass(seed, &sizes.churn),
            Workload::RacKernel => kernel::traced_pass(seed, &sizes.kernel),
        }
    }
}

/// What one untraced pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Start of the pass's set-up to its first timed operation.
    pub setup_s: f64,
    /// The timed window; set-up excluded.
    pub wall_s: f64,
    /// Samples of `round_steady_ms`: the cost of one round on a converged plane.
    pub steps_ms: Vec<f64>,
    /// Operations that failed (returned `Err`, violated an invariant or an oracle).
    pub failed: u64,
    /// What the pass computed; equal for equal inputs.
    pub digest: String,
    /// Per-layer values that need no tracing (stats the system reports about itself).
    pub layers: Layers,
    /// Resident set size when set-up ended, in MB.
    pub rss_after_setup_mb: f64,
}

/// What one traced pass measured.
pub struct TracedPass {
    /// The traced timed window, probe time taken out.
    pub wall_s: f64,
    pub failed: u64,
    pub digest: String,
    pub layers: Layers,
    /// Share of the traced wall covered by spans, where the spans are meant to account
    /// for all of it (the bench-owned round driver); the run fails if it falls short.
    pub budget_share: Option<f64>,
    pub recorder: Recorder,
}

/// Workload sizes. [`Sizes::full`] is what `BENCHMARK.json` runs; [`Sizes::toy`] is for the
/// smoke test.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub beacon_5sp: beacon::Size,
    pub beacon_mix: beacon::Size,
    pub pd: pd::Size,
    pub churn: churn::Size,
    pub kernel: kernel::Size,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            beacon_5sp: beacon::Size {
                ases: 60,
                rounds: 8,
                racs: &["5SP"],
            },
            beacon_mix: beacon::Size {
                ases: 24,
                rounds: 6,
                racs: &["1SP", "5SP", "HD", "DO"],
            },
            pd: pd::Size {
                ases: 10,
                warmup_rounds: 4,
                pairs: 3,
                max_paths: 20,
                rounds_per_iteration: 3,
            },
            churn: churn::Size {
                ases: 30,
                warmup_rounds: 6,
                steps: 6,
                rate: 1.5,
            },
            kernel: kernel::Size {
                phi: 64,
                od_passes: 6_000,
                native_passes: 40_000,
                engine_phi: 256,
                engine_origins: 4,
                engine_passes: 120,
                leaf_iterations: 10_000,
            },
        }
    }

    pub fn toy() -> Self {
        Sizes {
            beacon_5sp: beacon::Size {
                ases: 10,
                rounds: 2,
                racs: &["5SP"],
            },
            beacon_mix: beacon::Size {
                ases: 8,
                rounds: 2,
                racs: &["1SP", "5SP", "HD", "DO"],
            },
            pd: pd::Size {
                ases: 8,
                warmup_rounds: 2,
                pairs: 2,
                max_paths: 20,
                rounds_per_iteration: 2,
            },
            churn: churn::Size {
                ases: 10,
                warmup_rounds: 4,
                steps: 2,
                rate: 1.5,
            },
            kernel: kernel::Size {
                phi: 16,
                od_passes: 50,
                native_passes: 50,
                engine_phi: 32,
                engine_origins: 2,
                engine_passes: 50,
                leaf_iterations: 50,
            },
        }
    }
}

/// Seconds → nanoseconds as a float, for layer values reported in ns.
pub(crate) fn ns(duration: std::time::Duration) -> f64 {
    duration.as_nanos() as f64
}

/// The median of `values` (0 for an empty input).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The ingress gateways' own counters, summed over a set of nodes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IngressCounts {
    accepted: u64,
    duplicates: u64,
    rejected: u64,
}

impl IngressCounts {
    pub(crate) fn of<'a>(nodes: impl IntoIterator<Item = &'a irec_core::IrecNode>) -> Self {
        let mut counts = IngressCounts::default();
        for node in nodes {
            let stats = node.ingress().stats();
            counts.accepted += stats.accepted;
            counts.duplicates += stats.duplicates;
            counts.rejected += stats.rejected;
        }
        counts
    }

    /// Adds what `later` counted beyond `earlier`.
    pub(crate) fn add_growth(&mut self, earlier: IngressCounts, later: IngressCounts) {
        self.accepted += later.accepted - earlier.accepted;
        self.duplicates += later.duplicates - earlier.duplicates;
        self.rejected += later.rejected - earlier.rejected;
    }

    /// Writes the `core.ingress.*` counts.
    pub(crate) fn insert_into(self, layers: &mut Layers) {
        let received = self.accepted + self.duplicates + self.rejected;
        layers.insert("core.ingress.accepted", self.accepted as f64);
        layers.insert("core.ingress.duplicates", self.duplicates as f64);
        layers.insert("core.ingress.rejected", self.rejected as f64);
        layers.insert(
            "core.ingress.accept_share",
            self.accepted as f64 / received.max(1) as f64,
        );
    }
}

/// The live nodes of a simulation, in `AsId` order.
pub(crate) fn sim_nodes(sim: &irec_sim::Simulation) -> Vec<&irec_core::IrecNode> {
    sim.live_ases()
        .into_iter()
        .filter_map(|asn| sim.node(asn).ok())
        .collect()
}

/// What the untraced simulation workloads can read off a finished `Simulation`.
pub(crate) fn simulation_layers(layers: &mut Layers, sim: &irec_sim::Simulation) {
    let scheduler = sim.scheduler_stats();
    layers.insert(
        "sim.simulation.busy_share",
        scheduler.busy_nanos as f64 / scheduler.wall_nanos.max(1) as f64,
    );
    let incremental = sim.incremental_stats();
    layers.insert(
        "algorithms.incremental.reuse_share",
        incremental.reused as f64 / (incremental.reused + incremental.recomputed).max(1) as f64,
    );
    layers.insert("core.beacon_db.occupancy", sim.ingress_occupancy() as f64);
}
