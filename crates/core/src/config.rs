//! Configuration of an IREC node and its routing algorithm containers.

use irec_types::{Latency, SimDuration};

/// How beacons are allowed to propagate across business relationships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationPolicy {
    /// Gao–Rexford (valley-free) export: beacons learned from a provider or peer are only
    /// exported to customers; beacons learned from a customer are exported everywhere.
    /// This is the policy used on the generated Internet topology.
    ValleyFree,
    /// Export on every interface (except the one the beacon arrived on). Used by the small
    /// hand-built example topologies of the paper's figures, which have no relationships.
    All,
}

/// Whether a RAC runs a fixed, operator-configured algorithm or algorithms shipped in PCBs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RacKind {
    /// A static RAC: always runs the algorithm named here (resolved through
    /// [`irec_algorithms::catalog::by_name`]) or provided natively.
    Static {
        /// Catalog name of the algorithm (e.g. `"1SP"`, `"5SP"`, `"HD"`, `"DO"`).
        algorithm: String,
    },
    /// An on-demand RAC: executes the algorithm referenced by the PCBs it processes, fetched
    /// from the origin AS and verified against the hash in the (signed) PCB.
    OnDemand,
}

/// Configuration of one routing algorithm container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacConfig {
    /// Display name of the RAC; also used to tag registered paths. For static RACs this
    /// usually equals the algorithm name (plus a variant suffix, e.g. `DOB300`).
    pub name: String,
    /// Static or on-demand.
    pub kind: RacKind,
    /// Whether this RAC optimizes on extended paths (§IV-E). DON disables it, DOB enables it.
    pub extend_paths: bool,
    /// Whether this RAC processes beacons per interface group (§IV-D). When disabled, all
    /// groups of an origin are merged into the default group before optimization.
    pub use_interface_groups: bool,
    /// Whether this RAC processes pull-based beacons (ones carrying a Target extension).
    /// The paper makes both features independently switchable per RAC.
    pub process_pull_based: bool,
    /// Maximum number of PCBs to select per (origin, interface group, egress interface); the
    /// paper's evaluation uses 20.
    pub max_selected: usize,
}

impl RacConfig {
    /// A static RAC with the given catalog algorithm and defaults matching the paper's
    /// evaluation setup.
    pub fn static_rac(name: impl Into<String>, algorithm: impl Into<String>) -> Self {
        RacConfig {
            name: name.into(),
            kind: RacKind::Static {
                algorithm: algorithm.into(),
            },
            extend_paths: false,
            use_interface_groups: false,
            process_pull_based: false,
            max_selected: 20,
        }
    }

    /// An on-demand RAC with the paper's defaults (pull-based processing enabled, since the
    /// PD workflow combines both mechanisms).
    pub fn on_demand_rac(name: impl Into<String>) -> Self {
        RacConfig {
            name: name.into(),
            kind: RacKind::OnDemand,
            extend_paths: false,
            use_interface_groups: false,
            process_pull_based: true,
            max_selected: 20,
        }
    }

    /// Builder-style: enable extended-path optimization.
    #[must_use]
    pub fn with_extended_paths(mut self, enabled: bool) -> Self {
        self.extend_paths = enabled;
        self
    }

    /// Builder-style: enable per-interface-group optimization.
    #[must_use]
    pub fn with_interface_groups(mut self, enabled: bool) -> Self {
        self.use_interface_groups = enabled;
        self
    }

    /// Builder-style: enable processing of pull-based beacons.
    #[must_use]
    pub fn with_pull_based(mut self, enabled: bool) -> Self {
        self.process_pull_based = enabled;
        self
    }

    /// Builder-style: set the per-egress selection budget.
    #[must_use]
    pub fn with_max_selected(mut self, max: usize) -> Self {
        self.max_selected = max;
        self
    }
}

/// Configuration of a whole IREC node (one AS's control plane).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// The RACs this AS deploys. Every AS chooses its own set — property P2 of the paper.
    pub racs: Vec<RacConfig>,
    /// Export policy for beacon propagation.
    pub policy: PropagationPolicy,
    /// Validity period of self-originated beacons.
    pub beacon_validity: SimDuration,
    /// Interval between beaconing rounds (the paper's simulations use 10 simulated minutes).
    pub beacon_interval: SimDuration,
    /// Local switching latency added to every intra-AS crossing.
    pub local_crossing_latency: Latency,
    /// Whether this node participates in IREC at all; a "legacy" node runs only the single
    /// built-in shortest-path selection and ignores every IREC extension (used by the
    /// backward-compatibility experiment).
    pub irec_enabled: bool,
    /// Worker threads of the parallel RAC execution engine. `1` (the default) processes
    /// every `(RAC, batch)` work item sequentially; `N > 1` fans the items out over `N`
    /// scoped worker threads with a deterministic merge, so results are byte-identical
    /// either way.
    pub parallelism: usize,
    /// Number of shards of the ingress database (see
    /// [`crate::beacon_db::ShardedIngressDb`]). `0` (the default) derives the count from
    /// the worker budget — the next power of two of `parallelism` — so parallel
    /// deployments shard automatically and sequential ones keep a single map. Any value
    /// produces byte-identical observable behaviour; the count only changes how much
    /// insert/evict concurrency the database admits.
    pub ingress_shards: usize,
    /// Number of shards of the path service (see
    /// [`crate::path_service::ShardedPathService`]), keyed by destination AS. `0` (the
    /// default) derives the count from the worker budget like `ingress_shards` does. Any
    /// value produces byte-identical observable behaviour; the count only changes how much
    /// registration concurrency — RAC selections and pull-return commits — the service
    /// admits.
    pub path_shards: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            racs: vec![RacConfig::static_rac("1SP", "1SP")],
            policy: PropagationPolicy::ValleyFree,
            beacon_validity: SimDuration::from_hours(6),
            beacon_interval: SimDuration::from_minutes(10),
            local_crossing_latency: Latency::from_micros(200),
            irec_enabled: true,
            parallelism: 1,
            ingress_shards: 0,
            path_shards: 0,
        }
    }
}

impl NodeConfig {
    /// The four-static-RAC + one-on-demand-RAC configuration of the paper's large-scale
    /// simulations (§VIII-B): 1SP, 5SP, HD, DO and an on-demand RAC.
    ///
    /// `dob` selects the delay-optimization variant: `false` = DON (no extended paths, no
    /// interface groups), `true` = DOB (both enabled).
    pub fn paper_simulation(dob: bool) -> Self {
        NodeConfig {
            racs: vec![
                RacConfig::static_rac("1SP", "1SP"),
                RacConfig::static_rac("5SP", "5SP"),
                RacConfig::static_rac("HD", "HD"),
                RacConfig::static_rac(if dob { "DOB" } else { "DON" }, "DO")
                    .with_extended_paths(dob)
                    .with_interface_groups(dob),
                RacConfig::on_demand_rac("on-demand"),
            ],
            ..Default::default()
        }
    }

    /// A legacy (non-IREC) node for the backward-compatibility experiment: a single
    /// shortest-path selection, IREC extensions ignored.
    pub fn legacy() -> Self {
        NodeConfig {
            racs: vec![RacConfig::static_rac("legacy", "legacy-scion")],
            irec_enabled: false,
            ..Default::default()
        }
    }

    /// Builder-style: set the propagation policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PropagationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: replace the RAC set.
    #[must_use]
    pub fn with_racs(mut self, racs: Vec<RacConfig>) -> Self {
        self.racs = racs;
        self
    }

    /// Builder-style: set the RAC execution engine's worker count (clamped to at least 1).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder-style: set the ingress-database shard count (`0` = derive from
    /// `parallelism`).
    #[deprecated(
        since = "0.10.0",
        note = "set shard counts at the simulation level via \
                `irec_sim::SimulationConfig::with_ingress_shards` (or set the \
                `ingress_shards` field directly when building a bare node)"
    )]
    #[must_use]
    pub fn with_ingress_shards(mut self, shards: usize) -> Self {
        self.ingress_shards = shards;
        self
    }

    /// Builder-style: set the path-service shard count (`0` = derive from `parallelism`).
    #[deprecated(
        since = "0.10.0",
        note = "set shard counts at the simulation level via \
                `irec_sim::SimulationConfig::with_path_shards` (or set the `path_shards` \
                field directly when building a bare node)"
    )]
    #[must_use]
    pub fn with_path_shards(mut self, shards: usize) -> Self {
        self.path_shards = shards;
        self
    }

    /// The effective ingress shard count: the configured value, or — when left at the `0`
    /// auto default — the next power of two of the RAC engine's worker count. Clamped to
    /// [`crate::beacon_db::MAX_INGRESS_SHARDS`], matching the database's own clamp, so the
    /// figure always equals the shard count of the node this config builds.
    pub fn ingress_shard_count(&self) -> usize {
        let count = if self.ingress_shards == 0 {
            self.parallelism.max(1).next_power_of_two()
        } else {
            self.ingress_shards
        };
        count.min(crate::beacon_db::MAX_INGRESS_SHARDS)
    }

    /// The effective path-service shard count, derived exactly like
    /// [`NodeConfig::ingress_shard_count`] (auto default: next power of two of
    /// `parallelism`) and clamped to [`crate::path_service::MAX_PATH_SHARDS`].
    pub fn path_shard_count(&self) -> usize {
        let count = if self.path_shards == 0 {
            self.parallelism.max(1).next_power_of_two()
        } else {
            self.path_shards
        };
        count.min(crate::path_service::MAX_PATH_SHARDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_rac_defaults() {
        let c = RacConfig::static_rac("DO", "DO");
        assert_eq!(
            c.kind,
            RacKind::Static {
                algorithm: "DO".into()
            }
        );
        assert!(!c.extend_paths);
        assert_eq!(c.max_selected, 20);
    }

    #[test]
    fn on_demand_rac_processes_pull_based_by_default() {
        let c = RacConfig::on_demand_rac("od");
        assert_eq!(c.kind, RacKind::OnDemand);
        assert!(c.process_pull_based);
    }

    #[test]
    fn builder_flags() {
        let c = RacConfig::static_rac("DOB", "DO")
            .with_extended_paths(true)
            .with_interface_groups(true)
            .with_pull_based(true)
            .with_max_selected(7);
        assert!(c.extend_paths && c.use_interface_groups && c.process_pull_based);
        assert_eq!(c.max_selected, 7);
    }

    #[test]
    fn paper_simulation_config_has_five_racs() {
        let cfg = NodeConfig::paper_simulation(true);
        assert_eq!(cfg.racs.len(), 5);
        let dob = cfg.racs.iter().find(|r| r.name == "DOB").unwrap();
        assert!(dob.extend_paths && dob.use_interface_groups);
        let don_cfg = NodeConfig::paper_simulation(false);
        let don = don_cfg.racs.iter().find(|r| r.name == "DON").unwrap();
        assert!(!don.extend_paths && !don.use_interface_groups);
        assert_eq!(cfg.beacon_interval, SimDuration::from_minutes(10));
    }

    #[test]
    fn legacy_config_disables_irec() {
        let cfg = NodeConfig::legacy();
        assert!(!cfg.irec_enabled);
        assert_eq!(cfg.racs.len(), 1);
    }

    #[test]
    #[allow(deprecated)]
    fn ingress_shard_count_follows_parallelism_unless_pinned() {
        // Auto default: next power of two of the worker budget.
        assert_eq!(NodeConfig::default().ingress_shard_count(), 1);
        assert_eq!(
            NodeConfig::default()
                .with_parallelism(4)
                .ingress_shard_count(),
            4
        );
        assert_eq!(
            NodeConfig::default()
                .with_parallelism(6)
                .ingress_shard_count(),
            8
        );
        // An explicit count wins, including non-powers of two.
        assert_eq!(
            NodeConfig::default()
                .with_parallelism(4)
                .with_ingress_shards(7)
                .ingress_shard_count(),
            7
        );
        // Oversized values clamp to the database's own shard cap, so the config-level
        // count always matches the built node's actual shard count.
        assert_eq!(
            NodeConfig::default()
                .with_ingress_shards(100_000)
                .ingress_shard_count(),
            crate::beacon_db::MAX_INGRESS_SHARDS
        );
    }

    #[test]
    #[allow(deprecated)]
    fn path_shard_count_follows_parallelism_unless_pinned() {
        assert_eq!(NodeConfig::default().path_shard_count(), 1);
        assert_eq!(
            NodeConfig::default().with_parallelism(6).path_shard_count(),
            8
        );
        assert_eq!(
            NodeConfig::default()
                .with_parallelism(4)
                .with_path_shards(7)
                .path_shard_count(),
            7
        );
        assert_eq!(
            NodeConfig::default()
                .with_path_shards(100_000)
                .path_shard_count(),
            crate::path_service::MAX_PATH_SHARDS
        );
    }
}
