//! The churn & live-reconfiguration scenario engine: seeded topology deltas between
//! rounds, with convergence and no-blackhole invariants checked after every step.
//!
//! Every other scenario in the repo runs a fixed topology; real control planes must absorb
//! link flaps, AS joins/leaves and staged configuration migrations without blackholing
//! traffic. This module turns the ad-hoc failure-injection tests into a first-class
//! subsystem:
//!
//! * [`generator::ChurnGenerator`] — a seeded generator emitting a deterministic timeline
//!   of [`ChurnDelta`]s from a [`ChurnConfig`] (rate, seed, per-kind weights, warmup). It
//!   draws targets from the *live* simulation state (up links, live nodes), so every
//!   emitted delta is applicable by construction;
//! * [`engine::ChurnEngine`] — the delta applicator: executes each step's deltas between
//!   rounds (via `Simulation::{set_link_down,set_link_up,remove_node,add_node}` and
//!   `IrecNode::swap_rac_catalog`), then runs settle rounds until the control plane
//!   re-converges;
//! * [`invariants::InvariantChecker`] — verifies **convergence** (the registered-path set
//!   reaches a steady state within a bounded number of rounds after each delta batch) and
//!   **no-blackhole** (every baseline AS pair that is still live and physically reachable
//!   holds at least one usable registered path) between steps.
//!
//! # Determinism
//!
//! A churn run is a pure function of `(topology, node configs, ChurnConfig)`. The
//! generator's PRNG is a self-contained splitmix64 stream seeded from the config; its
//! draws consume only the stream and the simulation's *deterministic* observables (live
//! ASes in `AsId` order, downed links in `LinkId` order, topology link ids in sorted
//! order). The engine applies deltas between rounds — where the verify helper has
//! returned — and its settle loop advances on registered-path equality, itself a
//! deterministic output. Therefore the whole timeline, and everything downstream of it, is
//! byte-identical from run to run, like every other plane: the churn fixtures of
//! `tests/fixture_matrix.rs` pin its bytes.

pub mod engine;
pub mod generator;
pub mod invariants;

pub use engine::{ChurnEngine, ChurnReport, ChurnStep};
pub use generator::ChurnGenerator;
pub use invariants::InvariantChecker;
pub use irec_algorithms::incremental::SelectionDelta;

use irec_types::{AsId, IrecError, LinkId, Result};

/// One topology/configuration delta the churn engine can apply between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnDelta {
    /// Mark a link down: PCBs emitted over either endpoint drop at delivery time.
    LinkDown(LinkId),
    /// Bring a previously downed link back up.
    LinkUp(LinkId),
    /// Remove an AS's node (the AS goes offline; queued events to it are purged).
    NodeLeave(AsId),
    /// Re-add a node for an AS currently without one (empty state, idempotent
    /// re-registration).
    NodeJoin(AsId),
    /// Swap an AS's RAC catalog live (staged configuration migration).
    CatalogSwap(AsId),
}

impl std::fmt::Display for ChurnDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnDelta::LinkDown(link) => write!(f, "link-down({})", link.0),
            ChurnDelta::LinkUp(link) => write!(f, "link-up({})", link.0),
            ChurnDelta::NodeLeave(asn) => write!(f, "node-leave({asn})"),
            ChurnDelta::NodeJoin(asn) => write!(f, "node-join({asn})"),
            ChurnDelta::CatalogSwap(asn) => write!(f, "catalog-swap({asn})"),
        }
    }
}

/// The delta-kind weights of a churn workload. A kind with weight 0 is never drawn; the
/// generator picks among the enabled kinds proportionally to their weights, in the fixed
/// order link-down, link-up, node-leave, node-join, catalog-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnKinds {
    /// Weight of [`ChurnDelta::LinkDown`].
    pub link_down: u32,
    /// Weight of [`ChurnDelta::LinkUp`].
    pub link_up: u32,
    /// Weight of [`ChurnDelta::NodeLeave`].
    pub node_leave: u32,
    /// Weight of [`ChurnDelta::NodeJoin`].
    pub node_join: u32,
    /// Weight of [`ChurnDelta::CatalogSwap`].
    pub catalog_swap: u32,
}

impl Default for ChurnKinds {
    /// Every kind enabled with weight 1 (the `all` spelling).
    fn default() -> Self {
        ChurnKinds {
            link_down: 1,
            link_up: 1,
            node_leave: 1,
            node_join: 1,
            catalog_swap: 1,
        }
    }
}

impl ChurnKinds {
    /// No kind enabled; combine with the field syntax or [`std::str::FromStr`] to opt in.
    pub const NONE: ChurnKinds = ChurnKinds {
        link_down: 0,
        link_up: 0,
        node_leave: 0,
        node_join: 0,
        catalog_swap: 0,
    };

    /// The kinds in their fixed draw/fallback order, as `(name, weight)` pairs.
    pub fn entries(&self) -> [(&'static str, u32); 5] {
        [
            ("link-down", self.link_down),
            ("link-up", self.link_up),
            ("node-leave", self.node_leave),
            ("node-join", self.node_join),
            ("catalog-swap", self.catalog_swap),
        ]
    }

    /// Sum of all weights; 0 means churn draws nothing.
    pub fn total_weight(&self) -> u64 {
        self.entries().iter().map(|(_, w)| *w as u64).sum()
    }

    fn weight_mut(&mut self, name: &str) -> Option<&mut u32> {
        match name {
            "link-down" => Some(&mut self.link_down),
            "link-up" => Some(&mut self.link_up),
            "node-leave" => Some(&mut self.node_leave),
            "node-join" => Some(&mut self.node_join),
            "catalog-swap" => Some(&mut self.catalog_swap),
            _ => None,
        }
    }
}

impl std::str::FromStr for ChurnKinds {
    type Err = IrecError;

    /// Parses a `--churn-kinds` spec: `all` (every kind, weight 1), or a comma-separated
    /// list of kind names with optional `=N` weights, e.g. `link-down=3,node-leave`.
    fn from_str(s: &str) -> Result<Self> {
        if s == "all" {
            return Ok(ChurnKinds::default());
        }
        let mut kinds = ChurnKinds::NONE;
        for part in s.split(',') {
            let part = part.trim();
            let (name, weight) = match part.split_once('=') {
                Some((name, weight)) => {
                    let weight: u32 = weight.parse().map_err(|_| {
                        IrecError::config(format!("bad churn-kind weight in {part:?}"))
                    })?;
                    (name, weight)
                }
                None => (part, 1),
            };
            let slot = kinds.weight_mut(name).ok_or_else(|| {
                IrecError::config(format!(
                    "unknown churn kind {name:?} (expected all, link-down, link-up, \
                     node-leave, node-join or catalog-swap)"
                ))
            })?;
            *slot = weight;
        }
        Ok(kinds)
    }
}

impl std::fmt::Display for ChurnKinds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == ChurnKinds::default() {
            return f.write_str("all");
        }
        let mut first = true;
        for (name, weight) in self.entries() {
            if weight == 0 {
                continue;
            }
            if !first {
                f.write_str(",")?;
            }
            first = false;
            if weight == 1 {
                write!(f, "{name}")?;
            } else {
                write!(f, "{name}={weight}")?;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Parameters of a churn workload. These are *workload* knobs: they change the
/// simulation's output (deliberately so) — but the output is still a pure function of this
/// config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Expected number of deltas per churn step. Fractional rates accumulate: at 0.5,
    /// every other step applies one delta.
    pub rate: f64,
    /// PRNG seed of the delta timeline.
    pub seed: u64,
    /// Per-kind weights.
    pub kinds: ChurnKinds,
    /// Beaconing rounds run before the first delta, so churn hits a converged plane.
    pub warmup_rounds: usize,
    /// Maximum settle rounds after a delta batch before the convergence invariant fails.
    /// Must exceed the topology diameter, or a re-joining node (whose beacons re-propagate
    /// one hop per round) can be declared non-convergent spuriously.
    pub convergence_budget: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            rate: 1.0,
            seed: 11,
            kinds: ChurnKinds::default(),
            warmup_rounds: 6,
            convergence_budget: 16,
        }
    }
}

impl ChurnConfig {
    /// Builder-style: set the expected deltas-per-step rate (clamped to ≥ 0).
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.max(0.0);
        self
    }

    /// Builder-style: set the timeline seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the delta-kind weights.
    #[must_use]
    pub fn with_kinds(mut self, kinds: ChurnKinds) -> Self {
        self.kinds = kinds;
        self
    }

    /// Builder-style: set the warmup round count.
    #[must_use]
    pub fn with_warmup_rounds(mut self, warmup_rounds: usize) -> Self {
        self.warmup_rounds = warmup_rounds;
        self
    }

    /// Builder-style: set the convergence budget.
    #[must_use]
    pub fn with_convergence_budget(mut self, convergence_budget: usize) -> Self {
        self.convergence_budget = convergence_budget.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_parse_and_display_round_trip() {
        let all: ChurnKinds = "all".parse().unwrap();
        assert_eq!(all, ChurnKinds::default());
        assert_eq!(all.to_string(), "all");

        let subset: ChurnKinds = "link-down=3,node-leave".parse().unwrap();
        assert_eq!(subset.link_down, 3);
        assert_eq!(subset.node_leave, 1);
        assert_eq!(subset.link_up, 0);
        assert_eq!(subset.to_string(), "link-down=3,node-leave");
        assert_eq!(subset.to_string().parse::<ChurnKinds>().unwrap(), subset);

        assert!("flap".parse::<ChurnKinds>().is_err());
        assert!("link-down=x".parse::<ChurnKinds>().is_err());
        assert_eq!(ChurnKinds::NONE.to_string(), "none");
        assert_eq!(ChurnKinds::NONE.total_weight(), 0);
    }

    #[test]
    fn config_builders_clamp() {
        let config = ChurnConfig::default()
            .with_rate(-2.0)
            .with_convergence_budget(0);
        assert_eq!(config.rate, 0.0);
        assert_eq!(config.convergence_budget, 1);
    }

    #[test]
    fn deltas_display() {
        assert_eq!(ChurnDelta::LinkDown(LinkId(3)).to_string(), "link-down(3)");
        assert_eq!(
            ChurnDelta::NodeJoin(AsId(7)).to_string(),
            format!("node-join({})", AsId(7))
        );
    }
}
