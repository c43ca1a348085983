//! The churn invariants: convergence and no-blackhole, checked between steps.

use crate::simulation::Simulation;
use irec_types::{AsId, IrecError, Result};
use std::collections::{BTreeSet, VecDeque};

/// Checks the two churn invariants against a settled simulation.
///
/// * **Convergence** is checked by the engine's settle loop (registered-path steady state
///   within the config's budget); this type supplies the no-blackhole half and the
///   baseline it is judged against.
/// * **No-blackhole**: for every baseline pair `(a, b)` — pairs that held at least one
///   registered path when the checker was captured — where both ASes are still live *and*
///   `b` is still physically reachable from `a` (BFS over up links and live nodes), `a`
///   must hold at least one *usable* registered path towards `b`: a path whose recorded
///   links avoid every downed endpoint and whose traversed ASes are all live. Pairs whose
///   physical route was severed are excused — dropping them is a topology fact, not a
///   blackhole.
///
/// The baseline is captured once, after warmup, so the invariant is judged against what
/// the converged plane actually achieved (policy-reachable pairs), not against an
/// assumption that physical reachability implies policy reachability.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    /// Ordered AS pairs `(holder, origin)` that held ≥ 1 registered path at capture time.
    baseline: Vec<(AsId, AsId)>,
}

impl InvariantChecker {
    /// Captures the no-blackhole baseline: every ordered pair with a registered path.
    pub fn capture(sim: &Simulation) -> Self {
        let mut pairs: BTreeSet<(AsId, AsId)> = BTreeSet::new();
        for (holder, node) in sim.nodes() {
            node.path_service()
                .read(|paths| pairs.extend(paths.iter().map(|path| (holder, path.destination))));
        }
        InvariantChecker {
            baseline: pairs.into_iter().collect(),
        }
    }

    /// The captured baseline pairs, in order.
    pub fn baseline(&self) -> &[(AsId, AsId)] {
        &self.baseline
    }

    /// The ASes physically reachable from `from` over up links and live nodes, `from`
    /// included (empty if `from` itself is not live).
    pub fn live_reachable(sim: &Simulation, from: AsId) -> BTreeSet<AsId> {
        let mut reachable = BTreeSet::new();
        if !sim.has_node(from) {
            return reachable;
        }
        reachable.insert(from);
        let mut frontier = VecDeque::from([from]);
        while let Some(asn) = frontier.pop_front() {
            for link_id in sim.topology().links_of(asn) {
                if sim.is_link_down(link_id) {
                    continue;
                }
                let Ok(link) = sim.topology().link(link_id) else {
                    continue;
                };
                let other = if link.a.asn == asn {
                    link.b.asn
                } else {
                    link.a.asn
                };
                if sim.has_node(other) && reachable.insert(other) {
                    frontier.push_back(other);
                }
            }
        }
        reachable
    }

    /// Verifies the no-blackhole invariant, returning the first violated pair as an error.
    ///
    /// One walk over the plane's registrations collects the pairs that hold a usable path;
    /// each baseline pair is then a lookup. Reachability over up links is symmetric, so an
    /// AS reaches exactly the ASes of its component: one BFS serves every holder in it.
    pub fn check_no_blackhole(&self, sim: &Simulation) -> Result<()> {
        let usable = Self::usable_pairs(sim);
        let mut component = BTreeSet::new();
        for &(a, b) in &self.baseline {
            if !sim.has_node(a) || !sim.has_node(b) {
                continue;
            }
            if !component.contains(&a) {
                component = Self::live_reachable(sim, a);
            }
            if !component.contains(&b) {
                continue;
            }
            if !usable.contains(&(a, b)) {
                return Err(IrecError::internal(format!(
                    "no-blackhole violated: {a} has no usable registered path to live, \
                     reachable {b}"
                )));
            }
        }
        Ok(())
    }

    /// The `(holder, origin)` pairs holding at least one usable registered path: one whose
    /// recorded links avoid every downed endpoint and whose traversed ASes are all live.
    /// A pair already known usable reads no further path's links.
    fn usable_pairs(sim: &Simulation) -> BTreeSet<(AsId, AsId)> {
        let mut usable = BTreeSet::new();
        for (holder, node) in sim.nodes() {
            node.path_service().read(|paths| {
                for path in paths.iter() {
                    let pair = (holder, path.destination);
                    if !usable.contains(&pair)
                        && path.links.iter().all(|&(asn, ifid)| {
                            sim.has_node(asn) && !sim.is_endpoint_down(asn, ifid)
                        })
                    {
                        usable.insert(pair);
                    }
                }
            });
        }
        usable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimulationConfig;
    use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
    use irec_topology::builder::{figure1, figure1_topology};
    use std::sync::Arc;

    fn ten_ms() -> irec_types::Latency {
        irec_types::Latency::from_millis(10)
    }

    fn mbps100() -> irec_types::Bandwidth {
        irec_types::Bandwidth::from_mbps(100)
    }

    fn warmed_sim_with(rac: &str) -> Simulation {
        let rac = rac.to_string();
        let mut sim = Simulation::new(
            Arc::new(figure1_topology()),
            SimulationConfig::default(),
            move |_| {
                NodeConfig::default()
                    .with_policy(PropagationPolicy::All)
                    .with_racs(vec![RacConfig::static_rac(&rac, &rac)])
            },
        )
        .unwrap();
        sim.run_rounds(6).unwrap();
        sim
    }

    fn warmed_sim() -> Simulation {
        warmed_sim_with("5SP")
    }

    #[test]
    fn baseline_covers_all_connected_pairs() {
        let sim = warmed_sim();
        let checker = InvariantChecker::capture(&sim);
        let n = sim.live_ases().len();
        assert_eq!(checker.baseline().len(), n * (n - 1), "full connectivity");
        checker.check_no_blackhole(&sim).unwrap();
    }

    #[test]
    fn reachability_respects_downed_links_and_dead_nodes() {
        let mut sim = warmed_sim();
        let all: BTreeSet<AsId> = sim.topology().as_ids().into_iter().collect();
        assert_eq!(InvariantChecker::live_reachable(&sim, figure1::SRC), all);
        sim.remove_node(figure1::X).unwrap();
        let without_x = InvariantChecker::live_reachable(&sim, figure1::SRC);
        assert!(!without_x.contains(&figure1::X));
        assert_eq!(
            InvariantChecker::live_reachable(&sim, figure1::X),
            BTreeSet::new()
        );
        // Downing every SRC link isolates it.
        for link in sim.topology().links_of(figure1::SRC) {
            sim.set_link_down(link).unwrap();
        }
        assert_eq!(
            InvariantChecker::live_reachable(&sim, figure1::SRC),
            BTreeSet::from([figure1::SRC])
        );
    }

    #[test]
    fn severed_pairs_are_excused_but_stale_paths_are_not() {
        let mut sim = warmed_sim();
        let checker = InvariantChecker::capture(&sim);
        // Isolating SRC physically excuses all its pairs: no violation even though its
        // registered paths all became unusable.
        for link in sim.topology().links_of(figure1::SRC) {
            sim.set_link_down(link).unwrap();
        }
        checker.check_no_blackhole(&sim).unwrap();
        // But a genuine blackhole must be flagged. Under valley-free policy, AS1 and AS3
        // share a provider (AS2) and a peer detour (AS1–AS4–AS3) that export rules forbid
        // beacons from taking: AS1's only stored paths to AS3 run through AS2. Downing the
        // AS2–AS3 link leaves AS3 *physically* reachable over the peer detour, yet every
        // stored path is stale — exactly the registered-paths-blackhole the checker exists
        // to catch.
        let mut sim = Simulation::new(
            Arc::new(
                irec_topology::TopologyBuilder::new()
                    .with_ases([1, 2, 3, 4])
                    .provider_link(2, 1, ten_ms(), mbps100())
                    .provider_link(2, 3, ten_ms(), mbps100())
                    .link(1, 4, ten_ms(), mbps100())
                    .link(4, 3, ten_ms(), mbps100())
                    .build(),
            ),
            SimulationConfig::default(),
            |_| {
                NodeConfig::default()
                    .with_policy(PropagationPolicy::ValleyFree)
                    .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
            },
        )
        .unwrap();
        sim.run_rounds(6).unwrap();
        let checker = InvariantChecker::capture(&sim);
        let stored = sim.node(AsId(1)).unwrap().path_service().paths_to(AsId(3));
        assert!(!stored.is_empty(), "warmup must register provider paths");
        assert!(
            stored
                .iter()
                .all(|p| p.links.iter().any(|&(asn, _)| asn == AsId(2))),
            "valley-free exports must keep every stored path on the provider route"
        );
        let links3: BTreeSet<_> = sim.topology().links_of(AsId(3)).into_iter().collect();
        let provider_link = *sim
            .topology()
            .links_of(AsId(2))
            .iter()
            .find(|id| links3.contains(id))
            .expect("AS2-AS3 link exists");
        sim.set_link_down(provider_link).unwrap();
        assert!(
            InvariantChecker::live_reachable(&sim, AsId(1)).contains(&AsId(3)),
            "AS3 must stay physically reachable over the peer detour"
        );
        assert!(
            checker.check_no_blackhole(&sim).is_err(),
            "stale paths over the downed provider link must not count as usable"
        );
    }
}
