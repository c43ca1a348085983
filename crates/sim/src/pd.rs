//! The pull-based disjointness (PD) workflow of §VIII-B.
//!
//! "The algorithm allows an AS to iteratively construct a set of link-disjoint paths to any
//! target AS by starting from a non-empty set of paths to the target AS, already discovered
//! by other algorithms; we use HD in our setup. In each iteration, the AS originates
//! on-demand pull-based PCBs, specifying the target AS and a new algorithm that avoids PCB
//! propagation on links in the set of paths to the target AS. When some of these PCBs
//! ultimately arrive at the target AS, it returns them to the origin AS, which only adds the
//! first-received PCB of the iteration to its set and starts the next iteration."

use crate::simulation::Simulation;
use irec_algorithms::disjoint::pd_round_program;
use irec_core::engine::run_claimed;
use irec_core::OriginationSpec;
use irec_metrics::RegisteredPath;
use irec_pcb::PcbExtensions;
use irec_types::{AlgorithmId, AsId, IfId, Result};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The outcome of a PD workflow run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PdResult {
    /// The accumulated set of (approximately link-disjoint) paths from the origin to the
    /// target, in discovery order. Seed paths (from HD) come first.
    pub paths: Vec<RegisteredPath>,
    /// Number of pull iterations executed.
    pub iterations: usize,
    /// Iterations that discovered no new path — because no returns arrived at all, or
    /// because every return duplicated an already-known path (the avoid set exhausted the
    /// topology either way).
    pub empty_iterations: usize,
}

impl PdResult {
    /// The links covered by the discovered path set.
    pub fn covered_links(&self) -> HashSet<(AsId, IfId)> {
        self.paths
            .iter()
            .flat_map(|p| p.links.iter().copied())
            .collect()
    }
}

/// Drives the iterative PD workflow for one (origin, target) pair on top of a simulation.
pub struct PdWorkflow {
    origin: AsId,
    target: AsId,
    /// Desired number of disjoint paths (20 in the paper's setup).
    max_paths: usize,
    /// Beaconing rounds to run per iteration (enough for the pull beacons to reach the target
    /// and return).
    rounds_per_iteration: usize,
    /// Stop after this many consecutive iterations without progress — iterations whose
    /// only returns duplicate already-known paths count just like zero-return iterations.
    max_empty_iterations: usize,
    next_algorithm_id: u64,
}

impl PdWorkflow {
    /// Creates a workflow for discovering up to `max_paths` disjoint paths from `origin` to
    /// `target`.
    pub fn new(origin: AsId, target: AsId, max_paths: usize) -> Self {
        PdWorkflow {
            origin,
            target,
            max_paths,
            rounds_per_iteration: 6,
            max_empty_iterations: 2,
            next_algorithm_id: 1_000,
        }
    }

    /// Overrides the number of beaconing rounds run per pull iteration.
    #[must_use]
    pub fn with_rounds_per_iteration(mut self, rounds: usize) -> Self {
        self.rounds_per_iteration = rounds.max(1);
        self
    }

    /// Overrides the first algorithm id this workflow publishes its per-iteration
    /// avoidance programs under. Workflows that may run concurrently — the PD campaign
    /// runs one per `(origin, target)` pair on cloned simulation snapshots that **share**
    /// the on-demand algorithm store — must use disjoint id ranges, or two workflows with
    /// the same origin would overwrite each other's published modules mid-flight.
    #[must_use]
    pub fn with_algorithm_id_base(mut self, base: u64) -> Self {
        self.next_algorithm_id = base;
        self
    }

    /// Runs the workflow: seeds from the origin's HD paths to the target, then iterates
    /// on-demand + pull-based rounds that avoid all links discovered so far.
    pub fn run(&mut self, sim: &mut Simulation) -> Result<PdResult> {
        let mut result = PdResult::default();
        let mut avoid: HashSet<(AsId, IfId)> = HashSet::new();

        // Seed with the HD paths already registered at the origin (paper: "starting from a
        // non-empty set of paths ... discovered by other algorithms; we use HD").
        for seed in self
            .paths_at_origin(sim, "HD")?
            .into_iter()
            .take(self.max_paths)
        {
            avoid.extend(seed.links.iter().copied());
            result.paths.push(seed);
        }

        // Paths already known by link sequence: the seeds plus everything a previous PD
        // run (or an overlapping campaign pair) already registered at the origin. An
        // iteration only makes progress when it yields a path *not* in this set — a
        // return that merely duplicates a known path counts as empty, exactly like a
        // zero-return iteration.
        let mut known: HashSet<Vec<(AsId, IfId)>> =
            result.paths.iter().map(|p| p.links.clone()).collect();
        for p in self.paths_at_origin(sim, "PD")? {
            known.insert(p.links);
        }

        let mut consecutive_empty = 0usize;
        while result.paths.len() < self.max_paths && consecutive_empty < self.max_empty_iterations {
            result.iterations += 1;

            // Publish the per-iteration avoidance algorithm and originate on-demand,
            // pull-based beacons on every interface of the origin.
            let program = pd_round_program(avoid.iter().copied(), 20);
            let algorithm_id = AlgorithmId(self.next_algorithm_id);
            self.next_algorithm_id += 1;
            let reference = {
                let node = sim.node(self.origin)?;
                node.publish_algorithm(algorithm_id, &program)
            };
            let interfaces: Vec<IfId> = sim
                .topology()
                .as_node(self.origin)?
                .interfaces
                .keys()
                .copied()
                .collect();
            {
                let node = sim.node_mut(self.origin)?;
                node.clear_extra_originations();
                node.add_origination(
                    OriginationSpec::plain(interfaces).with_extensions(
                        PcbExtensions::none()
                            .with_target(self.target)
                            .with_algorithm(reference),
                    ),
                );
            }

            sim.run_rounds(self.rounds_per_iteration)?;

            // Harvest: among the paths now registered at the origin, keep the first
            // genuinely new one (lowest latency, deterministically) as the iteration's
            // contribution. Known link sequences — including re-registrations that only
            // refreshed an existing path — never count as progress.
            let candidates = self.paths_at_origin(sim, "PD")?;
            let candidate_links: Vec<Vec<(AsId, IfId)>> =
                candidates.iter().map(|p| p.links.clone()).collect();
            let selected = first_new_path(candidates, &known, &avoid);
            // Everything observed this iteration is known from now on; a later iteration
            // re-delivering one of these paths must not be able to claim it as progress.
            known.extend(candidate_links);

            if let Some(first) = selected {
                avoid.extend(first.links.iter().copied());
                result.paths.push(first);
                consecutive_empty = 0;
            } else {
                consecutive_empty += 1;
                result.empty_iterations += 1;
            }
        }

        // Stop originating pull beacons once done.
        sim.node_mut(self.origin)?.clear_extra_originations();
        Ok(result)
    }

    /// The paths `algorithm` currently has registered at the origin towards the target: a
    /// targeted query on the origin node's path service — not a sim-wide
    /// `registered_paths()` walk, which would clone every path of every node (once per
    /// pull iteration, for the PD paths). The per-group order matches what the sim-wide
    /// walk filtered down to, so the seeds and the harvest see paths in the identical
    /// sequence.
    fn paths_at_origin(&self, sim: &Simulation, algorithm: &str) -> Result<Vec<RegisteredPath>> {
        Ok(sim
            .node(self.origin)?
            .path_service()
            .paths_to_by(self.target, algorithm)
            .into_iter()
            .map(|p| RegisteredPath {
                holder: self.origin,
                origin: p.destination,
                algorithm: p.algorithm,
                group: p.group,
                origin_interface: p.destination_interface,
                holder_interface: p.local_interface,
                metrics: p.metrics,
                links: p.links,
            })
            .collect())
    }
}

/// The harvest decision of one PD iteration: the lowest-latency candidate whose link
/// sequence is neither already known nor touching the avoid set. `None` means the
/// iteration made no progress — including when returns arrived but all of them duplicated
/// already-known paths, which the old positional (`skip(count)`) harvest miscounted as
/// progress whenever a duplicate registration shifted the registration order.
fn first_new_path(
    candidates: Vec<RegisteredPath>,
    known: &HashSet<Vec<(AsId, IfId)>>,
    avoid: &HashSet<(AsId, IfId)>,
) -> Option<RegisteredPath> {
    let mut fresh: Vec<RegisteredPath> = candidates
        .into_iter()
        .filter(|p| !known.contains(&p.links))
        .filter(|p| !p.links.iter().any(|l| avoid.contains(l)))
        .collect();
    fresh.sort_by_key(|p| p.metrics.latency);
    fresh.into_iter().next()
}

/// Hard cap on campaign workers, matching the other execution engines' caps.
pub const MAX_CAMPAIGN_WORKERS: usize = 64;

/// Everything one `(origin, target)` pair of a campaign produced.
#[derive(Debug, Clone)]
pub struct PdPairResult {
    /// The AS that ran the pull workflow.
    pub origin: AsId,
    /// The target AS disjoint paths were discovered towards.
    pub target: AsId,
    /// The workflow outcome (paths, iteration counts).
    pub result: PdResult,
    /// Non-zero per-interface-per-period pull-beacon overhead samples of the pair's run
    /// (the PD series of Fig. 8c).
    pub pull_overhead: Vec<u64>,
    /// Whether the pair was a self-pair (`origin == target`) and was short-circuited:
    /// no snapshot was taken and no pull iteration ran — there are no paths from an AS to
    /// itself to discover, and before the short-circuit such pairs burned a full snapshot
    /// plus `max_empty_iterations` rounds of pull traffic to conclude exactly that.
    pub self_pair: bool,
    /// Wall-clock time of the pair's run, snapshot setup included (feeds the fig8c
    /// per-pair throughput table; **not** part of the deterministic fingerprint).
    pub elapsed: Duration,
}

/// The Fig. 8 disjointness campaign: N independent `(origin, target)` pull workflows,
/// each on its own snapshot of a warmed-up base simulation, fanned out over an
/// engine-style scoped worker pool.
///
/// **Snapshots.** Each pair runs on a copy-on-write
/// [`Simulation::snapshot_reachable_from`] of the base — two pointer copies per node at
/// setup, restricted to the origin's connected component, with a node's stores
/// materialized only as the pair's own pull traffic writes to them. The output is byte-identical to running
/// each pair's [`PdWorkflow`] on a full `Simulation::clone` of the base (pinned by
/// `tests/pd_determinism.rs`, which keeps that loop as its oracle); the
/// `pd_snapshot_cost` benchmark tracks what the snapshot saves over the clone.
///
/// **Determinism.** Pairs never share mutable state: each workflow owns a full
/// [`Simulation`] snapshot, and the only shared structure — the on-demand algorithm
/// store — is partitioned by giving every pair a disjoint algorithm-id range
/// ([`PdCampaign::ALGORITHM_ID_BASE`] + index × [`PdCampaign::ALGORITHM_IDS_PER_PAIR`],
/// through [`PdWorkflow::with_algorithm_id_base`]). Results land in per-pair slots and are
/// merged in pair order, so a run with any `parallelism` value is byte-identical to the
/// sequential pair-by-pair loop; errors surface deterministically (first failing pair in
/// pair order wins). `tests/pd_determinism.rs` and the CI determinism job enforce this
/// for `--pd-parallelism {1,4}` stacked with every other parallelism knob.
///
/// Self-pairs (`origin == target`) are short-circuited without taking a snapshot — their
/// [`PdPairResult::self_pair`] flag is set and their result is empty.
///
/// ```
/// use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
/// use irec_sim::{PdCampaign, Simulation, SimulationConfig};
/// use irec_topology::builder::{figure1, figure1_topology};
/// use std::sync::Arc;
///
/// // Warm a base simulation so HD has seeded paths for the workflows to start from.
/// let mut base = Simulation::new(
///     Arc::new(figure1_topology()),
///     SimulationConfig::default(),
///     |_| {
///         NodeConfig::default()
///             .with_policy(PropagationPolicy::All)
///             .with_racs(vec![
///                 RacConfig::static_rac("HD", "HD"),
///                 RacConfig::on_demand_rac("on-demand"),
///             ])
///     },
/// ).unwrap();
/// base.run_rounds(4).unwrap();
///
/// // Two pairs, two workers, one COW snapshot per pair; the base is never mutated.
/// let results = PdCampaign::new(
///     vec![(figure1::SRC, figure1::DST), (figure1::DST, figure1::SRC)],
///     4,
/// )
/// .with_rounds_per_iteration(3)
/// .with_parallelism(2)
/// .run(&base)
/// .unwrap();
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(|r| !r.result.paths.is_empty()));
/// assert_eq!(base.rounds_run(), 4);
/// ```
pub struct PdCampaign {
    pairs: Vec<(AsId, AsId)>,
    max_paths: usize,
    rounds_per_iteration: usize,
    parallelism: usize,
}

impl PdCampaign {
    /// The first algorithm id pair 0 publishes its per-iteration programs under.
    pub const ALGORITHM_ID_BASE: u64 = 1_000;

    /// The size of every pair's algorithm-id range: pair `index` starts at
    /// [`PdCampaign::ALGORITHM_ID_BASE`] + `index` × this. Ranges are disjoint across pairs
    /// (orders of magnitude beyond any plausible iteration count), which keeps
    /// concurrently-running workflows of the same origin from overwriting each other in the
    /// shared algorithm store. The ids end up inside signed PCBs, so a loop that is to
    /// reproduce a campaign must use the same ranges.
    pub const ALGORITHM_IDS_PER_PAIR: u64 = 1_000_000;

    /// Creates a campaign discovering up to `max_paths` disjoint paths for every pair.
    pub fn new(pairs: Vec<(AsId, AsId)>, max_paths: usize) -> Self {
        PdCampaign {
            pairs,
            max_paths,
            rounds_per_iteration: 6,
            parallelism: 1,
        }
    }

    /// Overrides the number of beaconing rounds each workflow runs per pull iteration.
    #[must_use]
    pub fn with_rounds_per_iteration(mut self, rounds: usize) -> Self {
        self.rounds_per_iteration = rounds.max(1);
        self
    }

    /// Sets the campaign's worker count (clamped to `1..=`[`MAX_CAMPAIGN_WORKERS`]).
    /// `1` runs the pairs sequentially; the output is byte-identical either way.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.clamp(1, MAX_CAMPAIGN_WORKERS);
        self
    }

    /// The campaign's `(origin, target)` pairs, in run order.
    pub fn pairs(&self) -> &[(AsId, AsId)] {
        &self.pairs
    }

    /// The first algorithm id of pair `index`'s range.
    fn algorithm_id_base(index: usize) -> u64 {
        Self::ALGORITHM_ID_BASE + index as u64 * Self::ALGORITHM_IDS_PER_PAIR
    }

    /// Runs every pair's workflow against its own snapshot of `base` and returns the
    /// results in pair order. `base` itself is never mutated.
    pub fn run(&self, base: &Simulation) -> Result<Vec<PdPairResult>> {
        let run_pair = |index: usize, origin: AsId, target: AsId| -> Result<PdPairResult> {
            let start = Instant::now();
            if origin == target {
                // There are no origin→origin paths to discover: without this
                // short-circuit a self-pair paid for a full snapshot and
                // `max_empty_iterations` iterations of pull traffic to itself before
                // concluding exactly that.
                return Ok(PdPairResult {
                    origin,
                    target,
                    result: PdResult::default(),
                    pull_overhead: Vec::new(),
                    self_pair: true,
                    elapsed: start.elapsed(),
                });
            }
            let mut sim = base.snapshot_reachable_from(origin).into_simulation();
            let mut workflow = PdWorkflow::new(origin, target, self.max_paths)
                .with_rounds_per_iteration(self.rounds_per_iteration)
                .with_algorithm_id_base(Self::algorithm_id_base(index));
            let result = workflow.run(&mut sim)?;
            Ok(PdPairResult {
                origin,
                target,
                result,
                pull_overhead: sim.overhead_pull().nonzero_samples(),
                self_pair: false,
                elapsed: start.elapsed(),
            })
        };

        let workers = self.parallelism.min(self.pairs.len()).max(1);
        if workers <= 1 {
            return self
                .pairs
                .iter()
                .enumerate()
                .map(|(index, &(origin, target))| run_pair(index, origin, target))
                .collect();
        }

        // Fan the pairs out over the claim-cursor pool: an idle worker claims the next
        // unstarted pair, so a long pull workflow does not hold up the pairs behind it.
        // Results land in slots indexed by pair, so the merge order is independent of
        // scheduling.
        let slots: Vec<Mutex<Option<Result<PdPairResult>>>> =
            self.pairs.iter().map(|_| Mutex::new(None)).collect();
        run_claimed(self.pairs.len(), workers, None, |index| {
            let (origin, target) = self.pairs[index];
            *slots[index].lock() = Some(run_pair(index, origin, target));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every pair slot is filled once the scope joins")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimulationConfig;
    use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
    use irec_topology::builder::{figure1, figure1_topology};
    use std::sync::Arc;

    fn sim_with_hd_and_on_demand() -> Simulation {
        let topology = Arc::new(figure1_topology());
        Simulation::new(topology, SimulationConfig::default(), |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![
                    RacConfig::static_rac("HD", "HD"),
                    RacConfig::on_demand_rac("on-demand"),
                ])
        })
        .unwrap()
    }

    #[test]
    fn pd_workflow_discovers_disjoint_paths_on_figure1() {
        let mut sim = sim_with_hd_and_on_demand();
        // Warm up so HD has seeded paths from Src to Dst.
        sim.run_rounds(6).unwrap();

        let mut workflow =
            PdWorkflow::new(figure1::SRC, figure1::DST, 3).with_rounds_per_iteration(4);
        let result = workflow.run(&mut sim).unwrap();

        assert!(
            !result.paths.is_empty(),
            "PD must at least keep the HD seeds"
        );
        // Figure 1 has two fully link-disjoint Src->Dst routes (via X and via Y); PD should
        // find at least two mutually disjoint paths.
        let tlf = irec_metrics::tlf::min_links_to_disconnect(
            &result
                .paths
                .iter()
                .map(|p| p.links.clone())
                .collect::<Vec<_>>(),
        );
        assert!(
            tlf >= 2,
            "expected at least 2 disjoint paths, TLF was {tlf}"
        );
    }

    #[test]
    fn pull_based_on_demand_beacons_return_to_the_origin() {
        // Exercise the full pull + on-demand pipeline without HD seeds: the source
        // originates targeted beacons carrying an IRVM algorithm; every on-path AS runs it;
        // the target returns matching beacons; the source registers them as PD paths.
        let topology = Arc::new(figure1_topology());
        let mut sim = Simulation::new(topology, SimulationConfig::default(), |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::on_demand_rac("on-demand")])
        })
        .unwrap();
        let program = pd_round_program([], 20);
        let reference = sim
            .node(figure1::SRC)
            .unwrap()
            .publish_algorithm(AlgorithmId(1), &program);
        let interfaces: Vec<IfId> = sim
            .topology()
            .as_node(figure1::SRC)
            .unwrap()
            .interfaces
            .keys()
            .copied()
            .collect();
        sim.node_mut(figure1::SRC).unwrap().add_origination(
            OriginationSpec::plain(interfaces).with_extensions(
                PcbExtensions::none()
                    .with_target(figure1::DST)
                    .with_algorithm(reference),
            ),
        );
        sim.run_rounds(6).unwrap();
        let pd_paths: Vec<_> = sim
            .registered_paths_by("PD")
            .into_iter()
            .filter(|p| p.holder == figure1::SRC && p.origin == figure1::DST)
            .collect();
        assert!(
            !pd_paths.is_empty(),
            "pull-based beacons must be returned and registered at the origin"
        );
        // Pull beacons also show up in the pull-overhead counter.
        assert!(sim.overhead_pull().total() > 0);
    }

    #[test]
    fn pd_workflow_terminates_when_no_more_disjoint_paths_exist() {
        let mut sim = sim_with_hd_and_on_demand();
        sim.run_rounds(6).unwrap();
        // Ask for far more paths than the topology can provide.
        let mut workflow =
            PdWorkflow::new(figure1::SRC, figure1::DST, 20).with_rounds_per_iteration(3);
        let result = workflow.run(&mut sim).unwrap();
        assert!(result.paths.len() < 20);
        assert!(
            result.empty_iterations >= 1,
            "must stop via empty iterations"
        );
        // All discovered paths connect the right pair.
        for p in &result.paths {
            assert_eq!(p.holder, figure1::SRC);
            assert_eq!(p.origin, figure1::DST);
        }
    }

    #[test]
    fn covered_links_union() {
        let result = PdResult {
            paths: vec![],
            iterations: 0,
            empty_iterations: 0,
        };
        assert!(result.covered_links().is_empty());
    }

    fn harvest_path(latency_ms: u64, links: &[(u64, u32)]) -> RegisteredPath {
        RegisteredPath {
            holder: AsId(1),
            origin: AsId(9),
            algorithm: "PD".to_string(),
            group: irec_types::InterfaceGroupId::DEFAULT,
            origin_interface: IfId(1),
            holder_interface: IfId(2),
            metrics: irec_types::PathMetrics {
                latency: irec_types::Latency::from_millis(latency_ms),
                bandwidth: irec_types::Bandwidth::from_mbps(100),
                hops: links.len() as u32,
            },
            links: links.iter().map(|&(a, i)| (AsId(a), IfId(i))).collect(),
        }
    }

    /// Regression for the empty-iteration accounting edge: an iteration whose only
    /// returns duplicate already-known paths yields no progress — `first_new_path` must
    /// return `None` so the iteration counts toward `max_empty_iterations`.
    #[test]
    fn duplicate_only_returns_are_not_progress() {
        let known_path = harvest_path(10, &[(2, 1), (9, 3)]);
        let known: HashSet<Vec<(AsId, IfId)>> = [known_path.links.clone()].into();
        let avoid = HashSet::new();
        assert_eq!(
            first_new_path(vec![known_path.clone(), known_path], &known, &avoid),
            None
        );
    }

    /// Regression for the positional-skip bug the set-based harvest replaces: a fresh
    /// path must be found even when a duplicate registration shifted the registration
    /// order so that the fresh path sorts *before* the already-known ones (the old
    /// `skip(count)` harvest would skip the fresh path and resurrect a known one).
    #[test]
    fn fresh_path_is_found_regardless_of_registration_order() {
        let known_path = harvest_path(5, &[(2, 1), (9, 3)]);
        let fresh = harvest_path(20, &[(4, 2), (5, 1), (9, 7)]);
        let known: HashSet<Vec<(AsId, IfId)>> = [known_path.links.clone()].into();
        let avoid = HashSet::new();
        for candidates in [
            vec![fresh.clone(), known_path.clone()],
            vec![known_path.clone(), fresh.clone()],
        ] {
            assert_eq!(
                first_new_path(candidates, &known, &avoid),
                Some(fresh.clone())
            );
        }
        // A fresh link sequence touching the avoid set is still rejected.
        let avoid: HashSet<(AsId, IfId)> = [(AsId(4), IfId(2))].into();
        assert_eq!(first_new_path(vec![fresh], &known, &avoid), None);
    }

    /// End-to-end: a second workflow over an already-exhausted pair receives only
    /// duplicate returns, and every such iteration counts as empty.
    #[test]
    fn duplicate_only_iterations_count_toward_termination() {
        let mut sim = sim_with_hd_and_on_demand();
        sim.run_rounds(6).unwrap();
        let mut first =
            PdWorkflow::new(figure1::SRC, figure1::DST, 20).with_rounds_per_iteration(3);
        first.run(&mut sim).unwrap();

        // The topology is exhausted: the second workflow's pulls can only re-deliver
        // paths the first one already registered (a disjoint id range keeps its published
        // programs from clobbering the first workflow's modules in the shared store).
        let mut second = PdWorkflow::new(figure1::SRC, figure1::DST, 20)
            .with_rounds_per_iteration(3)
            .with_algorithm_id_base(500_000);
        let result = second.run(&mut sim).unwrap();
        assert!(
            result.empty_iterations >= 1,
            "duplicate-only iterations must count as empty"
        );
        assert_eq!(
            result.iterations, result.empty_iterations,
            "every iteration of the exhausted pair must be empty, got {result:?}"
        );
    }

    fn pair_fingerprint(results: &[PdPairResult]) -> Vec<(AsId, AsId, PdResult, Vec<u64>)> {
        results
            .iter()
            .map(|r| {
                (
                    r.origin,
                    r.target,
                    r.result.clone(),
                    r.pull_overhead.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn campaign_is_byte_identical_across_worker_counts_and_leaves_base_untouched() {
        let mut base = sim_with_hd_and_on_demand();
        base.run_rounds(6).unwrap();
        let base_paths = base.registered_paths();
        let base_rounds = base.rounds_run();

        let pairs = vec![
            (figure1::SRC, figure1::DST),
            (figure1::DST, figure1::SRC),
            (figure1::SRC, figure1::DST), // a duplicate pair must also be safe
        ];
        // `max_paths` above the HD seed count, so the workflows actually iterate and the
        // comparison covers the pull pipeline, not just snapshot cloning.
        let sequential = PdCampaign::new(pairs.clone(), 6)
            .with_rounds_per_iteration(3)
            .run(&base)
            .unwrap();
        assert_eq!(sequential.len(), pairs.len());
        assert!(sequential.iter().any(|r| !r.result.paths.is_empty()));
        assert!(
            sequential
                .iter()
                .any(|r| r.result.iterations > 0 && !r.pull_overhead.is_empty()),
            "no pair ran a pull iteration — the campaign comparison would be vacuous"
        );

        for parallelism in [2usize, 4, 8] {
            let parallel = PdCampaign::new(pairs.clone(), 6)
                .with_rounds_per_iteration(3)
                .with_parallelism(parallelism)
                .run(&base)
                .unwrap();
            assert_eq!(
                pair_fingerprint(&parallel),
                pair_fingerprint(&sequential),
                "campaign diverged at parallelism {parallelism}"
            );
        }

        // The base simulation is a read-only template: no clock movement, no new paths.
        assert_eq!(base.rounds_run(), base_rounds);
        assert_eq!(base.registered_paths(), base_paths);
    }

    /// Regression: self-pairs must be short-circuited with explicit accounting instead of
    /// burning a snapshot plus `max_empty_iterations` iterations of pull traffic.
    #[test]
    fn self_pairs_short_circuit_with_explicit_accounting() {
        let mut base = sim_with_hd_and_on_demand();
        base.run_rounds(6).unwrap();
        let results = PdCampaign::new(
            vec![
                (figure1::SRC, figure1::SRC), // self-pair
                (figure1::SRC, figure1::DST),
                (figure1::DST, figure1::DST), // self-pair
            ],
            6,
        )
        .with_rounds_per_iteration(3)
        .run(&base)
        .unwrap();

        assert_eq!(results.len(), 3);
        for r in [&results[0], &results[2]] {
            assert!(r.self_pair, "self-pair must be flagged");
            assert_eq!(r.result, PdResult::default(), "no iterations may run");
            assert!(r.pull_overhead.is_empty(), "no pull traffic may be sent");
        }
        // The real pair still runs normally, with the same disjoint id range it would get
        // in a self-pair-free campaign (index-based, so accounting stays per-slot).
        assert!(!results[1].self_pair);
        assert!(!results[1].result.paths.is_empty());
        // Parallel runs agree byte-for-byte on the mixed pair list too.
        let parallel = PdCampaign::new(
            vec![
                (figure1::SRC, figure1::SRC),
                (figure1::SRC, figure1::DST),
                (figure1::DST, figure1::DST),
            ],
            6,
        )
        .with_rounds_per_iteration(3)
        .with_parallelism(4)
        .run(&base)
        .unwrap();
        assert_eq!(pair_fingerprint(&parallel), pair_fingerprint(&results));
        assert_eq!(
            parallel.iter().map(|r| r.self_pair).collect::<Vec<_>>(),
            vec![true, false, true]
        );
    }
}
