//! Score-based routing algorithms: 1SP, k-shortest (5SP / legacy SCION), delay optimization
//! (DON/DOB), widest path and shortest-widest.
//!
//! All of them share the same structure: compute a cost for every candidate (from the
//! received or extended path metrics) and keep, per egress interface, the `k` cheapest
//! eligible ones, ties broken by candidate index so that repeated runs are stable. The
//! generic machinery is the crate's ranked selection behind [`ScoredAlgorithm`]; the
//! concrete algorithms are thin scoring functions on top.

use crate::frame::Frame;
use crate::{AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_types::{PathMetrics, Result};

/// A scoring function: maps the (possibly extended) path metrics of a candidate to a scalar
/// cost (lower is better).
pub trait ScoreFn: Send + Sync {
    /// Computes the cost of a candidate from its metrics.
    fn cost(&self, metrics: &PathMetrics, candidate: &Candidate) -> i128;
}

impl<F> ScoreFn for F
where
    F: Fn(&PathMetrics, &Candidate) -> i128 + Send + Sync,
{
    fn cost(&self, metrics: &PathMetrics, candidate: &Candidate) -> i128 {
        self(metrics, candidate)
    }
}

/// Generic top-k-by-score selection, the shared engine of all scored algorithms.
pub struct ScoredAlgorithm<F: ScoreFn> {
    name: String,
    score: F,
    /// Optional override of the per-egress selection budget (e.g. 1 for 1SP, 5 for 5SP);
    /// the effective budget is the minimum of this and the RAC's `max_selected`.
    k: Option<usize>,
}

impl<F: ScoreFn> ScoredAlgorithm<F> {
    /// Creates a scored algorithm.
    pub fn new(name: impl Into<String>, k: Option<usize>, score: F) -> Self {
        ScoredAlgorithm {
            name: name.into(),
            score,
            k,
        }
    }

    /// The selection for one interface as it was computed before the frame existed:
    /// filter, score and sort the whole batch. Kept as the oracle of [`crate::oracle`].
    #[cfg(test)]
    pub(crate) fn select_for_egress(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        egress: irec_types::IfId,
    ) -> Vec<usize> {
        let budget = self.k.unwrap_or(usize::MAX).min(ctx.max_selected);
        let mut scored: Vec<((i128, usize), usize)> = batch
            .candidates
            .iter()
            .enumerate()
            // Never propagate a beacon back out of the interface it arrived on, and never
            // extend a beacon that already contains the local AS (loop prevention).
            .filter(|(_, c)| c.ingress != egress && !c.pcb.contains_as(ctx.local_as.id))
            .map(|(i, c)| {
                let metrics = ctx.metrics_at_egress(c, egress);
                ((self.score.cost(&metrics, c), i), i)
            })
            .collect();
        scored.sort();
        scored.into_iter().take(budget).map(|(_, i)| i).collect()
    }
}

impl<F: ScoreFn> RoutingAlgorithm for ScoredAlgorithm<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = self.k.unwrap_or(usize::MAX).min(ctx.max_selected);
        Ok(
            Frame::new(batch, ctx).select_ranked(budget, |candidate, metrics| {
                Some(self.score.cost(metrics, &batch.candidates[candidate.index]))
            }),
        )
    }

    /// Every candidate is scored on its own and ties break by candidate index, so the
    /// `k` best of `A ∪ B` are among the `k` best of `A` and the members of `B`.
    fn union_composable(&self) -> bool {
        true
    }
}

/// **1SP** — propagate the single shortest (by AS-hop count) path per origin on every egress
/// interface. The baseline of the paper's Fig. 8.
pub struct ShortestPath {
    inner: ScoredAlgorithm<fn(&PathMetrics, &Candidate) -> i128>,
}

impl ShortestPath {
    /// Creates the 1SP algorithm.
    pub fn new() -> Self {
        ShortestPath {
            inner: ScoredAlgorithm::new("1SP", Some(1), |m: &PathMetrics, _: &Candidate| {
                m.hops as i128
            }),
        }
    }
}

impl Default for ShortestPath {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingAlgorithm for ShortestPath {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.inner.select(batch, ctx)
    }
    fn union_composable(&self) -> bool {
        self.inner.union_composable()
    }
}

/// **k-shortest paths** — 5SP with `k = 5`; with `k = 20` this is the legacy SCION control
/// service's selection (the baseline of the Fig. 6/7 benchmarks).
pub struct KShortestPaths {
    inner: ScoredAlgorithm<fn(&PathMetrics, &Candidate) -> i128>,
}

impl KShortestPaths {
    /// Creates a k-shortest-paths algorithm with the given `k`.
    pub fn new(k: usize) -> Self {
        KShortestPaths {
            inner: ScoredAlgorithm::new(
                format!("{k}SP"),
                Some(k),
                |m: &PathMetrics, _: &Candidate| m.hops as i128,
            ),
        }
    }

    /// The 5SP configuration of the paper's simulations.
    pub fn five() -> Self {
        Self::new(5)
    }

    /// The legacy SCION configuration (20 shortest paths) used in the Fig. 6/7 benchmarks.
    pub fn legacy_scion() -> Self {
        let mut alg = Self::new(20);
        alg.inner.name = "legacy-scion".to_string();
        alg
    }
}

impl RoutingAlgorithm for KShortestPaths {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.inner.select(batch, ctx)
    }
    fn union_composable(&self) -> bool {
        self.inner.union_composable()
    }
}

/// **DO — delay optimization**: select the lowest-latency paths. With
/// `AlgorithmContext::extend_paths` disabled this is the paper's **DON** configuration; with
/// it enabled (plus interface-grouped origination) it is **DOB**.
pub struct DelayOptimization {
    inner: ScoredAlgorithm<fn(&PathMetrics, &Candidate) -> i128>,
}

impl DelayOptimization {
    /// Creates the delay-optimization algorithm with the given per-egress budget.
    pub fn new(k: usize) -> Self {
        DelayOptimization {
            inner: ScoredAlgorithm::new("DO", Some(k), |m: &PathMetrics, _: &Candidate| {
                m.latency.as_micros() as i128
            }),
        }
    }
}

impl Default for DelayOptimization {
    fn default() -> Self {
        Self::new(irec_irvm::programs::DEFAULT_MAX_SELECTED as usize)
    }
}

impl RoutingAlgorithm for DelayOptimization {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.inner.select(batch, ctx)
    }
    fn union_composable(&self) -> bool {
        self.inner.union_composable()
    }
}

/// **Widest path** — select the highest-bottleneck-bandwidth paths (the file-transfer
/// criterion of the paper's Example #1).
pub struct WidestPath {
    inner: ScoredAlgorithm<fn(&PathMetrics, &Candidate) -> i128>,
}

impl WidestPath {
    /// Creates the widest-path algorithm with the given per-egress budget.
    pub fn new(k: usize) -> Self {
        WidestPath {
            inner: ScoredAlgorithm::new("widest", Some(k), |m: &PathMetrics, _: &Candidate| {
                -(m.bandwidth.as_kbps() as i128)
            }),
        }
    }
}

impl RoutingAlgorithm for WidestPath {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.inner.select(batch, ctx)
    }
    fn union_composable(&self) -> bool {
        self.inner.union_composable()
    }
}

/// **Shortest-widest** — lexicographically prefer the highest bandwidth, break ties by lowest
/// latency (the on-demand algorithm of the paper's Fig. 2c).
pub struct ShortestWidest {
    inner: ScoredAlgorithm<fn(&PathMetrics, &Candidate) -> i128>,
}

impl ShortestWidest {
    /// Creates the shortest-widest algorithm with the given per-egress budget.
    pub fn new(k: usize) -> Self {
        ShortestWidest {
            inner: ScoredAlgorithm::new(
                "shortest-widest",
                Some(k),
                |m: &PathMetrics, _: &Candidate| {
                    // Bandwidth dominates; latency, clamped below the scale factor, breaks ties.
                    const SCALE: i128 = 1 << 40;
                    -(m.bandwidth.as_kbps() as i128) * SCALE
                        + (m.latency.as_micros() as i128).min(SCALE - 1)
                },
            ),
        }
    }
}

impl RoutingAlgorithm for ShortestWidest {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.inner.select(batch, ctx)
    }
    fn union_composable(&self) -> bool {
        self.inner.union_composable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{candidate, local_as};
    use irec_types::{AsId, IfId, InterfaceGroupId};

    /// Batch with three candidates of distinct shapes:
    /// 0: 2 hops, 20 ms, 10 Mbps    (short, thin)
    /// 1: 3 hops, 30 ms, 100 Mbps   (medium)
    /// 2: 3 hops, 40 ms, 1000 Mbps  (long, wide)
    fn batch() -> CandidateBatch {
        CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate(1, &[(10, 10), (10, 10)], 1),
                candidate(1, &[(10, 100), (10, 100), (10, 100)], 1),
                candidate(1, &[(10, 1000), (10, 1000), (20, 1000)], 2),
            ],
        )
    }

    fn ctx(node: &irec_topology::AsNode) -> AlgorithmContext<'_> {
        AlgorithmContext::new(node, vec![IfId(3)], 20)
    }

    #[test]
    fn one_sp_selects_single_shortest() {
        let node = local_as();
        let r = ShortestPath::new().select(&batch(), &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0]);
    }

    #[test]
    fn ksp_selects_k_paths_in_hop_order() {
        let node = local_as();
        let r = KShortestPaths::new(2)
            .select(&batch(), &ctx(&node))
            .unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 1]);
        let r5 = KShortestPaths::five()
            .select(&batch(), &ctx(&node))
            .unwrap();
        assert_eq!(r5.per_egress[&IfId(3)].len(), 3); // only 3 candidates exist
    }

    #[test]
    fn legacy_scion_name_and_budget() {
        let alg = KShortestPaths::legacy_scion();
        assert_eq!(alg.name(), "legacy-scion");
        let node = local_as();
        let r = alg.select(&batch(), &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 3);
    }

    #[test]
    fn delay_optimization_prefers_low_latency() {
        let node = local_as();
        let r = DelayOptimization::new(2)
            .select(&batch(), &ctx(&node))
            .unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 1]);
    }

    #[test]
    fn widest_prefers_high_bandwidth() {
        let node = local_as();
        let r = WidestPath::new(1).select(&batch(), &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![2]);
    }

    #[test]
    fn shortest_widest_breaks_bandwidth_ties_by_latency() {
        let node = local_as();
        let mut b = batch();
        // Add a candidate with the same bandwidth as candidate 2 but lower latency.
        b.candidates.push(candidate(1, &[(5, 1000), (5, 1000)], 1));
        let r = ShortestWidest::new(2).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![3, 2]);
    }

    #[test]
    fn candidates_never_propagate_back_on_their_ingress() {
        let node = local_as();
        let context = AlgorithmContext::new(&node, vec![IfId(1), IfId(2)], 20);
        let r = KShortestPaths::new(20).select(&batch(), &context).unwrap();
        // Candidates 0 and 1 arrived on if1: they must not be selected for egress if1.
        assert!(!r.per_egress[&IfId(1)].contains(&0));
        assert!(!r.per_egress[&IfId(1)].contains(&1));
        assert!(r.per_egress[&IfId(1)].contains(&2));
        // Candidate 2 arrived on if2.
        assert!(!r.per_egress[&IfId(2)].contains(&2));
    }

    #[test]
    fn loop_containing_candidates_are_skipped() {
        let node = local_as();
        // A candidate whose path already contains the local AS (AS 500).
        let looped = candidate(500, &[(10, 100)], 1);
        let b = CandidateBatch::new(AsId(500), InterfaceGroupId::DEFAULT, vec![looped]);
        let r = DelayOptimization::new(5).select(&b, &ctx(&node)).unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }

    #[test]
    fn dob_extended_paths_can_change_the_winner() {
        // Two candidates with equal received latency, arriving on interfaces at different
        // distances from the egress: extended-path optimization must prefer the closer one.
        let node = local_as(); // if1 Zurich, if2 Paris, if3 New York
        let c_zurich = candidate(1, &[(10, 100)], 1);
        let c_paris = candidate(2, &[(10, 100)], 2);
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![c_zurich, c_paris]);
        // Without extension (DON): tie, candidate 0 wins by index.
        let don = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        let r_don = DelayOptimization::new(1).select(&b, &don).unwrap();
        assert_eq!(r_don.per_egress[&IfId(3)], vec![0]);
        // With extension (DOB): Paris is closer to New York than Zurich is, so candidate 1
        // has lower extended latency and wins.
        let dob = AlgorithmContext::new(&node, vec![IfId(3)], 20).with_extended_paths(true);
        let r_dob = DelayOptimization::new(1).select(&b, &dob).unwrap();
        assert_eq!(r_dob.per_egress[&IfId(3)], vec![1]);
    }

    #[test]
    fn scored_selectors_are_union_composable() {
        // select(A ∪ B) = select(select(A) ∪ B), candidates kept in their relative order —
        // ties included: candidates 1 and 3 tie on every metric and the earlier one wins.
        let node = local_as();
        let context = AlgorithmContext::new(&node, vec![IfId(2), IfId(3)], 2);
        let mut all = batch().candidates;
        all.insert(3, all[1].clone());
        all.push(candidate(1, &[(5, 1000), (5, 1000)], 1));
        let algorithms: [&dyn RoutingAlgorithm; 5] = [
            &ShortestPath::new(),
            &KShortestPaths::new(2),
            &DelayOptimization::new(2),
            &WidestPath::new(2),
            &ShortestWidest::new(2),
        ];
        for algorithm in algorithms {
            assert!(algorithm.union_composable());
            let of = |candidates: Vec<Candidate>| {
                CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, candidates)
            };
            let whole = algorithm.select(&of(all.clone()), &context).unwrap();
            for split in 1..all.len() {
                let kept = algorithm
                    .select(&of(all[..split].to_vec()), &context)
                    .unwrap()
                    .distinct_candidates();
                // Winners of A, then B, as indices into `all`.
                let fed: Vec<usize> = kept.into_iter().chain(split..all.len()).collect();
                let reduced = algorithm
                    .select(&of(fed.iter().map(|&i| all[i].clone()).collect()), &context)
                    .unwrap();
                for (egress, selected) in &reduced.per_egress {
                    let selected: Vec<usize> = selected.iter().map(|&i| fed[i]).collect();
                    assert_eq!(selected, whole.per_egress[egress], "{}", algorithm.name());
                }
            }
        }
    }

    #[test]
    fn empty_batch_produces_empty_selection() {
        let node = local_as();
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![]);
        let r = ShortestPath::new().select(&b, &ctx(&node)).unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
        assert_eq!(r.total_selected(), 0);
    }

    #[test]
    fn budget_is_min_of_k_and_context() {
        let node = local_as();
        let mut context = ctx(&node);
        context.max_selected = 1;
        let r = KShortestPaths::new(5).select(&batch(), &context).unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 1);
    }
}
