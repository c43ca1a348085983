//! **ACO** — a seeded ant-colony multi-criteria selector.
//!
//! Where the score-based selectors rank candidates by one criterion, ACO searches over the
//! blended (latency, hop count, bandwidth) cost with a stochastic-looking but fully
//! deterministic procedure: a fixed number of ants per iteration sample candidate subsets
//! with probability proportional to `pheromone × heuristic`, the iteration-best subset
//! deposits pheromone, pheromone evaporates, and after the per-round iteration budget the
//! candidates are ranked by accumulated pheromone.
//!
//! Determinism is load-bearing (the goldens and the delta oracle compare runs byte for
//! byte): all randomness flows through splitmix64 streams seeded from
//! `(algorithm seed, origin, group, egress, iteration, ant)`, all arithmetic is integer, and
//! `select` takes `&self` — no state survives a call, so no call observes another.

use crate::frame::{EgressUse, Frame};
use crate::{AlgorithmContext, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_types::{IfId, Result};

/// Default seed used by the bare `aco` catalog name.
pub const DEFAULT_ACO_SEED: u64 = 1;

/// Default per-round iteration budget used by the bare `aco` catalog name.
pub const DEFAULT_ACO_ITERATIONS: usize = 16;

/// Upper bound on the per-round iteration budget accepted by the catalog.
pub const MAX_ACO_ITERATIONS: usize = 1024;

/// Ants launched per iteration.
const ANTS: usize = 8;

/// Initial pheromone on every candidate.
const PHEROMONE_INIT: u64 = 1_000;

/// Pheromone deposited on each member of the iteration-best subset.
const DEPOSIT: u64 = 400;

/// Fixed-point scale of the heuristic attractiveness term.
const HEURISTIC_SCALE: u64 = 1 << 20;

/// The seeded ant-colony selector. See the module docs for the procedure and the
/// determinism contract.
pub struct AntColony {
    seed: u64,
    iterations: usize,
    k: usize,
}

impl AntColony {
    /// Creates the selector with the given seed, per-round iteration budget and per-egress
    /// selection budget.
    pub fn new(seed: u64, iterations: usize, k: usize) -> Self {
        AntColony {
            seed,
            iterations: iterations.max(1),
            k,
        }
    }

    /// The selector's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The selector's per-round iteration budget.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// One colony run: the interface seeds the random streams, so every interface gets
    /// its own, whoever is eligible.
    fn select_for_egress(
        &self,
        batch: &CandidateBatch,
        frame: &Frame<'_>,
        budget: usize,
        egress: IfId,
    ) -> Vec<usize> {
        // Eligible candidates with their blended multi-criteria cost.
        let eligible: Vec<(usize, u64)> = frame
            .eligible_at(egress)
            .map(|(_, candidate)| {
                let m = frame.metrics_at(candidate, egress);
                let latency_us = m.latency.as_micros();
                let hops = u64::from(m.hops);
                // Wider paths are cheaper; +1 keeps the division total.
                let inverse_bw = 1_000_000_000 / (1 + m.bandwidth.as_kbps());
                (candidate.index, latency_us + 50_000 * hops + inverse_bw)
            })
            .collect();
        if eligible.is_empty() || budget == 0 {
            return Vec::new();
        }
        let subset = budget.min(eligible.len());

        let mut pheromone = vec![PHEROMONE_INIT; eligible.len()];
        let heuristic: Vec<u64> = eligible
            .iter()
            .map(|&(_, cost)| (HEURISTIC_SCALE / (1 + cost)).max(1))
            .collect();

        for iteration in 0..self.iterations {
            // Iteration-best subset: lowest total cost, ties broken by member positions.
            let mut best: Option<(u64, Vec<usize>)> = None;
            for ant in 0..ANTS {
                let mut rng = stream_seed(&[
                    self.seed,
                    batch.origin.value(),
                    u64::from(batch.group.value()),
                    u64::from(egress.value()),
                    iteration as u64,
                    ant as u64,
                ]);
                let walk = sample_subset(&pheromone, &heuristic, subset, &mut rng);
                let cost: u64 = walk.iter().map(|&pos| eligible[pos].1).sum();
                let candidate = (cost, walk);
                if best.as_ref().is_none_or(|b| candidate < *b) {
                    best = Some(candidate);
                }
            }
            for p in &mut pheromone {
                *p = (*p * 9 / 10).max(1);
            }
            if let Some((_, walk)) = best {
                for pos in walk {
                    pheromone[pos] += DEPOSIT;
                }
            }
        }

        // Final ranking: accumulated pheromone descending, then cost, then candidate index.
        let mut order: Vec<usize> = (0..eligible.len()).collect();
        order.sort_by_key(|&pos| (u64::MAX - pheromone[pos], eligible[pos].1, pos));
        order
            .into_iter()
            .take(budget)
            .map(|pos| eligible[pos].0)
            .collect()
    }
}

impl RoutingAlgorithm for AntColony {
    fn name(&self) -> &str {
        "ACO"
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = self.k.min(ctx.max_selected);
        let frame = Frame::new(batch, ctx);
        Ok(frame.per_egress(EgressUse::Identity, |egress| {
            self.select_for_egress(batch, &frame, budget, egress)
        }))
    }
}

/// Weighted sampling without replacement: `count` distinct positions drawn with probability
/// proportional to `pheromone × heuristic`, in draw order.
fn sample_subset(pheromone: &[u64], heuristic: &[u64], count: usize, rng: &mut u64) -> Vec<usize> {
    let mut taken = vec![false; pheromone.len()];
    let mut picks = Vec::with_capacity(count);
    for _ in 0..count {
        let total: u64 = (0..pheromone.len())
            .filter(|&p| !taken[p])
            .map(|p| pheromone[p] * heuristic[p])
            .sum();
        let mut roll = splitmix64(rng) % total;
        for p in 0..pheromone.len() {
            if taken[p] {
                continue;
            }
            let weight = pheromone[p] * heuristic[p];
            if roll < weight {
                taken[p] = true;
                picks.push(p);
                break;
            }
            roll -= weight;
        }
    }
    picks
}

/// Folds the seed words into one splitmix64 stream state.
fn stream_seed(words: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for &word in words {
        state = splitmix64(&mut state) ^ word.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    splitmix64(&mut state)
}

/// The splitmix64 step — the repo's standard deterministic mixing recipe.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{candidate, local_as};
    use crate::CandidateBatch;
    use irec_types::{AsId, InterfaceGroupId};

    fn ctx(node: &irec_topology::AsNode) -> AlgorithmContext<'_> {
        AlgorithmContext::new(node, vec![IfId(3)], 20)
    }

    fn batch(n: u64) -> CandidateBatch {
        CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            (0..n)
                .map(|i| candidate(1, &[(10 + 3 * i, 100 + 10 * i), (5 + i, 50)], 1))
                .collect(),
        )
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let node = local_as();
        let b = batch(12);
        let alg = AntColony::new(7, 16, 5);
        let a = alg.select(&b, &ctx(&node)).unwrap();
        let c = alg.select(&b, &ctx(&node)).unwrap();
        assert_eq!(a, c);
        assert_eq!(a.per_egress[&IfId(3)].len(), 5);
        assert_eq!(alg.name(), "ACO");
        assert_eq!(alg.seed(), 7);
        assert_eq!(alg.iterations(), 16);
    }

    #[test]
    fn different_seeds_can_disagree() {
        let node = local_as();
        let b = batch(24);
        let any_diverged = (0..16u64).any(|s| {
            let a = AntColony::new(s, 4, 6).select(&b, &ctx(&node)).unwrap();
            let c = AntColony::new(s + 100, 4, 6)
                .select(&b, &ctx(&node))
                .unwrap();
            a != c
        });
        assert!(any_diverged, "seed must influence the search");
    }

    #[test]
    fn converges_towards_cheap_candidates() {
        let node = local_as();
        // One candidate is strictly dominant; with a real iteration budget it must come
        // out first in the pheromone ranking.
        let mut candidates = vec![candidate(1, &[(1, 1000)], 1)];
        candidates.extend((0..9).map(|i| candidate(1, &[(200 + i, 10), (200, 10)], 1)));
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, candidates);
        let r = AntColony::new(3, 32, 4).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)][0], 0);
    }

    #[test]
    fn respects_budget_and_eligibility() {
        let node = local_as();
        let mut b = batch(6);
        b.candidates.push(candidate(500, &[(10, 100)], 1)); // own-AS loop
        b.candidates.push(candidate(1, &[(10, 100)], 3)); // arrived on the egress
        let mut tight = ctx(&node);
        tight.max_selected = 2;
        let r = AntColony::new(1, 8, 5).select(&b, &tight).unwrap();
        let picks = &r.per_egress[&IfId(3)];
        assert_eq!(picks.len(), 2);
        assert!(picks.iter().all(|&i| i < 6));
    }

    #[test]
    fn empty_batch_selects_nothing() {
        let node = local_as();
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![]);
        let r = AntColony::new(1, 4, 5).select(&b, &ctx(&node)).unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }
}
