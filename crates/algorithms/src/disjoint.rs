//! Disjointness-oriented algorithms: HD (heuristic disjointness) and the building blocks of
//! PD (pull-based disjointness).

use crate::frame::{EgressUse, Frame, Usable};
use crate::{AlgorithmContext, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_irvm::Program;
use irec_types::{AsId, IfId, Result};
use std::collections::HashSet;

/// **HD — heuristic disjointness** (Krähenbühl et al., as used in §VIII-B of the paper).
///
/// Greedy selection maximizing inter-domain link disjointness: starting from the shortest
/// candidate, repeatedly add the candidate that shares the fewest links with the already
/// selected set (ties broken by hop count, then candidate order), up to the selection budget.
pub struct HeuristicDisjointness {
    k: usize,
}

impl HeuristicDisjointness {
    /// Creates the HD algorithm with the given per-egress budget.
    pub fn new(k: usize) -> Self {
        HeuristicDisjointness { k }
    }

    /// The selection for one interface in its set formulation, as it was computed before
    /// the kernel existed: one link set per candidate, one intersection with the used set
    /// per remaining candidate per step. Kept as the oracle of [`crate::oracle`].
    #[cfg(test)]
    pub(crate) fn select_for_egress(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        egress: IfId,
    ) -> Vec<usize> {
        type LinkSet = HashSet<(AsId, IfId)>;
        let budget = self.k.min(ctx.max_selected);
        // Eligible candidates with their link sets and hop counts.
        let eligible: Vec<(usize, LinkSet, u32)> = batch
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ingress != egress && !c.pcb.contains_as(ctx.local_as.id))
            .map(|(i, c)| {
                let links: LinkSet = c.pcb.link_keys().into_iter().collect();
                (i, links, c.pcb.path_metrics().hops)
            })
            .collect();

        let mut selected: Vec<usize> = Vec::new();
        let mut used_links: LinkSet = HashSet::new();
        let mut remaining: Vec<&(usize, LinkSet, u32)> = eligible.iter().collect();

        while selected.len() < budget && !remaining.is_empty() {
            // Pick the candidate with the fewest shared links, then fewest hops, then index.
            let (best_pos, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, (idx, links, hops))| {
                    let overlap = links.intersection(&used_links).count();
                    (overlap, *hops, *idx)
                })
                .expect("remaining is non-empty");
            let (idx, links, _) = remaining.remove(best_pos);
            used_links.extend(links.iter().copied());
            selected.push(*idx);
        }
        selected
    }
}

impl RoutingAlgorithm for HeuristicDisjointness {
    fn name(&self) -> &str {
        "HD"
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = self.k.min(ctx.max_selected);
        let frame = Frame::new(batch, ctx);
        let mut kernel = DisjointnessKernel::new(batch, frame.usable());
        Ok(frame.per_egress(EgressUse::FilterOnly, |egress| {
            let members = frame.eligible_at(egress).map(|(position, _)| position);
            kernel.greedy(members, budget)
        }))
    }
}

/// HD's greedy over one batch with the links interned: the `(link, holder)` incidences of
/// the usable candidates, sorted and deduplicated — a key a candidate repeats counts once
/// — so that the holders of a link are one run, found by binary search, and the run's
/// start is the link's dense id. The overlap of a candidate with the used links is then a
/// counter — a link that *becomes* used bumps its holders, once — and a step is a flat
/// scan for the minimum `(overlap, hops, position)`. That is the set formulation's
/// `|links ∩ used|` at every step, so the picks are the same; what is gone is the set per
/// candidate per interface and the intersection per remaining candidate per step.
/// Candidates are addressed by position among the usable ones, which orders like the
/// batch index. Sort-and-dedup rather than a hash map: a batch is a few hundred
/// incidences at most and a handful in the early rounds.
struct DisjointnessKernel<'a> {
    batch: &'a CandidateBatch,
    usable: &'a [Usable],
    incidences: Vec<((AsId, IfId), u32)>,
    /// `(overlap << 32) | hops` per candidate: the scan compares one word, and a bump adds
    /// [`OVERLAP_ONE`].
    keys: Vec<u64>,
    /// Per link, at the start of its run.
    used: Vec<bool>,
    remaining: Vec<u32>,
}

/// One more used link in a [`DisjointnessKernel`] key.
const OVERLAP_ONE: u64 = 1 << 32;

impl<'a> DisjointnessKernel<'a> {
    fn new(batch: &'a CandidateBatch, usable: &'a [Usable]) -> Self {
        let mut incidences = Vec::new();
        for (position, u) in usable.iter().enumerate() {
            let links = batch.candidates[u.index].pcb.links();
            incidences.extend(links.map(|link| (link, position as u32)));
        }
        incidences.sort_unstable();
        incidences.dedup();
        DisjointnessKernel {
            batch,
            usable,
            keys: usable.iter().map(|u| u64::from(u.received.hops)).collect(),
            used: vec![false; incidences.len()],
            incidences,
            remaining: Vec::with_capacity(usable.len()),
        }
    }

    /// The greedy over `members` (positions, ascending): up to `budget` picks as batch
    /// indices, in pick order.
    fn greedy(&mut self, members: impl Iterator<Item = usize>, budget: usize) -> Vec<usize> {
        for key in &mut self.keys {
            *key &= OVERLAP_ONE - 1;
        }
        self.used.fill(false);
        self.remaining.clear();
        self.remaining
            .extend(members.map(|position| position as u32));

        let mut picked = Vec::with_capacity(budget.min(self.remaining.len()));
        while picked.len() < budget && !self.remaining.is_empty() {
            // Fewest shared links, then fewest hops, then — `remaining` is ascending and
            // only a strictly smaller key displaces the incumbent — lowest position.
            let mut best = 0;
            for (at, &position) in self.remaining.iter().enumerate() {
                if self.keys[position as usize] < self.keys[self.remaining[best] as usize] {
                    best = at;
                }
            }
            let index = self.usable[self.remaining.remove(best) as usize].index;
            for link in self.batch.candidates[index].pcb.links() {
                let run = self.incidences.partition_point(|&(held, _)| held < link);
                if !std::mem::replace(&mut self.used[run], true) {
                    let holders = self.incidences[run..].iter();
                    for &(_, holder) in holders.take_while(|(held, _)| *held == link) {
                        self.keys[holder as usize] += OVERLAP_ONE;
                    }
                }
            }
            picked.push(index);
        }
        picked
    }
}

/// A native link-avoidance algorithm: reject every candidate whose path traverses a link in
/// the avoid set, rank the rest by latency. This is the *semantic* of the per-round on-demand
/// algorithm that PD distributes (the distributable IRVM form is [`pd_round_program`]).
pub struct AvoidLinksAlgorithm {
    avoid: HashSet<(AsId, IfId)>,
    k: usize,
}

impl AvoidLinksAlgorithm {
    /// Creates the algorithm with the set of links to avoid.
    pub fn new(avoid: impl IntoIterator<Item = (AsId, IfId)>, k: usize) -> Self {
        AvoidLinksAlgorithm {
            avoid: avoid.into_iter().collect(),
            k,
        }
    }

    /// The selection for one interface as it was computed before the frame existed. Kept
    /// as the oracle of [`crate::oracle`].
    #[cfg(test)]
    pub(crate) fn select_for_egress(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        egress: IfId,
    ) -> Vec<usize> {
        let mut scored: Vec<(u64, usize)> = batch
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ingress != egress && !c.pcb.contains_as(ctx.local_as.id))
            .filter(|(_, c)| !c.pcb.link_keys().iter().any(|l| self.avoid.contains(l)))
            .map(|(i, c)| (ctx.metrics_at_egress(c, egress).latency.as_micros(), i))
            .collect();
        scored.sort();
        scored
            .into_iter()
            .take(self.k.min(ctx.max_selected))
            .map(|(_, i)| i)
            .collect()
    }
}

impl RoutingAlgorithm for AvoidLinksAlgorithm {
    fn name(&self) -> &str {
        "avoid-links"
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = self.k.min(ctx.max_selected);
        Ok(
            Frame::new(batch, ctx).select_ranked(budget, |candidate, metrics| {
                let mut links = batch.candidates[candidate.index].pcb.links();
                (!links.any(|link| self.avoid.contains(&link))).then(|| metrics.latency.as_micros())
            }),
        )
    }
}

/// Builds the IRVM program for one round of the **pull-based disjointness (PD)** workflow:
/// the origin AS wants a new path to the target that avoids every link of the paths it has
/// already discovered, so it originates on-demand, pull-based PCBs carrying this program
/// (§VIII-B of the paper).
pub fn pd_round_program(
    avoid: impl IntoIterator<Item = (AsId, IfId)>,
    max_selected: u32,
) -> Program {
    irec_irvm::programs::avoid_links(avoid.into_iter().collect(), max_selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{candidate, candidate_with_links, local_as};
    use irec_types::{AsId, InterfaceGroupId};

    fn ctx(node: &irec_topology::AsNode) -> AlgorithmContext<'_> {
        AlgorithmContext::new(node, vec![IfId(3)], 20)
    }

    #[test]
    fn hd_prefers_disjoint_paths_over_shorter_overlapping_ones() {
        let node = local_as();
        // Candidate 0: links (1,1),(2,1)      — 2 hops
        // Candidate 1: links (1,1),(2,2)      — shares (1,1) with candidate 0
        // Candidate 2: links (1,9),(3,1),(4,1) — fully disjoint from candidate 0, but longer
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate_with_links(1, &[(1, 1), (2, 1)], 1),
                candidate_with_links(1, &[(1, 1), (2, 2)], 1),
                candidate_with_links(1, &[(1, 9), (3, 1), (4, 1)], 1),
            ],
        );
        let r = HeuristicDisjointness::new(2)
            .select(&b, &ctx(&node))
            .unwrap();
        // First pick: shortest (candidate 0). Second pick: the disjoint candidate 2, despite
        // candidate 1 being shorter.
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 2]);
    }

    #[test]
    fn hd_respects_budget_and_context_limit() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            (0..6)
                .map(|i| candidate_with_links(1, &[(1, i + 1), (2, i + 1)], 1))
                .collect(),
        );
        let r = HeuristicDisjointness::new(4)
            .select(&b, &ctx(&node))
            .unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 4);
        let mut tight = ctx(&node);
        tight.max_selected = 2;
        let r2 = HeuristicDisjointness::new(4).select(&b, &tight).unwrap();
        assert_eq!(r2.per_egress[&IfId(3)].len(), 2);
    }

    #[test]
    fn hd_skips_ingress_equals_egress_and_loops() {
        let node = local_as();
        let own_as_loop = candidate(500, &[(10, 100)], 1); // origin is the local AS itself
        let from_egress = candidate_with_links(1, &[(1, 1)], 3); // arrived on if3
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![own_as_loop, from_egress],
        );
        let r = HeuristicDisjointness::new(5)
            .select(&b, &ctx(&node))
            .unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }

    #[test]
    fn hd_empty_batch() {
        let node = local_as();
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![]);
        let r = HeuristicDisjointness::new(5)
            .select(&b, &ctx(&node))
            .unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }

    #[test]
    fn avoid_links_filters_overlapping_candidates() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate_with_links(1, &[(1, 1), (2, 1)], 1),
                candidate_with_links(1, &[(1, 2), (3, 1)], 1),
            ],
        );
        let alg = AvoidLinksAlgorithm::new([(AsId(2), IfId(1))], 20);
        let r = alg.select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![1]);
        assert_eq!(alg.name(), "avoid-links");
    }

    #[test]
    fn avoid_links_with_empty_set_orders_by_latency() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![candidate(1, &[(30, 100)], 1), candidate(1, &[(10, 100)], 1)],
        );
        let alg = AvoidLinksAlgorithm::new([], 20);
        let r = alg.select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![1, 0]);
    }

    #[test]
    fn pd_round_program_matches_native_semantics() {
        // The IRVM program generated for a PD round must reject exactly the candidates the
        // native AvoidLinksAlgorithm rejects.
        let avoid = vec![(AsId(2), IfId(1))];
        let program = pd_round_program(avoid.clone(), 20);
        assert_eq!(program.avoid_links, avoid);
        assert!(program.validate().is_ok());
        let interp =
            irec_irvm::Interpreter::new(program, irec_irvm::ExecutionLimits::ON_DEMAND_RAC)
                .unwrap();

        let overlapping = candidate_with_links(1, &[(1, 1), (2, 1)], 1);
        let disjoint = candidate_with_links(1, &[(1, 2), (3, 1)], 1);
        let views: Vec<irec_irvm::CandidateView> = [&overlapping, &disjoint]
            .iter()
            .enumerate()
            .map(|(i, c)| {
                irec_irvm::CandidateView::new(i as u64, c.received_metrics(), c.pcb.link_keys())
            })
            .collect();
        let selected = interp.select_best(&views);
        assert_eq!(selected, vec![1]);
    }
}
