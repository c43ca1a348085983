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
///
/// **Re-selection under a certificate.** HD is not union-composable, yet a batch that only
/// grew can often be re-selected over last round's winners ∪ the arrivals. The greedy is an
/// argmin over `key(c, U) = (|links(c) ∩ U|, hops(c))`, then position, where `U` is the set
/// of links used so far, and a key only grows with `U`. Let `p₁…p_k` be last round's picks
/// for an interface and `Uⱼ` the links of `p₁…pⱼ`. Every candidate of the old batch that was
/// not picked had a key above `(key(pⱼ₊₁, Uⱼ), pⱼ₊₁)` at every step `j`, so it still has at
/// any `U ⊇ Uⱼ`. The greedy over winners ∪ arrivals is therefore the greedy over the whole
/// grown batch as long as each pick `q` it makes at used set `U` stays at or below
/// `(key(pⱼ₊₁, Uⱼ), pⱼ₊₁)` for the largest `j < k` with `Uⱼ ⊆ U` — those bounds rise with
/// `j`, so the largest is the loosest. With `k` below the budget the old greedy ran out of
/// candidates, no old candidate was left unpicked and every pick passes.
/// [`RoutingAlgorithm::reselect`] checks exactly this at every pick and declines on the
/// first that fails.
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
            kernel
                .greedy(members, budget, None)
                .expect("an unchecked greedy always answers")
        }))
    }

    fn reselect(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        previous: &SelectionResult,
    ) -> Result<Option<SelectionResult>> {
        let budget = self.k.min(ctx.max_selected);
        let frame = Frame::new(batch, ctx);
        let mut kernel = DisjointnessKernel::new(batch, frame.usable());
        // The open class shares its members, but each interface brings last round's picks
        // of its own: an interface shares the greedy of another only where those match.
        let mut open: Option<(&[usize], Vec<usize>)> = None;
        let mut refused = false;
        let result = frame.per_egress(EgressUse::Identity, |egress| {
            if refused {
                return Vec::new();
            }
            let Some(last) = previous.per_egress.get(&egress).map(Vec::as_slice) else {
                refused = true;
                return Vec::new();
            };
            let is_open = frame.is_open(egress);
            if let Some((shared, picks)) = open.as_ref().filter(|_| is_open) {
                if *shared == last {
                    return picks.clone();
                }
            }
            let members = frame.eligible_at(egress).map(|(position, _)| position);
            match kernel.greedy(members, budget, Some(last)) {
                Some(picks) => {
                    if is_open {
                        open = Some((last, picks.clone()));
                    }
                    picks
                }
                None => {
                    refused = true;
                    Vec::new()
                }
            }
        });
        Ok((!refused).then_some(result))
    }

    fn reselect_reads_picks(&self) -> bool {
        true
    }
}

/// HD's greedy over one batch with the links interned: the `(link, holder)` incidences of
/// the usable candidates, sorted and deduplicated — a key a candidate repeats counts once
/// — so that the holders of a link are one run, and the run's start is the link's dense
/// id; each candidate keeps the runs of its links. The overlap of a candidate with the
/// used links is then a counter — a link that *becomes* used bumps its holders, once —
/// and a step is a flat scan for the minimum `(overlap, hops, position)`. That is the set
/// formulation's `|links ∩ used|` at every step, so the picks are the same; what is gone
/// is the set per candidate per interface and the intersection per remaining candidate
/// per step. Candidates are addressed by position among the usable ones, which orders
/// like the batch index. Sort-and-dedup rather than a hash map: a batch is a few hundred
/// incidences at most and a handful in the early rounds.
struct DisjointnessKernel<'a> {
    usable: &'a [Usable],
    incidences: Vec<((AsId, IfId), u32)>,
    /// The runs of the links of the candidate at position `p`:
    /// `runs[held[p] as usize..held[p + 1] as usize]`.
    runs: Vec<u32>,
    held: Vec<u32>,
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
    fn new(batch: &CandidateBatch, usable: &'a [Usable]) -> Self {
        let mut incidences = Vec::new();
        for (position, u) in usable.iter().enumerate() {
            let links = batch.candidates[u.index].pcb.links();
            incidences.extend(links.map(|link| (link, position as u32)));
        }
        incidences.sort_unstable();
        incidences.dedup();
        // Counting sort of the incidences by holder, each carrying its run's start.
        let mut held = vec![0; usable.len() + 1];
        for &(_, holder) in &incidences {
            held[holder as usize + 1] += 1;
        }
        for position in 0..usable.len() {
            held[position + 1] += held[position];
        }
        let mut filled = held.clone();
        let mut runs = vec![0; incidences.len()];
        let mut run = 0;
        for (at, &(link, holder)) in incidences.iter().enumerate() {
            if incidences[run].0 != link {
                run = at;
            }
            runs[filled[holder as usize] as usize] = run as u32;
            filled[holder as usize] += 1;
        }
        DisjointnessKernel {
            usable,
            keys: usable.iter().map(|u| u64::from(u.received.hops)).collect(),
            used: vec![false; incidences.len()],
            incidences,
            runs,
            held,
            remaining: Vec::with_capacity(usable.len()),
        }
    }

    /// The runs of the links of the candidate at `position`.
    fn runs_of(&self, position: u32) -> std::ops::Range<usize> {
        self.held[position as usize] as usize..self.held[position as usize + 1] as usize
    }

    /// Forgets every used link.
    fn reset(&mut self) {
        for key in &mut self.keys {
            *key &= OVERLAP_ONE - 1;
        }
        self.used.fill(false);
    }

    /// Uses the links of the candidate at `position`: each link that was not used yet
    /// bumps its holders.
    fn take(&mut self, position: u32) {
        for at in self.runs_of(position) {
            let run = self.runs[at] as usize;
            if !std::mem::replace(&mut self.used[run], true) {
                let link = self.incidences[run].0;
                let holders = self.incidences[run..].iter();
                for &(_, holder) in holders.take_while(|(held, _)| *held == link) {
                    self.keys[holder as usize] += OVERLAP_ONE;
                }
            }
        }
    }

    /// Whether every link of the candidate at `position` is used.
    fn covered(&self, position: u32) -> bool {
        let links = self.runs_of(position).len() as u64;
        self.keys[position as usize] >> 32 == links
    }

    /// The greedy over `members` (positions, ascending): up to `budget` picks as batch
    /// indices, in pick order.
    ///
    /// With `last` — last round's picks for the same interface, as batch indices, when
    /// `members` are that round's winners and the arrivals since — every pick is checked
    /// against the certificate of [`HeuristicDisjointness`], and `None` is returned on the
    /// first that fails: some candidate left out of `members` might have been picked.
    fn greedy(
        &mut self,
        members: impl Iterator<Item = usize>,
        budget: usize,
        last: Option<&[usize]>,
    ) -> Option<Vec<usize>> {
        // Last round's picks as positions, each with the (key, position) it was picked at
        // — replayed, since the keys depend only on the links used before — when the
        // budget was filled; below it there was no candidate left to bound.
        let mut bounds = Vec::new();
        if let Some(last) = last.filter(|last| last.len() >= budget) {
            self.reset();
            for &index in last {
                let found = self.usable.binary_search_by_key(&index, |u| u.index);
                let position = found.ok()? as u32;
                bounds.push((position, self.keys[position as usize]));
                self.take(position);
            }
        }
        self.reset();
        self.remaining.clear();
        self.remaining
            .extend(members.map(|position| position as u32));

        // `bounds[covered]` is the bound of the largest `j` with `Uⱼ` used: the links of
        // the first `covered` old picks are, and `covered` stays below `k`.
        let mut covered = 0;
        let mut picked = Vec::with_capacity(budget.min(self.remaining.len()));
        while picked.len() < budget && !self.remaining.is_empty() {
            // Fewest shared links, then fewest hops, then — `remaining` is ascending and
            // only a strictly smaller key displaces the incumbent — lowest position.
            let (mut best, mut best_key) = (0, self.keys[self.remaining[0] as usize]);
            for (at, &position) in self.remaining.iter().enumerate().skip(1) {
                let key = self.keys[position as usize];
                if key < best_key {
                    (best, best_key) = (at, key);
                }
            }
            let position = self.remaining.remove(best);
            if !bounds.is_empty() {
                while covered + 1 < bounds.len() && self.covered(bounds[covered].0) {
                    covered += 1;
                }
                let (bound_position, bound_key) = bounds[covered];
                if (self.keys[position as usize], position) > (bound_key, bound_position) {
                    return None;
                }
            }
            self.take(position);
            picked.push(self.usable[position as usize].index);
        }
        Some(picked)
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
