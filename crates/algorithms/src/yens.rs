//! **kYEN** — exact loop-free k-shortest path enumeration (Yen's algorithm).
//!
//! [`crate::score::KShortestPaths`] is a score-truncation heuristic: it ranks the *received
//! candidates* by hop count and keeps the top k, so duplicate hop chains occupy several
//! slots and the ranking never looks at the path structure. `YensKShortest` is the exact
//! reference baseline: it rebuilds the multigraph induced by the candidates' hop chains,
//! enumerates the k shortest *loop-free* paths from the batch's origin to the local AS with
//! Yen's algorithm (deviation paths off each accepted path, shortest-first), and maps each
//! enumerated path back to the candidate that carries it. Consequences that distinguish it
//! from the heuristic:
//!
//! * duplicate hop chains are enumerated once (the lowest candidate index wins),
//! * candidates whose chain revisits an AS are never enumerated (Yen's paths are simple),
//! * ties between equal-length paths break by chain content (lexicographic), not by
//!   candidate arrival order.
//!
//! Enumeration is fully deterministic — adjacency is kept in ordered sets and the candidate
//! queue is a `BTreeSet` — so selections are byte-identical across parallelism planes.

use crate::frame::{EgressUse, Frame};
use crate::{AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_types::{AsId, IfId, Result};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Deterministic cap on shortest-path subroutine invocations per enumeration, so a
/// dense multigraph with a huge k cannot wedge a round (the spur loop runs one subroutine
/// call per spur node per accepted path).
const MAX_EXPANSIONS: usize = 10_000;

/// A graph node: the virtual source (fans out to every chain's first AS), an AS on the
/// inter-domain path, or the local AS the candidates were received by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Node {
    Source,
    As(AsId),
    Local,
}

/// One directed edge: where it leads plus its identity label. Inter-AS edges are labelled
/// by the upstream hop's egress interface; the final delivery edge into the local AS also
/// carries the local ingress interface, which keeps parallel last-hop links distinct.
type EdgeLabel = (IfId, IfId);
type Edge = (Node, Node, EdgeLabel);

/// A path is its edge sequence; comparing paths compares (length, content) lexicographically
/// because `Vec: Ord` is lexicographic and we order by `(len, edges)` tuples explicitly.
type Path = Vec<Edge>;

/// Exact Yen's k-shortest selection. See the module docs for how it differs from the
/// [`crate::score::KShortestPaths`] heuristic it is the reference baseline for.
pub struct YensKShortest {
    k: usize,
    name: String,
}

impl YensKShortest {
    /// Creates the algorithm enumerating up to `k` shortest loop-free paths per egress.
    pub fn new(k: usize) -> Self {
        YensKShortest {
            k,
            name: format!("{k}YEN"),
        }
    }
}

/// The selection over `eligible` — `(batch index, candidate)`, ascending: builds the
/// candidate-induced multigraph and the chain -> candidate index map, then enumerates.
/// Nothing here knows an egress interface, so one run serves a whole eligibility class.
fn select_among<'c>(
    eligible: impl Iterator<Item = (usize, &'c Candidate)>,
    budget: usize,
) -> Vec<usize> {
    let mut adjacency: BTreeMap<Node, BTreeSet<(Node, EdgeLabel)>> = BTreeMap::new();
    let mut chain_to_candidate: BTreeMap<Path, usize> = BTreeMap::new();
    for (idx, c) in eligible {
        let links = c.pcb.link_keys();
        if links.is_empty() {
            continue;
        }
        let mut chain: Path = vec![(Node::Source, Node::As(links[0].0), (IfId::NONE, IfId::NONE))];
        for window in links.windows(2) {
            let (from_as, egress_if) = window[0];
            let (to_as, _) = window[1];
            chain.push((Node::As(from_as), Node::As(to_as), (egress_if, IfId::NONE)));
        }
        let (last_as, last_egress) = links[links.len() - 1];
        chain.push((Node::As(last_as), Node::Local, (last_egress, c.ingress)));
        for &(from, to, label) in &chain {
            adjacency.entry(from).or_default().insert((to, label));
        }
        // Duplicate chains collapse onto the earliest candidate.
        chain_to_candidate.entry(chain).or_insert(idx);
    }
    if chain_to_candidate.is_empty() {
        return Vec::new();
    }

    enumerate_selected(&adjacency, &chain_to_candidate, budget)
}

impl RoutingAlgorithm for YensKShortest {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let budget = self.k.min(ctx.max_selected);
        let frame = Frame::new(batch, ctx);
        Ok(frame.per_egress(EgressUse::FilterOnly, |egress| {
            let eligible = frame.eligible_at(egress);
            select_among(
                eligible.map(|(_, u)| (u.index, &batch.candidates[u.index])),
                budget,
            )
        }))
    }
}

/// Yen's algorithm over the multigraph: enumerates simple `Source -> Local` paths in
/// (length, lexicographic-content) order and collects the candidates carrying them, until
/// `budget` candidates are selected, the graph is exhausted, or the expansion cap trips.
/// Cross-combination paths (mixing edges of different candidates) are legal enumerations
/// but carry no received beacon, so they consume enumeration steps without selecting.
fn enumerate_selected(
    adjacency: &BTreeMap<Node, BTreeSet<(Node, EdgeLabel)>>,
    chain_to_candidate: &BTreeMap<Path, usize>,
    budget: usize,
) -> Vec<usize> {
    let mut selected = Vec::new();
    let collect = |path: &Path, selected: &mut Vec<usize>| {
        if let Some(&idx) = chain_to_candidate.get(path) {
            selected.push(idx);
        }
    };
    let mut expansions = 0usize;
    let Some(first) = shortest_path(
        adjacency,
        Node::Source,
        &BTreeSet::new(),
        &BTreeSet::new(),
        &mut expansions,
    ) else {
        return selected;
    };
    collect(&first, &mut selected);
    let mut accepted: Vec<Path> = vec![first];
    let mut frontier: BTreeSet<(usize, Path)> = BTreeSet::new();
    while selected.len() < budget && expansions < MAX_EXPANSIONS {
        let previous = accepted.last().expect("accepted is non-empty").clone();
        for spur_index in 0..previous.len() {
            let root = &previous[..spur_index];
            let spur_node = previous[spur_index].0;
            // Ban the next edge of every already-accepted path sharing this root, and every
            // root node except the spur node itself — the standard Yen deviation setup.
            let mut banned_edges: BTreeSet<Edge> = BTreeSet::new();
            for path in &accepted {
                if path.len() > spur_index && path[..spur_index] == *root {
                    banned_edges.insert(path[spur_index]);
                }
            }
            let banned_nodes: BTreeSet<Node> = root.iter().map(|&(from, _, _)| from).collect();
            if let Some(spur) = shortest_path(
                adjacency,
                spur_node,
                &banned_edges,
                &banned_nodes,
                &mut expansions,
            ) {
                let mut total = root.to_vec();
                total.extend(spur);
                frontier.insert((total.len(), total));
            }
            if expansions >= MAX_EXPANSIONS {
                break;
            }
        }
        // Pop the shortest (then lexicographically smallest) unaccepted deviation.
        let next = loop {
            let Some(entry) = frontier.pop_first() else {
                return selected;
            };
            if !accepted.contains(&entry.1) {
                break entry.1;
            }
        };
        collect(&next, &mut selected);
        accepted.push(next);
    }
    selected
}

/// Shortest `start -> Local` path avoiding the banned edges and nodes, with ties broken by
/// lexicographic edge content. Dijkstra over unit weights with `(len, path)` priorities:
/// path priority is prefix-monotone under extension, so the first pop of a node yields its
/// optimal path and later pops can be skipped.
fn shortest_path(
    adjacency: &BTreeMap<Node, BTreeSet<(Node, EdgeLabel)>>,
    start: Node,
    banned_edges: &BTreeSet<Edge>,
    banned_nodes: &BTreeSet<Node>,
    expansions: &mut usize,
) -> Option<Path> {
    *expansions += 1;
    // Seeding `visited` with the root's nodes keeps the spur path simple w.r.t. the root
    // prefix it extends.
    let mut visited: BTreeSet<Node> = banned_nodes.clone();
    let mut heap: BinaryHeap<std::cmp::Reverse<(usize, Path, Node)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, Vec::new(), start)));
    while let Some(std::cmp::Reverse((len, path, node))) = heap.pop() {
        if node == Node::Local {
            return Some(path);
        }
        if !visited.insert(node) && len > 0 {
            continue;
        }
        let Some(successors) = adjacency.get(&node) else {
            continue;
        };
        for &(to, label) in successors {
            let edge = (node, to, label);
            if banned_edges.contains(&edge) || visited.contains(&to) {
                continue;
            }
            let mut next = path.clone();
            next.push(edge);
            heap.push(std::cmp::Reverse((len + 1, next, to)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{candidate_with_links, local_as};
    use crate::CandidateBatch;
    use irec_types::{AsId, InterfaceGroupId};

    fn ctx(node: &irec_topology::AsNode) -> AlgorithmContext<'_> {
        AlgorithmContext::new(node, vec![IfId(3)], 20)
    }

    #[test]
    fn enumerates_paths_shortest_first() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate_with_links(1, &[(1, 1), (2, 1), (3, 1)], 1),
                candidate_with_links(1, &[(1, 2), (4, 1)], 1),
                candidate_with_links(1, &[(1, 3)], 1),
            ],
        );
        let r = YensKShortest::new(3).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![2, 1, 0]);
    }

    #[test]
    fn duplicate_chains_are_enumerated_once() {
        let node = local_as();
        // Candidates 0 and 1 carry the identical hop chain; the heuristic kSP would keep
        // both, the exact enumeration keeps one (lowest index) and moves on.
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate_with_links(1, &[(1, 1), (2, 1)], 1),
                candidate_with_links(1, &[(1, 1), (2, 1)], 1),
                candidate_with_links(1, &[(1, 2), (3, 1), (4, 1)], 1),
            ],
        );
        let r = YensKShortest::new(3).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 2]);
    }

    #[test]
    fn budget_and_context_limit_truncate() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            (0..6)
                .map(|i| candidate_with_links(1, &[(1, i + 1), (2, i + 1)], 1))
                .collect(),
        );
        let r = YensKShortest::new(4).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 4);
        let mut tight = ctx(&node);
        tight.max_selected = 2;
        let r2 = YensKShortest::new(4).select(&b, &tight).unwrap();
        assert_eq!(r2.per_egress[&IfId(3)].len(), 2);
    }

    #[test]
    fn skips_ingress_equals_egress_and_own_as() {
        let node = local_as();
        let own = candidate_with_links(500, &[(500, 1)], 1); // traverses the local AS
        let from_egress = candidate_with_links(1, &[(1, 1)], 3); // arrived on if3
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![own, from_egress]);
        let r = YensKShortest::new(5).select(&b, &ctx(&node)).unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }

    #[test]
    fn cross_combination_paths_are_not_selected() {
        let node = local_as();
        // Chains 1->2->L and 1->3->L share the first AS; the graph also contains the
        // deviations 1->2 followed by nothing (2 only connects onward in chain 0) — any
        // enumerated mix of edges that matches no received candidate must be skipped, so
        // exactly the two real candidates come back.
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![
                candidate_with_links(1, &[(1, 1), (2, 1)], 1),
                candidate_with_links(1, &[(1, 2), (3, 1)], 1),
            ],
        );
        let r = YensKShortest::new(5).select(&b, &ctx(&node)).unwrap();
        assert_eq!(r.per_egress[&IfId(3)], vec![0, 1]);
    }

    // No looped-chain test: `Pcb::extend` refuses to create loops, so a candidate whose
    // chain revisits an AS cannot be constructed through the public API — Yen's
    // simple-path property is a defensive second line, exercised structurally by the
    // enumeration itself.

    #[test]
    fn selection_is_deterministic() {
        let node = local_as();
        let b = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            (0..12u64)
                .map(|i| {
                    candidate_with_links(1, &[(1, (i % 4) as u32 + 1), (2 + i, 1), (30 + i, 1)], 1)
                })
                .collect(),
        );
        let alg = YensKShortest::new(6);
        let a = alg.select(&b, &ctx(&node)).unwrap();
        let c = alg.select(&b, &ctx(&node)).unwrap();
        assert_eq!(a, c);
        assert_eq!(alg.name(), "6YEN");
    }

    #[test]
    fn empty_batch_selects_nothing() {
        let node = local_as();
        let b = CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, vec![]);
        let r = YensKShortest::new(5).select(&b, &ctx(&node)).unwrap();
        assert!(r.per_egress[&IfId(3)].is_empty());
    }
}
