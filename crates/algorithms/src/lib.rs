//! # irec-algorithms
//!
//! The routing algorithms of the IREC reproduction, behind a single pluggable trait.
//!
//! A RAC (routing algorithm container, `irec-core`) periodically hands its algorithm a batch
//! of candidate PCBs for one `(origin AS, interface group [, target AS])` together with
//! intra-AS topology information, and gets back, per egress interface, the subset of
//! candidates the algorithm considers optimal. [`RoutingAlgorithm`] is that interface; the
//! paper standardizes it as a "stable" feature so that algorithms can be deployed
//! ubiquitously.
//!
//! Implementations provided here (the ones used by the paper's evaluation, §VIII-B):
//!
//! * [`score::ShortestPath`] — **1SP**: the single shortest path per origin,
//! * [`score::KShortestPaths`] — **5SP** (and the legacy SCION selection with k = 20),
//! * [`score::DelayOptimization`] — **DO / DON / DOB**: lowest propagation delay, with or
//!   without extended-path optimization and interface groups,
//! * [`score::WidestPath`] and [`score::ShortestWidest`] — bandwidth criteria used by the
//!   paper's running examples,
//! * [`disjoint::HeuristicDisjointness`] — **HD** (Krähenbühl et al.),
//! * [`disjoint::AvoidLinksAlgorithm`] + [`disjoint::pd_round_program`] — the building blocks
//!   of **PD**, pull-based disjointness via on-demand routing,
//! * [`ondemand::IrvmAlgorithm`] — the adapter that runs an arbitrary fetched IRVM module as
//!   a routing algorithm (what an on-demand RAC instantiates),
//! * [`yens::YensKShortest`] — **kYEN**: exact loop-free k-shortest enumeration, the
//!   reference baseline for the `KShortestPaths` truncation heuristic,
//! * [`aco::AntColony`] — **ACO**: a seeded, deterministic ant-colony multi-criteria
//!   selector,
//!
//! All of them answer "which candidates, for each egress interface" through one per-batch
//! frame (`frame.rs`): the eligibility rule, the loop over the interfaces — run once per
//! *eligibility class* where the interface matters only as a filter — and the ranked
//! selection every individually-scoring selector reduces to live there, once.
//!
//! [`RoutingAlgorithm::reselect`] is how a batch that only grew is re-selected over
//! *previous winners ∪ new arrivals* instead of the whole batch: the union-composable
//! selectors answer it with `select`, HD under a certificate its own greedy checks;
//! [`incremental`] holds the vocabulary the delta-driven RAC engine shares with the layers
//! around it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aco;
pub mod catalog;
pub mod disjoint;
mod frame;
pub mod incremental;
pub mod ondemand;
#[cfg(test)]
mod oracle;
pub mod score;
pub mod yens;

use irec_pcb::Pcb;
use irec_topology::AsNode;
use irec_types::{AsId, IfId, InterfaceGroupId, PathMetrics, Result};
use std::collections::BTreeMap;

/// One candidate beacon as handed to an algorithm: the PCB plus the local ingress interface
/// on which it was received (needed to compute extended-path metrics, §IV-E).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The received beacon.
    pub pcb: Pcb,
    /// The local interface the beacon arrived on.
    pub ingress: IfId,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(pcb: Pcb, ingress: IfId) -> Self {
        Candidate { pcb, ingress }
    }

    /// The metrics of the received path (up to the local AS's ingress interface).
    pub fn received_metrics(&self) -> PathMetrics {
        self.pcb.path_metrics()
    }
}

/// The batch of candidates an algorithm optimizes in one invocation.
///
/// Per §V-C of the paper, "the PCBs provided as input are specific for an origin AS, as well
/// as interface group and target AS (if available)"; those parameters are carried here for
/// bookkeeping but the algorithm does not need to inspect them.
#[derive(Debug, Clone)]
pub struct CandidateBatch {
    /// Origin AS of all candidates.
    pub origin: AsId,
    /// Interface group of all candidates (default group when the origin does not use them).
    pub group: InterfaceGroupId,
    /// Target AS if the candidates are pull-based beacons.
    pub target: Option<AsId>,
    /// The candidates.
    pub candidates: Vec<Candidate>,
}

impl CandidateBatch {
    /// Creates a batch.
    pub fn new(origin: AsId, group: InterfaceGroupId, candidates: Vec<Candidate>) -> Self {
        CandidateBatch {
            origin,
            group,
            target: None,
            candidates,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Execution context handed to an algorithm along with the batch: the local AS topology
/// (giving access to intra-AS crossing latencies), the egress interfaces to optimize for, and
/// the RAC configuration.
#[derive(Debug, Clone)]
pub struct AlgorithmContext<'a> {
    /// The local AS (interfaces, intra-AS latencies).
    pub local_as: &'a AsNode,
    /// The egress interfaces for which optimal sets must be produced.
    pub egress_interfaces: Vec<IfId>,
    /// Whether to optimize on extended paths (§IV-E). When false, received-path metrics are
    /// used unchanged for every egress interface (the DON configuration).
    pub extend_paths: bool,
    /// Maximum number of candidates to select per egress interface (the paper uses 20).
    pub max_selected: usize,
}

impl<'a> AlgorithmContext<'a> {
    /// Creates a context selecting up to `max_selected` beacons per egress interface.
    pub fn new(local_as: &'a AsNode, egress_interfaces: Vec<IfId>, max_selected: usize) -> Self {
        AlgorithmContext {
            local_as,
            egress_interfaces,
            extend_paths: false,
            max_selected,
        }
    }

    /// Enables extended-path optimization (§IV-E).
    #[must_use]
    pub fn with_extended_paths(mut self, enabled: bool) -> Self {
        self.extend_paths = enabled;
        self
    }

    /// The metrics of `candidate` as seen at `egress`: the received metrics, extended with
    /// the intra-AS crossing from the candidate's ingress interface to `egress` when
    /// extended-path optimization is enabled.
    pub fn metrics_at_egress(&self, candidate: &Candidate, egress: IfId) -> PathMetrics {
        self.extend_to_egress(candidate.received_metrics(), candidate.ingress, egress)
    }

    /// [`AlgorithmContext::metrics_at_egress`] for a candidate received on `ingress` whose
    /// `received` metrics are already known.
    pub(crate) fn extend_to_egress(
        &self,
        received: PathMetrics,
        ingress: IfId,
        egress: IfId,
    ) -> PathMetrics {
        if !self.extend_paths {
            return received;
        }
        match self.local_as.intra_metrics(ingress, egress) {
            Ok(crossing) => received.extend_intra(crossing),
            // Unknown interfaces (e.g. a beacon received on a since-removed link): fall back
            // to the received metrics rather than dropping the candidate.
            Err(_) => received,
        }
    }
}

/// The per-egress-interface selection produced by an algorithm: candidate indices into the
/// batch, best first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionResult {
    /// Selected candidate indices per egress interface.
    pub per_egress: BTreeMap<IfId, Vec<usize>>,
}

impl SelectionResult {
    /// Creates an empty result.
    pub fn empty() -> Self {
        SelectionResult::default()
    }

    /// Records a selection for one egress interface.
    pub fn insert(&mut self, egress: IfId, selected: Vec<usize>) {
        self.per_egress.insert(egress, selected);
    }

    /// Total number of (egress, candidate) selections.
    pub fn total_selected(&self) -> usize {
        self.per_egress.values().map(Vec::len).sum()
    }

    /// The distinct candidate indices selected for at least one egress interface.
    pub fn distinct_candidates(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.per_egress.values().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A routing algorithm: the pluggable optimization logic run inside a RAC.
///
/// This is the interface the paper's standardization model places in the "stable" tier: it
/// must stay fixed so that new algorithms can be deployed without touching the RAC.
pub trait RoutingAlgorithm: Send + Sync {
    /// A short, stable name used for path tagging, logging and the evaluation series labels.
    fn name(&self) -> &str;

    /// Selects, for every egress interface in the context, the optimal candidates of the
    /// batch (indices into `batch.candidates`, best first, at most `ctx.max_selected` each).
    fn select(&self, batch: &CandidateBatch, ctx: &AlgorithmContext<'_>)
        -> Result<SelectionResult>;

    /// Whether the selection is *union-composable*: for candidate sets `A` and `B`,
    /// `select(A ∪ B) = select(select(A) ∪ B)` as sets of candidates per egress interface,
    /// provided the candidates keep their relative order (index tie-breaks then resolve
    /// the same way). True for selectors that rank every candidate on its own — a
    /// candidate that lost against `A` can never win against `A ∪ B` — and false (the
    /// default) for set-valued or stochastic objectives, whose choice of one candidate
    /// depends on which others are present.
    ///
    /// The RAC engine relies on it twice: [`RoutingAlgorithm::reselect`] answers with
    /// `select` for such a selector, and an oversized batch is split into sub-ranges whose
    /// winners are reduced by one more `select` pass. No other algorithm is ever split.
    fn union_composable(&self) -> bool {
        false
    }

    /// Re-selects a batch that only *grew* since the last round, or declines to.
    ///
    /// `batch` is not the whole batch but last round's winners — every candidate selected
    /// for at least one interface — plus the candidates that arrived since, in batch order.
    /// `previous` is last round's selection in `batch`'s indices: per egress interface,
    /// the picks in the order they were made. It is filled only for an algorithm that
    /// [reads it](RoutingAlgorithm::reselect_reads_picks), and empty otherwise.
    ///
    /// An answer must be exactly what [`RoutingAlgorithm::select`] returns over the whole
    /// grown batch, in `batch`'s indices. `None` declines, and the engine selects over the
    /// whole batch instead. The default answers with `select` for a
    /// [union-composable](RoutingAlgorithm::union_composable) selector — a candidate that
    /// lost against the old batch loses against any batch that contains it — and declines
    /// for everything else (`<k>YEN`, ACO, on-demand modules). HD answers when a
    /// certificate built from `previous` proves that no candidate outside `batch` could
    /// have been picked (see [`disjoint::HeuristicDisjointness`]).
    fn reselect(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
        previous: &SelectionResult,
    ) -> Result<Option<SelectionResult>> {
        let _ = previous;
        if self.union_composable() {
            self.select(batch, ctx).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Whether [`RoutingAlgorithm::reselect`] reads its `previous` picks — and may answer
    /// although the algorithm is not union-composable. The engine keeps last round's pick
    /// order only for such an algorithm, and hands a batch that only grew to `reselect`
    /// only when this or [`RoutingAlgorithm::union_composable`] holds.
    fn reselect_reads_picks(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the algorithm unit tests.
    use super::*;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{PcbExtensions, StaticInfo};
    use irec_topology::Tier;
    use irec_types::{Bandwidth, GeoCoord, Latency, SimDuration, SimTime};

    /// Builds a candidate PCB originated by `origin` with the given per-hop
    /// (latency_ms, bandwidth_mbps) crossings, received locally on `ingress`.
    pub fn candidate(origin: u64, hops: &[(u64, u64)], ingress: u32) -> Candidate {
        let registry = KeyRegistry::with_ases(9, 4096);
        let mut pcb = Pcb::originate(
            AsId(origin),
            origin,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        for (i, (lat, bw)) in hops.iter().enumerate() {
            let asn = if i == 0 {
                AsId(origin)
            } else {
                AsId(origin + i as u64 * 100)
            };
            let signer = Signer::new(asn, registry.clone());
            let info = StaticInfo {
                link_latency: Latency::from_millis(*lat),
                link_bandwidth: Bandwidth::from_mbps(*bw),
                intra_latency: Latency::ZERO,
                egress_location: None,
            };
            let ingress_if = if i == 0 { IfId::NONE } else { IfId(1) };
            pcb.extend(ingress_if, IfId(2), info, &signer).unwrap();
        }
        Candidate::new(pcb, IfId(ingress))
    }

    /// Builds a candidate whose path traverses exactly the given (asn, egress_if) links,
    /// received locally on `ingress`.
    pub fn candidate_with_links(origin: u64, links: &[(u64, u32)], ingress: u32) -> Candidate {
        let registry = KeyRegistry::with_ases(9, 8192);
        let mut pcb = Pcb::originate(
            AsId(origin),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        for (i, (asn, egress)) in links.iter().enumerate() {
            let signer = Signer::new(AsId(*asn), registry.clone());
            let info = StaticInfo {
                link_latency: Latency::from_millis(10),
                link_bandwidth: Bandwidth::from_mbps(100),
                intra_latency: Latency::ZERO,
                egress_location: None,
            };
            let ingress_if = if i == 0 { IfId::NONE } else { IfId(1) };
            pcb.extend(ingress_if, IfId(*egress), info, &signer)
                .unwrap();
        }
        Candidate::new(pcb, IfId(ingress))
    }

    /// A local AS (AS 500) with five interfaces far enough apart that every crossing
    /// differs — Zurich, Paris, New York, Tokyo, Sydney — for extended-path tests.
    pub fn local_as() -> AsNode {
        let mut node = AsNode::new(AsId(500), Tier::Tier2);
        let sites = [
            (47.37, 8.54),
            (48.86, 2.35),
            (40.71, -74.0),
            (35.68, 139.69),
            (-33.87, 151.21),
        ];
        for (i, (lat, lon)) in sites.iter().enumerate() {
            let ifid = IfId(i as u32 + 1);
            node.interfaces.insert(
                ifid,
                irec_topology::Interface {
                    id: ifid,
                    owner: node.id,
                    location: GeoCoord::new(*lat, *lon),
                    link: irec_types::LinkId(i as u64),
                },
            );
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use irec_types::Latency;

    #[test]
    fn candidate_received_metrics() {
        let c = candidate(1, &[(10, 100), (5, 50)], 1);
        let m = c.received_metrics();
        assert_eq!(m.latency, Latency::from_millis(15));
        assert_eq!(m.hops, 2);
    }

    #[test]
    fn batch_accessors() {
        let batch = CandidateBatch::new(
            AsId(1),
            InterfaceGroupId::DEFAULT,
            vec![candidate(1, &[(10, 100)], 1)],
        );
        assert_eq!(batch.len(), 1);
        assert!(!batch.is_empty());
        assert_eq!(batch.origin, AsId(1));
    }

    #[test]
    fn extended_metrics_add_intra_crossing() {
        let node = local_as();
        let ctx_plain = AlgorithmContext::new(&node, vec![IfId(3)], 20);
        let ctx_ext = AlgorithmContext::new(&node, vec![IfId(3)], 20).with_extended_paths(true);
        let c = candidate(1, &[(10, 100)], 1);
        let plain = ctx_plain.metrics_at_egress(&c, IfId(3));
        let extended = ctx_ext.metrics_at_egress(&c, IfId(3));
        assert_eq!(plain, c.received_metrics());
        // Zurich -> New York crossing adds tens of milliseconds.
        assert!(extended.latency > plain.latency + Latency::from_millis(20));
        // Same egress as ingress: no crossing added.
        let same = ctx_ext.metrics_at_egress(&c, IfId(1));
        assert_eq!(same.latency, plain.latency);
    }

    #[test]
    fn extended_metrics_fall_back_on_unknown_interface() {
        let node = local_as();
        let ctx = AlgorithmContext::new(&node, vec![IfId(3)], 20).with_extended_paths(true);
        let c = candidate(1, &[(10, 100)], 99); // unknown ingress
        assert_eq!(ctx.metrics_at_egress(&c, IfId(3)), c.received_metrics());
    }

    #[test]
    fn selection_result_bookkeeping() {
        let mut r = SelectionResult::empty();
        r.insert(IfId(1), vec![0, 2]);
        r.insert(IfId(2), vec![2]);
        assert_eq!(r.total_selected(), 3);
        assert_eq!(r.distinct_candidates(), vec![0, 2]);
    }
}
