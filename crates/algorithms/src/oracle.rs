//! The selection frame against the selectors it replaced.
//!
//! Every algorithm that used to filter, score and sort the whole batch once per egress
//! interface kept that body as a `#[cfg(test)] select_for_egress`; the properties here run
//! it interface by interface and demand the same [`SelectionResult`] — order within an
//! interface included — from `select`. `<k>YEN` and ACO have no second implementation;
//! they are covered, with everything else, by the metamorphic property at the end: what is
//! selected for an interface never depends on which other interfaces were asked for.
//!
//! The batches are built to collide, not to look like beacons: links come from a universe
//! of eight, so overlaps and `(overlap, hops)` ties are the norm; latencies and bandwidths
//! from two values each; a candidate may repeat a link key or contain the local AS; the
//! candidates arrive on one to three interfaces, some of which are asked for and some not;
//! egress lists are empty, repeated, unordered and name an interface the local AS does not
//! have; budgets are 0, 1, small and larger than the batch. None of it is signed — `select`
//! accepts any batch, so any batch must select the same.

use crate::disjoint::{AvoidLinksAlgorithm, HeuristicDisjointness};
use crate::ondemand::IrvmAlgorithm;
use crate::score::ScoredAlgorithm;
use crate::testutil::local_as;
use crate::{
    catalog, AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm, SelectionResult,
};
use irec_crypto::Signature;
use irec_irvm::{programs, ExecutionLimits, Instruction, Program};
use irec_pcb::{AsEntry, HopInfo, Pcb, PcbExtensions, StaticInfo};
use irec_topology::AsNode;
use irec_types::{
    AsId, Bandwidth, IfId, InterfaceGroupId, Latency, MetricKind, PathMetrics, SimTime,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The id of [`local_as`].
const LOCAL: AsId = AsId(500);

/// Of the five interfaces of [`local_as`], 1–3 are where candidates arrive and 4–5 are
/// never an ingress (two members of the open class, an ocean apart); 9 does not exist.
const EGRESS_POOL: [u32; 6] = [1, 2, 3, 4, 5, 9];

/// Link picks out of the universe of eight, ingress pick, latency pick, bandwidth pick,
/// flags (bits 0 and 1 both set: the path contains the local AS; bit 2: it repeats its
/// first link key).
type CandidateSpec = (Vec<u8>, u8, u8, u8, u8);

/// Candidates, number of distinct ingress interfaces, egress picks, `(k, max_selected)`
/// picks, extended paths.
type ScenarioSpec = (Vec<CandidateSpec>, u8, Vec<u8>, (u8, u8), bool);

fn scenario() -> impl Strategy<Value = ScenarioSpec> {
    let candidate = (vec(0u8..8, 1..5), 0u8..3, 0u8..2, 0u8..2, 0u8..8);
    (
        vec(candidate, 0..12),
        1u8..4,
        vec(0u8..6, 0..6),
        (0u8..6, 0u8..6),
        any::<bool>(),
    )
}

fn entry(asn: AsId, egress: IfId, latency_ms: u64, bandwidth_mbps: u64) -> AsEntry {
    AsEntry {
        hop: HopInfo {
            asn,
            ingress: IfId(1),
            egress,
        },
        static_info: StaticInfo {
            link_latency: Latency::from_millis(latency_ms),
            link_bandwidth: Bandwidth::from_mbps(bandwidth_mbps),
            intra_latency: Latency::ZERO,
            egress_location: None,
        },
        signature: Signature::placeholder(asn),
    }
}

struct Scenario {
    node: AsNode,
    batch: CandidateBatch,
    egress: Vec<IfId>,
    k: usize,
    max_selected: usize,
    extend_paths: bool,
}

impl Scenario {
    fn new((candidates, ingresses, egress, (k, max_selected), extend_paths): ScenarioSpec) -> Self {
        let candidates = candidates
            .into_iter()
            .enumerate()
            .map(|(seq, (links, ingress, latency, bandwidth, flags))| {
                let (latency, bandwidth) =
                    ([5, 10][latency as usize], [10, 100][bandwidth as usize]);
                let mut pcb = Pcb::originate(
                    AsId(1),
                    seq as u64,
                    SimTime::ZERO,
                    SimTime::MAX,
                    PcbExtensions::none(),
                );
                for link in links {
                    let (asn, egress) = (
                        AsId(10 + u64::from(link / 2)),
                        IfId(1 + u32::from(link % 2)),
                    );
                    pcb.entries.push(entry(asn, egress, latency, bandwidth));
                }
                if flags & 0b100 != 0 {
                    pcb.entries.push(pcb.entries.first().unwrap().clone());
                }
                if flags & 0b011 == 0b011 {
                    pcb.entries.push(entry(LOCAL, IfId(1), latency, bandwidth));
                }
                Candidate::new(pcb, IfId(1 + u32::from(ingress % ingresses)))
            })
            .collect();
        Scenario {
            node: local_as(),
            batch: CandidateBatch::new(AsId(1), InterfaceGroupId::DEFAULT, candidates),
            egress: egress
                .into_iter()
                .map(|pick| IfId(EGRESS_POOL[pick as usize]))
                .collect(),
            k: [0, 1, 2, 3, 20, 20][k as usize],
            max_selected: [0, 1, 2, 20, 20, 20][max_selected as usize],
            extend_paths,
        }
    }

    fn ctx(&self) -> AlgorithmContext<'_> {
        AlgorithmContext::new(&self.node, self.egress.clone(), self.max_selected)
            .with_extended_paths(self.extend_paths)
    }

    /// What the old `select` bodies returned: `per_egress` asked interface by interface.
    fn expected(
        &self,
        per_egress: impl Fn(&AlgorithmContext<'_>, IfId) -> Vec<usize>,
    ) -> SelectionResult {
        let ctx = self.ctx();
        let mut result = SelectionResult::empty();
        for &egress in &self.egress {
            result.insert(egress, per_egress(&ctx, egress));
        }
        result
    }
}

/// A program that rejects by running out of fuel: it counts the latency down in steps of
/// 5 ms (five instructions each) before accepting with the hop count, so under
/// [`TIGHT_FUEL`] a path of 35 ms or more is never judged — and with extended paths, which
/// paths those are depends on the interface.
fn countdown_program(max_selected: u32) -> Program {
    Program::new(
        "countdown",
        max_selected,
        vec![
            Instruction::PushMetric(MetricKind::Latency),
            Instruction::Push(5_000),
            Instruction::Div,
            Instruction::Dup,
            Instruction::JumpIfZero(8),
            Instruction::Push(1),
            Instruction::Sub,
            Instruction::Jump(3),
            Instruction::PushMetric(MetricKind::HopCount),
            Instruction::Accept,
        ],
    )
}

/// A program that reads the candidate's index — the one in the batch, whoever else is
/// eligible: it rejects candidate 2 and prefers later candidates among equal hop counts.
fn index_program(max_selected: u32) -> Program {
    Program::new(
        "index",
        max_selected,
        vec![
            Instruction::PushIndex,
            Instruction::Push(2),
            Instruction::Ne,
            Instruction::JumpIfZero(10),
            Instruction::PushMetric(MetricKind::HopCount),
            Instruction::Push(100),
            Instruction::Mul,
            Instruction::PushIndex,
            Instruction::Sub,
            Instruction::Accept,
            Instruction::Reject,
        ],
    )
}

const TIGHT_FUEL: ExecutionLimits = ExecutionLimits {
    fuel: 40,
    max_stack: 16,
};

proptest! {
    #[test]
    fn hd_kernel_matches_the_set_formulation(spec in scenario()) {
        let mut s = Scenario::new(spec);
        // The drawn budgets, then two under which the greedy runs long enough for overlaps
        // with several used links to decide.
        for (k, max_selected) in [(s.k, s.max_selected), (4, 20), (20, 20)] {
            s.max_selected = max_selected;
            let hd = HeuristicDisjointness::new(k);
            let expected = s.expected(|ctx, egress| hd.select_for_egress(&s.batch, ctx, egress));
            prop_assert_eq!(hd.select(&s.batch, &s.ctx()).unwrap(), expected);
        }
    }

    #[test]
    fn ranked_selection_matches_scoring_every_interface_from_scratch(spec in scenario()) {
        let s = Scenario::new(spec);
        let costs: [fn(&PathMetrics, &Candidate) -> i128; 3] = [
            |m, _| i128::from(m.hops),
            |m, _| i128::from(m.latency.as_micros()),
            |m, _| -i128::from(m.bandwidth.as_kbps()),
        ];
        for cost in costs {
            for k in [Some(s.k), None] {
                let scored = ScoredAlgorithm::new("scored", k, cost);
                let expected =
                    s.expected(|ctx, egress| scored.select_for_egress(&s.batch, ctx, egress));
                prop_assert_eq!(scored.select(&s.batch, &s.ctx()).unwrap(), expected);
            }
        }
    }

    #[test]
    fn irvm_adapter_matches_views_rebuilt_for_every_interface(spec in scenario()) {
        let s = Scenario::new(spec);
        let k = s.k.max(1) as u32;
        let rejecting = programs::bounded_latency_widest(Latency::from_millis(25), k);
        let avoiding = programs::avoid_links(vec![(AsId(11), IfId(2)), (AsId(13), IfId(1))], k);
        let modules = [
            IrvmAlgorithm::new(programs::lowest_latency(k), ExecutionLimits::ON_DEMAND_RAC),
            IrvmAlgorithm::new(rejecting, ExecutionLimits::ON_DEMAND_RAC),
            IrvmAlgorithm::new(avoiding, ExecutionLimits::ON_DEMAND_RAC),
            IrvmAlgorithm::new(countdown_program(k), TIGHT_FUEL),
            IrvmAlgorithm::new(index_program(k), ExecutionLimits::ON_DEMAND_RAC),
        ];
        for module in modules {
            let module = module.unwrap();
            let expected =
                s.expected(|ctx, egress| module.select_for_egress(&s.batch, ctx, egress));
            prop_assert_eq!(
                module.select(&s.batch, &s.ctx()).unwrap(),
                expected,
                "{}",
                module.name()
            );
        }
    }

    #[test]
    fn avoid_links_matches_filtering_every_interface_from_scratch(spec in scenario()) {
        let s = Scenario::new(spec);
        let avoid = AvoidLinksAlgorithm::new([(AsId(11), IfId(2)), (AsId(13), IfId(1))], s.k);
        let expected = s.expected(|ctx, egress| avoid.select_for_egress(&s.batch, ctx, egress));
        prop_assert_eq!(avoid.select(&s.batch, &s.ctx()).unwrap(), expected);
    }

    #[test]
    fn a_selection_never_depends_on_the_other_interfaces_asked_for(spec in scenario()) {
        let s = Scenario::new(spec);
        let module = IrvmAlgorithm::new(countdown_program(20), TIGHT_FUEL).unwrap();
        let builtin = catalog::BUILTIN_NAMES.iter().map(|name| catalog::by_name(name).unwrap());
        let algorithms: Vec<std::sync::Arc<dyn RoutingAlgorithm>> =
            builtin.chain([std::sync::Arc::new(module) as _]).collect();
        for algorithm in &algorithms {
            for extend_paths in [false, true] {
                let ctx = s.ctx().with_extended_paths(extend_paths);
                let together = algorithm.select(&s.batch, &ctx).unwrap();
                let asked: Vec<IfId> = together.per_egress.keys().copied().collect();
                let mut distinct = s.egress.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(&asked, &distinct);
                for egress in asked {
                    let alone_ctx = AlgorithmContext::new(&s.node, vec![egress], s.max_selected)
                        .with_extended_paths(extend_paths);
                    let alone = algorithm.select(&s.batch, &alone_ctx).unwrap();
                    prop_assert_eq!(
                        &together.per_egress[&egress],
                        &alone.per_egress[&egress],
                        "{} for {:?} of {:?}, extended paths {}",
                        algorithm.name(),
                        egress,
                        s.egress,
                        extend_paths
                    );
                }
            }
        }
    }
}
