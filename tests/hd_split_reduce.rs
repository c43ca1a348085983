//! Acceptance tests for HD over oversized candidate batches (|Φ| > `BATCH_SPLIT_THRESHOLD`).
//! The engine splits such a batch into contiguous sub-ranges and reduces their winners by
//! one more `select` — exact only for selectors that declare themselves
//! [union-composable](RoutingAlgorithm::union_composable). HD's objective is set-valued:
//! over *concatenated truncations* of sub-ranges it can discard the globally disjoint
//! winners. It used to be split all the same and repaired by a merge hook that threw the
//! sub-range passes away and ran the full batch once more; its kernel scans 2 048
//! candidates in tens of microseconds, so now it is simply not split. These tests pin
//! that at the paper-scale set sizes |Φ| ∈ {600, 2048} — HD through the engine ≡ HD's
//! direct `select` over the whole batch — and quantify the link coverage a selector
//! loses if it *wrongly* declares itself composable.
//!
//! The workload is a crafted adversarial motif, not a random set: ten independent
//! four-link universes where the globally complementary candidate (`y`) sits in the
//! *second* sub-range behind twenty locally disjoint decoys, so every per-sub-range
//! truncation drops it even though the full-batch greedy picks it. Random workloads tend
//! to saturate the coverage metric and show no delta; this one provably does.

use irec_algorithms::disjoint::HeuristicDisjointness;
use irec_algorithms::{
    AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm, SelectionResult,
};
use irec_core::beacon_db::BatchKey;
use irec_core::{
    execute_racs_with, Rac, RacConfig, RacOutput, ShardedIngressDb, BATCH_SPLIT_THRESHOLD,
};
use irec_crypto::{KeyRegistry, Signer};
use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
use irec_topology::{AsNode, Tier};
use irec_types::{AsId, Bandwidth, IfId, InterfaceGroupId, Latency, Result, SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::Arc;

const ORIGIN: AsId = AsId(1);
const TRANSIT: AsId = AsId(5);
const LOCAL: AsId = AsId(62000);
const EGRESS: IfId = IfId(900);
/// Number of independent motif universes; the HD budget (20) is exactly two picks per
/// universe, so the full-batch greedy spends it on `{a1, y}` of every universe.
const MOTIFS: u64 = 10;

/// HD behind a declaration of its own: same selection, and with `claims_composable` it
/// *lies* about being union-composable, which sends it down the concatenated-truncation
/// reduce — kept around to measure what a wrong declaration costs.
struct LegacyReduceHd {
    hd: HeuristicDisjointness,
    claims_composable: bool,
}

impl RoutingAlgorithm for LegacyReduceHd {
    fn name(&self) -> &str {
        self.hd.name()
    }

    fn select(
        &self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        self.hd.select(batch, ctx)
    }

    fn union_composable(&self) -> bool {
        self.claims_composable
    }
}

/// A two-hop beacon `ORIGIN --e0--> TRANSIT --e1--> (received locally)`, so its
/// inter-domain link set is exactly `{(ORIGIN, e0), (TRANSIT, e1)}`.
fn chain(registry: &KeyRegistry, seq: u64, e0: u32, e1: u32) -> Pcb {
    let mut pcb = Pcb::originate(
        ORIGIN,
        seq,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_hours(6),
        PcbExtensions::none(),
    );
    let info = StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None);
    pcb.extend(
        IfId::NONE,
        IfId(e0),
        info,
        &Signer::new(ORIGIN, registry.clone()),
    )
    .expect("origin hop is valid");
    pcb.extend(
        IfId(1),
        IfId(e1),
        info,
        &Signer::new(TRANSIT, registry.clone()),
    )
    .expect("transit hop is valid");
    pcb
}

/// Lays out the adversarial batch. Per motif universe `m` the four links are
/// `Fa = (O, 10+m)`, `Fc = (O, 70+m)`, `Fd = (O, 40+m)`, `S1 = (T, 100+m)`,
/// `S2 = (T, 200+m)`, and the candidates are:
///
/// - `a1 = {Fa, S1}` in sub-range 0 — picked everywhere.
/// - `b1 = {Fa, S2}` and `b2 = {Fc, S1}` in sub-range 1 — locally disjoint decoys that
///   fill sub-range 1's budget.
/// - `y = {Fd, S2}` in sub-range 1 *after* the decoys — disjoint from `a1`, so the
///   full-batch greedy picks it, but it overlaps `b1`, so sub-range 1 truncates it.
/// - filler: identical chains sharing `Fa^0`, so they never beat `y` globally.
///
/// Sub-ranges beyond the second (|Φ| = 2048) are pure filler.
fn adversarial_db(phi: usize) -> ShardedIngressDb {
    assert_eq!(
        BATCH_SPLIT_THRESHOLD, 512,
        "layout assumes 512-wide sub-ranges"
    );
    assert!(phi >= 600, "needs at least two sub-ranges");
    let registry = KeyRegistry::with_ases(7, 64);
    let db = ShardedIngressDb::default();
    let mut seq = 0u64;
    let mut push = |e0: u32, e1: u32| {
        let pcb = chain(&registry, seq, e0, e1);
        seq += 1;
        db.insert(pcb, IfId(1), SimTime::ZERO);
    };
    for m in 0..MOTIFS {
        push(10 + m as u32, 100 + m as u32); // a1^m
    }
    for _ in MOTIFS as usize..BATCH_SPLIT_THRESHOLD {
        push(10, 999); // sub-range 0 filler
    }
    for m in 0..MOTIFS {
        push(10 + m as u32, 200 + m as u32); // b1^m
    }
    for m in 0..MOTIFS {
        push(70 + m as u32, 100 + m as u32); // b2^m
    }
    for m in 0..MOTIFS {
        push(40 + m as u32, 200 + m as u32); // y^m
    }
    for _ in (BATCH_SPLIT_THRESHOLD + 3 * MOTIFS as usize)..phi {
        push(10, 998); // sub-range 1+ filler
    }
    db
}

fn run(rac: Rac, phi: usize, split_threshold: usize) -> Vec<RacOutput> {
    let db = adversarial_db(phi);
    let node = AsNode::new(LOCAL, Tier::Tier2);
    let racs = vec![rac];
    let (outputs, _) = execute_racs_with(
        &racs,
        &db,
        &node,
        &[EGRESS],
        SimTime::ZERO,
        4,
        split_threshold,
    )
    .expect("engine pass succeeds");
    outputs
}

fn hd_rac() -> Rac {
    Rac::new_static(RacConfig::static_rac("HD", "HD")).expect("HD resolves")
}

fn hookless_rac(claims_composable: bool) -> Rac {
    Rac::with_algorithm(
        RacConfig::static_rac("HD", "HD"),
        Arc::new(LegacyReduceHd {
            hd: HeuristicDisjointness::new(20),
            claims_composable,
        }),
    )
}

/// HD through the generic reduce it is not entitled to.
fn legacy_rac() -> Rac {
    hookless_rac(true)
}

/// The disjointness coverage of a selection: the number of distinct inter-AS links
/// (AS, egress interface) traversed by the selected beacons — the quantity HD maximizes.
fn link_coverage(outputs: &[RacOutput]) -> usize {
    let links: BTreeSet<(AsId, IfId)> = outputs
        .iter()
        .flat_map(|output| output.beacon.pcb.link_keys())
        .collect();
    links.len()
}

fn assert_identical(unsplit: &[RacOutput], split: &[RacOutput]) {
    assert_eq!(unsplit.len(), split.len());
    for (a, b) in unsplit.iter().zip(split) {
        assert_eq!(a.rac_name, b.rac_name);
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.group, b.group);
        assert_eq!(a.egress_ifs, b.egress_ifs);
        assert_eq!(a.beacon, b.beacon);
    }
}

/// HD's direct `select` over the whole batch, as outputs: the reference no engine
/// machinery takes part in.
fn direct_full_batch_selection(phi: usize) -> Vec<(Pcb, Vec<IfId>)> {
    let db = adversarial_db(phi);
    let key = BatchKey {
        origin: ORIGIN,
        group: InterfaceGroupId::DEFAULT,
        target: None,
    };
    let view = db
        .batch_view(&key, SimTime::ZERO)
        .expect("the batch is stored");
    assert_eq!(view.len(), phi);
    let batch = CandidateBatch::new(
        ORIGIN,
        InterfaceGroupId::DEFAULT,
        view.beacons
            .iter()
            .map(|b| Candidate::new(b.pcb.clone(), b.ingress))
            .collect(),
    );
    let node = AsNode::new(LOCAL, Tier::Tier2);
    let selection = HeuristicDisjointness::new(20)
        .select(&batch, &AlgorithmContext::new(&node, vec![EGRESS], 20))
        .expect("HD selects");
    let mut picked = selection.per_egress[&EGRESS].clone();
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|index| (view.beacons[index].pcb.clone(), vec![EGRESS]))
        .collect()
}

/// The headline regression: HD through the engine at the default threshold selects what
/// its direct `select` over the full batch selects, at both paper-scale set sizes — and
/// what the engine selects with the threshold out of reach.
#[test]
fn hd_is_never_split() {
    assert!(!hd_rac().splits_batches());
    for phi in [600usize, 2048] {
        assert!(phi > BATCH_SPLIT_THRESHOLD);
        let through_engine = run(hd_rac(), phi, BATCH_SPLIT_THRESHOLD);
        assert_identical(&run(hd_rac(), phi, phi), &through_engine);
        let direct = direct_full_batch_selection(phi);
        assert_eq!(through_engine.len(), direct.len());
        for (output, (pcb, egress_ifs)) in through_engine.iter().zip(&direct) {
            assert_eq!(&output.beacon.pcb, pcb);
            assert_eq!(&output.egress_ifs, egress_ifs);
        }
    }
}

/// Quantifies what a wrong declaration costs: on the adversarial motif the
/// concatenated-truncation reduce strictly under-covers the full-batch objective (it
/// keeps the sub-range decoys and loses every `y`), while HD as the catalog declares it
/// matches the full-batch coverage exactly (loss = 0).
#[test]
fn hd_split_disjointness_delta_is_quantified() {
    for phi in [600usize, 2048] {
        let full = link_coverage(&run(hd_rac(), phi, phi));
        let unsplit = link_coverage(&run(hd_rac(), phi, BATCH_SPLIT_THRESHOLD));
        let legacy = link_coverage(&run(legacy_rac(), phi, BATCH_SPLIT_THRESHOLD));
        println!(
            "phi = {phi}: full coverage {full}, HD {unsplit} (loss {}), \
             wrongly composable {legacy} (loss {})",
            full - unsplit,
            full - legacy,
        );
        assert_eq!(unsplit, full, "HD must be lossless at phi = {phi}");
        assert!(
            legacy < full,
            "the motif is built so the generic reduce strictly loses coverage \
             (legacy {legacy} vs full {full} at phi = {phi})"
        );
    }
}

/// A set-valued selector that does not declare itself composable falls into no reduce at
/// all: the engine hands it the whole batch in one pass, whatever the split threshold, so
/// it selects what the unsplit run selects. (Before the declaration existed it was
/// silently given the generic reduce and lost the coverage quantified above.)
#[test]
fn undeclared_selectors_are_never_split() {
    let honest = || hookless_rac(false);
    assert!(!honest().splits_batches() && legacy_rac().splits_batches());
    for phi in [600usize, 2048] {
        let unsplit = run(honest(), phi, phi);
        let split = run(honest(), phi, BATCH_SPLIT_THRESHOLD);
        assert_identical(&unsplit, &split);
        assert_identical(&unsplit, &run(hd_rac(), phi, BATCH_SPLIT_THRESHOLD));
    }
}

/// The wrongly declared wrapper itself stays deterministic across repeated runs — the
/// loss it measures is an approximation artifact, not a race.
#[test]
fn legacy_reduce_is_still_deterministic() {
    let reference = run(legacy_rac(), 600, BATCH_SPLIT_THRESHOLD);
    assert!(!reference.is_empty());
    for _ in 0..2 {
        let repeat = run(legacy_rac(), 600, BATCH_SPLIT_THRESHOLD);
        assert_identical(&reference, &repeat);
    }
}
