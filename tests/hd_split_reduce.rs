//! Acceptance tests for HD over paper-scale candidate batches (|Φ| ∈ {600, 2048}, above the
//! 512 candidates a batch was once cut at). The engine hands every batch to its RAC whole,
//! in one selection pass, whatever its size: HD — and every other selector, whatever it
//! declares — selects through the engine what its direct `select` over the whole batch
//! selects.
//!
//! The tests also keep the measurement that decided which selectors a batch could be cut
//! for. Contiguous 512-candidate sub-ranges whose winners are reduced by one more `select`
//! are exact only for a selector that is
//! [union-composable](RoutingAlgorithm::union_composable). HD's objective is set-valued:
//! over *concatenated truncations* of sub-ranges it can discard the globally disjoint
//! winners. [`split_reduce`] computes that reduce here, in the test alone, to quantify what
//! cutting HD's batch would cost.
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
use irec_core::{execute_racs, Rac, RacConfig, RacOutput, ShardedIngressDb};
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
/// The width of the sub-ranges [`split_reduce`] cuts a batch into.
const SUB_RANGE: usize = 512;
/// The per-egress budget of every RAC here (the `RacConfig` default).
const BUDGET: usize = 20;

/// HD behind a declaration of its own: same selection, and with `claims_composable` it
/// *lies* about being union-composable — which must change nothing the engine selects.
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
    for _ in MOTIFS as usize..SUB_RANGE {
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
    for _ in (SUB_RANGE + 3 * MOTIFS as usize)..phi {
        push(10, 998); // sub-range 1+ filler
    }
    db
}

/// The engine's selection for `rac` over the adversarial batch of `phi` candidates.
fn run(rac: Rac, phi: usize) -> Vec<RacOutput> {
    let db = adversarial_db(phi);
    let node = AsNode::new(LOCAL, Tier::Tier2);
    let (outputs, _) = execute_racs(&[rac], &db, &node, &[EGRESS], SimTime::ZERO, 1)
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
            hd: hd(),
            claims_composable,
        }),
    )
}

/// The disjointness coverage of a selection: the number of distinct inter-AS links
/// (AS, egress interface) traversed by the selected beacons — the quantity HD maximizes.
fn link_coverage(selection: &[(Pcb, Vec<IfId>)]) -> usize {
    let links: BTreeSet<(AsId, IfId)> = selection
        .iter()
        .flat_map(|(pcb, _)| pcb.link_keys())
        .collect();
    links.len()
}

/// The engine's outputs in the form [`direct`] returns.
fn selection(outputs: &[RacOutput]) -> Vec<(Pcb, Vec<IfId>)> {
    for output in outputs {
        assert_eq!(
            (output.origin, output.group),
            (ORIGIN, InterfaceGroupId::DEFAULT)
        );
    }
    outputs
        .iter()
        .map(|output| (output.beacon.pcb.clone(), output.egress_ifs.clone()))
        .collect()
}

/// The adversarial batch of `phi` candidates, as its view holds them.
fn batch(phi: usize) -> Vec<Candidate> {
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
    view.beacons
        .iter()
        .map(|b| Candidate::new(b.pcb.clone(), b.ingress))
        .collect()
}

/// `algorithm`'s picks over `candidates`, ascending.
fn picks(algorithm: &dyn RoutingAlgorithm, candidates: Vec<Candidate>) -> Vec<usize> {
    let node = AsNode::new(LOCAL, Tier::Tier2);
    let batch = CandidateBatch::new(ORIGIN, InterfaceGroupId::DEFAULT, candidates);
    let selection = algorithm
        .select(&batch, &AlgorithmContext::new(&node, vec![EGRESS], BUDGET))
        .expect("the algorithm selects");
    let mut picked = selection
        .per_egress
        .get(&EGRESS)
        .cloned()
        .unwrap_or_default();
    picked.sort_unstable();
    picked
}

/// `algorithm`'s direct `select` over the whole batch, as outputs: the reference no engine
/// machinery takes part in.
fn direct(algorithm: &dyn RoutingAlgorithm, phi: usize) -> Vec<(Pcb, Vec<IfId>)> {
    let candidates = batch(phi);
    picks(algorithm, candidates.clone())
        .into_iter()
        .map(|index| (candidates[index].pcb.clone(), vec![EGRESS]))
        .collect()
}

/// The reduce a cut batch would get: `algorithm` over every [`SUB_RANGE`]-candidate
/// sub-range, then once more over the union of the sub-range winners, in ascending
/// candidate order.
fn split_reduce(algorithm: &dyn RoutingAlgorithm, phi: usize) -> Vec<(Pcb, Vec<IfId>)> {
    let candidates = batch(phi);
    let winners: Vec<Candidate> = candidates
        .chunks(SUB_RANGE)
        .flat_map(|range| {
            picks(algorithm, range.to_vec())
                .into_iter()
                .map(|index| range[index].clone())
        })
        .collect();
    picks(algorithm, winners.clone())
        .into_iter()
        .map(|index| (winners[index].pcb.clone(), vec![EGRESS]))
        .collect()
}

fn hd() -> HeuristicDisjointness {
    HeuristicDisjointness::new(BUDGET)
}

/// The headline regression: HD through the engine selects, in one pass over a batch above
/// 512 candidates, what its direct `select` over the whole batch selects, at both
/// paper-scale set sizes.
#[test]
fn hd_is_never_split() {
    for phi in [600usize, 2048] {
        assert_eq!(
            selection(&run(hd_rac(), phi)),
            direct(&hd(), phi),
            "phi = {phi}"
        );
    }
}

/// Quantifies what cutting HD's batch would cost: on the adversarial motif the
/// concatenated-truncation reduce strictly under-covers the full-batch objective (it keeps
/// the sub-range decoys and loses every `y`), while HD through the engine matches the
/// full-batch coverage exactly (loss = 0).
#[test]
fn hd_split_disjointness_delta_is_quantified() {
    for phi in [600usize, 2048] {
        let full = link_coverage(&direct(&hd(), phi));
        let engine = link_coverage(&selection(&run(hd_rac(), phi)));
        let reduced = link_coverage(&split_reduce(&hd(), phi));
        println!(
            "phi = {phi}: full coverage {full}, HD {engine} (loss {}), \
             split and reduced {reduced} (loss {})",
            full - engine,
            full - reduced,
        );
        assert_eq!(engine, full, "HD must be lossless at phi = {phi}");
        assert!(
            reduced < full,
            "the motif is built so the generic reduce strictly loses coverage \
             (reduced {reduced} vs full {full} at phi = {phi})"
        );
    }
}

/// No selector's batch is cut, whatever it declares: HD behind an honest declaration and
/// behind a false claim of union-composability both select through the engine what HD's
/// direct `select` does. 5SP, which is union-composable, does too at |Φ| = 600 — its batch
/// is no longer cut either.
#[test]
fn undeclared_selectors_are_never_split() {
    for phi in [600usize, 2048] {
        let reference = direct(&hd(), phi);
        for claims_composable in [false, true] {
            let rac = hookless_rac(claims_composable);
            assert_eq!(
                selection(&run(rac, phi)),
                reference,
                "claims {claims_composable} at phi = {phi}"
            );
        }
    }
    let five_sp = irec_algorithms::catalog::by_name("5SP").expect("5SP resolves");
    assert!(five_sp.union_composable());
    let rac = Rac::new_static(RacConfig::static_rac("5SP", "5SP")).expect("5SP resolves");
    let through_engine = selection(&run(rac, 600));
    assert!(!through_engine.is_empty());
    assert_eq!(through_engine, direct(five_sp.as_ref(), 600));
}

/// The reduce stays deterministic across repeated runs — the loss it measures is an
/// approximation artifact, not a race — and so does the engine under a false
/// declaration.
#[test]
fn legacy_reduce_is_still_deterministic() {
    let reference = split_reduce(&hd(), 600);
    assert!(!reference.is_empty());
    let engine = selection(&run(hookless_rac(true), 600));
    for _ in 0..2 {
        assert_eq!(split_reduce(&hd(), 600), reference);
        assert_eq!(selection(&run(hookless_rac(true), 600)), engine);
    }
}
