//! Churn-incremental re-selection: the old/new-table pattern.
//!
//! A full RAC pass after a topology delta re-scores every `(origin, group)` candidate batch,
//! although a single link flap only perturbs the batches whose hop chains cross that link.
//! [`IncrementalTable`] keeps a table of previous results per `(origin, group, target)` (the
//! "old table"); a churn delta — mapped by the simulator's churn engine into a neutral
//! [`SelectionDelta`] — invalidates exactly the entries whose recorded link/AS footprint
//! intersects the delta, and the next pass re-runs the wrapped computation only for
//! invalidated or changed batches, reusing the stored result everywhere else. Entries
//! re-validated or recomputed during a pass form the "new table";
//! [`IncrementalTable::commit_round`] swaps it in, aging out batches that disappeared.
//!
//! Correctness does not hinge on the invalidation being precise: every reuse is guarded by a
//! fingerprint over the batch content and selection context, so a stale entry that somehow
//! survives an imprecise delta is still discarded when the batch itself changed. The
//! equality `incremental selection == full recompute` therefore holds per step by
//! construction — the point of the table is to make the cheap path the common one, which
//! the [`stats`](IncrementalTable::stats) counters expose for tests and benches.
//!
//! Two layers use the table: [`IncrementalSelection`] caches raw
//! [`SelectionResult`]s for direct algorithm invocations (the PR-9 acceptance harness), and
//! the core engine caches whole per-RAC output vectors keyed by the same footprint logic
//! (the live round path).

use crate::{AlgorithmContext, CandidateBatch, RoutingAlgorithm, SelectionResult};
use irec_types::{AsId, IfId, InterfaceGroupId, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A topology delta in selection terms: which hop-chain footprints are stale. The simulator
/// maps its churn deltas (`link-down`, `node-leave`, ...) into this neutral form so the
/// algorithms crate stays independent of the simulation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionDelta {
    /// A link changed state; the payload is its `(AS, interface)` endpoint keys as they
    /// appear in PCB hop entries.
    Link(Vec<(AsId, IfId)>),
    /// An AS joined or left the topology.
    As(AsId),
    /// A change that can affect every batch (e.g. a RAC catalog swap).
    All,
}

/// Counters exposing how the table behaved: how often the cached result was reused, how
/// often the wrapped computation actually ran, and how many entries deltas invalidated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Selections served from the table.
    pub reused: usize,
    /// Selections that ran the wrapped computation.
    pub recomputed: usize,
    /// Table entries dropped by [`SelectionDelta`]s.
    pub invalidated: usize,
}

impl IncrementalStats {
    /// Adds `other`'s counters into `self` — for summing per-table stats into one report.
    pub fn accumulate(&mut self, other: IncrementalStats) {
        self.reused += other.reused;
        self.recomputed += other.recomputed;
        self.invalidated += other.invalidated;
    }
}

/// The table key: one candidate batch identity — origin AS, interface group, and target AS
/// for pull-based batches (`None` for push-based ones, so targeted and untargeted batches of
/// the same origin never thrash one entry).
pub type TableKey = (AsId, InterfaceGroupId, Option<AsId>);

/// One old-table entry: the stored value plus the footprint and fingerprint guarding it.
#[derive(Debug, Clone)]
struct TableEntry<V> {
    fingerprint: u64,
    links: BTreeSet<(AsId, IfId)>,
    ases: BTreeSet<AsId>,
    value: V,
}

/// The generic old/new table behind incremental re-selection: values keyed by batch
/// identity, guarded by a content fingerprint, invalidated by footprint-intersecting
/// [`SelectionDelta`]s, and aged out by [`commit_round`](IncrementalTable::commit_round)
/// when their batches vanish.
///
/// The caller owns the fingerprint recipe (see [`FingerprintBuilder`]) and the footprint
/// extraction; the table owns reuse bookkeeping. [`IncrementalSelection`] instantiates it
/// with `V = SelectionResult`; the core engine instantiates it with a per-RAC output vector.
#[derive(Debug, Clone, Default)]
pub struct IncrementalTable<V> {
    table: BTreeMap<TableKey, TableEntry<V>>,
    fresh: BTreeSet<TableKey>,
    stats: IncrementalStats,
}

impl<V: Clone> IncrementalTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        IncrementalTable {
            table: BTreeMap::new(),
            fresh: BTreeSet::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The table's behaviour counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Looks up `key`: the stored value when the entry survived all deltas and
    /// `fingerprint` still matches, `None` otherwise. A hit counts as a reuse and marks the
    /// entry fresh for the current round.
    pub fn probe(&mut self, key: TableKey, fingerprint: u64) -> Option<V> {
        let entry = self.table.get(&key)?;
        if entry.fingerprint != fingerprint {
            return None;
        }
        self.stats.reused += 1;
        self.fresh.insert(key);
        Some(entry.value.clone())
    }

    /// Stores a freshly computed `value` for `key`, guarded by `fingerprint`, recording
    /// the hop-chain footprint from `links` (each `(AS, egress interface)` key as it appears
    /// in PCB hop entries). Counts as a recompute and marks the entry fresh.
    pub fn store(
        &mut self,
        key: TableKey,
        fingerprint: u64,
        links: impl IntoIterator<Item = (AsId, IfId)>,
        value: V,
    ) {
        let mut link_set = BTreeSet::new();
        let mut ases = BTreeSet::new();
        for (asn, ifid) in links {
            link_set.insert((asn, ifid));
            ases.insert(asn);
        }
        self.table.insert(
            key,
            TableEntry {
                fingerprint,
                links: link_set,
                ases,
                value,
            },
        );
        self.fresh.insert(key);
        self.stats.recomputed += 1;
    }

    /// Drops every entry whose footprint intersects `delta`; returns how many were dropped.
    pub fn apply_delta(&mut self, delta: &SelectionDelta) -> usize {
        let before = self.table.len();
        match delta {
            SelectionDelta::All => self.table.clear(),
            SelectionDelta::Link(endpoints) => self.table.retain(|_, entry| {
                !endpoints
                    .iter()
                    .any(|e| entry.links.contains(e) || entry.ases.contains(&e.0))
            }),
            SelectionDelta::As(asn) => self
                .table
                .retain(|(origin, _, _), entry| origin != asn && !entry.ases.contains(asn)),
        }
        let dropped = before - self.table.len();
        self.stats.invalidated += dropped;
        dropped
    }

    /// Ends one pass: entries not probed or stored since the previous commit age out (their
    /// batches no longer exist), and the new table becomes the old one.
    pub fn commit_round(&mut self) {
        let fresh = std::mem::take(&mut self.fresh);
        self.table.retain(|key, _| fresh.contains(key));
    }
}

/// The incremental re-selection wrapper around a [`RoutingAlgorithm`]: an
/// [`IncrementalTable`] of raw [`SelectionResult`]s keyed by batch identity. See the module
/// docs for the old/new-table flow.
pub struct IncrementalSelection {
    algorithm: Arc<dyn RoutingAlgorithm>,
    table: IncrementalTable<SelectionResult>,
}

impl IncrementalSelection {
    /// Wraps `algorithm` with an empty table.
    pub fn new(algorithm: Arc<dyn RoutingAlgorithm>) -> Self {
        IncrementalSelection {
            algorithm,
            table: IncrementalTable::new(),
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &Arc<dyn RoutingAlgorithm> {
        &self.algorithm
    }

    /// The table's behaviour counters.
    pub fn stats(&self) -> IncrementalStats {
        self.table.stats()
    }

    /// Number of stored selections.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Drops every entry whose footprint intersects `delta`; returns how many were dropped.
    pub fn apply_delta(&mut self, delta: &SelectionDelta) -> usize {
        self.table.apply_delta(delta)
    }

    /// Selects for one batch: the stored result when the entry survived all deltas and the
    /// batch/context fingerprint still matches, a fresh run of the wrapped algorithm
    /// otherwise. Either way the entry lands in the new table.
    pub fn select(
        &mut self,
        batch: &CandidateBatch,
        ctx: &AlgorithmContext<'_>,
    ) -> Result<SelectionResult> {
        let key = (batch.origin, batch.group, batch.target);
        let fingerprint = fingerprint(batch, ctx);
        if let Some(result) = self.table.probe(key, fingerprint) {
            return Ok(result);
        }
        let result = self.algorithm.select(batch, ctx)?;
        let links = batch
            .candidates
            .iter()
            .flat_map(|c| c.pcb.link_keys())
            .collect::<Vec<_>>();
        self.table.store(key, fingerprint, links, result.clone());
        Ok(result)
    }

    /// Ends one pass: entries not re-selected since the previous commit age out (their
    /// batches no longer exist), and the new table becomes the old one.
    pub fn commit_round(&mut self) {
        self.table.commit_round();
    }
}

/// Incremental fingerprint accumulator: a splitmix64 chain over 64-bit words, seeded with
/// the repo's standard constant. Both the algorithm-level fingerprint here and the core
/// engine's batch-view fingerprint fold through this builder so the recipes stay aligned.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Starts a chain from the standard seed.
    pub fn new() -> Self {
        FingerprintBuilder {
            state: 0x243f_6a88_85a3_08d3,
        }
    }

    /// Folds one word into the chain.
    pub fn fold(&mut self, word: u64) {
        self.state = splitmix64(self.state ^ word);
    }

    /// Folds a little-endian byte slice, 8 bytes per word (shorter tails zero-padded).
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    /// The chain's current value.
    pub fn finish(self) -> u64 {
        self.state
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

/// Order-sensitive fingerprint over the batch content and the selection context: candidate
/// contents and ingress interfaces, the egress list, and the budget/extension knobs.
///
/// A candidate's content is folded as its canonical wire bytes (length first, so candidate
/// boundaries cannot shift) — one encode, no cryptographic hash: the fingerprint only
/// guards a local cache.
fn fingerprint(batch: &CandidateBatch, ctx: &AlgorithmContext<'_>) -> u64 {
    let mut fp = FingerprintBuilder::new();
    fp.fold(batch.origin.value());
    fp.fold(u64::from(batch.group.value()));
    fp.fold(batch.target.map_or(u64::MAX, |t| t.value()));
    for c in &batch.candidates {
        let encoded = c.pcb.wire_bytes();
        fp.fold(encoded.len() as u64);
        fp.fold_bytes(&encoded);
        fp.fold(u64::from(c.ingress.value()));
    }
    fp.fold(ctx.local_as.id.value());
    for egress in &ctx.egress_interfaces {
        fp.fold(u64::from(egress.value()));
    }
    fp.fold(ctx.max_selected as u64);
    fp.fold(u64::from(ctx.extend_paths));
    fp.finish()
}

/// The splitmix64 finalizer (one-shot form of the repo's standard mixing recipe).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::KShortestPaths;
    use crate::testutil::{candidate_with_links, local_as};

    fn ctx(node: &irec_topology::AsNode) -> AlgorithmContext<'_> {
        AlgorithmContext::new(node, vec![IfId(3)], 20)
    }

    fn batch(origin: u64, shift: u64) -> CandidateBatch {
        CandidateBatch::new(
            AsId(origin),
            InterfaceGroupId::DEFAULT,
            (0..4)
                .map(|i| {
                    candidate_with_links(origin, &[(origin, (i + shift) as u32 + 1), (9 + i, 1)], 1)
                })
                .collect(),
        )
    }

    fn incremental() -> IncrementalSelection {
        IncrementalSelection::new(Arc::new(KShortestPaths::new(3)))
    }

    #[test]
    fn second_pass_reuses_and_matches_full_recompute() {
        let node = local_as();
        let b = batch(1, 0);
        let mut inc = incremental();
        let first = inc.select(&b, &ctx(&node)).unwrap();
        let again = inc.select(&b, &ctx(&node)).unwrap();
        let full = inc.algorithm().clone().select(&b, &ctx(&node)).unwrap();
        assert_eq!(first, again);
        assert_eq!(again, full);
        assert_eq!(inc.stats().recomputed, 1);
        assert_eq!(inc.stats().reused, 1);
        assert_eq!(inc.len(), 1);
        assert!(!inc.is_empty());
    }

    #[test]
    fn link_delta_invalidates_only_crossing_batches() {
        let node = local_as();
        let mut inc = incremental();
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        inc.select(&batch(2, 0), &ctx(&node)).unwrap();
        // Batch 1's chains cross (1, 1); batch 2's cross (2, 1) — only batch 1 drops.
        let dropped = inc.apply_delta(&SelectionDelta::Link(vec![(AsId(1), IfId(1))]));
        assert_eq!(dropped, 1);
        assert_eq!(inc.len(), 1);
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        inc.select(&batch(2, 0), &ctx(&node)).unwrap();
        assert_eq!(inc.stats().recomputed, 3, "batch 1 recomputed once more");
        assert_eq!(inc.stats().reused, 1, "batch 2 reused");
        assert_eq!(inc.stats().invalidated, 1);
    }

    #[test]
    fn as_delta_invalidates_traversing_and_originating_batches() {
        let node = local_as();
        let mut inc = incremental();
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        inc.select(&batch(2, 0), &ctx(&node)).unwrap();
        // AS 9 sits on every chain (the second hop of candidate 0).
        assert_eq!(inc.apply_delta(&SelectionDelta::As(AsId(9))), 2);
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        assert_eq!(inc.apply_delta(&SelectionDelta::As(AsId(1))), 1);
        assert_eq!(inc.apply_delta(&SelectionDelta::All), 0);
    }

    #[test]
    fn changed_batch_content_defeats_stale_reuse() {
        let node = local_as();
        let mut inc = incremental();
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        // Same (origin, group) key, different candidates, no delta applied: the fingerprint
        // guard must force a recompute rather than serving the stale entry.
        let changed = batch(1, 3);
        let r = inc.select(&changed, &ctx(&node)).unwrap();
        let full = inc
            .algorithm()
            .clone()
            .select(&changed, &ctx(&node))
            .unwrap();
        assert_eq!(r, full);
        assert_eq!(inc.stats().recomputed, 2);
        assert_eq!(inc.stats().reused, 0);
    }

    #[test]
    fn context_change_defeats_stale_reuse() {
        let node = local_as();
        let mut inc = incremental();
        let b = batch(1, 0);
        inc.select(&b, &ctx(&node)).unwrap();
        let mut tight = ctx(&node);
        tight.max_selected = 1;
        let r = inc.select(&b, &tight).unwrap();
        assert_eq!(r.per_egress[&IfId(3)].len(), 1);
        assert_eq!(inc.stats().recomputed, 2);
    }

    #[test]
    fn commit_round_ages_out_vanished_batches() {
        let node = local_as();
        let mut inc = incremental();
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        inc.select(&batch(2, 0), &ctx(&node)).unwrap();
        inc.commit_round();
        assert_eq!(inc.len(), 2);
        // Next pass only sees origin 1; origin 2's entry ages out on commit.
        inc.select(&batch(1, 0), &ctx(&node)).unwrap();
        inc.commit_round();
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn generic_table_probe_store_and_ageing() {
        let mut table: IncrementalTable<Vec<u32>> = IncrementalTable::new();
        let key = (AsId(1), InterfaceGroupId::DEFAULT, None);
        assert!(table.probe(key, 7).is_none());
        table.store(key, 7, vec![(AsId(1), IfId(1))], vec![10, 20]);
        assert_eq!(table.probe(key, 7), Some(vec![10, 20]));
        assert!(table.probe(key, 8).is_none(), "fingerprint mismatch misses");
        assert_eq!(table.stats().recomputed, 1);
        assert_eq!(table.stats().reused, 1);
        table.commit_round();
        assert_eq!(table.len(), 1);
        // Not touched this round: ages out on the next commit.
        table.commit_round();
        assert!(table.is_empty());
    }

    #[test]
    fn targeted_and_untargeted_batches_keep_separate_entries() {
        let node = local_as();
        let mut inc = incremental();
        let b = batch(1, 0);
        let mut targeted = batch(1, 0);
        targeted.target = Some(AsId(77));
        inc.select(&b, &ctx(&node)).unwrap();
        inc.select(&targeted, &ctx(&node)).unwrap();
        assert_eq!(inc.len(), 2, "target is part of the table key");
        assert_eq!(inc.stats().recomputed, 2);
        inc.select(&b, &ctx(&node)).unwrap();
        inc.select(&targeted, &ctx(&node)).unwrap();
        assert_eq!(inc.stats().reused, 2);
    }

    #[test]
    fn stats_accumulate_sums_counters() {
        let mut total = IncrementalStats::default();
        total.accumulate(IncrementalStats {
            reused: 1,
            recomputed: 2,
            invalidated: 3,
        });
        total.accumulate(IncrementalStats {
            reused: 10,
            recomputed: 20,
            invalidated: 30,
        });
        assert_eq!(
            total,
            IncrementalStats {
                reused: 11,
                recomputed: 22,
                invalidated: 33,
            }
        );
    }
}
