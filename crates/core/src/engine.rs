//! The parallel RAC execution engine.
//!
//! The paper's central architectural claim is that routing algorithm containers execute
//! *independently*: each RAC processes immutable candidate batches snapshotted out of the
//! ingress database, and no RAC observes another RAC's state. This module exploits that
//! independence. It materializes every `(RAC, candidate batch)` pair as one work item,
//! fans the items out over `std::thread::scope` workers, and merges the results
//! deterministically, so a run with `parallelism = N` is **byte-identical** to a sequential
//! run:
//!
//! * work items are built in a fixed order (RAC configuration order, batch keys in
//!   `BTreeMap` order) before any worker starts;
//! * candidate batches are `Arc`-shared immutable [`BatchView`] snapshots — workers never
//!   touch the ingress database;
//! * per-item results are written into pre-allocated slots indexed by item, so the merge
//!   walks items in their build order regardless of completion order — the merged output
//!   order (RAC configuration order, batch keys ascending, candidate index within a batch)
//!   is therefore identical for the sequential and the parallel path, and identical to what
//!   a plain sequential loop over the RACs produces.
//!
//! Errors are deterministic too: the first failing work item *in item order* wins, exactly
//! as in a sequential loop.

use crate::beacon_db::{BatchKey, BatchView, ShardedIngressDb};
use crate::rac::{Rac, RacOutput, RacTiming};
use irec_algorithms::incremental::{
    FingerprintBuilder, IncrementalStats, IncrementalTable, SelectionDelta,
};
use irec_pcb::PcbId;
use irec_topology::AsNode;
use irec_types::{IfId, Result, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Hard cap on engine workers; beyond this, coordination overhead dominates any workload
/// this codebase produces.
pub const MAX_WORKERS: usize = 64;

/// Candidate batches larger than this are split into sub-range work items so a single hot
/// origin (one huge |Φ|) cannot serialize the RAC phase: each sub-range is processed as its
/// own work item and the per-sub-range selections are reduced by one final selection pass
/// over their union (see [`execute_racs_with`]).
pub const BATCH_SPLIT_THRESHOLD: usize = 512;

/// A RAC selection paired with the [`PcbId`] its batch view carried for the selected beacon.
///
/// RACs select by candidate index and know nothing of ids; the engine owns the views, so it
/// is the engine that looks the id up — `view.ids()[output.candidate_index]` — and hands
/// the pair to the egress gateway, which dedups and registers by it without hashing the
/// beacon. The id is always one this AS computed itself when it verified the beacon.
#[derive(Debug, Clone)]
pub struct IdentifiedOutput {
    /// The id of `output.beacon`.
    pub pcb_id: PcbId,
    /// The selection.
    pub output: RacOutput,
}

/// Pairs the outputs a RAC produced over `view` with the ids `view` carries.
fn identify(view: &BatchView, outputs: Vec<RacOutput>) -> Vec<IdentifiedOutput> {
    outputs
        .into_iter()
        .map(|output| IdentifiedOutput {
            pcb_id: view.ids()[output.candidate_index],
            output,
        })
        .collect()
}

/// Drops the ids again, for callers that only look at the selections.
fn selections(
    (outputs, timing): (Vec<IdentifiedOutput>, RacTiming),
) -> (Vec<RacOutput>, RacTiming) {
    (outputs.into_iter().map(|o| o.output).collect(), timing)
}

/// One unit of parallel work: a RAC paired with a snapshot of one candidate batch (or a
/// sub-range of one, when the batch exceeded the split threshold).
struct WorkItem {
    /// Index into the RAC slice (stable identity for the deterministic merge).
    rac_index: usize,
    /// The immutable candidate batch to process.
    view: BatchView,
}

/// One logical `(RAC, batch)` pair and the contiguous range of work items it was split
/// into. Groups are built — and merged — in deterministic order: RAC configuration order,
/// then batch keys ascending, then sub-ranges by ascending candidate offset.
struct BatchGroup {
    rac_index: usize,
    key: BatchKey,
    items: std::ops::Range<usize>,
    /// The full unsplit view, retained (an `Arc` bump, no copy) for split groups so the
    /// merge can hand merge-aware algorithms the complete batch, and for every cacheable
    /// group so the merge can record the batch's hop-chain footprint in the table.
    view: Option<BatchView>,
    /// Table hit: the cached per-RAC outputs for this batch, found during the serial
    /// snapshot phase. Such groups carry no work items and contribute no timing.
    cached: Option<Vec<IdentifiedOutput>>,
    /// The batch-view fingerprint, computed during the snapshot phase for every cacheable
    /// group; the merge stores the freshly computed outputs under it.
    fingerprint: Option<u64>,
}

/// The per-node incremental selection state: one [`IncrementalTable`] of cached per-batch
/// output vectors per *cacheable* RAC (static RACs only — see
/// [`Rac::is_cacheable`]), indexed by RAC configuration order.
///
/// Determinism: the engine probes the tables in the serial snapshot phase and stores into
/// them in the serial merge phase, both on the coordinating thread in canonical group
/// order — worker threads never touch the tables, so no locking is needed and a cached run
/// is byte-identical to a from-scratch run on every scheduler × worker × shard plane.
#[derive(Debug, Clone, Default)]
pub struct SelectionTables {
    tables: Vec<Option<IncrementalTable<Vec<IdentifiedOutput>>>>,
}

impl SelectionTables {
    /// Creates one table per cacheable RAC in `racs` (configuration order); on-demand RACs
    /// get no table and always recompute.
    pub fn for_racs(racs: &[Rac]) -> Self {
        SelectionTables {
            tables: racs
                .iter()
                .map(|rac| rac.is_cacheable().then(IncrementalTable::new))
                .collect(),
        }
    }

    /// Drops every cached entry whose footprint intersects `delta`; returns how many
    /// entries were dropped across all tables.
    pub fn apply_delta(&mut self, delta: &SelectionDelta) -> usize {
        self.tables
            .iter_mut()
            .flatten()
            .map(|table| table.apply_delta(delta))
            .sum()
    }

    /// Ends one round: entries whose batches were neither probed nor stored this round age
    /// out of every table.
    pub fn commit_round(&mut self) {
        for table in self.tables.iter_mut().flatten() {
            table.commit_round();
        }
    }

    /// The summed reuse/recompute/invalidation counters across all tables.
    pub fn stats(&self) -> IncrementalStats {
        let mut total = IncrementalStats::default();
        for table in self.tables.iter().flatten() {
            total.accumulate(table.stats());
        }
        total
    }

    /// Total cached entries across all tables.
    pub fn len(&self) -> usize {
        self.tables
            .iter()
            .flatten()
            .map(IncrementalTable::len)
            .sum()
    }

    /// Whether no table holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn table_mut(
        &mut self,
        rac_index: usize,
    ) -> Option<&mut IncrementalTable<Vec<IdentifiedOutput>>> {
        self.tables.get_mut(rac_index)?.as_mut()
    }
}

/// Content fingerprint of one candidate batch under one RAC's selection context: batch key,
/// per-beacon content digest (the id the view carries — nothing is hashed here) + ingress
/// interface + receive time, the local AS, the egress list, and the RAC's selection knobs. Any batch mutation — a new beacon, an eviction, a
/// withdrawal sweep — changes a beacon digest or the beacon list and thereby the
/// fingerprint, forcing a recompute for exactly the affected `(origin, group)` batch.
///
/// `received_at` is folded per beacon because it is *not* covered by the PCB content
/// digest, yet it flows into [`RacOutput::beacon`] — without it a re-received beacon could
/// be served from the table with a stale receive time and diverge from the from-scratch
/// reference.
fn view_fingerprint(view: &BatchView, local_as: &AsNode, egress_ifs: &[IfId], rac: &Rac) -> u64 {
    let mut fp = FingerprintBuilder::new();
    fp.fold(view.key.origin.value());
    fp.fold(u64::from(view.key.group.value()));
    fp.fold(view.key.target.map_or(u64::MAX, |t| t.value()));
    for (beacon, id) in view.beacons.iter().zip(view.ids()) {
        fp.fold_bytes(&id.0 .0);
        fp.fold(u64::from(beacon.ingress.value()));
        fp.fold(beacon.received_at.0);
    }
    fp.fold(local_as.id.value());
    for egress in egress_ifs {
        fp.fold(u64::from(egress.value()));
    }
    fp.fold(rac.config().max_selected as u64);
    fp.fold(u64::from(rac.config().extend_paths));
    fp.finish()
}

type ItemResult = Result<(Vec<RacOutput>, RacTiming)>;

/// Runs every RAC over its relevant candidate batches from `db` and returns the merged
/// selections plus accumulated timing.
///
/// With `parallelism <= 1` the items run sequentially on the calling thread; with
/// `parallelism > 1` they are distributed over that many scoped worker threads (capped at
/// [`MAX_WORKERS`] and at the number of items). Both paths produce byte-identical results.
/// Batches larger than [`BATCH_SPLIT_THRESHOLD`] candidates are split into sub-range work
/// items with a deterministic sub-merge.
pub fn execute_racs(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
) -> Result<(Vec<RacOutput>, RacTiming)> {
    execute_racs_with(
        racs,
        db,
        local_as,
        egress_ifs,
        now,
        parallelism,
        BATCH_SPLIT_THRESHOLD,
    )
}

/// [`execute_racs`] consulting per-RAC incremental selection tables: batches whose
/// fingerprint matches a table entry are served from the table (no work item, no
/// algorithm run), everything else is computed as usual and stored back. With
/// `tables = None` this is exactly [`execute_racs`] — the retained from-scratch reference.
///
/// Cached groups contribute **zero** timing, which is the measured round-cost win; no
/// deterministic output (fingerprints, registered paths, counters) folds timing, so the
/// byte-identity guarantee is unaffected.
///
/// This is the node's entry point, so the selections come back paired with the ids their
/// views carried ([`IdentifiedOutput`]) — what the egress gateway consumes.
#[allow(clippy::too_many_arguments)]
pub fn execute_racs_cached(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
    tables: Option<&mut SelectionTables>,
) -> Result<(Vec<IdentifiedOutput>, RacTiming)> {
    execute_racs_inner(
        racs,
        db,
        local_as,
        egress_ifs,
        now,
        parallelism,
        BATCH_SPLIT_THRESHOLD,
        tables,
    )
}

/// [`execute_racs`] with an explicit batch-split threshold (exposed so tests and benchmarks
/// can exercise the splitting machinery on small batches).
///
/// Splitting is part of the canonical work-item construction, **not** a function of the
/// worker count: a batch of `n > threshold` candidates always becomes `ceil(n / threshold)`
/// sub-range items plus one reduce pass, whether the items then run on one thread or many —
/// which is what keeps parallel runs byte-identical to sequential ones. The reduce pass
/// re-runs the RAC's selection over the union of the sub-range selections (in ascending
/// candidate order); for selectors that rank candidates independently (shortest, widest,
/// k-shortest) this two-level selection equals the single-pass selection, for set-valued
/// selectors (e.g. high-disjointness) it is the standard hierarchical approximation.
#[allow(clippy::too_many_arguments)]
pub fn execute_racs_with(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
    split_threshold: usize,
) -> Result<(Vec<RacOutput>, RacTiming)> {
    execute_racs_inner(
        racs,
        db,
        local_as,
        egress_ifs,
        now,
        parallelism,
        split_threshold,
        None,
    )
    .map(selections)
}

#[allow(clippy::too_many_arguments)]
fn execute_racs_inner(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
    split_threshold: usize,
    mut tables: Option<&mut SelectionTables>,
) -> Result<(Vec<IdentifiedOutput>, RacTiming)> {
    let threshold = split_threshold.max(1);
    // Snapshot phase: materialize the work list in deterministic order. Incremental tables
    // are probed here, on the coordinating thread, so a table hit skips work-item creation
    // entirely and table access stays serial and deterministic.
    let mut items = Vec::new();
    let mut groups = Vec::new();
    for (rac_index, rac) in racs.iter().enumerate() {
        for view in rac.relevant_batches(db, now) {
            let start = items.len();
            let key = view.key;
            let fingerprint = tables
                .as_deref_mut()
                .and_then(|t| t.table_mut(rac_index))
                .map(|table| {
                    let fp = view_fingerprint(&view, local_as, egress_ifs, rac);
                    (table.probe((key.origin, key.group, key.target), fp), fp)
                });
            if let Some((Some(cached), fp)) = fingerprint {
                groups.push(BatchGroup {
                    rac_index,
                    key,
                    items: start..start,
                    view: None,
                    cached: Some(cached),
                    fingerprint: Some(fp),
                });
                continue;
            }
            let fingerprint = fingerprint.map(|(_, fp)| fp);
            let full_view = if view.len() > threshold {
                let mut offset = 0;
                while offset < view.len() {
                    let end = (offset + threshold).min(view.len());
                    items.push(WorkItem {
                        rac_index,
                        view: view.subrange(offset..end),
                    });
                    offset = end;
                }
                Some(view)
            } else if fingerprint.is_some() {
                // Retain the view (an `Arc` bump) so the merge can record the batch's
                // footprint when storing the fresh outputs into the table.
                items.push(WorkItem {
                    rac_index,
                    view: view.clone(),
                });
                Some(view)
            } else {
                items.push(WorkItem { rac_index, view });
                None
            };
            groups.push(BatchGroup {
                rac_index,
                key,
                items: start..items.len(),
                view: full_view,
                cached: None,
                fingerprint,
            });
        }
    }

    let workers = parallelism.min(MAX_WORKERS).min(items.len()).max(1);
    let results: Vec<ItemResult> = if workers <= 1 {
        items
            .iter()
            .map(|item| process_item(racs, item, local_as, egress_ifs))
            .collect()
    } else {
        execute_parallel(racs, &items, local_as, egress_ifs, workers)
    };

    merge_results(racs, &groups, &items, results, local_as, egress_ifs, tables)
}

/// Processes one work item (on whatever thread it was claimed by).
fn process_item(
    racs: &[Rac],
    item: &WorkItem,
    local_as: &AsNode,
    egress_ifs: &[IfId],
) -> ItemResult {
    racs[item.rac_index].process_candidates(
        &item.view.key,
        &item.view.beacons,
        local_as,
        egress_ifs,
    )
}

/// The shared claim-cursor worker pool: calls `work(index)` exactly once for every index
/// in `0..count`, fanned out over `workers` scoped threads (clamped to [`MAX_WORKERS`] and
/// to `count`; `<= 1` runs inline on the calling thread). Indices are claimed through an
/// atomic cursor — cheap dynamic load balancing for skewed unit sizes — so callers that
/// need ordered results write them into pre-allocated slots indexed by unit, exactly as
/// [`execute_racs`] does.
///
/// When `busy_nanos` is given, each unit's execution time accumulates into it; the
/// simulator's barrier scheduler uses this to compute its per-round worker idle time with
/// the same formula as the DAG executor (`idle = workers × wall − Σ busy`), which is what
/// makes the two schedulers' idle counters comparable.
pub fn run_claimed<F>(count: usize, workers: usize, busy_nanos: Option<&AtomicU64>, work: F)
where
    F: Fn(usize) + Sync,
{
    let run_unit = |index: usize| match busy_nanos {
        Some(busy) => {
            let started = Instant::now();
            work(index);
            busy.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        None => work(index),
    };
    let workers = workers.min(MAX_WORKERS).min(count).max(1);
    if workers <= 1 {
        for index in 0..count {
            run_unit(index);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                run_unit(index);
            });
        }
    });
}

/// Fans the work items out over `workers` scoped threads via [`run_claimed`], with results
/// landing in per-item slots, which keeps the merge order independent of scheduling.
fn execute_parallel(
    racs: &[Rac],
    items: &[WorkItem],
    local_as: &AsNode,
    egress_ifs: &[IfId],
    workers: usize,
) -> Vec<ItemResult> {
    let slots: Vec<Mutex<Option<ItemResult>>> = items.iter().map(|_| Mutex::new(None)).collect();
    run_claimed(items.len(), workers, None, |index| {
        *slots[index].lock() = Some(process_item(racs, &items[index], local_as, egress_ifs));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every work item slot is filled once the scope joins")
        })
        .collect()
}

/// Merges per-item results in group order: first error in item order wins and timings
/// accumulate in item order, exactly as a sequential loop would. Groups that were split
/// into sub-range items additionally run the deterministic sub-merge: one reduce selection
/// pass of the owning RAC over the union of the sub-range selections (whose timing also
/// accumulates, at the group's position).
///
/// No content-keyed re-sort is applied: item order — RAC configuration order, then batch
/// keys ascending, then candidate index within a batch — already is the canonical
/// deterministic ordering, and it is byte-identical to what the pre-engine sequential loop
/// produced. Re-sorting by RAC *name* instead would silently change which RAC wins the
/// egress gateway's first-selection dedup (and thereby path attribution) whenever operators
/// configure RACs in non-alphabetical order.
fn merge_results(
    racs: &[Rac],
    groups: &[BatchGroup],
    items: &[WorkItem],
    results: Vec<ItemResult>,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    mut tables: Option<&mut SelectionTables>,
) -> Result<(Vec<IdentifiedOutput>, RacTiming)> {
    let mut results: Vec<Option<ItemResult>> = results.into_iter().map(Some).collect();
    let mut outputs = Vec::new();
    let mut timing = RacTiming::default();
    for group in groups {
        let group_outputs = merge_group(
            racs,
            group,
            items,
            &mut results,
            local_as,
            egress_ifs,
            &mut timing,
        )?;
        // Freshly computed cacheable group: store the outputs (and the batch's hop-chain
        // footprint, extracted from the retained view) into the RAC's table. Table-hit
        // groups were already marked fresh by the snapshot-phase probe.
        if group.cached.is_none() {
            if let (Some(fp), Some(view)) = (group.fingerprint, &group.view) {
                if let Some(table) = tables
                    .as_deref_mut()
                    .and_then(|t| t.table_mut(group.rac_index))
                {
                    let links = view
                        .beacons
                        .iter()
                        .flat_map(|beacon| beacon.pcb.link_keys())
                        .collect::<Vec<_>>();
                    table.store(
                        (group.key.origin, group.key.group, group.key.target),
                        fp,
                        links,
                        group_outputs.clone(),
                    );
                }
            }
        }
        outputs.extend(group_outputs);
    }
    Ok((outputs, timing))
}

/// Produces one group's final output vector: the cached value for table hits (zero
/// timing), the single item's outputs for unsplit groups, or the deterministic sub-merge
/// for split ones. Timings accumulate into `timing` in item order, exactly as a sequential
/// loop would. Every output is paired with the id carried by the view it was selected from.
fn merge_group(
    racs: &[Rac],
    group: &BatchGroup,
    items: &[WorkItem],
    results: &mut [Option<ItemResult>],
    local_as: &AsNode,
    egress_ifs: &[IfId],
    timing: &mut RacTiming,
) -> Result<Vec<IdentifiedOutput>> {
    if let Some(cached) = &group.cached {
        return Ok(cached.clone());
    }
    // Collect each item's selections in item order (within a sub-range selections are
    // already ordered by candidate index, and sub-ranges are ascending, so the union is
    // in ascending original candidate order)...
    let mut sub_selections: Vec<Vec<IdentifiedOutput>> = Vec::with_capacity(group.items.len());
    for index in group.items.clone() {
        let (sub_outputs, sub_timing) = results[index]
            .take()
            .expect("each item is consumed by exactly one group")?;
        timing.accumulate(&sub_timing);
        sub_selections.push(identify(&items[index].view, sub_outputs));
    }
    if sub_selections.len() == 1 {
        return Ok(sub_selections.remove(0));
    }
    // ...then try the merge-aware reduce: algorithms overriding `merge_partial` get the
    // full batch plus the per-sub-range selections (rebased to full-batch indices),
    // making the split lossless for set-valued objectives...
    if let Some(view) = &group.view {
        let partials = rebase_partials(&items[group.items.clone()], &sub_selections);
        if let Some(merged) = racs[group.rac_index].merge_split_candidates(
            &group.key,
            &view.beacons,
            &partials,
            local_as,
            egress_ifs,
        ) {
            let (reduced, merge_timing) = merged?;
            timing.accumulate(&merge_timing);
            return Ok(identify(view, reduced));
        }
    }
    let winners = BatchView::of_selected(group.key, sub_selections.iter().flatten());
    if winners.is_empty() {
        return Ok(Vec::new());
    }
    // ...or fall back to the generic reduce: one final selection pass of the owning RAC
    // over the union of the sub-range winners.
    let (reduced, reduce_timing) = racs[group.rac_index].process_candidates(
        &group.key,
        &winners.beacons,
        local_as,
        egress_ifs,
    )?;
    timing.accumulate(&reduce_timing);
    Ok(identify(&winners, reduced))
}

/// Rebuilds each sub-range's selection as indices into the full batch view: an output's
/// candidate index is relative to its sub-range item, whose offset in the full batch is the
/// summed length of the items before it. The per-egress index lists come out ascending
/// because sub-ranges are walked in offset order and outputs within a sub-range are ordered
/// by candidate index.
fn rebase_partials(
    sub_items: &[WorkItem],
    sub_selections: &[Vec<IdentifiedOutput>],
) -> Vec<irec_algorithms::SelectionResult> {
    let mut offset = 0;
    sub_items
        .iter()
        .zip(sub_selections)
        .map(|(item, sub_outputs)| {
            let mut partial = irec_algorithms::SelectionResult::empty();
            for IdentifiedOutput { output, .. } in sub_outputs {
                for &egress in &output.egress_ifs {
                    partial
                        .per_egress
                        .entry(egress)
                        .or_default()
                        .push(offset + output.candidate_index);
                }
            }
            offset += item.view.len();
            partial
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RacConfig;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
    use irec_topology::{Interface, Tier};
    use irec_types::{AsId, Bandwidth, GeoCoord, Latency, LinkId, SimDuration};
    use std::sync::Arc;

    fn local_as() -> AsNode {
        let mut node = AsNode::new(AsId(50), Tier::Tier2);
        for i in 1..=3u32 {
            node.interfaces.insert(
                IfId(i),
                Interface {
                    id: IfId(i),
                    owner: node.id,
                    location: GeoCoord::new(40.0 + f64::from(i), 8.0),
                    link: LinkId(u64::from(i)),
                },
            );
        }
        node
    }

    fn db_with_origins(origins: u64, beacons_per_origin: u64) -> ShardedIngressDb {
        let registry = KeyRegistry::with_ases(11, 512);
        // Several shards so parallel runs actually cross shard boundaries.
        let db = ShardedIngressDb::new(4);
        for origin in 1..=origins {
            for seq in 0..beacons_per_origin {
                let mut pcb = Pcb::originate(
                    AsId(origin),
                    seq,
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_hours(6),
                    PcbExtensions::none(),
                );
                pcb.extend(
                    IfId::NONE,
                    IfId(1),
                    StaticInfo::origin(
                        Latency::from_millis(5 + seq),
                        Bandwidth::from_mbps(100 + 10 * seq),
                        None,
                    ),
                    &Signer::new(AsId(origin), registry.clone()),
                )
                .unwrap();
                db.insert(pcb, IfId(1), SimTime::ZERO);
            }
        }
        db
    }

    fn rac_set() -> Vec<Rac> {
        ["1SP", "5SP", "DO", "widest"]
            .iter()
            .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).unwrap())
            .collect()
    }

    #[test]
    fn run_claimed_runs_every_unit_exactly_once() {
        for workers in [1, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            let busy = AtomicU64::new(0);
            run_claimed(hits.len(), workers, Some(&busy), |index| {
                hits[index].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        // Zero units: no spawn, no calls.
        run_claimed(0, 4, None, |_| panic!("no units to run"));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let racs = rac_set();
        let db = db_with_origins(6, 4);
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];

        let (seq_outputs, seq_timing) =
            execute_racs(&racs, &db, &node, &egress, SimTime::ZERO, 1).unwrap();
        for parallelism in [2, 4, 8] {
            let (par_outputs, par_timing) =
                execute_racs(&racs, &db, &node, &egress, SimTime::ZERO, parallelism).unwrap();
            assert_eq!(par_outputs.len(), seq_outputs.len());
            for (a, b) in seq_outputs.iter().zip(&par_outputs) {
                assert_eq!(a.rac_name, b.rac_name);
                assert_eq!(a.origin, b.origin);
                assert_eq!(a.group, b.group);
                assert_eq!(a.egress_ifs, b.egress_ifs);
                assert_eq!(a.beacon, b.beacon);
            }
            assert_eq!(par_timing.candidates, seq_timing.candidates);
        }
    }

    #[test]
    fn engine_handles_empty_database_and_no_racs() {
        let node = local_as();
        let db = ShardedIngressDb::new(4);
        let racs = rac_set();
        let (outputs, timing) =
            execute_racs(&racs, &db, &node, &[IfId(1)], SimTime::ZERO, 4).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(timing.candidates, 0);

        let (outputs, _) = execute_racs(
            &[],
            &db_with_origins(2, 2),
            &node,
            &[IfId(1)],
            SimTime::ZERO,
            4,
        )
        .unwrap();
        assert!(outputs.is_empty());
    }

    #[test]
    fn oversized_batches_split_deterministically() {
        // One hot origin with 24 candidates, split threshold 4 => 6 sub-range items plus a
        // reduce pass. The output must be identical across worker counts, and for
        // rank-independent selectors identical to the unsplit single-pass selection.
        let racs: Vec<Rac> = ["1SP", "widest"]
            .iter()
            .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).unwrap())
            .collect();
        let db = db_with_origins(1, 24);
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];

        let (unsplit, unsplit_timing) = execute_racs_with(
            &racs,
            &db,
            &node,
            &egress,
            SimTime::ZERO,
            1,
            BATCH_SPLIT_THRESHOLD,
        )
        .unwrap();
        assert!(!unsplit.is_empty());
        let (split_seq, split_timing) =
            execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, 1, 4).unwrap();
        // Every candidate crossed the marshal boundary once per sub-range pass, plus the
        // winners once more in the reduce pass.
        assert!(split_timing.candidates > unsplit_timing.candidates);
        for parallelism in [2, 4, 8] {
            let (split_par, _) =
                execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, parallelism, 4)
                    .unwrap();
            assert_eq!(split_par.len(), split_seq.len());
            for (a, b) in split_seq.iter().zip(&split_par) {
                assert_eq!(a.rac_name, b.rac_name);
                assert_eq!(a.egress_ifs, b.egress_ifs);
                assert_eq!(a.beacon, b.beacon);
            }
        }
        // 1SP and widest rank candidates independently: hierarchical selection equals the
        // single-pass selection.
        assert_eq!(split_seq.len(), unsplit.len());
        for (a, b) in unsplit.iter().zip(&split_seq) {
            assert_eq!(a.rac_name, b.rac_name);
            assert_eq!(a.egress_ifs, b.egress_ifs);
            assert_eq!(a.beacon, b.beacon);
        }
    }

    /// Beacons of one origin with link-diverse two-hop chains, so HD's disjointness
    /// objective actually discriminates between them.
    fn db_link_diverse(count: u64) -> ShardedIngressDb {
        let registry = KeyRegistry::with_ases(11, 512);
        let db = ShardedIngressDb::new(4);
        for seq in 0..count {
            let mut pcb = Pcb::originate(
                AsId(1),
                seq,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_hours(6),
                PcbExtensions::none(),
            );
            pcb.extend(
                IfId::NONE,
                IfId(1 + (seq % 3) as u32),
                StaticInfo::origin(
                    Latency::from_millis(5 + seq % 7),
                    Bandwidth::from_mbps(100),
                    None,
                ),
                &Signer::new(AsId(1), registry.clone()),
            )
            .unwrap();
            pcb.extend(
                IfId(1),
                IfId(1 + (seq % 5) as u32),
                StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None),
                &Signer::new(AsId(100 + seq % 4), registry.clone()),
            )
            .unwrap();
            db.insert(pcb, IfId(1), SimTime::ZERO);
        }
        db
    }

    #[test]
    fn merge_aware_reduce_makes_hd_split_lossless() {
        // HD with a tight budget over link-diverse candidates: the per-sub-range
        // truncations at threshold 4 discard globally disjoint candidates, so without the
        // merge-aware reduce the split selection could diverge from the full-batch one.
        // With `merge_partial` the two must be byte-identical, across worker counts.
        let racs =
            vec![Rac::new_static(RacConfig::static_rac("HD", "HD").with_max_selected(3)).unwrap()];
        let db = db_link_diverse(24);
        let node = local_as();
        let egress = [IfId(2), IfId(3)];

        let (unsplit, _) = execute_racs_with(
            &racs,
            &db,
            &node,
            &egress,
            SimTime::ZERO,
            1,
            BATCH_SPLIT_THRESHOLD,
        )
        .unwrap();
        assert!(!unsplit.is_empty());
        for parallelism in [1, 4] {
            let (split, _) =
                execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, parallelism, 4)
                    .unwrap();
            assert_eq!(split.len(), unsplit.len());
            for (a, b) in unsplit.iter().zip(&split) {
                assert_eq!(a.rac_name, b.rac_name);
                assert_eq!(a.egress_ifs, b.egress_ifs);
                assert_eq!(a.beacon, b.beacon);
            }
        }
    }

    #[test]
    fn outputs_share_the_stored_beacon_and_carry_its_id() {
        // Every output — unsplit, reduced from sub-ranges, merge-aware — is the database's
        // own allocation (no clone of the decoded candidate) and carries the id the view
        // carries for it, which is the beacon's digest.
        let racs: Vec<Rac> = ["1SP", "HD"]
            .iter()
            .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).unwrap())
            .collect();
        let db = db_link_diverse(24);
        let node = local_as();
        let egress = [IfId(2), IfId(3)];
        let key = db.batch_keys()[0];
        let view = db.batch_view(&key, SimTime::ZERO).unwrap();
        for threshold in [BATCH_SPLIT_THRESHOLD, 4] {
            let (outputs, _) = execute_racs_inner(
                &racs,
                &db,
                &node,
                &egress,
                SimTime::ZERO,
                2,
                threshold,
                None,
            )
            .unwrap();
            assert!(!outputs.is_empty());
            for IdentifiedOutput { pcb_id, output } in &outputs {
                let stored = view
                    .beacons
                    .iter()
                    .position(|b| Arc::ptr_eq(b, &output.beacon))
                    .expect("output beacon is pointer-equal to a stored beacon");
                assert_eq!(*pcb_id, view.ids()[stored]);
                assert_eq!(*pcb_id, output.beacon.pcb.digest());
            }
        }
    }

    #[test]
    fn rebased_partials_match_a_digest_lookup() {
        // The index arithmetic that replaced the digest map: sub-range candidate indices
        // plus sub-range offsets must land on the same full-batch positions a lookup by
        // content digest finds.
        let rac = Rac::new_static(RacConfig::static_rac("HD", "HD").with_max_selected(3)).unwrap();
        let db = db_link_diverse(22);
        let node = local_as();
        let egress = [IfId(2), IfId(3)];
        let key = db.batch_keys()[0];
        let view = db.batch_view(&key, SimTime::ZERO).unwrap();
        let items: Vec<WorkItem> = [0..8, 8..16, 16..22]
            .into_iter()
            .map(|range| WorkItem {
                rac_index: 0,
                view: view.subrange(range),
            })
            .collect();
        let sub_selections: Vec<Vec<IdentifiedOutput>> = items
            .iter()
            .map(|item| {
                let (outputs, _) = rac
                    .process_candidates(&item.view.key, &item.view.beacons, &node, &egress)
                    .unwrap();
                identify(&item.view, outputs)
            })
            .collect();
        let rebased = rebase_partials(&items, &sub_selections);

        let index_of: std::collections::HashMap<irec_pcb::PcbId, usize> = view
            .beacons
            .iter()
            .enumerate()
            .map(|(index, beacon)| (beacon.pcb.digest(), index))
            .collect();
        assert_eq!(rebased.len(), sub_selections.len());
        for (partial, sub_outputs) in rebased.iter().zip(&sub_selections) {
            let mut expected = irec_algorithms::SelectionResult::empty();
            for IdentifiedOutput { pcb_id, output } in sub_outputs {
                let index = index_of[pcb_id];
                for &egress in &output.egress_ifs {
                    expected.per_egress.entry(egress).or_default().push(index);
                }
            }
            assert!(!expected.per_egress.is_empty());
            assert_eq!(partial.per_egress, expected.per_egress);
        }
    }

    #[test]
    fn split_threshold_boundary_does_not_split() {
        // Exactly `threshold` candidates stay one work item (no reduce pass): the timing
        // counts every candidate exactly once.
        let racs = vec![Rac::new_static(RacConfig::static_rac("1SP", "1SP")).unwrap()];
        let db = db_with_origins(1, 8);
        let node = local_as();
        let (_, timing) =
            execute_racs_with(&racs, &db, &node, &[IfId(2)], SimTime::ZERO, 4, 8).unwrap();
        assert_eq!(timing.candidates, 8);
    }

    #[test]
    fn errors_are_deterministic_across_parallelism() {
        // An on-demand RAC with no published algorithm errors on fetch; the same error must
        // surface regardless of worker count.
        let store = crate::rac::SharedAlgorithmStore::new();
        let reference = irec_pcb::AlgorithmRef::new(
            irec_types::AlgorithmId(9),
            irec_crypto::sha256(b"never published"),
        );
        let registry = KeyRegistry::with_ases(11, 512);
        let db = ShardedIngressDb::new(2);
        let mut pcb = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none().with_algorithm(reference),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None),
            &Signer::new(AsId(1), registry.clone()),
        )
        .unwrap();
        db.insert(pcb, IfId(1), SimTime::ZERO);

        let racs =
            vec![
                Rac::new_on_demand(RacConfig::on_demand_rac("od"), std::sync::Arc::new(store))
                    .unwrap(),
            ];
        let node = local_as();
        let seq_err = execute_racs(&racs, &db, &node, &[IfId(2)], SimTime::ZERO, 1).unwrap_err();
        let par_err = execute_racs(&racs, &db, &node, &[IfId(2)], SimTime::ZERO, 4).unwrap_err();
        assert_eq!(seq_err.category(), par_err.category());
        assert_eq!(seq_err.category(), "not-found");
    }

    /// `b` — what the node's entry point returned — selects what the reference `a` selects,
    /// and every id it carries is the digest of the beacon beside it.
    fn assert_same_outputs(a: &[RacOutput], b: &[IdentifiedOutput]) {
        assert_eq!(a.len(), b.len());
        for (x, IdentifiedOutput { pcb_id, output: y }) in a.iter().zip(b) {
            assert_eq!(*pcb_id, y.beacon.pcb.digest());
            assert_eq!(x.rac_name, y.rac_name);
            assert_eq!(x.origin, y.origin);
            assert_eq!(x.group, y.group);
            assert_eq!(x.egress_ifs, y.egress_ifs);
            assert_eq!(x.beacon, y.beacon);
        }
    }

    #[test]
    fn cached_execution_is_byte_identical_and_reuses_unchanged_batches() {
        let racs = rac_set();
        let db = db_with_origins(6, 4);
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];
        let (reference, _) = execute_racs(&racs, &db, &node, &egress, SimTime::ZERO, 1).unwrap();

        let mut tables = SelectionTables::for_racs(&racs);
        for parallelism in [1, 4] {
            // First pass populates, second is served from the table — both identical to
            // the from-scratch reference.
            let (first, _) = execute_racs_cached(
                &racs,
                &db,
                &node,
                &egress,
                SimTime::ZERO,
                parallelism,
                Some(&mut tables),
            )
            .unwrap();
            assert_same_outputs(&reference, &first);
            let before = tables.stats();
            let (second, timing) = execute_racs_cached(
                &racs,
                &db,
                &node,
                &egress,
                SimTime::ZERO,
                parallelism,
                Some(&mut tables),
            )
            .unwrap();
            assert_same_outputs(&reference, &second);
            let after = tables.stats();
            assert_eq!(
                after.recomputed, before.recomputed,
                "an unchanged database is served entirely from the table"
            );
            assert!(after.reused > before.reused);
            assert_eq!(timing.candidates, 0, "cached groups contribute zero timing");
            tables.commit_round();
        }

        // A database mutation flips the fingerprint of the affected batch only.
        let registry = KeyRegistry::with_ases(11, 512);
        let mut pcb = Pcb::originate(
            AsId(1),
            99,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(1), Bandwidth::from_mbps(999), None),
            &Signer::new(AsId(1), registry),
        )
        .unwrap();
        db.insert(pcb, IfId(1), SimTime::ZERO);
        let before = tables.stats();
        let (reference, _) = execute_racs(&racs, &db, &node, &egress, SimTime::ZERO, 1).unwrap();
        let (cached, _) = execute_racs_cached(
            &racs,
            &db,
            &node,
            &egress,
            SimTime::ZERO,
            1,
            Some(&mut tables),
        )
        .unwrap();
        assert_same_outputs(&reference, &cached);
        let after = tables.stats();
        // Four cacheable RACs, one mutated origin out of six: exactly one recompute per
        // RAC, the other five origins reused.
        assert_eq!(after.recomputed - before.recomputed, racs.len());
        assert_eq!(after.reused - before.reused, racs.len() * 5);
    }

    #[test]
    fn selection_delta_invalidates_affected_entries() {
        let racs = rac_set();
        let db = db_with_origins(3, 2);
        let node = local_as();
        let egress = [IfId(1), IfId(2)];
        let mut tables = SelectionTables::for_racs(&racs);
        execute_racs_cached(
            &racs,
            &db,
            &node,
            &egress,
            SimTime::ZERO,
            1,
            Some(&mut tables),
        )
        .unwrap();
        assert_eq!(tables.len(), racs.len() * 3);
        // Origin 2 leaves: its batches drop from every RAC's table.
        let dropped = tables.apply_delta(&SelectionDelta::As(AsId(2)));
        assert_eq!(dropped, racs.len());
        assert_eq!(tables.stats().invalidated, racs.len());
        assert!(!tables.is_empty());
        let dropped = tables.apply_delta(&SelectionDelta::All);
        assert_eq!(dropped, racs.len() * 2);
        assert!(tables.is_empty());
    }

    #[test]
    fn on_demand_racs_are_never_cached() {
        let store = crate::rac::SharedAlgorithmStore::new();
        let od =
            Rac::new_on_demand(RacConfig::on_demand_rac("od"), std::sync::Arc::new(store)).unwrap();
        assert!(!od.is_cacheable());
        let racs = vec![od];
        let tables = SelectionTables::for_racs(&racs);
        assert!(tables.is_empty());
        assert_eq!(tables.stats(), IncrementalStats::default());
    }

    #[test]
    fn cached_split_groups_match_reference() {
        // Oversized batches go through the sub-merge; their reduced outputs are cached and
        // served identically on the second pass.
        let racs: Vec<Rac> = ["1SP", "widest"]
            .iter()
            .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).unwrap())
            .collect();
        let db = db_with_origins(1, 24);
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];
        let (reference, _) =
            execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, 1, 4).unwrap();
        let mut tables = SelectionTables::for_racs(&racs);
        for _ in 0..2 {
            let (outputs, _) = execute_racs_inner(
                &racs,
                &db,
                &node,
                &egress,
                SimTime::ZERO,
                2,
                4,
                Some(&mut tables),
            )
            .unwrap();
            assert_same_outputs(&reference, &outputs);
        }
        assert_eq!(tables.stats().recomputed, racs.len());
        assert_eq!(tables.stats().reused, racs.len());
    }
}
