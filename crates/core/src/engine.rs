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

use crate::beacon_db::{
    BatchChange, BatchCursor, BatchKey, BatchView, ShardedIngressDb, StoredBeacon,
};
use crate::config::RacConfig;
use crate::rac::{Picked, Rac, RacOutput, RacTiming};
use irec_algorithms::incremental::IncrementalStats;
use irec_algorithms::SelectionResult;
use irec_pcb::PcbId;
use irec_topology::AsNode;
use irec_types::{AsId, IfId, InterfaceGroupId, Result, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on engine workers; beyond this, coordination overhead dominates any workload
/// this codebase produces.
pub const MAX_WORKERS: usize = 64;

/// Candidate batches larger than this are split into sub-range work items so a single hot
/// origin (one huge |Φ|) cannot serialize the RAC phase: each sub-range is processed as its
/// own work item and the per-sub-range selections are reduced by one final selection pass
/// over their union (see [`execute_racs_with`]) — for the algorithms that reduce exactly;
/// the others are never split.
pub const BATCH_SPLIT_THRESHOLD: usize = 512;

/// One selected beacon as the egress gateway consumes it: the stored beacon, the
/// [`PcbId`] its batch view carried for it, and the egress interfaces it was selected for.
///
/// RACs select by candidate index and know nothing of ids; the engine owns the views, so it
/// is the engine that looks the id up — `view.ids()[output.candidate_index]` — and hands it
/// on with the beacon, so the gateway dedups and registers without hashing anything. The
/// id is always one this AS computed itself when it verified the beacon.
#[derive(Debug, Clone)]
pub struct SelectedBeacon {
    /// The id of `beacon`.
    pub pcb_id: PcbId,
    /// The selected beacon, shared with the ingress database.
    pub beacon: Arc<StoredBeacon>,
    /// Egress interfaces the beacon was optimized for, ascending.
    pub egress_ifs: Box<[IfId]>,
}

/// The selections of one `(RAC, candidate batch)` pair, in candidate order, under the
/// attributes they share. This is the form selections are *kept* in from one round to the
/// next (see [`SelectionTables`]), so it carries per beacon only what differs per beacon.
#[derive(Debug)]
pub struct BatchSelection {
    /// The RAC that made the selections (tags registered paths).
    pub rac_name: Arc<str>,
    /// Origin AS of the batch.
    pub origin: AsId,
    /// Interface group of the batch.
    pub group: InterfaceGroupId,
    /// The selected beacons.
    pub selected: Vec<SelectedBeacon>,
}

/// A [`BatchSelection`], shared — not copied — between the round that consumes it and the
/// [`SelectionTables`] entry that serves it again next round — verbatim, or after a
/// re-selection over the arrivals that selected the same beacons for the same interfaces.
/// The same allocation coming back is what tells the egress gateway that it processed
/// this very selection last round (see [`crate::egress::EgressGateway::process_outputs`]).
pub type BatchOutputs = Arc<BatchSelection>;

/// A RAC output paired with the id its view carried: the merge's working form, which
/// still knows the candidate index the sub-merge needs.
pub(crate) struct Identified {
    pub(crate) pcb_id: PcbId,
    pub(crate) output: RacOutput,
}

/// Pairs the outputs a RAC produced over `view` with the ids `view` carries.
fn identify(view: &BatchView, outputs: Vec<RacOutput>) -> Vec<Identified> {
    outputs
        .into_iter()
        .map(|output| Identified {
            pcb_id: view.ids()[output.candidate_index],
            output,
        })
        .collect()
}

/// What the merge hands on for one `(RAC, batch)` group.
enum Merged {
    /// Last round's selection, served verbatim.
    Reused(BatchOutputs),
    /// A selection computed this round, the per-egress pick order it was inverted from
    /// and, for a RAC with a table, what to record with it.
    Computed {
        rac_index: usize,
        key: BatchKey,
        record: Option<Record>,
        outputs: Vec<Identified>,
        picks: SelectionResult,
    },
}

/// One unit of parallel work: a RAC paired with a snapshot of one candidate batch (or a
/// sub-range of one, when the batch exceeded the split threshold).
struct WorkItem {
    /// Index into the RAC slice (stable identity for the deterministic merge).
    rac_index: usize,
    /// The immutable candidate batch to process.
    view: BatchView,
    /// For a re-selection over *winners ∪ arrivals*: last round's picks in `view`'s
    /// indices (empty unless the RAC [keeps them](Rac::keeps_picks)). Only an unsplit
    /// view carries picks that mean anything; the sub-ranges of a split one belong to a
    /// union-composable selector, whose re-selection is `select` and reads none.
    previous: Option<SelectionResult>,
}

/// One logical `(RAC, batch)` pair and the contiguous range of work items it was split
/// into. Groups are built — and merged — in deterministic order: RAC configuration order,
/// then batch keys ascending, then sub-ranges by ascending candidate offset.
struct BatchGroup {
    rac_index: usize,
    key: BatchKey,
    items: std::ops::Range<usize>,
    /// Table hit: last round's outputs, served verbatim. Such groups carry no work items
    /// and contribute no timing.
    reused: Option<BatchOutputs>,
    /// For a computed group of a RAC with a table: what the merge records beside the
    /// fresh outputs.
    record: Option<Record>,
}

/// The bookkeeping half of a [`SelectionTables`] entry, fixed in the snapshot phase — or
/// in the merge, when the algorithm declined a re-selection.
struct Record {
    /// Whether the items run over *winners ∪ arrivals* rather than the whole batch.
    extended: bool,
    /// For an extension: last round's selection, handed on again where the new one
    /// selects the same beacons for the same interfaces.
    previous: Option<BatchOutputs>,
    /// Whether the full pass follows a re-selection the algorithm declined.
    refused: bool,
    cursor: BatchCursor,
    valid_until: SimTime,
}

/// Last round's picks of one `(RAC, batch)` pair, per egress interface in the order they
/// were made, as positions into the entry's [`BatchSelection::selected`] — what the next
/// [reselect](irec_algorithms::RoutingAlgorithm::reselect) of a RAC that
/// [keeps picks](Rac::keeps_picks) reads. Interfaces with the same picks — the whole open
/// class, typically — share one list.
///
/// One allocation, kept for every such entry across rounds: the number of interfaces `n`,
/// then per interface, ascending, its id and the start and end of its list among the
/// positions that follow.
#[derive(Debug, Clone)]
struct PickOrder(Box<[u32]>);

impl PickOrder {
    /// `picks`, made over a batch whose selected candidates are `selected`, ascending.
    fn new(picks: &SelectionResult, selected: &[usize]) -> PickOrder {
        let interfaces = picks.per_egress.len();
        let mut words = vec![interfaces as u32];
        words.resize(1 + 3 * interfaces, 0);
        let mut lists: Vec<(&[usize], u32, u32)> = Vec::new();
        for (at, (&egress, list)) in picks.per_egress.iter().enumerate() {
            let (start, end) = match lists.iter().find(|(known, ..)| *known == list.as_slice()) {
                Some(&(_, start, end)) => (start, end),
                None => {
                    let start = (words.len() - 1 - 3 * interfaces) as u32;
                    words.extend(list.iter().map(|index| {
                        let position = selected.binary_search(index);
                        position.expect("every pick is a selected candidate") as u32
                    }));
                    let end = (words.len() - 1 - 3 * interfaces) as u32;
                    lists.push((list, start, end));
                    (start, end)
                }
            };
            words[1 + 3 * at..4 + 3 * at].copy_from_slice(&[egress.value(), start, end]);
        }
        PickOrder(words.into())
    }

    /// The picks in the indices of a view in which the `w`-th selected candidate sits at
    /// `winner_at[w]`.
    fn in_view(&self, winner_at: &[u32]) -> SelectionResult {
        let interfaces = self.0[0] as usize;
        let (table, positions) = self.0[1..].split_at(3 * interfaces);
        let mut picks = SelectionResult::empty();
        for entry in table.chunks_exact(3) {
            let list = &positions[entry[1] as usize..entry[2] as usize];
            picks.insert(
                IfId(entry[0]),
                list.iter()
                    .map(|&w| winner_at[w as usize] as usize)
                    .collect(),
            );
        }
        picks
    }
}

/// Whether `outputs` select exactly the beacons of `kept`, for the same interfaces.
fn selects_the_same(kept: &[SelectedBeacon], outputs: &[Identified]) -> bool {
    kept.len() == outputs.len()
        && kept.iter().zip(outputs).all(|(kept, new)| {
            Arc::ptr_eq(&kept.beacon, &new.output.beacon)
                && *kept.egress_ifs == new.output.egress_ifs
        })
}

/// `outputs` in the form selections are kept in — sized exactly: collecting straight out
/// of `outputs` would reuse its allocation, which is twice as large.
fn kept_form(outputs: Vec<Identified>) -> Vec<SelectedBeacon> {
    let mut selected = Vec::with_capacity(outputs.len());
    selected.extend(
        outputs
            .into_iter()
            .map(|Identified { pcb_id, output }| SelectedBeacon {
                pcb_id,
                beacon: output.beacon,
                egress_ifs: output.egress_ifs.into_boxed_slice(),
            }),
    );
    selected
}

/// Last round's selections of one `(RAC, batch)` pair and what proves them current.
#[derive(Debug, Clone)]
struct Entry {
    outputs: BatchOutputs,
    /// For a RAC that [keeps picks](Rac::keeps_picks): the order `outputs` were picked in.
    picks: Option<PickOrder>,
    /// Where the database stood when the outputs were computed.
    cursor: BatchCursor,
    /// When they were computed. A snapshot at an earlier instant could contain beacons
    /// that had already expired by then.
    computed_at: SimTime,
    /// The earliest expiry among all beacons the outputs were computed from — the batch of
    /// the last full pass and every arrival fed since. Expiry shortens a snapshot without
    /// touching the database, so no stamp shows it.
    valid_until: SimTime,
}

impl Entry {
    /// Whether a snapshot at `now` still holds every beacon the outputs were computed
    /// from (and none that was left out as expired).
    fn covers(&self, now: SimTime) -> bool {
        now.is_at_or_after(self.computed_at) && !now.is_at_or_after(self.valid_until)
    }
}

/// What a set of tables was filled under; outputs computed under one context say nothing
/// about another.
#[derive(Debug, Clone, PartialEq)]
struct Context {
    local_as: AsId,
    egress_ifs: Vec<IfId>,
    /// Per RAC: its configuration and whether it ignores IREC extensions.
    racs: Vec<(RacConfig, bool)>,
}

/// A node's delta-driven selection state: per *cacheable* RAC (static RACs only — see
/// [`Rac::is_cacheable`]) and candidate batch, the outputs of the last round, shared with
/// that round's consumer, plus the [`BatchCursor`] and expiry bound that let the next
/// round decide — without snapshotting the batch — between three passes:
///
/// | the ingress database says | pass |
/// |---|---|
/// | untouched | **reuse**: the outputs verbatim — exact for every deterministic algorithm |
/// | only grew, and the RAC reselects (`Rac::reselects`: union-composable, or HD) | **extend**: [reselect](irec_algorithms::RoutingAlgorithm::reselect) over *winners ∪ arrivals*, in batch order; where the algorithm declines (an HD certificate fails), the merge runs the full pass inline; where it selects what it selected last round, last round's outputs are handed on |
/// | anything else — a removal, an expiry, an arrival for `<k>YEN` / ACO, no entry yet | **full**: snapshot and select from scratch |
///
/// One invariant carries correctness: an entry is used only while the database proves its
/// batch append-only since the entry was written *and* no beacon the entry was computed
/// from has expired *and* the context — local AS, egress interfaces, RAC configurations —
/// is the one it was computed under. The tables hold cursors into one database and belong
/// with it: hand them only the database (or copy-on-write descendants of it) and RAC list
/// they were filled from.
///
/// Determinism: the engine probes the tables in the serial snapshot phase and writes them
/// in the serial merge phase, both on the coordinating thread in canonical group order —
/// worker threads never touch them, and every pass produces the outputs a from-scratch
/// run would, so any worker count stays byte-identical.
#[derive(Debug, Clone, Default)]
pub struct SelectionTables {
    /// Indexed by RAC configuration order; `None` for RACs that always run the full pass.
    tables: Vec<Option<HashMap<BatchKey, Entry>>>,
    context: Option<Context>,
    stats: IncrementalStats,
}

impl SelectionTables {
    /// Empty tables; the first [`execute_racs_cached`] call binds them to its context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every entry (counted as invalidated) and returns how many there were: the
    /// next round runs the full pass everywhere. Happens by itself when the context the
    /// tables are bound to changes (a swapped RAC catalog); never needed against changes of
    /// the *candidates* — whatever makes an entry stale also moves a stamp or passes an
    /// expiry.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        for table in self.tables.iter_mut().flatten() {
            table.clear();
        }
        self.stats.invalidated += dropped;
        dropped
    }

    /// How many `(RAC, batch)` selections were reused, extended and recomputed, how many
    /// of the recomputations followed a declined re-selection, and how many entries were
    /// dropped by [`SelectionTables::clear`].
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Total entries across all tables.
    pub fn len(&self) -> usize {
        self.tables.iter().flatten().map(HashMap::len).sum()
    }

    /// Whether no table holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes the tables those of this context: kept when it is the one they were filled
    /// under, rebuilt empty otherwise.
    fn bind(&mut self, racs: &[Rac], local_as: &AsNode, egress_ifs: &[IfId]) {
        let context = Context {
            local_as: local_as.id,
            egress_ifs: egress_ifs.to_vec(),
            racs: racs
                .iter()
                .map(|rac| (rac.config().clone(), rac.ignores_extensions()))
                .collect(),
        };
        if self.context.as_ref() == Some(&context) {
            return;
        }
        self.clear();
        self.tables = racs
            .iter()
            .map(|rac| rac.is_cacheable().then(HashMap::new))
            .collect();
        self.context = Some(context);
    }

    fn table_mut(&mut self, rac_index: usize) -> Option<&mut HashMap<BatchKey, Entry>> {
        self.tables.get_mut(rac_index)?.as_mut()
    }

    /// Keeps `outputs`, computed at `now`, as the entry of `key` in the RAC's table.
    fn keep(
        &mut self,
        rac_index: usize,
        key: BatchKey,
        record: Record,
        now: SimTime,
        outputs: &BatchOutputs,
        picks: Option<PickOrder>,
    ) {
        if record.extended {
            self.stats.extended += 1;
        } else {
            self.stats.recomputed += 1;
        }
        if record.refused {
            self.stats.refused += 1;
        }
        self.table_mut(rac_index)
            .expect("only RACs with a table record")
            .insert(
                key,
                Entry {
                    outputs: Arc::clone(outputs),
                    picks,
                    cursor: record.cursor,
                    computed_at: now,
                    valid_until: record.valid_until,
                },
            );
    }
}

/// What a work item produced: `None` where the algorithm declined a re-selection.
type ItemResult = Result<(Option<Picked>, RacTiming)>;

/// Runs every RAC over its relevant candidate batches from `db` and returns the merged
/// selections plus accumulated timing — always from scratch, reading nothing but `db`.
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

/// The node's entry point: [`execute_racs`] driven by what changed since `tables` were
/// last written (see [`SelectionTables`]). Batches the ingress database reports untouched
/// are served from the tables — no snapshot, no work item, no algorithm run, zero timing;
/// batches that only grew are re-selected over the previous winners plus the arrivals,
/// where the algorithm answers; everything else is snapshotted and computed as
/// [`execute_racs`] would. The selections are those of a from-scratch pass, in its order.
///
/// They come back per `(RAC, batch)` pair ([`BatchSelection`]) — shared with the tables,
/// which serve them again next round — each beacon with the id its view carried
/// ([`SelectedBeacon`]), which is what the egress gateway consumes.
pub fn execute_racs_cached(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
    tables: &mut SelectionTables,
) -> Result<(Vec<BatchOutputs>, RacTiming)> {
    execute_racs_delta(
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

/// [`execute_racs_cached`] with an explicit batch-split threshold, for the tests that
/// exercise extension over split batches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_racs_delta(
    racs: &[Rac],
    db: &ShardedIngressDb,
    local_as: &AsNode,
    egress_ifs: &[IfId],
    now: SimTime,
    parallelism: usize,
    split_threshold: usize,
    tables: &mut SelectionTables,
) -> Result<(Vec<BatchOutputs>, RacTiming)> {
    let (merged, timing) = execute_racs_inner(
        racs,
        db,
        local_as,
        egress_ifs,
        now,
        parallelism,
        split_threshold,
        Some(tables),
    )?;
    let batches = merged
        .into_iter()
        .map(|merged| match merged {
            Merged::Reused(outputs) => outputs,
            Merged::Computed {
                rac_index,
                key,
                record,
                outputs,
                picks,
            } => {
                let picks = (record.is_some() && racs[rac_index].keeps_picks()).then(|| {
                    let selected: Vec<usize> =
                        outputs.iter().map(|o| o.output.candidate_index).collect();
                    PickOrder::new(&picks, &selected)
                });
                // An extension that selected what last round selected hands on last
                // round's allocation: the egress gateway recognises it and replays it,
                // which does what walking an equal selection does.
                let unchanged = record
                    .as_ref()
                    .and_then(|record| record.previous.as_ref())
                    .filter(|previous| selects_the_same(&previous.selected, &outputs));
                let outputs = match unchanged {
                    Some(previous) => Arc::clone(previous),
                    None => Arc::new(BatchSelection {
                        rac_name: racs[rac_index].shared_name(),
                        origin: key.origin,
                        group: key.group,
                        selected: kept_form(outputs),
                    }),
                };
                if let Some(record) = record {
                    tables.keep(rac_index, key, record, now, &outputs, picks);
                }
                outputs
            }
        })
        .collect();
    Ok((batches, timing))
}

/// [`execute_racs`] with an explicit batch-split threshold (exposed so tests and benchmarks
/// can exercise the splitting machinery on small batches).
///
/// Splitting is part of the canonical work-item construction, **not** a function of the
/// worker count: a batch of `n > threshold` candidates always becomes `ceil(n / threshold)`
/// sub-range items plus one reduce pass, whether the items then run on one thread or many —
/// which is what keeps parallel runs byte-identical to sequential ones. And it never
/// changes a selection: only batches of RACs whose algorithm is
/// [union-composable](irec_algorithms::RoutingAlgorithm::union_composable) are split (see
/// [`Rac::splits_batches`]), and for those the reduce — one more selection pass over the
/// union of the sub-range winners in ascending candidate order — is exact. Every other RAC
/// (HD, `<k>YEN`, ACO, on-demand modules) sees its whole batch in one pass, whatever its
/// size.
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
    let (merged, timing) = execute_racs_inner(
        racs,
        db,
        local_as,
        egress_ifs,
        now,
        parallelism,
        split_threshold,
        None,
    )?;
    let outputs = merged
        .into_iter()
        .flat_map(|merged| match merged {
            Merged::Computed { outputs, .. } => outputs,
            Merged::Reused(_) => unreachable!("without tables there is nothing to reuse"),
        })
        .map(|identified| identified.output)
        .collect();
    Ok((outputs, timing))
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
) -> Result<(Vec<Merged>, RacTiming)> {
    let threshold = split_threshold.max(1);
    if let Some(tables) = tables.as_deref_mut() {
        tables.bind(racs, local_as, egress_ifs);
    }
    // Snapshot phase: materialize the work list in deterministic order. The tables are
    // probed here, on the coordinating thread: a reused batch is never snapshotted and
    // gets no work item, of an extended one only the arrivals are read.
    let mut items = Vec::new();
    let mut groups = Vec::new();
    for (rac_index, rac) in racs.iter().enumerate() {
        let merge_groups = rac.merges_groups();
        // Last round's entries move out; the ones still standing for a batch move back in
        // below, the freshly computed ones in the merge phase. What is left over belonged
        // to batches that are gone.
        let mut previous = tables
            .as_deref_mut()
            .and_then(|t| t.table_mut(rac_index))
            .map(|table| {
                let sized = HashMap::with_capacity(table.len());
                std::mem::replace(table, sized)
            });
        for key in rac.relevant_batch_keys(db) {
            let start = items.len();
            let entry = previous
                .as_mut()
                .and_then(|table| table.remove(&key))
                .filter(|entry| entry.covers(now));
            let change = entry
                .as_ref()
                .map(|entry| db.changes_since(key, merge_groups, &entry.cursor, now));
            let (view, previous, record) = match (entry, change) {
                (Some(entry), Some(BatchChange::Unchanged)) => {
                    let tables = tables.as_deref_mut().expect("entries come from tables");
                    tables.stats.reused += 1;
                    groups.push(BatchGroup {
                        rac_index,
                        key,
                        items: start..start,
                        reused: Some(Arc::clone(&entry.outputs)),
                        record: None,
                    });
                    tables
                        .table_mut(rac_index)
                        .expect("entries come from this RAC's table")
                        .insert(key, entry);
                    continue;
                }
                (Some(entry), Some(BatchChange::Appended(arrivals, cursor))) if rac.reselects() => {
                    let arrived_until = arrivals
                        .earliest_expiry()
                        .expect("arrivals are reported only when there are some");
                    let (view, winner_at) =
                        BatchView::of_winners_and_arrivals(&entry.outputs.selected, &arrivals);
                    let previous = entry
                        .picks
                        .as_ref()
                        .map_or_else(SelectionResult::empty, |picks| picks.in_view(&winner_at));
                    (
                        view,
                        Some(previous),
                        Some(Record {
                            extended: true,
                            previous: Some(Arc::clone(&entry.outputs)),
                            refused: false,
                            cursor,
                            valid_until: entry.valid_until.min(arrived_until),
                        }),
                    )
                }
                _ => {
                    let (Some(view), cursor) = db.snapshot(key, merge_groups, now) else {
                        continue;
                    };
                    let record = previous.is_some().then(|| Record {
                        extended: false,
                        previous: None,
                        refused: false,
                        cursor,
                        valid_until: view
                            .earliest_expiry()
                            .expect("a snapshot without beacons is no view"),
                    });
                    (view, None, record)
                }
            };
            if view.len() > threshold && rac.splits_batches() {
                let mut offset = 0;
                while offset < view.len() {
                    let end = (offset + threshold).min(view.len());
                    items.push(WorkItem {
                        rac_index,
                        view: view.subrange(offset..end),
                        previous: previous.clone(),
                    });
                    offset = end;
                }
            } else {
                items.push(WorkItem {
                    rac_index,
                    view,
                    previous,
                });
            }
            groups.push(BatchGroup {
                rac_index,
                key,
                items: start..items.len(),
                reused: None,
                record,
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

    let context = MergeContext {
        racs,
        db,
        local_as,
        egress_ifs,
        now,
    };
    merge_results(&context, groups, &items, results)
}

/// Processes one work item (on whatever thread it was claimed by).
fn process_item(
    racs: &[Rac],
    item: &WorkItem,
    local_as: &AsNode,
    egress_ifs: &[IfId],
) -> ItemResult {
    racs[item.rac_index].run(
        &item.view.key,
        &item.view.beacons,
        local_as,
        egress_ifs,
        item.previous.as_ref(),
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
/// simulator uses this to compute its per-round worker idle time
/// (`idle = workers × wall − Σ busy`).
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

/// What the merge reads besides the work: the RACs and the inputs of the round, for the
/// reduce pass of a split group and the full pass behind a declined re-selection.
struct MergeContext<'a> {
    racs: &'a [Rac],
    db: &'a ShardedIngressDb,
    local_as: &'a AsNode,
    egress_ifs: &'a [IfId],
    now: SimTime,
}

/// Merges per-item results in group order: first error in item order wins and timings
/// accumulate in item order, exactly as a sequential loop would. Groups that were split
/// into sub-range items additionally run the deterministic sub-merge: one reduce selection
/// pass of the owning RAC over the union of the sub-range selections (whose timing also
/// accumulates, at the group's position). A group whose re-selection the algorithm
/// declined runs the full pass here, inline, the same way: snapshot and select from
/// scratch, at the group's position.
///
/// No content-keyed re-sort is applied: item order — RAC configuration order, then batch
/// keys ascending, then candidate index within a batch — already is the canonical
/// deterministic ordering, and it is byte-identical to what the pre-engine sequential loop
/// produced. Re-sorting by RAC *name* instead would silently change which RAC wins the
/// egress gateway's first-selection dedup (and thereby path attribution) whenever operators
/// configure RACs in non-alphabetical order.
fn merge_results(
    context: &MergeContext<'_>,
    groups: Vec<BatchGroup>,
    items: &[WorkItem],
    results: Vec<ItemResult>,
) -> Result<(Vec<Merged>, RacTiming)> {
    let mut results: Vec<Option<ItemResult>> = results.into_iter().map(Some).collect();
    let mut merged = Vec::with_capacity(groups.len());
    let mut timing = RacTiming::default();
    for mut group in groups {
        if let Some(reused) = group.reused.take() {
            merged.push(Merged::Reused(reused));
            continue;
        }
        let mut record = group.record.take();
        let (outputs, picks) = match merge_group(context, &group, items, &mut results, &mut timing)?
        {
            Some(merged) => merged,
            None => {
                let (view, cursor) = context.db.snapshot(
                    group.key,
                    context.racs[group.rac_index].merges_groups(),
                    context.now,
                );
                let view = view.expect("a batch with live arrivals has a view");
                record = Some(Record {
                    extended: false,
                    previous: None,
                    refused: true,
                    cursor,
                    valid_until: view
                        .earliest_expiry()
                        .expect("a snapshot without beacons is no view"),
                });
                select_over(context, group.rac_index, &view, &mut timing)?
            }
        };
        merged.push(Merged::Computed {
            rac_index: group.rac_index,
            key: group.key,
            record,
            outputs,
            picks,
        });
    }
    Ok((merged, timing))
}

/// One selection pass of a RAC over `view`, on the coordinating thread.
fn select_over(
    context: &MergeContext<'_>,
    rac_index: usize,
    view: &BatchView,
    timing: &mut RacTiming,
) -> Result<(Vec<Identified>, SelectionResult)> {
    let (picked, pass_timing) = context.racs[rac_index].run(
        &view.key,
        &view.beacons,
        context.local_as,
        context.egress_ifs,
        None,
    )?;
    timing.accumulate(&pass_timing);
    let (outputs, picks) = picked.expect("a selection always answers");
    Ok((identify(view, outputs), picks))
}

/// Produces one computed group's final output vector and pick order: the single item's for
/// unsplit groups, or the deterministic sub-merge for split ones; `None` when the item was
/// a re-selection the algorithm declined. Timings accumulate into `timing` in item order,
/// exactly as a sequential loop would. Every output is paired with the id carried by the
/// view it was selected from.
fn merge_group(
    context: &MergeContext<'_>,
    group: &BatchGroup,
    items: &[WorkItem],
    results: &mut [Option<ItemResult>],
    timing: &mut RacTiming,
) -> Result<Option<(Vec<Identified>, SelectionResult)>> {
    // Collect each item's selections in item order (within a sub-range selections are
    // already ordered by candidate index, and sub-ranges are ascending, so the union is
    // in ascending original candidate order)...
    let mut sub_selections = Vec::with_capacity(group.items.len());
    for index in group.items.clone() {
        let (picked, sub_timing) = results[index]
            .take()
            .expect("each item is consumed by exactly one group")?;
        timing.accumulate(&sub_timing);
        // Only an unsplit group's algorithm can decline: splitting is for the
        // union-composable selectors, whose re-selection always answers.
        let Some((sub_outputs, picks)) = picked else {
            return Ok(None);
        };
        sub_selections.push((identify(&items[index].view, sub_outputs), picks));
    }
    if sub_selections.len() == 1 {
        return Ok(sub_selections.pop());
    }
    let winners = BatchView::of_selected(
        group.key,
        sub_selections.iter().flat_map(|(outputs, _)| outputs),
    );
    if winners.is_empty() {
        return Ok(Some((Vec::new(), SelectionResult::empty())));
    }
    // ...then reduce: one final selection pass of the owning RAC over the union of the
    // sub-range winners — exact for the union-composable selectors, the only ones split.
    select_over(context, group.rac_index, &winners, timing).map(Some)
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
    fn outputs_share_the_stored_beacon_and_carry_its_id() {
        // Every output — of an unsplit batch or reduced from sub-ranges — is the database's
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
            let (batches, _) = execute_racs_delta(
                &racs,
                &db,
                &node,
                &egress,
                SimTime::ZERO,
                2,
                threshold,
                &mut SelectionTables::new(),
            )
            .unwrap();
            assert!(!batches.is_empty());
            for SelectedBeacon { pcb_id, beacon, .. } in batches.iter().flat_map(|b| &b.selected) {
                let stored = view
                    .beacons
                    .iter()
                    .position(|b| Arc::ptr_eq(b, beacon))
                    .expect("output beacon is pointer-equal to a stored beacon");
                assert_eq!(*pcb_id, view.ids()[stored]);
                assert_eq!(*pcb_id, beacon.pcb.digest());
            }
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
    fn assert_same_outputs(a: &[RacOutput], b: &[BatchOutputs]) {
        let b: Vec<(&BatchSelection, &SelectedBeacon)> = b
            .iter()
            .flat_map(|batch| batch.selected.iter().map(move |s| (&**batch, s)))
            .collect();
        assert_eq!(a.len(), b.len());
        for (x, (batch, y)) in a.iter().zip(b) {
            assert_eq!(y.pcb_id, y.beacon.pcb.digest());
            assert_eq!(*x.rac_name, *batch.rac_name);
            assert_eq!(x.origin, batch.origin);
            assert_eq!(x.group, batch.group);
            assert_eq!(x.egress_ifs[..], y.egress_ifs[..]);
            assert!(Arc::ptr_eq(&x.beacon, &y.beacon));
        }
    }

    /// One more beacon of `origin`, better than everything `db_with_origins` stores.
    fn insert_arrival(db: &ShardedIngressDb, origin: u64, seq: u64, validity: SimDuration) {
        let mut pcb = Pcb::originate(
            AsId(origin),
            seq,
            SimTime::ZERO,
            SimTime::ZERO + validity,
            PcbExtensions::none(),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(1), Bandwidth::from_mbps(999), None),
            &Signer::new(AsId(origin), KeyRegistry::with_ases(11, 512)),
        )
        .unwrap();
        assert!(db.insert(pcb, IfId(1), SimTime::ZERO));
    }

    /// One delta-driven pass checked against the from-scratch pass over the same database;
    /// returns the counters the pass added and the candidates it evaluated.
    fn delta_pass(
        racs: &[Rac],
        db: &ShardedIngressDb,
        now: SimTime,
        parallelism: usize,
        tables: &mut SelectionTables,
    ) -> (IncrementalStats, usize) {
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];
        let before = tables.stats();
        let (reference, _) = execute_racs(racs, db, &node, &egress, now, 1).unwrap();
        let (batches, timing) =
            execute_racs_cached(racs, db, &node, &egress, now, parallelism, tables).unwrap();
        assert_same_outputs(&reference, &batches);
        let after = tables.stats();
        (
            IncrementalStats {
                reused: after.reused - before.reused,
                recomputed: after.recomputed - before.recomputed,
                invalidated: after.invalidated - before.invalidated,
                extended: after.extended - before.extended,
                refused: after.refused - before.refused,
            },
            timing.candidates,
        )
    }

    fn counts(reused: usize, extended: usize, recomputed: usize) -> IncrementalStats {
        IncrementalStats {
            reused,
            recomputed,
            invalidated: 0,
            extended,
            refused: 0,
        }
    }

    #[test]
    fn untouched_batches_are_reused_and_grown_ones_extended() {
        let mut racs = rac_set();
        racs.push(Rac::new_static(RacConfig::static_rac("HD", "HD")).unwrap());
        let db = db_with_origins(6, 4);
        let mut tables = SelectionTables::new();
        for parallelism in [1, 4] {
            tables.clear();
            // The first pass computes everything, the second is served from the tables
            // without evaluating a single candidate.
            let (first, candidates) =
                delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(first, counts(0, 0, racs.len() * 6));
            assert_eq!(candidates, racs.len() * 6 * 4);
            let second = delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(second, (counts(racs.len() * 6, 0, 0), 0));
        }
        assert_eq!(tables.len(), racs.len() * 6);

        // One arrival at origin 1: every RAC re-selects over its winners plus the arrival
        // — HD too, its budget exceeds the batch, so its certificate holds trivially — and
        // the other five origins stand.
        insert_arrival(&db, 1, 99, SimDuration::from_hours(6));
        let (third, candidates) = delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);
        assert_eq!(third, counts(racs.len() * 5, 5, 0));
        // 1SP keeps one winner per egress, the budgets of the others exceed the batch.
        assert!(candidates < 5 * 5, "{candidates} candidates evaluated");
        let fourth = delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);
        assert_eq!(fourth, (counts(racs.len() * 6, 0, 0), 0));
    }

    #[test]
    fn removals_expiry_and_context_changes_force_the_full_pass() {
        let racs = rac_set();
        let db = db_with_origins(3, 4);
        let mut tables = SelectionTables::new();
        delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);

        // A purge disturbs exactly the batch it removes from.
        assert_eq!(
            db.purge_where(|b| b.pcb.origin == AsId(2) && b.pcb.sequence == 0),
            1
        );
        let (pass, _) = delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);
        assert_eq!(pass, counts(racs.len() * 2, 0, racs.len()));

        // A short-lived arrival is extended in; once it expires — the database untouched —
        // the entry computed from it no longer covers the batch.
        insert_arrival(&db, 3, 99, SimDuration::from_hours(1));
        let (pass, _) = delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);
        assert_eq!(pass, counts(racs.len() * 2, racs.len(), 0));
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        let (pass, _) = delta_pass(&racs, &db, later, 1, &mut tables);
        assert_eq!(pass, counts(racs.len() * 2, 0, racs.len()));
        // The sweep that evicts it disturbs the batch once more, and a batch that empties
        // takes its entries with it.
        assert_eq!(db.evict_expired(later, SimDuration::ZERO), 1);
        assert_eq!(db.purge_where(|b| b.pcb.origin == AsId(1)), 4);
        let (pass, _) = delta_pass(&racs, &db, later, 1, &mut tables);
        assert_eq!(pass, counts(racs.len(), 0, racs.len()));
        assert_eq!(tables.len(), racs.len() * 2);

        // Another RAC list is another context: nothing carries over.
        let fewer = &racs[..2];
        let (pass, _) = delta_pass(fewer, &db, later, 1, &mut tables);
        assert_eq!(pass.recomputed, fewer.len() * 2);
        assert_eq!(pass.invalidated, racs.len() * 2);
        assert_eq!(tables.clear(), fewer.len() * 2);
        assert!(tables.is_empty());
    }

    #[test]
    fn on_demand_racs_always_run_the_full_pass() {
        let store = crate::rac::SharedAlgorithmStore::new();
        let od =
            Rac::new_on_demand(RacConfig::on_demand_rac("od"), std::sync::Arc::new(store)).unwrap();
        assert!(!od.is_cacheable() && !od.reselects() && !od.splits_batches());
        let racs = vec![od];
        let db = db_with_origins(2, 2);
        let mut tables = SelectionTables::new();
        for _ in 0..2 {
            delta_pass(&racs, &db, SimTime::ZERO, 1, &mut tables);
        }
        assert!(tables.is_empty());
        assert_eq!(tables.stats(), IncrementalStats::default());
    }

    /// A beacon of origin 1 over the given `(AS, egress interface)` links, received on
    /// interface 1.
    fn insert_path(db: &ShardedIngressDb, seq: u64, links: &[(u64, u32)]) {
        let registry = KeyRegistry::with_ases(11, 512);
        let mut pcb = Pcb::originate(
            AsId(1),
            seq,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        for (hop, &(asn, egress)) in links.iter().enumerate() {
            let ingress = if hop == 0 { IfId::NONE } else { IfId(1) };
            let info = StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None);
            let signer = Signer::new(AsId(asn), registry.clone());
            pcb.extend(ingress, IfId(egress), info, &signer).unwrap();
        }
        assert!(db.insert(pcb, IfId(1), SimTime::ZERO));
    }

    #[test]
    fn a_disjoint_arrival_that_lets_a_former_loser_in_is_refused_and_recomputed() {
        // HD with a budget of two over c0 = {B, A}, c1 = {C, A}, c2 = {D, E, F}: it picks
        // c0, then c2, which shares nothing with c0, over c1, which shares A.
        let config = RacConfig::static_rac("HD", "HD").with_max_selected(2);
        let racs = vec![Rac::new_static(config).unwrap()];
        let (a, b, c) = ((2, 1), (1, 1), (1, 2));
        for parallelism in [1, 4] {
            let db = ShardedIngressDb::new(4);
            insert_path(&db, 0, &[b, a]);
            insert_path(&db, 1, &[c, a]);
            insert_path(&db, 2, &[(1, 3), (4, 1), (5, 1)]);
            let mut tables = SelectionTables::new();
            let (first, _) = delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(first, counts(0, 0, 1));

            // A one-hop arrival over B, disjoint from c1: it is picked first, and with only
            // B used c1 beats c2 — but c1 is not among the winners the re-selection sees.
            // The certificate fails on c2, and the full pass picks c1.
            insert_path(&db, 3, &[b]);
            let (second, _) = delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(
                second,
                IncrementalStats {
                    refused: 1,
                    ..counts(0, 0, 1)
                }
            );
            let (batches, _) = execute_racs_cached(
                &racs,
                &db,
                &local_as(),
                &[IfId(1), IfId(2), IfId(3)],
                SimTime::ZERO,
                parallelism,
                &mut tables,
            )
            .unwrap();
            let sequences: Vec<u64> = batches[0]
                .selected
                .iter()
                .map(|s| s.beacon.pcb.sequence)
                .collect();
            assert_eq!(sequences, [1, 3], "c1 and the arrival");

            // A third arrival that changes nothing: certified over the kept picks, and
            // last round's selection is handed on as it was — the same allocation, which
            // the egress gateway replays.
            insert_path(&db, 4, &[(1, 3), (4, 1), (6, 1), (7, 1)]);
            let (third, _) = delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(third, counts(0, 1, 0));
            let round = |tables: &mut SelectionTables| {
                let egress = [IfId(1), IfId(2), IfId(3)];
                let node = local_as();
                execute_racs_cached(&racs, &db, &node, &egress, SimTime::ZERO, 1, tables)
                    .unwrap()
                    .0
            };
            assert!(Arc::ptr_eq(&batches[0], &round(&mut tables)[0]));

            // A short disjoint arrival displaces c1, under the certificate: a new selection.
            insert_path(&db, 5, &[(1, 4)]);
            let (fourth, _) = delta_pass(&racs, &db, SimTime::ZERO, parallelism, &mut tables);
            assert_eq!(fourth, counts(0, 1, 0));
            let now_selected = round(&mut tables);
            assert!(!Arc::ptr_eq(&batches[0], &now_selected[0]));
            let sequences: Vec<u64> = now_selected[0]
                .selected
                .iter()
                .map(|s| s.beacon.pcb.sequence)
                .collect();
            assert_eq!(sequences, [3, 5]);
        }
    }

    #[test]
    fn splitting_never_changes_a_selection() {
        // Sub-ranges of four over 24 link-diverse candidates: composable selectors reduce
        // their sub-range winners; HD, `<k>YEN` and ACO are not split at all.
        let node = local_as();
        let egress = [IfId(2), IfId(3)];
        let db = db_link_diverse(24);
        let names = irec_algorithms::catalog::BUILTIN_NAMES
            .iter()
            .copied()
            .chain(["DON", "DOB", "3SP", "aco:7:4"]);
        for name in names {
            let config = RacConfig::static_rac(name, name).with_max_selected(3);
            let racs = vec![Rac::new_static(config).unwrap()];
            let (unsplit, unsplit_timing) =
                execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, 1, 512).unwrap();
            assert!(!unsplit.is_empty(), "{name} selects nothing");
            for parallelism in [1, 4] {
                let (split, split_timing) =
                    execute_racs_with(&racs, &db, &node, &egress, SimTime::ZERO, parallelism, 4)
                        .unwrap();
                assert_eq!(
                    split_timing.candidates > unsplit_timing.candidates,
                    racs[0].splits_batches(),
                    "{name}"
                );
                assert_eq!(unsplit.len(), split.len(), "{name}");
                for (a, b) in unsplit.iter().zip(&split) {
                    assert_eq!(a.egress_ifs, b.egress_ifs, "{name}");
                    assert!(Arc::ptr_eq(&a.beacon, &b.beacon), "{name}");
                }
            }
        }
    }
}
