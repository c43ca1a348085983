//! The ingress and egress beacon databases.
//!
//! The paper's implementation uses SQLite for both; what the architecture needs from them is
//! (i) an indexed store of received PCBs queryable per `(origin AS, interface group, target)`
//! with expiry-based eviction (the ingress DB), and (ii) a memory-cheap dedup structure
//! remembering which PCB (by hash) has already been propagated on which egress interface
//! (the egress DB — "the egress database does not store the actual PCBs, but only their
//! hashes").

use irec_pcb::{AsEntry, Pcb, PcbId};
use irec_types::{AsId, IfId, InterfaceGroupId, SimTime};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A received beacon as stored in the ingress database.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredBeacon {
    /// The beacon itself.
    pub pcb: Pcb,
    /// The local interface it arrived on.
    pub ingress: IfId,
    /// When it was received.
    pub received_at: SimTime,
}

// What the heap form of a stored beacon costs is a property of these layouts; a field
// added to any of them is paid once per stored beacon, millions of times at paper scale
// (see "What a stored beacon holds" in docs/ARCHITECTURE.md before raising a bound).
const _: () = assert!(size_of::<AsEntry>() == 104);
const _: () = assert!(size_of::<Pcb>() <= 152);
const _: () = assert!(size_of::<StoredBeacon>() <= 168);

/// The reference counts an [`Arc`] keeps in front of what it shares.
const ARC_COUNTS: usize = 2 * size_of::<usize>();

/// What stored beacons hold, in bytes, counted from the data structures themselves — so
/// the same plane gives the same numbers on every run, which resident memory divided by
/// occupancy does not. Allocator overhead and the dedup set are not part of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// Stored beacons, expired ones not yet evicted included.
    pub beacons: usize,
    /// The batches' slot vectors: an id and a pointer per beacon they have room for.
    pub slot_bytes: usize,
    /// The beacons themselves — header, extensions, chain handle, ingress, arrival time —
    /// each behind its reference counts.
    pub beacon_bytes: usize,
    /// The entries beacons hold alone, spare capacity included.
    pub owned_entry_bytes: usize,
    /// Distinct upstream chains the beacons refer to.
    pub shared_chains: usize,
    /// The entries of those chains behind their reference counts, each chain counted once
    /// however many beacons refer to it.
    pub shared_chain_bytes: usize,
}

impl StoreBytes {
    /// All of it.
    pub fn total(&self) -> usize {
        self.slot_bytes + self.beacon_bytes + self.owned_entry_bytes + self.shared_chain_bytes
    }
}

/// A running [`StoreBytes`] over any number of databases. A chain is counted once per
/// ledger, by the identity of its allocation: in a simulated plane the receivers of one
/// fanned-out beacon are different ASes, so only a ledger that has seen all their
/// databases says what the plane holds.
#[derive(Debug, Default)]
pub struct StoreLedger {
    bytes: StoreBytes,
    /// Addresses of the chains counted so far.
    chains: HashSet<usize>,
}

impl StoreLedger {
    /// Adds what `db` stores.
    pub fn add(&mut self, db: &ShardedIngressDb) {
        for shard in &db.shards {
            for batch in shard.read().by_key.values() {
                self.bytes.slot_bytes += batch.slots.capacity() * size_of::<Slot>();
                for slot in &batch.slots {
                    self.add_beacon(&slot.beacon);
                }
            }
        }
    }

    fn add_beacon(&mut self, beacon: &StoredBeacon) {
        let entries = &beacon.pcb.entries;
        self.bytes.beacons += 1;
        self.bytes.beacon_bytes += ARC_COUNTS + size_of::<StoredBeacon>();
        self.bytes.owned_entry_bytes += entries.owned().capacity() * size_of::<AsEntry>();
        if let Some(upstream) = entries.upstream() {
            if self.chains.insert(upstream.as_ptr() as usize) {
                self.bytes.shared_chains += 1;
                self.bytes.shared_chain_bytes += ARC_COUNTS + upstream.len() * size_of::<AsEntry>();
            }
        }
    }

    /// The sums so far.
    pub fn bytes(&self) -> StoreBytes {
        self.bytes
    }
}

/// The key the ingress DB groups candidates by: the parameters a RAC requests PCBs for
/// (§V-C: "the PCBs provided as input are specific for an origin AS, as well as interface
/// group and target AS").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchKey {
    /// Origin AS of the beacons.
    pub origin: AsId,
    /// Interface group (the default group when the origin does not use groups).
    pub group: InterfaceGroupId,
    /// Target AS for pull-based beacons, `None` for conventional ones.
    pub target: Option<AsId>,
}

/// An immutable, `Arc`-shared snapshot of one candidate batch, handed to RACs.
///
/// Snapshotting replaces the per-call deep `Vec<StoredBeacon>` clones the ingress database
/// used to hand out: the beacons themselves are shared (`Arc<StoredBeacon>`), and the batch
/// as a whole is an `Arc` slice, so cloning a view — e.g. to move it onto a worker thread of
/// the parallel RAC execution engine — is a pair of reference-count bumps.
///
/// Beside every beacon the view carries its [`PcbId`], as computed when this AS verified
/// the beacon: nothing downstream of the database (fingerprinting, egress dedup, path
/// registration) hashes a stored beacon again.
#[derive(Debug, Clone)]
pub struct BatchView {
    /// The batch parameters the beacons were collected for.
    pub key: BatchKey,
    /// The candidate beacons, unexpired at snapshot time.
    pub beacons: Arc<[Arc<StoredBeacon>]>,
    /// `ids[i]` is the id of `beacons[i]`.
    ids: Arc<[PcbId]>,
}

impl BatchView {
    /// Snapshots the `live` slots (at most `capacity` of them, when the caller knows a
    /// bound) under `key`; `None` when there are none.
    fn new<'a>(
        key: BatchKey,
        capacity: usize,
        live: impl Iterator<Item = &'a Slot>,
    ) -> Option<BatchView> {
        let mut slots = Vec::with_capacity(capacity);
        slots.extend(live);
        if slots.is_empty() {
            return None;
        }
        Some(BatchView {
            key,
            beacons: slots.iter().map(|slot| Arc::clone(&slot.beacon)).collect(),
            ids: slots.iter().map(|slot| slot.id).collect(),
        })
    }

    /// A view of the beacons `selected` — with the ids those outputs carry — under `key`:
    /// what the execution engine's reduce pass re-selects over.
    pub(crate) fn of_selected<'a>(
        key: BatchKey,
        selected: impl Iterator<Item = &'a crate::engine::Identified> + Clone,
    ) -> BatchView {
        BatchView {
            key,
            beacons: selected
                .clone()
                .map(|o| Arc::clone(&o.output.beacon))
                .collect(),
            ids: selected.map(|o| o.pcb_id).collect(),
        }
    }

    /// The view a delta-driven pass re-selects over: last round's `winners` plus the
    /// `arrivals` stored since, **in batch order**. Both lists are already in batch order
    /// on their own, and within one stored batch every arrival sits behind every winner
    /// (the database only appended), so the two interleave by interface group alone —
    /// which matters for group-merged batches, whose arrivals land in the middle of the
    /// merged list, and keeps index tie-breaks resolving as they would over the whole
    /// batch.
    pub(crate) fn of_winners_and_arrivals(
        winners: &[crate::engine::SelectedBeacon],
        arrivals: &BatchView,
    ) -> BatchView {
        let total = winners.len() + arrivals.len();
        let mut beacons = Vec::with_capacity(total);
        let mut ids = Vec::with_capacity(total);
        let mut winners = winners.iter().peekable();
        for (arrival, id) in arrivals.beacons.iter().zip(arrivals.ids()) {
            let group = stored_group(&arrival.pcb);
            while let Some(winner) = winners.next_if(|w| stored_group(&w.beacon.pcb) <= group) {
                beacons.push(Arc::clone(&winner.beacon));
                ids.push(winner.pcb_id);
            }
            beacons.push(Arc::clone(arrival));
            ids.push(*id);
        }
        for winner in winners {
            beacons.push(Arc::clone(&winner.beacon));
            ids.push(winner.pcb_id);
        }
        BatchView {
            key: arrivals.key,
            beacons: beacons.into(),
            ids: ids.into(),
        }
    }

    /// The earliest expiry among the view's beacons: from this instant on a snapshot of
    /// the same stored beacons would come out shorter. `None` for an empty view.
    pub fn earliest_expiry(&self) -> Option<SimTime> {
        self.beacons.iter().map(|b| b.pcb.expires_at).min()
    }

    /// The ids of [`BatchView::beacons`], index for index.
    pub fn ids(&self) -> &[PcbId] {
        &self.ids
    }

    /// Number of candidate beacons in the view.
    pub fn len(&self) -> usize {
        self.beacons.len()
    }

    /// Whether the view holds no beacons.
    pub fn is_empty(&self) -> bool {
        self.beacons.is_empty()
    }

    /// A view onto a sub-range of this batch, sharing the stored beacons (the new slice
    /// holds `Arc` clones — reference-count bumps, no deep copies). The execution engine
    /// splits oversized batches into sub-range work items this way.
    pub fn subrange(&self, range: std::ops::Range<usize>) -> BatchView {
        BatchView {
            key: self.key,
            beacons: self.beacons[range.clone()].into(),
            ids: self.ids[range].into(),
        }
    }
}

/// The interface group a beacon is stored under.
fn stored_group(pcb: &Pcb) -> InterfaceGroupId {
    pcb.extensions
        .interface_group
        .unwrap_or(InterfaceGroupId::DEFAULT)
}

/// One stored beacon and the id this AS computed for it on the way in.
#[derive(Debug, Clone)]
struct Slot {
    id: PcbId,
    beacon: Arc<StoredBeacon>,
}

/// The beacons stored under one [`BatchKey`], in insertion order.
#[derive(Debug, Clone)]
struct Batch {
    slots: Vec<Slot>,
    /// The change-clock reading of this batch's creation or of the latest sweep that
    /// removed a beacon from it, whichever came last: until the clock passes a reader's
    /// reading, `slots` has only grown at its end. A batch that empties is dropped with
    /// its stamp; if it comes back, its creation stamps it afresh.
    disturbed_at: u64,
}

/// A reader's position in the candidate set it requested under one key — one stored batch,
/// or all interface groups of an origin merged: the change clock it read at and how long
/// each stored batch of the set was. The database owns the stamps, the reader keeps the
/// cursor; [`IngressDb::changes_since`] compares the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCursor {
    lineage: u64,
    clock: u64,
    /// Stored length of each batch of the set, in key order.
    lengths: Vec<usize>,
}

/// What happened to a candidate set since a reader's [`BatchCursor`], as far as a
/// snapshot at `now` can tell.
#[derive(Debug, Clone)]
pub enum BatchChange {
    /// Nothing was removed and no beacon live at `now` was stored.
    Unchanged,
    /// Beacons were only appended: the arrivals live at `now`, in batch order, and the
    /// cursor behind them.
    Appended(BatchView, BatchCursor),
    /// A sweep removed beacons, or a stored batch of the set came, went or came back: the
    /// reader has to snapshot the set again.
    Disturbed,
}

/// The ingress database: received beacons indexed for RAC consumption.
///
/// Storing a beacon appends it to its batch; everything else that can happen to a batch —
/// its creation, a sweep that removes beacons from it — advances a monotone **change
/// clock** and stamps the batch with the new reading. A stamp at or below a reader's
/// reading therefore proves the batch only grew at its end since, and that is all a reader
/// needs to learn, without snapshotting a batch, whether it is untouched, has only grown,
/// or lost beacons since the reader last looked (see [`IngressDb::changes_since`]).
///
/// The stamps are part of the database, so clones and copy-on-write snapshots carry them:
/// a cursor stays meaningful against the database it was read from and against copies
/// taken after it was read. Against any other database — say the fresh one of a node that
/// left and re-joined — clock readings mean nothing, so every database created empty gets
/// a `lineage` of its own and a cursor from another lineage reads as a disturbance.
#[derive(Debug, Clone)]
pub struct IngressDb {
    by_key: BTreeMap<BatchKey, Batch>,
    seen: HashSet<PcbId>,
    clock: u64,
    lineage: u64,
}

impl Default for IngressDb {
    fn default() -> Self {
        /// Never part of any output: lineages are only compared for equality.
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);
        IngressDb {
            by_key: BTreeMap::new(),
            seen: HashSet::new(),
            clock: 0,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl IngressDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a received beacon. Returns `false` when an identical beacon (same digest) is
    /// already stored (duplicate suppression). Hashes the beacon; callers that already hold
    /// its id use [`IngressDb::insert_with_id`].
    pub fn insert(&mut self, pcb: Pcb, ingress: IfId, received_at: SimTime) -> bool {
        self.insert_with_id(pcb.digest(), pcb, ingress, received_at)
    }

    /// [`IngressDb::insert`] for a beacon whose id the caller already computed — `id` must
    /// be `pcb.digest()`, as returned by the verification this AS ran on the beacon. The id
    /// is stored beside the beacon and travels with it from here on.
    pub fn insert_with_id(
        &mut self,
        id: PcbId,
        pcb: Pcb,
        ingress: IfId,
        received_at: SimTime,
    ) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        let key = BatchKey {
            origin: pcb.origin,
            group: stored_group(&pcb),
            target: pcb.extensions.target,
        };
        self.by_key
            .entry(key)
            .or_insert_with(|| {
                self.clock += 1;
                Batch {
                    slots: Vec::new(),
                    disturbed_at: self.clock,
                }
            })
            .slots
            .push(Slot {
                id,
                beacon: Arc::new(StoredBeacon {
                    pcb,
                    ingress,
                    received_at,
                }),
            });
        true
    }

    /// All batch keys currently present.
    pub fn batch_keys(&self) -> Vec<BatchKey> {
        self.by_key.keys().copied().collect()
    }

    /// The stored beacons for one batch key (unexpired at `now`). Returned beacons are
    /// shared, not cloned.
    pub fn beacons_for(&self, key: &BatchKey, now: SimTime) -> Vec<Arc<StoredBeacon>> {
        self.live_slots(*key, false, now)
            .map(|slot| Arc::clone(&slot.beacon))
            .collect()
    }

    /// The stored batches that make up the candidate set requested under `key`, in key
    /// order: the one batch stored under it, or — with `merge_groups` — every interface
    /// group of `key`'s origin and target.
    fn batches_of(&self, key: BatchKey, merge_groups: bool) -> impl Iterator<Item = &Batch> {
        // `BatchKey` orders by origin, then group, then target: one origin's groups are
        // contiguous, with its targets interleaved among them.
        let (first, last) = if merge_groups {
            (
                BatchKey {
                    origin: key.origin,
                    group: InterfaceGroupId(u32::MIN),
                    target: None,
                },
                BatchKey {
                    origin: key.origin,
                    group: InterfaceGroupId(u32::MAX),
                    target: Some(AsId(u64::MAX)),
                },
            )
        } else {
            (key, key)
        };
        self.by_key
            .range(first..=last)
            .filter(move |(k, _)| k.target == key.target)
            .map(|(_, batch)| batch)
    }

    /// The slots of the candidate set requested under `key` (see
    /// [`IngressDb::batches_of`]) that are unexpired at `now`, in batch order.
    fn live_slots(
        &self,
        key: BatchKey,
        merge_groups: bool,
        now: SimTime,
    ) -> impl Iterator<Item = &Slot> {
        self.batches_of(key, merge_groups)
            .flat_map(|batch| &batch.slots)
            .filter(move |slot| !slot.beacon.pcb.is_expired(now))
    }

    /// The key a group-merged candidate set of `origin` is requested (and handed out)
    /// under.
    fn merged_key(origin: AsId, target: Option<AsId>) -> BatchKey {
        BatchKey {
            origin,
            group: InterfaceGroupId::DEFAULT,
            target,
        }
    }

    /// The stored beacons for one origin across all its interface groups, merged into one
    /// list — what a RAC with `use_interface_groups` disabled processes. Returned beacons
    /// are shared, not cloned.
    pub fn beacons_for_origin(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Vec<Arc<StoredBeacon>> {
        self.live_slots(Self::merged_key(origin, target), true, now)
            .map(|slot| Arc::clone(&slot.beacon))
            .collect()
    }

    /// Snapshots the batch for `key` into an immutable view, or `None` when no unexpired
    /// beacon is stored under it.
    pub fn batch_view(&self, key: &BatchKey, now: SimTime) -> Option<BatchView> {
        self.snapshot(*key, false, now).0
    }

    /// Snapshots the group-merged batch of one origin (under the default group id), or
    /// `None` when no unexpired beacon matches.
    pub fn origin_view(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Option<BatchView> {
        self.snapshot(Self::merged_key(origin, target), true, now).0
    }

    /// Snapshots the candidate set requested under `key` — the one batch stored under it,
    /// or with `merge_groups` all interface groups of its origin and target merged (then
    /// `key` carries the default group) — together with the [`BatchCursor`] a later
    /// [`IngressDb::changes_since`] takes. The view is `None` when no unexpired beacon is
    /// stored.
    pub fn snapshot(
        &self,
        key: BatchKey,
        merge_groups: bool,
        now: SimTime,
    ) -> (Option<BatchView>, BatchCursor) {
        let cursor = BatchCursor {
            lineage: self.lineage,
            clock: self.clock,
            lengths: self
                .batches_of(key, merge_groups)
                .map(|batch| batch.slots.len())
                .collect(),
        };
        let stored = cursor.lengths.iter().sum();
        let view = BatchView::new(key, stored, self.live_slots(key, merge_groups, now));
        (view, cursor)
    }

    /// What happened since `cursor` to the candidate set requested under `key` (same
    /// `key` and `merge_groups` as the [`IngressDb::snapshot`] or `changes_since` call the
    /// cursor came from): costs one stamp comparison per stored batch of the set plus the
    /// arrivals themselves, never a walk over what was already there. While a batch's
    /// stamp has not passed the cursor's clock reading it has only been appended to, so
    /// its arrivals are the slots beyond the length the cursor recorded.
    ///
    /// A batch that appeared since the cursor counts as a disturbance, not as arrivals:
    /// its stamp cannot tell a new interface group from one that emptied and came back.
    pub fn changes_since(
        &self,
        key: BatchKey,
        merge_groups: bool,
        cursor: &BatchCursor,
        now: SimTime,
    ) -> BatchChange {
        if cursor.lineage != self.lineage {
            return BatchChange::Disturbed;
        }
        let mut known = cursor.lengths.iter();
        let mut lengths = Vec::with_capacity(cursor.lengths.len());
        let mut arrivals = Vec::new();
        for batch in self.batches_of(key, merge_groups) {
            // A batch of the set that went away shifts the ones behind it onto its
            // recorded length — possibly a longer one; the count check below settles it.
            let Some(arrived) = known
                .next()
                .filter(|_| batch.disturbed_at <= cursor.clock)
                .and_then(|&known| batch.slots.get(known..))
            else {
                return BatchChange::Disturbed;
            };
            lengths.push(batch.slots.len());
            arrivals.extend(
                arrived
                    .iter()
                    .filter(|slot| !slot.beacon.pcb.is_expired(now)),
            );
        }
        if known.next().is_some() {
            return BatchChange::Disturbed;
        }
        match BatchView::new(key, 0, arrivals.into_iter()) {
            Some(view) => BatchChange::Appended(view, BatchCursor { lengths, ..*cursor }),
            None => BatchChange::Unchanged,
        }
    }

    /// Total number of stored beacons **including expired ones not yet evicted**. Use
    /// [`IngressDb::live_len`] for occupancy/overhead metrics.
    pub fn len(&self) -> usize {
        self.by_key.values().map(|batch| batch.slots.len()).sum()
    }

    /// Number of stored beacons that are still valid at `now`. Unlike [`IngressDb::len`],
    /// this does not overcount expired-but-unevicted beacons between eviction sweeps.
    pub fn live_len(&self, now: SimTime) -> usize {
        self.by_key
            .values()
            .flat_map(|batch| &batch.slots)
            .filter(|slot| !slot.beacon.pcb.is_expired(now))
            .count()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes beacons that are expired at `now` (or expire within `grace`), mirroring the
    /// paper's "periodically removes (soon-to-be) expired PCBs". Returns how many were
    /// evicted.
    pub fn evict_expired(&mut self, now: SimTime, grace: irec_types::SimDuration) -> usize {
        let horizon = now + grace;
        self.remove_where(|beacon| beacon.pcb.is_expired(horizon))
    }

    /// Removes every stored beacon matching `remove`, keeping the others in order;
    /// matched ids leave the dedup set, so such a beacon can be stored again. Every batch
    /// that loses a beacon is stamped as disturbed; one that empties is dropped.
    fn remove_where(&mut self, remove: impl Fn(&StoredBeacon) -> bool) -> usize {
        let mut removed = 0;
        self.by_key.retain(|_, batch| {
            let before = removed;
            batch.slots.retain(|slot| {
                let keep = !remove(&slot.beacon);
                if !keep {
                    removed += 1;
                    self.seen.remove(&slot.id);
                }
                keep
            });
            if removed > before {
                self.clock += 1;
                batch.disturbed_at = self.clock;
            }
            !batch.slots.is_empty()
        });
        removed
    }

    /// True when any stored beacon matches `predicate` — the read-only probe the sharded
    /// facade uses to keep withdrawal sweeps from materializing untouched CoW shards.
    pub fn any_where(&self, predicate: impl Fn(&StoredBeacon) -> bool) -> bool {
        self.by_key
            .values()
            .flat_map(|batch| &batch.slots)
            .any(|slot| predicate(&slot.beacon))
    }

    /// Removes every stored beacon matching `predicate` (a withdrawal sweep), returning
    /// the count. Matched digests leave the dedup set — mirroring
    /// [`IngressDb::evict_expired`] — so a withdrawn beacon could be re-learned if it were
    /// ever re-sent.
    pub fn purge_where(&mut self, predicate: impl Fn(&StoredBeacon) -> bool) -> usize {
        self.remove_where(predicate)
    }
}

/// Hard cap on ingress shards; beyond this the per-shard maps are so small that the
/// fan-out bookkeeping dominates any insert/evict win.
pub const MAX_INGRESS_SHARDS: usize = 256;

/// The finalizer of `splitmix64` — a fixed, platform-independent avalanche mix. Shard
/// placement must be deterministic across runs and builds (the determinism probe diffs
/// byte-identical output across shard counts), so the std `RandomState` hasher is not an
/// option here. Shared with the path service's destination-AS sharding.
pub(crate) const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A sharded ingress database: `N` independent [`IngressDb`] shards keyed by origin-AS
/// hash, each an `Arc`-wrapped map behind its own `parking_lot::RwLock`.
///
/// Every beacon of one origin lands in the same shard (the batch key's origin determines
/// placement), so inserts, evictions and dedup decisions for *different* shards are
/// independent and can proceed concurrently — including concurrently with the engine's
/// read-side batch snapshotting, which only takes short per-shard read locks. The facade
/// preserves the single-map API with **deterministic, shard-merged iteration order**:
/// [`ShardedIngressDb::batch_keys`] returns the global ascending `BatchKey` order (shards
/// partition by origin, so sorting the merged keys reproduces exactly what one `BTreeMap`
/// would iterate), counters reduce over shards in fixed index order, and a database with
/// any shard count is observably byte-identical to the unsharded reference — pinned by the
/// proptest suite in `crates/core/tests/proptests.rs`.
///
/// # Copy-on-write snapshots
///
/// Each shard is an `Arc<IngressDb>`: [`ShardedIngressDb::cow_clone`] produces a
/// structurally shared snapshot in O(shards) reference-count bumps, and every write path
/// goes through [`Arc::make_mut`] — a shard is deep-copied only the first time a database
/// that still shares it mutates it (in either direction: a write to the *base* after a
/// snapshot was taken copies too, leaving the snapshot untouched). This is what makes
/// per-pair simulation snapshots in the PD campaign nearly free to set up.
///
/// ```
/// use irec_core::ShardedIngressDb;
/// use irec_crypto::{KeyRegistry, Signer};
/// use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
/// use irec_types::{AsId, Bandwidth, IfId, Latency, SimDuration, SimTime};
///
/// let signer = Signer::new(AsId(1), KeyRegistry::with_ases(1, 8));
/// let mut pcb = Pcb::originate(
///     AsId(1), 0, SimTime::ZERO, SimTime::ZERO + SimDuration::from_hours(6),
///     PcbExtensions::none(),
/// );
/// pcb.extend(
///     IfId::NONE, IfId(1),
///     StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None),
///     &signer,
/// ).unwrap();
///
/// let base = ShardedIngressDb::new(4);
/// assert!(base.insert(pcb.clone(), IfId(2), SimTime::ZERO));
///
/// // A COW snapshot shares every shard with the base: O(shards) pointer copies.
/// let snapshot = base.cow_clone();
/// assert_eq!(snapshot.len(), 1);
/// assert!((0..4).all(|s| snapshot.shares_shard_with(&base, s)));
///
/// // The first write to a shard materializes a private copy; the base is untouched.
/// let mut other = pcb;
/// other.sequence = 1;
/// snapshot.insert(other, IfId(2), SimTime::ZERO);
/// assert_eq!((snapshot.len(), base.len()), (2, 1));
/// assert!(!snapshot.shares_shard_with(&base, snapshot.shard_of(AsId(1))));
/// ```
#[derive(Debug)]
pub struct ShardedIngressDb {
    shards: Vec<RwLock<Arc<IngressDb>>>,
}

impl Default for ShardedIngressDb {
    /// A single-shard database — observably identical to a plain [`IngressDb`].
    fn default() -> Self {
        ShardedIngressDb::new(1)
    }
}

impl Clone for ShardedIngressDb {
    /// Deep-clones every shard's contents (the pre-snapshot behaviour, kept as the
    /// reference the COW path is benchmarked and tested against). Stored beacons stay
    /// `Arc`-shared with the original — they are immutable — but the maps, dedup sets and
    /// locks are fresh. Prefer [`ShardedIngressDb::cow_clone`] for snapshotting.
    fn clone(&self) -> Self {
        ShardedIngressDb {
            shards: self
                .shards
                .iter()
                .map(|shard| RwLock::new(Arc::new(shard.read().as_ref().clone())))
                .collect(),
        }
    }
}

impl ShardedIngressDb {
    /// Creates an empty database with `shards` shards (clamped to
    /// `1..=`[`MAX_INGRESS_SHARDS`]). Any shard count — powers of two or not — yields the
    /// same observable contents; the count only changes how concurrent mutation can get.
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_INGRESS_SHARDS);
        ShardedIngressDb {
            shards: (0..shards)
                .map(|_| RwLock::new(Arc::new(IngressDb::new())))
                .collect(),
        }
    }

    /// A structurally shared copy-on-write snapshot: O(shards) reference-count bumps, no
    /// map copies. Both databases keep full read access to the shared shards; whichever
    /// side writes to a still-shared shard first materializes its own copy of just that
    /// shard ([`Arc::make_mut`] semantics), so neither can observe the other's subsequent
    /// writes.
    pub fn cow_clone(&self) -> Self {
        ShardedIngressDb {
            shards: self
                .shards
                .iter()
                .map(|shard| RwLock::new(Arc::clone(&shard.read())))
                .collect(),
        }
    }

    /// Whether shard `shard` is still the same allocation in `self` and `other` —
    /// i.e. neither side has written to it since a [`ShardedIngressDb::cow_clone`] tied
    /// them together. Introspection for the COW isolation tests and the snapshot-cost
    /// benchmark.
    pub fn shares_shard_with(&self, other: &ShardedIngressDb, shard: usize) -> bool {
        Arc::ptr_eq(&self.shards[shard].read(), &other.shards[shard].read())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `origin`'s beacons live in.
    pub fn shard_of(&self, origin: AsId) -> usize {
        (splitmix64(origin.value()) % self.shards.len() as u64) as usize
    }

    /// Inserts a received beacon into its origin's shard. Returns `false` when an identical
    /// beacon (same digest) is already stored (duplicate suppression). Takes `&self`:
    /// concurrent inserts into different shards do not contend.
    pub fn insert(&self, pcb: Pcb, ingress: IfId, received_at: SimTime) -> bool {
        let shard = self.shard_of(pcb.origin);
        self.insert_in_shard(shard, pcb, ingress, received_at)
    }

    /// [`ShardedIngressDb::insert`] with the shard precomputed by the caller (the delivery
    /// plane partitions a whole epoch by shard before fanning the commits out).
    pub fn insert_in_shard(
        &self,
        shard: usize,
        pcb: Pcb,
        ingress: IfId,
        received_at: SimTime,
    ) -> bool {
        self.write_shard(shard, pcb.origin, |db| db.insert(pcb, ingress, received_at))
    }

    /// [`ShardedIngressDb::insert_in_shard`] for a beacon whose id the caller already
    /// computed (see [`IngressDb::insert_with_id`]) — the ingress gateway's commit path,
    /// which hands over the id its verification produced.
    pub fn insert_with_id_in_shard(
        &self,
        shard: usize,
        id: PcbId,
        pcb: Pcb,
        ingress: IfId,
        received_at: SimTime,
    ) -> bool {
        self.write_shard(shard, pcb.origin, |db| {
            db.insert_with_id(id, pcb, ingress, received_at)
        })
    }

    /// Runs `write` on the (copy-on-write materialized) shard `origin`'s beacons live in.
    fn write_shard<R>(
        &self,
        shard: usize,
        origin: AsId,
        write: impl FnOnce(&mut IngressDb) -> R,
    ) -> R {
        debug_assert_eq!(
            shard,
            self.shard_of(origin),
            "beacon committed to a foreign shard"
        );
        write(Arc::make_mut(&mut *self.shards[shard].write()))
    }

    /// All batch keys currently present, in global ascending order — identical to what the
    /// unsharded database iterates.
    pub fn batch_keys(&self) -> Vec<BatchKey> {
        let mut keys: Vec<BatchKey> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().batch_keys())
            .collect();
        // Shards partition keys by origin, so this sort is a pure merge (no ties across
        // shards) reproducing the single-map BTreeMap order.
        keys.sort_unstable();
        keys
    }

    /// The stored beacons for one batch key (unexpired at `now`). Returned beacons are
    /// shared, not cloned.
    pub fn beacons_for(&self, key: &BatchKey, now: SimTime) -> Vec<Arc<StoredBeacon>> {
        self.shards[self.shard_of(key.origin)]
            .read()
            .beacons_for(key, now)
    }

    /// The stored beacons for one origin across all its interface groups, merged into one
    /// list — entirely within the origin's shard.
    pub fn beacons_for_origin(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Vec<Arc<StoredBeacon>> {
        self.shards[self.shard_of(origin)]
            .read()
            .beacons_for_origin(origin, target, now)
    }

    /// Snapshots the batch for `key` into an immutable view, or `None` when no unexpired
    /// beacon is stored under it. The read lock is held only for the duration of the
    /// snapshot; the returned view shares the stored beacons.
    pub fn batch_view(&self, key: &BatchKey, now: SimTime) -> Option<BatchView> {
        self.shards[self.shard_of(key.origin)]
            .read()
            .batch_view(key, now)
    }

    /// Snapshots the group-merged batch of one origin (under the default group id), or
    /// `None` when no unexpired beacon matches.
    pub fn origin_view(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Option<BatchView> {
        self.shards[self.shard_of(origin)]
            .read()
            .origin_view(origin, target, now)
    }

    /// [`IngressDb::snapshot`] on the shard `key`'s origin lives in: the candidate set
    /// requested under `key`, and the cursor to ask that shard about it later.
    pub fn snapshot(
        &self,
        key: BatchKey,
        merge_groups: bool,
        now: SimTime,
    ) -> (Option<BatchView>, BatchCursor) {
        self.shards[self.shard_of(key.origin)]
            .read()
            .snapshot(key, merge_groups, now)
    }

    /// [`IngressDb::changes_since`] on the shard `key`'s origin lives in. Copy-on-write
    /// snapshots carry the stamps with the shards, so a cursor read from a database stays
    /// valid against that database across [`ShardedIngressDb::cow_clone`]s on either side.
    pub fn changes_since(
        &self,
        key: BatchKey,
        merge_groups: bool,
        cursor: &BatchCursor,
        now: SimTime,
    ) -> BatchChange {
        self.shards[self.shard_of(key.origin)]
            .read()
            .changes_since(key, merge_groups, cursor, now)
    }

    /// Total number of stored beacons **including expired ones not yet evicted**, reduced
    /// over shards in index order.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// What this database's beacons hold, every chain they refer to counted in full (see
    /// [`StoreLedger`] for a count over several databases).
    pub fn store_bytes(&self) -> StoreBytes {
        let mut ledger = StoreLedger::default();
        ledger.add(self);
        ledger.bytes()
    }

    /// Number of stored beacons still valid at `now` (see [`IngressDb::live_len`]).
    pub fn live_len(&self, now: SimTime) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().live_len(now))
            .sum()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of beacons stored in one shard (occupancy introspection for tests and the
    /// sharding benchmark).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].read().len()
    }

    /// Removes beacons that are expired at `now` (or expire within `grace`), sweeping the
    /// shards serially in index order. Returns how many were evicted in total; the count is
    /// the shard-count-independent figure the unsharded database would report.
    pub fn evict_expired(&self, now: SimTime, grace: irec_types::SimDuration) -> usize {
        self.shards
            .iter()
            .map(|shard| Self::evict_shard(shard, now, grace))
            .sum()
    }

    /// Evicts one shard, skipping the copy-on-write materialization when a read-only probe
    /// shows nothing would be evicted — routine housekeeping sweeps must not un-share the
    /// shards of an otherwise read-only snapshot.
    fn evict_shard(
        shard: &RwLock<Arc<IngressDb>>,
        now: SimTime,
        grace: irec_types::SimDuration,
    ) -> usize {
        let horizon = now + grace;
        {
            let guard = shard.read();
            if guard.len() == guard.live_len(horizon) {
                return 0;
            }
        }
        Arc::make_mut(&mut *shard.write()).evict_expired(now, grace)
    }

    /// [`IngressDb::purge_where`] across every shard (a withdrawal sweep), with a
    /// read-only probe per shard so sweeps that match nothing leave CoW-shared shards
    /// untouched. The count is a sum of per-shard counts in fixed index order, so it is
    /// identical for any shard count.
    pub fn purge_where(&self, predicate: impl Fn(&StoredBeacon) -> bool) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                {
                    let guard = shard.read();
                    if !guard.any_where(&predicate) {
                        return 0;
                    }
                }
                Arc::make_mut(&mut *shard.write()).purge_where(&predicate)
            })
            .sum()
    }

    /// [`ShardedIngressDb::evict_expired`] with the per-shard sweeps fanned out over up to
    /// `workers` scoped threads. Eviction decisions are per-beacon and shards are disjoint,
    /// so the total — a sum of per-shard counts — is identical to the serial sweep for any
    /// worker count.
    pub fn evict_expired_parallel(
        &self,
        now: SimTime,
        grace: irec_types::SimDuration,
        workers: usize,
    ) -> usize {
        if workers <= 1 || self.shards.len() <= 1 {
            return self.evict_expired(now, grace);
        }
        let workers = workers.min(self.shards.len());
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let evicted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(shard) = self.shards.get(index) else {
                        break;
                    };
                    let count = Self::evict_shard(shard, now, grace);
                    evicted.fetch_add(count, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        evicted.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Membership tests against an ascending list of interface ids, for queries that mostly
/// ascend as well (selections list their egress interfaces in ascending order): the cursor
/// walks forward from where the last query ended, so a run of queries costs one pass over
/// the list, and starts over when a query falls behind it.
pub(crate) struct AscendingIfIds<'a> {
    ids: &'a [IfId],
    at: usize,
}

impl<'a> AscendingIfIds<'a> {
    pub(crate) fn new(ids: &'a [IfId]) -> Self {
        AscendingIfIds { ids, at: 0 }
    }

    pub(crate) fn contains(&mut self, id: IfId) -> bool {
        if self.at > 0 && self.ids[self.at - 1] >= id {
            self.at = 0;
        }
        while self.at < self.ids.len() && self.ids[self.at] < id {
            self.at += 1;
        }
        self.ids.get(self.at) == Some(&id)
    }
}

/// How many interface ids an [`EgressMarks`] holds in place. Seven ids, their count and the
/// variant tag take the 32 bytes the spilled form needs anyway.
const INLINE_MARKS: usize = 7;

/// The egress interfaces one beacon was propagated on: a sorted set of at most *degree*
/// interface ids, held in place while there are no more than [`INLINE_MARKS`] of them and
/// in one exactly-sized heap vector beyond that.
#[derive(Debug, Clone)]
enum EgressMarks {
    Inline { len: u8, ids: [IfId; INLINE_MARKS] },
    Spilled(Vec<IfId>),
}

impl EgressMarks {
    const fn new() -> Self {
        EgressMarks::Inline {
            len: 0,
            ids: [IfId::NONE; INLINE_MARKS],
        }
    }

    fn as_slice(&self) -> &[IfId] {
        match self {
            EgressMarks::Inline { len, ids } => &ids[..usize::from(*len)],
            EgressMarks::Spilled(ids) => ids,
        }
    }

    fn contains(&self, id: IfId) -> bool {
        self.as_slice().binary_search(&id).is_ok()
    }

    /// Makes room for `additional` more ids, spilling to the heap now if they cannot all
    /// stay in place, so a burst of marks costs at most one allocation.
    fn reserve(&mut self, additional: usize) {
        match self {
            EgressMarks::Inline { len, ids } => {
                let len = usize::from(*len);
                if len + additional > INLINE_MARKS {
                    let mut spilled = Vec::with_capacity(len + additional);
                    spilled.extend_from_slice(&ids[..len]);
                    *self = EgressMarks::Spilled(spilled);
                }
            }
            EgressMarks::Spilled(ids) => ids.reserve_exact(additional),
        }
    }

    /// Adds `id`, keeping the order; returns whether it was new.
    fn insert(&mut self, id: IfId) -> bool {
        let Err(at) = self.as_slice().binary_search(&id) else {
            return false;
        };
        self.reserve(1);
        match self {
            EgressMarks::Inline { len, ids } => {
                ids.copy_within(at..usize::from(*len), at + 1);
                ids[at] = id;
                *len += 1;
            }
            EgressMarks::Spilled(ids) => ids.insert(at, id),
        }
        true
    }

    /// Removes `id`; returns whether it was there.
    fn remove(&mut self, id: IfId) -> bool {
        let Ok(at) = self.as_slice().binary_search(&id) else {
            return false;
        };
        match self {
            EgressMarks::Inline { len, ids } => {
                ids.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            EgressMarks::Spilled(ids) => {
                ids.remove(at);
            }
        }
        true
    }
}

/// One tracked PCB hash in the egress database: the interfaces it was propagated on and the
/// expiry time it was recorded under (so eviction can tell live entries from stale expiry-
/// index rows).
#[derive(Debug, Clone)]
struct EgressEntry {
    egresses: EgressMarks,
    expires_at: SimTime,
}

/// The egress database: remembers, per PCB hash, the egress interfaces the beacon has already
/// been propagated on, so duplicate selections by multiple RACs are propagated only once per
/// interface.
///
/// Invariant (pinned by the proptest suite in `crates/core/tests/proptests.rs`): the
/// `removed` count returned by [`EgressDb::evict_expired`] equals the number of hashes
/// actually deleted from the database, i.e. `len()` always drops by exactly `removed`.
#[derive(Debug, Clone, Default)]
pub struct EgressDb {
    propagated: HashMap<PcbId, EgressEntry>,
    /// Expiry index. May contain stale rows for a digest that was evicted and later
    /// re-recorded under a different expiry time; eviction validates each row against the
    /// expiry time stored in the live entry before deleting.
    expiry: BTreeMap<SimTime, Vec<PcbId>>,
}

impl EgressDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the beacon with id `id`, expiring at `expires_at`, is about to be
    /// propagated on `egress_ifs`. Returns the subset of interfaces that are *new* for this
    /// PCB (the ones propagation should actually happen on); interfaces already recorded
    /// are filtered out. The database never sees the beacon itself — only the id its
    /// holder carries for it.
    ///
    /// This is [`EgressDb::unmarked_egresses`] followed by [`EgressDb::record`]; a holder
    /// of a shared database calls the two halves itself and skips the write when the probe
    /// says there is nothing to record.
    pub fn filter_new_egresses(
        &mut self,
        id: PcbId,
        expires_at: SimTime,
        egress_ifs: &[IfId],
    ) -> Vec<IfId> {
        let mut new = Vec::new();
        if self.unmarked_egresses(&id, expires_at, egress_ifs, |_| true, &mut new) {
            self.record(id, expires_at, &new);
        }
        new
    }

    /// The read-only half of [`EgressDb::filter_new_egresses`]: fills `new` (emptied first,
    /// so a caller can reuse one buffer) with the interfaces of `egress_ifs`, in order and
    /// each once, that carry no mark for `id` yet and pass `exportable` (asked only about
    /// unmarked interfaces). Returns whether [`EgressDb::record`] has anything to write —
    /// a new mark, an id seen for the first time (it is tracked even with nothing to
    /// send), or a known id under a later expiry.
    pub fn unmarked_egresses(
        &self,
        id: &PcbId,
        expires_at: SimTime,
        egress_ifs: &[IfId],
        mut exportable: impl FnMut(IfId) -> bool,
        new: &mut Vec<IfId>,
    ) -> bool {
        let entry = self.propagated.get(id);
        let mut marked = AscendingIfIds::new(entry.map_or(&[], |entry| entry.egresses.as_slice()));
        new.clear();
        for &egress in egress_ifs {
            if !marked.contains(egress) && !new.contains(&egress) && exportable(egress) {
                new.push(egress);
            }
        }
        !new.is_empty() || entry.is_none_or(|entry| expires_at > entry.expires_at)
    }

    /// The write half of [`EgressDb::filter_new_egresses`]: tracks `id` under `expires_at`
    /// and marks it as propagated on the interfaces `new`.
    pub fn record(&mut self, id: PcbId, expires_at: SimTime, new: &[IfId]) {
        let entry = self.propagated.entry(id).or_insert_with(|| {
            self.expiry.entry(expires_at).or_default().push(id);
            EgressEntry {
                egresses: EgressMarks::new(),
                expires_at,
            }
        });
        if expires_at > entry.expires_at {
            // Defensive: a digest re-recorded under a different expiry (cannot happen while
            // the digest covers the expiry field, but the bookkeeping must not silently
            // drift if that ever changes). Track the later expiry and index it; the old
            // index row becomes stale and is skipped at eviction.
            entry.expires_at = expires_at;
            self.expiry.entry(expires_at).or_default().push(id);
        }
        entry.egresses.reserve(new.len());
        for &egress in new {
            entry.egresses.insert(egress);
        }
    }

    /// Whether any beacon has been recorded as propagated over `egress`.
    pub fn has_egress_records(&self, egress: IfId) -> bool {
        self.propagated
            .values()
            .any(|entry| entry.egresses.contains(egress))
    }

    /// Removes `egress` from every beacon's propagated-interface set, so each beacon's
    /// next selection is re-sent on that interface. Entries (and their expiry-index rows)
    /// stay in place — only the per-interface marks are dropped. Returns how many marks
    /// were removed. This is the dedup half of node-rejoin hygiene (see
    /// `Simulation::add_node`).
    pub fn forget_egress(&mut self, egress: IfId) -> usize {
        let mut removed = 0;
        for entry in self.propagated.values_mut() {
            if entry.egresses.remove(egress) {
                removed += 1;
            }
        }
        removed
    }

    /// Whether the PCB with id `id` has already been recorded for the given egress
    /// interface.
    pub fn contains(&self, id: &PcbId, egress: IfId) -> bool {
        self.propagated
            .get(id)
            .is_some_and(|e| e.egresses.contains(egress))
    }

    /// Number of PCB hashes tracked.
    pub fn len(&self) -> usize {
        self.propagated.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.propagated.is_empty()
    }

    /// Whether a sweep at `now` would remove anything: true when the earliest expiry-index
    /// bucket is at or before `now`. A cheap read-only probe — the egress gateway checks it
    /// before [`EgressDb::evict_expired`] so routine per-round sweeps don't materialize a
    /// copy-on-write-shared database that has nothing to evict. May report true on a purely
    /// stale bucket (digest re-recorded under a later expiry); the subsequent sweep then
    /// removes zero entries, which is correct, just not free.
    pub fn has_expired_entries(&self, now: SimTime) -> bool {
        self.expiry.keys().next().is_some_and(|&t| t <= now)
    }

    /// Evicts entries whose beacons expired at or before `now`. Returns how many hashes were
    /// removed; the count is exact — stale expiry-index rows (a digest evicted earlier and
    /// re-recorded since) are skipped, never double-counted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        // A sweep at `SimTime::MAX` drains every bucket (including one at exactly `MAX`,
        // which `split_off(MAX + 1)` could neither express nor reach without overflowing).
        let drained = if now == SimTime::MAX {
            std::mem::take(&mut self.expiry)
        } else {
            let still_valid = self
                .expiry
                .split_off(&SimTime::from_micros(now.as_micros() + 1));
            std::mem::replace(&mut self.expiry, still_valid)
        };
        for (_, ids) in drained {
            for id in ids {
                // Only delete when the live entry is recorded under an expiry that has
                // actually passed; a later-expiring re-record keeps the entry alive (it has
                // its own index row in a future bucket).
                let expired = self
                    .propagated
                    .get(&id)
                    .is_some_and(|e| e.expires_at <= now);
                if expired && self.propagated.remove(&id).is_some() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{PcbExtensions, StaticInfo};
    use irec_types::{Bandwidth, Latency, SimDuration};

    fn pcb(origin: u64, seq: u64, extensions: PcbExtensions, validity_h: u64) -> Pcb {
        let registry = KeyRegistry::with_ases(3, 64);
        let signer = Signer::new(AsId(origin), registry);
        let mut pcb = Pcb::originate(
            AsId(origin),
            seq,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(validity_h),
            extensions,
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None),
            &signer,
        )
        .unwrap();
        pcb
    }

    /// Records a propagation the way the egress gateway does: by id and expiry.
    fn record(db: &mut EgressDb, pcb: &Pcb, egress_ifs: &[IfId]) -> Vec<IfId> {
        db.filter_new_egresses(pcb.digest(), pcb.expires_at, egress_ifs)
    }

    #[test]
    fn ingress_insert_and_query() {
        let mut db = IngressDb::new();
        assert!(db.is_empty());
        assert!(db.insert(pcb(1, 0, PcbExtensions::none(), 6), IfId(4), SimTime::ZERO));
        assert!(db.insert(pcb(1, 1, PcbExtensions::none(), 6), IfId(4), SimTime::ZERO));
        assert!(db.insert(pcb(2, 0, PcbExtensions::none(), 6), IfId(5), SimTime::ZERO));
        assert_eq!(db.len(), 3);
        let keys = db.batch_keys();
        assert_eq!(keys.len(), 2);
        let key1 = BatchKey {
            origin: AsId(1),
            group: InterfaceGroupId::DEFAULT,
            target: None,
        };
        assert_eq!(db.beacons_for(&key1, SimTime::ZERO).len(), 2);
    }

    #[test]
    fn ingress_duplicate_suppression() {
        let mut db = IngressDb::new();
        let p = pcb(1, 0, PcbExtensions::none(), 6);
        assert!(db.insert(p.clone(), IfId(4), SimTime::ZERO));
        assert!(!db.insert(p, IfId(4), SimTime::ZERO));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn ingress_groups_and_targets_separate_batches() {
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 6), IfId(1), SimTime::ZERO);
        db.insert(
            pcb(
                1,
                1,
                PcbExtensions::none().with_interface_group(InterfaceGroupId(2)),
                6,
            ),
            IfId(1),
            SimTime::ZERO,
        );
        db.insert(
            pcb(1, 2, PcbExtensions::none().with_target(AsId(9)), 6),
            IfId(1),
            SimTime::ZERO,
        );
        assert_eq!(db.batch_keys().len(), 3);
        // Merged view across groups for a RAC without interface-group processing.
        assert_eq!(db.beacons_for_origin(AsId(1), None, SimTime::ZERO).len(), 2);
        assert_eq!(
            db.beacons_for_origin(AsId(1), Some(AsId(9)), SimTime::ZERO)
                .len(),
            1
        );
    }

    #[test]
    fn ingress_expiry_filtering_and_eviction() {
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 1), IfId(1), SimTime::ZERO);
        db.insert(pcb(1, 1, PcbExtensions::none(), 10), IfId(1), SimTime::ZERO);
        let key = BatchKey {
            origin: AsId(1),
            group: InterfaceGroupId::DEFAULT,
            target: None,
        };
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        assert_eq!(db.beacons_for(&key, later).len(), 1);
        let evicted = db.evict_expired(later, SimDuration::ZERO);
        assert_eq!(evicted, 1);
        assert_eq!(db.len(), 1);
        // The evicted digest can be inserted again (e.g. a re-originated beacon).
        assert!(db.insert(pcb(1, 0, PcbExtensions::none(), 1), IfId(1), SimTime::ZERO));
    }

    #[test]
    fn carried_id_leaves_the_dedup_set_on_eviction_and_purge() {
        // A beacon stored under a carried id (the gateway's commit path) is deduplicated,
        // evicted and purged by that id: after either removal the same beacon — same id —
        // can be stored again, through either insert path.
        let short = pcb(1, 0, PcbExtensions::none(), 1);
        let long = pcb(2, 0, PcbExtensions::none(), 10);
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        for shards in [1usize, 4] {
            let db = ShardedIngressDb::new(shards);
            for p in [&short, &long] {
                let shard = db.shard_of(p.origin);
                assert!(db.insert_with_id_in_shard(
                    shard,
                    p.digest(),
                    p.clone(),
                    IfId(1),
                    SimTime::ZERO
                ));
                // Both paths dedup against the carried id.
                assert!(!db.insert_with_id_in_shard(
                    shard,
                    p.digest(),
                    p.clone(),
                    IfId(1),
                    SimTime::ZERO
                ));
                assert!(!db.insert(p.clone(), IfId(1), SimTime::ZERO));
            }
            assert_eq!(db.evict_expired(later, SimDuration::ZERO), 1);
            assert!(db.insert(short.clone(), IfId(1), SimTime::ZERO));
            assert_eq!(db.purge_where(|b| b.pcb.origin == AsId(2)), 1);
            let shard = db.shard_of(long.origin);
            assert!(db.insert_with_id_in_shard(
                shard,
                long.digest(),
                long.clone(),
                IfId(1),
                SimTime::ZERO
            ));
            assert_eq!(db.len(), 2);
            // What the views carry is what went in.
            for p in [&short, &long] {
                let key = BatchKey {
                    origin: p.origin,
                    group: InterfaceGroupId::DEFAULT,
                    target: None,
                };
                let view = db.batch_view(&key, SimTime::ZERO).unwrap();
                assert_eq!(view.ids(), &[p.digest()]);
                assert_eq!(view.subrange(0..1).ids(), view.ids());
                let merged = db.origin_view(p.origin, None, SimTime::ZERO).unwrap();
                assert_eq!(merged.ids(), view.ids());
            }
        }
    }

    #[test]
    fn change_stamps_tell_untouched_grown_and_disturbed_batches_apart() {
        let grouped =
            |group: u32| PcbExtensions::none().with_interface_group(InterfaceGroupId(group));
        let key = |group: u32| BatchKey {
            origin: AsId(1),
            group: InterfaceGroupId(group),
            target: None,
        };
        let merged = key(0);
        let now = SimTime::ZERO;
        let mut db = IngressDb::new();
        for (seq, group) in [(0, 1), (1, 2), (2, 1)] {
            db.insert(pcb(1, seq, grouped(group), 6), IfId(1), now);
        }
        db.insert(pcb(2, 0, PcbExtensions::none(), 6), IfId(1), now);

        let (view, one_group) = db.snapshot(key(1), false, now);
        assert_eq!(view.unwrap().len(), 2);
        let (view, all_groups) = db.snapshot(merged, true, now);
        assert_eq!(view.unwrap().len(), 3);
        let changes = |db: &IngressDb, cursor: &BatchCursor, merge: bool| {
            db.changes_since(if merge { merged } else { key(1) }, merge, cursor, now)
        };
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Unchanged
        ));
        assert!(matches!(
            changes(&db, &all_groups, true),
            BatchChange::Unchanged
        ));

        // Another origin's insert, a duplicate and an arrival that is already expired
        // change nothing; an arrival in group 2 grows the merged set only.
        db.insert(pcb(2, 1, PcbExtensions::none(), 6), IfId(1), now);
        assert!(!db.insert(pcb(1, 0, grouped(1), 6), IfId(1), now));
        let late = SimTime::ZERO + SimDuration::from_hours(2);
        db.insert(pcb(1, 7, grouped(1), 1), IfId(1), now);
        assert!(matches!(
            db.changes_since(key(1), false, &one_group, late),
            BatchChange::Unchanged
        ));
        db.purge_where(|b| b.pcb.sequence == 7);
        let (_, one_group) = db.snapshot(key(1), false, now);
        let (_, all_groups) = db.snapshot(merged, true, now);
        db.insert(pcb(1, 3, grouped(2), 6), IfId(1), now);
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Unchanged
        ));
        let BatchChange::Appended(arrivals, all_groups) = changes(&db, &all_groups, true) else {
            panic!("an insert into a standing group is an arrival");
        };
        assert_eq!(arrivals.key, merged);
        assert_eq!(arrivals.ids(), &[pcb(1, 3, grouped(2), 6).digest()]);
        assert!(matches!(
            changes(&db, &all_groups, true),
            BatchChange::Unchanged
        ));

        // A group the reader has not seen, a removal, and a batch that emptied and came
        // back all send the reader back to a snapshot — as does another database.
        db.insert(pcb(1, 4, grouped(3), 6), IfId(1), now);
        assert!(matches!(
            changes(&db, &all_groups, true),
            BatchChange::Disturbed
        ));
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Unchanged
        ));
        db.purge_where(|b| b.pcb.sequence == 2);
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Disturbed
        ));
        // ...also once the batch has grown back to the length the cursor recorded.
        db.insert(pcb(1, 5, grouped(1), 6), IfId(1), now);
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Disturbed
        ));
        let (_, one_group) = db.snapshot(key(1), false, now);
        db.purge_where(|b| stored_group(&b.pcb) == InterfaceGroupId(1));
        db.insert(pcb(1, 0, grouped(1), 6), IfId(1), now);
        assert!(matches!(
            changes(&db, &one_group, false),
            BatchChange::Disturbed
        ));
        let (_, one_group) = db.snapshot(key(1), false, now);
        let copy = db.clone();
        assert!(matches!(
            changes(&copy, &one_group, false),
            BatchChange::Unchanged
        ));
        let mut other = IngressDb::new();
        other.insert(pcb(1, 0, grouped(1), 6), IfId(1), now);
        assert!(matches!(
            changes(&other, &one_group, false),
            BatchChange::Disturbed
        ));
    }

    #[test]
    fn ingress_soon_to_expire_grace_eviction() {
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 2), IfId(1), SimTime::ZERO);
        // At t=1h the beacon is still valid, but with a 2h grace window it is "soon to be
        // expired" and gets evicted.
        let t = SimTime::ZERO + SimDuration::from_hours(1);
        assert_eq!(db.evict_expired(t, SimDuration::from_hours(2)), 1);
    }

    #[test]
    fn egress_dedup_per_interface() {
        let mut db = EgressDb::new();
        let p = pcb(1, 0, PcbExtensions::none(), 6);
        let first = record(&mut db, &p, &[IfId(1), IfId(2)]);
        assert_eq!(first, vec![IfId(1), IfId(2)]);
        // A second RAC selects the same PCB for if2 and if3: only if3 is new.
        let second = record(&mut db, &p, &[IfId(2), IfId(3)]);
        assert_eq!(second, vec![IfId(3)]);
        assert!(db.contains(&p.digest(), IfId(1)));
        assert!(!db.contains(&p.digest(), IfId(9)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn egress_eviction_by_expiry() {
        let mut db = EgressDb::new();
        let short = pcb(1, 0, PcbExtensions::none(), 1);
        let long = pcb(1, 1, PcbExtensions::none(), 10);
        record(&mut db, &short, &[IfId(1)]);
        record(&mut db, &long, &[IfId(1)]);
        assert_eq!(db.len(), 2);
        let removed = db.evict_expired(SimTime::ZERO + SimDuration::from_hours(2));
        assert_eq!(removed, 1);
        assert_eq!(db.len(), 1);
        // After eviction the short beacon would be propagated again if re-selected.
        assert!(!db.contains(&short.digest(), IfId(1)));
    }

    #[test]
    fn ingress_live_len_excludes_expired_but_unevicted_beacons() {
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 1), IfId(1), SimTime::ZERO);
        db.insert(pcb(1, 1, PcbExtensions::none(), 10), IfId(1), SimTime::ZERO);
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        // No eviction has run: len() still counts the expired beacon, live_len() does not.
        assert_eq!(db.len(), 2);
        assert_eq!(db.live_len(later), 1);
        assert_eq!(db.live_len(SimTime::ZERO), 2);
        db.evict_expired(later, SimDuration::ZERO);
        assert_eq!(db.len(), db.live_len(later));
    }

    #[test]
    fn ingress_batch_views_share_beacons() {
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 6), IfId(1), SimTime::ZERO);
        db.insert(pcb(1, 1, PcbExtensions::none(), 1), IfId(1), SimTime::ZERO);
        let key = BatchKey {
            origin: AsId(1),
            group: InterfaceGroupId::DEFAULT,
            target: None,
        };
        let view = db.batch_view(&key, SimTime::ZERO).unwrap();
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        // The view holds the same allocations as the database — no deep copies.
        let stored = db.beacons_for(&key, SimTime::ZERO);
        assert!(Arc::ptr_eq(&view.beacons[0], &stored[0]));
        // A clone of the view is another handle onto the same slice.
        let cloned = view.clone();
        assert!(Arc::ptr_eq(&cloned.beacons[0], &view.beacons[0]));
        // Expired beacons are excluded at snapshot time.
        let later = SimTime::ZERO + SimDuration::from_hours(2);
        assert_eq!(db.batch_view(&key, later).unwrap().len(), 1);
        // A key with only expired beacons yields no view.
        let far = SimTime::ZERO + SimDuration::from_hours(20);
        assert!(db.batch_view(&key, far).is_none());
        assert!(db.origin_view(AsId(1), None, far).is_none());
    }

    #[test]
    fn egress_eviction_count_matches_deletions_when_digest_reappears() {
        let mut db = EgressDb::new();
        let p = pcb(1, 0, PcbExtensions::none(), 1);
        let expiry = SimTime::ZERO + SimDuration::from_hours(2);

        record(&mut db, &p, &[IfId(1)]);
        assert_eq!(db.len(), 1);
        let removed = db.evict_expired(expiry);
        assert_eq!(removed, 1);
        assert_eq!(db.len(), 0);

        // The same digest reappears after eviction (a RAC re-selects a re-received beacon):
        // it must be tracked again and the next eviction must count exactly one deletion —
        // `len()` always drops by exactly `removed`.
        let again = record(&mut db, &p, &[IfId(1), IfId(2)]);
        assert_eq!(again, vec![IfId(1), IfId(2)]);
        assert_eq!(db.len(), 1);
        let before = db.len();
        let removed = db.evict_expired(expiry);
        assert_eq!(removed, 1);
        assert_eq!(before - removed, db.len());
        // A second sweep finds nothing left to delete.
        assert_eq!(db.evict_expired(expiry), 0);
    }

    #[test]
    fn egress_marks_are_held_in_place_then_in_one_exact_vector() {
        // What the database keeps per tracked id, beside the 32-byte id itself: 40 bytes
        // in the map slot and nothing on the heap for up to seven marks. (It was a 56-byte
        // slot plus a hash table of its own per id.)
        assert_eq!(std::mem::size_of::<EgressMarks>(), 32);
        assert_eq!(std::mem::size_of::<EgressEntry>(), 40);

        let mut marks = EgressMarks::new();
        for id in [5, 1, 9, 3, 7, 2, 8] {
            assert!(marks.insert(IfId(id)));
            assert!(!marks.insert(IfId(id)));
        }
        assert!(matches!(marks, EgressMarks::Inline { len: 7, .. }));
        assert_eq!(
            marks.as_slice(),
            [1, 2, 3, 5, 7, 8, 9].map(IfId),
            "kept in ascending order"
        );
        // The burst that does not fit spills once, to exactly the size it needs.
        marks.reserve(3);
        for id in [4, 6, 10] {
            assert!(marks.insert(IfId(id)));
        }
        let EgressMarks::Spilled(ids) = &marks else {
            panic!("ten marks do not fit in place");
        };
        assert_eq!(ids.capacity(), 10);
        assert_eq!(marks.as_slice(), (1..=10).map(IfId).collect::<Vec<_>>());
        assert!(marks.remove(IfId(1)) && marks.remove(IfId(10)) && !marks.remove(IfId(10)));
        assert!(marks.contains(IfId(9)) && !marks.contains(IfId(1)));
        assert_eq!(marks.as_slice(), (2..=9).map(IfId).collect::<Vec<_>>());
    }

    #[test]
    fn ascending_lookup_answers_queries_in_any_order() {
        let ids = [2, 3, 5, 8, 13].map(IfId);
        let mut lookup = AscendingIfIds::new(&ids);
        for query in [1, 2, 2, 4, 5, 13, 14, 3, 8, 8, 7, 1, 13, 2] {
            assert_eq!(
                lookup.contains(IfId(query)),
                ids.contains(&IfId(query)),
                "{query}"
            );
        }
        assert!(!AscendingIfIds::new(&[]).contains(IfId(1)));
    }

    proptest::proptest! {
        /// The compact marks against a hash-set model, operation for operation: what is
        /// new (in the order asked, a repeat never twice), what is contained, what a reset
        /// of an interface drops, and that the read-only probe tells exactly when the
        /// write has something to do.
        #[test]
        fn egress_marks_match_a_hash_set_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..5, proptest::collection::vec(1u32..14, 0..10)),
                1..60,
            ),
        ) {
            let mut db = EgressDb::new();
            let mut model: HashMap<u64, HashSet<IfId>> = HashMap::new();
            let beacons: Vec<Pcb> = (0..5).map(|seq| pcb(1, seq, PcbExtensions::none(), 6)).collect();
            for (kind, beacon, interfaces) in ops {
                let interfaces: Vec<IfId> = interfaces.into_iter().map(IfId).collect();
                let pcb = &beacons[beacon as usize];
                let id = pcb.digest();
                match kind {
                    0 | 1 => {
                        let known = model.contains_key(&beacon);
                        let marked = model.entry(beacon).or_default();
                        let expected: Vec<IfId> = interfaces
                            .iter()
                            .copied()
                            .filter(|&egress| egress.value() % 2 == u32::from(kind) || kind == 0)
                            .filter(|egress| marked.insert(*egress))
                            .collect();
                        let mut new = vec![IfId(99)];  // stale content of a reused buffer
                        let unrecorded = db.unmarked_egresses(
                            &id,
                            pcb.expires_at,
                            &interfaces,
                            |egress| egress.value() % 2 == u32::from(kind) || kind == 0,
                            &mut new,
                        );
                        proptest::prop_assert_eq!(&new, &expected);
                        proptest::prop_assert_eq!(unrecorded, !known || !expected.is_empty());
                        db.record(id, pcb.expires_at, &new);
                        // Recorded: the same question finds nothing left to do.
                        proptest::prop_assert!(
                            db.filter_new_egresses(id, pcb.expires_at, &expected).is_empty()
                        );
                    }
                    2 => {
                        for egress in interfaces {
                            let expected = model
                                .values_mut()
                                .filter_map(|marked| marked.remove(&egress).then_some(()))
                                .count();
                            proptest::prop_assert_eq!(db.has_egress_records(egress), expected > 0);
                            proptest::prop_assert_eq!(db.forget_egress(egress), expected);
                            proptest::prop_assert!(!db.has_egress_records(egress));
                        }
                    }
                    _ => {
                        for egress in (1..14).map(IfId) {
                            proptest::prop_assert_eq!(
                                db.contains(&id, egress),
                                model.get(&beacon).is_some_and(|marked| marked.contains(&egress))
                            );
                        }
                    }
                }
                proptest::prop_assert_eq!(db.len(), model.len());
            }
        }
    }

    #[test]
    fn egress_empty_interface_list() {
        let mut db = EgressDb::new();
        let p = pcb(1, 0, PcbExtensions::none(), 6);
        assert!(record(&mut db, &p, &[]).is_empty());
        assert_eq!(db.len(), 1); // the hash is tracked even with no interfaces yet
    }

    #[test]
    fn sharded_db_clamps_shard_count_and_places_origins_stably() {
        assert_eq!(ShardedIngressDb::new(0).shard_count(), 1);
        assert_eq!(
            ShardedIngressDb::new(100_000).shard_count(),
            MAX_INGRESS_SHARDS
        );
        let db = ShardedIngressDb::new(7);
        for origin in 1..200u64 {
            let shard = db.shard_of(AsId(origin));
            assert!(shard < 7);
            // Placement is a pure function of the origin.
            assert_eq!(db.shard_of(AsId(origin)), shard);
        }
        // The hash actually spreads origins (not everything in one shard).
        let used: HashSet<usize> = (1..200u64).map(|o| db.shard_of(AsId(o))).collect();
        assert!(used.len() > 1);
    }

    #[test]
    fn sharded_db_matches_single_map_for_any_shard_count() {
        for shards in [1usize, 2, 4, 7, 16] {
            let mut reference = IngressDb::new();
            let sharded = ShardedIngressDb::new(shards);
            for origin in 1..=6u64 {
                for seq in 0..4u64 {
                    let p = pcb(origin, seq, PcbExtensions::none(), 1 + (seq % 3));
                    assert_eq!(
                        sharded.insert(p.clone(), IfId(1), SimTime::ZERO),
                        reference.insert(p, IfId(1), SimTime::ZERO),
                        "insert verdicts diverged at {shards} shards"
                    );
                }
            }
            assert_eq!(sharded.batch_keys(), reference.batch_keys());
            assert_eq!(sharded.len(), reference.len());
            let probe = SimTime::ZERO + SimDuration::from_hours(2);
            assert_eq!(sharded.live_len(probe), reference.live_len(probe));
            for key in reference.batch_keys() {
                assert_eq!(
                    sharded.beacons_for(&key, probe),
                    reference.beacons_for(&key, probe)
                );
            }
            assert_eq!(
                sharded.evict_expired(probe, SimDuration::ZERO),
                reference.evict_expired(probe, SimDuration::ZERO),
                "eviction counts diverged at {shards} shards"
            );
            assert_eq!(sharded.len(), reference.len());
        }
    }

    #[test]
    fn sharded_db_parallel_eviction_matches_serial() {
        let build = || {
            let db = ShardedIngressDb::new(8);
            for origin in 1..=16u64 {
                for seq in 0..3u64 {
                    db.insert(
                        pcb(origin, seq, PcbExtensions::none(), 1 + seq),
                        IfId(1),
                        SimTime::ZERO,
                    );
                }
            }
            db
        };
        let probe = SimTime::ZERO + SimDuration::from_hours(2);
        let serial_db = build();
        let serial = serial_db.evict_expired(probe, SimDuration::ZERO);
        assert!(serial > 0);
        for workers in [2usize, 4, 16] {
            let db = build();
            assert_eq!(
                db.evict_expired_parallel(probe, SimDuration::ZERO, workers),
                serial
            );
            assert_eq!(db.len(), serial_db.len());
        }
    }

    #[test]
    fn ingress_eviction_at_exact_expiry_instant() {
        // `is_expired` is inclusive: a beacon expiring exactly at `now` is expired at `now`,
        // with no grace window needed — the eviction count must reflect that boundary.
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 1), IfId(1), SimTime::ZERO);
        let exactly = SimTime::ZERO + SimDuration::from_hours(1);
        let just_before = SimTime::from_micros(exactly.as_micros() - 1);
        assert_eq!(db.evict_expired(just_before, SimDuration::ZERO), 0);
        assert_eq!(db.live_len(just_before), 1);
        assert_eq!(db.evict_expired(exactly, SimDuration::ZERO), 1);
        assert!(db.is_empty());

        // Same boundary through the sharded facade, and via a grace window that lands the
        // horizon exactly on the expiry instant.
        for shards in [1usize, 4] {
            let sharded = ShardedIngressDb::new(shards);
            sharded.insert(pcb(1, 0, PcbExtensions::none(), 2), IfId(1), SimTime::ZERO);
            assert_eq!(
                sharded.evict_expired(
                    SimTime::ZERO + SimDuration::from_hours(1),
                    SimDuration::ZERO
                ),
                0
            );
            assert_eq!(
                sharded.evict_expired(
                    SimTime::ZERO + SimDuration::from_hours(1),
                    SimDuration::from_hours(1)
                ),
                1,
                "grace horizon exactly at expiry must evict ({shards} shards)"
            );
        }
    }

    #[test]
    fn ingress_eviction_grace_saturates_at_time_max() {
        // A sweep near the end of time with a huge grace window must not overflow: the
        // horizon saturates at `SimTime::MAX` and everything expiring at or before it goes.
        let mut db = IngressDb::new();
        db.insert(pcb(1, 0, PcbExtensions::none(), 6), IfId(1), SimTime::ZERO);
        let evicted = db.evict_expired(SimTime::MAX, SimDuration::from_hours(u64::MAX));
        assert_eq!(evicted, 1);
        assert!(db.is_empty());

        let sharded = ShardedIngressDb::new(7);
        for origin in 1..=5u64 {
            sharded.insert(
                pcb(origin, 0, PcbExtensions::none(), 9),
                IfId(1),
                SimTime::ZERO,
            );
        }
        assert_eq!(
            sharded.evict_expired(SimTime::MAX, SimDuration(u64::MAX)),
            5
        );
        assert!(sharded.is_empty());
    }

    #[test]
    fn cow_clone_shares_shards_until_first_write_in_either_direction() {
        let base = ShardedIngressDb::new(7);
        for origin in 1..=10u64 {
            base.insert(
                pcb(origin, 0, PcbExtensions::none(), 6),
                IfId(1),
                SimTime::ZERO,
            );
        }
        let snap = base.cow_clone();
        assert!((0..7).all(|s| snap.shares_shard_with(&base, s)));
        assert_eq!(snap.len(), base.len());

        // Snapshot write: only the written origin's shard un-shares; base contents hold.
        let before = base.len();
        snap.insert(pcb(1, 9, PcbExtensions::none(), 6), IfId(2), SimTime::ZERO);
        let touched = snap.shard_of(AsId(1));
        for s in 0..7 {
            assert_eq!(snap.shares_shard_with(&base, s), s != touched);
        }
        assert_eq!(base.len(), before);
        assert_eq!(snap.len(), before + 1);

        // Base write after the snapshot: copies on the base side, snapshot unaffected.
        let other = base.shard_of(AsId(2));
        assert_ne!(other, touched, "test topology must spread origins 1 and 2");
        base.insert(pcb(2, 9, PcbExtensions::none(), 6), IfId(2), SimTime::ZERO);
        assert!(!snap.shares_shard_with(&base, other));
        assert_eq!(
            snap.beacons_for_origin(AsId(2), None, SimTime::ZERO).len(),
            1
        );
        assert_eq!(
            base.beacons_for_origin(AsId(2), None, SimTime::ZERO).len(),
            2
        );
    }

    #[test]
    fn cow_clone_eviction_probe_keeps_untouched_shards_shared() {
        let base = ShardedIngressDb::new(4);
        for origin in 1..=8u64 {
            base.insert(
                pcb(origin, 0, PcbExtensions::none(), 6),
                IfId(1),
                SimTime::ZERO,
            );
        }
        let snap = base.cow_clone();
        // Nothing expires this early: the sweep must not materialize any shard.
        assert_eq!(snap.evict_expired(SimTime::ZERO, SimDuration::ZERO), 0);
        assert_eq!(
            snap.evict_expired_parallel(SimTime::ZERO, SimDuration::ZERO, 4),
            0
        );
        assert!((0..4).all(|s| snap.shares_shard_with(&base, s)));
        // Once beacons actually expire, the sweep works and matches the deep-clone count.
        let deep = base.clone();
        let later = SimTime::ZERO + SimDuration::from_hours(7);
        assert_eq!(
            snap.evict_expired(later, SimDuration::ZERO),
            deep.evict_expired(later, SimDuration::ZERO)
        );
        assert_eq!(snap.len(), deep.len());
    }

    #[test]
    fn egress_eviction_at_exact_expiry_and_time_max() {
        // Exactly-at-`now` boundary: `evict_expired(now)` drains the bucket at `now` itself
        // (expiry is inclusive, matching `Pcb::is_expired`).
        let mut db = EgressDb::new();
        let p = pcb(1, 0, PcbExtensions::none(), 1);
        record(&mut db, &p, &[IfId(1)]);
        let just_before = SimTime::from_micros(p.expires_at.as_micros() - 1);
        assert_eq!(db.evict_expired(just_before), 0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.evict_expired(p.expires_at), 1);
        assert!(db.is_empty());

        // A hash recorded under expiry `SimTime::MAX` ("never expires") survives every
        // finite sweep and is only drained by the explicit end-of-time sweep.
        let mut db = EgressDb::new();
        let mut eternal = pcb(1, 1, PcbExtensions::none(), 1);
        eternal.expires_at = SimTime::MAX;
        record(&mut db, &eternal, &[IfId(1)]);
        assert_eq!(db.evict_expired(SimTime::from_micros(u64::MAX - 1)), 0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.evict_expired(SimTime::MAX), 1);
        assert!(db.is_empty());
        // And the count stays exact on a repeated end-of-time sweep.
        assert_eq!(db.evict_expired(SimTime::MAX), 0);
    }
}
