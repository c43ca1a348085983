//! The ingress and egress beacon databases.
//!
//! The paper's implementation uses SQLite for both; what the architecture needs from them is
//! (i) an indexed store of received PCBs queryable per `(origin AS, interface group, target)`
//! with expiry-based eviction (the ingress DB), and (ii) a memory-cheap dedup structure
//! remembering which PCB (by hash) has already been propagated on which egress interface
//! (the egress DB — "the egress database does not store the actual PCBs, but only their
//! hashes").

use irec_crypto::Digest;
use irec_pcb::{AsEntry, Pcb, PcbExtensions, PcbId};
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
const _: () = assert!(size_of::<PcbExtensions>() <= 56);
const _: () = assert!(size_of::<Pcb>() <= 136);
const _: () = assert!(size_of::<StoredBeacon>() <= 152);

/// The reference counts an [`Arc`] keeps in front of what it shares.
const ARC_COUNTS: usize = 2 * size_of::<usize>();

/// What stored beacons and the indexes beside them hold, in bytes, counted from the data
/// structures themselves — so the same plane gives the same numbers on every run, which
/// resident memory divided by occupancy does not. Allocator overhead is not part of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// Stored beacons, expired ones not yet evicted included.
    pub beacons: usize,
    /// The batches' slot vectors: an id past its short word and a pointer per beacon they
    /// have room for.
    pub slot_bytes: usize,
    /// The ingress dedup index: the batches' short-id words, one per beacon they have room
    /// for. Dedup reads nothing else until a word matches.
    pub dedup_index_bytes: usize,
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
    /// The egress dedup databases: each map at its capacity — id, marks and expiry per
    /// tracked beacon — and the marks spilled beside it.
    pub egress_bytes: usize,
}

impl StoreBytes {
    /// All of it.
    pub fn total(&self) -> usize {
        self.slot_bytes
            + self.dedup_index_bytes
            + self.beacon_bytes
            + self.owned_entry_bytes
            + self.shared_chain_bytes
            + self.egress_bytes
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
        for batch in db.store.read().by_key.values() {
            self.bytes.slot_bytes += batch.slots.capacity() * size_of::<Slot>();
            self.bytes.dedup_index_bytes += batch.shorts.capacity() * size_of::<u64>();
            for slot in &batch.slots {
                self.add_beacon(&slot.beacon);
            }
        }
    }

    /// Adds what the egress dedup database `db` holds.
    pub fn add_egress(&mut self, db: &EgressDb) {
        self.bytes.egress_bytes += db.bytes();
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
    /// Snapshots the `live` stored beacons (at most `capacity` of them, when the caller
    /// knows a bound) under `key`; `None` when there are none.
    fn new<'a>(
        key: BatchKey,
        capacity: usize,
        live: impl Iterator<Item = Stored<'a>>,
    ) -> Option<BatchView> {
        let mut stored = Vec::with_capacity(capacity);
        stored.extend(live);
        if stored.is_empty() {
            return None;
        }
        Some(BatchView {
            key,
            beacons: stored
                .iter()
                .map(|(_, slot)| Arc::clone(&slot.beacon))
                .collect(),
            ids: stored.iter().map(|&(short, slot)| slot.id(short)).collect(),
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
    /// batch. Beside the view: where each winner landed in it.
    pub(crate) fn of_winners_and_arrivals(
        winners: &[crate::engine::SelectedBeacon],
        arrivals: &BatchView,
    ) -> (BatchView, Vec<u32>) {
        let total = winners.len() + arrivals.len();
        let mut beacons = Vec::with_capacity(total);
        let mut ids = Vec::with_capacity(total);
        let mut winner_at = Vec::with_capacity(winners.len());
        let mut push_winner = |winner: &crate::engine::SelectedBeacon,
                               beacons: &mut Vec<Arc<StoredBeacon>>,
                               ids: &mut Vec<PcbId>| {
            winner_at.push(beacons.len() as u32);
            beacons.push(Arc::clone(&winner.beacon));
            ids.push(winner.pcb_id);
        };
        let mut winners = winners.iter().peekable();
        for (arrival, id) in arrivals.beacons.iter().zip(arrivals.ids()) {
            let group = stored_group(&arrival.pcb);
            while let Some(winner) = winners.next_if(|w| stored_group(&w.beacon.pcb) <= group) {
                push_winner(winner, &mut beacons, &mut ids);
            }
            beacons.push(Arc::clone(arrival));
            ids.push(*id);
        }
        for winner in winners {
            push_winner(winner, &mut beacons, &mut ids);
        }
        let view = BatchView {
            key: arrivals.key,
            beacons: beacons.into(),
            ids: ids.into(),
        };
        (view, winner_at)
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
        .interface_group()
        .unwrap_or(InterfaceGroupId::DEFAULT)
}

/// How many bytes of an id a batch keeps in its dedup index: the short-id word.
const SHORT_ID: usize = size_of::<u64>();

/// A stored beacon as a batch hands it out: the short-id word of its id, and its slot.
type Stored<'a> = (u64, &'a Slot);

/// One stored beacon and its id past the short-id word its batch keeps in `shorts`.
#[derive(Debug, Clone)]
struct Slot {
    id_rest: [u8; irec_crypto::DIGEST_LEN - SHORT_ID],
    beacon: Arc<StoredBeacon>,
}

impl Slot {
    /// The id this AS computed for the beacon on the way in, whose short-id word is `short`.
    fn id(&self, short: u64) -> PcbId {
        let mut id = [0; irec_crypto::DIGEST_LEN];
        id[..SHORT_ID].copy_from_slice(&short.to_ne_bytes());
        id[SHORT_ID..].copy_from_slice(&self.id_rest);
        PcbId(Digest(id))
    }
}

/// An id as a batch keeps it: its first eight bytes as one word, and the rest.
fn split_id(id: &PcbId) -> (u64, [u8; irec_crypto::DIGEST_LEN - SHORT_ID]) {
    let (short, rest) =
        id.0 .0
            .split_first_chunk::<SHORT_ID>()
            .expect("ids are 32 bytes");
    (
        u64::from_ne_bytes(*short),
        rest.try_into().expect("ids are 32 bytes"),
    )
}

/// The beacons stored under one [`BatchKey`], in insertion order.
///
/// Every id is held once, in two parts at the same index: `shorts[i]` is the first eight
/// bytes of the id of `slots[i]`, the slot holds the rest. `shorts` is the batch's dedup
/// index — a duplicate has the same bytes as what it duplicates, so the same key, so it can
/// only be in this batch — and a dedup check reads one contiguous word per stored beacon,
/// and the rest of an id only where the word matches.
#[derive(Debug, Clone)]
struct Batch {
    shorts: Vec<u64>,
    slots: Vec<Slot>,
    /// The change-clock reading of this batch's creation or of the latest sweep that
    /// removed a beacon from it, whichever came last: until the clock passes a reader's
    /// reading, `slots` has only grown at its end. A batch that empties is dropped with
    /// its stamp; if it comes back, its creation stamps it afresh.
    disturbed_at: u64,
    /// How many stored beacons name an on-demand algorithm: the only ones an on-demand
    /// RAC is handed, so a batch without one is never snapshotted for it.
    carriers: usize,
}

/// Whether `beacon` names an on-demand algorithm.
fn carries(beacon: &StoredBeacon) -> bool {
    beacon.pcb.extensions.algorithm().is_some()
}

impl Batch {
    fn new(disturbed_at: u64) -> Batch {
        Batch {
            shorts: Vec::new(),
            slots: Vec::new(),
            disturbed_at,
            carriers: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the beacon with id `id` is stored here.
    fn holds(&self, id: &PcbId) -> bool {
        let (short, rest) = split_id(id);
        self.shorts
            .iter()
            .zip(&self.slots)
            .any(|(&stored, slot)| stored == short && rest_matches(slot, &rest))
    }

    /// Appends a beacon. A full batch grows by an eighth, not by doubling: a stored
    /// beacon stays for its validity, so spare room is carried as long as the batch is.
    fn push(&mut self, id: &PcbId, beacon: Arc<StoredBeacon>) {
        let (short, id_rest) = split_id(id);
        reserve_an_eighth(&mut self.shorts);
        reserve_an_eighth(&mut self.slots);
        self.carriers += usize::from(carries(&beacon));
        self.shorts.push(short);
        self.slots.push(Slot { id_rest, beacon });
    }

    /// The stored beacons from index `from` on, in order.
    fn stored_from(&self, from: usize) -> impl Iterator<Item = Stored<'_>> {
        self.shorts[from..].iter().copied().zip(&self.slots[from..])
    }

    /// Removes every beacon matching `remove`, keeping the others in order; returns how
    /// many went. Lowers `earliest` to the earliest expiry among the beacons kept.
    fn remove_where(
        &mut self,
        remove: impl Fn(&StoredBeacon) -> bool,
        earliest: &mut SimTime,
    ) -> usize {
        let (mut at, mut kept) = (0, 0);
        let shorts = &mut self.shorts;
        let carriers = &mut self.carriers;
        self.slots.retain(|slot| {
            let keep = !remove(&slot.beacon);
            if keep {
                shorts[kept] = shorts[at];
                kept += 1;
                *earliest = (*earliest).min(slot.beacon.pcb.expires_at);
            } else {
                *carriers -= usize::from(carries(&slot.beacon));
            }
            at += 1;
            keep
        });
        shorts.truncate(kept);
        at - kept
    }
}

/// Whether `slot` holds an id ending in `rest` — the second half of a dedup check, asked
/// only where the short-id word matched.
fn rest_matches(slot: &Slot, rest: &[u8; irec_crypto::DIGEST_LEN - SHORT_ID]) -> bool {
    #[cfg(test)]
    tests::REST_COMPARES.with(|count| count.set(count.get() + 1));
    slot.id_rest == *rest
}

/// Makes room for one more element, by an eighth of the length (at least four).
fn reserve_an_eighth<T>(vec: &mut Vec<T>) {
    if vec.len() == vec.capacity() {
        vec.reserve_exact((vec.len() / 8).max(4));
    }
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
/// Beside the stamps the database keeps the earliest expiry of any stored beacon, exact at
/// all times: an insert lowers it, and every sweep — which visits every stored beacon
/// anyway — puts it on the earliest expiry left. Whether anything is expired at an
/// instant is then one comparison ([`IngressDb::has_expired_beacons`]), so a round's
/// housekeeping reads no stored beacon when nothing expires.
///
/// The stamps are part of the database, so clones and copy-on-write snapshots carry them:
/// a cursor stays meaningful against the database it was read from and against copies
/// taken after it was read. Against any other database — say the fresh one of a node that
/// left and re-joined — clock readings mean nothing, so every database created empty gets
/// a `lineage` of its own and a cursor from another lineage reads as a disturbance.
#[derive(Debug, Clone)]
pub struct IngressDb {
    by_key: BTreeMap<BatchKey, Batch>,
    clock: u64,
    lineage: u64,
    /// The earliest `expires_at` of any stored beacon (`SimTime::MAX` for none).
    earliest: SimTime,
}

impl Default for IngressDb {
    fn default() -> Self {
        /// Never part of any output: lineages are only compared for equality.
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);
        IngressDb {
            by_key: BTreeMap::new(),
            clock: 0,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            earliest: SimTime::MAX,
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
    ///
    /// Dedup is a question for one batch: the id is a digest over every byte of the beacon,
    /// the batch key is read from some of those bytes, so a beacon with this id can only be
    /// stored under this beacon's key. The batch answers it from its short-id words.
    pub fn insert_with_id(
        &mut self,
        id: PcbId,
        pcb: Pcb,
        ingress: IfId,
        received_at: SimTime,
    ) -> bool {
        let key = BatchKey {
            origin: pcb.origin,
            group: stored_group(&pcb),
            target: pcb.extensions.target(),
        };
        let batch = self.by_key.entry(key).or_insert_with(|| {
            self.clock += 1;
            Batch::new(self.clock)
        });
        if batch.holds(&id) {
            return false;
        }
        self.earliest = self.earliest.min(pcb.expires_at);
        batch.push(
            &id,
            Arc::new(StoredBeacon {
                pcb,
                ingress,
                received_at,
            }),
        );
        true
    }

    /// All batch keys currently present.
    pub fn batch_keys(&self) -> Vec<BatchKey> {
        self.by_key.keys().copied().collect()
    }

    /// The stored beacons for one batch key (unexpired at `now`). Returned beacons are
    /// shared, not cloned.
    pub fn beacons_for(&self, key: &BatchKey, now: SimTime) -> Vec<Arc<StoredBeacon>> {
        self.live(*key, false, now)
            .map(|(_, slot)| Arc::clone(&slot.beacon))
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

    /// The stored beacons of the candidate set requested under `key` (see
    /// [`IngressDb::batches_of`]) that are unexpired at `now`, in batch order.
    fn live(
        &self,
        key: BatchKey,
        merge_groups: bool,
        now: SimTime,
    ) -> impl Iterator<Item = Stored<'_>> {
        self.batches_of(key, merge_groups)
            .flat_map(|batch| batch.stored_from(0))
            .filter(move |(_, slot)| !slot.beacon.pcb.is_expired(now))
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
        self.live(Self::merged_key(origin, target), true, now)
            .map(|(_, slot)| Arc::clone(&slot.beacon))
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
            lengths: self.batches_of(key, merge_groups).map(Batch::len).collect(),
        };
        let stored = cursor.lengths.iter().sum();
        let view = BatchView::new(key, stored, self.live(key, merge_groups, now));
        (view, cursor)
    }

    /// Whether a beacon of the candidate set requested under `key` (see
    /// [`IngressDb::snapshot`]) names an on-demand algorithm — expired or not: a set
    /// without one holds nothing an on-demand RAC would be handed.
    pub fn holds_carriers(&self, key: BatchKey, merge_groups: bool) -> bool {
        self.batches_of(key, merge_groups)
            .any(|batch| batch.carriers > 0)
    }

    /// What happened since `cursor` to the candidate set requested under `key` (same
    /// `key` and `merge_groups` as the [`IngressDb::snapshot`] or `changes_since` call the
    /// cursor came from): costs one stamp comparison per stored batch of the set plus the
    /// arrivals themselves, never a walk over what was already there. While a batch's
    /// stamp has not passed the cursor's clock reading it has only been appended to, so
    /// its arrivals are the beacons beyond the length the cursor recorded.
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
        // Left unallocated until a batch turns out to have grown: then the lengths of the
        // batches before it are the cursor's, and every batch from it on is recorded.
        let mut lengths = Vec::new();
        let mut arrivals = Vec::new();
        for (index, batch) in self.batches_of(key, merge_groups).enumerate() {
            // A batch of the set that went away shifts the ones behind it onto its
            // recorded length — possibly a longer one; the count check below settles it.
            let Some(&known) = known
                .next()
                .filter(|&&known| batch.disturbed_at <= cursor.clock && known <= batch.len())
            else {
                return BatchChange::Disturbed;
            };
            if lengths.is_empty() {
                if known == batch.len() {
                    continue;
                }
                lengths.reserve_exact(cursor.lengths.len());
                lengths.extend_from_slice(&cursor.lengths[..index]);
            }
            lengths.push(batch.len());
            arrivals.extend(
                batch
                    .stored_from(known)
                    .filter(|(_, slot)| !slot.beacon.pcb.is_expired(now)),
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
        self.by_key.values().map(Batch::len).sum()
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

    /// Whether a stored beacon is expired at `now` — `len() != live_len(now)` — answered
    /// from the earliest-expiry watermark, reading no stored beacon.
    pub fn has_expired_beacons(&self, now: SimTime) -> bool {
        !self.by_key.is_empty() && now.is_at_or_after(self.earliest)
    }

    /// Removes beacons that are expired at `now` (or expire within `grace`), mirroring the
    /// paper's "periodically removes (soon-to-be) expired PCBs". Returns how many were
    /// evicted.
    pub fn evict_expired(&mut self, now: SimTime, grace: irec_types::SimDuration) -> usize {
        let horizon = now + grace;
        self.remove_where(|beacon| beacon.pcb.is_expired(horizon))
    }

    /// Removes every stored beacon matching `remove`, keeping the others in order; a
    /// removed beacon's id goes with it, so such a beacon can be stored again. Every batch
    /// that loses a beacon is stamped as disturbed; one that empties is dropped. The walk
    /// visits every stored beacon, so it also puts the expiry watermark on the earliest
    /// expiry left.
    fn remove_where(&mut self, remove: impl Fn(&StoredBeacon) -> bool) -> usize {
        let mut removed = 0;
        let mut earliest = SimTime::MAX;
        self.by_key.retain(|_, batch| {
            let gone = batch.remove_where(&remove, &mut earliest);
            if gone > 0 {
                removed += gone;
                self.clock += 1;
                batch.disturbed_at = self.clock;
            }
            !batch.slots.is_empty()
        });
        self.earliest = earliest;
        removed
    }

    /// True when any stored beacon matches `predicate` — the read-only probe
    /// [`ShardedIngressDb::purge_where`] uses to keep a withdrawal sweep that matches
    /// nothing from materializing a map a copy-on-write snapshot shares.
    pub fn any_where(&self, predicate: impl Fn(&StoredBeacon) -> bool) -> bool {
        self.by_key
            .values()
            .flat_map(|batch| &batch.slots)
            .any(|slot| predicate(&slot.beacon))
    }

    /// Removes every stored beacon matching `predicate` (a withdrawal sweep), returning
    /// the count. Matched beacons take their ids with them — mirroring
    /// [`IngressDb::evict_expired`] — so a withdrawn beacon could be re-learned if it were
    /// ever re-sent.
    pub fn purge_where(&mut self, predicate: impl Fn(&StoredBeacon) -> bool) -> usize {
        self.remove_where(predicate)
    }
}

/// The ingress database of one AS: one [`IngressDb`], `Arc`-wrapped behind a
/// `parking_lot::RwLock`.
///
/// Inserts, evictions and purges take `&self`, so the RAC engine's workers read batches
/// while nothing else writes, and writers that share the database (a benchmark, a stress
/// test) need no outer lock. Every method delegates to the one map.
///
/// # Copy-on-write snapshots
///
/// [`ShardedIngressDb::cow_clone`] produces a structurally shared snapshot in one
/// reference-count bump, and every write path goes through [`Arc::make_mut`] — the map is
/// deep-copied only the first time a database that still shares it mutates it (in either
/// direction: a write to the *base* after a snapshot was taken copies too, leaving the
/// snapshot untouched). This is what makes per-pair simulation snapshots in the PD
/// campaign nearly free to set up.
///
/// The name is kept because the standalone benchmark in `benchmark/` names the type.
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
/// let base = ShardedIngressDb::default();
/// assert!(base.insert(pcb.clone(), IfId(2), SimTime::ZERO));
///
/// // A COW snapshot shares the store with the base: one pointer copy.
/// let snapshot = base.cow_clone();
/// assert_eq!(snapshot.len(), 1);
/// assert!(snapshot.shares_store_with(&base));
///
/// // The first write materializes a private copy; the base is untouched.
/// let mut other = pcb;
/// other.sequence = 1;
/// snapshot.insert(other, IfId(2), SimTime::ZERO);
/// assert_eq!((snapshot.len(), base.len()), (2, 1));
/// assert!(!snapshot.shares_store_with(&base));
/// ```
#[derive(Debug, Default)]
pub struct ShardedIngressDb {
    store: RwLock<Arc<IngressDb>>,
}

impl Clone for ShardedIngressDb {
    /// Deep-clones the map (the pre-snapshot behaviour, kept as the reference the COW path
    /// is benchmarked and tested against). Stored beacons stay `Arc`-shared with the
    /// original — they are immutable — but the batches, their dedup indexes and the lock
    /// are fresh. Prefer [`ShardedIngressDb::cow_clone`] for snapshotting.
    fn clone(&self) -> Self {
        ShardedIngressDb {
            store: RwLock::new(Arc::new(self.store.read().as_ref().clone())),
        }
    }
}

impl ShardedIngressDb {
    /// Creates an empty database. The argument is ignored: the standalone benchmark in
    /// `benchmark/` calls the constructor with it.
    pub fn new(_: usize) -> Self {
        ShardedIngressDb::default()
    }

    /// A structurally shared copy-on-write snapshot: one reference-count bump, no map copy.
    /// Whichever side writes first materializes its own copy ([`Arc::make_mut`]
    /// semantics), so neither can observe the other's subsequent writes.
    pub fn cow_clone(&self) -> Self {
        ShardedIngressDb {
            store: RwLock::new(Arc::clone(&self.store.read())),
        }
    }

    /// Whether `self` and `other` still hold the same allocation — i.e. neither side has
    /// written since a [`ShardedIngressDb::cow_clone`] tied them together. Introspection
    /// for the COW isolation tests and the snapshot-cost benchmark.
    pub fn shares_store_with(&self, other: &ShardedIngressDb) -> bool {
        Arc::ptr_eq(&self.store.read(), &other.store.read())
    }

    /// Runs `write` on the (copy-on-write materialized) map.
    fn write<R>(&self, write: impl FnOnce(&mut IngressDb) -> R) -> R {
        write(Arc::make_mut(&mut *self.store.write()))
    }

    /// Inserts a received beacon. Returns `false` when an identical beacon (same digest)
    /// is already stored (duplicate suppression).
    pub fn insert(&self, pcb: Pcb, ingress: IfId, received_at: SimTime) -> bool {
        self.write(|db| db.insert(pcb, ingress, received_at))
    }

    /// [`ShardedIngressDb::insert`] for a beacon whose id the caller already computed (see
    /// [`IngressDb::insert_with_id`]) — the ingress gateway's commit path, which hands over
    /// the id its verification produced.
    pub fn insert_with_id(&self, id: PcbId, pcb: Pcb, ingress: IfId, received_at: SimTime) -> bool {
        self.write(|db| db.insert_with_id(id, pcb, ingress, received_at))
    }

    /// All batch keys currently present, in ascending order.
    pub fn batch_keys(&self) -> Vec<BatchKey> {
        self.store.read().batch_keys()
    }

    /// The stored beacons for one batch key (unexpired at `now`). Returned beacons are
    /// shared, not cloned.
    pub fn beacons_for(&self, key: &BatchKey, now: SimTime) -> Vec<Arc<StoredBeacon>> {
        self.store.read().beacons_for(key, now)
    }

    /// The stored beacons for one origin across all its interface groups, merged into one
    /// list.
    pub fn beacons_for_origin(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Vec<Arc<StoredBeacon>> {
        self.store.read().beacons_for_origin(origin, target, now)
    }

    /// Snapshots the batch for `key` into an immutable view, or `None` when no unexpired
    /// beacon is stored under it. The read lock is held only for the duration of the
    /// snapshot; the returned view shares the stored beacons.
    pub fn batch_view(&self, key: &BatchKey, now: SimTime) -> Option<BatchView> {
        self.store.read().batch_view(key, now)
    }

    /// Snapshots the group-merged batch of one origin (under the default group id), or
    /// `None` when no unexpired beacon matches.
    pub fn origin_view(
        &self,
        origin: AsId,
        target: Option<AsId>,
        now: SimTime,
    ) -> Option<BatchView> {
        self.store.read().origin_view(origin, target, now)
    }

    /// [`IngressDb::snapshot`]: the candidate set requested under `key`, and the cursor to
    /// ask about it later.
    pub fn snapshot(
        &self,
        key: BatchKey,
        merge_groups: bool,
        now: SimTime,
    ) -> (Option<BatchView>, BatchCursor) {
        self.store.read().snapshot(key, merge_groups, now)
    }

    /// [`IngressDb::holds_carriers`].
    pub fn holds_carriers(&self, key: BatchKey, merge_groups: bool) -> bool {
        self.store.read().holds_carriers(key, merge_groups)
    }

    /// [`IngressDb::changes_since`]. Copy-on-write snapshots carry the stamps with the
    /// map, so a cursor read from a database stays valid against that database across
    /// [`ShardedIngressDb::cow_clone`]s on either side.
    pub fn changes_since(
        &self,
        key: BatchKey,
        merge_groups: bool,
        cursor: &BatchCursor,
        now: SimTime,
    ) -> BatchChange {
        self.store
            .read()
            .changes_since(key, merge_groups, cursor, now)
    }

    /// Total number of stored beacons **including expired ones not yet evicted**.
    pub fn len(&self) -> usize {
        self.store.read().len()
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
        self.store.read().live_len(now)
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`IngressDb::has_expired_beacons`].
    pub fn has_expired_beacons(&self, now: SimTime) -> bool {
        self.store.read().has_expired_beacons(now)
    }

    /// Removes beacons that are expired at `now` (or expire within `grace`) and returns
    /// how many. The expiry watermark is asked first, so a sweep with nothing to evict
    /// reads no stored beacon and leaves a map shared with a copy-on-write snapshot shared
    /// — routine housekeeping must not un-share an otherwise read-only snapshot.
    pub fn evict_expired(&self, now: SimTime, grace: irec_types::SimDuration) -> usize {
        if !self.has_expired_beacons(now + grace) {
            return 0;
        }
        self.write(|db| db.evict_expired(now, grace))
    }

    /// [`IngressDb::purge_where`] (a withdrawal sweep). A map no snapshot shares is swept
    /// in one walk — a sweep that matches nothing leaves the change clock, the stamps and
    /// the expiry watermark as they were. A shared one is probed read-only first, so a
    /// sweep that matches nothing leaves it shared.
    pub fn purge_where(&self, predicate: impl Fn(&StoredBeacon) -> bool) -> usize {
        let mut store = self.store.write();
        if let Some(db) = Arc::get_mut(&mut store) {
            return db.purge_where(&predicate);
        }
        if !store.any_where(&predicate) {
            return 0;
        }
        Arc::make_mut(&mut store).purge_where(&predicate)
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
/// expiry time it was recorded under.
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
#[derive(Debug, Clone)]
pub struct EgressDb {
    propagated: HashMap<PcbId, EgressEntry>,
    /// At or below the earliest `expires_at` of any entry (`SimTime::MAX` for none): exact
    /// after every sweep, lowered by every new entry, left alone when an entry's expiry is
    /// raised. Nothing has expired while `now` is below it.
    earliest: SimTime,
}

impl Default for EgressDb {
    fn default() -> Self {
        EgressDb {
            propagated: HashMap::new(),
            earliest: SimTime::MAX,
        }
    }
}

impl EgressDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// What the database holds, in bytes: the map at its capacity and the marks spilled
    /// beside it (see [`StoreBytes::egress_bytes`]).
    pub fn bytes(&self) -> usize {
        let spilled: usize = self
            .propagated
            .values()
            .map(|entry| match &entry.egresses {
                EgressMarks::Inline { .. } => 0,
                EgressMarks::Spilled(ids) => ids.capacity() * size_of::<IfId>(),
            })
            .sum();
        self.propagated.capacity() * size_of::<(PcbId, EgressEntry)>() + spilled
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
            self.earliest = self.earliest.min(expires_at);
            EgressEntry {
                egresses: EgressMarks::new(),
                expires_at,
            }
        });
        if expires_at > entry.expires_at {
            // Defensive: a digest re-recorded under a different expiry (cannot happen while
            // the digest covers the expiry field, but the bookkeeping must not silently
            // drift if that ever changes). Track the later expiry; the watermark stays
            // below it, and the next sweep that reaches it finds nothing to remove.
            entry.expires_at = expires_at;
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
    /// next selection is re-sent on that interface. Entries stay in place — only the
    /// per-interface marks are dropped. Returns how many marks
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

    /// Whether a sweep at `now` may remove anything: true when the watermark is at or
    /// before `now`. A constant-time read-only probe — the egress gateway checks it before
    /// [`EgressDb::evict_expired`] so routine per-round sweeps don't materialize a
    /// copy-on-write-shared database that has nothing to evict. May report true when an
    /// entry's expiry was raised after it was recorded; the subsequent sweep then removes
    /// zero entries, which is correct, just not free.
    pub fn has_expired_entries(&self, now: SimTime) -> bool {
        !self.propagated.is_empty() && self.earliest <= now
    }

    /// Evicts entries whose beacons expired at or before `now`, in one pass over the map
    /// that also puts the watermark on the earliest expiry left. Returns how many hashes
    /// were removed.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        let before = self.propagated.len();
        let mut earliest = SimTime::MAX;
        self.propagated.retain(|_, entry| {
            let keep = entry.expires_at > now;
            if keep {
                earliest = earliest.min(entry.expires_at);
            }
            keep
        });
        self.earliest = earliest;
        before - self.propagated.len()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{PcbExtensions, StaticInfo};
    use irec_types::{Bandwidth, Latency, SimDuration};
    use std::cell::Cell;

    thread_local! {
        /// How many times this thread's dedup checks read past a short-id word.
        pub(super) static REST_COMPARES: Cell<usize> = const { Cell::new(0) };
    }

    /// The dedup checks `insert` runs, in rest-of-id comparisons.
    fn rest_compares(insert: impl FnOnce() -> bool) -> (bool, usize) {
        REST_COMPARES.with(|count| count.set(0));
        let inserted = insert();
        (inserted, REST_COMPARES.with(Cell::get))
    }

    #[test]
    fn dedup_in_a_4096_slot_batch_reads_short_ids_only_until_one_matches() {
        let beacon = |seq| {
            Pcb::originate(
                AsId(1),
                seq,
                SimTime::ZERO,
                SimTime::MAX,
                PcbExtensions::none(),
            )
        };
        let mut db = IngressDb::new();
        let ids: Vec<PcbId> = (0..4096).map(|seq| beacon(seq).digest()).collect();
        for (seq, id) in ids.iter().enumerate() {
            assert!(db.insert_with_id(*id, beacon(seq as u64), IfId(1), SimTime::ZERO));
        }
        let batch = db.by_key.values().next().expect("one batch");
        assert_eq!(db.by_key.len(), 1);
        assert_eq!((batch.shorts.len(), batch.slots.len()), (4096, 4096));
        // Grown by an eighth at a time: at most an eighth (or four) of room to spare.
        assert!(
            batch.slots.capacity() <= 4096 + 4096 / 8 && batch.shorts.capacity() <= 4096 + 4096 / 8
        );
        let sharing_a_short = |id: &PcbId| {
            ids.iter()
                .filter(|stored| stored.short() == id.short())
                .count()
        };
        assert!(
            ids.iter().all(|id| sharing_a_short(id) == 1),
            "4 096 digests, no short collision"
        );

        // A new id reads 4 096 words and nothing else; a duplicate one word's worth of rest.
        let fresh = beacon(5000);
        let inserted = rest_compares(|| db.insert(fresh.clone(), IfId(1), SimTime::ZERO));
        assert_eq!(inserted, (true, sharing_a_short(&fresh.digest())));
        assert_eq!(
            rest_compares(|| db.insert(beacon(2000), IfId(2), SimTime::ZERO)),
            (false, 1)
        );
        assert_eq!(
            rest_compares(|| db.insert(fresh, IfId(2), SimTime::ZERO)),
            (false, 1)
        );

        // An id that agrees with a stored one in its short word only is a new id; one that
        // agrees with it everywhere but the short word is too, found without reading a rest.
        let mut same_short = ids[3000];
        same_short.0 .0[31] ^= 1;
        let mut same_rest = ids[3000];
        same_rest.0 .0[0] ^= 1;
        for (id, compares) in [(same_short, 1), (same_rest, 0)] {
            let inserted =
                rest_compares(|| db.insert_with_id(id, beacon(6000), IfId(1), SimTime::ZERO));
            assert_eq!(inserted, (true, compares), "{id:?}");
        }
        assert!(!db.insert_with_id(same_short, beacon(6000), IfId(1), SimTime::ZERO));
        let key = db.batch_keys()[0];
        let view = db.batch_view(&key, SimTime::ZERO).expect("view");
        assert_eq!(view.len(), 4096 + 3);
        assert_eq!(&view.ids()[..4096], &ids[..]);
        assert_eq!(&view.ids()[4097..], &[same_short, same_rest]);
    }

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
        let db = ShardedIngressDb::default();
        for p in [&short, &long] {
            assert!(db.insert_with_id(p.digest(), p.clone(), IfId(1), SimTime::ZERO));
            // Both paths dedup against the carried id.
            assert!(!db.insert_with_id(p.digest(), p.clone(), IfId(1), SimTime::ZERO));
            assert!(!db.insert(p.clone(), IfId(1), SimTime::ZERO));
        }
        assert_eq!(db.evict_expired(later, SimDuration::ZERO), 1);
        assert!(db.insert(short.clone(), IfId(1), SimTime::ZERO));
        assert_eq!(db.purge_where(|b| b.pcb.origin == AsId(2)), 1);
        assert!(db.insert_with_id(long.digest(), long.clone(), IfId(1), SimTime::ZERO));
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

        // Same boundary through the shared database, and via a grace window that lands
        // the horizon exactly on the expiry instant.
        let shared = ShardedIngressDb::default();
        shared.insert(pcb(1, 0, PcbExtensions::none(), 2), IfId(1), SimTime::ZERO);
        let at = SimTime::ZERO + SimDuration::from_hours(1);
        assert_eq!(shared.evict_expired(at, SimDuration::ZERO), 0);
        assert_eq!(
            shared.evict_expired(at, SimDuration::from_hours(1)),
            1,
            "grace horizon exactly at expiry must evict"
        );
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

        let shared = ShardedIngressDb::default();
        for origin in 1..=5u64 {
            shared.insert(
                pcb(origin, 0, PcbExtensions::none(), 9),
                IfId(1),
                SimTime::ZERO,
            );
        }
        assert_eq!(shared.evict_expired(SimTime::MAX, SimDuration(u64::MAX)), 5);
        assert!(shared.is_empty());
    }

    #[test]
    fn cow_clone_shares_the_store_until_first_write_in_either_direction() {
        let base = ShardedIngressDb::default();
        for origin in 1..=10u64 {
            base.insert(
                pcb(origin, 0, PcbExtensions::none(), 6),
                IfId(1),
                SimTime::ZERO,
            );
        }
        let snap = base.cow_clone();
        assert!(snap.shares_store_with(&base));
        assert_eq!(snap.len(), base.len());

        // Snapshot write: the snapshot copies; base contents hold.
        let before = base.len();
        snap.insert(pcb(1, 9, PcbExtensions::none(), 6), IfId(2), SimTime::ZERO);
        assert!(!snap.shares_store_with(&base));
        assert_eq!(base.len(), before);
        assert_eq!(snap.len(), before + 1);

        // Base write after a snapshot: copies on the base side, snapshot unaffected.
        let snap = base.cow_clone();
        base.insert(pcb(2, 9, PcbExtensions::none(), 6), IfId(2), SimTime::ZERO);
        assert!(!snap.shares_store_with(&base));
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
    fn cow_clone_eviction_probe_keeps_an_untouched_store_shared() {
        let base = ShardedIngressDb::default();
        for origin in 1..=8u64 {
            base.insert(
                pcb(origin, 0, PcbExtensions::none(), 6),
                IfId(1),
                SimTime::ZERO,
            );
        }
        let snap = base.cow_clone();
        // Nothing expires this early: the sweep must not materialize a copy.
        assert_eq!(snap.evict_expired(SimTime::ZERO, SimDuration::ZERO), 0);
        assert_eq!(snap.purge_where(|_| false), 0);
        assert!(snap.shares_store_with(&base));
        // Once beacons actually expire, the sweep works and matches the deep-clone count.
        let deep = base.clone();
        assert!(!deep.shares_store_with(&base));
        let later = SimTime::ZERO + SimDuration::from_hours(7);
        assert_eq!(
            snap.evict_expired(later, SimDuration::ZERO),
            deep.evict_expired(later, SimDuration::ZERO)
        );
        assert_eq!(snap.len(), deep.len());
    }

    #[test]
    fn a_unique_store_is_swept_without_the_probe_and_ends_where_a_shared_one_does() {
        // Two equal stores: one no snapshot shares, swept in one walk; one a snapshot
        // shares, probed first. Sequence `s` beacons expire after `1 + s` hours.
        let fill = |db: &ShardedIngressDb| {
            for origin in 1..=4u64 {
                for seq in 0..3 {
                    db.insert(
                        pcb(origin, seq, PcbExtensions::none(), 1 + seq),
                        IfId(1),
                        SimTime::ZERO,
                    );
                }
            }
        };
        let state = |db: &ShardedIngressDb| {
            let db = db.store.read();
            let batches: Vec<_> = (db.by_key.iter())
                .map(|(key, batch)| (*key, batch.shorts.clone(), batch.disturbed_at))
                .collect();
            (db.clock, db.earliest, batches)
        };
        let unique = ShardedIngressDb::default();
        fill(&unique);
        let shared = ShardedIngressDb::default();
        fill(&shared);
        let snapshot = shared.cow_clone();
        let one_hour = SimTime::ZERO + SimDuration::from_hours(1);
        let sweeps: [&dyn Fn(&StoredBeacon) -> bool; 4] = [
            &|_| false,
            &|b| b.pcb.origin == AsId(9),
            &|b| b.pcb.sequence == 0,
            &|b| b.pcb.origin == AsId(2),
        ];
        for (at, sweep) in sweeps.into_iter().enumerate() {
            let before = state(&unique);
            let removed = unique.purge_where(sweep);
            assert_eq!(removed, shared.purge_where(sweep), "sweep {at}");
            assert_eq!(state(&unique), state(&shared), "sweep {at}");
            if removed == 0 {
                // Clock, stamps and watermark as they were; a shared store stays shared.
                assert_eq!(state(&unique), before, "sweep {at}");
                assert!(snapshot.shares_store_with(&shared), "sweep {at}");
            }
        }
        assert!(!snapshot.shares_store_with(&shared));
        assert_eq!((unique.len(), snapshot.len()), (6, 12));
        // The earliest beacons went with the sequence-0 sweep, and the watermark with them.
        assert!(!unique.has_expired_beacons(one_hour));
        assert!(snapshot.has_expired_beacons(one_hour));
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
