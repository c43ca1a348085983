//! The oracles of the two dedup indexes: the ingress database as it was when it kept every
//! stored id a second time in a `HashSet<PcbId>` beside its batches, and the egress
//! database as it was when it kept every tracked id a second time in an expiry index
//! (`BTreeMap<SimTime, Vec<PcbId>>`) beside its map. Both are written against the public
//! types only and share nothing with the databases under test but `Pcb::is_expired`.
//!
//! The properties drive a database and its model through the same random operations and
//! compare every return value and, after every operation, `len`, `live_len`, the expiry
//! probe, the batch keys and what each batch hands out, or `len`, the marks and
//! `has_expired_entries`. The
//! operations cover what the indexes could get wrong: exact duplicates of stored beacons,
//! duplicates after an eviction and re-inserts after a purge, in batches with neighbours
//! (other groups and targets of one origin); sweeps with and without grace that land on
//! expiry instants exactly, and the end-of-time sweep; withdrawal purges; copy-on-write
//! clones written to on both sides; egress records, probes, `forget_egress`, and an id
//! re-recorded under a later expiry.

use super::*;
use irec_types::SimDuration;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The ingress database with its dedup set: batches of `(id, beacon)` and every stored id
/// once more in `seen`.
#[derive(Clone, Default)]
struct SeenSetIngressDb {
    by_key: BTreeMap<BatchKey, Vec<(PcbId, Arc<StoredBeacon>)>>,
    seen: HashSet<PcbId>,
}

impl SeenSetIngressDb {
    fn insert_with_id(&mut self, id: PcbId, pcb: Pcb, ingress: IfId, received_at: SimTime) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        let key = BatchKey {
            origin: pcb.origin,
            group: pcb
                .extensions
                .interface_group()
                .unwrap_or(InterfaceGroupId::DEFAULT),
            target: pcb.extensions.target(),
        };
        let beacon = StoredBeacon {
            pcb,
            ingress,
            received_at,
        };
        self.by_key
            .entry(key)
            .or_default()
            .push((id, Arc::new(beacon)));
        true
    }

    fn len(&self) -> usize {
        self.by_key.values().map(Vec::len).sum()
    }

    fn live_len(&self, now: SimTime) -> usize {
        self.by_key
            .values()
            .flatten()
            .filter(|(_, beacon)| !beacon.pcb.is_expired(now))
            .count()
    }

    fn remove_where(&mut self, remove: impl Fn(&StoredBeacon) -> bool) -> usize {
        let mut removed = 0;
        self.by_key.retain(|_, batch| {
            batch.retain(|(id, beacon)| {
                let keep = !remove(beacon);
                if !keep {
                    removed += 1;
                    self.seen.remove(id);
                }
                keep
            });
            !batch.is_empty()
        });
        removed
    }

    /// The ids of the beacons of `key` unexpired at `now`, in batch order.
    fn live_ids(&self, key: &BatchKey, now: SimTime) -> Vec<PcbId> {
        self.by_key.get(key).map_or_else(Vec::new, |batch| {
            batch
                .iter()
                .filter(|(_, beacon)| !beacon.pcb.is_expired(now))
                .map(|(id, _)| *id)
                .collect()
        })
    }
}

/// The egress database with its expiry index: every tracked id once more in the bucket of
/// the expiry it was recorded under, and again under a later one it is re-recorded under —
/// the earlier row then stale until a sweep drains it.
#[derive(Clone, Default)]
struct ExpiryIndexedEgressDb {
    propagated: HashMap<PcbId, (BTreeSet<IfId>, SimTime)>,
    expiry: BTreeMap<SimTime, Vec<PcbId>>,
}

impl ExpiryIndexedEgressDb {
    fn unmarked_egresses(
        &self,
        id: &PcbId,
        expires_at: SimTime,
        egress_ifs: &[IfId],
        exportable: impl Fn(IfId) -> bool,
    ) -> (Vec<IfId>, bool) {
        let entry = self.propagated.get(id);
        let mut new = Vec::new();
        for &egress in egress_ifs {
            let marked = entry.is_some_and(|(marks, _)| marks.contains(&egress));
            if !marked && !new.contains(&egress) && exportable(egress) {
                new.push(egress);
            }
        }
        let write = !new.is_empty() || entry.is_none_or(|(_, at)| expires_at > *at);
        (new, write)
    }

    fn record(&mut self, id: PcbId, expires_at: SimTime, new: &[IfId]) {
        let entry = self.propagated.entry(id).or_insert_with(|| {
            self.expiry.entry(expires_at).or_default().push(id);
            (BTreeSet::new(), expires_at)
        });
        if expires_at > entry.1 {
            entry.1 = expires_at;
            self.expiry.entry(expires_at).or_default().push(id);
        }
        entry.0.extend(new);
    }

    fn has_expired_entries(&self, now: SimTime) -> bool {
        self.expiry.keys().next().is_some_and(|&t| t <= now)
    }

    fn evict_expired(&mut self, now: SimTime) -> usize {
        let drained = if now == SimTime::MAX {
            std::mem::take(&mut self.expiry)
        } else {
            let still_valid = self
                .expiry
                .split_off(&SimTime::from_micros(now.as_micros() + 1));
            std::mem::replace(&mut self.expiry, still_valid)
        };
        let mut removed = 0;
        for id in drained.into_values().flatten() {
            let expired = self.propagated.get(&id).is_some_and(|(_, at)| *at <= now);
            if expired && self.propagated.remove(&id).is_some() {
                removed += 1;
            }
        }
        removed
    }

    fn forget_egress(&mut self, egress: IfId) -> usize {
        let mut removed = 0;
        for (marks, _) in self.propagated.values_mut() {
            if marks.remove(&egress) {
                removed += 1;
            }
        }
        removed
    }

    /// Whether a sweep at `now` would remove an entry.
    fn would_evict(&self, now: SimTime) -> bool {
        self.propagated.values().any(|(_, at)| *at <= now)
    }

    /// Whether the index holds a row no entry is tracked under any more.
    fn has_stale_rows(&self) -> bool {
        self.expiry.iter().any(|(at, ids)| {
            ids.iter().any(|id| {
                self.propagated
                    .get(id)
                    .is_none_or(|(_, tracked)| tracked != at)
            })
        })
    }
}

/// A beacon of a pool in which one origin has several batches side by side — three origins,
/// three interface groups (the default one among them), with and without a pull target —
/// each index with a fixed expiry of 1–5 hours.
fn pooled(index: u64) -> Pcb {
    let group = index / 3 % 3;
    let mut extensions = PcbExtensions::none();
    if group > 0 {
        extensions = extensions.with_interface_group(InterfaceGroupId(group as u32));
    }
    if index / 9 % 2 == 1 {
        extensions = extensions.with_target(AsId(9));
    }
    Pcb::originate(
        AsId(1 + index % 3),
        index / 18,
        SimTime::ZERO,
        hours(1 + index % 5),
        extensions,
    )
}

fn hours(h: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_hours(h)
}

/// The instants a property sweeps and probes at: every whole hour of the pool's expiries,
/// so sweeps land on expiry instants exactly, and the end of time.
fn instant(draw: u64) -> SimTime {
    if draw >= 8 {
        SimTime::MAX
    } else {
        hours(draw)
    }
}

/// One database and its model, both sides of a copy-on-write clone kept.
fn check_ingress(db: &ShardedIngressDb, model: &SeenSetIngressDb) {
    assert_eq!(db.len(), model.len());
    let keys: Vec<BatchKey> = model.by_key.keys().copied().collect();
    assert_eq!(db.batch_keys(), keys);
    for at in 0..=8 {
        let now = instant(at);
        assert_eq!(db.live_len(now), model.live_len(now), "live_len at {now:?}");
        // The expiry watermark is exact: its probe answers what counting would.
        assert_eq!(
            db.has_expired_beacons(now),
            model.len() != model.live_len(now),
            "expiry probe at {now:?}"
        );
        for key in &keys {
            let ids = db
                .batch_view(key, now)
                .map_or_else(Vec::new, |view| view.ids().to_vec());
            assert_eq!(ids, model.live_ids(key, now), "{key:?} at {now:?}");
        }
    }
}

proptest! {
    /// The batch-local dedup against the seen-set database, operation for operation.
    #[test]
    fn batch_local_dedup_matches_the_seen_set_model(
        ops in proptest::collection::vec((0u8..12, 0u64..36, 0u64..10, 0usize..4), 1..80),
    ) {
        let mut sides = vec![(ShardedIngressDb::default(), SeenSetIngressDb::default())];
        for (kind, index, draw, side) in ops {
            let side = side % sides.len();
            let (db, model) = &mut sides[side];
            let pcb = pooled(index);
            let id = pcb.digest();
            let now = instant(draw);
            match kind {
                // Inserts, the pool small enough that most of them are duplicates of
                // something stored, evicted or purged before.
                0..=3 => {
                    let received = hours(draw % 8);
                    let inserted = if kind % 2 == 0 {
                        db.insert(pcb.clone(), IfId(1), received)
                    } else {
                        db.insert_with_id(id, pcb.clone(), IfId(1), received)
                    };
                    prop_assert_eq!(inserted, model.insert_with_id(id, pcb, IfId(1), received));
                }
                4 | 5 => {
                    let grace = SimDuration::from_hours(u64::from(kind - 4) * (draw % 3));
                    let horizon = now + grace;
                    prop_assert_eq!(
                        db.evict_expired(now, grace),
                        model.remove_where(|b| b.pcb.is_expired(horizon))
                    );
                }
                6 => {
                    let removed = model.remove_where(|b| b.pcb.origin == pcb.origin);
                    prop_assert_eq!(db.purge_where(|b| b.pcb.origin == pcb.origin), removed);
                }
                7 => {
                    let parity = draw % 2;
                    let removed = model.remove_where(|b| b.pcb.sequence % 2 == parity);
                    prop_assert_eq!(db.purge_where(|b| b.pcb.sequence % 2 == parity), removed);
                }
                8 => {
                    // A copy-on-write clone; from here on both sides take writes.
                    let clone = (db.cow_clone(), model.clone());
                    sides.push(clone);
                }
                _ => {
                    prop_assert_eq!(
                        db.insert(pcb.clone(), IfId(3), SimTime::ZERO),
                        model.insert_with_id(id, pcb, IfId(3), SimTime::ZERO)
                    );
                }
            }
            for (db, model) in &sides {
                check_ingress(db, model);
            }
        }
    }

    /// The watermark against the expiry index, operation for operation.
    #[test]
    fn watermark_expiry_matches_the_expiry_index_model(
        ops in proptest::collection::vec(
            (0u8..12, 0u64..8, 0u64..10, proptest::collection::vec(1u32..9, 0..5), 0usize..3),
            1..80,
        ),
    ) {
        // Eight ids, each with the expiry its beacon carries; the last one never expires.
        let ids: Vec<(PcbId, SimTime)> = (0..8)
            .map(|index| {
                let pcb = pooled(index);
                let expires_at = if index == 7 { SimTime::MAX } else { pcb.expires_at };
                (pcb.digest(), expires_at)
            })
            .collect();
        let mut sides = vec![(EgressDb::new(), ExpiryIndexedEgressDb::default())];
        for (kind, index, draw, interfaces, side) in ops {
            let side = side % sides.len();
            let (db, model) = &mut sides[side];
            let interfaces: Vec<IfId> = interfaces.into_iter().map(IfId).collect();
            let (id, mut expires_at) = ids[index as usize];
            match kind {
                0..=4 => {
                    // An id re-recorded under a later expiry, now and then.
                    if kind == 4 && expires_at != SimTime::MAX {
                        expires_at += SimDuration::from_hours(draw % 3);
                    }
                    let exportable = |egress: IfId| kind == 0 || egress.value() % 2 == 1;
                    let mut new = vec![IfId(99)];
                    let write = db.unmarked_egresses(&id, expires_at, &interfaces, exportable, &mut new);
                    let expected = model.unmarked_egresses(&id, expires_at, &interfaces, exportable);
                    prop_assert_eq!((new.clone(), write), expected);
                    if write {
                        db.record(id, expires_at, &new);
                        model.record(id, expires_at, &new);
                    }
                }
                5 => {
                    let new = db.filter_new_egresses(id, expires_at, &interfaces);
                    let (expected, write) = model.unmarked_egresses(&id, expires_at, &interfaces, |_| true);
                    prop_assert_eq!(&new, &expected);
                    if write {
                        model.record(id, expires_at, &expected);
                    }
                }
                6 | 7 => {
                    let now = instant(draw);
                    prop_assert_eq!(db.evict_expired(now), model.evict_expired(now), "sweep at {:?}", now);
                }
                8 => {
                    for egress in interfaces {
                        prop_assert_eq!(db.forget_egress(egress), model.forget_egress(egress));
                    }
                }
                9 => {
                    // A copy-on-write clone, as the gateway takes one; both sides diverge.
                    let clone = (db.clone(), model.clone());
                    sides.push(clone);
                }
                _ => {
                    // The gateway's sweep: only what the probe lets through.
                    let now = instant(draw);
                    let removed = if db.has_expired_entries(now) { db.evict_expired(now) } else { 0 };
                    prop_assert_eq!(removed, model.evict_expired(now), "probed sweep at {:?}", now);
                }
            }
            for (db, model) in &sides {
                prop_assert_eq!(db.len(), model.propagated.len());
                for &(id, _) in &ids {
                    for egress in 1..9 {
                        let marked = model.propagated.get(&id).is_some_and(|(marks, _)| marks.contains(&IfId(egress)));
                        prop_assert_eq!(db.contains(&id, IfId(egress)), marked);
                    }
                }
                for at in 0..=8 {
                    let now = instant(at);
                    let probe = db.has_expired_entries(now);
                    if !model.has_stale_rows() {
                        prop_assert_eq!(probe, model.has_expired_entries(now), "probe at {:?}", now);
                    }
                    // A stale row is what the expiry index had and the watermark has not:
                    // there the old probe may say yes where a sweep removes nothing, and the
                    // new one may not. Both still say yes wherever a sweep removes something.
                    prop_assert!(!model.would_evict(now) || probe, "probe at {:?}", now);
                    prop_assert!(!probe || model.has_expired_entries(now), "probe at {:?}", now);
                }
            }
        }
        // Everything left goes at the end of time, counted once.
        for (db, model) in &mut sides {
            prop_assert_eq!(db.evict_expired(SimTime::MAX), model.evict_expired(SimTime::MAX));
            prop_assert!(db.is_empty() && !db.has_expired_entries(SimTime::MAX));
        }
    }
}
