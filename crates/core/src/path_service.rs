//! The path service: where the egress gateway registers discovered paths so that endpoints
//! can query them (§III "Endpoint Path Selection", §V-D "Path Registration").
//!
//! The service is sharded **per destination AS** behind the [`ShardedPathService`] facade —
//! the same recipe as [`crate::beacon_db::ShardedIngressDb`], which shards per origin AS.
//! Every registration for one destination lands in the same shard (deterministic
//! `splitmix64` placement), so pull returns and RAC registrations targeting *different*
//! destinations commit concurrently through `&self`, while the facade preserves the
//! single-map API with iteration order byte-identical to an unsharded [`PathService`] for
//! any shard count.

use crate::beacon_db::splitmix64;
use irec_pcb::{Pcb, PcbId};
use irec_types::{AsId, IfId, InterfaceGroupId, PathMetrics, SimTime};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A path registered at the local path service, tagged with the criteria (RAC) it was
/// optimized for.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredPath {
    /// Identity of the underlying beacon.
    pub pcb_id: PcbId,
    /// The destination AS this path leads to (the beacon's origin).
    pub destination: AsId,
    /// The beacon interface at the destination (the first hop's egress interface).
    pub destination_interface: IfId,
    /// The local interface the beacon arrived on.
    pub local_interface: IfId,
    /// The RAC / algorithm that selected the path (the "set of criteria" tag).
    pub algorithm: String,
    /// The origin interface group of the beacon.
    pub group: InterfaceGroupId,
    /// Accumulated path metrics.
    pub metrics: PathMetrics,
    /// Traversed inter-domain links, identified by `(AS, egress interface)`.
    pub links: Vec<(AsId, IfId)>,
    /// When the path was (last) registered.
    pub registered_at: SimTime,
}

/// Key limiting registrations: the paper caps registered paths "per RAC, origin AS, and
/// interface group" (20 in the evaluation).
type RegistrationKey = (Arc<str>, AsId, InterfaceGroupId);

/// A fixed mix of a link sequence into 64 bits. Equal sequences hash equally; the converse
/// is never assumed, a hash hit is confirmed by comparing the sequences.
fn link_hash(links: impl Iterator<Item = (AsId, IfId)>) -> u64 {
    links.fold(0, |hash, (asn, interface)| {
        splitmix64(hash ^ asn.value()).wrapping_add(u64::from(interface.value()))
    })
}

/// The registrations of one key, in registration order.
#[derive(Debug, Clone, Default)]
struct Registrations {
    paths: Vec<RegisteredPath>,
    /// [`link_hash`] of `paths[i].links`, kept beside the paths so that looking for a link
    /// sequence reads no link vector but the one it finds.
    link_hashes: Vec<u64>,
}

impl Registrations {
    /// The registration a new one for the same key refreshes instead of being added beside
    /// it: the first, in registration order, that has the same beacon id **or** the same
    /// link sequence (a re-originated beacon over the same inter-domain path) — `hash` is
    /// the new sequence's [`link_hash`], `same_links` compares it with a registered one.
    ///
    /// The rule has this one home because [`PathService::register`] and
    /// [`PathService::register_selected`] must agree on it registration for registration.
    /// The id alone would not do: a RAC that keeps several originations of one path among
    /// its winners refreshes one registration with each of them in turn, every round, and
    /// the last one leaves its id there — so next round the others find their
    /// registration by its links, not by their id.
    fn first_match(
        &mut self,
        pcb_id: &PcbId,
        hash: u64,
        same_links: impl Fn(&[(AsId, IfId)]) -> bool,
    ) -> Option<&mut RegisteredPath> {
        let at = self
            .paths
            .iter()
            .zip(&self.link_hashes)
            .position(|(p, &h)| p.pcb_id == *pcb_id || (h == hash && same_links(&p.links)))?;
        Some(&mut self.paths[at])
    }
}

/// The default per-key registration limit of the paper's evaluation.
const DEFAULT_LIMIT_PER_KEY: usize = 20;

/// The path service of one AS (one shard of a [`ShardedPathService`], or a standalone
/// unsharded reference).
#[derive(Debug, Clone, Default)]
pub struct PathService {
    limit_per_key: usize,
    paths: BTreeMap<RegistrationKey, Registrations>,
    /// Registrations evicted because their key hit the per-key limit.
    evicted: u64,
}

impl PathService {
    /// Creates a path service with the paper's default limit of 20 paths per
    /// (RAC, destination, interface group).
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_LIMIT_PER_KEY)
    }

    /// Creates a path service with a custom per-key limit.
    pub fn with_limit(limit_per_key: usize) -> Self {
        PathService {
            limit_per_key: limit_per_key.max(1),
            paths: BTreeMap::new(),
            evicted: 0,
        }
    }

    /// Registers (or refreshes) a path. When the per-key limit is reached, the stalest
    /// registration is evicted — paths that keep being selected stay registered, paths that
    /// stop being selected age out.
    ///
    /// Re-originated beacons describing the same inter-domain path (identical link sequence)
    /// refresh the existing registration instead of creating a duplicate, mirroring how
    /// SCION path segments are refreshed rather than multiplied.
    pub fn register(&mut self, path: RegisteredPath) {
        let key = (
            Arc::from(path.algorithm.as_str()),
            path.destination,
            path.group,
        );
        let entry = self.paths.entry(key).or_default();
        let hash = link_hash(path.links.iter().copied());
        if let Some(existing) = entry.first_match(&path.pcb_id, hash, |links| links == path.links) {
            // Refresh: update the registration time and metrics (the beacon may carry fresher
            // metadata after re-origination).
            existing.pcb_id = path.pcb_id;
            existing.registered_at = path.registered_at;
            existing.metrics = path.metrics;
            return;
        }
        if entry.paths.len() >= self.limit_per_key {
            // Evict the stalest registration.
            if let Some((idx, _)) = entry
                .paths
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.registered_at)
            {
                entry.paths.remove(idx);
                entry.link_hashes.remove(idx);
                self.evicted += 1;
            }
        }
        entry.paths.push(path);
        entry.link_hashes.push(hash);
    }

    /// Registers, in order, the beacons a RAC selected from one batch — `selected` yields
    /// each winner's id, beacon and the local interface it arrived on; all of them lead
    /// to `destination`. Observably one [`PathService::register`] call per beacon, at the
    /// cost of one key lookup for all of them and, for a beacon whose registration already
    /// exists (every kept winner, every round), of finding it: the link sequence is
    /// compared straight off the beacon's entries and a [`RegisteredPath`] is built only
    /// for a beacon that matches nothing, which then goes through `register` itself.
    /// Beacons without entries describe no path and are skipped; returns how many were
    /// registered.
    pub fn register_selected<'a>(
        &mut self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        selected: impl IntoIterator<Item = (PcbId, &'a Pcb, IfId)>,
    ) -> u64 {
        let key = (Arc::clone(algorithm), destination, group);
        let mut known = self.paths.get_mut(&key);
        let mut registered = 0;
        for (pcb_id, pcb, local_interface) in selected {
            let Some(destination_interface) = pcb.origin_interface() else {
                continue;
            };
            registered += 1;
            let refreshed = known.as_deref_mut().and_then(|known| {
                known.first_match(&pcb_id, link_hash(pcb.links()), |links| {
                    links.iter().copied().eq(pcb.links())
                })
            });
            if let Some(existing) = refreshed {
                existing.pcb_id = pcb_id;
                existing.registered_at = now;
                existing.metrics = pcb.path_metrics();
                continue;
            }
            self.register(RegisteredPath {
                pcb_id,
                destination,
                destination_interface,
                local_interface,
                algorithm: algorithm.to_string(),
                group,
                metrics: pcb.path_metrics(),
                links: pcb.link_keys(),
                registered_at: now,
            });
            known = self.paths.get_mut(&key);
        }
        registered
    }

    /// All paths towards `destination`, across all RACs and groups.
    pub fn paths_to(&self, destination: AsId) -> Vec<&RegisteredPath> {
        self.paths
            .iter()
            .filter(|((_, dst, _), _)| *dst == destination)
            .flat_map(|(_, v)| v.paths.iter())
            .collect()
    }

    /// All paths towards `destination` registered by a specific RAC.
    pub fn paths_to_by(&self, destination: AsId, algorithm: &str) -> Vec<&RegisteredPath> {
        self.paths
            .iter()
            .filter(|((alg, dst, _), _)| *dst == destination && **alg == *algorithm)
            .flat_map(|(_, v)| v.paths.iter())
            .collect()
    }

    /// Every registered path.
    pub fn all(&self) -> Vec<&RegisteredPath> {
        self.paths.values().flat_map(|v| v.paths.iter()).collect()
    }

    /// Total number of registered paths.
    pub fn len(&self) -> usize {
        self.paths.values().map(|v| v.paths.len()).sum()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct destination ASes reachable through registered paths.
    pub fn destinations(&self) -> Vec<AsId> {
        let mut v: Vec<AsId> = self.paths.keys().map(|(_, dst, _)| *dst).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of registrations evicted so far because their key hit the per-key limit.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Owned snapshots of every `(key, registrations)` entry, in key order (the sharded
    /// facade merges these across shards).
    fn entries(&self) -> Vec<(RegistrationKey, Vec<RegisteredPath>)> {
        self.paths
            .iter()
            .map(|(k, v)| (k.clone(), v.paths.clone()))
            .collect()
    }
}

/// Hard cap on path-service shards, matching the ingress database's cap: beyond this the
/// per-shard maps are so small that the fan-out bookkeeping dominates any concurrency win.
pub const MAX_PATH_SHARDS: usize = 256;

/// A sharded path service: `N` independent [`PathService`] shards keyed by
/// **destination-AS** hash, each an `Arc`-wrapped map behind its own `parking_lot::RwLock`.
///
/// Every registration towards one destination lands in the same shard (the registered
/// path's `destination` determines placement via the same deterministic `splitmix64`
/// finalizer the ingress database uses), so registrations — RAC selections and pull
/// returns alike — for *different* destinations are independent and can commit
/// concurrently through `&self`. The facade preserves the single-map API with
/// **deterministic, shard-merged iteration order**: [`ShardedPathService::all`] returns
/// the global ascending `(algorithm, destination, group)` key order (keys are globally
/// unique and each lives in exactly one shard, so sorting the merged entries reproduces
/// exactly what one `BTreeMap` would iterate), per-destination queries stay entirely
/// within the destination's shard (whose relative key order already matches the single
/// map), and counters reduce over shards in fixed index order. A service with any shard
/// count is observably byte-identical to the unsharded reference — pinned by the proptest
/// suite in `crates/core/tests/proptests.rs`.
///
/// Like the ingress database, each shard is an `Arc<PathService>` so
/// [`ShardedPathService::cow_clone`] can hand out structurally shared copy-on-write
/// snapshots in O(shards) reference-count bumps; a shard is deep-copied only when a
/// service that still shares it registers a path into it ([`Arc::make_mut`] semantics).
#[derive(Debug)]
pub struct ShardedPathService {
    shards: Vec<RwLock<Arc<PathService>>>,
}

impl Default for ShardedPathService {
    /// A single-shard service — observably identical to a plain [`PathService`].
    fn default() -> Self {
        ShardedPathService::new(1)
    }
}

impl Clone for ShardedPathService {
    /// Deep-clones every shard's contents (the pre-snapshot behaviour, kept as the
    /// reference the COW path is benchmarked and tested against). The clone shares nothing
    /// with the original. Prefer [`ShardedPathService::cow_clone`] for snapshotting.
    fn clone(&self) -> Self {
        ShardedPathService {
            shards: self
                .shards
                .iter()
                .map(|shard| RwLock::new(Arc::new(shard.read().as_ref().clone())))
                .collect(),
        }
    }
}

impl ShardedPathService {
    /// Creates an empty service with `shards` shards (clamped to `1..=`
    /// [`MAX_PATH_SHARDS`]) and the paper's default per-key limit. Any shard count —
    /// powers of two or not — yields the same observable contents; the count only changes
    /// how concurrent registration can get.
    pub fn new(shards: usize) -> Self {
        Self::with_limit(DEFAULT_LIMIT_PER_KEY, shards)
    }

    /// Creates an empty service with a custom per-key limit and shard count.
    pub fn with_limit(limit_per_key: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_PATH_SHARDS);
        ShardedPathService {
            shards: (0..shards)
                .map(|_| RwLock::new(Arc::new(PathService::with_limit(limit_per_key))))
                .collect(),
        }
    }

    /// A structurally shared copy-on-write snapshot: O(shards) reference-count bumps, no
    /// map copies. Both services keep full read access to the shared shards; whichever
    /// side registers into a still-shared shard first materializes its own copy of just
    /// that shard, so neither can observe the other's subsequent registrations.
    pub fn cow_clone(&self) -> Self {
        ShardedPathService {
            shards: self
                .shards
                .iter()
                .map(|shard| RwLock::new(Arc::clone(&shard.read())))
                .collect(),
        }
    }

    /// Whether shard `shard` is still the same allocation in `self` and `other` —
    /// i.e. neither side has registered into it since a [`ShardedPathService::cow_clone`]
    /// tied them together. Introspection for the COW isolation tests and the
    /// snapshot-cost benchmark.
    pub fn shares_shard_with(&self, other: &ShardedPathService, shard: usize) -> bool {
        Arc::ptr_eq(&self.shards[shard].read(), &other.shards[shard].read())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index paths towards `destination` live in.
    pub fn shard_of(&self, destination: AsId) -> usize {
        (splitmix64(destination.value()) % self.shards.len() as u64) as usize
    }

    /// Registers (or refreshes) a path in its destination's shard. Takes `&self`:
    /// concurrent registrations for different destinations' shards do not contend.
    pub fn register(&self, path: RegisteredPath) {
        let shard = self.shard_of(path.destination);
        self.register_in_shard(shard, path);
    }

    /// [`ShardedPathService::register`] with the shard precomputed by the caller (the
    /// delivery plane partitions a whole epoch's pull returns by shard before fanning the
    /// commits out).
    pub fn register_in_shard(&self, shard: usize, path: RegisteredPath) {
        debug_assert_eq!(
            shard,
            self.shard_of(path.destination),
            "path registered in a foreign shard"
        );
        Arc::make_mut(&mut *self.shards[shard].write()).register(path);
    }

    /// [`PathService::register_selected`] in `destination`'s shard, under one lock. A
    /// selection with nothing to register leaves the shard untouched (and, if it is shared
    /// with a snapshot, shared).
    pub fn register_selected<'a>(
        &self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        selected: impl IntoIterator<Item = (PcbId, &'a Pcb, IfId)>,
    ) -> u64 {
        let mut selected = selected
            .into_iter()
            .filter(|(_, pcb, _)| !pcb.is_empty())
            .peekable();
        if selected.peek().is_none() {
            return 0;
        }
        let mut shard = self.shards[self.shard_of(destination)].write();
        Arc::make_mut(&mut *shard).register_selected(algorithm, destination, group, now, selected)
    }

    /// All paths towards `destination`, across all RACs and groups — entirely within the
    /// destination's shard, in the same `(algorithm, group)` order as the unsharded map.
    pub fn paths_to(&self, destination: AsId) -> Vec<RegisteredPath> {
        self.shards[self.shard_of(destination)]
            .read()
            .paths_to(destination)
            .into_iter()
            .cloned()
            .collect()
    }

    /// All paths towards `destination` registered by a specific RAC.
    pub fn paths_to_by(&self, destination: AsId, algorithm: &str) -> Vec<RegisteredPath> {
        self.shards[self.shard_of(destination)]
            .read()
            .paths_to_by(destination, algorithm)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Every registered path, in the global ascending `(algorithm, destination, group)`
    /// key order — byte-identical to what the unsharded map iterates, for any shard count.
    pub fn all(&self) -> Vec<RegisteredPath> {
        let mut entries: Vec<(RegistrationKey, Vec<RegisteredPath>)> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().entries())
            .collect();
        // Keys are globally unique (each destination lives in exactly one shard), so this
        // sort is a pure merge reproducing the single-map BTreeMap order.
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        entries.into_iter().flat_map(|(_, paths)| paths).collect()
    }

    /// Total number of registered paths, reduced over shards in index order.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of paths registered in one shard (occupancy introspection for tests and the
    /// sharding stress suite).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].read().len()
    }

    /// The distinct destination ASes reachable through registered paths, ascending.
    pub fn destinations(&self) -> Vec<AsId> {
        let mut v: Vec<AsId> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().destinations())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total number of limit evictions, reduced over shards in index order — the
    /// shard-count-independent figure the unsharded service would report.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.read().evictions())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_crypto::Digest;
    use irec_types::{Bandwidth, Latency};

    fn path(dst: u64, alg: &str, id_byte: u8, at_s: u64) -> RegisteredPath {
        let mut digest = [0u8; 32];
        digest[0] = id_byte;
        RegisteredPath {
            pcb_id: PcbId(Digest(digest)),
            destination: AsId(dst),
            destination_interface: IfId(1),
            local_interface: IfId(2),
            algorithm: alg.to_string(),
            group: InterfaceGroupId::DEFAULT,
            metrics: PathMetrics {
                latency: Latency::from_millis(10),
                bandwidth: Bandwidth::from_mbps(100),
                hops: 2,
            },
            links: vec![(AsId(dst), IfId(id_byte as u32))],
            registered_at: SimTime::from_micros(at_s * 1_000_000),
        }
    }

    #[test]
    fn register_and_query() {
        let mut ps = PathService::new();
        ps.register(path(1, "1SP", 1, 0));
        ps.register(path(1, "DO", 2, 0));
        ps.register(path(2, "1SP", 3, 0));
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.paths_to(AsId(1)).len(), 2);
        assert_eq!(ps.paths_to_by(AsId(1), "DO").len(), 1);
        assert_eq!(ps.destinations(), vec![AsId(1), AsId(2)]);
        assert!(!ps.is_empty());
    }

    #[test]
    fn re_registration_refreshes_instead_of_duplicating() {
        let mut ps = PathService::new();
        ps.register(path(1, "1SP", 1, 0));
        ps.register(path(1, "1SP", 1, 5));
        assert_eq!(ps.len(), 1);
        assert_eq!(
            ps.paths_to(AsId(1))[0].registered_at,
            SimTime::from_micros(5_000_000)
        );
    }

    #[test]
    fn limit_evicts_stalest() {
        let mut ps = PathService::with_limit(2);
        ps.register(path(1, "HD", 1, 0));
        ps.register(path(1, "HD", 2, 10));
        ps.register(path(1, "HD", 3, 20));
        assert_eq!(ps.len(), 2);
        let ids: Vec<u8> = ps
            .paths_to(AsId(1))
            .iter()
            .map(|p| p.pcb_id.0 .0[0])
            .collect();
        assert!(!ids.contains(&1), "stalest registration must be evicted");
        assert!(ids.contains(&2) && ids.contains(&3));
    }

    /// A one-hop beacon of `origin` leaving through `egress`, numbered `sequence`.
    fn beacon(origin: u64, sequence: u64, egress: u32, latency_ms: u64) -> (PcbId, Pcb) {
        use irec_crypto::{KeyRegistry, Signer};
        use irec_pcb::{PcbExtensions, StaticInfo};
        let mut pcb = Pcb::originate(
            AsId(origin),
            sequence,
            SimTime::ZERO,
            SimTime::from_micros(3_600_000_000),
            PcbExtensions::none(),
        );
        pcb.extend(
            IfId::NONE,
            IfId(egress),
            StaticInfo::origin(
                Latency::from_millis(latency_ms),
                Bandwidth::from_mbps(100),
                None,
            ),
            &Signer::new(AsId(origin), KeyRegistry::with_ases(1, 8)),
        )
        .unwrap();
        (pcb.digest(), pcb)
    }

    #[test]
    fn originations_of_one_path_take_turns_in_one_registration() {
        // A RAC that keeps two originations of one path among its winners refreshes one
        // registration with each in turn: whichever comes last leaves its id and metrics,
        // so the other one finds the registration by its links the round after.
        let (first_id, first) = beacon(1, 0, 4, 10);
        let (second_id, second) = beacon(1, 1, 4, 30);
        let (other_id, other) = beacon(1, 2, 5, 20);
        let algorithm: Arc<str> = "5SP".into();
        let mut ps = PathService::new();
        for round in 0..3u64 {
            let now = SimTime::from_micros(round * 600_000_000);
            let registered = ps.register_selected(
                &algorithm,
                AsId(1),
                InterfaceGroupId::DEFAULT,
                now,
                [
                    (first_id, &first, IfId(2)),
                    (other_id, &other, IfId(2)),
                    (second_id, &second, IfId(3)),
                ],
            );
            assert_eq!(registered, 3);
            let paths = ps.paths_to(AsId(1));
            assert_eq!(paths.len(), 2, "round {round}");
            assert_eq!(paths[0].pcb_id, second_id);
            assert_eq!(paths[0].metrics, second.path_metrics());
            assert_eq!(
                paths[0].local_interface,
                IfId(2),
                "set at registration only"
            );
            assert_eq!(paths[1].pcb_id, other_id);
            assert!(paths.iter().all(|p| p.registered_at == now));
        }
        // The same beacons one `register` call each build the same service.
        let mut one_by_one = PathService::new();
        for (id, pcb, local) in [
            (first_id, &first, 2),
            (other_id, &other, 2),
            (second_id, &second, 3),
        ] {
            one_by_one.register(RegisteredPath {
                pcb_id: id,
                destination: AsId(1),
                destination_interface: pcb.origin_interface().unwrap(),
                local_interface: IfId(local),
                algorithm: "5SP".to_string(),
                group: InterfaceGroupId::DEFAULT,
                metrics: pcb.path_metrics(),
                links: pcb.link_keys(),
                registered_at: SimTime::from_micros(1_200_000_000),
            });
        }
        assert_eq!(ps.all(), one_by_one.all());
        assert_eq!(ps.evictions(), 0);
    }

    #[test]
    fn a_selection_with_nothing_to_register_leaves_a_shared_shard_shared() {
        let base = ShardedPathService::new(1);
        base.register(path(1, "1SP", 1, 0));
        let snapshot = base.cow_clone();
        let algorithm: Arc<str> = "1SP".into();
        let empty = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::from_micros(1),
            irec_pcb::PcbExtensions::none(),
        );
        let group = InterfaceGroupId::DEFAULT;
        assert_eq!(
            snapshot.register_selected(&algorithm, AsId(1), group, SimTime::ZERO, []),
            0
        );
        let entryless = [(empty.digest(), &empty, IfId(1))];
        assert_eq!(
            snapshot.register_selected(&algorithm, AsId(1), group, SimTime::ZERO, entryless),
            0
        );
        assert!(snapshot.shares_shard_with(&base, 0));
        assert_eq!(snapshot.destinations(), vec![AsId(1)]);

        let (id, pcb) = beacon(2, 0, 1, 5);
        let selected = [(id, &pcb, IfId(1))];
        assert_eq!(
            snapshot.register_selected(&algorithm, AsId(2), group, SimTime::ZERO, selected),
            1
        );
        assert!(!snapshot.shares_shard_with(&base, 0));
        assert_eq!((snapshot.len(), base.len()), (2, 1));
    }

    #[test]
    fn limits_apply_per_key_not_globally() {
        let mut ps = PathService::with_limit(1);
        ps.register(path(1, "1SP", 1, 0));
        ps.register(path(1, "DO", 2, 0));
        ps.register(path(2, "1SP", 3, 0));
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn empty_service() {
        let ps = PathService::new();
        assert!(ps.is_empty());
        assert!(ps.paths_to(AsId(1)).is_empty());
        assert!(ps.destinations().is_empty());
    }

    #[test]
    fn eviction_counter_tracks_limit_evictions_only() {
        let mut ps = PathService::with_limit(2);
        ps.register(path(1, "HD", 1, 0));
        ps.register(path(1, "HD", 2, 10));
        assert_eq!(ps.evictions(), 0);
        ps.register(path(1, "HD", 3, 20));
        assert_eq!(ps.evictions(), 1);
        // A refresh never evicts.
        ps.register(path(1, "HD", 3, 30));
        assert_eq!(ps.evictions(), 1);
    }

    #[test]
    fn sharded_service_clamps_shard_count_and_places_destinations_stably() {
        assert_eq!(ShardedPathService::new(0).shard_count(), 1);
        assert_eq!(
            ShardedPathService::new(100_000).shard_count(),
            MAX_PATH_SHARDS
        );
        let ps = ShardedPathService::new(7);
        for destination in 1..200u64 {
            let shard = ps.shard_of(AsId(destination));
            assert!(shard < 7);
            // Placement is a pure function of the destination.
            assert_eq!(ps.shard_of(AsId(destination)), shard);
        }
        // The hash actually spreads destinations (not everything in one shard).
        let used: std::collections::HashSet<usize> =
            (1..200u64).map(|d| ps.shard_of(AsId(d))).collect();
        assert!(used.len() > 1);
    }

    #[test]
    fn sharded_service_matches_single_map_for_any_shard_count() {
        for shards in [1usize, 2, 4, 7, 16] {
            let mut reference = PathService::with_limit(2);
            let sharded = ShardedPathService::with_limit(2, shards);
            for destination in 1..=6u64 {
                for (id_byte, alg) in [(1u8, "1SP"), (2, "HD"), (3, "HD"), (4, "HD"), (2, "PD")] {
                    let p = path(destination, alg, id_byte, u64::from(id_byte));
                    reference.register(p.clone());
                    sharded.register(p);
                }
            }
            assert_eq!(sharded.len(), reference.len(), "len at {shards} shards");
            assert_eq!(
                sharded.all(),
                reference.all().into_iter().cloned().collect::<Vec<_>>()
            );
            assert_eq!(sharded.destinations(), reference.destinations());
            assert_eq!(sharded.evictions(), reference.evictions());
            for destination in 1..=6u64 {
                assert_eq!(
                    sharded.paths_to(AsId(destination)),
                    reference
                        .paths_to(AsId(destination))
                        .into_iter()
                        .cloned()
                        .collect::<Vec<_>>()
                );
                assert_eq!(
                    sharded.paths_to_by(AsId(destination), "HD"),
                    reference
                        .paths_to_by(AsId(destination), "HD")
                        .into_iter()
                        .cloned()
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn sharded_service_clone_shares_nothing() {
        let ps = ShardedPathService::new(4);
        ps.register(path(1, "1SP", 1, 0));
        let cloned = ps.clone();
        assert_eq!(cloned.len(), 1);
        cloned.register(path(2, "1SP", 2, 0));
        assert_eq!(cloned.len(), 2);
        assert_eq!(ps.len(), 1, "clone mutations must not leak back");
        // A deep clone shares no shard allocation even before any write.
        let fresh = ps.clone();
        assert!((0..4).all(|s| !fresh.shares_shard_with(&ps, s)));
    }

    #[test]
    fn cow_clone_shares_shards_until_first_registration_in_either_direction() {
        let base = ShardedPathService::new(7);
        for destination in 1..=10u64 {
            base.register(path(destination, "1SP", 1, 0));
        }
        let snap = base.cow_clone();
        assert!((0..7).all(|s| snap.shares_shard_with(&base, s)));
        assert_eq!(snap.all(), base.all());

        // Snapshot registration: only the destination's shard un-shares.
        snap.register(path(1, "PD", 2, 5));
        let touched = snap.shard_of(AsId(1));
        for s in 0..7 {
            assert_eq!(snap.shares_shard_with(&base, s), s != touched);
        }
        assert_eq!(base.paths_to(AsId(1)).len(), 1);
        assert_eq!(snap.paths_to(AsId(1)).len(), 2);

        // Base registration after the snapshot: copies on the base side only.
        let other = base.shard_of(AsId(2));
        assert_ne!(other, touched, "test destinations 1 and 2 must spread");
        base.register(path(2, "PD", 3, 5));
        assert!(!snap.shares_shard_with(&base, other));
        assert_eq!(snap.paths_to(AsId(2)).len(), 1);
        assert_eq!(base.paths_to(AsId(2)).len(), 2);
    }
}
