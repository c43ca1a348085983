//! The path service: where the egress gateway registers discovered paths so that endpoints
//! can query them (§III "Endpoint Path Selection", §V-D "Path Registration").
//!
//! Each AS holds one [`PathService`], kept behind a lock and an `Arc` by
//! [`ShardedPathService`] — the same recipe as [`crate::beacon_db::ShardedIngressDb`] — so
//! pull returns and RAC registrations commit through `&self` and copy-on-write snapshots
//! share the map until one side registers.

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

/// The finalizer of `splitmix64` — a fixed, platform-independent avalanche mix, so link
/// hashes are the same on every run and build.
pub(crate) const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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
    /// Moves on every insert, every eviction and every refresh that changes a
    /// registration's id or metrics — on everything but a refreshed `registered_at`. What
    /// a registration walk does depends on nothing else, so a walk recorded under this
    /// version can be replayed while it stands (see [`KeyVersion`]).
    version: u64,
}

impl Registrations {
    /// The registration a new one for the same key refreshes instead of being added beside
    /// it: the position of the first, in registration order, that has the same beacon id
    /// **or** the same link sequence (a re-originated beacon over the same inter-domain
    /// path) — `hash` is the new sequence's [`link_hash`], `same_links` compares it with a
    /// registered one.
    ///
    /// The rule has this one home because [`PathService::register`] and
    /// [`PathService::register_selected`] must agree on it registration for registration.
    /// The id alone would not do: a RAC that keeps several originations of one path among
    /// its winners refreshes one registration with each of them in turn, every round, and
    /// the last one leaves its id there — so next round the others find their
    /// registration by its links, not by their id.
    fn first_match(
        &self,
        pcb_id: &PcbId,
        hash: u64,
        same_links: impl Fn(&[(AsId, IfId)]) -> bool,
    ) -> Option<usize> {
        self.paths
            .iter()
            .zip(&self.link_hashes)
            .position(|(p, &h)| p.pcb_id == *pcb_id || (h == hash && same_links(&p.links)))
    }

    /// Refreshes the registration at `at` with a beacon's id, metrics and registration
    /// time; returns its id and metrics from before when they changed.
    fn refresh(
        &mut self,
        at: usize,
        pcb_id: PcbId,
        metrics: PathMetrics,
        now: SimTime,
    ) -> Option<(PcbId, PathMetrics)> {
        let existing = &mut self.paths[at];
        existing.registered_at = now;
        if existing.pcb_id == pcb_id && existing.metrics == metrics {
            return None;
        }
        self.version += 1;
        let before = (existing.pcb_id, existing.metrics);
        existing.pcb_id = pcb_id;
        existing.metrics = metrics;
        Some(before)
    }
}

/// The version of one key's registrations that a [`PathService::register_selected`] walk
/// left behind when all it did was refresh `registered_at`: no registration was added or
/// evicted, and every registration it refreshed ended the walk with the id and metrics it
/// had before — a winner may hand a registration over to another winner over the same
/// links, as long as the last one hands it back.
///
/// A later walk of the same winners over a key still at this version takes the same steps
/// — which registration a winner refreshes depends only on the ids, link sequences and
/// order of the key's registrations, and none of them moves without moving the version —
/// and so ends where the recorded one ended, with `registered_at` refreshed at the
/// positions it recorded. [`PathService::replay_selected`] does exactly that, and nothing
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyVersion(u64);

/// The default per-key registration limit of the paper's evaluation.
const DEFAULT_LIMIT_PER_KEY: usize = 20;

/// The path service of one AS (the map a [`ShardedPathService`] holds).
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
        if let Some(at) = entry.first_match(&path.pcb_id, hash, |links| links == path.links) {
            // Refresh: update the registration time and metrics (the beacon may carry fresher
            // metadata after re-origination).
            entry.refresh(at, path.pcb_id, path.metrics, path.registered_at);
            return;
        }
        entry.version += 1;
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
    /// Beacons without entries describe no path and are skipped.
    ///
    /// Returns how many were registered and, when the walk left the key as it found it
    /// but for `registered_at`, the version it left the key at: then `positions` got,
    /// per registered winner, the position in the key of the registration it refreshed,
    /// which [`PathService::replay_selected`] can refresh again for the same beacons.
    /// Otherwise `positions` is left as it was.
    pub fn register_selected<'a>(
        &mut self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        selected: impl IntoIterator<Item = (PcbId, &'a Pcb, IfId)>,
        positions: &mut Vec<u32>,
    ) -> (u64, Option<KeyVersion>) {
        let key = (Arc::clone(algorithm), destination, group);
        let mut known = self.paths.get_mut(&key);
        let start = positions.len();
        let mut registered = 0;
        // Every registration the walk changed, with its id and metrics from before.
        let mut changed: Vec<(usize, PcbId, PathMetrics)> = Vec::new();
        for (pcb_id, pcb, local_interface) in selected {
            let Some(destination_interface) = pcb.origin_interface() else {
                continue;
            };
            registered += 1;
            let refreshed = known.as_deref_mut().and_then(|known| {
                let at = known.first_match(&pcb_id, link_hash(pcb.links()), |links| {
                    links.iter().copied().eq(pcb.links())
                })?;
                Some((at, known.refresh(at, pcb_id, pcb.path_metrics(), now)))
            });
            if let Some((at, before)) = refreshed {
                positions.push(u32::try_from(at).expect("a key holds fewer than 2^32 paths"));
                if let Some((id, metrics)) = before {
                    if !changed.iter().any(|&(position, ..)| position == at) {
                        changed.push((at, id, metrics));
                    }
                }
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
        // A registration added (and perhaps one evicted) is a walk that did not end where
        // it started.
        let version = known
            .filter(|known| {
                positions.len() - start == registered as usize
                    && changed.iter().all(|&(at, id, metrics)| {
                        known.paths[at].pcb_id == id && known.paths[at].metrics == metrics
                    })
            })
            .map(|known| KeyVersion(known.version));
        if version.is_none() {
            positions.truncate(start);
        }
        (registered, version)
    }

    /// Repeats a [`PathService::register_selected`] walk of the key `(algorithm,
    /// destination, group)` that recorded `positions` and left the key at `version`: sets
    /// `registered_at` to `now` at those positions, exactly as walking the same beacons
    /// again would. Returns `false`, touching nothing, when the key moved since the walk.
    pub fn replay_selected(
        &mut self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        positions: &[u32],
        version: KeyVersion,
    ) -> bool {
        let key = (Arc::clone(algorithm), destination, group);
        let Some(known) = self
            .paths
            .get_mut(&key)
            .filter(|known| KeyVersion(known.version) == version)
        else {
            return false;
        };
        for &at in positions {
            known.paths[at as usize].registered_at = now;
        }
        true
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
        self.iter().collect()
    }

    /// Every registered path, in ascending `(algorithm, destination, group)` key order and
    /// registration order within a key — [`PathService::all`] without the collection.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredPath> {
        self.paths.values().flat_map(|v| v.paths.iter())
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
}

/// The path service of one AS: one [`PathService`], `Arc`-wrapped behind a
/// `parking_lot::RwLock`.
///
/// Registrations — RAC selections and pull returns alike — take `&self`, and
/// [`ShardedPathService::cow_clone`] hands out a structurally shared copy-on-write
/// snapshot in one reference-count bump; the map is deep-copied only when a service that
/// still shares it registers a path ([`Arc::make_mut`] semantics). Every method delegates
/// to the one map.
///
/// The name is kept because the standalone benchmark in `benchmark/` names the type.
#[derive(Debug)]
pub struct ShardedPathService {
    store: RwLock<Arc<PathService>>,
}

impl Default for ShardedPathService {
    /// An empty service with the paper's default per-key limit.
    fn default() -> Self {
        ShardedPathService::with_limit(DEFAULT_LIMIT_PER_KEY)
    }
}

impl Clone for ShardedPathService {
    /// Deep-clones the map (the pre-snapshot behaviour, kept as the reference the COW path
    /// is benchmarked and tested against). The clone shares nothing with the original.
    /// Prefer [`ShardedPathService::cow_clone`] for snapshotting.
    fn clone(&self) -> Self {
        ShardedPathService {
            store: RwLock::new(Arc::new(self.store.read().as_ref().clone())),
        }
    }
}

impl ShardedPathService {
    /// Creates an empty service with the paper's default per-key limit. The argument is
    /// ignored: the standalone benchmark in `benchmark/` calls the constructor with it.
    pub fn new(_: usize) -> Self {
        ShardedPathService::default()
    }

    /// Creates an empty service with a custom per-key limit.
    pub fn with_limit(limit_per_key: usize) -> Self {
        ShardedPathService {
            store: RwLock::new(Arc::new(PathService::with_limit(limit_per_key))),
        }
    }

    /// A structurally shared copy-on-write snapshot: one reference-count bump, no map copy.
    /// Whichever side registers first materializes its own copy, so neither can observe
    /// the other's subsequent registrations.
    pub fn cow_clone(&self) -> Self {
        ShardedPathService {
            store: RwLock::new(Arc::clone(&self.store.read())),
        }
    }

    /// Whether `self` and `other` still hold the same allocation — i.e. neither side has
    /// registered since a [`ShardedPathService::cow_clone`] tied them together.
    /// Introspection for the COW isolation tests and the snapshot-cost benchmark.
    pub fn shares_store_with(&self, other: &ShardedPathService) -> bool {
        Arc::ptr_eq(&self.store.read(), &other.store.read())
    }

    /// Runs `write` on the (copy-on-write materialized) map.
    fn write<R>(&self, write: impl FnOnce(&mut PathService) -> R) -> R {
        write(Arc::make_mut(&mut *self.store.write()))
    }

    /// Registers (or refreshes) a path (see [`PathService::register`]).
    pub fn register(&self, path: RegisteredPath) {
        self.write(|paths| paths.register(path));
    }

    /// [`PathService::register_selected`] under one lock. A selection with nothing to
    /// register leaves the map untouched (and, if it is shared with a snapshot, shared),
    /// and records no walk.
    pub fn register_selected<'a>(
        &self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        selected: impl IntoIterator<Item = (PcbId, &'a Pcb, IfId)>,
        positions: &mut Vec<u32>,
    ) -> (u64, Option<KeyVersion>) {
        let mut selected = selected
            .into_iter()
            .filter(|(_, pcb, _)| !pcb.is_empty())
            .peekable();
        if selected.peek().is_none() {
            return (0, None);
        }
        self.write(|paths| {
            paths.register_selected(algorithm, destination, group, now, selected, positions)
        })
    }

    /// [`PathService::replay_selected`]. It copies a map shared with a snapshot just as
    /// walking the same beacons again would: a walk worth replaying registered something.
    pub fn replay_selected(
        &self,
        algorithm: &Arc<str>,
        destination: AsId,
        group: InterfaceGroupId,
        now: SimTime,
        positions: &[u32],
        version: KeyVersion,
    ) -> bool {
        self.write(|paths| {
            paths.replay_selected(algorithm, destination, group, now, positions, version)
        })
    }

    /// All paths towards `destination`, across all RACs and groups.
    pub fn paths_to(&self, destination: AsId) -> Vec<RegisteredPath> {
        self.store
            .read()
            .paths_to(destination)
            .into_iter()
            .cloned()
            .collect()
    }

    /// All paths towards `destination` registered by a specific RAC.
    pub fn paths_to_by(&self, destination: AsId, algorithm: &str) -> Vec<RegisteredPath> {
        self.store
            .read()
            .paths_to_by(destination, algorithm)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Every registered path, in ascending `(algorithm, destination, group)` key order.
    pub fn all(&self) -> Vec<RegisteredPath> {
        // Cloned key by key, then flattened. One flat clone gives the same paths, but on
        // the benchmark's `beacon_mix` (2-core Linux box, glibc malloc) it left the heap
        // fragmented so that peak RSS read 86 MB instead of 78.6 MB, in every run.
        let per_key: Vec<Vec<RegisteredPath>> = (self.store.read().paths.values())
            .map(|registrations| registrations.paths.clone())
            .collect();
        per_key.into_iter().flatten().collect()
    }

    /// Runs `read` on the map under the read lock: [`PathService::iter`] walks what
    /// [`ShardedPathService::all`] hands out, in the same order, borrowed instead of copied.
    pub fn read<R>(&self, read: impl FnOnce(&PathService) -> R) -> R {
        read(&self.store.read())
    }

    /// Total number of registered paths.
    pub fn len(&self) -> usize {
        self.store.read().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct destination ASes reachable through registered paths, ascending.
    pub fn destinations(&self) -> Vec<AsId> {
        self.store.read().destinations()
    }

    /// Number of registrations evicted so far because their key hit the per-key limit.
    pub fn evictions(&self) -> u64 {
        self.store.read().evictions()
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
        let group = InterfaceGroupId::DEFAULT;
        let selected = [
            (first_id, &first, IfId(2)),
            (other_id, &other, IfId(2)),
            (second_id, &second, IfId(3)),
        ];
        let mut ps = PathService::new();
        for round in 0..3u64 {
            let now = SimTime::from_micros(round * 600_000_000);
            let mut positions = Vec::new();
            let (registered, version) =
                ps.register_selected(&algorithm, AsId(1), group, now, selected, &mut positions);
            assert_eq!(registered, 3);
            // The first walk adds the registrations; every later one hands the first
            // registration from `first` to `second` and so ends where it started.
            assert_eq!(version.is_some(), round > 0);
            let expected: &[u32] = if round > 0 { &[0, 1, 0] } else { &[] };
            assert_eq!(positions, expected);
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

        // Replaying the last walk is walking the same beacons again...
        let later = SimTime::from_micros(1_800_000_000);
        let mut positions = Vec::new();
        let (_, version) =
            ps.register_selected(&algorithm, AsId(1), group, later, selected, &mut positions);
        let version = version.expect("the walk ended where it started");
        let mut walked = ps.clone();
        let mut again = Vec::new();
        let (_, same) =
            walked.register_selected(&algorithm, AsId(1), group, later, selected, &mut again);
        // (The walk hands a registration over and back, which moves the version twice.)
        assert!(same.is_some_and(|same| same != version));
        assert_eq!(again, positions);
        assert!(ps.replay_selected(&algorithm, AsId(1), group, later, &positions, version));
        assert_eq!(ps.all(), walked.all());
        // ...until the key moves: a registration whose id changes refuses the replay.
        ps.register(RegisteredPath {
            pcb_id: first_id,
            ..ps.paths_to(AsId(1))[0].clone()
        });
        let before: Vec<RegisteredPath> = ps.all().into_iter().cloned().collect();
        assert!(!ps.replay_selected(&algorithm, AsId(1), group, later, &positions, version));
        assert_eq!(ps.all().into_iter().cloned().collect::<Vec<_>>(), before);
    }

    #[test]
    fn a_selection_with_nothing_to_register_leaves_a_shared_store_shared() {
        let base = ShardedPathService::default();
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
            snapshot
                .register_selected(
                    &algorithm,
                    AsId(1),
                    group,
                    SimTime::ZERO,
                    [],
                    &mut Vec::new()
                )
                .0,
            0
        );
        let entryless = [(empty.digest(), &empty, IfId(1))];
        assert_eq!(
            snapshot
                .register_selected(
                    &algorithm,
                    AsId(1),
                    group,
                    SimTime::ZERO,
                    entryless,
                    &mut Vec::new()
                )
                .0,
            0
        );
        assert!(snapshot.shares_store_with(&base));
        assert_eq!(snapshot.destinations(), vec![AsId(1)]);

        let (id, pcb) = beacon(2, 0, 1, 5);
        let selected = [(id, &pcb, IfId(1))];
        assert_eq!(
            snapshot
                .register_selected(
                    &algorithm,
                    AsId(2),
                    group,
                    SimTime::ZERO,
                    selected,
                    &mut Vec::new()
                )
                .0,
            1
        );
        assert!(!snapshot.shares_store_with(&base));
        assert_eq!((snapshot.len(), base.len()), (2, 1));
    }

    #[test]
    fn read_walks_what_all_copies_in_the_same_order() {
        let service = ShardedPathService::default();
        for (dst, alg, id_byte) in [(2, "DO", 1), (1, "1SP", 2), (1, "DO", 3), (1, "1SP", 4)] {
            service.register(path(dst, alg, id_byte, 0));
        }
        let walked: Vec<RegisteredPath> = service.read(|paths| paths.iter().cloned().collect());
        assert_eq!(walked, service.all());
        let ids: Vec<u8> = walked.iter().map(|p| p.pcb_id.0 .0[0]).collect();
        assert_eq!(ids, [2, 4, 3, 1], "key order, then registration order");
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
    fn deep_clone_shares_nothing() {
        let ps = ShardedPathService::default();
        ps.register(path(1, "1SP", 1, 0));
        let cloned = ps.clone();
        assert_eq!(cloned.len(), 1);
        cloned.register(path(2, "1SP", 2, 0));
        assert_eq!(cloned.len(), 2);
        assert_eq!(ps.len(), 1, "clone mutations must not leak back");
        // A deep clone shares no allocation even before any write.
        assert!(!ps.clone().shares_store_with(&ps));
    }

    #[test]
    fn cow_clone_shares_the_store_until_first_registration_in_either_direction() {
        let base = ShardedPathService::default();
        for destination in 1..=10u64 {
            base.register(path(destination, "1SP", 1, 0));
        }
        let snap = base.cow_clone();
        assert!(snap.shares_store_with(&base));
        assert_eq!(snap.all(), base.all());

        // Snapshot registration: the snapshot copies, the base keeps its paths.
        snap.register(path(1, "PD", 2, 5));
        assert!(!snap.shares_store_with(&base));
        assert_eq!(base.paths_to(AsId(1)).len(), 1);
        assert_eq!(snap.paths_to(AsId(1)).len(), 2);

        // Base registration after a snapshot: copies on the base side only.
        let snap = base.cow_clone();
        base.register(path(2, "PD", 3, 5));
        assert!(!snap.shares_store_with(&base));
        assert_eq!(snap.paths_to(AsId(2)).len(), 1);
        assert_eq!(base.paths_to(AsId(2)).len(), 2);
    }
}
