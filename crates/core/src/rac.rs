//! Routing algorithm containers (RACs), §V-C of the paper.
//!
//! A RAC periodically requests candidate PCBs from the ingress gateway, provides them —
//! together with intra-AS topology information — to its routing algorithm, executes the
//! algorithm, and hands the selected PCBs (with the egress interfaces they were optimized
//! for) to the egress gateway.
//!
//! Two kinds exist, sharing one implementation (as in the paper): **static** RACs always run
//! the operator-configured algorithm, **on-demand** RACs run the algorithm referenced in the
//! PCBs they process, fetched from the origin AS, verified against the hash pinned in the
//! signed PCB, cached, and executed inside the IRVM sandbox with strict limits.
//!
//! The per-batch processing pipeline deliberately mirrors the cost structure measured in the
//! paper's Fig. 6: **setup** (instantiating the sandboxed algorithm), **marshal** (the
//! serialization boundary between gateway and RAC — gRPC/Protobuf in the paper, the
//! `irec-wire` codec here), and **execute** (running the algorithm over the candidate set).

use crate::beacon_db::{BatchKey, BatchView, ShardedIngressDb, StoredBeacon};
use crate::config::{RacConfig, RacKind};
use irec_algorithms::{
    catalog, ondemand::IrvmAlgorithm, AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm,
};
use irec_pcb::AlgorithmRef;
use irec_topology::AsNode;
use irec_types::{AlgorithmId, AsId, IfId, InterfaceGroupId, IrecError, Result, SimTime};
use irec_wire::{Decode, Encode, WireReader, WireWriter};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Maximum size of a fetched on-demand algorithm executable ("The RAC only allows
/// executables up to a certain size limit").
pub const MAX_EXECUTABLE_BYTES: usize = 64 * 1024;

/// Where on-demand RACs fetch algorithm executables from.
///
/// In the real system the RAC contacts the origin AS over a path contained in the PCB itself;
/// in this reproduction the fetch is a lookup against the store the origin AS published its
/// module to. The hash check against the PCB's (signed) Algorithm extension is what provides
/// integrity either way.
pub trait AlgorithmFetcher: Send + Sync {
    /// Fetches the executable bytes for `reference` from `origin`.
    fn fetch(&self, origin: AsId, reference: &AlgorithmRef) -> Result<Vec<u8>>;
}

/// A shared in-memory algorithm store: origin ASes publish their on-demand algorithm modules
/// here, on-demand RACs fetch from it.
#[derive(Debug, Clone, Default)]
pub struct SharedAlgorithmStore {
    inner: Arc<RwLock<AlgorithmModules>>,
}

/// Published on-demand algorithm modules, keyed by (origin AS, algorithm id).
type AlgorithmModules = HashMap<(AsId, AlgorithmId), Vec<u8>>;

impl SharedAlgorithmStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an algorithm module on behalf of `origin` and returns the reference to embed
    /// in PCBs.
    pub fn publish(&self, origin: AsId, id: AlgorithmId, module_bytes: Vec<u8>) -> AlgorithmRef {
        let reference = AlgorithmRef::new(id, irec_crypto::sha256(&module_bytes));
        self.inner.write().insert((origin, id), module_bytes);
        reference
    }

    /// Number of published modules.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl AlgorithmFetcher for SharedAlgorithmStore {
    fn fetch(&self, origin: AsId, reference: &AlgorithmRef) -> Result<Vec<u8>> {
        self.inner
            .read()
            .get(&(origin, reference.id))
            .cloned()
            .ok_or_else(|| {
                IrecError::not_found(format!(
                    "algorithm {} not published by {origin}",
                    reference.id
                ))
            })
    }
}

/// One selected beacon produced by a RAC: the stored beacon, the egress interfaces it was
/// optimized for, and bookkeeping for registration.
///
/// The RAC's algorithm works on owned candidates decoded from the marshalled batch, but a
/// selection is an *index* into that batch: the output shares the gateway's stored beacon
/// (an `Arc` bump, pointer-equal to the database's copy) instead of cloning the decoded
/// one, and records the index so the gateway side can pair it with whatever it keeps
/// beside the beacon — the execution engine attaches the carried [`irec_pcb::PcbId`] this
/// way (see [`crate::engine::SelectedBeacon`]).
#[derive(Debug, Clone)]
pub struct RacOutput {
    /// The RAC that produced this selection (used to tag registered paths).
    pub rac_name: String,
    /// The batch the beacon came from.
    pub origin: AsId,
    /// Interface group of the batch.
    pub group: InterfaceGroupId,
    /// The selected beacon, shared with the candidate batch it was selected from.
    pub beacon: Arc<StoredBeacon>,
    /// Position of `beacon` in the candidate batch the RAC was handed.
    pub candidate_index: usize,
    /// Egress interfaces the beacon was optimized for.
    pub egress_ifs: Vec<IfId>,
}

/// Wall-clock timing of one RAC processing run, broken down into the paper's Fig. 6
/// sub-tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RacTiming {
    /// Sandbox/algorithm instantiation ("WASM setup").
    pub setup: Duration,
    /// Candidate-set marshalling across the gateway↔RAC boundary ("gRPC calls").
    pub marshal: Duration,
    /// Algorithm execution over the candidate set ("WASM module execution").
    pub execute: Duration,
    /// Number of candidate PCBs processed.
    pub candidates: usize,
}

impl RacTiming {
    /// Total processing time.
    pub fn total(&self) -> Duration {
        self.setup + self.marshal + self.execute
    }

    /// Accumulates another timing record.
    pub fn accumulate(&mut self, other: &RacTiming) {
        self.setup += other.setup;
        self.marshal += other.marshal;
        self.execute += other.execute;
        self.candidates += other.candidates;
    }
}

impl Encode for RacTiming {
    fn encode(&self, writer: &mut WireWriter) {
        // Nanosecond precision; a u64 holds ~584 years of wall-clock time, far beyond any
        // measurable processing run.
        writer.put_varint(self.setup.as_nanos() as u64);
        writer.put_varint(self.marshal.as_nanos() as u64);
        writer.put_varint(self.execute.as_nanos() as u64);
        writer.put_varint(self.candidates as u64);
    }
}

impl Decode for RacTiming {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        let setup = Duration::from_nanos(reader.get_varint()?);
        let marshal = Duration::from_nanos(reader.get_varint()?);
        let execute = Duration::from_nanos(reader.get_varint()?);
        let candidates = usize::try_from(reader.get_varint()?)
            .map_err(|_| IrecError::decode("candidate count does not fit in usize"))?;
        Ok(RacTiming {
            setup,
            marshal,
            execute,
            candidates,
        })
    }
}

/// Wire envelope used to marshal a candidate set across the gateway↔RAC boundary (the
/// gRPC/Protobuf substitute measured as the "marshal" component).
struct CandidateEnvelope {
    candidates: Vec<Candidate>,
}

/// Wire size reserved per candidate: measured beacons of 2–6 hops encode to 150–400 bytes.
const CANDIDATE_WIRE_HINT: usize = 384;

/// Encodes a shared candidate set directly into wire bytes, without first deep-copying the
/// beacons into an owned envelope (the decode side still materializes owned candidates — that
/// is the unmarshalling cost the Fig. 6 "marshal" component measures). The buffer is
/// reserved once for the whole set.
fn encode_candidates(beacons: &[Arc<StoredBeacon>]) -> Vec<u8> {
    let mut writer = WireWriter::with_capacity(16 + beacons.len() * CANDIDATE_WIRE_HINT);
    writer.put_varint(beacons.len() as u64);
    for beacon in beacons {
        beacon.pcb.encode(&mut writer);
        writer.put_u32v(beacon.ingress.value());
    }
    writer.into_bytes()
}

impl Decode for CandidateEnvelope {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self> {
        let n = usize::try_from(reader.get_varint()?)
            .ok()
            .filter(|&n| n <= 1_000_000)
            .ok_or_else(implausible_candidate_count)?;
        let mut candidates =
            Vec::with_capacity(irec_pcb::bounded_reservation(n, reader.remaining()));
        for _ in 0..n {
            let pcb = irec_pcb::Pcb::decode(reader)?;
            let ingress = IfId(reader.get_u32v()?);
            candidates.push(Candidate::new(pcb, ingress));
        }
        Ok(CandidateEnvelope { candidates })
    }
}

#[cold]
#[inline(never)]
fn implausible_candidate_count() -> IrecError {
    IrecError::decode("implausible candidate count")
}

/// A routing algorithm container.
///
/// A `Rac` is `Send + Sync`: processing takes `&self`, and the only mutable state — the
/// on-demand algorithm cache — lives behind a [`parking_lot::RwLock`], so the parallel RAC
/// execution engine ([`crate::engine`]) can fan `process_candidates` calls for independent
/// candidate batches out over worker threads.
pub struct Rac {
    config: RacConfig,
    /// `config.name`, in the form kept selections share (see
    /// [`crate::engine::BatchSelection`]).
    name: Arc<str>,
    /// The algorithm of a static RAC.
    static_algorithm: Option<Arc<dyn RoutingAlgorithm>>,
    /// Fetcher for on-demand executables.
    fetcher: Option<Arc<dyn AlgorithmFetcher>>,
    /// Cache of instantiated on-demand algorithms, keyed by (origin, algorithm id); the
    /// paper: "by caching the executable, the RAC only needs to do this once for all PCBs
    /// with the same origin AS and algorithm ID".
    cache: RwLock<HashMap<(AsId, AlgorithmId), Arc<IrvmAlgorithm>>>,
    /// When true, IREC extensions are ignored and every beacon is treated as plain (the
    /// behaviour of a legacy control service, used by the backward-compatibility setup).
    ignore_extensions: bool,
}

impl Clone for Rac {
    /// Clones the container for an independent simulation snapshot: the immutable pieces —
    /// configuration, static algorithm, fetcher — are shared (`Arc` bumps), and the
    /// on-demand instantiation cache is copied entry-wise (cached `IrvmAlgorithm`s are
    /// themselves immutable and shared), so warm caches carry over without coupling the
    /// clone's future instantiations to the original.
    fn clone(&self) -> Self {
        Rac {
            config: self.config.clone(),
            name: Arc::clone(&self.name),
            static_algorithm: self.static_algorithm.clone(),
            fetcher: self.fetcher.clone(),
            cache: RwLock::new(self.cache.read().clone()),
            ignore_extensions: self.ignore_extensions,
        }
    }
}

impl Rac {
    /// Creates a static RAC, resolving the configured algorithm through the catalog.
    pub fn new_static(config: RacConfig) -> Result<Self> {
        let RacKind::Static { algorithm } = &config.kind else {
            return Err(IrecError::config("new_static requires a static RacConfig"));
        };
        let alg = catalog::by_name(algorithm)?;
        Ok(Rac {
            name: config.name.as_str().into(),
            config,
            static_algorithm: Some(alg),
            fetcher: None,
            cache: RwLock::new(HashMap::new()),
            ignore_extensions: false,
        })
    }

    /// Creates a static RAC with a caller-provided algorithm implementation.
    pub fn with_algorithm(config: RacConfig, algorithm: Arc<dyn RoutingAlgorithm>) -> Self {
        Rac {
            name: config.name.as_str().into(),
            config,
            static_algorithm: Some(algorithm),
            fetcher: None,
            cache: RwLock::new(HashMap::new()),
            ignore_extensions: false,
        }
    }

    /// Creates an on-demand RAC fetching executables through `fetcher`.
    pub fn new_on_demand(config: RacConfig, fetcher: Arc<dyn AlgorithmFetcher>) -> Result<Self> {
        if config.kind != RacKind::OnDemand {
            return Err(IrecError::config(
                "new_on_demand requires an on-demand RacConfig",
            ));
        }
        Ok(Rac {
            name: config.name.as_str().into(),
            config,
            static_algorithm: None,
            fetcher: Some(fetcher),
            cache: RwLock::new(HashMap::new()),
            ignore_extensions: false,
        })
    }

    /// The RAC configuration.
    pub fn config(&self) -> &RacConfig {
        &self.config
    }

    /// The RAC's display name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The display name in the form kept selections share.
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Number of cached on-demand algorithm instantiations.
    pub fn cached_algorithms(&self) -> usize {
        self.cache.read().len()
    }

    /// Makes the RAC ignore IREC extensions (legacy control-service behaviour).
    pub fn set_ignore_extensions(&mut self, ignore: bool) {
        self.ignore_extensions = ignore;
    }

    /// Whether this RAC is an on-demand RAC.
    pub fn is_on_demand(&self) -> bool {
        self.config.kind == RacKind::OnDemand
    }

    /// Whether the RAC ignores IREC extensions (see [`Rac::set_ignore_extensions`]).
    pub fn ignores_extensions(&self) -> bool {
        self.ignore_extensions
    }

    /// Whether this RAC's selections may be kept across rounds (see
    /// [`crate::engine::SelectionTables`]). Only static RACs qualify: an on-demand RAC's
    /// algorithm identity varies per batch (it runs whatever module the PCBs reference,
    /// including fetch-failure semantics), so it always runs the full pass.
    pub fn is_cacheable(&self) -> bool {
        self.static_algorithm.is_some()
    }

    /// Whether a batch that only grew may be re-selected over *previous winners ∪
    /// arrivals*: a static RAC whose algorithm is
    /// [union-composable](RoutingAlgorithm::union_composable). HD, `<k>YEN` and ACO pick
    /// candidates in relation to each other, on-demand modules are opaque — an arrival
    /// sends all of them back to the full batch.
    pub fn extends_selections(&self) -> bool {
        self.static_algorithm
            .as_ref()
            .is_some_and(|algorithm| algorithm.union_composable())
    }

    /// Whether the execution engine may split an oversized batch of this RAC into
    /// sub-ranges: only when one more `select` over the union of the sub-range winners puts
    /// them back together exactly, which is what
    /// [union-composable](RoutingAlgorithm::union_composable) declares. Everything else —
    /// HD, `<k>YEN`, ACO, on-demand modules — gets its whole batch in one pass.
    pub fn splits_batches(&self) -> bool {
        self.extends_selections()
    }

    /// Whether this RAC requests all interface groups of an origin as one merged batch
    /// (interface-group processing disabled) rather than one batch per stored group.
    pub fn merges_groups(&self) -> bool {
        !self.config.use_interface_groups && !self.ignore_extensions
    }

    /// One periodic processing run: snapshot every relevant candidate batch from the ingress
    /// database, run the algorithm, and return the selected beacons plus accumulated timing.
    ///
    /// Outputs carry the same deterministic ordering as [`crate::engine::execute_racs`]
    /// (which supersedes this entry point inside [`crate::node::IrecNode`]): batch keys in
    /// ascending order, selections within a batch by candidate index.
    pub fn process(
        &self,
        db: &ShardedIngressDb,
        local_as: &AsNode,
        egress_ifs: &[IfId],
        now: SimTime,
    ) -> Result<(Vec<RacOutput>, RacTiming)> {
        let mut outputs = Vec::new();
        let mut timing = RacTiming::default();
        for view in self.relevant_batches(db, now) {
            let (mut batch_outputs, batch_timing) =
                self.process_candidates(&view.key, &view.beacons, local_as, egress_ifs)?;
            outputs.append(&mut batch_outputs);
            timing.accumulate(&batch_timing);
        }
        Ok((outputs, timing))
    }

    /// Snapshots the candidate batches this RAC processes, honouring its pull-based /
    /// interface-group / on-demand configuration. The returned views share the stored
    /// beacons (no deep copies) and are what the parallel execution engine distributes over
    /// its workers.
    pub fn relevant_batches(&self, db: &ShardedIngressDb, now: SimTime) -> Vec<BatchView> {
        let merge_groups = self.merges_groups();
        self.relevant_batch_keys(db)
            .into_iter()
            // With interface groups disabled the group-merged batch is snapshotted once
            // per (origin, target): `relevant_batch_keys` collapsed the keys already.
            .filter_map(|key| db.snapshot(key, merge_groups, now).0)
            .collect()
    }

    /// The keys this RAC requests candidate batches under, ascending, honouring its
    /// pull-based / interface-group / on-demand configuration: one per stored batch, or —
    /// when it [merges groups](Rac::merges_groups) — one per `(origin, target)` under the
    /// default group.
    pub(crate) fn relevant_batch_keys(&self, db: &ShardedIngressDb) -> Vec<BatchKey> {
        let mut keys: Vec<BatchKey> = db
            .batch_keys()
            .into_iter()
            .filter(|k| {
                self.config.process_pull_based || k.target.is_none() || self.ignore_extensions
            })
            .collect();
        if self.merges_groups() {
            // Collapse groups: keep one representative key per (origin, target). Sort by
            // the dedup key itself — under `BatchKey`'s full ordering (origin, group,
            // target), equal (origin, target) pairs from different groups are not adjacent
            // and `dedup_by_key` would miss them.
            keys.sort_by_key(|k| (k.origin, k.target));
            keys.dedup_by_key(|k| (k.origin, k.target));
            for k in &mut keys {
                k.group = InterfaceGroupId::DEFAULT;
            }
        }
        keys
    }

    /// Processes one already-materialized candidate set, shared by reference (taking `&self`
    /// so the parallel execution engine can run batches of one RAC concurrently). Exposed
    /// publicly because the Fig. 6 and Fig. 7 benchmarks drive a RAC directly with synthetic
    /// candidate sets of a given size |Φ|.
    pub fn process_candidates(
        &self,
        key: &BatchKey,
        beacons: &[Arc<StoredBeacon>],
        local_as: &AsNode,
        egress_ifs: &[IfId],
    ) -> Result<(Vec<RacOutput>, RacTiming)> {
        let mut timing = RacTiming {
            candidates: beacons.len(),
            ..RacTiming::default()
        };

        // -- Marshal: the candidate set crosses the gateway -> RAC process boundary. --
        let marshal_start = std::time::Instant::now();
        let wire_bytes = encode_candidates(beacons);
        let CandidateEnvelope { mut candidates } = irec_wire::from_bytes(&wire_bytes)?;
        timing.marshal = marshal_start.elapsed();

        // -- Setup: instantiate the algorithm (sandbox creation for on-demand RACs). --
        let setup_start = std::time::Instant::now();
        let algorithm: Arc<dyn RoutingAlgorithm> = match &self.config.kind {
            RacKind::Static { .. } => {
                let alg = self
                    .static_algorithm
                    .as_ref()
                    .ok_or_else(|| IrecError::internal("static RAC without an algorithm"))?;
                Arc::clone(alg)
            }
            RacKind::OnDemand => {
                // All candidates of an on-demand batch carry the same origin; the algorithm
                // reference must be present and identical (the ingress DB already groups by
                // origin, and an origin uses one algorithm per PCB).
                let Some(reference) = candidates.iter().find_map(|c| c.pcb.extensions.algorithm)
                else {
                    // Nothing to do for plain beacons — an on-demand RAC only runs algorithms
                    // shipped in PCBs.
                    return Ok((Vec::new(), timing));
                };
                self.instantiate_on_demand(key.origin, &reference)? as Arc<dyn RoutingAlgorithm>
            }
        };
        timing.setup = setup_start.elapsed();

        // An on-demand RAC that honours extensions runs only the candidates actually
        // carrying the algorithm and remembers where they sat among `beacons`; every
        // other RAC runs the batch as it was decoded.
        let index_map = (self.is_on_demand() && !self.ignore_extensions).then(|| {
            let carries = |c: &Candidate| c.pcb.extensions.algorithm.is_some();
            let kept: Vec<usize> = (0..candidates.len())
                .filter(|&index| carries(&candidates[index]))
                .collect();
            candidates.retain(carries);
            kept
        });
        if candidates.is_empty() {
            return Ok((Vec::new(), timing));
        }
        let batch = CandidateBatch {
            origin: key.origin,
            group: key.group,
            target: key.target,
            candidates,
        };

        // -- Execute: run the algorithm over the candidate set. --
        let ctx = AlgorithmContext::new(local_as, egress_ifs.to_vec(), self.config.max_selected)
            .with_extended_paths(self.config.extend_paths);
        let execute_start = std::time::Instant::now();
        let selection = algorithm.select(&batch, &ctx)?;
        timing.execute = execute_start.elapsed();

        let outputs = self.outputs_from_selection(key, beacons, index_map.as_deref(), selection);
        Ok((outputs, timing))
    }

    /// Inverts a per-egress selection into per-beacon [`RacOutput`]s, ordered by candidate
    /// index. `index_map`, where the algorithm saw a filtered batch, maps its candidate
    /// indices back to positions in `beacons`; each output shares the stored beacon at that
    /// position.
    fn outputs_from_selection(
        &self,
        key: &BatchKey,
        beacons: &[Arc<StoredBeacon>],
        index_map: Option<&[usize]>,
        selection: irec_algorithms::SelectionResult,
    ) -> Vec<RacOutput> {
        // (candidate, egress) pairs, grouped by candidate. The sort is stable and the
        // selection lists egress interfaces in ascending order, so each candidate's
        // interfaces stay ascending; every list is allocated once, at its final size —
        // outputs are kept across rounds (see `crate::engine::SelectionTables`).
        let mut pairs: Vec<(usize, IfId)> = selection
            .per_egress
            .iter()
            .flat_map(|(egress, selected)| selected.iter().map(move |&idx| (idx, *egress)))
            .collect();
        pairs.sort_by_key(|&(local_idx, _)| local_idx);
        pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let candidate_index = index_map.map_or(group[0].0, |map| map[group[0].0]);
                RacOutput {
                    rac_name: self.config.name.clone(),
                    origin: key.origin,
                    group: key.group,
                    beacon: Arc::clone(&beacons[candidate_index]),
                    candidate_index,
                    egress_ifs: group.iter().map(|&(_, egress)| egress).collect(),
                }
            })
            .collect()
    }

    /// Fetch → size check → hash verify → validate → cache an on-demand algorithm.
    ///
    /// The cache lives behind an `RwLock` so concurrent batches of the same RAC can share
    /// instantiations. The cold path holds the write lock across fetch + verify +
    /// instantiation: that is what actually keeps the paper's "instantiate once per
    /// (origin, algorithm ID)" property under contention — a worker racing past the
    /// read-side check re-checks under the write lock and finds the winner's entry instead
    /// of redoing the expensive sandbox setup. (Lock order is strictly `cache` →
    /// fetcher-internal locks; nothing locks in the reverse direction.)
    fn instantiate_on_demand(
        &self,
        origin: AsId,
        reference: &AlgorithmRef,
    ) -> Result<Arc<IrvmAlgorithm>> {
        if let Some(cached) = self.cache.read().get(&(origin, reference.id)) {
            return Ok(Arc::clone(cached));
        }
        let mut cache = self.cache.write();
        if let Some(cached) = cache.get(&(origin, reference.id)) {
            return Ok(Arc::clone(cached));
        }
        let fetcher = self
            .fetcher
            .as_ref()
            .ok_or_else(|| IrecError::config("on-demand RAC has no algorithm fetcher"))?;
        let bytes = fetcher.fetch(origin, reference)?;
        if bytes.len() > MAX_EXECUTABLE_BYTES {
            return Err(IrecError::resource_limit(format!(
                "fetched executable is {} bytes, limit is {MAX_EXECUTABLE_BYTES}",
                bytes.len()
            )));
        }
        if !reference.matches(&bytes) {
            return Err(IrecError::verification(
                "fetched executable does not match the hash pinned in the PCB",
            ));
        }
        let algorithm = Arc::new(IrvmAlgorithm::from_module_bytes(
            &bytes,
            irec_irvm::ExecutionLimits::ON_DEMAND_RAC,
        )?);
        cache.insert((origin, reference.id), Arc::clone(&algorithm));
        Ok(algorithm)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
    use irec_topology::{Interface, Tier};
    use irec_types::{Bandwidth, GeoCoord, Latency, LinkId, SimDuration};

    fn registry() -> KeyRegistry {
        KeyRegistry::with_ases(11, 128)
    }

    fn local_as() -> AsNode {
        let mut node = AsNode::new(AsId(50), Tier::Tier2);
        for i in 1..=3u32 {
            node.interfaces.insert(
                IfId(i),
                Interface {
                    id: IfId(i),
                    owner: node.id,
                    location: GeoCoord::new(47.0 + i as f64, 8.0),
                    link: LinkId(i as u64),
                },
            );
        }
        node
    }

    fn beacon(
        reg: &KeyRegistry,
        origin: u64,
        hops: &[(u64, u64)],
        extensions: PcbExtensions,
    ) -> Pcb {
        let mut pcb = Pcb::originate(
            AsId(origin),
            rand_seq(origin, hops),
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            extensions,
        );
        for (i, (lat, bw)) in hops.iter().enumerate() {
            let asn = if i == 0 {
                AsId(origin)
            } else {
                AsId(origin + i as u64 * 10)
            };
            let info = StaticInfo {
                link_latency: Latency::from_millis(*lat),
                link_bandwidth: Bandwidth::from_mbps(*bw),
                intra_latency: Latency::ZERO,
                egress_location: None,
            };
            let ingress = if i == 0 { IfId::NONE } else { IfId(1) };
            pcb.extend(ingress, IfId(2), info, &Signer::new(asn, reg.clone()))
                .unwrap();
        }
        pcb
    }

    fn rand_seq(origin: u64, hops: &[(u64, u64)]) -> u64 {
        origin
            .wrapping_mul(31)
            .wrapping_add(hops.iter().map(|(a, b)| a * 7 + b).sum::<u64>())
    }

    fn ingress_db_with(beacons: Vec<(Pcb, u32)>) -> ShardedIngressDb {
        let db = ShardedIngressDb::new(3);
        for (pcb, ingress) in beacons {
            db.insert(pcb, IfId(ingress), SimTime::ZERO);
        }
        db
    }

    #[test]
    fn static_rac_selects_per_egress() {
        let reg = registry();
        let db = ingress_db_with(vec![
            (
                beacon(&reg, 1, &[(10, 10), (10, 10)], PcbExtensions::none()),
                1,
            ),
            (beacon(&reg, 1, &[(5, 100)], PcbExtensions::none()), 2),
        ]);
        let rac = Rac::new_static(RacConfig::static_rac("1SP", "1SP")).unwrap();
        let node = local_as();
        let (outputs, timing) = rac
            .process(&db, &node, &[IfId(1), IfId(2), IfId(3)], SimTime::ZERO)
            .unwrap();
        // 1SP picks, per egress interface, the shortest eligible beacon. The 1-hop beacon
        // arrived on if2, so it wins on if1 and if3; on if2 only the 2-hop beacon is
        // eligible (a beacon never goes back out of its ingress interface).
        assert_eq!(outputs.len(), 2);
        let short = outputs
            .iter()
            .find(|o| o.beacon.pcb.path_metrics().hops == 1)
            .unwrap();
        assert_eq!(short.egress_ifs, vec![IfId(1), IfId(3)]);
        let long = outputs
            .iter()
            .find(|o| o.beacon.pcb.path_metrics().hops == 2)
            .unwrap();
        assert_eq!(long.egress_ifs, vec![IfId(2)]);
        assert_eq!(short.rac_name, "1SP");
        assert!(timing.candidates >= 2);
        assert!(timing.total() >= timing.execute);
    }

    #[test]
    fn static_rac_skips_pull_based_batches_unless_enabled() {
        let reg = registry();
        let pull = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_target(AsId(50)),
        );
        let db = ingress_db_with(vec![(pull, 1)]);
        let node = local_as();

        let plain = Rac::new_static(RacConfig::static_rac("1SP", "1SP")).unwrap();
        let (outputs, _) = plain
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap();
        assert!(outputs.is_empty());

        let pull_enabled =
            Rac::new_static(RacConfig::static_rac("1SP", "1SP").with_pull_based(true)).unwrap();
        let (outputs, _) = pull_enabled
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap();
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn interface_groups_split_or_merge_batches() {
        let reg = registry();
        let g1 = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_interface_group(InterfaceGroupId(1)),
        );
        let g2 = beacon(
            &reg,
            1,
            &[(20, 10)],
            PcbExtensions::none().with_interface_group(InterfaceGroupId(2)),
        );
        let db = ingress_db_with(vec![(g1, 1), (g2, 1)]);
        let node = local_as();

        // Group-aware RAC: one selection per group => both beacons selected by 1SP.
        let grouped =
            Rac::new_static(RacConfig::static_rac("1SP", "1SP").with_interface_groups(true))
                .unwrap();
        let (outputs, _) = grouped
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap();
        assert_eq!(outputs.len(), 2);

        // Group-oblivious RAC: groups merged, 1SP keeps only the single shortest beacon.
        let merged = Rac::new_static(RacConfig::static_rac("1SP", "1SP")).unwrap();
        let (outputs, _) = merged
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap();
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn group_collapse_processes_each_merged_batch_exactly_once() {
        // Regression: with interface groups disabled, a pull-enabled RAC facing an origin
        // whose beacons span several groups *and* both targeted/untargeted batches must
        // merge down to one batch per (origin, target). The old collapse sorted by the full
        // BatchKey ordering (origin, group, target), under which equal (origin, target)
        // pairs from different groups are not adjacent, so dedup missed them and the merged
        // batch was processed once per group.
        let reg = registry();
        let mk = |seq_latency: u64, group: u32, target: Option<u64>| {
            let mut ext = PcbExtensions::none().with_interface_group(InterfaceGroupId(group));
            if let Some(t) = target {
                ext = ext.with_target(AsId(t));
            }
            beacon(&reg, 1, &[(seq_latency, 10)], ext)
        };
        let db = ingress_db_with(vec![
            (mk(10, 1, None), 1),
            (mk(20, 2, None), 1),
            (mk(30, 1, Some(50)), 1),
            (mk(40, 2, Some(50)), 1),
        ]);
        let rac =
            Rac::new_static(RacConfig::static_rac("1SP", "1SP").with_pull_based(true)).unwrap();
        let batches = rac.relevant_batches(&db, SimTime::ZERO);
        assert_eq!(batches.len(), 2, "one merged batch per (origin, target)");
        let node = local_as();
        let (outputs, timing) = rac.process(&db, &node, &[IfId(2)], SimTime::ZERO).unwrap();
        // Each of the four beacons crosses the marshal boundary exactly once...
        assert_eq!(timing.candidates, 4);
        // ...and 1SP selects one shortest beacon per merged batch, with no duplicates.
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn on_demand_rac_fetches_verifies_caches_and_runs() {
        let reg = registry();
        let store = SharedAlgorithmStore::new();
        let program = irec_irvm::programs::widest_path(5);
        let reference = store.publish(AsId(1), AlgorithmId(7), program.to_module_bytes());

        let thin = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_algorithm(reference),
        );
        let wide = beacon(
            &reg,
            1,
            &[(10, 1000)],
            PcbExtensions::none().with_algorithm(reference),
        );
        let plain = beacon(&reg, 1, &[(1, 1)], PcbExtensions::none());
        let db = ingress_db_with(vec![(thin, 1), (wide, 1), (plain, 1)]);
        let node = local_as();

        let rac =
            Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(store.clone())).unwrap();
        let (outputs, timing) = rac.process(&db, &node, &[IfId(2)], SimTime::ZERO).unwrap();
        // Both algorithm-carrying beacons are selectable; the widest ranks first, and the
        // plain beacon is never processed by the on-demand RAC.
        assert_eq!(outputs.len(), 2);
        assert!(outputs
            .iter()
            .all(|o| o.beacon.pcb.extensions.algorithm.is_some()));
        assert_eq!(rac.cached_algorithms(), 1);
        assert!(timing.setup > Duration::ZERO);

        // Second run hits the cache (still exactly one cached instantiation).
        let (_, _) = rac.process(&db, &node, &[IfId(2)], SimTime::ZERO).unwrap();
        assert_eq!(rac.cached_algorithms(), 1);
    }

    #[test]
    fn on_demand_rejects_hash_mismatch() {
        let reg = registry();
        let store = SharedAlgorithmStore::new();
        let program = irec_irvm::programs::lowest_latency(5);
        // Publish one module but reference a different hash in the PCB.
        store.publish(AsId(1), AlgorithmId(7), program.to_module_bytes());
        let bogus_ref = AlgorithmRef::new(AlgorithmId(7), irec_crypto::sha256(b"something else"));
        let pcb = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_algorithm(bogus_ref),
        );
        let db = ingress_db_with(vec![(pcb, 1)]);
        let node = local_as();
        let rac = Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(store)).unwrap();
        let err = rac
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.category(), "verification");
        assert_eq!(rac.cached_algorithms(), 0);
    }

    #[test]
    fn on_demand_rejects_oversized_executable() {
        struct HugeFetcher;
        impl AlgorithmFetcher for HugeFetcher {
            fn fetch(&self, _origin: AsId, _r: &AlgorithmRef) -> Result<Vec<u8>> {
                Ok(vec![0u8; MAX_EXECUTABLE_BYTES + 1])
            }
        }
        let reg = registry();
        let reference = AlgorithmRef::new(AlgorithmId(1), irec_crypto::sha256(b"x"));
        let pcb = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_algorithm(reference),
        );
        let db = ingress_db_with(vec![(pcb, 1)]);
        let node = local_as();
        let rac =
            Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(HugeFetcher)).unwrap();
        let err = rac
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.category(), "resource-limit");
    }

    #[test]
    fn on_demand_rejects_unknown_algorithm() {
        let reg = registry();
        let store = SharedAlgorithmStore::new();
        let reference = AlgorithmRef::new(AlgorithmId(99), irec_crypto::sha256(b"y"));
        let pcb = beacon(
            &reg,
            1,
            &[(10, 10)],
            PcbExtensions::none().with_algorithm(reference),
        );
        let db = ingress_db_with(vec![(pcb, 1)]);
        let node = local_as();
        let rac = Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(store)).unwrap();
        let err = rac
            .process(&db, &node, &[IfId(2)], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.category(), "not-found");
    }

    #[test]
    fn config_kind_mismatch_is_rejected() {
        assert!(Rac::new_static(RacConfig::on_demand_rac("od")).is_err());
        let store: Arc<dyn AlgorithmFetcher> = Arc::new(SharedAlgorithmStore::new());
        assert!(Rac::new_on_demand(RacConfig::static_rac("x", "1SP"), store).is_err());
        assert!(Rac::new_static(RacConfig::static_rac("x", "no-such-algorithm")).is_err());
    }

    #[test]
    fn process_candidates_reports_timing_components() {
        let reg = registry();
        let beacons: Vec<Arc<StoredBeacon>> = (0..32)
            .map(|i| {
                Arc::new(StoredBeacon {
                    pcb: beacon(&reg, 1, &[(10 + i, 100)], PcbExtensions::none()),
                    ingress: IfId(1),
                    received_at: SimTime::ZERO,
                })
            })
            .collect();
        let rac = Rac::new_static(RacConfig::static_rac("legacy", "legacy-scion")).unwrap();
        let node = local_as();
        let key = BatchKey {
            origin: AsId(1),
            group: InterfaceGroupId::DEFAULT,
            target: None,
        };
        let (outputs, timing) = rac
            .process_candidates(&key, &beacons, &node, &[IfId(2), IfId(3)])
            .unwrap();
        assert_eq!(timing.candidates, 32);
        assert!(timing.marshal > Duration::ZERO);
        assert!(!outputs.is_empty());
        // legacy-scion keeps at most 20 per egress.
        assert!(outputs.len() <= 32);
        // Outputs share the caller's beacons — no clone of the decoded candidate — and
        // say which candidate they are.
        for output in &outputs {
            assert!(Arc::ptr_eq(
                &output.beacon,
                &beacons[output.candidate_index]
            ));
        }
    }

    #[test]
    fn candidate_envelope_round_trips_and_bounds_hostile_counts() {
        let reg = registry();
        let beacons: Vec<Arc<StoredBeacon>> = (0..5)
            .map(|i| {
                let mut pcb = beacon(&reg, 1, &[(10 + i, 100), (5, 50)], PcbExtensions::none());
                // Every beacon the simulator makes carries the location of its egress
                // interface, on the wire's micro-degree grid: it must come back as it went.
                if i % 2 == 0 {
                    let info = StaticInfo {
                        link_latency: Latency::from_millis(3),
                        link_bandwidth: Bandwidth::from_mbps(10),
                        intra_latency: Latency::from_micros(400),
                        egress_location: Some(GeoCoord::new(0.123456, -151.2093 + i as f64)),
                    };
                    pcb.extend(IfId(1), IfId(2), info, &Signer::new(AsId(77), reg.clone()))
                        .unwrap();
                }
                Arc::new(StoredBeacon {
                    pcb,
                    ingress: IfId(1 + i as u32),
                    received_at: SimTime::ZERO,
                })
            })
            .collect();
        let bytes = encode_candidates(&beacons);
        let envelope: CandidateEnvelope = irec_wire::from_bytes(&bytes).unwrap();
        assert_eq!(envelope.candidates.len(), beacons.len());
        for (candidate, stored) in envelope.candidates.iter().zip(&beacons) {
            assert_eq!(candidate.pcb, stored.pcb);
            assert_eq!(candidate.ingress, stored.ingress);
        }
        // A count the input cannot back fails at the first missing candidate, having
        // reserved nothing for the rest; a count beyond the cap fails outright.
        for claimed in [1_000_000u64, 1_000_001, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(claimed);
            assert!(irec_wire::from_bytes::<CandidateEnvelope>(w.as_slice()).is_err());
        }
    }

    #[test]
    fn shared_store_publish_and_fetch() {
        let store = SharedAlgorithmStore::new();
        assert!(store.is_empty());
        let module = irec_irvm::programs::lowest_latency(3).to_module_bytes();
        let reference = store.publish(AsId(4), AlgorithmId(2), module.clone());
        assert_eq!(store.len(), 1);
        let fetched = store.fetch(AsId(4), &reference).unwrap();
        assert_eq!(fetched, module);
        assert!(reference.matches(&fetched));
        assert!(store.fetch(AsId(5), &reference).is_err());
    }
}
