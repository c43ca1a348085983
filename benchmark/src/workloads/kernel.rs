//! `rac_kernel`: the modelled system's own latency and throughput (paper Fig. 6–7), with no
//! simulation around it. Three fixed-count loops over seeded candidate sets:
//!
//! * (a) the Fig. 6 on-demand RAC — the IRVM `shortest_path(20)` module fetched through a
//!   `SharedAlgorithmStore`, hash-checked, cached, run over a tagged, signed set of |Φ|;
//! * (b) the native `KShortestPaths::legacy_scion()` on the same set — the oracle for (a):
//!   both must select the same beacons for the same egress interfaces;
//! * (c) `execute_racs` with `{1SP, 5SP, DO, widest}` over several origin batches (Fig. 7
//!   shape); its selections must be identical from pass to pass.
//!
//! It bypasses delivery, ingress, egress and the round driver entirely, so a change to the
//! simulator alone must show no change here, while wire, marshalling and IRVM work shows
//! at full strength. The traced pass additionally times the leaf kernels the layers above
//! are built from.

use super::{ns, Layers, Pass, TracedPass};
use crate::digest::digest_of;
use crate::trace::{Recorder, NO_PARENT};
use crate::{gen, host};
use irec_algorithms::score::KShortestPaths;
use irec_algorithms::{catalog, AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm};
use irec_core::beacon_db::BatchKey;
use irec_core::{
    execute_racs, NodeConfig, Rac, RacConfig, RacOutput, RacTiming, RegisteredPath,
    ShardedIngressDb, ShardedPathService, SharedAlgorithmStore, StoredBeacon,
};
use irec_crypto::{KeyRegistry, Signer, Verifier};
use irec_irvm::{CandidateView, ExecutionLimits, Interpreter};
use irec_pcb::{Pcb, StaticInfo};
use irec_topology::AsNode;
use irec_types::{
    AlgorithmId, AsId, Bandwidth, IfId, InterfaceGroupId, IrecError, Latency, Result, SimTime,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Size {
    /// |Φ| of loops (a) and (b).
    pub phi: usize,
    pub od_passes: usize,
    pub native_passes: usize,
    /// |Φ| per origin batch of loop (c).
    pub engine_phi: usize,
    pub engine_origins: usize,
    pub engine_passes: usize,
    /// Upper bound on the operations timed per leaf kernel.
    pub leaf_iterations: usize,
}

/// The origin of the on-demand candidate set.
const OD_ORIGIN: AsId = AsId(1);
/// Per-egress selection budget of loops (a) and (b): the legacy SCION value.
const BUDGET: usize = 20;
/// A leaf kernel stops after this long even if it has iterations left.
const LEAF_BUDGET: Duration = Duration::from_millis(100);

/// Everything the loops run over, built during set-up.
struct Bench {
    seed: u64,
    registry: KeyRegistry,
    local_as: AsNode,
    egress: Vec<IfId>,
    od_key: BatchKey,
    od_rac: Rac,
    od_candidates: Vec<Arc<StoredBeacon>>,
    native: KShortestPaths,
    native_batch: CandidateBatch,
    engine_racs: Vec<Rac>,
    engine_db: ShardedIngressDb,
    engine_origins: Vec<AsId>,
    parallelism: usize,
}

fn batch_key(origin: AsId) -> BatchKey {
    BatchKey {
        origin,
        group: InterfaceGroupId::DEFAULT,
        target: None,
    }
}

fn batch_of(origin: AsId, beacons: &[Arc<StoredBeacon>]) -> CandidateBatch {
    CandidateBatch::new(
        origin,
        InterfaceGroupId::DEFAULT,
        beacons
            .iter()
            .map(|b| Candidate::new(b.pcb.clone(), b.ingress))
            .collect(),
    )
}

impl Bench {
    /// Candidate signing, algorithm publication, database fill and one cache-filling pass
    /// of each loop — what a RAC pays once, not per pass.
    fn set_up(seed: u64, size: &Size) -> Result<Bench> {
        let registry = KeyRegistry::new(seed);
        let local_as = gen::kernel_local_as();
        let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
        let defaults = NodeConfig::default();

        let store = SharedAlgorithmStore::new();
        let module = irec_irvm::programs::shortest_path(BUDGET as u32).to_module_bytes();
        let reference = store.publish(OD_ORIGIN, AlgorithmId(1), module);
        let od_rac = Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(store))?;
        let od_candidates = gen::candidates(OD_ORIGIN, size.phi, seed, &registry, Some(reference));
        let native_batch = batch_of(OD_ORIGIN, &od_candidates);

        let engine_racs = ["1SP", "5SP", "DO", "widest"]
            .into_iter()
            .map(|name| Rac::new_static(RacConfig::static_rac(name, name)))
            .collect::<Result<Vec<_>>>()?;
        let engine_db = ShardedIngressDb::new(defaults.ingress_shard_count());
        let engine_origins: Vec<AsId> = (0..size.engine_origins as u64)
            .map(|index| AsId(1_000 + index * 100))
            .collect();
        for &origin in &engine_origins {
            for stored in gen::candidates(origin, size.engine_phi, seed, &registry, None) {
                engine_db.insert(stored.pcb.clone(), stored.ingress, stored.received_at);
            }
        }

        let bench = Bench {
            seed,
            registry,
            local_as,
            egress,
            od_key: batch_key(OD_ORIGIN),
            od_rac,
            od_candidates,
            native: KShortestPaths::legacy_scion(),
            native_batch,
            engine_racs,
            engine_db,
            engine_origins,
            parallelism: defaults.parallelism,
        };
        bench.od_pass()?;
        bench.engine_pass()?;
        Ok(bench)
    }

    fn od_pass(&self) -> Result<(Vec<RacOutput>, RacTiming)> {
        self.od_rac.process_candidates(
            &self.od_key,
            &self.od_candidates,
            &self.local_as,
            &self.egress,
        )
    }

    fn native_context(&self) -> AlgorithmContext<'_> {
        AlgorithmContext::new(&self.local_as, self.egress.clone(), BUDGET)
    }

    fn engine_pass(&self) -> Result<(Vec<RacOutput>, RacTiming)> {
        execute_racs(
            &self.engine_racs,
            &self.engine_db,
            &self.local_as,
            &self.egress,
            SimTime::ZERO,
            self.parallelism,
        )
    }
}

/// Which beacons (by sequence number) were selected for which egress interface.
type Selection = BTreeMap<IfId, BTreeSet<u64>>;

fn selection_of_outputs(outputs: &[RacOutput]) -> Selection {
    let mut selection = Selection::new();
    for output in outputs {
        for egress in &output.egress_ifs {
            selection
                .entry(*egress)
                .or_default()
                .insert(output.beacon.pcb.sequence);
        }
    }
    selection
}

/// FNV-1a over what an engine pass selected; cheap enough to take after every pass.
fn outputs_fingerprint(outputs: &[RacOutput]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for output in outputs {
        output.rac_name.bytes().for_each(|b| mix(u64::from(b)));
        mix(output.origin.value());
        mix(output.beacon.pcb.sequence);
        mix(u64::from(output.beacon.ingress.value()));
        output
            .egress_ifs
            .iter()
            .for_each(|e| mix(u64::from(e.value())));
        mix(u64::MAX);
    }
    hash
}

/// The `q`-quantile of `samples` (nearest rank).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What the three loops measured.
struct Loops {
    wall_s: f64,
    od_us: Vec<f64>,
    native_us: Vec<f64>,
    engine_ms: Vec<f64>,
    /// Σ `RacTiming` of loops (a) and (c).
    rac: RacTiming,
    /// Candidates one engine pass evaluates (RACs × origins × |Φ|).
    engine_candidates: usize,
    failed: u64,
    digest: String,
}

fn run_loops(bench: &Bench, size: &Size, rec: &mut Recorder) -> Result<Loops> {
    let mut rac = RacTiming::default();
    let mut failed = 0u64;
    let window = Instant::now();

    // (a) the on-demand RAC.
    let span = rec.open("kernel.od_loop", NO_PARENT, 0, 0);
    let mut od_us = Vec::with_capacity(size.od_passes);
    let mut od_selection = Selection::new();
    for pass in 0..size.od_passes {
        let started = Instant::now();
        let (outputs, timing) = bench.od_pass()?;
        od_us.push(started.elapsed().as_secs_f64() * 1e6);
        rac.accumulate(&timing);
        if pass == 0 {
            od_selection = selection_of_outputs(&outputs);
        }
        black_box(outputs);
    }
    rec.close(span);

    // (b) the native selection on the same set.
    let span = rec.open("kernel.native_loop", NO_PARENT, 0, 0);
    let context = bench.native_context();
    let mut native_us = Vec::with_capacity(size.native_passes);
    let mut native_selection = Selection::new();
    for pass in 0..size.native_passes {
        let started = Instant::now();
        let result = bench
            .native
            .select(black_box(&bench.native_batch), &context)?;
        native_us.push(started.elapsed().as_secs_f64() * 1e6);
        if pass == 0 {
            for (egress, indices) in &result.per_egress {
                // Candidate `i` of the generated set carries sequence number `i`.
                let picked: BTreeSet<u64> = indices.iter().map(|i| *i as u64).collect();
                if !picked.is_empty() {
                    native_selection.insert(*egress, picked);
                }
            }
        }
        black_box(result);
    }
    rec.close(span);
    if od_selection != native_selection || od_selection.is_empty() {
        // The oracle disagrees: nothing either loop measured can be trusted.
        failed += (size.od_passes + size.native_passes) as u64;
    }

    // (c) the engine over several origin batches and RACs.
    let span = rec.open("kernel.engine_loop", NO_PARENT, 0, 0);
    let mut engine_ms = Vec::with_capacity(size.engine_passes);
    let mut engine_candidates = 0;
    let mut first_fingerprint = None;
    for _ in 0..size.engine_passes {
        let started = Instant::now();
        let (outputs, timing) = bench.engine_pass()?;
        engine_ms.push(started.elapsed().as_secs_f64() * 1e3);
        rac.accumulate(&timing);
        engine_candidates = timing.candidates;
        let fingerprint = outputs_fingerprint(&outputs);
        if *first_fingerprint.get_or_insert(fingerprint) != fingerprint || outputs.is_empty() {
            failed += 1;
        }
        black_box(outputs);
    }
    rec.close(span);

    Ok(Loops {
        wall_s: window.elapsed().as_secs_f64(),
        od_us,
        native_us,
        engine_ms,
        rac,
        engine_candidates,
        failed,
        digest: digest_of(&[
            format!("{od_selection:?}"),
            format!("{native_selection:?}"),
            format!("{first_fingerprint:?}"),
        ]),
    })
}

fn loop_layers(layers: &mut Layers, loops: &Loops) {
    layers.insert("rac_od_p50_us", quantile(&loops.od_us, 0.5));
    layers.insert("core.rac.od_p99_us", quantile(&loops.od_us, 0.99));
    layers.insert("rac_native_p50_us", quantile(&loops.native_us, 0.5));
    layers.insert(
        "engine_cands_per_s",
        loops.engine_candidates as f64 / (quantile(&loops.engine_ms, 0.5) / 1e3),
    );
    layers.insert("core.rac.setup_ns", ns(loops.rac.setup));
    layers.insert("core.rac.marshal_ns", ns(loops.rac.marshal));
    layers.insert("core.rac.execute_ns", ns(loops.rac.execute));
    layers.insert("core.rac.candidates", loops.rac.candidates as f64);
}

pub fn pass(seed: u64, size: &Size) -> Result<Pass> {
    let setup = Instant::now();
    let bench = Bench::set_up(seed, size)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let rss_after_setup_mb = host::rss_mb();

    let loops = run_loops(&bench, size, &mut Recorder::new())?;
    let mut layers = Layers::new();
    loop_layers(&mut layers, &loops);
    Ok(Pass {
        setup_s,
        wall_s: loops.wall_s,
        // One engine pass is what one node's RAC phase costs per round at this shape.
        steps_ms: loops.engine_ms,
        failed: loops.failed,
        digest: loops.digest,
        layers,
        rss_after_setup_mb,
    })
}

pub fn traced_pass(seed: u64, size: &Size) -> Result<TracedPass> {
    let bench = Bench::set_up(seed, size)?;
    let mut rec = Recorder::new();
    let loops = run_loops(&bench, size, &mut rec)?;
    let mut layers = Layers::new();
    loop_layers(&mut layers, &loops);
    leaf_kernels(&mut layers, &bench, size, &mut rec)?;
    Ok(TracedPass {
        wall_s: loops.wall_s,
        failed: loops.failed,
        digest: loops.digest,
        layers,
        budget_share: None,
        recorder: rec,
    })
}

/// Times `op` for up to `iterations` operations or [`LEAF_BUDGET`], whichever ends first,
/// and returns nanoseconds per operation.
fn per_op_ns(
    rec: &mut Recorder,
    name: &'static str,
    iterations: usize,
    mut op: impl FnMut(usize),
) -> f64 {
    let span = rec.open(name, NO_PARENT, 0, 0);
    let started = Instant::now();
    let mut done = 0usize;
    while done < iterations.max(1) {
        op(done);
        done += 1;
        if done.is_multiple_of(16) && started.elapsed() > LEAF_BUDGET {
            break;
        }
    }
    let per_op = started.elapsed().as_nanos() as f64 / done as f64;
    rec.close(span);
    per_op
}

/// The leaf operations the layers are built from, over the same candidate sets. Multiply
/// by the traced counts to predict a layer's share before touching it.
fn leaf_kernels(layers: &mut Layers, bench: &Bench, size: &Size, rec: &mut Recorder) -> Result<()> {
    let n = size.leaf_iterations;
    let pcbs: Vec<&Pcb> = bench.od_candidates.iter().map(|b| &b.pcb).collect();
    let pcb = |i: usize| pcbs[i % pcbs.len()];

    let signer = Signer::new(OD_ORIGIN, bench.registry.clone());
    let verifier = Verifier::new(bench.registry.clone());
    let message = [0x5au8; 256];
    let signature = signer.sign(&message);
    layers.insert(
        "crypto.sign_ns",
        per_op_ns(rec, "crypto.sign", n, |_| {
            black_box(signer.sign(black_box(&message)));
        }),
    );
    layers.insert(
        "crypto.verify_ns",
        per_op_ns(rec, "crypto.verify", n, |_| {
            black_box(verifier.verify(black_box(&message), &signature)).ok();
        }),
    );
    let block = vec![0xa5u8; 64 * 1024];
    let sha_ns = per_op_ns(rec, "crypto.sha256", n, |_| {
        black_box(irec_crypto::sha256(black_box(&block)));
    });
    // bytes per ns × 1e3 = MB/s.
    layers.insert("crypto.sha256_mb_s", block.len() as f64 / sha_ns * 1e3);

    layers.insert(
        "wire.pcb_encode_ns",
        per_op_ns(rec, "wire.pcb_encode", n, |i| {
            black_box(irec_wire::to_bytes(pcb(i)));
        }),
    );
    let encoded: Vec<Vec<u8>> = pcbs.iter().map(|p| irec_wire::to_bytes(*p)).collect();
    layers.insert(
        "wire.pcb_decode_ns",
        per_op_ns(rec, "wire.pcb_decode", n, |i| {
            black_box(irec_wire::from_bytes::<Pcb>(&encoded[i % encoded.len()])).ok();
        }),
    );
    layers.insert(
        "pcb.digest_ns",
        per_op_ns(rec, "pcb.digest", n, |i| {
            black_box(pcb(i).digest());
        }),
    );
    // Clone + extend, as the egress gateway does for every propagated beacon.
    let local_signer = Signer::new(gen::KERNEL_LOCAL_AS, bench.registry.clone());
    let info = StaticInfo {
        link_latency: Latency::from_micros(5_000),
        link_bandwidth: Bandwidth::from_mbps(1_000),
        intra_latency: Latency::from_micros(200),
        egress_location: None,
    };
    layers.insert(
        "pcb.extend_ns",
        per_op_ns(rec, "pcb.extend", n, |i| {
            let mut extended = pcb(i).clone();
            extended.extend(IfId(1), IfId(2), info, &local_signer).ok();
            black_box(extended);
        }),
    );
    layers.insert(
        "pcb.verify_ns",
        per_op_ns(rec, "pcb.verify", n, |i| {
            black_box(pcb(i).verify(&verifier)).ok();
        }),
    );

    let interpreter = Interpreter::new(
        irec_irvm::programs::shortest_path(BUDGET as u32),
        ExecutionLimits::ON_DEMAND_RAC,
    )?;
    let views: Vec<CandidateView> = pcbs
        .iter()
        .enumerate()
        .map(|(i, p)| CandidateView::new(i as u64, p.path_metrics(), p.link_keys()))
        .collect();
    let (mut instructions, mut evaluated) = (0u64, 0u64);
    layers.insert(
        "irvm.exec_ns_per_candidate",
        per_op_ns(rec, "irvm.exec", n, |i| {
            if let Ok((verdict, stats)) = interpreter.evaluate(&views[i % views.len()]) {
                instructions += stats.instructions;
                evaluated += 1;
                black_box(verdict);
            }
        }),
    );
    layers.insert(
        "irvm.instructions_per_candidate",
        instructions as f64 / evaluated.max(1) as f64,
    );

    // The static algorithms over one engine-sized batch.
    let origin = *bench
        .engine_origins
        .first()
        .ok_or_else(|| IrecError::config("the kernel workload needs at least one origin"))?;
    let view = bench
        .engine_db
        .batch_view(&batch_key(origin), SimTime::ZERO)
        .ok_or_else(|| IrecError::internal("engine database holds no batch for its origin"))?;
    let batch = batch_of(origin, &view.beacons);
    let context = bench.native_context();
    for (metric, name) in [
        ("algorithms.select_ns.1SP", "1SP"),
        ("algorithms.select_ns.5SP", "5SP"),
        ("algorithms.select_ns.HD", "HD"),
        ("algorithms.select_ns.DO", "DO"),
    ] {
        let algorithm = catalog::by_name(name)?;
        layers.insert(
            metric,
            per_op_ns(rec, metric, n, |_| {
                black_box(algorithm.select(black_box(&batch), &context)).ok();
            }),
        );
    }

    // Inserts of distinct beacons only: a duplicate takes the dedup path instead.
    let defaults = NodeConfig::default();
    let db = ShardedIngressDb::new(defaults.ingress_shard_count());
    let mut fresh: Vec<Option<Pcb>> = view
        .beacons
        .iter()
        .map(|b| Some(b.pcb.clone()))
        .chain(pcbs.iter().map(|p| Some((*p).clone())))
        .collect();
    let distinct = fresh.len();
    layers.insert(
        "core.beacon_db.insert_ns",
        per_op_ns(rec, "core.beacon_db.insert", n.min(distinct), |i| {
            if let Some(fresh_pcb) = fresh[i].take() {
                black_box(db.insert(fresh_pcb, IfId(1), SimTime::ZERO));
            }
        }),
    );
    layers.insert(
        "core.beacon_db.batch_view_ns",
        per_op_ns(rec, "core.beacon_db.batch_view", n, |_| {
            black_box(
                bench
                    .engine_db
                    .batch_view(&batch_key(origin), SimTime::ZERO),
            );
        }),
    );

    // Clone + register; after the first round over the set every registration is a refresh.
    let service = ShardedPathService::new(defaults.path_shard_count());
    let paths: Vec<RegisteredPath> = view
        .beacons
        .iter()
        .map(|b| RegisteredPath {
            pcb_id: b.pcb.digest(),
            destination: b.pcb.origin,
            destination_interface: b.pcb.origin_interface().unwrap_or(IfId::NONE),
            local_interface: b.ingress,
            algorithm: "bench".to_string(),
            group: InterfaceGroupId::DEFAULT,
            metrics: b.pcb.path_metrics(),
            links: b.pcb.link_keys(),
            registered_at: SimTime::ZERO,
        })
        .collect();
    layers.insert(
        "core.path_service.register_ns",
        per_op_ns(rec, "core.path_service.register", n, |i| {
            service.register(paths[i % paths.len()].clone());
        }),
    );

    layers.insert(
        "topology.generate_ns",
        per_op_ns(rec, "topology.generate", n, |i| {
            black_box(gen::topology(40, bench.seed.wrapping_add(i as u64)));
        }),
    );
    Ok(())
}
