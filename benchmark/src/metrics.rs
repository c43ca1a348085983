//! The metric tables: every name the benchmark emits, with its unit, its direction and —
//! for a per-layer metric — the end-to-end metric it should move and where. The tables
//! mirror `BENCHMARK.json`; `tests/smoke.rs` fails when the two drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, gated by a regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A metric of a single layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this one should move, written down before
    /// measuring.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// Emitted by every workload with `--trace 0`, never 0. One bound serves all five
/// workloads, so the noisiest sets it: each is about three times the widest spread
/// (interquartile range ÷ median over ten seeds) seen on any workload in four ten-seed
/// sets on the 2-core reference box — 9.1 % for `wall_s`, 9.6 % for `round_steady_ms`,
/// 3.8 % for `peak_rss_mb`, 8.9 % for `setup_s`. Most of that is the box: its speed
/// drifted by 12 % between two sets taken an hour apart.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "round_steady_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

/// The `rac_kernel`-only latencies and throughput: reported as per-layer metrics because
/// the run contract wants every end-to-end metric from every workload, and gated by
/// `--compare` with the bound of `wall_s`.
pub const KERNEL_ONLY: &[&str] = &["rac_od_p50_us", "rac_native_p50_us", "engine_cands_per_s"];
pub const KERNEL_ONLY_BOUND: f64 = 0.25;

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const BEACON_WALL: &str = "wall_s on beacon_5sp, little on beacon_mix, none on rac_kernel";
const STEADY: &str = "round_steady_ms on beacon_5sp and beacon_mix";
const PD_WALL: &str = "wall_s on pd_pull only";
const CHURN_WALL: &str = "wall_s on churn_5sp only";
const LEAF: &str = "multiply by the traced counts to predict a layer's share";

/// Emitted by every workload with `--trace 1`; 0 where a workload does not use the layer.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.ingress.verify_ns", "ns", Lower, BEACON_WALL),
    layer("core.ingress.verify_count", "count", Lower, BEACON_WALL),
    layer(
        "core.ingress.commit_ns",
        "ns",
        Lower,
        "wall_s on beacon_5sp and churn_5sp",
    ),
    layer(
        "core.ingress.accepted",
        "count",
        Higher,
        "wall_s on beacon_5sp and churn_5sp",
    ),
    layer(
        "core.ingress.duplicates",
        "count",
        Lower,
        "wall_s on beacon_5sp and churn_5sp",
    ),
    layer(
        "core.ingress.rejected",
        "count",
        Lower,
        "wall_s on beacon_5sp and churn_5sp",
    ),
    layer(
        "core.ingress.accept_share",
        "share",
        Higher,
        "wall_s on beacon_5sp and churn_5sp",
    ),
    layer("core.node.round_core_ns", "ns", Lower, STEADY),
    layer("core.node.housekeeping_ns", "ns", Lower, STEADY),
    layer(
        "core.rac.setup_ns",
        "ns",
        Lower,
        "rac_od_p50_us on rac_kernel",
    ),
    layer(
        "core.rac.marshal_ns",
        "ns",
        Lower,
        "rac_od_p50_us on rac_kernel; round_steady_ms on beacon_5sp",
    ),
    layer(
        "core.rac.execute_ns",
        "ns",
        Lower,
        "wall_s on beacon_mix and pd_pull, little on beacon_5sp",
    ),
    layer("core.rac.candidates", "count", Lower, STEADY),
    layer("core.rac.useful_share", "share", Higher, STEADY),
    layer(
        "core.rac.od_p99_us",
        "us",
        Lower,
        "rac_od_p50_us on rac_kernel",
    ),
    layer(
        "core.engine.replay_ns",
        "ns",
        Lower,
        "round_steady_ms on the beacon workloads; engine_cands_per_s on rac_kernel",
    ),
    layer(
        "core.engine.overhead_ns",
        "ns",
        Lower,
        "round_steady_ms on the beacon workloads; engine_cands_per_s on rac_kernel",
    ),
    layer(
        "core.egress.derived_ns",
        "ns",
        Lower,
        "wall_s on beacon_5sp",
    ),
    layer("core.egress.sent", "count", Lower, "wall_s on beacon_5sp"),
    layer(
        "core.egress.registered",
        "count",
        Higher,
        "wall_s on beacon_5sp",
    ),
    layer("core.egress.pull_returns", "count", Higher, PD_WALL),
    layer(
        "core.beacon_db.occupancy",
        "count",
        Lower,
        "peak_rss_mb on beacon_5sp",
    ),
    layer(
        "core.beacon_db.bytes_per_beacon",
        "B",
        Lower,
        "peak_rss_mb on beacon_5sp",
    ),
    layer("core.beacon_db.insert_ns", "ns", Lower, LEAF),
    layer("core.beacon_db.batch_view_ns", "ns", Lower, LEAF),
    layer("core.path_service.register_ns", "ns", Lower, LEAF),
    layer(
        "sim.delivery.drain_ns",
        "ns",
        Lower,
        "wall_s everywhere; must stay small",
    ),
    layer(
        "sim.delivery.schedule_ns",
        "ns",
        Lower,
        "wall_s everywhere; must stay small",
    ),
    layer(
        "sim.delivery.events",
        "count",
        Lower,
        "wall_s on beacon_5sp",
    ),
    layer("sim.delivery.dropped_no_node", "count", Lower, CHURN_WALL),
    layer("sim.delivery.dropped_link_down", "count", Lower, CHURN_WALL),
    layer("sim.simulation.round_ns", "ns", Lower, STEADY),
    layer("sim.simulation.self_ns", "ns", Lower, "wall_s everywhere"),
    layer(
        "sim.simulation.busy_share",
        "share",
        Higher,
        "wall_s everywhere",
    ),
    layer("sim.pd.snapshot_ns", "ns", Lower, PD_WALL),
    layer("sim.pd.pair_ns", "ns", Lower, PD_WALL),
    layer("sim.pd.iterations", "count", Lower, PD_WALL),
    layer("sim.pd.empty_share", "share", Lower, PD_WALL),
    layer("sim.pd.pull_pcbs", "count", Lower, PD_WALL),
    layer("sim.churn.apply_delta_ns", "ns", Lower, CHURN_WALL),
    layer("sim.churn.settle_ns", "ns", Lower, CHURN_WALL),
    layer("sim.churn.settle_rounds", "count", Lower, CHURN_WALL),
    layer("sim.churn.deltas", "count", Higher, CHURN_WALL),
    layer(
        "algorithms.incremental.reuse_share",
        "share",
        Higher,
        "round_steady_ms on the beacon workloads; wall_s on pd_pull",
    ),
    layer("algorithms.select_ns.1SP", "ns", Lower, LEAF),
    layer("algorithms.select_ns.5SP", "ns", Lower, LEAF),
    layer("algorithms.select_ns.HD", "ns", Lower, LEAF),
    layer("algorithms.select_ns.DO", "ns", Lower, LEAF),
    layer("crypto.sign_ns", "ns", Lower, LEAF),
    layer("crypto.verify_ns", "ns", Lower, LEAF),
    layer("crypto.sha256_mb_s", "MB/s", Higher, LEAF),
    layer("wire.pcb_encode_ns", "ns", Lower, LEAF),
    layer("wire.pcb_decode_ns", "ns", Lower, LEAF),
    layer("pcb.digest_ns", "ns", Lower, LEAF),
    layer("pcb.extend_ns", "ns", Lower, LEAF),
    layer("pcb.verify_ns", "ns", Lower, LEAF),
    layer("irvm.exec_ns_per_candidate", "ns", Lower, LEAF),
    layer("irvm.instructions_per_candidate", "count", Lower, LEAF),
    layer("topology.generate_ns", "ns", Lower, "setup_s everywhere"),
    layer(
        "rac_od_p50_us",
        "us",
        Lower,
        "wall_s on rac_kernel (loop a)",
    ),
    layer(
        "rac_native_p50_us",
        "us",
        Lower,
        "wall_s on rac_kernel (loop b)",
    ),
    layer(
        "engine_cands_per_s",
        "1/s",
        Higher,
        "wall_s on rac_kernel (loop c)",
    ),
    layer(
        "host.cpu_share",
        "share",
        Higher,
        "below 0.9 the run is noisy",
    ),
    layer("host.nproc", "count", Higher, "context for every timing"),
    layer(
        "host.loadavg_start",
        "load",
        Lower,
        "context for every timing",
    ),
    layer(
        "trace_overhead_share",
        "share",
        Lower,
        "must stay below 0.05",
    ),
    layer(
        "trace_budget_share",
        "share",
        Higher,
        "must stay above 0.95",
    ),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|metric| metric.name == name)
}
