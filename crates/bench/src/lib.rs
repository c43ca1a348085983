//! # irec-bench
//!
//! The benchmark harness that regenerates every figure of the paper's evaluation.
//!
//! | Paper figure | What it shows | Regenerated by |
//! |---|---|---|
//! | Fig. 6 | PCB processing latency of the IREC sub-tasks (sandbox setup, marshalling, algorithm execution) vs. the legacy control service, for candidate-set sizes \|Φ\| = 1…4096. Setup is flat; marshalling and execution are *both* linear in \|Φ\| here (measured marshal : execute per candidate at \|Φ\| = 64 on `rac_kernel`: ≈ 6.8 : 1 before PR 19's codec kernel, ≈ 2.1 : 1 after) — the paper's "marshalling grows much more slowly" would need a different boundary, not a faster codec | `cargo run -p irec-bench --bin fig6 --release` and `cargo bench -p irec-bench --bench fig6_latency` |
//! | Fig. 7 | PCB processing throughput for 1…N parallel RACs and \|Φ\| ∈ {16, 64, 256, 1024, 4096} | `cargo run -p irec-bench --bin fig7 --release` and `cargo bench -p irec-bench --bench fig7_throughput` |
//! | Fig. 8a | CDF over PoP pairs of minimum propagation delay relative to 1SP (5SP, DON, DOB2000, DOB300) | `cargo run -p irec-bench --bin fig8a --release` |
//! | Fig. 8b | CDF over AS pairs of tolerable link failures (1SP, 5SP, HD, PD) | `cargo run -p irec-bench --bin fig8b --release` |
//! | Fig. 8c | CDF of PCBs sent per interface per period (1SP, 5SP, HD, PD, DON, DOB2000, DOB300) | `cargo run -p irec-bench --bin fig8c --release` |
//!
//! The library part holds the shared pieces: synthetic candidate-set generation (the \|Φ\|
//! workload of §VII-B), the RAC-vs-legacy measurement kernels, the simulation campaign used
//! by the three Fig. 8 binaries, and a tiny argument parser so the binaries stay dependency
//! free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod campaign;
pub mod determinism;
pub mod regression;
pub mod report;
pub mod workload;

pub use args::BenchArgs;
pub use campaign::{Fig8Campaign, Fig8Data};
pub use workload::{
    candidate_set, delivery_workload, engine_workload, legacy_selection_latency,
    measure_delivery_point, measure_engine_point, measure_snapshot_setup, pd_campaign_pairs,
    pd_campaign_pass, pd_campaign_workload, pd_snapshot_setup, rac_processing_latency, Measurement,
};
