//! # irec-bench
//!
//! The benchmark harness that regenerates every figure of the paper's evaluation.
//!
//! | Paper figure | What it shows | Regenerated by |
//! |---|---|---|
//! | Fig. 6 | PCB processing latency of the IREC sub-tasks (sandbox setup, marshalling, algorithm execution) vs. the legacy control service, for candidate-set sizes \|Φ\| = 1…4096. Setup is flat; marshalling and execution are *both* linear in \|Φ\| here (measured marshal : execute per candidate at \|Φ\| = 64 on `rac_kernel`: ≈ 6.8 : 1 with the field-by-field codec, ≈ 2.1 : 1 with the codec kernel) — the paper's "marshalling grows much more slowly" would need a different boundary, not a faster codec | `cargo run -p irec_bench --bin fig6 --release`; measured end to end by the `rac_kernel` workload of `benchmark/` |
//! | Fig. 7 | PCB processing throughput for 1…N parallel RACs and \|Φ\| ∈ {16, 64, 256, 1024, 4096} | `cargo run -p irec_bench --bin fig7 --release`; measured end to end by the `rac_kernel` workload of `benchmark/` |
//! | Fig. 8a | CDF over PoP pairs of minimum propagation delay relative to 1SP (5SP, DON, DOB2000, DOB300) | `cargo run -p irec_bench --bin fig8a --release` |
//! | Fig. 8b | CDF over AS pairs of tolerable link failures (1SP, 5SP, HD, PD) | `cargo run -p irec_bench --bin fig8b --release` |
//! | Fig. 8c | CDF of PCBs sent per interface per period (1SP, 5SP, HD, PD, DON, DOB2000, DOB300) | `cargo run -p irec_bench --bin fig8c --release` |
//!
//! The library part holds the shared pieces: synthetic candidate-set generation (the \|Φ\|
//! workload of §VII-B), the RAC-vs-legacy measurement kernels, the simulation campaign used
//! by the three Fig. 8 binaries, the catalog of named scenarios whose output is pinned under
//! `tests/goldens/`, and a tiny argument parser so the binaries stay dependency free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod campaign;
pub mod determinism;
pub mod fixtures;
pub mod report;
pub mod workload;

pub use args::BenchArgs;
pub use campaign::{Fig8Campaign, Fig8Data};
pub use workload::{candidate_set, legacy_selection_latency, rac_processing_latency, Measurement};
