#!/usr/bin/env bash
# A/A check: build once, run the full set twice on this commit, and compare the two sets
# against the benchmark's own bounds. Extra arguments (--seed N, --repeats R, --seconds S)
# go to both sets. Exits non-zero if any end-to-end metric x workload pair is outside its
# bound, any operation failed, or any run was noisy (cpu_share < 0.9).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/irec_benchmark"

"$bin" --out benchmark/out/aa-1 "$@"
"$bin" --out benchmark/out/aa-2 "$@"
"$bin" --compare benchmark/out/aa-1/summary.json benchmark/out/aa-2/summary.json
