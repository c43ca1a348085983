#!/usr/bin/env bash
# A/B of two builds of the repo benchmark, by the benchmark's own rule: alternating pairs
# of runs, each binary started from the root of the checkout it was built from.
#
#   scripts/ab_pairs.sh <parent-bin> <change-bin> <workload|all> <pairs> <seed> > out.json
#
# <parent-bin> / <change-bin> are `irec_benchmark` binaries inside their checkouts (what
# `cargo build --release --offline --manifest-path benchmark/Cargo.toml` leaves in
# `benchmark/target/release/`); the checkout root is the nearest directory above the
# binary that holds BENCHMARK.json. Run length, workload names, metric names and their
# directions are read from the *parent's* BENCHMARK.json. Odd pairs run the change first.
#
# Prints one JSON object per workload (`all`: an array of the five): per end-to-end metric
# both sides' median and quartiles, every run, the change's wins and ties over the pairs,
# whether the medians are further apart than the parent's inter-quartile range, and whether
# `output_digest` was the same in every run of both sides. Progress goes to stderr.
set -euo pipefail
if [ "$#" -ne 5 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

parent_bin, change_bin, workload, pairs, seed = sys.argv[1:6]
pairs, seed = int(pairs), int(seed)


def checkout_root(binary):
    directory = os.path.dirname(os.path.abspath(binary))
    while directory != "/":
        if os.path.exists(os.path.join(directory, "BENCHMARK.json")):
            return directory
        directory = os.path.dirname(directory)
    sys.exit(f"{binary}: no BENCHMARK.json above it; build it inside its checkout")


sides = {"parent": os.path.abspath(parent_bin), "change": os.path.abspath(change_bin)}
roots = {side: checkout_root(binary) for side, binary in sides.items()}
with open(os.path.join(roots["parent"], "BENCHMARK.json")) as spec_file:
    spec = json.load(spec_file)
seconds = spec["run_seconds"]
workloads = [w["name"] for w in spec["workloads"]] if workload == "all" else [workload]


def run(side, name):
    out = subprocess.run(
        [sides[side], "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=roots[side], capture_output=True, text=True)
    reports = [line for line in out.stdout.splitlines() if line.startswith("report ")]
    if out.returncode != 0 or not reports:
        sys.exit(f"{side} run of {name} failed:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(reports[-1][len("report "):])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(name):
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side, name))
        print(f"{name}: pair {pair + 1}/{pairs}", file=sys.stderr)
    digests = {side: sorted({r["output_digest"] for r in rs}) for side, rs in runs.items()}
    metrics = {}
    for metric in spec["end_to_end"]:
        key, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["end_to_end"][key] for r in rs] for side, rs in runs.items()}
        stats = {side: quartiles(v) if len(v) > 1 else {"median": v[0], "q1": v[0], "q3": v[0]}
                 for side, v in values.items()}
        better = lambda c, p: c < p if lower else c > p
        paired = list(zip(values["change"], values["parent"]))
        parent_median, change_median = stats["parent"]["median"], stats["change"]["median"]
        metrics[key] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": stats["parent"], "change": stats["change"],
            "change_vs_parent_pct":
                100.0 * (change_median - parent_median) / parent_median if parent_median else 0.0,
            "wins": sum(better(c, p) for c, p in paired),
            "ties": sum(c == p for c, p in paired),
            "medians_apart_by_more_than_parent_iqr":
                abs(change_median - parent_median) > stats["parent"]["q3"] - stats["parent"]["q1"],
            "runs": values,
        }
    return {
        "workload": name, "seed": seed, "pairs": pairs, "seconds": seconds,
        "output_digest_matched": digests["parent"] == digests["change"] and len(digests["parent"]) == 1,
        "output_digest": digests,
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "cpu_share_min": {side: min(r["per_layer"]["host.cpu_share"] for r in rs)
                          for side, rs in runs.items()},
        "metrics": metrics,
    }


results = [compare(name) for name in workloads]
document = {"nproc": os.cpu_count(), "loadavg_end": os.getloadavg()[0],
            "results": results} if workload == "all" else results[0]
json.dump(document, sys.stdout, indent=1)
print()
PY
