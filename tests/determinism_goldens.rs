//! Committed goldens: the `determinism` probe's output, recorded once and compared byte
//! for byte from then on. Every other determinism check in this repository compares the
//! system with itself — plane A against plane B of the same commit. These files pin the
//! bytes *across* commits: a change that only makes the simulator faster (a cache, a
//! cheaper selection pass, a parallel plane) must leave every registered path, counter
//! and overhead sample exactly where it was, and a change that moves them on purpose has
//! to re-record the files and say why.
//!
//! The fixtures are the probe's small named scenarios: `figure1` (the paper's Fig. 1
//! topology under DO + widest), `generated` (12 ASes, seed 5, 3 rounds of
//! 1SP/5SP/HD/DON), the PD campaign on Fig. 1, and the churn timelines of seeds 2 and 7
//! (7 exercises a node re-join). To re-record after an intended change:
//!
//! ```text
//! cargo run --release -p irec_bench --bin determinism -- --ases 12 --rounds 3 --seed 5 \
//!     [--churn-rate 1.5 --churn-seed N]
//! ```
//!
//! and split the output at its `## scenario:` headers into `tests/goldens/`.

use irec_bench::determinism::render;
use irec_bench::BenchArgs;

const FIGURE1: &str = include_str!("goldens/figure1.txt");
const GENERATED: &str = include_str!("goldens/generated-a12-r3-s5.txt");
const PD_CAMPAIGN: &str = include_str!("goldens/pd-campaign-figure1.txt");
const CHURN_SEED_2: &str = include_str!("goldens/churn-a12-r3-s5-cs2.txt");
const CHURN_SEED_7: &str = include_str!("goldens/churn-a12-r3-s5-cs7.txt");

fn probe(extra: &[&str]) -> String {
    let args = ["--ases", "12", "--rounds", "3", "--seed", "5"]
        .iter()
        .chain(extra)
        .map(|arg| arg.to_string());
    render(&BenchArgs::parse(args).expect("probe arguments parse"))
}

/// Compares scenario by scenario, so a mismatch names the fixture instead of dumping
/// 300 KB, then the first differing line.
fn assert_matches(actual: &str, goldens: &[(&str, &str)]) {
    let mut rest = actual;
    for (name, golden) in goldens {
        let (scenario, tail) = rest.split_at(golden.len().min(rest.len()));
        if scenario != *golden {
            let line = scenario
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| scenario.lines().count().min(golden.lines().count()));
            panic!(
                "scenario {name} differs from tests/goldens at its line {}:\n  now:    {:?}\n  golden: {:?}",
                line + 1,
                scenario.lines().nth(line),
                golden.lines().nth(line),
            );
        }
        rest = tail;
    }
    assert!(
        rest.is_empty(),
        "output continues past the goldens: {rest:.200}"
    );
}

#[test]
fn determinism_probe_matches_committed_goldens() {
    let fixed = [
        ("figure1", FIGURE1),
        ("generated", GENERATED),
        ("pd-campaign", PD_CAMPAIGN),
    ];
    assert_matches(&probe(&[]), &fixed);
    for (seed, golden) in [("2", CHURN_SEED_2), ("7", CHURN_SEED_7)] {
        let mut goldens = fixed.to_vec();
        goldens.push(("churn", golden));
        let output = probe(&["--churn-rate", "1.5", "--churn-seed", seed]);
        assert_matches(&output, &goldens);
    }
    // The goldens hold on every execution plane; the widest stack stands in for the rest
    // (the CI determinism job diffs each knob alone).
    let mut goldens = fixed.to_vec();
    goldens.push(("churn", CHURN_SEED_7));
    let stacked = probe(&[
        "--churn-rate",
        "1.5",
        "--churn-seed",
        "7",
        "--round-scheduler",
        "dag",
        "--parallelism",
        "4",
        "--delivery-parallelism",
        "2",
        "--ingress-shards",
        "4",
        "--path-shards",
        "7",
        "--pd-parallelism",
        "4",
    ]);
    assert_matches(&stacked, &goldens);
}
