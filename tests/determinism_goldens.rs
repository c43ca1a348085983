//! Committed goldens: the `determinism` probe's output, recorded once and compared byte
//! for byte from then on. Every other determinism check in this repository compares the
//! system with itself — plane A against plane B of the same commit. These files pin the
//! bytes *across* commits: a change that only makes the simulator faster (a cache, a
//! cheaper selection pass, a helper thread) must leave every registered path, counter
//! and overhead sample exactly where it was, and a change that moves them on purpose has
//! to re-record the files and say why.
//!
//! The fixtures are the probe's small named scenarios: `figure1` (the paper's Fig. 1
//! topology under DO + widest), `generated` (12 ASes, seed 5, 3 rounds of
//! 1SP/5SP/HD/DON), the PD campaign on Fig. 1, the churn timelines of seeds 2 and 7
//! (7 exercises a node re-join), and `algorithm 5SP` and `algorithm HD` (12 ASes, seed 5,
//! 10 rounds of one algorithm), the fixtures that run long enough to converge: part of
//! their `(RAC, batch)` selections are served verbatim from the selection tables, and the
//! HD one re-selects batches that only grew over last round's winners plus the arrivals. `pd-campaign generated` is a
//! PD campaign on 8 generated ASes (seed 5, 4 warm-up rounds, two pairs pulling for up to
//! 20 paths), where on-demand batches hold carriers of several pull iterations at once. To
//! re-record after an intended change:
//!
//! ```text
//! cargo run --release -p irec_bench --bin determinism -- --ases 12 --rounds 3 --seed 5 \
//!     [--churn-rate 1.5 --churn-seed N]
//! cargo run --release -p irec_bench --bin determinism -- --ases 12 --rounds 10 --seed 5 \
//!     --algorithm 5SP    # and --algorithm HD
//! ```
//!
//! and split the output at its `## scenario:` headers into `tests/goldens/`; the generated
//! PD campaign has no flag of its own — write what
//! `irec_bench::determinism::render_pd_generated` returns for `--ases 8 --rounds 4 --seed 5`
//! to `tests/goldens/pd-campaign-a8-s5.txt`.

use irec_algorithms::incremental::IncrementalStats;
use irec_bench::determinism::{
    algorithm_simulation, render, render_algorithm, render_pd_generated,
};
use irec_bench::BenchArgs;

const FIGURE1: &str = include_str!("goldens/figure1.txt");
const GENERATED: &str = include_str!("goldens/generated-a12-r3-s5.txt");
const PD_CAMPAIGN: &str = include_str!("goldens/pd-campaign-figure1.txt");
const CHURN_SEED_2: &str = include_str!("goldens/churn-a12-r3-s5-cs2.txt");
const CHURN_SEED_7: &str = include_str!("goldens/churn-a12-r3-s5-cs7.txt");
const ALGORITHM_5SP: &str = include_str!("goldens/algorithm-5sp-a12-r10-s5.txt");
const ALGORITHM_HD: &str = include_str!("goldens/algorithm-hd-a12-r10-s5.txt");
const PD_GENERATED: &str = include_str!("goldens/pd-campaign-a8-s5.txt");

/// The reference plane: every PCB verified inline at delivery. The goldens were recorded
/// on it; the default verify width verifies ahead on any host with two cores or more.
const REFERENCE: [&str; 2] = ["--delivery-parallelism", "1"];

/// The one execution knob as wide as it goes: PCBs verified ahead on the helper thread.
const STACKED: [&str; 2] = ["--delivery-parallelism", "2"];

fn args(base: &[&str], extra: &[&str]) -> BenchArgs {
    let args = base.iter().chain(extra).map(|arg| arg.to_string());
    BenchArgs::parse(args).expect("probe arguments parse")
}

fn probe(extra: &[&str]) -> String {
    render(&args(
        &["--ases", "12", "--rounds", "3", "--seed", "5"],
        extra,
    ))
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
    assert_matches(&probe(&REFERENCE), &fixed);
    for (seed, golden) in [("2", CHURN_SEED_2), ("7", CHURN_SEED_7)] {
        let mut goldens = fixed.to_vec();
        goldens.push(("churn", golden));
        let output = probe(
            &[
                &REFERENCE[..],
                &["--churn-rate", "1.5", "--churn-seed", seed],
            ]
            .concat(),
        );
        assert_matches(&output, &goldens);
    }
    // The goldens hold at every verify width; width 2 verifies ahead on the helper thread.
    let mut goldens = fixed.to_vec();
    goldens.push(("churn", CHURN_SEED_7));
    let churn = ["--churn-rate", "1.5", "--churn-seed", "7"];
    let stacked = probe(&[&churn[..], &STACKED].concat());
    assert_matches(&stacked, &goldens);
}

/// Ten rounds of one algorithm on 12 generated ASes, seed 5, on the barrier plane and the
/// stacked one.
fn assert_converged_plane(algorithm: &str, golden: &str) {
    for extra in [&REFERENCE[..], &STACKED] {
        let output = render_algorithm(&converged_args(algorithm, extra));
        let label = format!("algorithm {algorithm}");
        assert_matches(&output, &[(label.as_str(), golden)]);
    }
}

fn converged_args(algorithm: &str, extra: &[&str]) -> BenchArgs {
    let base = [
        "--ases",
        "12",
        "--rounds",
        "10",
        "--seed",
        "5",
        "--algorithm",
        algorithm,
    ];
    args(&base, extra)
}

#[test]
fn converged_5sp_plane_matches_its_golden_on_the_barrier_and_the_stacked_plane() {
    assert_converged_plane("5SP", ALGORITHM_5SP);
}

#[test]
fn converged_hd_plane_matches_its_golden_on_the_barrier_and_the_stacked_plane() {
    assert_converged_plane("HD", ALGORITHM_HD);
}

/// How the HD fixture's selections were made — not part of its bytes, which are the same
/// whichever pass made them, but pinned so a change in how often the certificate holds
/// shows: most batches that only grew are re-selected over winners ∪ arrivals, and the
/// refusals fall back to the full pass, counted among the recomputations.
#[test]
fn converged_hd_plane_extends_under_its_certificate_and_refuses_the_rest() {
    for extra in [&REFERENCE[..], &STACKED] {
        let args = converged_args("HD", extra);
        let (_, mut sim) = algorithm_simulation(&args).expect("an algorithm scenario");
        sim.run_rounds(args.rounds).expect("beaconing rounds");
        assert_eq!(
            sim.incremental_stats(),
            IncrementalStats {
                reused: 138,
                extended: 800,
                recomputed: 154,
                refused: 22,
                invalidated: 0,
            }
        );
    }
}

#[test]
fn generated_pd_campaign_matches_its_golden_on_the_barrier_and_the_stacked_plane() {
    let base = ["--ases", "8", "--rounds", "4", "--seed", "5"];
    for extra in [&REFERENCE[..], &STACKED] {
        let output = render_pd_generated(&args(&base, extra));
        assert_matches(&output, &[("pd-campaign generated", PD_GENERATED)]);
    }
}
