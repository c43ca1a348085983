//! The converged HD plane: ten rounds of HD on 12 generated ASes, seed 5 — the fixture
//! that runs long enough for part of its `(RAC, batch)` selections to be served verbatim
//! from the selection tables and for batches that only grew to be re-selected over last
//! round's winners plus the arrivals.
//!
//! Its golden, `tests/goldens/algorithm-hd-a12-r10-s5.txt`, was recorded with every PCB
//! verified inline at delivery (the barrier plane); a run verifies ahead on the helper
//! thread (the stacked plane). The golden is also a row of `tests/fixture_matrix.rs`; the
//! matrix documents how to re-record it after an intended change.

use irec_algorithms::incremental::IncrementalStats;
use irec_bench::fixtures::{fixture, Rendered};
use std::sync::OnceLock;

const ALGORITHM_HD: &str = include_str!("goldens/algorithm-hd-a12-r10-s5.txt");

/// The HD fixture's run, rendered once for both tests.
fn converged_hd() -> &'static Rendered {
    static RUN: OnceLock<Rendered> = OnceLock::new();
    RUN.get_or_init(|| {
        let fixture = fixture("algorithm-hd-a12-r10-s5").expect("the HD fixture is catalogued");
        (fixture.render)()
    })
}

#[test]
fn converged_hd_plane_matches_its_golden_on_the_barrier_and_the_stacked_plane() {
    let output = &converged_hd().text;
    if output != ALGORITHM_HD {
        let line = output
            .lines()
            .zip(ALGORITHM_HD.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| output.lines().count().min(ALGORITHM_HD.lines().count()));
        panic!(
            "algorithm HD differs from its inline-recorded golden at line {}:\n  now:    {:?}\n  golden: {:?}",
            line + 1,
            output.lines().nth(line),
            ALGORITHM_HD.lines().nth(line),
        );
    }
}

/// How the HD fixture's selections were made — not part of its bytes, which are the same
/// whichever pass made them, but pinned so a change in how often the certificate holds
/// shows: most batches that only grew are re-selected over winners ∪ arrivals, and the
/// refusals fall back to the full pass, counted among the recomputations.
#[test]
fn converged_hd_plane_extends_under_its_certificate_and_refuses_the_rest() {
    assert_eq!(
        converged_hd().selections,
        IncrementalStats {
            reused: 138,
            extended: 800,
            recomputed: 154,
            refused: 22,
            invalidated: 0,
        }
    );
}
