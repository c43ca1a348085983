//! The converged HD plane: ten rounds of HD on 12 generated ASes, seed 5 — the fixture
//! that runs long enough for part of its `(RAC, batch)` selections to be served verbatim
//! from the selection tables and for batches that only grew to be re-selected over last
//! round's winners plus the arrivals.
//!
//! Its golden, `tests/goldens/algorithm-hd-a12-r10-s5.txt`, is also a row of
//! `tests/fixture_matrix.rs`; the matrix documents how to re-record it after an intended
//! change.

use irec_algorithms::incremental::IncrementalStats;
use irec_bench::fixtures::{fixture, Rendered};

const ALGORITHM_HD: &str = include_str!("goldens/algorithm-hd-a12-r10-s5.txt");

/// The inline reference plane (every PCB verified at delivery), on which the golden was
/// recorded, and the plane that verifies each finished node's PCBs ahead on the helper
/// thread.
const WIDTHS: [usize; 2] = [1, 2];

fn converged_hd(width: usize) -> Rendered {
    let fixture = fixture("algorithm-hd-a12-r10-s5").expect("the HD fixture is catalogued");
    (fixture.render)(width)
}

#[test]
fn converged_hd_plane_matches_its_golden_on_the_barrier_and_the_stacked_plane() {
    for width in WIDTHS {
        let output = converged_hd(width).text;
        if output != ALGORITHM_HD {
            let line = output
                .lines()
                .zip(ALGORITHM_HD.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| output.lines().count().min(ALGORITHM_HD.lines().count()));
            panic!(
                "algorithm HD at verify width {width} differs from its golden at line {}:\n  now:    {:?}\n  golden: {:?}",
                line + 1,
                output.lines().nth(line),
                ALGORITHM_HD.lines().nth(line),
            );
        }
    }
}

/// How the HD fixture's selections were made — not part of its bytes, which are the same
/// whichever pass made them, but pinned so a change in how often the certificate holds
/// shows: most batches that only grew are re-selected over winners ∪ arrivals, and the
/// refusals fall back to the full pass, counted among the recomputations.
#[test]
fn converged_hd_plane_extends_under_its_certificate_and_refuses_the_rest() {
    for width in WIDTHS {
        assert_eq!(
            converged_hd(width).selections,
            IncrementalStats {
                reused: 138,
                extended: 800,
                recomputed: 154,
                refused: 22,
                invalidated: 0,
            },
            "selection counters at verify width {width}"
        );
    }
}
