//! The fixture matrix: every fixture of `irec_bench::fixtures::CATALOG`, rendered at verify
//! widths 1 and 2, against its committed golden under `tests/goldens/`.
//!
//! Each row checks three things on the same two runs:
//! - the width-1 text (every PCB verified inline at delivery, the reference) equals the
//!   golden byte for byte, so the bytes are pinned *across* commits: a change that only
//!   makes the simulator faster must leave every registered path, counter and overhead
//!   sample exactly where it was;
//! - the width-2 run (each finished node's PCBs verified ahead on the helper thread)
//!   prints the same text, makes its selections the same way (`Rendered::selections`)
//!   and agrees on everything the text rounds or leaves out (`Rendered::unprinted`);
//! - the fixture's own assertions, where it has any.
//!
//! One `#[test]` per fixture, so libtest spreads the rows over the cores and a failure
//! names its fixture.
//!
//! **Re-recording after an intended change.** Run `cargo test --test fixture_matrix`. A
//! row whose width-1 text differs from its golden writes that text to
//! `target/tmp/goldens/<name>.txt` and panics with the first differing line and the
//! command that re-records the golden, `cp target/tmp/goldens/<name>.txt
//! tests/goldens/<name>.txt`. Re-record in a commit that changes nothing else and say
//! which fixtures moved and why. A width-2 run that differs from a width-1 run that
//! matches is a determinism bug, never a re-record.

use irec_algorithms::incremental::IncrementalStats;
use irec_bench::fixtures::{fixture, Rendered, CATALOG};
use std::path::{Path, PathBuf};

/// The first line where `actual` and `expected` differ, 1-based, with both versions.
fn first_difference(actual: &str, expected: &str) -> String {
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    format!(
        "line {}:\n  now:      {:?}\n  expected: {:?}",
        line + 1,
        actual.lines().nth(line),
        expected.lines().nth(line),
    )
}

fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn golden_path(name: &str) -> PathBuf {
    goldens().join(format!("{name}.txt"))
}

/// Runs the row of fixture `name` and returns its width-1 run for the fixture's own
/// assertions.
fn check(name: &str) -> Rendered {
    let fixture = fixture(name).unwrap_or_else(|| panic!("no fixture named {name}"));
    let golden = std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("reading the golden of {name}: {e}"));
    let inline = (fixture.render)(1);
    if inline.text != golden {
        let recorded = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
        std::fs::create_dir_all(&recorded).expect("creating the re-record directory");
        let recorded = recorded.join(format!("{name}.txt"));
        std::fs::write(&recorded, &inline.text).expect("writing the re-recorded output");
        panic!(
            "fixture {name} differs from tests/goldens/{name}.txt at its {}\n\
             after an intended change, re-record with: cp {} {}",
            first_difference(&inline.text, &golden),
            recorded.display(),
            golden_path(name).display(),
        );
    }
    let ahead = (fixture.render)(2);
    assert!(
        ahead.text == inline.text,
        "fixture {name} at verify width 2 differs from width 1 at its {}",
        first_difference(&ahead.text, &inline.text),
    );
    assert!(
        ahead.unprinted == inline.unprinted,
        "fixture {name}'s unprinted state at verify width 2 differs from width 1 at its {}",
        first_difference(&ahead.unprinted, &inline.unprinted),
    );
    assert_eq!(
        ahead.selections, inline.selections,
        "fixture {name}'s selection counters at verify width 2 differ from width 1"
    );
    inline
}

/// Declares one test per fixture, each with the fixture's own assertions after the `=>`,
/// and the list of fixtures that have a row.
macro_rules! rows {
    ($($test:ident: $name:literal $(=> $own:expr)?;)*) => {
        const ROWS: &[&str] = &[$($name),*];
        $(
            #[test]
            fn $test() {
                let _run = check($name);
                $( ($own)(&_run); )?
            }
        )*
    };
}

rows! {
    figure1: "figure1";
    generated_a12_r3_s5: "generated-a12-r3-s5";
    pd_campaign_figure1: "pd-campaign-figure1";
    churn_a12_r3_s5_cs2: "churn-a12-r3-s5-cs2" => churn_rounds_reuse_and_extend;
    churn_a12_r3_s5_cs7: "churn-a12-r3-s5-cs7" => churn_rounds_reuse_and_extend;
    algorithm_5sp_a12_r10_s5: "algorithm-5sp-a12-r10-s5";
    algorithm_hd_a12_r10_s5: "algorithm-hd-a12-r10-s5" => hd_extends_under_its_certificate;
    pd_campaign_a8_s5: "pd-campaign-a8-s5";
    figure1_paper_r5: "figure1-paper-r5";
    algorithm_5yen_a12_r3_s5: "algorithm-5yen-a12-r3-s5";
    algorithm_aco_s7_b4_a12_r3_s5: "algorithm-aco-s7-b4-a12-r3-s5";
}

/// The selection tables carry churn rounds: work is reused and extended although the
/// timeline's withdrawal sweeps keep disturbing batches.
fn churn_rounds_reuse_and_extend(run: &Rendered) {
    assert!(
        run.selections.reused > 0 && run.selections.extended > 0,
        "churn rounds neither reused nor extended: {:?}",
        run.selections
    );
}

/// How the HD fixture's selections were made — pinned so a change in how often the
/// certificate holds shows: most batches that only grew are re-selected over winners ∪
/// arrivals, and the refusals fall back to the full pass, counted among the
/// recomputations.
fn hd_extends_under_its_certificate(run: &Rendered) {
    assert_eq!(
        run.selections,
        IncrementalStats {
            reused: 138,
            extended: 800,
            recomputed: 154,
            refused: 22,
            invalidated: 0,
        }
    );
}

/// Every fixture has a row and a golden, and every golden a fixture.
#[test]
fn the_rows_the_catalog_and_the_goldens_name_the_same_fixtures() {
    let mut catalog: Vec<&str> = CATALOG.iter().map(|fixture| fixture.name).collect();
    let mut rows = ROWS.to_vec();
    let mut goldens: Vec<String> = std::fs::read_dir(goldens())
        .expect("listing tests/goldens")
        .map(|entry| {
            let path = entry.expect("a golden entry").path();
            let stem = path.file_stem().expect("a golden file name");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    catalog.sort_unstable();
    rows.sort_unstable();
    goldens.sort_unstable();
    assert_eq!(rows, catalog);
    assert_eq!(goldens, catalog);
}
