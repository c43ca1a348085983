//! The fixture matrix: every fixture of `irec_bench::fixtures::CATALOG`, rendered once,
//! against its committed golden under `tests/goldens/`.
//!
//! Each row checks two things on one run:
//! - the text equals the golden byte for byte, so the bytes are pinned *across* commits:
//!   a change that only makes the simulator faster must leave every registered path,
//!   counter and overhead sample exactly where it was. The text prints every value
//!   exactly (bandwidths in kbps, PD paths with their endpoints, the overhead zeros), and
//!   every golden was recorded with each PCB verified inline at delivery, so a run, which
//!   verifies ahead on the helper thread, is held to the inline reference;
//! - the fixture's own assertions, where it has any.
//!
//! One `#[test]` per fixture, so libtest spreads the rows over the cores and a failure
//! names its fixture.
//!
//! **Re-recording after an intended change.** Run `cargo test --test fixture_matrix`. A
//! row whose text differs from its golden writes that text to
//! `target/tmp/goldens/<name>.txt` and panics with the first differing line and the
//! command that re-records the golden, `cp target/tmp/goldens/<name>.txt
//! tests/goldens/<name>.txt`. Re-record in a commit that changes nothing else and say
//! which fixtures moved and why. A change that is meant to move no output and still
//! differs is a bug, never a re-record.

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

/// Runs the row of fixture `name` and returns its run for the fixture's own assertions.
fn check(name: &str) -> Rendered {
    let fixture = fixture(name).unwrap_or_else(|| panic!("no fixture named {name}"));
    let golden = std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("reading the golden of {name}: {e}"));
    let run = (fixture.render)();
    if run.text != golden {
        let recorded = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
        std::fs::create_dir_all(&recorded).expect("creating the re-record directory");
        let recorded = recorded.join(format!("{name}.txt"));
        std::fs::write(&recorded, &run.text).expect("writing the re-recorded output");
        panic!(
            "fixture {name} differs from tests/goldens/{name}.txt at its {}\n\
             after an intended change, re-record with: cp {} {}",
            first_difference(&run.text, &golden),
            recorded.display(),
            golden_path(name).display(),
        );
    }
    run
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
    figure1_5sp_expiring_r4: "figure1-5sp-expiring-r4" => beacons_expire_in_flight;
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

/// The value of `key=` in a tab-separated golden line.
fn field(line: &str, key: &str) -> u64 {
    line.split('\t')
        .find_map(|column| column.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

/// The receipt time decides a verdict on this plane: propagated beacons expire in flight
/// and are rejected at delivery, and every gateway's rejections add up to the plane's.
fn beacons_expire_in_flight(run: &Rendered) {
    let lines = || run.text.lines();
    let counters = lines()
        .find(|line| line.starts_with("counters\t"))
        .expect("a counters line");
    let rejected = field(counters, "rejected");
    assert!(rejected > 0, "propagated beacons expire in flight");
    assert!(field(counters, "delivered") > 0 && lines().any(|line| line.starts_with("path\t")));
    let per_as: u64 = lines()
        .filter(|line| line.starts_with("ingress\t"))
        .map(|line| field(line, "rejected"))
        .sum();
    assert_eq!(
        per_as, rejected,
        "the gateways' rejections sum to the plane's"
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
