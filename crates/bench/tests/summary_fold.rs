//! The committed `BENCH_smallbank.json` is the fold of the committed
//! reports: folding `bench_results/*.json` again must reproduce it byte
//! for byte, so a report regenerated without a re-fold
//! (`scripts/bench_summary.sh`) fails here. A report that
//! `src/harnesses.txt` does not name would never be folded, so it fails
//! too.

use sicost_bench::expected_harnesses;
use sicost_bench::summary::{fold, load_reports};
use std::path::PathBuf;

fn repo_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

#[test]
fn committed_fold_matches_the_committed_reports() {
    let reports = load_reports(&repo_path("bench_results"), &expected_harnesses())
        .unwrap_or_else(|failures| panic!("unusable reports: {failures:#?}"));
    let committed = std::fs::read_to_string(repo_path("BENCH_smallbank.json"))
        .expect("BENCH_smallbank.json is readable");
    assert!(
        fold(&reports) == committed,
        "BENCH_smallbank.json is stale: re-fold with scripts/bench_summary.sh"
    );
}

#[test]
fn every_report_is_a_registered_harness() {
    let registered = expected_harnesses();
    let dir = repo_path("bench_results");
    let unregistered: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .map(|p| {
            p.file_stem()
                .expect("a stem")
                .to_string_lossy()
                .into_owned()
        })
        .filter(|stem| !registered.contains(stem))
        .collect();
    assert!(
        unregistered.is_empty(),
        "bench_results reports that src/harnesses.txt does not name: {unregistered:?}"
    );
}
