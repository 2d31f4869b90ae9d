//! The perf trajectory (`bench_results/perf_trajectory.jsonl`) stays
//! well-formed: one JSON object per line, one line per side ("parent" or
//! "change") of each measured performance change, and every line names
//! every workload `BENCHMARK.json` declares.
//!
//! A row holds:
//!
//! * `change` — a short title of the change the pair measured;
//! * `side` — `"parent"` or `"change"`;
//! * `commit` — the measured tree: a commit hash, or `<parent>-dirty` for
//!   the change side measured before it was committed;
//! * `date`, `nproc` and `steal_pct` (the host's CPU-steal share over the
//!   runs, `null` when not recorded);
//! * `workloads` — for each workload, `pairs` (how many alternating
//!   parent/change runs the medians cover) and the medians of
//!   `goodput_tps`, `latency_p50_us`, `latency_p99_us`, `abort_pct`,
//!   `setup_s` and `peak_rss_mb` (`null` where a source gave no number).

use sicost_common::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

const METRICS: [&str; 7] = [
    "pairs",
    "goodput_tps",
    "latency_p50_us",
    "latency_p99_us",
    "abort_pct",
    "setup_s",
    "peak_rss_mb",
];

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn declared_workloads() -> Vec<String> {
    let bench = Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("every workload has a name")
                .to_string()
        })
        .collect()
}

fn number_or_null(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Num(_) | Json::Null))
}

#[test]
fn every_row_parses_and_names_every_workload() {
    let workloads = declared_workloads();
    assert_eq!(workloads.len(), 4, "BENCHMARK.json declares four workloads");
    let text = repo_file("bench_results/perf_trajectory.jsonl");
    let mut sides: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("perf_trajectory.jsonl line {}", i + 1);
        let row = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e:?}"));
        let field = |k: &str| {
            row.get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{at}: missing string `{k}`"))
        };
        let side = field("side");
        assert!(side == "parent" || side == "change", "{at}: side {side}");
        assert!(!field("commit").is_empty(), "{at}: empty commit");
        assert_eq!(field("date").len(), 10, "{at}: date is YYYY-MM-DD");
        assert!(
            row.get("nproc")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "{at}: nproc"
        );
        assert!(number_or_null(row.get("steal_pct")), "{at}: steal_pct");
        let per = row
            .get("workloads")
            .and_then(Json::as_map)
            .unwrap_or_else(|| panic!("{at}: missing `workloads` object"));
        for w in &workloads {
            let m = per
                .get(w.as_str())
                .unwrap_or_else(|| panic!("{at}: workload {w} missing"));
            for metric in METRICS {
                assert!(
                    number_or_null(m.get(metric)),
                    "{at}: {w}.{metric} must be a number or null"
                );
            }
        }
        sides
            .entry(field("change").to_string())
            .or_default()
            .push(side.to_string());
    }
    assert!(!sides.is_empty(), "the trajectory has no rows");
    for (change, mut seen) in sides {
        seen.sort();
        assert_eq!(
            seen,
            ["change", "parent"],
            "{change}: one parent row and one change row"
        );
    }
}
