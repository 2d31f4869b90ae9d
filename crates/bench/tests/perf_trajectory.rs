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
//!   `setup_s` and `peak_rss_mb` (`null` where a source gave no number);
//!   a change row adds `ratio`, each of those medians divided by the
//!   parent row's, rounded to four decimals (`null` where either median
//!   is). Host speed drifts between sessions, so only ratios compare
//!   across pairs.

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

fn workloads(row: &Json) -> BTreeMap<&str, &Json> {
    row.get("workloads")
        .and_then(Json::as_map)
        .expect("every row has a `workloads` object")
}

/// The trajectory's rows, each with its line number for messages.
fn rows() -> Vec<(String, Json)> {
    repo_file("bench_results/perf_trajectory.jsonl")
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let at = format!("perf_trajectory.jsonl line {}", i + 1);
            let row = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e:?}"));
            (at, row)
        })
        .collect()
}

#[test]
fn every_row_parses_and_names_every_workload() {
    let workloads = declared_workloads();
    assert_eq!(workloads.len(), 4, "BENCHMARK.json declares four workloads");
    let mut sides: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (at, row) in rows() {
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

#[test]
fn change_rows_store_their_ratio_to_the_parent() {
    let mut pairs: BTreeMap<String, BTreeMap<String, (String, Json)>> = BTreeMap::new();
    for (at, row) in rows() {
        let field = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(change), Some(side)) = (field("change"), field("side")) else {
            panic!("{at}: missing `change` or `side`");
        };
        pairs.entry(change).or_default().insert(side, (at, row));
    }
    for (change, sides) in pairs {
        let (Some((_, parent)), Some((at, row))) = (sides.get("parent"), sides.get("change"))
        else {
            panic!("{change}: one parent row and one change row");
        };
        let (parent, row) = (workloads(parent), workloads(row));
        for (w, m) in &row {
            let base = parent[w];
            assert!(
                base.get("ratio").is_none(),
                "{change}: parent {w} has a ratio"
            );
            let ratio = m
                .get("ratio")
                .unwrap_or_else(|| panic!("{at}: {w} has no `ratio`"));
            for metric in &METRICS[1..] {
                let median = |r: &Json| r.get(metric).and_then(Json::as_f64);
                let stored = ratio.get(metric).and_then(Json::as_f64);
                match (median(m), median(base)) {
                    (Some(c), Some(p)) if p != 0.0 => {
                        let stored = stored.unwrap_or_else(|| panic!("{at}: {w}.ratio.{metric}"));
                        assert!(
                            (stored - c / p).abs() <= 5e-5 + 1e-12,
                            "{at}: {w}.ratio.{metric} is {stored}, the medians give {}",
                            c / p
                        );
                    }
                    _ => assert!(
                        matches!(ratio.get(metric), Some(Json::Null)),
                        "{at}: {w}.ratio.{metric} must be null without both medians"
                    ),
                }
            }
        }
    }
}
