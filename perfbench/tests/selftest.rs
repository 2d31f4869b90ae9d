//! Self-test of the benchmark: a short run of every workload in
//! `BENCHMARK.json`, untraced and traced, must pass its checks and print
//! exactly the metrics `BENCHMARK.json` names, each with its unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use sicost_common::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(bench: &'a Json, key: &str) -> &'a [Json] {
    bench
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the list {key}"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric name to unit, as declared under `key`.
fn declared(bench: &Json, key: &str) -> BTreeMap<String, String> {
    list(bench, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

/// Runs one short invocation and returns its metrics, name to unit.
fn run(workload: &str, trace: u8) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_sicost-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_map)
        .expect("metrics");
    metrics
        .into_iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} has no value");
            (name.to_string(), field(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads = list(&bench, "workloads");
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(
        end_to_end.len(),
        list(&bench, "end_to_end").len(),
        "duplicate names"
    );
    assert_eq!(
        per_layer.len(),
        list(&bench, "per_layer").len(),
        "duplicate names"
    );
    for name in end_to_end.keys().chain(per_layer.keys()) {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    for workload in workloads {
        let name = field(workload, "name");
        assert!(valid_name(name), "bad workload name {name:?}");
        assert_eq!(run(name, 0), end_to_end, "{name}: untraced metrics");
        assert_eq!(run(name, 1), per_layer, "{name}: traced metrics");
    }
}
