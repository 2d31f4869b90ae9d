//! The fold of every harness report into `BENCH_smallbank.json`.
//!
//! The `bench_summary` binary writes the fold, and
//! `tests/summary_fold.rs` recomputes it from the committed reports and
//! requires the committed `BENCH_smallbank.json` to match it byte for
//! byte, so a report regenerated without a re-fold fails a test.

use crate::report::{BenchReport, SCHEMA_VERSION};
use sicost_common::Json;
use std::path::Path;

/// Reads and checks the report of every `expected` harness in `dir`.
///
/// # Errors
/// One line per harness whose report is missing, unparseable, named for
/// another harness, or carries no data.
pub fn load_reports(dir: &Path, expected: &[String]) -> Result<Vec<BenchReport>, Vec<String>> {
    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for name in expected {
        let path = dir.join(format!("{name}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{name}: missing report {} ({e})", path.display()));
                continue;
            }
        };
        let report = match BenchReport::parse(&text) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{name}: unparseable report: {e}"));
                continue;
            }
        };
        if report.name != *name {
            failures.push(format!(
                "{name}: report is named `{}` — wrong file?",
                report.name
            ));
            continue;
        }
        if report.series.is_empty() && report.tables.is_empty() && report.certification.is_empty() {
            failures.push(format!("{name}: report carries no data"));
            continue;
        }
        reports.push(report);
    }
    if failures.is_empty() {
        Ok(reports)
    } else {
        Err(failures)
    }
}

/// The text of `BENCH_smallbank.json` for `reports`: totals of the
/// certified lines and anomalies, then every report under its name.
/// Modes can differ per report if runs were mixed; each report records
/// its own.
pub fn fold(reports: &[BenchReport]) -> String {
    let certified_lines: u64 = reports.iter().map(|r| r.certification.len() as u64).sum();
    let total_anomalies: u64 = reports
        .iter()
        .flat_map(|r| &r.certification)
        .map(|c| c.anomalies())
        .sum();
    let folded = Json::obj(vec![
        ("schema_version", Json::int(SCHEMA_VERSION)),
        ("harnesses", Json::int(reports.len() as u64)),
        ("certified_lines", Json::int(certified_lines)),
        ("total_anomalies", Json::int(total_anomalies)),
        (
            "reports",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.name.clone(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let mut text = folded.pretty();
    text.push('\n');
    text
}
