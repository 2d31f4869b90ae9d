//! Folds the per-harness JSON reports in `bench_results/` into one
//! `BENCH_smallbank.json` at the repository root, and fails (non-zero
//! exit) when any expected harness has not emitted a usable report —
//! CI runs this after the smoke-mode bench suite as the "every harness
//! reported" gate. The fold itself is [`sicost_bench::summary::fold`],
//! which a test also runs to catch a committed fold gone stale.
//!
//! Overrides: `SICOST_BENCH_RESULTS` for the input directory,
//! `SICOST_BENCH_SUMMARY` for the output path, `SICOST_BENCH_EXPECTED`
//! (comma-separated names) for the expected-harness set — which
//! otherwise comes from the crate's `src/harnesses.txt` registry.

use sicost_bench::summary::{fold, load_reports};
use sicost_bench::{expected_harnesses, results_dir};
use std::path::PathBuf;
use std::process::ExitCode;

fn summary_path() -> PathBuf {
    match std::env::var_os("SICOST_BENCH_SUMMARY") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_smallbank.json"),
    }
}

fn main() -> ExitCode {
    let reports = match load_reports(&results_dir(), &expected_harnesses()) {
        Ok(reports) => reports,
        Err(failures) => {
            eprintln!("bench_summary: {} problem(s):", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            return ExitCode::FAILURE;
        }
    };
    for report in &reports {
        println!(
            "  {}: ok ({} series, {} tables, {} certified lines, mode {})",
            report.name,
            report.series.len(),
            report.tables.len(),
            report.certification.len(),
            report.mode
        );
    }
    let out = summary_path();
    if let Err(e) = std::fs::write(&out, fold(&reports)) {
        eprintln!("bench_summary: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "bench_summary: folded {} reports into {}",
        reports.len(),
        out.display()
    );
    ExitCode::SUCCESS
}
