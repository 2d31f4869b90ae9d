//! **Ablation A3** — the disk-write dominance claim (§IV-D).
//!
//! The paper's cost analysis rests on "once a transaction needs one
//! write, extra writes have negligible extra cost" and on group commit
//! amortising the log sync. This harness sweeps the group-commit window
//! (`commit_delay`) at fixed MPL and reports throughput and the mean
//! sync batch size.

use sicost_bench::{BenchMode, BenchReport};
use sicost_driver::{run, RetryPolicy, RunConfig};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mode = BenchMode::from_env();
    let params = WorkloadParams::paper_default().scaled(mode.customers(), mode.customers() / 18);
    let mpl = 10;
    println!("\nAblation A3 — group-commit window sweep (SI, MPL {mpl})");
    println!("{:-<72}", "");
    println!(
        "{:>12} | {:>10} | {:>12} | {:>12} | {:>10}",
        "delay (µs)", "TPS", "syncs/s", "batch avg", "batch max"
    );
    println!("{:-<72}", "");
    let mut rows = Vec::new();
    let mut batch_avgs = Vec::new();
    for delay_us in [0u64, 250, 500, 1000, 2000, 4000] {
        let mut engine = EngineConfig::postgres_like();
        engine.wal.commit_delay = Duration::from_micros(delay_us);
        let mut cfg = SmallBankConfig::paper();
        cfg.customers = params.customers;
        let bank = Arc::new(SmallBank::new(&cfg, engine, Strategy::BaseSI));
        let driver = SmallBankDriver::new(Arc::clone(&bank), SmallBankWorkload::new(params));
        let metrics = run(
            &driver,
            &RunConfig::new(mpl)
                .with_ramp_up(mode.ramp_up())
                .with_measure(mode.measure())
                .with_seed(0x6C)
                .with_retry(RetryPolicy::disabled()),
        );
        let wal = bank.db().wal_stats();
        let dev = bank.db().device_stats();
        let secs = metrics.measured.as_secs_f64();
        let batch_avg = if wal.batches > 0 {
            wal.records as f64 / wal.batches as f64
        } else {
            0.0
        };
        println!(
            "{:>12} | {:>10.0} | {:>12.0} | {:>12.2} | {:>10}",
            delay_us,
            metrics.tps(),
            dev.syncs as f64 / secs.max(1e-9),
            batch_avg,
            wal.max_batch
        );
        batch_avgs.push((delay_us, batch_avg));
        rows.push(vec![
            delay_us.to_string(),
            format!("{:.0}", metrics.tps()),
            format!("{:.0}", dev.syncs as f64 / secs.max(1e-9)),
            format!("{batch_avg:.2}"),
            wal.max_batch.to_string(),
        ]);
    }
    println!("{:-<72}", "");
    let expectation = "Larger windows batch more commits per sync; \
         throughput first improves (fewer 4ms syncs) then flattens as the \
         added commit latency offsets the batching gain — the regime in \
         which the paper ran (commit_delay enabled).";
    println!("Expectation: {expectation}");
    let mut report = BenchReport::new(
        "ablation_groupcommit",
        format!("Ablation A3 — group-commit window sweep (SI, MPL {mpl})"),
        mode,
    );
    report.expectation = expectation.into();
    report.push_table(
        "group-commit sweep",
        ["delay (µs)", "TPS", "syncs/s", "batch avg", "batch max"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    );
    println!("report: {}", report.write().display());

    // Group commit must still batch under the calibrated device: every
    // window shares syncs, and the widest window shares more than none.
    for &(delay_us, avg) in &batch_avgs {
        assert!(avg > 1.0, "no batching at {delay_us} µs: {avg:.2} per sync");
    }
    let (first, last) = (batch_avgs[0], batch_avgs[batch_avgs.len() - 1]);
    assert!(
        last.1 > first.1,
        "batch avg at {} µs ({:.2}) not above {} µs ({:.2})",
        last.0,
        last.1,
        first.0,
        first.1
    );
}
