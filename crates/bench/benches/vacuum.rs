//! **A12** — version GC under sustained load: chain length, SIREAD
//! footprint and goodput with the vacuum daemon on vs off.
//!
//! The paper's runs are short enough that dead snapshot versions never
//! matter; a *sustained* open-system run is where SI platforms pay for
//! them. Every commit prunes the chains it installs onto back to the
//! oldest active snapshot, so chain length no longer depends on vacuum;
//! the SSI manager's SIREAD marks of committed readers still do.
//!
//! This harness drives the same SSI SmallBank engine through consecutive
//! open-loop windows, sampling the engine's live gauges after each:
//!
//! * **GC off** — the SIREAD count grows with the commit count, while the
//!   max chain length stays bounded by install-time pruning alone;
//! * **GC on** (commit-cadence [`VacuumPolicy`]) — both stay flat
//!   (asserted bounded at the end), at equal or better goodput.
//!
//! A second axis sweeps the worker-pool size 1→4 to show the lock-free
//! read path scaling — informational only, degrading gracefully on a
//! single-core host (`available_parallelism` is printed with the rows).
//!
//! Every sample is also appended to `target/vacuum-trace/trace.jsonl`;
//! CI uploads that file when the harness fails.

use sicost_bench::{BenchMode, BenchReport};
use sicost_common::{OnlineStats, Summary};
use sicost_driver::{
    run, run_open, AdmissionPolicy, ArrivalProcess, OpenConfig, Report, RunConfig, Series,
    VacuumReport,
};
use sicost_engine::{CcMode, EngineConfig, VacuumPolicy};
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Open-system worker pool (and closed-calibration MPL).
const WORKERS: usize = 4;

/// Virtual cost of one SmallBank transaction on the paper's
/// PostgreSQL-like platform: ~4 ops × 110 µs + 220 µs commit CPU. The
/// functional engine used here has zero simulated cost, so the ≥ 60 s
/// sustained-load claim is stated in *virtual* time: commits × this.
const PAPER_TXN_COST: Duration = Duration::from_micros(660);

/// One post-window sample of the engine's memory gauges.
struct WindowSample {
    window: usize,
    commits: u64,
    goodput: f64,
    max_chain_len: u64,
    siread_entries: u64,
    versions_pruned: u64,
    vacuum_runs: u64,
}

fn build_driver(
    customers: u64,
    hotspot: u64,
    vacuum: VacuumPolicy,
    seed: u64,
) -> (Arc<SmallBank>, SmallBankDriver) {
    let mut config = SmallBankConfig::paper();
    config.customers = customers;
    config.seed ^= seed;
    let mut engine = EngineConfig::functional();
    engine.cc = CcMode::Ssi;
    engine.vacuum = vacuum;
    let bank = Arc::new(SmallBank::new(&config, engine, Strategy::BaseSI));
    let params = WorkloadParams::paper_default().scaled(customers, hotspot);
    let driver = SmallBankDriver::new(Arc::clone(&bank), SmallBankWorkload::new(params));
    (bank, driver)
}

fn summarize(vals: &[f64]) -> Summary {
    let mut s = OnlineStats::new();
    for &v in vals {
        s.push(v);
    }
    s.summary()
}

/// Runs `windows` consecutive open-loop windows against one engine,
/// sampling the live gauges after each, appending JSONL trace lines.
#[allow(clippy::too_many_arguments)]
fn run_windows(
    label: &str,
    bank: &SmallBank,
    driver: &SmallBankDriver,
    offered: f64,
    horizon: Duration,
    windows: usize,
    seed: u64,
    trace: &mut impl std::io::Write,
) -> Vec<WindowSample> {
    let mut samples = Vec::new();
    let mut commits_before = bank.db().metrics().commits;
    for w in 0..windows {
        let cfg = OpenConfig::new(offered)
            .with_process(ArrivalProcess::Poisson)
            .with_horizon(horizon)
            .with_workers(WORKERS)
            .with_admission(AdmissionPolicy::DropOnFull { capacity: 64 })
            .with_seed(seed + w as u64);
        let open = run_open(driver, &cfg);
        let m = bank.db().metrics();
        let sample = WindowSample {
            window: w,
            commits: m.commits - commits_before,
            goodput: open.goodput(),
            max_chain_len: m.max_chain_len,
            siread_entries: m.siread_entries,
            versions_pruned: m.versions_pruned,
            vacuum_runs: m.vacuum_runs,
        };
        commits_before = m.commits;
        writeln!(
            trace,
            "{{\"gc\":\"{label}\",\"window\":{},\"commits\":{},\"goodput_tps\":{:.1},\
             \"max_chain_len\":{},\"siread_entries\":{},\"versions_pruned\":{},\
             \"vacuum_runs\":{}}}",
            sample.window,
            sample.commits,
            sample.goodput,
            sample.max_chain_len,
            sample.siread_entries,
            sample.versions_pruned,
            sample.vacuum_runs,
        )
        .expect("write GC trace line");
        println!(
            "{label:>4} window {w:>2} | {:>8} commits {:>9.0} tps | chain {:>5} siread {:>8} | \
             pruned {:>8} runs {:>3}",
            sample.commits,
            sample.goodput,
            sample.max_chain_len,
            sample.siread_entries,
            sample.versions_pruned,
            sample.vacuum_runs,
        );
        samples.push(sample);
    }
    samples
}

fn main() {
    let mode = BenchMode::from_env();
    let (customers, hotspot, horizon, windows, cadence): (u64, u64, Duration, usize, u64) =
        match mode {
            BenchMode::Smoke => (400, 40, Duration::from_millis(150), 4, 250),
            BenchMode::Quick => (1_000, 100, Duration::from_millis(300), 6, 500),
            BenchMode::Full => (2_000, 200, Duration::from_millis(1_000), 10, 1_000),
        };

    println!(
        "\nA12 — version GC under sustained load ({} mode)",
        mode.name()
    );
    println!("{:-<100}", "");

    // Anchored at the workspace root (cargo runs benches from the
    // package dir), matching the CI artifact path target/vacuum-trace/.
    let trace_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/vacuum-trace");
    std::fs::create_dir_all(trace_dir).expect("create trace dir");
    let mut trace = std::io::BufWriter::new(
        std::fs::File::create(format!("{trace_dir}/trace.jsonl")).expect("create GC trace"),
    );

    // Closed-system calibration on a throwaway GC-on engine: the open
    // windows offer a fixed multiple of what WORKERS coupled clients
    // sustain, so both arms see identical offered schedules.
    let (cal_bank, cal_driver) = build_driver(
        customers,
        hotspot,
        VacuumPolicy::every_commits(cadence),
        0xA12,
    );
    let closed = RunConfig::new(WORKERS)
        .with_ramp_up(mode.ramp_up() / 2)
        .with_measure(mode.measure() / 2)
        .with_seed(0xA12);
    let peak = run(&cal_driver, &closed).tps();
    assert!(peak > 0.0, "calibration run made no progress");
    drop((cal_bank, cal_driver));
    let offered = peak * 1.2;
    println!("closed peak {peak:.0} tps at MPL {WORKERS}; offering {offered:.0} tps\n");

    // --- The two arms: same workload, same offered load, GC off vs on.
    let (off_bank, off_driver) = build_driver(customers, hotspot, VacuumPolicy::disabled(), 0xA12);
    let off = run_windows(
        "off",
        &off_bank,
        &off_driver,
        offered,
        horizon,
        windows,
        0xA1200,
        &mut trace,
    );
    println!();
    let (on_bank, on_driver) = build_driver(
        customers,
        hotspot,
        VacuumPolicy::every_commits(cadence),
        0xA12,
    );
    let on = run_windows(
        "on", &on_bank, &on_driver, offered, horizon, windows, 0xA1200, &mut trace,
    );
    trace.flush().expect("flush GC trace");

    // --- Assertions: the memory/latency model's observable claims.
    let (off_first, off_last) = (&off[0], &off[windows - 1]);
    let on_last = &on[windows - 1];
    for (label, samples) in [("off", &off), ("on", &on)] {
        for s in samples.iter() {
            assert!(
                s.max_chain_len <= 64,
                "GC-{label} window {}: install-time pruning must keep the max chain \
                 bounded, got {}",
                s.window,
                s.max_chain_len
            );
        }
    }
    assert!(
        off_last.versions_pruned > 0,
        "installs prune even with the cadence off"
    );
    assert!(
        off_last.siread_entries > off_first.siread_entries,
        "GC-off SIREAD footprint must grow across the run: {} -> {}",
        off_first.siread_entries,
        off_last.siread_entries
    );
    assert_eq!(off_last.vacuum_runs, 0, "GC-off must never vacuum");
    assert!(on_last.vacuum_runs > 0, "GC-on cadence must have fired");
    assert!(
        on_last.siread_entries < off_last.siread_entries,
        "GC-on final SIREAD count {} must beat GC-off {}",
        on_last.siread_entries,
        off_last.siread_entries
    );
    let goodput_off: f64 = off.iter().map(|s| s.goodput).sum::<f64>() / windows as f64;
    let goodput_on: f64 = on.iter().map(|s| s.goodput).sum::<f64>() / windows as f64;
    // Equal-or-better goodput, with head-room for sampling noise in the
    // short smoke windows.
    let margin = match mode {
        BenchMode::Smoke => 0.75,
        _ => 0.9,
    };
    assert!(
        goodput_on >= margin * goodput_off,
        "GC must not cost goodput: on {goodput_on:.0} tps vs off {goodput_off:.0} tps"
    );

    // Virtual-time accounting: what this run would have been on the
    // paper's platform (the sustained-load claim is ≥ 60 virtual s).
    let commits_on: u64 = on.iter().map(|s| s.commits).sum();
    let virtual_time = PAPER_TXN_COST * commits_on as u32;
    println!(
        "\nGC-on arm: {commits_on} commits = {virtual_time:.1?} virtual at the paper's \
         {PAPER_TXN_COST:?}/txn ({} mode)",
        mode.name()
    );
    if matches!(mode, BenchMode::Full) {
        assert!(
            virtual_time >= Duration::from_secs(60),
            "full mode must sustain >= 60 virtual seconds, got {virtual_time:.1?}"
        );
    }

    // --- Worker-scaling axis: informational, graceful on one core.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nworker sweep (host has {cores} core(s) — scaling is informational):");
    let mut scaling = Series::new("GC-on goodput tps");
    let mut scaling_rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let (bank, driver) = build_driver(
            customers,
            hotspot,
            VacuumPolicy::every_commits(cadence),
            0xA12 + workers as u64,
        );
        let cfg = OpenConfig::new(offered)
            .with_process(ArrivalProcess::Poisson)
            .with_horizon(horizon)
            .with_workers(workers)
            .with_admission(AdmissionPolicy::DropOnFull { capacity: 64 })
            .with_seed(0xA1277 + workers as u64);
        let m = run_open(&driver, &cfg);
        println!("  {workers} workers: {:>9.0} tps", m.goodput());
        scaling.push(workers as f64, summarize(&[m.goodput()]));
        scaling_rows.push(vec![
            workers.to_string(),
            cores.to_string(),
            format!("{:.0}", m.goodput()),
        ]);
        drop((bank, driver));
    }

    // The driver's GC view of the final GC-on engine.
    let final_metrics = on_bank.db().metrics();
    println!("\n{}", VacuumReport(&final_metrics).render());

    // --- Report.
    let mut report = BenchReport::new(
        "vacuum",
        "A12 — version GC under sustained load: chain length, SIREAD footprint and \
         goodput with the vacuum daemon on vs off",
        mode,
    );
    let mut chain_series = vec![
        Series::new("GC-off max chain"),
        Series::new("GC-on max chain"),
        Series::new("GC-off siread"),
        Series::new("GC-on siread"),
    ];
    let mut rows = Vec::new();
    for (label, samples) in [("off", &off), ("on", &on)] {
        for s in samples.iter() {
            let (ci, si) = if label == "off" { (0, 2) } else { (1, 3) };
            chain_series[ci].push(s.window as f64, summarize(&[s.max_chain_len as f64]));
            chain_series[si].push(s.window as f64, summarize(&[s.siread_entries as f64]));
            rows.push(vec![
                label.to_string(),
                s.window.to_string(),
                s.commits.to_string(),
                format!("{:.0}", s.goodput),
                s.max_chain_len.to_string(),
                s.siread_entries.to_string(),
                s.versions_pruned.to_string(),
                s.vacuum_runs.to_string(),
            ]);
        }
    }
    report.push_series("window", &chain_series);
    report.push_series("workers", &[scaling]);
    report.push_table(
        "GC on/off windows",
        vec![
            "gc".into(),
            "window".into(),
            "commits".into(),
            "goodput tps".into(),
            "max chain".into(),
            "siread".into(),
            "pruned".into(),
            "vacuum runs".into(),
        ],
        rows,
    );
    report.push_table(
        "worker scaling (informational)",
        vec!["workers".into(), "host cores".into(), "goodput tps".into()],
        scaling_rows,
    );
    let expectation = "With GC off, the SSI manager's SIREAD footprint grows \
         with the commit count, while the max version-chain length stays \
         bounded: every commit prunes the chains it installs onto back to \
         the oldest active snapshot. With the commit-cadence vacuum on, \
         both gauges stay flat at equal or better goodput. The worker \
         sweep is informational: lock-free reads scale with cores, which \
         on a single-core host means roughly flat.";
    println!("Expectation: {expectation}");
    report.expectation = expectation.into();
    report.notes.push(format!(
        "functional SSI engine, {customers} customers (hotspot {hotspot}), {WORKERS} workers, \
         {windows} windows x {horizon:?}, vacuum every {cadence} commits, offered 1.2x closed peak"
    ));
    report.notes.push(format!(
        "GC-on virtual time {virtual_time:.1?} at {PAPER_TXN_COST:?}/txn; \
         goodput on/off = {goodput_on:.0}/{goodput_off:.0} tps"
    ));
    println!("report: {}", report.write().display());
}
