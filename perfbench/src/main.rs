//! SmallBank benchmark of the sicost engine in its engine-intrinsic mode
//! (the cost model off, so hot-path changes show).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times many set-ups of the database (`setup_s` is a
//! median), warms up, runs the closed-loop SmallBank driver for
//! `--seconds`, and reports the end-to-end metrics. With `--trace 1` it
//! makes the same untraced run as a baseline, then a separate traced run
//! on a fresh database, and reports the per-layer metrics and a self-time
//! table. Either way it checks the outputs, prints every metric with its
//! unit, ends with one JSON line, and exits non-zero if a check fails.

mod layers;
mod phase;
mod record;
mod report;
mod wire;
mod workloads;

use layers::SelfTimes;
use phase::Phase;
use report::{median, peak_rss_mb, percentile_us, ratio, Report};
use sicost_driver::RunMetrics;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Instance, Spec, CLIENTS};

/// An untraced run times set-ups in batches of consecutive set-ups that
/// last at least `SETUP_BATCH`; each batch's mean per set-up is a sample,
/// and `setup_s` is the median of at least `MIN_SETUP_SAMPLES` samples
/// taken over at least `SETUP_BUDGET`. Batching matters for set-ups of a
/// few milliseconds, whose times switch between host speed regimes every
/// few tens of milliseconds; a set-up longer than a batch is one sample.
const SETUP_BATCH: Duration = Duration::from_millis(100);
const MIN_SETUP_SAMPLES: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

const USAGE: &str = "usage: perfbench --workload <ssi-hotspot|si-uniform|paged-uniform|wire-tcp> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("mode: {}", args.spec.describe());
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Warm-up before each measured run: long enough for version chains,
/// SIREAD marks and the buffer pool to reach their steady state.
fn warm_up(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 * 0.2).clamp(0.2, 2.0))
}

fn untraced(a: &Args) -> Report {
    let (mut samples, mut setups, mut timed) = (Vec::new(), 0, 0.0);
    let mut instance = None;
    while samples.len() < MIN_SETUP_SAMPLES || timed < SETUP_BUDGET.as_secs_f64() {
        let (mut n, mut batch) = (0, 0.0);
        while n == 0 || batch < SETUP_BATCH.as_secs_f64() {
            // One database at a time, so peak memory is one workload's.
            if let Some(previous) = instance.take() {
                Instance::teardown(previous);
            }
            let (fresh, secs) = Instance::setup(&a.spec, a.seed, false);
            (n, batch) = (n + 1, batch + secs);
            instance = Some(fresh);
        }
        samples.push(batch / f64::from(n));
        (setups, timed) = (setups + n, timed + batch);
    }
    let instance = instance.expect("at least one set-up");
    let measure = Duration::from_secs(a.seconds);
    let phase = phase::measure(&instance, a.seed, warm_up(a.seconds), measure);
    instance.teardown();

    let mut report = Report::default();
    check_phase(&mut report, &phase, "measured run");
    let run = &phase.run;
    report.attempted = run.attempts();
    report.failed = failed(run);
    println!(
        "set-up: {setups} times in {} batches; batch means from {:.6} s to {:.6} s",
        samples.len(),
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(0.0, f64::max),
    );
    // Goodput and latency are taken over the seconds in which the host
    // stole least from this machine: in a second it steals from, a client
    // stalls for whole scheduler slices, and a few such stalls decide the
    // p99. Without steal that is every second.
    let windows = phase.committed_latencies_per_second(a.seconds);
    let quiet = quiet_seconds(&phase.steal_per_second, windows.len());
    let kept: Vec<&Vec<u64>> = windows
        .iter()
        .zip(&quiet)
        .filter_map(|(w, &q)| q.then_some(w))
        .collect();
    let mut committed: Vec<u64> = kept.iter().flat_map(|w| w.iter().copied()).collect();
    committed.sort_unstable();
    // The tail is taken per second and the median second reported, so
    // that a stall the steal counter missed sways one second only.
    let p99_per_second: Vec<f64> = kept
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile_us(w, 0.99))
        .collect();
    println!(
        "driver: {} commits of {} attempts in {:.3} s ({:.1}/s); per-second commits {:?}",
        run.commits(),
        run.attempts(),
        run.measured.as_secs_f64(),
        run.tps(),
        windows.iter().map(Vec::len).collect::<Vec<_>>()
    );
    println!(
        "host: per-second steal % {:.1?}; {} of {} seconds kept",
        phase
            .steal_per_second
            .iter()
            .map(|s| s * 100.0)
            .collect::<Vec<_>>(),
        kept.len(),
        windows.len()
    );
    println!(
        "latency: p50 over n = {} committed attempts; p99 the median of {} per-second p99s {:.1?}",
        committed.len(),
        p99_per_second.len(),
        p99_per_second
    );
    report.metric(
        "goodput_tps",
        committed.len() as f64 / kept.len() as f64,
        "1/s",
    );
    report.metric("latency_p50_us", percentile_us(&committed, 0.50), "us");
    report.metric(
        "latency_p99_us",
        if p99_per_second.is_empty() {
            f64::NAN
        } else {
            median(&p99_per_second)
        },
        "us",
    );
    report.metric("abort_pct", abort_pct(run), "%");
    report.metric("setup_s", median(&samples), "s");
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.check(false, "peak RSS is readable from /proc/self/status"),
    }
    report
}

fn traced(a: &Args) -> Report {
    // Two phases of half the run length each, so a traced invocation takes
    // about as long as an untraced one.
    let (warm, measure) = (
        warm_up(a.seconds),
        Duration::from_secs_f64((a.seconds as f64 / 2.0).max(1.0)),
    );
    let mut report = Report::default();

    let (instance, _) = Instance::setup(&a.spec, a.seed, false);
    let base = phase::measure(&instance, a.seed, warm, measure);
    instance.teardown();
    check_phase(&mut report, &base, "untraced baseline run");

    let (instance, _) = Instance::setup(&a.spec, a.seed, true);
    let mut traced = phase::measure(&instance, a.seed, warm, measure);
    check_phase(&mut report, &traced, "traced run");
    report.attempted = traced.run.attempts();
    report.failed = failed(&traced.run);

    let (certified, anomalies) = match instance.tracing.as_ref().and_then(|t| t.certifier.as_ref())
    {
        Some(certifier) => {
            certifier.finish();
            let stats = certifier.stats();
            report.check(
                stats.transactions_certified > 0 && stats.anomalies() == 0,
                format!(
                    "traced run certifies serializable: {} anomalies in {} certified transactions",
                    stats.anomalies(),
                    stats.transactions_certified
                ),
            );
            (stats.transactions_certified, stats.anomalies())
        }
        None => (0, 0),
    };
    instance.teardown();

    let times = SelfTimes::from_spans(&mut traced.spans);
    write_spans(a.spec.name, &traced.spans);
    report.check(
        times.attempts > 0 && times.incomplete == 0,
        format!(
            "every traced attempt nests a program span and an engine transaction \
             ({} attempts, {} without)",
            times.attempts, times.incomplete
        ),
    );
    times.print_table(a.spec.name, a.spec.wire);

    layers::smallbank(&mut report, &base.samples);
    layers::engine(&mut report, &traced, &times);
    report.metric("mvsg.txns_certified", certified as f64, "count");
    report.metric("mvsg.anomalies", anomalies as f64, "count");
    report.metric(
        "trace.overhead_pct",
        ratio((base.run.tps() - traced.run.tps()) * 100.0, base.run.tps()),
        "%",
    );
    report
}

/// Attempts that ended in a serialization failure, deadlock, transient
/// fault or unknown fate, as a percentage of all attempts.
fn abort_pct(run: &RunMetrics) -> f64 {
    let aborts = run.serialization_failures()
        + run.deadlocks()
        + run.transient_faults()
        + run.indeterminates();
    ratio(aborts as f64 * 100.0, run.attempts() as f64)
}

/// Steal share up to which a second counts as quiet whatever the others:
/// four of the 200 ticks a second has on two CPUs at 100 Hz.
const QUIET_STEAL: f64 = 0.02;

/// Which of `seconds` seconds to measure over: those whose steal share is
/// at most the median second's or at most `QUIET_STEAL`, so at least half
/// of them. All of them when steal was not read.
fn quiet_seconds(steal: &[f64], seconds: usize) -> Vec<bool> {
    if steal.len() != seconds {
        return vec![true; seconds];
    }
    let limit = median(steal).max(QUIET_STEAL);
    steal.iter().map(|&s| s <= limit).collect()
}

/// Attempts that ended in an error no correct run produces: no faults
/// are injected, so a transient fault or an unknown commit fate is one.
fn failed(run: &RunMetrics) -> u64 {
    run.transient_faults() + run.indeterminates()
}

fn check_phase(report: &mut Report, p: &Phase, label: &str) {
    let run = &p.run;
    let sampled = p.sampled_commits();
    report.check(
        run.commits() > 0,
        format!("{label}: the workload commits ({} commits)", run.commits()),
    );
    report.check(
        failed(run) == 0,
        format!(
            "{label}: no transient faults or indeterminate commits ({} and {})",
            run.transient_faults(),
            run.indeterminates()
        ),
    );
    report.check(
        p.engine_commits() == sampled,
        format!(
            "{label}: the engine's commit delta {} equals the commits the workload returned {}",
            p.engine_commits(),
            sampled
        ),
    );
    // The driver counts only operations that both started and finished
    // inside its interval. One per client straddles its end; at its start,
    // clients may finish a few operations before the runner's thread flips
    // the phase, so a thousandth of the total is allowed there.
    let straddling = 2 * CLIENTS as u64 + sampled / 1000;
    report.check(
        run.commits() <= sampled && sampled - run.commits() <= straddling,
        format!(
            "{label}: the driver's {} commits match the {} returned, up to {} straddling the interval's ends",
            run.commits(),
            sampled,
            straddling
        ),
    );
}

/// Attempts whose spans are written out (the file stays a few MB).
const WRITTEN_ATTEMPTS: usize = 50_000;

/// Writes the spans of the traced run's first attempts (`spans` is sorted
/// by attempt), one per line, next to the build output.
fn write_spans(workload: &str, spans: &[record::Span]) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("{workload}.tsv"));
    let spans: Vec<&record::Span> = spans
        .chunk_by(|a, b| a.attempt == b.attempt)
        .take(WRITTEN_ATTEMPTS)
        .flatten()
        .collect();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "attempt\tlayer\tstart_ns\tend_ns\treads")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{:?}\t{}\t{}\t{}",
                s.attempt, s.layer, s.start, s.end, s.reads
            )?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }
}
