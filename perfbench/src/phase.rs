//! One measured phase: a warm-up run, then a measured run of the driver,
//! with engine counters read on both sides of the measured run.

use crate::record::{self, AttemptSpans, Sample, Span};
use crate::report::ratio;
use crate::wire::{WireCounters, WireTotals};
use crate::workloads::{Instance, Target, Timed, CLIENTS};
use sicost_driver::{run, RunConfig, RunMetrics, Workload};
use sicost_engine::{Database, EngineMetrics};
use sicost_smallbank::workload::TxnRequest;
use sicost_wal::WalStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine counters at one instant.
#[derive(Debug, Clone)]
pub struct EngineSnap {
    /// `Database::metrics()`, lock classes and pool gauge included.
    pub metrics: EngineMetrics,
    /// `Database::wal_stats()`.
    pub wal: WalStats,
}

impl EngineSnap {
    fn take(db: &Database) -> Self {
        Self {
            metrics: db.metrics(),
            wal: db.wal_stats(),
        }
    }
}

/// Gauges sampled while a traced phase runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Longest version chain seen.
    pub chain_len_max: u64,
    /// Mean SIREAD marks held.
    pub siread_mean: f64,
}

/// Everything one measured run produced.
pub struct Phase {
    /// The driver's view of the measured interval.
    pub run: RunMetrics,
    /// When the measured run started, in nanoseconds since the trace epoch.
    pub started: u64,
    /// Every `execute` call of the measured run.
    pub samples: Vec<Sample>,
    /// Every span of the measured run (empty when untraced).
    pub spans: Vec<Span>,
    /// Engine counters before the measured run.
    pub before: EngineSnap,
    /// Engine counters after it.
    pub after: EngineSnap,
    /// Client-side wire traffic during it.
    pub wire: WireTotals,
    /// Gauges sampled during it (traced phases only).
    pub gauges: Gauges,
    /// Share of the machine's CPU time the hypervisor stole in each whole
    /// second of it (empty where `/proc/stat` is unreadable).
    pub steal_per_second: Vec<f64>,
}

impl Phase {
    /// Committed `execute` calls of the whole measured run.
    pub fn sampled_commits(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.outcome == sicost_driver::Outcome::Committed)
            .count() as u64
    }

    /// Latencies of the committed attempts that returned in each whole
    /// second of the measured run, each second's sorted: shows vacuum
    /// cycles and host stalls.
    pub fn committed_latencies_per_second(&self, seconds: u64) -> Vec<Vec<u64>> {
        let mut windows = vec![Vec::new(); seconds as usize];
        for s in &self.samples {
            let second = (s.end.saturating_sub(self.started) / 1_000_000_000) as usize;
            if s.outcome == sicost_driver::Outcome::Committed && second < windows.len() {
                windows[second].push(s.nanos);
            }
        }
        for w in &mut windows {
            w.sort_unstable();
        }
        windows
    }

    /// Engine commits during the measured run.
    pub fn engine_commits(&self) -> u64 {
        self.after.metrics.commits - self.before.metrics.commits
    }
}

/// Warms `instance` up for `warm`, then measures it for `measure`.
pub fn measure(instance: &Instance, seed: u64, warm: Duration, measure: Duration) -> Phase {
    let trace = instance.tracing.is_some();
    match &instance.target {
        Target::InProcess(w) => drive(w, instance.db(), None, seed, warm, measure, trace),
        Target::Wire {
            workload, counters, ..
        } => drive(
            workload,
            instance.db(),
            Some(counters),
            seed,
            warm,
            measure,
            trace,
        ),
    }
}

fn drive<W: Workload<Request = TxnRequest>>(
    workload: &W,
    db: &Database,
    wire: Option<&WireCounters>,
    seed: u64,
    warm: Duration,
    measure: Duration,
    trace: bool,
) -> Phase {
    let timed = Timed {
        inner: workload,
        trace,
    };
    // The driver's own ramp-up is zero: the warm-up is a run of its own,
    // so the measured run's engine-counter deltas cover exactly the
    // attempts that run made.
    let mut config = RunConfig::new(CLIENTS)
        .with_ramp_up(Duration::ZERO)
        .with_measure(warm)
        .with_seed(seed ^ 0x5741_524D_5550);
    if trace {
        config = config.with_observer(Arc::new(AttemptSpans));
    }
    let warm_run = run(&timed, &config);
    assert!(warm_run.commits() > 0, "the warm-up committed nothing");
    record::drain_samples();
    record::drain_spans();

    let config = config.with_measure(measure).with_seed(seed);
    let wire_before = wire.map(WireCounters::totals).unwrap_or_default();
    let before = EngineSnap::take(db);
    let started = record::now_ns();
    let stop = AtomicBool::new(false);
    let (metrics, gauges, steal_per_second) = std::thread::scope(|s| {
        let steal = s.spawn(|| sample_steal(started, measure.as_secs()));
        let sampler = trace.then(|| s.spawn(|| sample_gauges(db, &stop)));
        let metrics = run(&timed, &config);
        stop.store(true, Ordering::Release);
        let gauges = sampler
            .map(|h| h.join().expect("gauge sampler panicked"))
            .unwrap_or_default();
        let steal = steal.join().expect("steal sampler panicked");
        (metrics, gauges, steal)
    });
    let after = EngineSnap::take(db);
    Phase {
        run: metrics,
        started,
        samples: record::drain_samples(),
        spans: record::drain_spans(),
        before,
        after,
        wire: wire
            .map(|w| w.totals().since(wire_before))
            .unwrap_or_default(),
        gauges,
        steal_per_second,
    }
}

/// Reads the machine's CPU steal counter when the measured run starts (at
/// `started`) and at each of its first `seconds` whole seconds, and
/// returns each second's steal share.
fn sample_steal(started: u64, seconds: u64) -> Vec<f64> {
    let mut last = cpu_ticks();
    let mut shares = Vec::new();
    for k in 1..=seconds {
        let due = started + k * 1_000_000_000;
        std::thread::sleep(Duration::from_nanos(due.saturating_sub(record::now_ns())));
        let now = cpu_ticks();
        let (Some((steal0, total0)), Some((steal1, total1))) = (last, now) else {
            return Vec::new();
        };
        shares.push(ratio((steal1 - steal0) as f64, (total1 - total0) as f64));
        last = now;
    }
    shares
}

/// Steal and total ticks of all CPUs, from the first line of `/proc/stat`
/// (user, nice, system, idle, iowait, irq, softirq, steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Samples the chain-length and SIREAD gauges every 100 ms until `stop`.
fn sample_gauges(db: &Database, stop: &AtomicBool) -> Gauges {
    let (mut chain_max, mut sireads, mut n) = (0u64, 0u64, 0u64);
    while !stop.load(Ordering::Acquire) {
        let m = db.metrics();
        chain_max = chain_max.max(m.max_chain_len);
        sireads += m.siread_entries;
        n += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    Gauges {
        chain_len_max: chain_max,
        siread_mean: if n == 0 {
            0.0
        } else {
            sireads as f64 / n as f64
        },
    }
}
