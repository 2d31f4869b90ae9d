//! The closed-system runner.

use crate::hooks::AttemptObserver;
use crate::metrics::{Outcome, RunMetrics};
use crate::retry::{RetryDecision, RetryPolicy};
use sicost_common::{OnlineStats, Summary, Xoshiro256};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Something the driver can measure: a transaction source.
///
/// Sampling and execution are split so the retry loop can re-execute the
/// *same* request after a retryable abort — retrying a SmallBank transfer
/// must not silently turn it into a different transfer.
pub trait Workload: Send + Sync {
    /// One sampled client request, replayable across attempts.
    type Request: Send;

    /// Names of the transaction kinds (stable indexes).
    fn kinds(&self) -> Vec<&'static str>;

    /// Draws the next request and its kind index from the client's RNG.
    fn sample(&self, rng: &mut Xoshiro256) -> (usize, Self::Request);

    /// Runs one attempt of `request` to completion (commit or abort).
    /// `attempt` is 1-based and increments on each retry of the same
    /// request. Blocking inside (locks, group commit) is expected — that
    /// is the system under test.
    fn execute(&self, request: &Self::Request, attempt: u32) -> Outcome;
}

/// Parameters of one measured run.
///
/// Built builder-style from [`RunConfig::new`]; the attempt observer —
/// previously a separate `run_closed_observed` entry point — is part of
/// the configuration ([`RunConfig::with_observer`]), so [`run`] is the
/// single way to execute a closed-system run.
#[derive(Clone)]
pub struct RunConfig {
    /// Multiprogramming level: number of closed-loop client threads.
    pub mpl: usize,
    /// Warm-up excluded from measurement (paper: 30 s; scaled down here).
    pub ramp_up: Duration,
    /// Measurement interval (paper: 60 s).
    pub measure: Duration,
    /// Base RNG seed; thread `i` uses an independent stream.
    pub seed: u64,
    /// Client retry policy applied to every request.
    pub retry: RetryPolicy,
    /// Observer that sees every attempt (including ramp-up ones) on the
    /// client thread that runs it — how the `sicost-trace` sink learns
    /// which kind and attempt the engine events that follow belong to.
    pub observer: Option<Arc<dyn AttemptObserver>>,
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("mpl", &self.mpl)
            .field("ramp_up", &self.ramp_up)
            .field("measure", &self.measure)
            .field("seed", &self.seed)
            .field("retry", &self.retry)
            .field("observer", &self.observer.as_ref().map(|_| "<observer>"))
            .finish()
    }
}

impl RunConfig {
    /// A configuration at `mpl` with fast test-friendly defaults (50 ms
    /// ramp-up, 300 ms measurement, retry disabled, no observer); adjust
    /// with the `with_*` builders.
    pub fn new(mpl: usize) -> Self {
        Self {
            mpl,
            ramp_up: Duration::from_millis(50),
            measure: Duration::from_millis(300),
            seed: 0xD1CE,
            retry: RetryPolicy::disabled(),
            observer: None,
        }
    }

    /// A fast configuration for tests. Retry is disabled so every attempt
    /// is final, as in the pre-retry driver. (Alias of [`RunConfig::new`].)
    pub fn quick(mpl: usize) -> Self {
        Self::new(mpl)
    }

    /// Sets the ramp-up period excluded from measurement (builder-style).
    pub fn with_ramp_up(mut self, ramp_up: Duration) -> Self {
        self.ramp_up = ramp_up;
        self
    }

    /// Sets the measurement interval (builder-style).
    pub fn with_measure(mut self, measure: Duration) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the base RNG seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches an [`AttemptObserver`] (builder-style). The observer sees
    /// every attempt, including ramp-up ones, on the thread running it.
    pub fn with_observer(mut self, observer: Arc<dyn AttemptObserver>) -> Self {
        self.observer = Some(observer);
        self
    }
}

const PHASE_RAMP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Runs the closed system: `mpl` threads, each looping
/// sample–execute–retry with no think time. Each client retries its
/// current request under [`RunConfig::retry`] until it commits, fails
/// non-retryably, or exhausts the budget (a give-up). The configured
/// [`RunConfig::observer`], if any, sees every attempt (including
/// ramp-up ones) on the client thread that runs it. Returns the merged
/// metrics for the measurement interval only; a whole operation (all of
/// its attempts) is attributed to the measurement interval only when it
/// both *began* and *finished* inside it, so per-kind attempt counts stay
/// exact multiples of the per-request retry schedule and no ramp-up
/// attempts or ramp-up latency leak into the measured numbers.
pub fn run<W: Workload>(workload: &W, config: &RunConfig) -> RunMetrics {
    run_inner(workload, config, config.observer.as_deref())
}

fn run_inner<W: Workload>(
    workload: &W,
    config: &RunConfig,
    hook: Option<&dyn AttemptObserver>,
) -> RunMetrics {
    let kinds = workload.kinds();
    // With no ramp-up the interval opens before the clients start, so no
    // operation can finish unmeasured while this thread waits for a CPU.
    let ramp = !config.ramp_up.is_zero();
    let phase = AtomicU8::new(if ramp { PHASE_RAMP } else { PHASE_MEASURE });
    let mut t0 = Instant::now();
    let base_rng = Xoshiro256::seed_from_u64(config.seed);

    let mut merged = RunMetrics::new(kinds.clone(), config.mpl);
    let measured = std::thread::scope(|s| {
        let phase_ref = &phase;
        let handles: Vec<_> = (0..config.mpl)
            .map(|i| {
                let mut rng = base_rng.stream(i as u64);
                let kind_names = kinds.clone();
                s.spawn(move || {
                    let mut local = RunMetrics::new(vec![""; kind_names.len()], 0);
                    // Attempt outcomes of the in-flight operation, buffered
                    // so the whole operation is recorded atomically at its
                    // completion (or discarded outside the interval).
                    let mut attempts_buf: Vec<Outcome> = Vec::new();
                    while phase_ref.load(Ordering::Acquire) != PHASE_DONE {
                        // Phase at the operation's *start*: an op that
                        // straddles the ramp→measure boundary must not
                        // attribute its ramp-up attempts (or their latency)
                        // to the measurement interval.
                        let started_in_measure = phase_ref.load(Ordering::Acquire) == PHASE_MEASURE;
                        let (kind, request) = workload.sample(&mut rng);
                        let op_t0 = Instant::now();
                        let mut attempt = 1u32;
                        attempts_buf.clear();
                        let mut last_attempt_time;
                        let (final_outcome, gave_up) = loop {
                            if let Some(h) = hook {
                                h.attempt_begin(kind, kind_names[kind], attempt);
                            }
                            let t0 = Instant::now();
                            let outcome = workload.execute(&request, attempt);
                            last_attempt_time = t0.elapsed();
                            if let Some(h) = hook {
                                h.attempt_end(outcome, last_attempt_time);
                            }
                            attempts_buf.push(outcome);
                            match config.retry.decide(outcome, attempt, &mut rng) {
                                RetryDecision::Done => break (outcome, false),
                                RetryDecision::GiveUp => break (outcome, true),
                                RetryDecision::Retry(backoff) => {
                                    // Stop retrying once the run is over so
                                    // shutdown never waits on a backoff chain.
                                    if phase_ref.load(Ordering::Acquire) == PHASE_DONE {
                                        break (outcome, false);
                                    }
                                    if !backoff.is_zero() {
                                        std::thread::sleep(backoff);
                                    }
                                    attempt += 1;
                                }
                            }
                        };
                        if !started_in_measure || phase_ref.load(Ordering::Acquire) != PHASE_MEASURE
                        {
                            continue;
                        }
                        let op_latency = op_t0.elapsed();
                        let k = &mut local.per_kind[kind];
                        for outcome in &attempts_buf {
                            // Commit latency is recorded at operation
                            // granularity below, not per attempt.
                            if *outcome != Outcome::Committed {
                                k.record(*outcome, Duration::ZERO);
                            }
                        }
                        if final_outcome == Outcome::Committed {
                            k.record(Outcome::Committed, op_latency);
                            k.record_commit_op(
                                attempts_buf.len() as u64,
                                op_latency.saturating_sub(last_attempt_time),
                            );
                        } else if gave_up {
                            k.record_give_up();
                        }
                    }
                    local
                })
            })
            .collect();

        if ramp {
            std::thread::sleep(config.ramp_up);
            phase.store(PHASE_MEASURE, Ordering::Release);
            t0 = Instant::now();
        }
        std::thread::sleep(config.measure);
        phase.store(PHASE_DONE, Ordering::Release);
        let measured = t0.elapsed();

        for h in handles {
            let local = h.join().expect("client thread");
            for (agg, part) in merged.per_kind.iter_mut().zip(&local.per_kind) {
                agg.merge(part);
            }
        }
        measured
    });
    merged.measured = measured;
    merged
}

/// Runs `repeats` independent runs (each against a workload freshly built
/// by `factory`, mirroring the paper's five repetitions) and summarises
/// throughput.
pub fn repeat_summary<W: Workload>(
    mut factory: impl FnMut(u64) -> W,
    config: RunConfig,
    repeats: u64,
) -> (Summary, Vec<RunMetrics>) {
    let mut stats = OnlineStats::new();
    let mut runs = Vec::with_capacity(repeats as usize);
    for r in 0..repeats {
        let workload = factory(r);
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(r.wrapping_mul(0x9E37_79B9));
        let metrics = run(&workload, &cfg);
        stats.push(metrics.tps());
        runs.push(metrics);
    }
    (stats.summary(), runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A deterministic workload: kind 0 always commits in ~1ms, kind 1
    /// always serialization-fails.
    struct Toy {
        attempts: AtomicU64,
    }

    impl Workload for Toy {
        type Request = bool;

        fn kinds(&self) -> Vec<&'static str> {
            vec!["ok", "fail"]
        }
        fn sample(&self, rng: &mut Xoshiro256) -> (usize, bool) {
            let ok = rng.next_bool(0.5);
            (usize::from(!ok), ok)
        }
        fn execute(&self, ok: &bool, _attempt: u32) -> Outcome {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(500));
            if *ok {
                Outcome::Committed
            } else {
                Outcome::SerializationFailure
            }
        }
    }

    #[test]
    fn closed_run_counts_only_the_measurement_interval() {
        let toy = Toy {
            attempts: AtomicU64::new(0),
        };
        let m = run(&toy, &RunConfig::quick(4));
        let counted = m.commits() + m.serialization_failures();
        let attempted = toy.attempts.load(Ordering::Relaxed);
        assert!(counted > 0, "something must be measured");
        assert!(
            counted < attempted,
            "ramp-up attempts must be excluded ({counted} vs {attempted})"
        );
        assert_eq!(m.deadlocks(), 0);
        assert!(m.kind("ok").unwrap().commits > 0);
        assert_eq!(m.kind("fail").unwrap().commits, 0);
    }

    #[test]
    fn without_ramp_up_every_operation_is_measured() {
        let toy = Toy {
            attempts: AtomicU64::new(0),
        };
        let mpl = 4;
        let m = run(&toy, &RunConfig::quick(mpl).with_ramp_up(Duration::ZERO));
        let counted = m.commits() + m.serialization_failures();
        let attempted = toy.attempts.load(Ordering::Relaxed);
        // Only the operations in flight when the interval closes escape.
        assert!(
            attempted - counted <= mpl as u64,
            "{counted} of {attempted} attempts measured"
        );
    }

    #[test]
    fn tps_scales_with_mpl_for_a_sleep_bound_workload() {
        let toy = Toy {
            attempts: AtomicU64::new(0),
        };
        let m1 = run(&toy, &RunConfig::quick(1));
        let toy2 = Toy {
            attempts: AtomicU64::new(0),
        };
        let m8 = run(&toy2, &RunConfig::quick(8));
        assert!(
            m8.tps() > m1.tps() * 3.0,
            "8 threads must far outrun 1 on a sleep-bound load: {} vs {}",
            m8.tps(),
            m1.tps()
        );
    }

    #[test]
    fn repeats_summarise_with_ci() {
        let (summary, runs) = repeat_summary(
            |_| Toy {
                attempts: AtomicU64::new(0),
            },
            RunConfig::quick(2),
            3,
        );
        assert_eq!(runs.len(), 3);
        assert_eq!(summary.n, 3);
        assert!(summary.mean > 0.0);
    }

    #[test]
    fn latency_is_recorded_for_commits() {
        let toy = Toy {
            attempts: AtomicU64::new(0),
        };
        let m = run(&toy, &RunConfig::quick(2));
        let lat = m.mean_latency();
        assert!(
            lat >= Duration::from_micros(400),
            "mean latency must reflect the sleep: {lat:?}"
        );
    }

    /// A single kind that serialization-fails on every attempt before the
    /// `succeed_on`-th and then commits — the deterministic retry fixture.
    struct FlakyN {
        succeed_on: u32,
    }

    impl Workload for FlakyN {
        type Request = ();

        fn kinds(&self) -> Vec<&'static str> {
            vec!["flaky"]
        }
        fn sample(&self, _rng: &mut Xoshiro256) -> (usize, ()) {
            (0, ())
        }
        fn execute(&self, _req: &(), attempt: u32) -> Outcome {
            if attempt >= self.succeed_on {
                Outcome::Committed
            } else {
                Outcome::SerializationFailure
            }
        }
    }

    #[test]
    fn retry_separates_attempts_from_goodput() {
        const N: u32 = 4;
        let w = FlakyN { succeed_on: N };
        let cfg = RunConfig {
            mpl: 2,
            ramp_up: Duration::from_millis(20),
            measure: Duration::from_millis(150),
            seed: 7,
            retry: RetryPolicy {
                max_attempts: 8,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                jitter: 0.5,
            },
            observer: None,
        };
        let m = run(&w, &cfg);
        let k = m.kind("flaky").unwrap();
        assert!(k.commits > 0, "the workload commits on attempt {N}");
        // Goodput counts one commit per operation; the metrics must still
        // show every failed attempt — exactly N-1 per commit.
        assert_eq!(
            k.serialization_failures,
            u64::from(N - 1) * k.commits,
            "each commit takes exactly {N} attempts"
        );
        assert_eq!(k.give_ups, 0);
        assert_eq!(k.attempts_per_commit.count(), k.commits);
        assert!((k.attempts_per_commit.mean() - f64::from(N)).abs() < 1e-9);
        assert!((k.retries_per_commit() - f64::from(N - 1)).abs() < 1e-9);
        assert_eq!(k.attempts_per_commit.bin(u64::from(N)), k.commits);
        assert_eq!(
            k.retry_latency.count(),
            k.commits,
            "every commit needed retries, so each records retry time"
        );
        assert!(k.retry_latency.mean() >= Duration::from_micros(75));
    }

    #[test]
    fn exhausted_budget_counts_a_give_up_not_a_commit() {
        let w = FlakyN { succeed_on: 100 };
        let cfg = RunConfig {
            mpl: 1,
            ramp_up: Duration::from_millis(10),
            measure: Duration::from_millis(80),
            seed: 7,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                jitter: 0.0,
            },
            observer: None,
        };
        let m = run(&w, &cfg);
        let k = m.kind("flaky").unwrap();
        assert_eq!(k.commits, 0);
        assert!(k.give_ups > 0);
        assert_eq!(
            k.serialization_failures,
            3 * k.give_ups,
            "each abandoned operation burned its whole 3-attempt budget"
        );
        assert_eq!(m.give_ups(), k.give_ups);
    }

    /// The very first attempt (which starts during ramp-up) is slow and
    /// serialization-fails; every later attempt commits instantly. Before
    /// the straddle fix, the first *operation* finished inside the
    /// measurement window and charged its ramp-up failure and ~140ms of
    /// ramp-up latency to the measured interval.
    struct SlowStart {
        calls: AtomicU64,
    }

    impl Workload for SlowStart {
        type Request = ();

        fn kinds(&self) -> Vec<&'static str> {
            vec!["slow_start"]
        }
        fn sample(&self, _rng: &mut Xoshiro256) -> (usize, ()) {
            (0, ())
        }
        fn execute(&self, _req: &(), _attempt: u32) -> Outcome {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                // Outlives the 40ms ramp, lands mid-measurement.
                std::thread::sleep(Duration::from_millis(140));
                Outcome::SerializationFailure
            } else {
                Outcome::Committed
            }
        }
    }

    #[test]
    fn op_straddling_ramp_boundary_is_not_measured() {
        let w = SlowStart {
            calls: AtomicU64::new(0),
        };
        let cfg = RunConfig {
            mpl: 1,
            ramp_up: Duration::from_millis(40),
            measure: Duration::from_millis(200),
            seed: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                jitter: 0.0,
            },
            observer: None,
        };
        let m = run(&w, &cfg);
        let k = m.kind("slow_start").unwrap();
        assert!(k.commits > 0, "later operations commit inside the window");
        assert_eq!(
            k.serialization_failures, 0,
            "the ramp-started operation's failed attempt must be discarded"
        );
        assert!(
            m.mean_latency() < Duration::from_millis(40),
            "ramp-up latency must not pollute measured latency: {:?}",
            m.mean_latency()
        );
    }

    #[test]
    fn backoff_schedule_is_reproducible_from_the_seed() {
        let go = || {
            let w = FlakyN { succeed_on: 3 };
            let cfg = RunConfig::new(1)
                .with_ramp_up(Duration::from_millis(10))
                .with_measure(Duration::from_millis(100))
                .with_seed(0xFEED)
                .with_retry(RetryPolicy {
                    max_attempts: 5,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                    jitter: 0.5,
                });
            let m = run(&w, &cfg);
            let k = m.kind("flaky").unwrap();
            (k.commits > 0, k.serialization_failures / k.commits.max(1))
        };
        let (a_committed, a_ratio) = go();
        let (b_committed, b_ratio) = go();
        assert!(a_committed && b_committed);
        assert_eq!(a_ratio, 2, "always exactly 2 failures per commit");
        assert_eq!(a_ratio, b_ratio);
    }

    /// A counting observer shared by the consolidation tests below.
    #[derive(Default)]
    struct Counting {
        begins: AtomicU64,
        ends: AtomicU64,
    }

    impl AttemptObserver for Counting {
        fn attempt_begin(&self, _kind: usize, _kind_name: &'static str, _attempt: u32) {
            self.begins.fetch_add(1, Ordering::Relaxed);
        }
        fn attempt_end(&self, _outcome: Outcome, _latency: Duration) {
            self.ends.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn config_observer_sees_every_attempt() {
        let toy = Toy {
            attempts: AtomicU64::new(0),
        };
        let obs = Arc::new(Counting::default());
        let cfg = RunConfig::quick(2).with_observer(obs.clone());
        let _ = run(&toy, &cfg);
        let begins = obs.begins.load(Ordering::Relaxed);
        assert!(begins > 0, "the configured observer must fire");
        assert_eq!(begins, obs.ends.load(Ordering::Relaxed));
        assert_eq!(begins, toy.attempts.load(Ordering::Relaxed));
    }
}
