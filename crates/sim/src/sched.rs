//! The deterministic cooperative scheduler.
//!
//! A [`Sim`] serialises every participating thread of a run onto a single
//! run token: exactly one task executes at any instant, and at each
//! *scheduling point* (lock blocking, condvar wait/notify, sleep, crash
//! probe, spawn/join — see `sicost_common::sync`) the scheduler picks the
//! next task with a seeded generator. Two consequences:
//!
//! 1. **Determinism.** All shared-memory interaction is serialised in
//!    token order, so the entire run — history events, metrics, fault
//!    draws — is a pure function of the seed. (The one std caveat,
//!    per-instance `HashMap` hash seeds, is handled by sorting at the
//!    single behaviour-affecting iteration site in the engine.)
//! 2. **Schedule exploration.** Different seeds yield genuinely different
//!    interleavings of the commit pipeline, checkpointer, and WAL group
//!    commit, including ones the OS scheduler would practically never
//!    produce.
//!
//! Time is **virtual**: `sim_sleep` and condvar timeouts park the task
//! until the simulated clock reaches their deadline, and the clock only
//! advances when no task is runnable. A run with millisecond sleeps
//! completes in microseconds of wall time.

use sicost_common::sync::{self, SimHooks};
use sicost_common::Xoshiro256;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::Duration;

/// Hard cap on scheduling decisions, far above any legitimate test run;
/// exceeding it means a livelock and panics with a task dump.
const MAX_DECISIONS: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Registered by the parent; the OS thread may not exist yet. Counts
    /// as runnable so task identity assignment stays deterministic.
    NotStarted,
    Ready,
    Running,
    /// Parked after a failed `try_lock`; woken by `mutex_released`.
    BlockedMutex(usize),
    /// Parked on a condvar; `deadline` (virtual nanos) for timed waits.
    ParkedCv {
        cv: usize,
        deadline: Option<u64>,
    },
    Sleeping {
        until: u64,
    },
    Done,
}

#[derive(Debug)]
struct Task {
    name: String,
    status: Status,
    timed_out: bool,
}

#[derive(Debug)]
struct SchedState {
    rng: Xoshiro256,
    tasks: Vec<Task>,
    current: Option<usize>,
    now_ns: u64,
    decisions: u64,
    trace_hash: u64,
}

impl SchedState {
    fn fold(&mut self, v: u64) {
        // FNV-1a over the choice sequence: a cheap schedule fingerprint.
        self.trace_hash ^= v;
        self.trace_hash = self.trace_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn dump(&self) -> String {
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| format!("#{i} {} {:?}", t.name, t.status))
            .collect();
        format!(
            "t={}ns decisions={} current={:?} tasks=[{}]",
            self.now_ns,
            self.decisions,
            self.current,
            tasks.join(", ")
        )
    }
}

/// The scheduler behind a [`Sim`]; implements the `SimHooks` yield-point
/// interface from `sicost_common::sync`.
pub(crate) struct Scheduler {
    state: StdMutex<SchedState>,
    cond: StdCondvar,
    preempt_p: f64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Scheduler {
    fn new(seed: u64, preempt_p: f64) -> Self {
        Self {
            state: StdMutex::new(SchedState {
                rng: Xoshiro256::seed_from_u64(seed),
                tasks: Vec::new(),
                current: None,
                now_ns: 0,
                decisions: 0,
                trace_hash: 0xcbf2_9ce4_8422_2325, // FNV offset basis
            }),
            cond: StdCondvar::new(),
            preempt_p,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Picks the next task to run (advancing the virtual clock when every
    /// task is waiting on a timer) and publishes the choice. Panics on
    /// deadlock or livelock.
    fn schedule_next(&self, s: &mut SchedState) {
        s.decisions += 1;
        assert!(
            s.decisions <= MAX_DECISIONS,
            "simulation livelock: {} scheduling decisions exceeded — {}",
            MAX_DECISIONS,
            s.dump()
        );
        loop {
            let runnable: Vec<usize> = s
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Ready | Status::NotStarted))
                .map(|(i, _)| i)
                .collect();
            if !runnable.is_empty() {
                let pick = if runnable.len() == 1 {
                    runnable[0]
                } else {
                    runnable[s.rng.next_below(runnable.len() as u64) as usize]
                };
                s.fold(pick as u64);
                s.current = Some(pick);
                self.cond.notify_all();
                return;
            }
            // Nothing runnable: advance virtual time to the next timer.
            let next: Option<u64> = s
                .tasks
                .iter()
                .filter_map(|t| match t.status {
                    Status::Sleeping { until } => Some(until),
                    Status::ParkedCv {
                        deadline: Some(d), ..
                    } => Some(d),
                    _ => None,
                })
                .min();
            match next {
                Some(t) => {
                    s.now_ns = s.now_ns.max(t);
                    for task in s.tasks.iter_mut() {
                        match task.status {
                            Status::Sleeping { until } if until <= s.now_ns => {
                                task.status = Status::Ready;
                            }
                            Status::ParkedCv {
                                deadline: Some(d), ..
                            } if d <= s.now_ns => {
                                task.status = Status::Ready;
                                task.timed_out = true;
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    if s.tasks.iter().all(|t| t.status == Status::Done) {
                        s.current = None;
                        self.cond.notify_all();
                        return;
                    }
                    panic!("deterministic simulation deadlock: {}", s.dump());
                }
            }
        }
    }

    /// Parks the current task with `status`, lets the scheduler pick the
    /// next one, and blocks (on the OS condvar) until the token returns.
    fn switch(&self, status: Status) {
        let mut s = self.lock();
        let me = s
            .current
            .expect("scheduling point outside a simulated task");
        s.tasks[me].status = status;
        self.schedule_next(&mut s);
        while s.current != Some(me) {
            s = self.cond.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s.tasks[me].status = Status::Running;
    }
}

impl SimHooks for Scheduler {
    fn yield_now(&self) {
        // A yielding task that is the *only* runnable one must not freeze
        // the virtual clock: `SimJoinHandle::join` spin-yields until the
        // joined task finishes, so if that task is sleeping (or parked on
        // a timed wait) the clock has to move for the join to ever
        // complete. Advancing to the next timer here is a deterministic
        // function of task state, so replays are unaffected.
        {
            let mut s = self.lock();
            let me = s
                .current
                .expect("scheduling point outside a simulated task");
            let others_runnable =
                s.tasks.iter().enumerate().any(|(i, t)| {
                    i != me && matches!(t.status, Status::Ready | Status::NotStarted)
                });
            if !others_runnable {
                let next: Option<u64> = s
                    .tasks
                    .iter()
                    .filter_map(|t| match t.status {
                        Status::Sleeping { until } => Some(until),
                        Status::ParkedCv {
                            deadline: Some(d), ..
                        } => Some(d),
                        _ => None,
                    })
                    .min();
                if let Some(t) = next {
                    s.now_ns = s.now_ns.max(t);
                    let now_ns = s.now_ns;
                    for task in s.tasks.iter_mut() {
                        match task.status {
                            Status::Sleeping { until } if until <= now_ns => {
                                task.status = Status::Ready;
                            }
                            Status::ParkedCv {
                                deadline: Some(d), ..
                            } if d <= now_ns => {
                                task.status = Status::Ready;
                                task.timed_out = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        self.switch(Status::Ready);
    }

    fn maybe_preempt(&self) {
        if self.preempt_p <= 0.0 {
            return;
        }
        let preempt = {
            let mut s = self.lock();
            s.rng.next_f64() < self.preempt_p
        };
        if preempt {
            self.switch(Status::Ready);
        }
    }

    fn mutex_blocked(&self, lock: usize) {
        self.switch(Status::BlockedMutex(lock));
    }

    fn mutex_released(&self, lock: usize) {
        let mut s = self.lock();
        for t in s.tasks.iter_mut() {
            if t.status == Status::BlockedMutex(lock) {
                t.status = Status::Ready;
            }
        }
    }

    fn cv_wait(&self, cv: usize) {
        self.switch(Status::ParkedCv { cv, deadline: None });
    }

    fn cv_wait_timeout(&self, cv: usize, timeout: Duration) -> bool {
        let (me, deadline) = {
            let s = self.lock();
            let me = s
                .current
                .expect("scheduling point outside a simulated task");
            (me, s.now_ns.saturating_add(ns(timeout)))
        };
        {
            let mut s = self.lock();
            s.tasks[me].timed_out = false;
        }
        self.switch(Status::ParkedCv {
            cv,
            deadline: Some(deadline),
        });
        let s = self.lock();
        s.tasks[me].timed_out
    }

    fn cv_notify(&self, cv: usize, all: bool) {
        let mut s = self.lock();
        let waiters: Vec<usize> = s
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::ParkedCv { cv: c, .. } if c == cv))
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        if all {
            for i in waiters {
                s.tasks[i].status = Status::Ready;
            }
        } else {
            let pick = if waiters.len() == 1 {
                waiters[0]
            } else {
                waiters[s.rng.next_below(waiters.len() as u64) as usize]
            };
            s.fold(0x4e0f ^ pick as u64);
            s.tasks[pick].status = Status::Ready;
        }
    }

    fn sleep(&self, d: Duration) {
        let until = {
            let s = self.lock();
            s.now_ns.saturating_add(ns(d))
        };
        self.switch(Status::Sleeping { until });
    }

    fn register_task(&self, name: &str) -> u64 {
        let mut s = self.lock();
        s.tasks.push(Task {
            name: name.to_string(),
            status: Status::NotStarted,
            timed_out: false,
        });
        (s.tasks.len() - 1) as u64
    }

    fn attach(&self, task: u64) {
        let id = task as usize;
        let mut s = self.lock();
        debug_assert_eq!(s.tasks[id].status, Status::NotStarted);
        s.tasks[id].status = Status::Ready;
        if s.current.is_none() {
            // First attach (the root task): nobody holds the token yet,
            // so claim it through the scheduler.
            self.schedule_next(&mut s);
        }
        while s.current != Some(id) {
            s = self.cond.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s.tasks[id].status = Status::Running;
    }

    fn detach(&self) {
        let mut s = self.lock();
        let me = s.current.expect("detach outside a simulated task");
        s.tasks[me].status = Status::Done;
        if std::thread::panicking() {
            // Already unwinding (e.g. from a deadlock panic at a
            // scheduling point): hand the token over without the deadlock
            // check — a second panic here would abort the process and eat
            // the original message. Determinism no longer matters.
            s.current = s
                .tasks
                .iter()
                .position(|t| matches!(t.status, Status::Ready | Status::NotStarted));
            self.cond.notify_all();
            return;
        }
        self.schedule_next(&mut s);
    }

    fn task_done(&self, task: u64) -> bool {
        matches!(self.lock().tasks[task as usize].status, Status::Done)
    }
}

/// Deterministic fingerprint of a completed simulation: two runs of the
/// same seed must produce equal reports, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// The seed the run was driven by.
    pub seed: u64,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// FNV-1a hash of the full choice sequence (task picks and
    /// notify-one victim picks).
    pub trace_hash: u64,
    /// Final virtual time.
    pub virtual_time: Duration,
    /// Tasks that participated (root, workers, …).
    pub tasks: usize,
}

/// A deterministic simulation run: builds the scheduler, adopts the
/// calling thread as the root task, executes a closure under it, and
/// returns the closure's result plus the schedule fingerprint.
///
/// Inside the closure, spawn concurrent work with
/// [`sicost_common::sim_spawn`] and join it with
/// [`sicost_common::SimJoinHandle::join`]; every blocking primitive in
/// `sicost_common::sync` participates automatically. All spawned tasks
/// must be joined before the closure returns.
pub struct Sim {
    seed: u64,
    preempt_p: f64,
}

/// Clears root-task state when the run closure exits, panicking or not,
/// so a failed simulation cannot wedge later ones.
struct RootGuard {
    sched: Arc<Scheduler>,
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        self.sched.detach();
        sync::clear_sim_hooks();
    }
}

impl Sim {
    /// A simulation driven entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            preempt_p: 0.0,
        }
    }

    /// Additionally preempt at uncontended lock acquisitions with
    /// probability `p` (deterministic, from the seed). Widens the explored
    /// interleaving space beyond the natural blocking points.
    pub fn with_preempt(mut self, p: f64) -> Self {
        self.preempt_p = p.clamp(0.0, 1.0);
        self
    }

    /// Runs `f` to completion under the cooperative scheduler.
    ///
    /// # Panics
    ///
    /// Panics (after `f` returns) if `f` left spawned tasks unjoined, on
    /// scheduler deadlock, or on livelock. Panics from inside `f` or its
    /// tasks propagate unchanged.
    pub fn run<T>(self, f: impl FnOnce() -> T) -> (T, SimReport) {
        let sched = Arc::new(Scheduler::new(self.seed, self.preempt_p));
        let root = sched.register_task("root");
        sync::install_sim_hooks(Arc::clone(&sched) as Arc<dyn SimHooks>);
        sched.attach(root);
        let result = {
            let _guard = RootGuard {
                sched: Arc::clone(&sched),
            };
            f()
            // RootGuard detaches the root and clears this thread's hooks
            // here — on the panic path too.
        };
        let s = sched.lock();
        let live: Vec<&str> = s
            .tasks
            .iter()
            .filter(|t| t.status != Status::Done)
            .map(|t| t.name.as_str())
            .collect();
        assert!(
            live.is_empty(),
            "simulation closure returned with live tasks {live:?}; join them \
             (or drop their owners) before returning — {}",
            s.dump()
        );
        let report = SimReport {
            seed: self.seed,
            decisions: s.decisions,
            trace_hash: s.trace_hash,
            virtual_time: Duration::from_nanos(s.now_ns),
            tasks: s.tasks.len(),
        };
        drop(s);
        (result, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sicost_common::sync::{sim_sleep, sim_spawn, Condvar, Mutex};
    use std::sync::Arc as StdArc;

    #[test]
    fn single_task_runs_and_reports() {
        let (out, report) = Sim::new(1).run(|| 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(report.tasks, 1);
        assert_eq!(report.virtual_time, Duration::ZERO);
    }

    #[test]
    fn sleeps_elapse_in_virtual_time() {
        let t0 = std::time::Instant::now();
        let (_, report) = Sim::new(2).run(|| {
            sim_sleep(Duration::from_secs(3600));
        });
        assert_eq!(report.virtual_time, Duration::from_secs(3600));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "an hour of virtual sleep must not take wall-clock time"
        );
    }

    #[test]
    fn tasks_interleave_and_join() {
        let (sum, report) = Sim::new(3).run(|| {
            let total = StdArc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let total = StdArc::clone(&total);
                    sim_spawn(&format!("worker-{i}"), move || {
                        for _ in 0..100 {
                            *total.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let sum = *total.lock();
            sum
        });
        assert_eq!(sum, 400);
        assert_eq!(report.tasks, 5); // root + 4 workers
    }

    #[test]
    fn condvar_handoff_works_under_sim() {
        let (got, _) = Sim::new(4).run(|| {
            let pair = StdArc::new((Mutex::new(None::<u64>), Condvar::new()));
            let p2 = StdArc::clone(&pair);
            let producer = sim_spawn("producer", move || {
                sim_sleep(Duration::from_millis(5));
                let (m, cv) = &*p2;
                *m.lock() = Some(99);
                cv.notify_one();
            });
            let (m, cv) = &*pair;
            let mut slot = m.lock();
            while slot.is_none() {
                cv.wait(&mut slot);
            }
            let got = slot.unwrap();
            drop(slot);
            producer.join().unwrap();
            got
        });
        assert_eq!(got, 99);
    }

    #[test]
    fn condvar_timeout_fires_in_virtual_time() {
        let (timed_out, report) = Sim::new(5).run(|| {
            let m = Mutex::new(());
            let cv = Condvar::new();
            let mut g = m.lock();
            cv.wait_timeout(&mut g, Duration::from_secs(9))
        });
        assert!(timed_out);
        assert_eq!(report.virtual_time, Duration::from_secs(9));
    }

    #[test]
    fn same_seed_same_schedule_different_seed_usually_not() {
        let run = |seed: u64| {
            Sim::new(seed).with_preempt(0.2).run(|| {
                let order = StdArc::new(Mutex::new(Vec::new()));
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let order = StdArc::clone(&order);
                        sim_spawn(&format!("w{i}"), move || {
                            for _ in 0..20 {
                                order.lock().push(i);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                StdArc::try_unwrap(order).unwrap().into_inner()
            })
        };
        let (order_a, rep_a) = run(7);
        let (order_b, rep_b) = run(7);
        assert_eq!(order_a, order_b, "same seed must replay identically");
        assert_eq!(rep_a, rep_b);
        // Different seeds should explore a different interleaving (this
        // particular pair is checked in, i.e. deterministic).
        let (order_c, rep_c) = run(8);
        assert!(
            order_c != order_a || rep_c.trace_hash != rep_a.trace_hash,
            "seeds 7 and 8 produced identical schedules"
        );
    }

    #[test]
    #[should_panic(expected = "live tasks")]
    fn leaked_task_is_detected_at_run_end() {
        Sim::new(9).run(|| {
            let pair = StdArc::new((Mutex::new(()), Condvar::new()));
            let p2 = StdArc::clone(&pair);
            let h = sim_spawn("leaked", move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                cv.wait(&mut g); // nobody will ever notify
            });
            std::mem::forget(h);
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn circular_wait_is_a_deadlock() {
        // Partner parks on the condvar first (while the root virtually
        // sleeps); then the root parks on it too. Nothing is runnable and
        // no timer is pending, so the root's own park detects deadlock.
        Sim::new(10).run(|| {
            let pair = StdArc::new((Mutex::new(()), Condvar::new()));
            let p2 = StdArc::clone(&pair);
            let h = sim_spawn("partner", move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                cv.wait(&mut g);
            });
            sim_sleep(Duration::from_millis(1));
            let (m, cv) = &*pair;
            let mut g = m.lock();
            cv.wait(&mut g);
            drop(g);
            h.join().unwrap();
        });
    }
}
