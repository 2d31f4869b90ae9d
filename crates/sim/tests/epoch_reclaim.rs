//! Deterministic-simulation sweep of epoch reclamation: no retired object
//! is freed while a pinned reader still holds it.
//!
//! Each seed runs reader tasks that pin, load a shared pointer and yield
//! while they hold it, against writer tasks that swap the pointer, retire
//! the old object and now and then call `collect`. One counter orders
//! every event of the run (the simulator runs one task at a time): a
//! retired object's `Drop` logs its address and event number, and each
//! reader logs the address it held with the events that open and close
//! its hold. A free of that address strictly inside a hold is a
//! use-after-free the reader could have made. Readers never dereference
//! what they load, so the sweep itself has no undefined behaviour even
//! against a broken collector. Freeing one epoch early (at `r + 1`
//! instead of `r + 2`) fails this sweep on most seeds.

use sicost_common::epoch;
use sicost_common::sync::{sim_spawn, sim_yield};
use sicost_sim::Sim;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const SEEDS: u64 = 64;
const READERS: usize = 2;
const WRITERS: usize = 2;
const READS: usize = 40;
const WRITES: usize = 100;
/// Scheduling points a reader passes while it holds the pointer.
const HOLD_YIELDS: usize = 4;
/// A writer calls `collect` on every this-many writes.
const COLLECT_EVERY: usize = 16;

/// The run's event log.
#[derive(Default)]
struct Log {
    next: AtomicU64,
    /// (address, event) per freed object.
    frees: Mutex<Vec<(usize, u64)>>,
    /// (address, first event, last event) per reader hold.
    holds: Mutex<Vec<(usize, u64, u64)>>,
}

impl Log {
    fn tick(&self) -> u64 {
        self.next.fetch_add(1, SeqCst)
    }
}

/// The shared object; logs its own free.
struct Obj {
    log: Arc<Log>,
}

impl Drop for Obj {
    fn drop(&mut self) {
        let at = self as *const Obj as usize;
        let event = self.log.tick();
        self.log.frees.lock().unwrap().push((at, event));
    }
}

fn fresh(log: &Arc<Log>) -> *mut Obj {
    Box::into_raw(Box::new(Obj {
        log: Arc::clone(log),
    }))
}

/// Runs one seeded schedule; returns the frees that fell inside a hold
/// of the same address, as (address, free event, first, last).
fn frees_inside_holds(seed: u64) -> Vec<(usize, u64, u64, u64)> {
    let log = Arc::new(Log::default());
    let shared = Arc::new(AtomicPtr::new(fresh(&log)));
    Sim::new(seed).run(|| {
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let (log, shared) = (Arc::clone(&log), Arc::clone(&shared));
                sim_spawn(&format!("reader-{i}"), move || {
                    for _ in 0..READS {
                        let guard = epoch::pin();
                        let at = shared.load(SeqCst) as usize;
                        let first = log.tick();
                        for _ in 0..HOLD_YIELDS {
                            sim_yield();
                        }
                        let last = log.tick();
                        drop(guard);
                        log.holds.lock().unwrap().push((at, first, last));
                        sim_yield();
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|i| {
                let (log, shared) = (Arc::clone(&log), Arc::clone(&shared));
                sim_spawn(&format!("writer-{i}"), move || {
                    for w in 1..=WRITES {
                        let old = shared.swap(fresh(&log), SeqCst);
                        // SAFETY: `old` came from `Box::into_raw` and the
                        // swap unlinked it; only the collector frees it.
                        epoch::retire(unsafe { Box::from_raw(old) });
                        if w % COLLECT_EVERY == 0 {
                            epoch::collect();
                        }
                        sim_yield();
                    }
                })
            })
            .collect();
        for h in readers.into_iter().chain(writers) {
            h.join().unwrap();
        }
    });
    // SAFETY: every task has joined, so nothing else can reach the last
    // object.
    drop(unsafe { Box::from_raw(shared.swap(std::ptr::null_mut(), SeqCst)) });

    let mut holds: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for &(at, first, last) in log.holds.lock().unwrap().iter() {
        holds.entry(at).or_default().push((first, last));
    }
    let frees = log.frees.lock().unwrap();
    let mut bad = Vec::new();
    for &(at, event) in frees.iter() {
        for &(first, last) in holds.get(&at).into_iter().flatten() {
            if first < event && event < last {
                bad.push((at, event, first, last));
            }
        }
    }
    bad
}

#[test]
fn no_object_is_freed_while_a_pinned_reader_holds_it() {
    let failing: Vec<(u64, usize)> = (0..SEEDS)
        .map(|seed| (seed, frees_inside_holds(seed).len()))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert!(
        failing.is_empty(),
        "(seed, frees inside a reader's hold): {failing:?}"
    );
}
