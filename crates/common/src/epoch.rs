//! Epoch-based memory reclamation for lock-free readers.
//!
//! The storage layer publishes immutable snapshots (version chains, shard
//! maps) through atomic pointers. Readers traverse them without locks; a
//! writer that replaces a snapshot cannot free the old one immediately,
//! because a reader may still be dereferencing it. This module provides
//! the deferred-free machinery, std-only (the workspace builds with zero
//! external crates):
//!
//! * a reader wraps each traversal in [`pin`], which publishes the global
//!   epoch into its thread-local slot;
//! * a writer hands the unlinked object to [`retire`], which stamps it
//!   with the epoch at which it was unlinked and pushes it onto the
//!   calling thread's garbage bag (Fraser's per-thread limbo lists);
//! * the global epoch advances only when every pinned thread has observed
//!   it, and an object is freed once the epoch has advanced **two steps**
//!   past its stamp.
//!
//! # Why two epochs (the correctness argument)
//!
//! All epoch operations use `SeqCst`, so they form one total order `S`.
//! Consider garbage retired at epoch `r`: it was unlinked (swapped out of
//! its atomic pointer) *before* the retire read the global epoch as `r`.
//! A thread that pins at epoch `r + 1` or later pins after the advance
//! `r → r + 1`, which is after the retire, which is after the unlink — so
//! its subsequent pointer loads can only observe the replacement, never
//! the retired object. Threads pinned at `≤ r` *can* hold it, but they
//! block the advance `r + 1 → r + 2` (advancing requires every active
//! slot to have observed the current epoch). Freeing only at
//! `global ≥ r + 2` therefore guarantees no pinned thread can still reach
//! the object. The pin itself closes the publish race with a
//! store-then-re-check loop: a collector that sampled the slot as
//! inactive must have done so before the slot store, and the re-check
//! observes any epoch advance that could have raced with it.
//!
//! The rule reads only the object's own stamp and the global epoch, so it
//! holds whichever thread frees the object: the thread that retired it,
//! from its own bag, or any thread that calls [`collect`] on a bag that
//! was handed off to the global list. A thread may free while it is
//! pinned itself: by the same argument its pin is at `r + 1` or later.
//!
//! # Bags and hand-off
//!
//! Each thread keeps what it retires in its own bag, oldest first; stamps
//! never decrease along a bag, because the global epoch never does.
//! [`retire`] pushes without a shared lock and frees at most
//! `FREES_PER_RETIRE` objects from the front of the bag. A bag that
//! reaches `BAG_BOUND` objects (a long pin is holding the epoch back)
//! moves whole to a global list, and so does the bag of a thread that
//! exits. A thread that stops retiring therefore strands fewer than
//! `BAG_BOUND` objects while it lives, and none once it exits. Every
//! `ADVANCE_EVERY`th retire on a thread takes the shared locks: it tries
//! to advance the epoch and moves up to `FREES_PER_RETIRE` reclaimable
//! objects from the front of the global list to the front of its bag, so
//! the list drains wherever threads retire, vacuum or not. [`collect`]
//! (vacuum, tests) frees what is reclaimable in the caller's own bag and
//! in the whole list.
//!
//! # Simulation awareness
//!
//! [`pin`] routes through [`crate::sync::sim_hooks`]: under the
//! deterministic simulator every pin is a potential preemption point
//! (like a mutex acquisition), so `sicost-sim` schedules that interleave
//! lock-free readers with writers stay a pure function of the seed.
//!
//! The participant registry and the global garbage list deliberately use
//! **raw** `std` mutexes, not the instrumented [`crate::sync::Mutex`]:
//! the epoch and the handed-off garbage are process-global state that
//! persists across replays of one seed, so if GC bookkeeping consumed
//! scheduler decisions, replaying a schedule would diverge. With raw
//! locks the bookkeeping is invisible to the scheduler — critical
//! sections are short, bounded, and never yield — and the *only*
//! scheduling point this module introduces is the pin itself, whose
//! count is a pure function of the schedule.
//!
//! # Cost model
//!
//! After a thread's first pin (which registers its slot — one allocation,
//! ever), `pin`/unpin are a handful of atomic operations and **perform no
//! allocation** — the property the storage read path's zero-allocation
//! test asserts. [`retire`] takes the object already boxed and does O(1)
//! work: a push onto the thread's bag and at most `FREES_PER_RETIRE`
//! frees; every `ADVANCE_EVERY`th call adds one scan of the participant
//! registry and at most `FREES_PER_RETIRE` pops from the global list.
//! No install therefore pays for freeing a backlog, and apart from
//! adopted orphans a thread frees what it retired itself. Only
//! [`collect`] does work in proportion to the garbage it frees.

use crate::sync;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Slot value meaning "not currently pinned".
const INACTIVE: u64 = u64::MAX;

/// The most objects one [`retire`] frees: the bound on the reclamation
/// work any single install pays for.
const FREES_PER_RETIRE: usize = 4;

/// A thread tries to advance the global epoch on every this-many retires.
const ADVANCE_EVERY: usize = 32;

/// A bag this long moves to the global list instead of growing behind an
/// epoch that a long pin holds back.
const BAG_BOUND: usize = 256;

/// The global epoch. Starts at 2 so `retired_epoch + 2 <= global` is
/// never vacuously true for garbage stamped before any advance.
static EPOCH: AtomicU64 = AtomicU64::new(2);

/// Every thread that has ever pinned, as weak refs so dead threads are
/// pruned when the epoch advances rather than leaking slots. Raw `std`
/// mutex: see the module docs on simulation awareness.
static PARTICIPANTS: Mutex<Vec<Weak<Slot>>> = Mutex::new(Vec::new());

/// A retired object and the epoch it was retired at.
type Retired = (u64, Box<dyn Send>);

/// Garbage from bags that reached `BAG_BOUND` or whose thread exited;
/// only [`collect`] frees it. Raw `std` mutex: see the module docs on
/// simulation awareness.
static ORPHANS: Mutex<VecDeque<Retired>> = Mutex::new(VecDeque::new());

/// Locks a raw bookkeeping mutex, ignoring poison (consistent with
/// [`crate::sync`]: a panic while holding one is already a test failure).
fn raw_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether an object stamped `stamp` is out of every pin's reach once the
/// global epoch reads `global` (see the module docs).
fn reclaimable(stamp: u64, global: u64) -> bool {
    stamp.saturating_add(2) <= global
}

/// Removes the front object of `queue` if it is reclaimable at `global`.
/// Stamps never decrease along a bag, so for a bag only the front needs
/// checking; in the global list, where handed-off bags interleave, a
/// younger front only delays what lies behind it.
fn pop_reclaimable(queue: &mut VecDeque<Retired>, global: u64) -> Option<Retired> {
    match queue.front() {
        Some(&(stamp, _)) if reclaimable(stamp, global) => queue.pop_front(),
        _ => None,
    }
}

#[derive(Debug)]
struct Slot {
    /// The epoch this thread pinned at, or [`INACTIVE`].
    epoch: AtomicU64,
    /// Reentrant-pin depth; only the outermost pin publishes/clears.
    depth: AtomicUsize,
}

/// One thread's retired objects, oldest first.
struct Bag {
    items: VecDeque<Retired>,
    /// Retires on this thread, for the `ADVANCE_EVERY` cadence.
    retires: usize,
}

impl Bag {
    /// Adds `item`, then takes up to `FREES_PER_RETIRE` of the oldest
    /// objects that are now reclaimable (on every `ADVANCE_EVERY`th call,
    /// after adopting up to as many reclaimable orphans), for the caller
    /// to drop once the bag is no longer borrowed (a destructor may retire
    /// more).
    fn push(&mut self, item: Retired) -> [Option<Retired>; FREES_PER_RETIRE] {
        self.items.push_back(item);
        self.retires += 1;
        if self.items.len() >= BAG_BOUND {
            self.hand_off();
        }
        if self.retires % ADVANCE_EVERY == 0 {
            try_advance();
            self.adopt_orphans();
        }
        let global = EPOCH.load(SeqCst);
        std::array::from_fn(|_| pop_reclaimable(&mut self.items, global))
    }

    /// Moves up to `FREES_PER_RETIRE` reclaimable objects from the front of
    /// the global list to the front of this bag, where the next pops free
    /// them; being reclaimable, they keep the bag's reclaimable objects
    /// at its front.
    fn adopt_orphans(&mut self) {
        let global = EPOCH.load(SeqCst);
        let mut orphans = raw_lock(&ORPHANS);
        let adopted = std::iter::from_fn(|| pop_reclaimable(&mut orphans, global));
        for orphan in adopted.take(FREES_PER_RETIRE) {
            self.items.push_front(orphan);
        }
    }

    /// Moves every object to the global list.
    fn hand_off(&mut self) {
        raw_lock(&ORPHANS).extend(self.items.drain(..));
    }
}

impl Drop for Bag {
    fn drop(&mut self) {
        // The thread is exiting: leave nothing in a bag no one will visit.
        self.hand_off();
    }
}

thread_local! {
    static SLOT: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
    static BAG: RefCell<Bag> = const {
        RefCell::new(Bag {
            items: VecDeque::new(),
            retires: 0,
        })
    };
}

/// An active pin: while any [`Guard`] lives on a thread, no object retired
/// at or after the pinned epoch is freed. Not `Send` — a pin is a property
/// of the pinning thread.
#[derive(Debug)]
pub struct Guard {
    slot: Arc<Slot>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.slot.depth.fetch_sub(1, SeqCst) == 1 {
            self.slot.epoch.store(INACTIVE, SeqCst);
        }
    }
}

fn my_slot() -> Arc<Slot> {
    SLOT.with(|s| {
        if let Some(a) = s.borrow().as_ref() {
            return Arc::clone(a);
        }
        let a = Arc::new(Slot {
            epoch: AtomicU64::new(INACTIVE),
            depth: AtomicUsize::new(0),
        });
        raw_lock(&PARTICIPANTS).push(Arc::downgrade(&a));
        *s.borrow_mut() = Some(Arc::clone(&a));
        a
    })
}

/// Pins the current thread: objects reachable from atomic pointers loaded
/// while the returned [`Guard`] lives will not be freed underneath it.
/// Reentrant (nested pins share the outermost epoch); allocation-free
/// after the thread's first call. Under deterministic simulation this is
/// a scheduling point.
pub fn pin() -> Guard {
    if let Some(h) = sync::sim_hooks() {
        h.maybe_preempt();
    }
    let slot = my_slot();
    if slot.depth.fetch_add(1, SeqCst) == 0 {
        // Publish-then-re-check: if the global advanced between our load
        // and our slot store, a collector may have sampled the slot as
        // inactive and advanced past us — re-publish at the newer epoch
        // before touching any shared pointer.
        loop {
            let e = EPOCH.load(SeqCst);
            slot.epoch.store(e, SeqCst);
            if EPOCH.load(SeqCst) == e {
                break;
            }
        }
    }
    Guard {
        slot,
        _not_send: PhantomData,
    }
}

/// Defers destruction of `garbage` until no pinned thread can reach it.
/// Called by writers after unlinking the object from all shared pointers.
/// O(1): stamps the object and pushes it onto this thread's bag, frees at
/// most `FREES_PER_RETIRE` of the bag's oldest reclaimable objects, and
/// on every `ADVANCE_EVERY`th call tries to advance the epoch.
pub fn retire<T: Send + 'static>(garbage: Box<T>) {
    let stamp = EPOCH.load(SeqCst);
    let freed = BAG.with(|b| b.borrow_mut().push((stamp, garbage)));
    drop(freed);
}

/// Tries to advance the epoch, then frees every reclaimable object in the
/// calling thread's bag and in the global list of handed-off bags (see
/// the module docs). Returns the number of objects freed. Safe to call
/// from any thread at any time; vacuum calls it after pruning so garbage
/// that no retire will reach returns to the allocator.
pub fn collect() -> usize {
    try_advance();
    let global = EPOCH.load(SeqCst);
    let mut freed: Vec<Retired> = BAG.with(|b| {
        let mut b = b.borrow_mut();
        std::iter::from_fn(|| pop_reclaimable(&mut b.items, global)).collect()
    });
    {
        let mut orphans = raw_lock(&ORPHANS);
        let (free, keep): (VecDeque<_>, VecDeque<_>) = std::mem::take(&mut *orphans)
            .into_iter()
            .partition(|&(stamp, _)| reclaimable(stamp, global));
        *orphans = keep;
        freed.extend(free);
    }
    // Destructors run outside the bag borrow and the list lock: they may
    // retire more.
    let n = freed.len();
    drop(freed);
    n
}

/// Advance `global` by one step iff every *active* participant has
/// observed the current value — the discipline that bounds pinned readers
/// to epochs `{global, global - 1}`.
fn try_advance() {
    let global = EPOCH.load(SeqCst);
    let mut parts = raw_lock(&PARTICIPANTS);
    parts.retain(|w| w.strong_count() > 0);
    for w in parts.iter() {
        if let Some(s) = w.upgrade() {
            let e = s.epoch.load(SeqCst);
            if e != INACTIVE && e != global {
                return;
            }
        }
    }
    let _ = EPOCH.compare_exchange(global, global + 1, SeqCst, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::mpsc;
    use std::time::Duration;

    thread_local! {
        /// Bombs dropped on this thread: what its own retires freed.
        static DROPPED_HERE: Cell<usize> = const { Cell::new(0) };
    }

    /// Bumps a shared counter and this thread's count when dropped:
    /// observable reclamation.
    struct DropBomb(Arc<AtomicUsize>);
    impl Drop for DropBomb {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
            DROPPED_HERE.with(|d| d.set(d.get() + 1));
        }
    }

    fn bomb(drops: &Arc<AtomicUsize>) -> Box<DropBomb> {
        Box::new(DropBomb(Arc::clone(drops)))
    }

    /// Loops `collect` until `done()` or a generous bound — other tests in
    /// this process share the global epoch domain and may briefly hold
    /// pins of their own.
    fn collect_until(done: impl Fn() -> bool) -> bool {
        for _ in 0..10_000 {
            collect();
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        done()
    }

    #[test]
    fn retired_object_is_eventually_freed() {
        let drops = Arc::new(AtomicUsize::new(0));
        retire(bomb(&drops));
        assert!(
            collect_until(|| drops.load(SeqCst) == 1),
            "garbage must be reclaimed once no pin can reach it"
        );
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = pin();
        retire(bomb(&drops));
        // With this thread pinned at the retirement epoch, the epoch
        // cannot advance two steps; the object must survive.
        for _ in 0..50 {
            collect();
        }
        assert_eq!(drops.load(SeqCst), 0, "pinned epoch must pin the garbage");
        drop(guard);
        assert!(collect_until(|| drops.load(SeqCst) == 1));
    }

    #[test]
    fn nested_pins_share_the_outer_epoch() {
        let outer = pin();
        let e = outer.slot.epoch.load(SeqCst);
        let inner = pin();
        assert_eq!(inner.slot.epoch.load(SeqCst), e);
        drop(inner);
        assert_eq!(
            outer.slot.epoch.load(SeqCst),
            e,
            "inner unpin must not deactivate the outer pin"
        );
        drop(outer);
    }

    #[test]
    fn cross_thread_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _g = pin();
                        retire(bomb(&drops));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            collect_until(|| drops.load(SeqCst) == 400),
            "all 400 retirements reclaim once every thread unpins: {}",
            drops.load(SeqCst)
        );
    }

    /// Retires alone reclaim, and no single retire frees more than the
    /// bound: reclamation never arrives as a burst on one install.
    #[test]
    fn no_single_retire_frees_more_than_its_bound() {
        const TARGET: usize = 2_000;
        // A fresh thread, so its bag starts empty; the count is of drops on
        // that thread, which no other test's `collect` can move.
        std::thread::spawn(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let mut most = 0;
            for _ in 0..200_000 {
                let before = DROPPED_HERE.with(Cell::get);
                retire(bomb(&drops));
                most = most.max(DROPPED_HERE.with(Cell::get) - before);
                if DROPPED_HERE.with(Cell::get) >= TARGET {
                    break;
                }
            }
            assert!(
                most <= FREES_PER_RETIRE,
                "one retire freed {most} objects (bound {FREES_PER_RETIRE})"
            );
            assert!(
                DROPPED_HERE.with(Cell::get) >= TARGET,
                "retires alone must keep reclaiming: {} freed",
                DROPPED_HERE.with(Cell::get)
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_reader_pinned_elsewhere_keeps_later_garbage_alive() {
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (unpin_tx, unpin_rx) = mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            let guard = pin();
            pinned_tx.send(()).unwrap();
            unpin_rx.recv().unwrap();
            drop(guard);
        });
        pinned_rx.recv().unwrap();
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            retire(bomb(&drops));
        }
        // Drive both reclamation paths hard while the reader stays pinned.
        let filler = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 * ADVANCE_EVERY {
            retire(bomb(&filler));
            collect();
        }
        assert_eq!(
            drops.load(SeqCst),
            0,
            "garbage retired after a pin must outlive the pin"
        );
        unpin_tx.send(()).unwrap();
        reader.join().unwrap();
        assert!(collect_until(|| drops.load(SeqCst) == 100));
    }

    #[test]
    fn retires_alone_drain_what_an_exited_thread_handed_off() {
        let orphaned = Arc::new(AtomicUsize::new(0));
        {
            let orphaned = Arc::clone(&orphaned);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    retire(bomb(&orphaned));
                }
            })
            .join()
            .unwrap();
        }
        // No `collect` on this thread: its retires adopt the orphans.
        let filler = Arc::new(AtomicUsize::new(0));
        for _ in 0..100_000 {
            retire(bomb(&filler));
            if orphaned.load(SeqCst) == 10 {
                return;
            }
        }
        panic!(
            "retires freed {} of an exited thread's 10 objects",
            orphaned.load(SeqCst)
        );
    }

    #[test]
    fn collect_frees_garbage_of_exited_and_idle_threads() {
        // A thread that exits: its bag moves to the global list.
        let exited = Arc::new(AtomicUsize::new(0));
        {
            let exited = Arc::clone(&exited);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    retire(bomb(&exited));
                }
            })
            .join()
            .unwrap();
        }
        assert!(
            collect_until(|| exited.load(SeqCst) == 10),
            "an exited thread's garbage was stranded: {} of 10 freed",
            exited.load(SeqCst)
        );

        // A thread that passes the bag bound and then idles. It retires
        // while pinned, so none of its garbage is reclaimable on its own
        // thread and its bag must reach the bound.
        let idle = Arc::new(AtomicUsize::new(0));
        let (filled_tx, filled_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        let idler = {
            let idle = Arc::clone(&idle);
            std::thread::spawn(move || {
                let guard = pin();
                for _ in 0..BAG_BOUND {
                    retire(bomb(&idle));
                }
                drop(guard);
                filled_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
        };
        filled_rx.recv().unwrap();
        assert!(
            collect_until(|| idle.load(SeqCst) == BAG_BOUND),
            "an idle thread's overflowing bag was stranded: {} of {BAG_BOUND} freed",
            idle.load(SeqCst)
        );
        exit_tx.send(()).unwrap();
        idler.join().unwrap();
    }
}
