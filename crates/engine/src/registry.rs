//! Active-transaction registry.
//!
//! Tracks which snapshots are in use, for three consumers: version
//! pruning (the safe horizon, read by vacuum and by every writing commit
//! before it installs), the commercial profile's load penalty
//! (active-transaction count), and SSI (concurrency checks).

use sicost_common::sync::Mutex;
use sicost_common::{Ts, TxnId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Registry of running transactions and their snapshots.
#[derive(Debug, Default)]
pub struct ActiveRegistry {
    /// snapshot ts → number of active transactions holding it.
    snapshots: Mutex<BTreeMap<u64, u32>>,
    count: AtomicUsize,
}

impl ActiveRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a transaction at begin and returns its snapshot: the
    /// commit `clock`, read under the registry lock. Vacuum and committers
    /// take their pruning horizon under the same lock, so a snapshot is
    /// either registered before the horizon is computed (and bounds it)
    /// or taken after it (and is at least the horizon) — never lost in
    /// between, with the versions it needs pruned.
    pub fn register(&self, _txn: TxnId, clock: &AtomicU64) -> Ts {
        let mut map = self.snapshots.lock();
        let snapshot = clock.load(Ordering::Acquire);
        *map.entry(snapshot).or_insert(0) += 1;
        self.count.fetch_add(1, Ordering::Relaxed);
        Ts(snapshot)
    }

    /// Unregisters at commit/abort. A snapshot that was never registered
    /// (or was already fully unregistered) is a no-op: decrementing the
    /// count anyway would wrap `active_count()` to ~2^64 in release
    /// builds, poisoning the commercial profile's load penalty and the
    /// vacuum horizon.
    pub fn unregister(&self, _txn: TxnId, snapshot: Ts) {
        let mut map = self.snapshots.lock();
        match map.get_mut(&snapshot.0) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                map.remove(&snapshot.0);
            }
            None => return, // unknown snapshot: nothing to release
        }
        self.count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of currently active transactions (approximate under races,
    /// which is fine for a load penalty).
    pub fn active_count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Oldest snapshot still in use; the commit `clock`, read under the
    /// registry lock, when no transaction is active. Versions older than
    /// the newest version at or below this horizon are unreachable.
    pub fn min_active_snapshot(&self, clock: &AtomicU64) -> Ts {
        let map = self.snapshots.lock();
        Ts(map
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| clock.load(Ordering::Acquire)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(ts: u64) -> AtomicU64 {
        AtomicU64::new(ts)
    }

    #[test]
    fn tracks_count_and_min_snapshot() {
        let r = ActiveRegistry::new();
        assert_eq!(r.active_count(), 0);
        assert_eq!(r.min_active_snapshot(&clock(99)), Ts(99));

        assert_eq!(r.register(TxnId(1), &clock(10)), Ts(10));
        assert_eq!(r.register(TxnId(2), &clock(5)), Ts(5));
        assert_eq!(r.register(TxnId(3), &clock(10)), Ts(10));
        assert_eq!(r.active_count(), 3);
        assert_eq!(r.min_active_snapshot(&clock(99)), Ts(5));

        r.unregister(TxnId(2), Ts(5));
        assert_eq!(r.min_active_snapshot(&clock(99)), Ts(10));

        // Duplicate snapshots ref-count correctly.
        r.unregister(TxnId(1), Ts(10));
        assert_eq!(r.min_active_snapshot(&clock(99)), Ts(10));
        r.unregister(TxnId(3), Ts(10));
        assert_eq!(r.active_count(), 0);
        assert_eq!(r.min_active_snapshot(&clock(42)), Ts(42));
    }

    /// Regression: a double-unregister (or an unregister of a snapshot
    /// that was never registered) must not drive the active count below
    /// zero. This runs in release CI too, where the old code's
    /// unconditional `fetch_sub` wrapped `active_count()` to ~2^64.
    #[test]
    fn double_unregister_does_not_wrap_active_count() {
        let r = ActiveRegistry::new();
        assert_eq!(r.register(TxnId(1), &clock(10)), Ts(10));
        r.unregister(TxnId(1), Ts(10));
        // Second unregister of the same snapshot: must be a no-op.
        r.unregister(TxnId(1), Ts(10));
        assert_eq!(r.active_count(), 0, "count must not underflow");
        // Unregister of a snapshot that never existed: also a no-op.
        r.unregister(TxnId(2), Ts(77));
        assert_eq!(r.active_count(), 0);
        // The registry still works normally afterwards.
        assert_eq!(r.register(TxnId(3), &clock(20)), Ts(20));
        assert_eq!(r.active_count(), 1);
        assert_eq!(r.min_active_snapshot(&clock(99)), Ts(20));
        r.unregister(TxnId(3), Ts(20));
        assert_eq!(r.active_count(), 0);
    }

    #[test]
    fn concurrent_register_unregister() {
        use std::sync::Arc;
        let r = Arc::new(ActiveRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for j in 0..1000 {
                        let ts = r.register(TxnId(i), &clock(1 + (i * 1000 + j) % 7));
                        r.unregister(TxnId(i), ts);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.active_count(), 0);
        assert_eq!(r.min_active_snapshot(&clock(1)), Ts(1));
    }
}
