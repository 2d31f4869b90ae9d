//! Engine-level counters.

use crate::error::{AbortReason, SerializationKind};
use sicost_common::{LockStats, LockWait};
use sicost_storage::PoolStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handles to the engine's named lock classes. One instance per
/// [`crate::Database`]; every stripe of a class reports to the same
/// counters, so the snapshot is a per-class (not per-stripe) breakdown of
/// where commit-pipeline wall-clock goes.
#[derive(Debug, Default)]
pub(crate) struct LockClasses {
    /// Commit-timestamp reservation (the tiny sequence lock).
    pub commit_seq: Arc<LockStats>,
    /// Striped per-shard version-install locks.
    pub commit_install: Arc<LockStats>,
    /// Ordered commit-clock publication gate.
    pub commit_publish: Arc<LockStats>,
    /// Lock-manager entry-map stripes.
    pub lock_entries: Arc<LockStats>,
    /// The global waits-for deadlock graph.
    pub lock_wait_graph: Arc<LockStats>,
    /// Lock-manager held-locks stripes.
    pub lock_held: Arc<LockStats>,
    /// SSI per-transaction flag state (the small global map).
    pub ssi_txns: Arc<LockStats>,
    /// SSI SIREAD-mark / announcement partitions.
    pub ssi_reads: Arc<LockStats>,
    /// The checkpointer's single-flight lock (one checkpoint at a time;
    /// auto-checkpoints skip instead of queueing).
    pub checkpoint: Arc<LockStats>,
    /// The vacuum daemon's single-flight lock (one vacuum at a time;
    /// auto-vacuums skip instead of queueing).
    pub vacuum: Arc<LockStats>,
}

impl LockClasses {
    /// Per-class contention snapshot, in stable display order.
    pub fn snapshot(&self) -> Vec<LockWait> {
        vec![
            self.commit_seq.snapshot("commit.seq"),
            self.commit_install.snapshot("commit.install"),
            self.commit_publish.snapshot("commit.publish"),
            self.lock_entries.snapshot("lock.entries"),
            self.lock_wait_graph.snapshot("lock.wait_graph"),
            self.lock_held.snapshot("lock.held"),
            self.ssi_txns.snapshot("ssi.txns"),
            self.ssi_reads.snapshot("ssi.reads"),
            self.checkpoint.snapshot("checkpoint"),
            self.vacuum.snapshot("vacuum"),
        ]
    }
}

/// Monotonic engine counters, cheap enough to bump on every transaction.
#[derive(Debug, Default)]
pub struct EngineMetricsInner {
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    aborts_fuw: AtomicU64,
    aborts_fcw: AtomicU64,
    aborts_ssi: AtomicU64,
    aborts_deadlock: AtomicU64,
    aborts_app: AtomicU64,
    aborts_transient: AtomicU64,
    versions_pruned: AtomicU64,
    ssi_txns_reclaimed: AtomicU64,
    vacuum_runs: AtomicU64,
    vacuum_pause_nanos: AtomicU64,
    publish_batches: AtomicU64,
    publish_batched_commits: AtomicU64,
    checkpoints_taken: AtomicU64,
    checkpoint_bytes_truncated: AtomicU64,
    checkpoint_pages_flushed: AtomicU64,
    recovery_replay_bytes: AtomicU64,
}

impl EngineMetricsInner {
    pub(crate) fn record_commit(&self, read_only: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if read_only {
            self.read_only_commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_abort(&self, reason: AbortReason) {
        let slot = match reason {
            AbortReason::Serialization(SerializationKind::FirstUpdaterWins) => &self.aborts_fuw,
            AbortReason::Serialization(SerializationKind::FirstCommitterWins) => &self.aborts_fcw,
            AbortReason::Serialization(SerializationKind::SsiPivot) => &self.aborts_ssi,
            AbortReason::Deadlock => &self.aborts_deadlock,
            AbortReason::Application => &self.aborts_app,
            AbortReason::Transient => &self.aborts_transient,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_pruned(&self, n: u64) {
        self.versions_pruned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_ssi_reclaimed(&self, n: u64) {
        self.ssi_txns_reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_vacuum(&self, pause: std::time::Duration) {
        self.vacuum_runs.fetch_add(1, Ordering::Relaxed);
        self.vacuum_pause_nanos
            .fetch_add(pause.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_publish_batch(&self, batched: u64) {
        self.publish_batches.fetch_add(1, Ordering::Relaxed);
        self.publish_batched_commits
            .fetch_add(batched, Ordering::Relaxed);
    }

    pub(crate) fn record_checkpoint(&self, truncated_bytes: u64, pages_flushed: u64) {
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes_truncated
            .fetch_add(truncated_bytes, Ordering::Relaxed);
        self.checkpoint_pages_flushed
            .fetch_add(pages_flushed, Ordering::Relaxed);
    }

    pub(crate) fn record_recovery(&self, replayed_bytes: u64) {
        self.recovery_replay_bytes
            .fetch_add(replayed_bytes, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> EngineMetrics {
        EngineMetrics {
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            aborts_first_updater: self.aborts_fuw.load(Ordering::Relaxed),
            aborts_first_committer: self.aborts_fcw.load(Ordering::Relaxed),
            aborts_ssi: self.aborts_ssi.load(Ordering::Relaxed),
            aborts_deadlock: self.aborts_deadlock.load(Ordering::Relaxed),
            aborts_application: self.aborts_app.load(Ordering::Relaxed),
            aborts_transient: self.aborts_transient.load(Ordering::Relaxed),
            versions_pruned: self.versions_pruned.load(Ordering::Relaxed),
            ssi_txns_reclaimed: self.ssi_txns_reclaimed.load(Ordering::Relaxed),
            vacuum_runs: self.vacuum_runs.load(Ordering::Relaxed),
            vacuum_pause: std::time::Duration::from_nanos(
                self.vacuum_pause_nanos.load(Ordering::Relaxed),
            ),
            publish_batches: self.publish_batches.load(Ordering::Relaxed),
            publish_batched_commits: self.publish_batched_commits.load(Ordering::Relaxed),
            max_chain_len: 0,
            siread_entries: 0,
            checkpoints_taken: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_bytes_truncated: self.checkpoint_bytes_truncated.load(Ordering::Relaxed),
            checkpoint_pages_flushed: self.checkpoint_pages_flushed.load(Ordering::Relaxed),
            recovery_replay_bytes: self.recovery_replay_bytes.load(Ordering::Relaxed),
            pool: None,
            lock_waits: Vec::new(),
        }
    }
}

/// Point-in-time view of the engine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Committed transactions (including read-only).
    pub commits: u64,
    /// Committed transactions with an empty write set.
    pub read_only_commits: u64,
    /// Aborts by First-Updater-Wins validation.
    pub aborts_first_updater: u64,
    /// Aborts by First-Committer-Wins validation.
    pub aborts_first_committer: u64,
    /// Aborts by SSI pivot detection.
    pub aborts_ssi: u64,
    /// Deadlock-victim aborts.
    pub aborts_deadlock: u64,
    /// Application rollbacks.
    pub aborts_application: u64,
    /// Transient-fault aborts (injected faults, failed WAL syncs, crashes).
    pub aborts_transient: u64,
    /// Versions reclaimed: those commits left out of the chains they
    /// installed onto, plus those vacuum passes pruned.
    pub versions_pruned: u64,
    /// SSI transaction records retired by vacuum (SSI mode only): commit
    /// metadata whose rw-antidependency edges can no longer form a pivot
    /// because every concurrent snapshot has drained past them.
    pub ssi_txns_reclaimed: u64,
    /// Completed vacuum passes (explicit + policy-triggered).
    pub vacuum_runs: u64,
    /// Accumulated wall-clock spent inside vacuum passes — the GC pause
    /// budget. Divide by [`EngineMetrics::vacuum_runs`] for the mean.
    pub vacuum_pause: std::time::Duration,
    /// Commit-clock publications that advanced the clock (each may cover
    /// several commits — see `publish_batched_commits`).
    pub publish_batches: u64,
    /// Commits whose timestamps were published by those batches;
    /// `publish_batched_commits / publish_batches` is the mean batch size
    /// (1.0 = no batching happened).
    pub publish_batched_commits: u64,
    /// Live gauge: longest version chain across all tables at snapshot
    /// time (filled by [`crate::Database::metrics`]; 0 in a bare
    /// [`EngineMetricsInner::snapshot`]). The headline "is GC keeping up"
    /// number.
    pub max_chain_len: u64,
    /// Live gauge: SIREAD marks currently held by the SSI manager (filled
    /// by [`crate::Database::metrics`]; 0 in a bare snapshot and in
    /// non-SSI modes).
    pub siread_entries: u64,
    /// Fuzzy checkpoints completed (manifest swapped durably).
    pub checkpoints_taken: u64,
    /// WAL-prefix bytes dropped by checkpoint truncation.
    pub checkpoint_bytes_truncated: u64,
    /// Dirty pages written back by paged-backend checkpoints (0 on the
    /// resident backend, whose checkpoints serialize full images instead).
    pub checkpoint_pages_flushed: u64,
    /// Log bytes replayed by crash recovery into this database (0 unless
    /// it was built via [`crate::DatabaseBuilder::recover`]).
    pub recovery_replay_bytes: u64,
    /// Live gauge: buffer-pool counters on the paged backend (filled by
    /// [`crate::Database::metrics`]; `None` on the resident backend and in
    /// a bare [`EngineMetricsInner::snapshot`]).
    pub pool: Option<PoolStats>,
    /// Per-lock-class contention breakdown (acquisitions, contended
    /// count, accumulated wait). Filled by [`crate::Database::metrics`];
    /// empty in a bare [`EngineMetricsInner::snapshot`].
    pub lock_waits: Vec<LockWait>,
}

impl EngineMetrics {
    /// All serialization-failure aborts (the quantity in the paper's
    /// Figure 6).
    pub fn serialization_failures(&self) -> u64 {
        self.aborts_first_updater + self.aborts_first_committer + self.aborts_ssi
    }

    /// All aborts of any kind.
    pub fn total_aborts(&self) -> u64 {
        self.serialization_failures()
            + self.aborts_deadlock
            + self.aborts_application
            + self.aborts_transient
    }

    /// The contention profile of one named lock class, if present.
    pub fn lock_wait(&self, class: &str) -> Option<&LockWait> {
        self.lock_waits.iter().find(|w| w.class == class)
    }

    /// Total blocked wall-clock across every lock class.
    pub fn total_lock_wait(&self) -> std::time::Duration {
        self.lock_waits.iter().map(|w| w.wait).sum()
    }

    /// Mean commits published per clock advance (1.0 when no batching
    /// ever happened; 0.0 before any publication).
    pub fn mean_publish_batch(&self) -> f64 {
        if self.publish_batches == 0 {
            0.0
        } else {
            self.publish_batched_commits as f64 / self.publish_batches as f64
        }
    }

    /// Mean wall-clock per vacuum pass.
    pub fn mean_vacuum_pause(&self) -> std::time::Duration {
        if self.vacuum_runs == 0 {
            std::time::Duration::ZERO
        } else {
            self.vacuum_pause / self.vacuum_runs as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_kind() {
        let m = EngineMetricsInner::default();
        m.record_commit(false);
        m.record_commit(true);
        m.record_abort(AbortReason::Serialization(
            SerializationKind::FirstUpdaterWins,
        ));
        m.record_abort(AbortReason::Serialization(
            SerializationKind::FirstCommitterWins,
        ));
        m.record_abort(AbortReason::Serialization(SerializationKind::SsiPivot));
        m.record_abort(AbortReason::Deadlock);
        m.record_abort(AbortReason::Application);
        m.record_abort(AbortReason::Transient);
        m.record_pruned(7);
        m.record_vacuum(std::time::Duration::from_micros(30));
        m.record_vacuum(std::time::Duration::from_micros(10));
        m.record_publish_batch(3);
        m.record_publish_batch(1);
        m.record_checkpoint(1000, 4);
        m.record_checkpoint(500, 0);
        m.record_recovery(250);
        let s = m.snapshot();
        assert_eq!(s.vacuum_runs, 2);
        assert_eq!(s.vacuum_pause, std::time::Duration::from_micros(40));
        assert_eq!(s.mean_vacuum_pause(), std::time::Duration::from_micros(20));
        assert_eq!(s.publish_batches, 2);
        assert_eq!(s.publish_batched_commits, 4);
        assert_eq!(s.mean_publish_batch(), 2.0);
        assert_eq!(s.checkpoints_taken, 2);
        assert_eq!(s.checkpoint_bytes_truncated, 1500);
        assert_eq!(s.checkpoint_pages_flushed, 4);
        assert_eq!(s.pool, None, "bare snapshot carries no pool gauge");
        assert_eq!(s.recovery_replay_bytes, 250);
        assert_eq!(s.commits, 2);
        assert_eq!(s.read_only_commits, 1);
        assert_eq!(s.aborts_first_updater, 1);
        assert_eq!(s.aborts_first_committer, 1);
        assert_eq!(s.aborts_ssi, 1);
        assert_eq!(s.aborts_deadlock, 1);
        assert_eq!(s.aborts_application, 1);
        assert_eq!(s.aborts_transient, 1);
        assert_eq!(s.versions_pruned, 7);
        assert_eq!(s.serialization_failures(), 3);
        assert_eq!(s.total_aborts(), 6);
    }

    #[test]
    fn lock_classes_snapshot_in_stable_order() {
        let classes = LockClasses::default();
        let snap = classes.snapshot();
        let names: Vec<&str> = snap.iter().map(|w| w.class.as_str()).collect();
        assert_eq!(
            names,
            [
                "commit.seq",
                "commit.install",
                "commit.publish",
                "lock.entries",
                "lock.wait_graph",
                "lock.held",
                "ssi.txns",
                "ssi.reads",
                "checkpoint",
                "vacuum",
            ]
        );
        let mut m = EngineMetrics {
            lock_waits: snap,
            ..Default::default()
        };
        assert!(m.lock_wait("commit.seq").is_some());
        assert!(m.lock_wait("nope").is_none());
        m.lock_waits[0].wait = std::time::Duration::from_millis(2);
        m.lock_waits[1].wait = std::time::Duration::from_millis(3);
        assert_eq!(m.total_lock_wait(), std::time::Duration::from_millis(5));
    }
}
