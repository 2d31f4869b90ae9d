//! Fuzzy checkpointing for the engine.
//!
//! A checkpoint is a consistent MVCC snapshot of every table at a single
//! commit timestamp `C`, paired with a WAL byte offset `O` such that every
//! log record below `O` describes a transaction with commit timestamp
//! `≤ C`. Recovery can then install the snapshot and replay only the log
//! suffix at and above `O` — restart cost becomes proportional to the
//! delta since the last checkpoint instead of the whole history.
//!
//! The correctness pivot is the `(O, C)` pair. Transactions append their
//! WAL record *before* reserving a commit timestamp, so a naive
//! `O = log_end(); C = clock()` read can miss a committer that appended
//! below `O` but will publish a timestamp above `C`. The checkpointer
//! closes that window with the in-flight barrier: it reads `O`, snapshots
//! the set of WAL-backed committers currently between append and
//! publication, waits (on the publish gate's condvar) until all of them
//! have published or the crash latch fires, and only then reads
//! `C = clock()`. Every record below `O` now provably carries a timestamp
//! `≤ C`; records at or above `O` whose timestamp is `≤ C` replay
//! harmlessly because redo is idempotent.
//!
//! Crash ordering is delegated to the WAL layer: frame into the inactive
//! slot first, manifest swap second, prefix truncation last. A crash at
//! any boundary leaves either the previous generation or the new one
//! fully intact (see `sicost_wal::checkpoint`).

use crate::database::Database;
use crate::error::TxnError;
use sicost_common::{Ts, TxnId};
use sicost_wal::{CheckpointImage, Manifest, PagedCheckpoint, WalError};
use std::sync::atomic::Ordering;

/// What a completed checkpoint covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The commit timestamp the table snapshot is consistent at.
    pub checkpoint_ts: Ts,
    /// WAL byte offset the checkpoint covers; recovery replays from here.
    pub wal_offset: u64,
    /// Log-prefix bytes dropped by the post-swap truncation.
    pub truncated_bytes: u64,
    /// Rows serialized into the checkpoint frame, across all tables
    /// (always 0 on the paged backend, whose frame carries no rows —
    /// the data lives in the heap pages).
    pub rows: usize,
    /// Checkpoint slot (0 or 1) the frame was written into.
    pub slot: u8,
    /// Dirty pages written back to the heap (paged backend only).
    pub pages_flushed: u64,
    /// Bytes of the checkpoint frame written into the slot. The headline
    /// incremental-checkpoint number: on the paged backend this is a
    /// fixed few dozen bytes regardless of table size, versus a full
    /// serialized image on the resident backend.
    pub image_bytes: u64,
}

/// Runs one checkpoint against a database. Callers must hold the
/// database's single-flight checkpoint lock for the duration.
pub(crate) struct Checkpointer<'db> {
    db: &'db Database,
}

impl<'db> Checkpointer<'db> {
    pub(crate) fn new(db: &'db Database) -> Self {
        Checkpointer { db }
    }

    /// Executes the full protocol: offset read, in-flight drain,
    /// snapshot, slot write, manifest swap, truncation.
    pub(crate) fn run(&self) -> Result<CheckpointOutcome, TxnError> {
        let db = self.db;
        if db.crashed() {
            return Err(TxnError::Transient("crashed before checkpoint".into()));
        }

        // Step 1: the covered offset. Everything below `O` must end up
        // reflected in the snapshot, which the drain below guarantees.
        let wal_offset = db.wal.log_end_offset();

        // Step 2: drain the in-flight barrier. Committers register in
        // `inflight_wal` before their append and deregister at
        // publication (under the publish gate), so the set read here is a
        // superset of everyone who appended below `O` but has not yet
        // published. New committers that register after this snapshot
        // append at or above `O` and need not be waited for.
        //
        // `C` is then registered as an active snapshot before the gate is
        // released. The clock cannot move while the gate is held, so the
        // registry hands back exactly `C`; from here until the capture
        // below is done, neither vacuum nor an install's pruning can drop
        // a version the capture must read.
        let checkpoint_ts = {
            let mut gate = db.publish.lock.lock();
            let targets: Vec<_> = db.inflight_wal.lock().iter().copied().collect();
            loop {
                if db.crashed() {
                    drop(gate);
                    db.publish.cv.notify_all();
                    return Err(TxnError::Transient("crashed draining checkpoint".into()));
                }
                let inflight = db.inflight_wal.lock();
                if targets.iter().all(|t| !inflight.contains(t)) {
                    break;
                }
                drop(inflight);
                db.publish.cv.wait(&mut gate);
            }
            db.registry.register(CHECKPOINT_READER, &db.clock)
        };
        let captured = self.capture(checkpoint_ts);
        db.registry.unregister(CHECKPOINT_READER, checkpoint_ts);
        let (frame, rows, pages_flushed) = captured?;
        let image_bytes = frame.len() as u64;

        // Steps 4–6: slot write, manifest swap, truncation — each a
        // crash point the torture harness arms.
        let slot = db.wal.write_checkpoint(&frame).map_err(wal_err)?;
        db.wal
            .swap_manifest(&Manifest {
                slot,
                checkpoint_ts,
                wal_offset,
            })
            .map_err(wal_err)?;
        let truncated_bytes = db.wal.truncate_to(wal_offset).map_err(wal_err)?;

        db.metrics.record_checkpoint(truncated_bytes, pages_flushed);
        db.last_ckpt_offset.store(wal_offset, Ordering::Relaxed);
        db.commits_since_ckpt.store(0, Ordering::Relaxed);
        Ok(CheckpointOutcome {
            checkpoint_ts,
            wal_offset,
            truncated_bytes,
            rows,
            slot,
            pages_flushed,
            image_bytes,
        })
    }

    /// Step 3 of [`Checkpointer::run`]: the frame that records the state
    /// at `checkpoint_ts`, with its row and flushed-page counts. The
    /// caller keeps `checkpoint_ts` registered as an active snapshot
    /// throughout.
    fn capture(&self, checkpoint_ts: Ts) -> Result<(Vec<u8>, usize, u64), TxnError> {
        let db = self.db;

        // Step 3: capture the state at `C`. Writers keep installing
        // versions above `C` while we work; MVCC visibility at `C`
        // ignores them, and every version `≤ C` is fully installed
        // (publication follows installation in the commit pipeline).
        //
        // Resident backend: serialize a full MVCC snapshot of every table
        // into the frame. Paged backend: write back every dirty pooled
        // page instead — every version `≤ C` is then durable in the heap
        // (installed before `C` was read, hence flushed here), so the
        // frame itself only needs to record `C`. Heap pages flushed after
        // `C` was read may carry younger versions too; recovery reads the
        // heap at `C` and the replayed suffix re-applies them.
        if db.catalog.is_paged() {
            let flushed = db
                .catalog
                .flush_dirty_pages()
                .map_err(|e| TxnError::Transient(format!("checkpoint page flush failed: {e}")))?;
            let frame = PagedCheckpoint {
                ts: checkpoint_ts,
                pages_flushed: flushed.pages,
                flushed_bytes: flushed.bytes,
            }
            .encode();
            Ok((frame, 0, flushed.pages))
        } else {
            let mut tables = Vec::with_capacity(db.catalog.len());
            for table in db.catalog.tables() {
                tables.push((table.id(), table.snapshot_at(checkpoint_ts)));
            }
            let rows = tables.iter().map(|(_, r)| r.len()).sum();
            let frame = CheckpointImage {
                ts: checkpoint_ts,
                tables,
            }
            .encode();
            Ok((frame, rows, 0))
        }
    }
}

/// The registry entry a running checkpoint holds for its snapshot. The
/// registry counts snapshots, not owners, so the id is only a label.
const CHECKPOINT_READER: TxnId = TxnId(u64::MAX);

fn wal_err(e: WalError) -> TxnError {
    TxnError::Transient(format!("checkpoint wal error: {e}"))
}
