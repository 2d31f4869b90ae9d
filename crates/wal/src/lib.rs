//! Write-ahead logging with a **simulated log device** and group commit.
//!
//! The paper's experiments run with WAL on a dedicated disk with its write
//! cache disabled, and `commit_delay` configured so concurrent commits share
//! one synchronous log write ("group commit"). Its §IV-D analysis then rests
//! on one observation: *"the need to write to disk is overwhelmingly dominant
//! in the work done; once a transaction needs one write, extra writes have
//! negligible extra cost."*
//!
//! This crate reproduces exactly that cost structure:
//!
//! * [`LogDevice`] models the disk: each sync costs a fixed rotational/seek
//!   latency plus a per-record transfer cost.
//! * [`Wal`] runs leader/follower group commit on the committers' own
//!   threads. A committing transaction enqueues its [`LogRecord`]; if no
//!   batch is in flight it leads one — waits the configurable
//!   `commit_delay`, syncs everything queued by then in one device sync,
//!   and hands leadership to the first committer queued behind it.
//!   Everyone else blocks until the batch containing its record has been
//!   synced (or until it is handed the leadership).
//! * Read-only transactions never call into this crate at all — which is why
//!   strategies that add a write to the read-only Balance program pay the
//!   paper's ~20 % penalty at MPL 1 without any hard-coding on our side.
//!
//! Durability is byte-real: every synced record is appended to an
//! in-memory "disk" image in a checksummed binary frame (see [`record`]).
//! The image is the only copy the WAL keeps, and [`recovery::recover`]
//! rebuilds a catalog by scanning it — truncating any torn tail a crash
//! left behind — and replaying the surviving records. A shared [`sicost_common::FaultInjector`] can stall
//! or fail device syncs and crash the process mid-pipeline; tests use this
//! to show that committed transactions survive recovery and uncommitted
//! ones vanish.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod record;
pub mod recovery;
pub mod writer;

pub use checkpoint::{
    recover_image, CheckpointFrame, CheckpointImage, DurableImage, Manifest, PagedCheckpoint,
    RecoveryOutcome, CHECKPOINT_BASE_TS, CHECKPOINT_TXN, CHECKPOINT_VERSION,
    PAGED_CHECKPOINT_VERSION,
};
/// The simulated device layer, shared with the paged heap (re-exported
/// from `sicost-common`, where it moved so `sicost-storage` can use it).
pub use sicost_common::device;

pub use device::{DeviceStats, LogDevice, SyncError};
pub use record::{put_frame, read_frame, DecodeError, LogEntry, LogRecord, Lsn};
pub use recovery::{recover, replay, scan_log, RecoveryError, ScanResult, Truncation};
pub use writer::{Wal, WalConfig, WalError, WalStats};
