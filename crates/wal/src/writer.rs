//! The WAL front end and its leader/follower group commit.

use crate::checkpoint::{DurableImage, Manifest};
use crate::device::{DeviceStats, LogDevice};
use crate::record::{LogEntry, LogRecord, Lsn};
use crate::recovery::scan_log;
use sicost_common::sync::{sim_sleep, Condvar, Mutex};
use sicost_common::{CrashPoint, FaultInjector, TxnId};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// WAL tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Fixed cost of one device sync (rotational + flush latency).
    pub sync_latency: Duration,
    /// Incremental cost per record in a sync batch (transfer).
    pub per_record_cost: Duration,
    /// Group-commit gather window: a committer that becomes a batch's
    /// leader waits this long for others to join before it syncs
    /// (PostgreSQL's `commit_delay`, which the paper enables).
    pub commit_delay: Duration,
}

impl WalConfig {
    /// Zero-latency configuration for functional tests: group commit still
    /// batches, but no simulated time is charged.
    pub fn instant() -> Self {
        Self {
            sync_latency: Duration::ZERO,
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::ZERO,
        }
    }

    /// Parameters calibrated against the paper's platform (dedicated log
    /// disk, write cache off, group commit on). See `EXPERIMENTS.md` for the
    /// calibration runs.
    pub fn paper_default() -> Self {
        Self {
            sync_latency: Duration::from_micros(4000),
            per_record_cost: Duration::from_micros(150),
            commit_delay: Duration::from_micros(500),
        }
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        Self::instant()
    }
}

/// Cumulative WAL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit records made durable.
    pub records: u64,
    /// Sync batches issued.
    pub batches: u64,
    /// Largest batch.
    pub max_batch: u64,
    /// Batches whose sync failed transiently (no record durable).
    pub failed_batches: u64,
    /// Total framed bytes appended to the durable log image (monotone;
    /// unaffected by truncation).
    pub appended_bytes: u64,
    /// Log-prefix bytes dropped by checkpoint truncation.
    pub truncated_bytes: u64,
}

/// Why a WAL commit did not make the record durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The device sync for this batch failed transiently. Nothing from the
    /// batch is durable; the transaction may retry from scratch.
    SyncFailed,
    /// The simulated process crashed. The record may or may not be durable
    /// — only recovery can say.
    Crashed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::SyncFailed => write!(f, "wal sync failed"),
            WalError::Crashed => write!(f, "process crashed during wal write"),
        }
    }
}

impl std::error::Error for WalError {}

/// What a leader hands a queued committer through its completion slot.
#[derive(Debug, Clone, Copy)]
enum Handoff {
    /// Lead the next batch; the committer's own record heads the queue.
    Lead,
    /// The committer's batch finished with this outcome.
    Done(Result<(), WalError>),
}

struct Completion {
    slot: Mutex<Option<Handoff>>,
    cv: Condvar,
}

impl Completion {
    fn hand(&self, handoff: Handoff) {
        *self.slot.lock() = Some(handoff);
        self.cv.notify_one();
    }

    /// Blocks until a leader hands something over, and empties the slot.
    fn wait(&self) -> Handoff {
        let mut slot = self.slot.lock();
        while slot.is_none() {
            self.cv.wait(&mut slot);
        }
        slot.take().expect("loop exits only when set")
    }
}

struct Pending {
    record: LogRecord,
    completion: Arc<Completion>,
}

/// Committers waiting for the next batch.
struct Queue {
    /// Queued records, in LSN order.
    pending: Vec<Pending>,
    /// A leader owns the batch in flight (gathering, syncing or
    /// appending). While false, `pending` is empty.
    led: bool,
}

/// The durable log window under one lock, so a reader takes the base
/// offset and the byte image as one consistent snapshot (sampling them
/// from separate locks would race with a leader's append).
struct DiskImage {
    /// Logical byte offset of `bytes[0]`. Starts at 0 and only advances
    /// when checkpoint truncation drops a prefix.
    base: u64,
    /// The surviving framed bytes: what crash-recovery scans (and where a
    /// torn tail lives). The only copy of the records;
    /// [`Wal::log_snapshot`] decodes them on demand.
    bytes: Vec<u8>,
}

impl DiskImage {
    /// Logical offset one past the last durable byte. Monotone: truncation
    /// advances `base` and shrinks `bytes` by the same amount.
    fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

/// The durable checkpoint area: two frame slots, the live manifest, and
/// the previous manifest (retained across a swap so a torn current
/// generation can fall back).
struct CheckpointArea {
    slots: [Vec<u8>; 2],
    manifest: Vec<u8>,
    prev_manifest: Vec<u8>,
    /// The slot the *next* checkpoint frame goes into — always the one
    /// the live manifest does not reference, so a torn write can never
    /// damage the recoverable generation.
    next_slot: u8,
}

/// The write-ahead log. One instance per database; committers from any
/// number of threads share device syncs through leader/follower group
/// commit (see [`Wal::commit`]).
///
/// Lock order: `next_lsn → queue → completion` on the commit path and
/// `ckpt → image` for the durable image; `stats` is only taken alone.
pub struct Wal {
    device: LogDevice,
    commit_delay: Duration,
    next_lsn: Mutex<u64>,
    queue: Mutex<Queue>,
    /// The durable log window (base offset + framed bytes).
    image: Mutex<DiskImage>,
    /// The durable checkpoint slots and manifests.
    ckpt: Mutex<CheckpointArea>,
    stats: Mutex<WalStats>,
    faults: Option<Arc<FaultInjector>>,
}

impl Wal {
    /// An empty WAL.
    pub fn new(config: WalConfig) -> Self {
        Self::with_faults(config, None)
    }

    /// An empty WAL with an optional fault injector shared with the
    /// engine, so WAL-level faults and commit-pipeline faults draw from one
    /// seeded schedule.
    pub fn with_faults(config: WalConfig, faults: Option<Arc<FaultInjector>>) -> Self {
        Self {
            device: LogDevice::new(config.sync_latency, config.per_record_cost)
                .with_faults(faults.clone()),
            commit_delay: config.commit_delay,
            next_lsn: Mutex::new(0),
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                led: false,
            }),
            image: Mutex::new(DiskImage {
                base: 0,
                bytes: Vec::new(),
            }),
            ckpt: Mutex::new(CheckpointArea {
                slots: [Vec::new(), Vec::new()],
                manifest: Vec::new(),
                prev_manifest: Vec::new(),
                next_slot: 0,
            }),
            stats: Mutex::new(WalStats::default()),
            faults,
        }
    }

    fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed())
    }

    /// Makes a transaction's redo entries durable, blocking until the sync
    /// batch containing them completes. Returns the record's LSN on
    /// success; [`WalError::SyncFailed`] when the batch's device sync
    /// failed transiently (nothing durable), [`WalError::Crashed`] when the
    /// simulated process died (durability undecided — ask recovery).
    ///
    /// Group commit runs on the committers' own threads. A committer that
    /// finds no batch in flight leads one: it waits `commit_delay`, takes
    /// the queue, syncs the device and appends the frames, hands the
    /// leadership to the first committer queued behind it, and only then
    /// completes its batch. Every other committer waits on its completion
    /// slot for the outcome — or for the leadership.
    ///
    /// Callers must not invoke this for read-only transactions — an empty
    /// entry list is a caller bug.
    pub fn commit(&self, txn: TxnId, entries: Vec<LogEntry>) -> Result<Lsn, WalError> {
        assert!(
            !entries.is_empty(),
            "read-only transactions must not write the WAL"
        );
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        let completion = Arc::new(Completion {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let (lsn, mut lead) = {
            let mut next = self.next_lsn.lock();
            let lsn = Lsn(*next);
            *next += 1;
            // Enqueue while still holding the LSN lock so queue order always
            // matches LSN order.
            let mut queue = self.queue.lock();
            queue.pending.push(Pending {
                record: LogRecord { lsn, txn, entries },
                completion: Arc::clone(&completion),
            });
            let lead = !queue.led;
            queue.led = true;
            (lsn, lead)
        };
        loop {
            if lead {
                self.lead_batch();
            }
            match completion.wait() {
                Handoff::Done(result) => return result.map(|()| lsn),
                Handoff::Lead => lead = true,
            }
        }
    }

    /// Runs one batch as its leader, whose own record heads the queue.
    fn lead_batch(&self) {
        // Gather window: let concurrent committers join the batch.
        if !self.commit_delay.is_zero() {
            sim_sleep(self.commit_delay);
        }
        let batch = std::mem::take(&mut self.queue.lock().pending);
        let result = self.write_batch(&batch);
        // Hand off before completing, so the next batch gathers and syncs
        // while this one's committers wake up.
        {
            let mut queue = self.queue.lock();
            match queue.pending.first() {
                Some(next) => next.completion.hand(Handoff::Lead),
                None => queue.led = false,
            }
        }
        for p in batch {
            p.completion.hand(Handoff::Done(result));
        }
    }

    /// Syncs `batch` and appends its frames to the durable image.
    fn write_batch(&self, batch: &[Pending]) -> Result<(), WalError> {
        // A crash armed at DuringWalSync tears the batch: every record but
        // the last reaches the disk image in full, then the write stops
        // half-way through the last record's frame. No waiter learns its
        // fate — they all see Crashed — and recovery must truncate the
        // partial frame by checksum.
        let crash_mid_sync = self
            .faults
            .as_ref()
            .is_some_and(|f| f.at_crash_point(CrashPoint::DuringWalSync));
        if crash_mid_sync {
            let mut image = self.image.lock();
            let before = image.bytes.len();
            for (i, p) in batch.iter().enumerate() {
                let frame = p.record.encode();
                let kept = if i + 1 < batch.len() {
                    frame.len()
                } else {
                    frame.len() / 2
                };
                image.bytes.extend_from_slice(&frame[..kept]);
            }
            let appended = (image.bytes.len() - before) as u64;
            drop(image);
            self.stats.lock().appended_bytes += appended;
            return Err(WalError::Crashed);
        }
        if self.crashed() {
            return Err(WalError::Crashed);
        }

        let bytes: u64 = batch.iter().map(|p| p.record.size_bytes() as u64).sum();
        let synced = self.device.sync(batch.len() as u64, bytes);
        let mut appended = 0u64;
        if synced.is_ok() {
            let mut image = self.image.lock();
            let before = image.bytes.len();
            for p in batch {
                p.record.encode_into(&mut image.bytes);
            }
            appended = (image.bytes.len() - before) as u64;
        }
        let mut stats = self.stats.lock();
        stats.batches += 1;
        if synced.is_ok() {
            stats.records += batch.len() as u64;
            stats.max_batch = stats.max_batch.max(batch.len() as u64);
            stats.appended_bytes += appended;
        } else {
            stats.failed_batches += 1;
        }
        synced.map_err(|_| WalError::SyncFailed)
    }

    /// The durable log records still inside the surviving window, in LSN
    /// order (recovery and tests), decoded from the byte image. Checkpoint
    /// truncation drops the covered prefix from this view too, and a torn
    /// tail left by a mid-sync crash is not part of it.
    pub fn log_snapshot(&self) -> Vec<LogRecord> {
        scan_log(&self.image.lock().bytes).records
    }

    /// Snapshot of the durable byte image — the "disk" window that crash
    /// recovery scans. After a mid-sync crash this ends in a torn tail.
    pub fn disk_snapshot(&self) -> Vec<u8> {
        self.image.lock().bytes.clone()
    }

    /// Logical byte offset of the first surviving log byte (0 until the
    /// first truncation).
    pub fn wal_base(&self) -> u64 {
        self.image.lock().base
    }

    /// Logical byte offset one past the last durable log byte. Monotone
    /// across truncation; the checkpointer reads this as the redo
    /// resume-point `O` before choosing its snapshot timestamp.
    pub fn log_end_offset(&self) -> u64 {
        self.image.lock().end()
    }

    /// The complete durable state — log window, checkpoint slots, and
    /// manifests — as crash recovery would find it.
    pub fn durable_image(&self) -> DurableImage {
        let ckpt = self.ckpt.lock();
        let image = self.image.lock();
        DurableImage {
            manifest: ckpt.manifest.clone(),
            prev_manifest: ckpt.prev_manifest.clone(),
            slots: [ckpt.slots[0].clone(), ckpt.slots[1].clone()],
            wal_base: image.base,
            wal: image.bytes.clone(),
            // The WAL doesn't own the heap; a paged engine merges the
            // catalog's heap snapshot into this image itself.
            heap: Default::default(),
        }
    }

    /// Step 1 of a checkpoint: write the encoded checkpoint frame into the
    /// inactive slot and sync it. Returns the slot written, for the
    /// manifest. The live manifest's slot is never touched, so a crash or
    /// torn write here ([`sicost_common::CrashPoint::DuringCheckpointWrite`])
    /// leaves the previous generation fully recoverable.
    pub fn write_checkpoint(&self, frame: &[u8]) -> Result<u8, WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        let mut ckpt = self.ckpt.lock();
        let slot = ckpt.next_slot;
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::DuringCheckpointWrite) {
                // The crash lands mid-write: the slot holds a torn prefix.
                ckpt.slots[slot as usize] = frame[..frame.len() / 2].to_vec();
                return Err(WalError::Crashed);
            }
        }
        self.device
            .sync(1, frame.len() as u64)
            .map_err(|_| WalError::SyncFailed)?;
        ckpt.slots[slot as usize] = frame.to_vec();
        Ok(slot)
    }

    /// Step 2 of a checkpoint: atomically swap the manifest to point at
    /// the freshly written slot, retaining the previous manifest bytes for
    /// fallback. A crash armed at
    /// [`sicost_common::CrashPoint::BeforeManifestSwap`] fires before any
    /// byte changes, so recovery still sees the old generation.
    pub fn swap_manifest(&self, manifest: &Manifest) -> Result<(), WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::BeforeManifestSwap) {
                return Err(WalError::Crashed);
            }
        }
        let encoded = manifest.encode();
        self.device
            .sync(1, encoded.len() as u64)
            .map_err(|_| WalError::SyncFailed)?;
        let mut ckpt = self.ckpt.lock();
        ckpt.prev_manifest = std::mem::take(&mut ckpt.manifest);
        ckpt.manifest = encoded;
        // The slot the new manifest references is now live; the other one
        // is free for the next generation.
        ckpt.next_slot = 1 - manifest.slot;
        Ok(())
    }

    /// Step 3 of a checkpoint: drop the log prefix below logical offset
    /// `cut`. Must only be called once the manifest naming `cut` as its
    /// resume point is durable — which is why the armed crash point
    /// ([`sicost_common::CrashPoint::AfterManifestSwapBeforeTruncate`])
    /// fires *before* any byte is dropped: a crash there recovers from the
    /// new manifest over the still-intact log. Returns the bytes dropped.
    pub fn truncate_to(&self, cut: u64) -> Result<u64, WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::AfterManifestSwapBeforeTruncate) {
                return Err(WalError::Crashed);
            }
        }
        let mut image = self.image.lock();
        if cut <= image.base {
            return Ok(0);
        }
        assert!(
            cut <= image.end(),
            "truncate_to({cut}) past log end {}",
            image.end()
        );
        let dropped = (cut - image.base) as usize;
        image.bytes.drain(..dropped);
        image.base = cut;
        drop(image);
        self.stats.lock().truncated_bytes += dropped as u64;
        Ok(dropped as u64)
    }

    /// Cumulative WAL statistics.
    pub fn stats(&self) -> WalStats {
        *self.stats.lock()
    }

    /// Cumulative device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use sicost_common::{FaultConfig, TableId};
    use sicost_storage::{Row, Value};
    use std::time::Instant;

    fn entry(key: i64, val: i64) -> LogEntry {
        LogEntry {
            table: TableId(0),
            key: Value::int(key),
            image: Some(Row::new(vec![Value::int(key), Value::int(val)])),
        }
    }

    #[test]
    fn commit_is_durable_and_ordered() {
        let wal = Wal::new(WalConfig::instant());
        let l1 = wal.commit(TxnId(1), vec![entry(1, 10)]).unwrap();
        let l2 = wal.commit(TxnId(2), vec![entry(2, 20)]).unwrap();
        assert!(l1 < l2);
        let log = wal.log_snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].lsn, l1);
        assert_eq!(log[1].lsn, l2);
        assert_eq!(log[0].txn, TxnId(1));
    }

    #[test]
    fn disk_image_decodes_back_to_the_committed_records() {
        let wal = Wal::new(WalConfig::instant());
        let committed = [
            (TxnId(1), vec![entry(1, 10)]),
            (TxnId(2), vec![entry(2, 20), entry(3, 30)]),
        ];
        let expected: Vec<LogRecord> = committed
            .into_iter()
            .map(|(txn, entries)| {
                let lsn = wal.commit(txn, entries.clone()).unwrap();
                LogRecord { lsn, txn, entries }
            })
            .collect();
        let disk = wal.disk_snapshot();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < disk.len() {
            let (rec, used) = LogRecord::decode(&disk[pos..]).unwrap();
            decoded.push(rec);
            pos += used;
        }
        assert_eq!(decoded, expected);
        assert_eq!(wal.log_snapshot(), expected);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn empty_commit_rejected() {
        let wal = Wal::new(WalConfig::instant());
        let _ = wal.commit(TxnId(1), vec![]);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let cfg = WalConfig {
            sync_latency: Duration::from_millis(4),
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::from_millis(2),
        };
        let wal = Arc::new(Wal::new(cfg));
        let n = 8;
        let t0 = Instant::now();
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    wal.commit(TxnId(i), vec![entry(i as i64, 0)]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed();
        let stats = wal.stats();
        assert_eq!(stats.records, n);
        // All 8 should fit in one or two batches, far fewer than 8 syncs.
        assert!(
            stats.batches <= 3,
            "expected grouped commits, got {} batches",
            stats.batches
        );
        assert!(stats.max_batch >= 3);
        // And wall-clock must be far below 8 serial syncs (8 * 6ms).
        assert!(
            elapsed < Duration::from_millis(30),
            "group commit too slow: {elapsed:?}"
        );
    }

    #[test]
    fn sequential_commits_each_pay_the_sync() {
        let cfg = WalConfig {
            sync_latency: Duration::from_millis(3),
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::ZERO,
        };
        let wal = Wal::new(cfg);
        let t0 = Instant::now();
        for i in 0..3 {
            wal.commit(TxnId(i), vec![entry(i as i64, 0)]).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(9));
        assert_eq!(wal.stats().batches, 3);
    }

    #[test]
    fn stats_track_device() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 1), entry(2, 2)])
            .unwrap();
        let ds = wal.device_stats();
        assert_eq!(ds.syncs, 1);
        assert_eq!(ds.records, 1, "device counts records (commit groups)");
        assert!(ds.bytes > 0);
    }

    /// No batch is in flight and nobody is queued.
    fn assert_idle(wal: &Wal) {
        let queue = wal.queue.lock();
        assert!(!queue.led, "a leader outlived its batch");
        assert!(queue.pending.is_empty(), "a committer was left queued");
    }

    #[test]
    fn a_lone_committer_leads_its_own_batch() {
        let wal = Wal::new(WalConfig::instant());
        for i in 0..3 {
            wal.commit(TxnId(i), vec![entry(i as i64, 1)]).unwrap();
            assert_idle(&wal);
        }
        assert_eq!(wal.stats().batches, 3);
        assert_eq!(wal.device_stats().syncs, 3);
    }

    /// Commits txn 0 as a batch leader, then queues txns 1..=`followers`
    /// (in that LSN order) while the leader's batch is held after its
    /// device sync: the test holds the stats lock, which a leader takes
    /// after syncing and before it hands off. Returns every commit's
    /// outcome, in txn order; panics if a committer never returns.
    fn commit_behind_a_held_leader(wal: &Arc<Wal>, followers: u64) -> Vec<Result<Lsn, WalError>> {
        let held = wal.stats.lock();
        let (done_tx, done) = std::sync::mpsc::channel();
        let spawn = |i: u64| {
            let (wal, done_tx) = (Arc::clone(wal), done_tx.clone());
            std::thread::spawn(move || {
                let result = wal.commit(TxnId(i), vec![entry(i as i64, 0)]);
                done_tx.send((i, result)).unwrap();
            })
        };
        let wait_until = |ready: &dyn Fn(&Queue) -> bool| {
            while !ready(&wal.queue.lock()) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let mut handles = vec![spawn(0)];
        // The leader has taken its batch once the queue is led and empty.
        wait_until(&|q| q.led && q.pending.is_empty());
        for i in 1..=followers {
            handles.push(spawn(i));
            wait_until(&|q| q.pending.len() == i as usize);
        }
        drop(held);
        let mut results: Vec<_> = (0..=followers)
            .map(|_| {
                done.recv_timeout(Duration::from_secs(10))
                    .expect("a committer hung")
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, result)| result).collect()
    }

    #[test]
    fn committers_queued_during_a_sync_are_promoted_in_lsn_order() {
        let cfg = WalConfig {
            sync_latency: Duration::from_millis(2),
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::ZERO,
        };
        let wal = Arc::new(Wal::new(cfg));
        let results = commit_behind_a_held_leader(&wal, 4);
        let lsns: Vec<Lsn> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(lsns, (0..5).map(Lsn).collect::<Vec<_>>());
        // The leader synced alone; the first follower was promoted and
        // synced the other four in one batch.
        let stats = wal.stats();
        assert_eq!((stats.batches, stats.max_batch, stats.records), (2, 4, 5));
        let log = wal.log_snapshot();
        assert_eq!(log.iter().map(|r| r.lsn).collect::<Vec<_>>(), lsns);
        assert_eq!(
            log.iter().map(|r| r.txn).collect::<Vec<_>>(),
            (0..5).map(TxnId).collect::<Vec<_>>()
        );
        assert_idle(&wal);
    }

    #[test]
    fn leadership_passes_on_after_a_failed_sync() {
        // The first seed whose first sync fails and whose second succeeds.
        let cfg = (0..)
            .map(|seed| FaultConfig::transient(seed, 0.0, 0.5))
            .find(|cfg| {
                let twin = FaultInjector::new(*cfg);
                twin.wal_sync_error() && !twin.wal_sync_error()
            })
            .unwrap();
        let f = Arc::new(FaultInjector::new(cfg));
        let wal = Arc::new(Wal::with_faults(WalConfig::instant(), Some(f)));
        let results = commit_behind_a_held_leader(&wal, 2);
        assert_eq!(
            results,
            vec![Err(WalError::SyncFailed), Ok(Lsn(1)), Ok(Lsn(2))]
        );
        let stats = wal.stats();
        assert_eq!(
            (stats.batches, stats.failed_batches, stats.records),
            (2, 1, 2)
        );
        let log = wal.log_snapshot();
        assert_eq!(
            log.iter().map(|r| r.txn).collect::<Vec<_>>(),
            [TxnId(1), TxnId(2)]
        );
        assert_idle(&wal);
    }

    #[test]
    fn a_mid_sync_crash_fails_every_later_committer_without_hanging() {
        // The leader's batch lands; the promoted follower's batch crashes.
        let f = Arc::new(FaultInjector::new(FaultConfig::crash(
            CrashPoint::DuringWalSync,
            2,
        )));
        let wal = Arc::new(Wal::with_faults(WalConfig::instant(), Some(f)));
        let results = commit_behind_a_held_leader(&wal, 3);
        assert_eq!(
            results,
            vec![
                Ok(Lsn(0)),
                Err(WalError::Crashed),
                Err(WalError::Crashed),
                Err(WalError::Crashed)
            ]
        );
        // The crashed batch tore its last frame: txns 0-2 are intact.
        let log = wal.log_snapshot();
        assert_eq!(
            log.iter().map(|r| r.txn).collect::<Vec<_>>(),
            [TxnId(0), TxnId(1), TxnId(2)]
        );
        assert!(scan_log(&wal.disk_snapshot()).truncated.is_some());
        assert_idle(&wal);
        assert_eq!(
            wal.commit(TxnId(9), vec![entry(9, 9)]),
            Err(WalError::Crashed)
        );
        assert_idle(&wal);
    }

    #[test]
    fn sync_error_fails_every_waiter_and_leaves_disk_untouched() {
        let f = Arc::new(FaultInjector::new(FaultConfig::transient(3, 0.0, 1.0)));
        let wal = Wal::with_faults(WalConfig::instant(), Some(f));
        assert_eq!(
            wal.commit(TxnId(1), vec![entry(1, 1)]),
            Err(WalError::SyncFailed)
        );
        assert!(wal.disk_snapshot().is_empty());
        assert!(wal.log_snapshot().is_empty());
        let stats = wal.stats();
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.records, 0);
    }

    #[test]
    fn checkpoint_protocol_truncates_and_survives_recovery() {
        use crate::checkpoint::{recover_image, CheckpointImage, Manifest};
        use sicost_common::Ts;

        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 10)]).unwrap();
        wal.commit(TxnId(2), vec![entry(2, 20)]).unwrap();
        let cut = wal.log_end_offset();
        assert_eq!(wal.wal_base(), 0);

        // Checkpoint covering both records.
        let frame = CheckpointImage {
            ts: Ts(2),
            tables: vec![(
                TableId(0),
                vec![
                    (Value::int(1), Row::new(vec![Value::int(1), Value::int(10)])),
                    (Value::int(2), Row::new(vec![Value::int(2), Value::int(20)])),
                ],
            )],
        }
        .encode();
        let slot = wal.write_checkpoint(&frame).unwrap();
        assert_eq!(slot, 0);
        wal.swap_manifest(&Manifest {
            slot,
            checkpoint_ts: Ts(2),
            wal_offset: cut,
        })
        .unwrap();
        assert_eq!(wal.truncate_to(cut).unwrap(), cut);
        assert_eq!(wal.wal_base(), cut);
        assert_eq!(wal.log_end_offset(), cut, "end offset is monotone");
        assert!(wal.disk_snapshot().is_empty());
        assert!(wal.log_snapshot().is_empty());
        let stats = wal.stats();
        assert_eq!(stats.truncated_bytes, cut);
        assert_eq!(stats.appended_bytes, cut);

        // A commit after the checkpoint lands in the suffix.
        wal.commit(TxnId(3), vec![entry(1, 11)]).unwrap();
        assert_eq!(wal.log_snapshot().len(), 1);
        assert!(wal.log_end_offset() > cut);

        // And the durable image recovers: checkpoint rows + suffix only.
        let mut cat = sicost_storage::Catalog::new();
        cat.create_table(
            sicost_storage::TableSchema::new(
                "T",
                vec![
                    sicost_storage::ColumnDef::new("id", sicost_storage::ColumnType::Int),
                    sicost_storage::ColumnDef::new("v", sicost_storage::ColumnType::Int),
                ],
                0,
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        let out = recover_image(&wal.durable_image(), &cat).unwrap();
        assert_eq!(out.checkpoint_rows, 2);
        assert_eq!(out.replayed_records, 1);
        assert!(out.replayed_bytes < stats.appended_bytes + frame.len() as u64);
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            11
        );
        assert_eq!(
            t.read_at(&Value::int(2), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            20
        );
    }

    #[test]
    fn checkpoint_slots_alternate_across_generations() {
        use crate::checkpoint::{CheckpointImage, Manifest};
        use sicost_common::Ts;

        let wal = Wal::new(WalConfig::instant());
        for gen in 0..4u64 {
            let frame = CheckpointImage {
                ts: Ts(gen + 1),
                tables: vec![],
            }
            .encode();
            let slot = wal.write_checkpoint(&frame).unwrap();
            assert_eq!(u64::from(slot), gen % 2, "slots must alternate");
            wal.swap_manifest(&Manifest {
                slot,
                checkpoint_ts: Ts(gen + 1),
                wal_offset: 0,
            })
            .unwrap();
        }
        let image = wal.durable_image();
        let current = Manifest::decode(&image.manifest).unwrap();
        let prev = Manifest::decode(&image.prev_manifest).unwrap();
        assert_eq!(current.checkpoint_ts, Ts(4));
        assert_eq!(prev.checkpoint_ts, Ts(3));
        assert_ne!(current.slot, prev.slot);
    }

    #[test]
    fn crash_during_checkpoint_write_tears_only_the_inactive_slot() {
        use crate::checkpoint::{CheckpointImage, Manifest};
        use sicost_common::Ts;

        // Arm the crash for the *second* checkpoint write: generation 1
        // lands intact in slot 0, generation 2 tears in slot 1.
        let f = Arc::new(FaultInjector::new(FaultConfig::crash(
            sicost_common::CrashPoint::DuringCheckpointWrite,
            2,
        )));
        let wal = Wal::with_faults(WalConfig::instant(), Some(f));
        let g1 = CheckpointImage {
            ts: Ts(1),
            tables: vec![],
        }
        .encode();
        let slot = wal.write_checkpoint(&g1).unwrap();
        wal.swap_manifest(&Manifest {
            slot,
            checkpoint_ts: Ts(1),
            wal_offset: 0,
        })
        .unwrap();
        let g2 = CheckpointImage {
            ts: Ts(2),
            tables: vec![],
        }
        .encode();
        assert_eq!(wal.write_checkpoint(&g2), Err(WalError::Crashed));
        let image = wal.durable_image();
        // Slot 1 is torn; slot 0 and the manifest naming it are intact.
        assert!(CheckpointImage::decode(&image.slots[1]).is_err());
        assert_eq!(CheckpointImage::decode(&image.slots[0]).unwrap().ts, Ts(1));
        assert_eq!(Manifest::decode(&image.manifest).unwrap().slot, 0);
    }

    #[test]
    fn truncate_below_base_is_a_noop() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 1)]).unwrap();
        let cut = wal.log_end_offset();
        assert_eq!(wal.truncate_to(cut).unwrap(), cut);
        assert_eq!(wal.truncate_to(cut).unwrap(), 0, "idempotent");
        assert_eq!(wal.truncate_to(cut - 1).unwrap(), 0, "stale cut ignored");
    }

    #[test]
    fn mid_sync_crash_tears_the_tail_record() {
        let f = Arc::new(FaultInjector::new(FaultConfig::crash(
            CrashPoint::DuringWalSync,
            1,
        )));
        // Large commit_delay so both commits land in one batch.
        let cfg = WalConfig {
            sync_latency: Duration::ZERO,
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::from_millis(20),
        };
        let wal = Arc::new(Wal::with_faults(cfg, Some(Arc::clone(&f))));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.commit(TxnId(i), vec![entry(i as i64, 0)]))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| *r == Err(WalError::Crashed)));
        assert!(f.crashed());

        // The first record of the batch is intact, the second is torn.
        let disk = wal.disk_snapshot();
        let (first, used) = LogRecord::decode(&disk).expect("head record intact");
        assert_eq!(wal.log_snapshot(), vec![first]);
        assert!(used < disk.len(), "a torn tail must remain");
        assert!(LogRecord::decode(&disk[used..]).is_err());

        // The WAL is dead: later commits fail fast.
        assert_eq!(
            wal.commit(TxnId(9), vec![entry(9, 9)]),
            Err(WalError::Crashed)
        );
    }
}
