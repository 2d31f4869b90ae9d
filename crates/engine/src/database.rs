//! The database object: shared engine state and the commit pipeline's
//! global pieces.

use crate::config::EngineConfig;
use crate::cpu::CpuStation;
use crate::history::{HistoryEvent, HistoryObserver};
use crate::locks::LockManager;
use crate::metrics::{EngineMetrics, EngineMetricsInner, LockClasses};
use crate::registry::ActiveRegistry;
use crate::ssi::SsiManager;
use crate::txn::Transaction;
use sicost_common::sync::{stripe_of, Condvar, InstrumentedMutex, Mutex, MutexGuard};
use sicost_common::{FaultInjector, TableId, Ts, TxnId};
use sicost_storage::{Catalog, Row, SchemaError, TableSchema, Value, Version};
use sicost_wal::{DeviceStats, DurableImage, RecoveryError, RecoveryOutcome, Wal, WalStats};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The ordered-publication gate: publishers wait here until every earlier
/// reserved commit timestamp has been published. Lives in an `Arc` so the
/// fault injector's crash hook can reach the condvar and wake blocked
/// publishers the moment the crash latch fires — the wait itself is
/// untimed (no polling).
///
/// The payload is the set of reserved-but-unpublished timestamps whose
/// owners have reached the gate. Whoever holds the gate drains the
/// consecutive run starting at `clock + 1` with a **single clock store**
/// (batched group publication): under contention one publisher advances
/// the clock for many, and the others just observe `clock >= own_ts` and
/// leave — they never take a turn storing the clock themselves.
pub(crate) struct PublishGate {
    /// Pending publication requests. Instrumented as `commit.publish`.
    pub(crate) lock: InstrumentedMutex<std::collections::BTreeSet<u64>>,
    /// Notified on every publication, on in-flight bookkeeping changes,
    /// and by the crash hook.
    pub(crate) cv: Condvar,
}

/// Builder for [`Database`]: declare tables, pick a configuration, attach
/// an optional history observer, then [`DatabaseBuilder::build`].
///
/// Table declarations are deferred: the catalog — and with it the storage
/// backend — is only constructed at [`DatabaseBuilder::build`] /
/// [`DatabaseBuilder::recover`] time, so `table` and `config` compose in
/// either order and [`EngineConfig::storage`] always takes effect.
pub struct DatabaseBuilder {
    schemas: Vec<TableSchema>,
    config: EngineConfig,
    observer: Option<Arc<dyn HistoryObserver>>,
}

impl DatabaseBuilder {
    /// Adds a table.
    pub fn table(mut self, schema: TableSchema) -> Result<Self, SchemaError> {
        if self.schemas.iter().any(|s| s.name == schema.name) {
            return Err(SchemaError::BadDeclaration(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.schemas.push(schema);
        Ok(self)
    }

    /// Sets the engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a history observer (receives every begin/read/commit/abort).
    pub fn observer(mut self, observer: Arc<dyn HistoryObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the database.
    pub fn build(self) -> Database {
        let catalog = self.make_catalog();
        self.build_at(Ts::ZERO, catalog)
    }

    /// Constructs the catalog on the configured storage backend, sharing
    /// the engine's fault injector with the paged heap so page writes obey
    /// the same crash latch and latency discipline as the WAL device.
    fn make_catalog(&self) -> Catalog {
        let mut catalog =
            Catalog::with_policy_and_faults(self.config.storage, self.config.faults.clone());
        for schema in &self.schemas {
            catalog
                .create_table(schema.clone())
                .expect("duplicate names rejected at declaration time");
        }
        catalog
    }

    /// Builds the database with catalog contents and the commit clock
    /// restored from a crashed instance's durable image — the restart
    /// path. Replays only the WAL suffix past the newest usable
    /// checkpoint; the bytes replayed are recorded in
    /// [`EngineMetrics::recovery_replay_bytes`]. Returns the recovery
    /// outcome alongside the database so callers can assert on what the
    /// recovery actually did.
    pub fn recover(
        self,
        image: &DurableImage,
    ) -> Result<(Database, RecoveryOutcome), RecoveryError> {
        let catalog = self.make_catalog();
        let outcome = sicost_wal::recover_image(image, &catalog)?;
        let db = self.build_at(outcome.end_ts, catalog);
        db.metrics.record_recovery(outcome.replayed_bytes);
        Ok((db, outcome))
    }

    fn build_at(self, clock: Ts, catalog: Catalog) -> Database {
        let wal = Wal::with_faults(self.config.wal, self.config.faults.clone());
        let classes = LockClasses::default();
        let shards = self.config.shards.max(1);
        let publish = Arc::new(PublishGate {
            lock: InstrumentedMutex::new(
                std::collections::BTreeSet::new(),
                Arc::clone(&classes.commit_publish),
            ),
            cv: Condvar::new(),
        });
        if let Some(faults) = &self.config.faults {
            // Wake every publisher (and a draining checkpointer) the
            // instant the crash latch fires: they re-check `crashed()`
            // under the gate lock, so locking it here before notifying
            // closes the check-then-wait race.
            let gate = Arc::clone(&publish);
            faults.on_crash(Box::new(move || {
                let _g = gate.lock.lock();
                gate.cv.notify_all();
            }));
        }
        Database {
            catalog: Arc::new(catalog),
            cpu: CpuStation::new(self.config.cost),
            wal,
            locks: LockManager::with_shards(shards, &classes),
            registry: ActiveRegistry::new(),
            ssi: SsiManager::with_shards(
                shards,
                Arc::clone(&classes.ssi_txns),
                Arc::clone(&classes.ssi_reads),
            ),
            clock: AtomicU64::new(clock.0),
            txn_seq: AtomicU64::new(0),
            commit_seq: InstrumentedMutex::new(clock.0, Arc::clone(&classes.commit_seq)),
            install_shards: (0..shards)
                .map(|_| InstrumentedMutex::new((), Arc::clone(&classes.commit_install)))
                .collect(),
            publish,
            inflight_wal: Mutex::new(HashSet::new()),
            ckpt_flight: InstrumentedMutex::new((), Arc::clone(&classes.checkpoint)),
            last_ckpt_offset: AtomicU64::new(0),
            commits_since_ckpt: AtomicU64::new(0),
            vac_flight: InstrumentedMutex::new((), Arc::clone(&classes.vacuum)),
            last_vacuum_offset: AtomicU64::new(0),
            lock_classes: classes,
            config: self.config,
            observer: self.observer,
            metrics: EngineMetricsInner::default(),
            commits_since_vacuum: AtomicU64::new(0),
        }
    }
}

/// A database instance: catalog + WAL + lock manager + concurrency control.
///
/// Cheap to share behind an `Arc`; [`Database::begin`] hands out
/// [`Transaction`] handles tied to its lifetime.
pub struct Database {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) config: EngineConfig,
    pub(crate) wal: Wal,
    pub(crate) locks: LockManager,
    pub(crate) cpu: CpuStation,
    pub(crate) registry: ActiveRegistry,
    pub(crate) ssi: SsiManager,
    /// Commit clock: the timestamp of the newest **published** commit.
    pub(crate) clock: AtomicU64,
    txn_seq: AtomicU64,
    /// Commit-timestamp sequence: the newest *reserved* timestamp. Held
    /// only long enough to increment — the tiny sequence lock of the
    /// striped commit pipeline.
    commit_seq: InstrumentedMutex<u64>,
    /// Per-shard install locks (shard = hash of `(TableId, pk)`): two
    /// committers touching disjoint shards install fully in parallel.
    install_shards: Vec<InstrumentedMutex<()>>,
    /// Publication gate: commit timestamps are published to [`Self::clock`]
    /// strictly in reservation order, so a snapshot at clock `c` always
    /// sees *every* commit `<= c` — transaction-consistency is preserved
    /// without a global install section. Shared with the fault injector's
    /// crash hook, which wakes all waiters when the latch fires.
    pub(crate) publish: Arc<PublishGate>,
    /// WAL-backed committers between their log append and their clock
    /// publication. The checkpointer snapshots this *after* reading the
    /// log-end offset `O` and drains it before choosing the checkpoint
    /// timestamp `C` — the barrier that makes every record below `O`
    /// carry a timestamp `≤ C` even though appends precede reservations.
    pub(crate) inflight_wal: Mutex<HashSet<TxnId>>,
    /// Single-flight checkpoint lock (instrumented as `checkpoint`).
    ckpt_flight: InstrumentedMutex<()>,
    /// Log-end offset `O` of the last completed checkpoint; drives the
    /// byte-accumulation auto-checkpoint threshold.
    pub(crate) last_ckpt_offset: AtomicU64,
    /// Writing commits since the last completed checkpoint.
    pub(crate) commits_since_ckpt: AtomicU64,
    /// Single-flight vacuum lock (instrumented as `vacuum`): explicit
    /// calls queue behind a running pass; auto-vacuums skip instead.
    vac_flight: InstrumentedMutex<()>,
    /// Log-end offset at the last completed vacuum; drives the
    /// byte-accumulation auto-vacuum threshold.
    last_vacuum_offset: AtomicU64,
    /// Shared contention counters behind every engine lock above.
    lock_classes: LockClasses,
    pub(crate) observer: Option<Arc<dyn HistoryObserver>>,
    pub(crate) metrics: EngineMetricsInner,
    commits_since_vacuum: AtomicU64,
}

impl Database {
    /// Starts building a database.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder {
            schemas: Vec::new(),
            config: EngineConfig::functional(),
            observer: None,
        }
    }

    /// Begins a transaction under the configured concurrency control.
    pub fn begin(&self) -> Transaction<'_> {
        let id = TxnId(self.txn_seq.fetch_add(1, Ordering::Relaxed));
        let snapshot = self.registry.register(id, &self.clock);
        if self.config.cc == crate::CcMode::Ssi {
            self.ssi.begin(id, snapshot);
        }
        self.emit(HistoryEvent::Begin { txn: id, snapshot });
        Transaction::new(self, id, snapshot)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Id of a named table.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.catalog.table_id(name)
    }

    /// Current commit clock.
    pub fn clock(&self) -> Ts {
        Ts(self.clock.load(Ordering::Acquire))
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Reserves the next commit timestamp. Every reserved timestamp MUST
    /// subsequently be handed to [`Self::publish_commit`] (even on an
    /// error path, unless the process has crashed) — an unpublished
    /// reservation freezes the clock for every later committer.
    pub(crate) fn reserve_commit_ts(&self) -> Ts {
        let mut seq = self.commit_seq.lock();
        *seq += 1;
        Ts(*seq)
    }

    /// The install lock guarding `(table, key)`'s shard. Committers hold
    /// it across each single-version install; writers of disjoint shards
    /// never serialise on each other.
    pub(crate) fn install_shard(&self, table: TableId, key: &Value) -> MutexGuard<'_, ()> {
        self.install_shards[stripe_of(&(table, key), self.install_shards.len())].lock()
    }

    /// Publishes `ts` to the commit clock, waiting until every earlier
    /// reservation has published first (in-order publication keeps
    /// snapshots transaction-consistent). The wait is untimed: a
    /// predecessor that crashes mid-install never notifies, but the crash
    /// hook registered at build time locks this gate and wakes every
    /// waiter, which then re-checks the latch and dies — the unpublished
    /// suffix stays invisible, exactly like the old global install
    /// section's torn-prefix behaviour.
    ///
    /// `wal_backed` carries the committer's id when its redo record is in
    /// the log; a committer removes it from the in-flight set in a
    /// gate-locked critical section only after observing its timestamp
    /// published, so a draining checkpointer observing the removal also
    /// observes the published timestamp.
    ///
    /// Publication is **batched**: each caller enqueues its timestamp in
    /// the gate's pending set, and whoever holds the gate drains the
    /// whole consecutive run starting at `clock + 1` with one clock
    /// store. Under a publication convoy the gate is taken once per
    /// batch, not once per commit ([`EngineMetrics::publish_batches`] /
    /// [`EngineMetrics::publish_batched_commits`] expose the ratio).
    pub(crate) fn publish_commit(
        &self,
        ts: Ts,
        wal_backed: Option<TxnId>,
    ) -> Result<(), crate::TxnError> {
        let mut gate = self.publish.lock.lock();
        gate.insert(ts.0);
        loop {
            // Drain the consecutive run starting at clock+1 — publishing
            // for every waiter whose turn has come, not just ourselves.
            let mut next = self.clock.load(Ordering::Acquire) + 1;
            let mut batched = 0u64;
            while gate.remove(&next) {
                batched += 1;
                next += 1;
            }
            if batched > 0 {
                self.clock.store(next - 1, Ordering::Release);
                self.metrics.record_publish_batch(batched);
            }
            if self.clock.load(Ordering::Acquire) >= ts.0 {
                // Published (by us or by a helper). In-flight removal
                // happens here, under the gate, strictly after the clock
                // covers our timestamp.
                if let Some(id) = wal_backed {
                    self.inflight_wal.lock().remove(&id);
                }
                drop(gate);
                self.publish.cv.notify_all();
                return Ok(());
            }
            if self.crashed() {
                gate.remove(&ts.0);
                if let Some(id) = wal_backed {
                    self.inflight_wal.lock().remove(&id);
                }
                drop(gate);
                self.publish.cv.notify_all();
                return Err(crate::TxnError::Transient(
                    "crashed while awaiting commit publication".into(),
                ));
            }
            self.publish.cv.wait(&mut gate);
        }
    }

    /// Registers a WAL-backed committer *before* its log append, so any
    /// checkpoint sampling the log-end offset afterwards knows the commit
    /// may still be unpublished.
    pub(crate) fn inflight_insert(&self, id: TxnId) {
        self.inflight_wal.lock().insert(id);
    }

    /// Removes a committer that will never publish (its WAL write failed
    /// or it died before reserving a timestamp), waking any draining
    /// checkpointer. Gate-locked so the wakeup cannot be missed.
    pub(crate) fn inflight_remove(&self, id: TxnId) {
        let gate = self.publish.lock.lock();
        self.inflight_wal.lock().remove(&id);
        drop(gate);
        self.publish.cv.notify_all();
    }

    /// Bulk-loads rows into a table, bypassing the WAL and concurrency
    /// control (the moral equivalent of `COPY` into an empty table before
    /// the benchmark starts). All rows become visible atomically at one
    /// fresh timestamp. The rows go in as one batch
    /// ([`sicost_storage::TableStore::install_batch`]), so the load is
    /// linear in the row count.
    ///
    /// # Errors
    /// `TxnError::Constraint` for a schema or unique violation, and for a
    /// primary key that appears twice in `rows` (or already has a version
    /// at or after the load's timestamp). On error, rows already installed
    /// in this call remain (bulk load is for setup, not for transactional
    /// use). Either way the load's timestamp is published, so later
    /// commits never wait on it.
    pub fn bulk_load(
        &self,
        table: TableId,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<Ts, crate::TxnError> {
        let ts = self.reserve_commit_ts();
        let t = self.catalog.table(table);
        let pk = t.schema().primary_key;
        let loader = TxnId(u64::MAX); // sentinel writer id for provenance
        let batch = rows
            .into_iter()
            .map(|row| (row.get(pk).clone(), Version::data(ts, loader, row)))
            .collect();
        let result = t
            .install_batch(batch)
            .map_err(|e| crate::TxnError::Constraint(e.to_string()));
        self.publish_commit(ts, None)?;
        result.map(|_| ts)
    }

    /// Takes a fuzzy checkpoint right now: snapshots every table at a
    /// drained, published commit timestamp, writes the frame into the
    /// inactive slot, swaps the manifest, and truncates the covered WAL
    /// prefix. Writers keep committing throughout — only the short
    /// in-flight drain synchronises with the commit pipeline. Blocks if
    /// another checkpoint is already running.
    pub fn checkpoint(&self) -> Result<crate::CheckpointOutcome, crate::TxnError> {
        let _flight = self.ckpt_flight.lock();
        crate::checkpoint::Checkpointer::new(self).run()
    }

    /// Drops every unpinned page from the buffer pool, writing dirty
    /// ones back first — the `drop_caches` analogue, so harnesses can
    /// measure cold-start behaviour on a live database. Returns the
    /// number of pages dropped; `None` on the in-memory backend.
    pub fn cool_pages(&self) -> Option<u64> {
        self.catalog
            .cool_pool()
            .map(|r| r.expect("cool-down page write-back failed"))
    }

    /// Called by writing transactions after publication to drive
    /// threshold-based auto-checkpoints. Runs inline on the committing
    /// thread (the transaction is already durable and published, so a
    /// checkpoint failure here is invisible to it); skips when another
    /// checkpoint is in flight.
    pub(crate) fn note_commit_for_checkpoint(&self) {
        let every_commits = self.config.checkpoints.every_commits;
        let every_bytes = self.config.checkpoints.every_wal_bytes;
        if every_commits.is_none() && every_bytes.is_none() {
            return;
        }
        let n = self.commits_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        let due = every_commits.is_some_and(|every| n >= every)
            || every_bytes.is_some_and(|every| {
                self.wal
                    .log_end_offset()
                    .saturating_sub(self.last_ckpt_offset.load(Ordering::Relaxed))
                    >= every
            });
        if !due {
            return;
        }
        if let Some(_flight) = self.ckpt_flight.try_lock() {
            // Failure (crash, transient sync error) is non-fatal: the
            // committed transaction is already safe, and the next
            // threshold crossing retries.
            let _ = crate::checkpoint::Checkpointer::new(self).run();
        }
    }

    /// The complete durable state — log window, checkpoint slots,
    /// manifests, and (on the paged backend) the table heap — as crash
    /// recovery would find it. Feed to [`DatabaseBuilder::recover`] to
    /// restart after a crash.
    pub fn durable_image(&self) -> DurableImage {
        let mut image = self.wal.durable_image();
        image.heap = self.catalog.heap_image();
        image
    }

    /// Garbage-collects versions no active snapshot can see (and SSI
    /// bookkeeping, in SSI mode). Returns the total reclaim count:
    /// pruned table versions plus, in SSI mode, retired SSI transaction
    /// records (each also reported separately in
    /// [`EngineMetrics::ssi_txns_reclaimed`]).
    ///
    /// The watermark is the oldest active snapshot timestamp from the
    /// active-transaction registry (falling back to the current clock
    /// when no transaction is active), so no version visible to any
    /// active snapshot is ever pruned. Single-flight: blocks if another vacuum
    /// is running. Each pass is timed into
    /// [`EngineMetrics::vacuum_pause`].
    pub fn vacuum(&self) -> u64 {
        let _flight = self.vac_flight.lock();
        self.run_vacuum()
    }

    /// The vacuum pass body; caller holds `vac_flight`.
    fn run_vacuum(&self) -> u64 {
        let t0 = std::time::Instant::now();
        let horizon = self.registry.min_active_snapshot(&self.clock);
        let mut reclaimed = 0u64;
        for t in self.catalog.tables() {
            reclaimed += t.prune(horizon) as u64;
        }
        self.metrics.record_pruned(reclaimed);
        if self.config.cc == crate::CcMode::Ssi {
            let ssi_reclaimed = self.ssi.gc(horizon) as u64;
            self.metrics.record_ssi_reclaimed(ssi_reclaimed);
            reclaimed += ssi_reclaimed;
        }
        // Each install already freed a bounded few reclaimable snapshots
        // through its own thread's epoch bag. This frees the rest of this
        // thread's bag and of the bags handed off by threads that exited
        // or overflowed, which installs drain only a few at a time.
        sicost_common::epoch::collect();
        self.last_vacuum_offset
            .store(self.wal.log_end_offset(), Ordering::Relaxed);
        self.commits_since_vacuum.store(0, Ordering::Relaxed);
        self.metrics.record_vacuum(t0.elapsed());
        reclaimed
    }

    /// Called by transactions after each commit (read-only included —
    /// they are what pins the horizon) to drive threshold-based
    /// auto-vacuum, mirroring [`Database::note_commit_for_checkpoint`]:
    /// runs inline on the committing thread and skips when another
    /// vacuum is in flight.
    pub(crate) fn note_commit_for_vacuum(&self) {
        let every_commits = self.config.vacuum.every_commits;
        let every_bytes = self.config.vacuum.every_wal_bytes;
        if every_commits.is_none() && every_bytes.is_none() {
            return;
        }
        let n = self.commits_since_vacuum.fetch_add(1, Ordering::Relaxed) + 1;
        let due = every_commits.is_some_and(|every| n >= every)
            || every_bytes.is_some_and(|every| {
                self.wal
                    .log_end_offset()
                    .saturating_sub(self.last_vacuum_offset.load(Ordering::Relaxed))
                    >= every
            });
        if !due {
            return;
        }
        if let Some(_flight) = self.vac_flight.try_lock() {
            self.run_vacuum();
        }
    }

    /// Engine counters, including the per-lock-class contention breakdown
    /// and the live storage gauges ([`EngineMetrics::max_chain_len`],
    /// [`EngineMetrics::siread_entries`]).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.metrics.snapshot();
        m.lock_waits = self.lock_classes.snapshot();
        m.max_chain_len = self
            .catalog
            .tables()
            .map(|t| t.max_chain_len())
            .max()
            .unwrap_or(0) as u64;
        m.siread_entries = self.ssi.siread_entries() as u64;
        m.pool = self.catalog.pool_stats();
        m
    }

    /// WAL statistics.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Log-device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.wal.device_stats()
    }

    /// Snapshot of the durable log (recovery / tests).
    pub fn log_snapshot(&self) -> Vec<sicost_wal::LogRecord> {
        self.wal.log_snapshot()
    }

    /// Snapshot of the durable WAL byte image — what crash recovery scans.
    pub fn disk_snapshot(&self) -> Vec<u8> {
        self.wal.disk_snapshot()
    }

    /// The configured fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.config.faults.as_ref()
    }

    /// True once an armed crash point has fired: the simulated process is
    /// dead and every subsequent commit fails with a transient error.
    pub fn crashed(&self) -> bool {
        self.config.faults.as_ref().is_some_and(|f| f.crashed())
    }

    /// Number of currently active transactions.
    pub fn active_transactions(&self) -> usize {
        self.registry.active_count()
    }

    pub(crate) fn emit(&self, event: HistoryEvent) {
        if let Some(obs) = &self.observer {
            obs.on_event(event);
        }
    }

    /// True when the timed tracing hooks should fire: requires both the
    /// config flag and someone listening.
    pub(crate) fn trace_timings(&self) -> bool {
        self.config.trace_timings && self.observer.is_some()
    }

    pub(crate) fn emit_wal_sync(&self, txn: TxnId, wait: Duration) {
        if let Some(obs) = &self.observer {
            obs.on_wal_sync(txn, wait);
        }
    }

    pub(crate) fn emit_lock_wait(&self, txn: TxnId, wait: Duration) {
        if let Some(obs) = &self.observer {
            obs.on_lock_wait(txn, wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointPolicy;
    use sicost_storage::{ColumnDef, ColumnType, Value};
    use std::time::Instant;

    fn simple_db() -> Database {
        Database::builder()
            .table(
                TableSchema::new(
                    "T",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("v", ColumnType::Int),
                    ],
                    0,
                    vec![],
                )
                .unwrap(),
            )
            .unwrap()
            .build()
    }

    #[test]
    fn bulk_load_is_atomic_and_visible() {
        let db = simple_db();
        let tid = db.table_id("T").unwrap();
        let ts = db
            .bulk_load(
                tid,
                (0..100).map(|i| Row::new(vec![Value::int(i), Value::int(i * 10)])),
            )
            .unwrap();
        assert_eq!(ts, Ts(1));
        assert_eq!(db.clock(), Ts(1));
        let t = db.catalog().table(tid);
        assert_eq!(t.count_at(Ts(1)), 100);
        assert_eq!(t.count_at(Ts(0)), 0, "nothing visible before the load");
    }

    #[test]
    fn begin_assigns_snapshot_at_clock() {
        let db = simple_db();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(1), Value::int(1)])])
            .unwrap();
        let tx = db.begin();
        assert_eq!(tx.snapshot(), Ts(1));
        assert_eq!(db.active_transactions(), 1);
        tx.rollback();
        assert_eq!(db.active_transactions(), 0);
    }

    /// The striped pipeline must publish timestamps densely and in order:
    /// after N concurrent single-row commits on disjoint keys the clock is
    /// exactly N past the load, every commit succeeded, and every write is
    /// visible at the final clock.
    #[test]
    fn concurrent_commits_publish_densely_and_in_order() {
        let db = simple_db();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(
            tid,
            (0..64).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
        )
        .unwrap();
        let threads = 8;
        let per_thread = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = &db;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let key = t * per_thread + i;
                        let mut tx = db.begin();
                        tx.update(
                            tid,
                            &Value::int(key),
                            Row::new(vec![Value::int(key), Value::int(1)]),
                        )
                        .unwrap();
                        tx.commit().unwrap();
                    }
                });
            }
        });
        assert_eq!(db.clock(), Ts(1 + (threads * per_thread) as u64));
        let table = db.catalog().table(tid);
        for key in 0..(threads * per_thread) {
            let v = table.read_at(&Value::int(key), db.clock()).unwrap();
            assert_eq!(v.row.as_ref().unwrap().get(1), &Value::int(1));
        }
        let m = db.metrics();
        assert!(
            m.lock_wait("commit.seq").unwrap().acquisitions >= (threads * per_thread) as u64,
            "every commit reserves under the sequence lock"
        );
        assert!(m.lock_wait("commit.publish").unwrap().acquisitions > 0);
        // Batched publication: every published timestamp (bulk load + 64
        // commits) is covered by exactly one batch.
        assert_eq!(m.publish_batched_commits, 1 + (threads * per_thread) as u64);
        assert!(m.publish_batches >= 1 && m.publish_batches <= m.publish_batched_commits);
        assert!(m.mean_publish_batch() >= 1.0);
    }

    #[test]
    fn vacuum_prunes_using_active_horizon() {
        let db = simple_db();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(1), Value::int(0)])])
            .unwrap();
        // An old reader (snapshot = the bulk-load state) pins the horizon.
        let old_reader = db.begin();
        // Five committed updates of the same row.
        for i in 1..=5 {
            let mut tx = db.begin();
            tx.update(
                tid,
                &Value::int(1),
                Row::new(vec![Value::int(1), Value::int(i)]),
            )
            .unwrap();
            tx.commit().unwrap();
        }
        let t = db.catalog().table(tid);
        assert_eq!(t.version_count(), 6);
        assert_eq!(db.vacuum(), 0, "old reader pins every version");
        old_reader.rollback();
        db.vacuum();
        assert_eq!(t.version_count(), 1);
        assert!(db.metrics().versions_pruned >= 5);
    }

    /// Vacuum in SSI mode must count the SSI transaction records it
    /// retires — in the return value and in `ssi_txns_reclaimed` — not
    /// just pruned table versions. (Regression: the `ssi.gc` return used
    /// to be dropped on the floor.)
    #[test]
    fn vacuum_accounts_for_ssi_reclaimed_records() {
        let db = Database::builder()
            .table(schema_t())
            .unwrap()
            .config(EngineConfig::functional().with_cc(crate::CcMode::Ssi))
            .build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(1), Value::int(0)])])
            .unwrap();
        // Five committed updates: five SSI commit records and five
        // superseded versions. Each install from the second on drops the
        // version below its anchor, so one superseded version is left.
        for i in 1..=5 {
            let mut tx = db.begin();
            tx.update(
                tid,
                &Value::int(1),
                Row::new(vec![Value::int(1), Value::int(i)]),
            )
            .unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(db.ssi.tracked(), 5, "all five commit records retained");
        let installs = db.metrics().versions_pruned;
        assert_eq!(installs, 4, "installs 2-5 each pruned one version");
        let reclaimed = db.vacuum();
        let m = db.metrics();
        assert_eq!(m.ssi_txns_reclaimed, 5, "SSI records counted in metrics");
        assert_eq!(
            m.versions_pruned - installs,
            1,
            "the pass prunes the one superseded version left"
        );
        assert_eq!(
            reclaimed,
            m.versions_pruned - installs + m.ssi_txns_reclaimed,
            "vacuum's return covers both version and SSI reclaim"
        );
        assert_eq!(db.ssi.tracked(), 0);
    }

    /// Threshold-driven auto-vacuum mirrors the checkpoint trigger: every
    /// Nth commit runs a pass inline, pruning dead versions and stamping
    /// the run/pause metrics. `versions_pruned` counts install-time and
    /// vacuum prunes alike.
    #[test]
    fn auto_vacuum_fires_on_commit_threshold() {
        let db = Database::builder()
            .table(schema_t())
            .unwrap()
            .config(
                EngineConfig::functional()
                    .with_vacuum(crate::config::VacuumPolicy::every_commits(3)),
            )
            .build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(0), Value::int(0)])])
            .unwrap();
        for i in 0..7 {
            update_row(&db, tid, 0, i);
        }
        let m = db.metrics();
        assert_eq!(m.vacuum_runs, 2, "commits 3 and 6 trigger passes");
        // Seven updates supersede seven versions. The passes after
        // commits 3 and 6 prune one each, and so does every install
        // except the first and the two right after a pass (their anchor
        // is the chain's only version). One superseded version is left.
        assert_eq!(m.versions_pruned, 6, "dead versions reclaimed: {m:?}");
        assert!(
            m.max_chain_len <= 2,
            "chain stays bounded under auto-vacuum: {}",
            m.max_chain_len
        );
    }

    fn schema_t() -> TableSchema {
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Int),
            ],
            0,
            vec![],
        )
        .unwrap()
    }

    fn update_row(db: &Database, tid: TableId, key: i64, v: i64) -> Ts {
        let mut tx = db.begin();
        tx.update(
            tid,
            &Value::int(key),
            Row::new(vec![Value::int(key), Value::int(v)]),
        )
        .unwrap();
        tx.commit().unwrap()
    }

    /// Full round trip of the fuzzy-checkpoint protocol: the checkpoint
    /// covers the bulk-loaded population (which bypasses the WAL) plus the
    /// pre-checkpoint commits, truncation drops the covered prefix, and
    /// recovery installs the snapshot then replays only the post-checkpoint
    /// suffix.
    #[test]
    fn checkpoint_then_recovery_replays_only_the_suffix() {
        let db = Database::builder().table(schema_t()).unwrap().build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(
            tid,
            (0..4).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
        )
        .unwrap();
        for i in 0..3 {
            update_row(&db, tid, i, 100 + i);
        }
        let pre_ckpt_bytes = db.wal.log_end_offset();
        assert!(pre_ckpt_bytes > 0);

        let out = db.checkpoint().unwrap();
        assert_eq!(out.checkpoint_ts, Ts(4), "bulk load + 3 commits");
        assert_eq!(out.wal_offset, pre_ckpt_bytes);
        assert_eq!(out.truncated_bytes, pre_ckpt_bytes);
        assert_eq!(out.rows, 4);
        let m = db.metrics();
        assert_eq!(m.checkpoints_taken, 1);
        assert_eq!(m.checkpoint_bytes_truncated, pre_ckpt_bytes);

        // Two post-checkpoint commits form the replay suffix.
        update_row(&db, tid, 3, 333);
        update_row(&db, tid, 0, 111);

        let image = db.durable_image();
        let (db2, rec) = Database::builder()
            .table(schema_t())
            .unwrap()
            .recover(&image)
            .unwrap();
        let ckpt = rec.checkpoint.expect("manifest must be usable");
        assert_eq!(ckpt.checkpoint_ts, Ts(4));
        assert_eq!(rec.checkpoint_rows, 4);
        assert_eq!(rec.replayed_records, 2, "only the suffix replays");
        assert!(rec.replayed_bytes > 0 && rec.replayed_bytes < pre_ckpt_bytes);
        assert_eq!(db2.metrics().recovery_replay_bytes, rec.replayed_bytes);
        assert_eq!(db2.clock(), rec.end_ts);

        let t2 = db2.catalog().table(tid);
        let expect = [(0, 111), (1, 101), (2, 102), (3, 333)];
        for (key, v) in expect {
            let got = t2.read_at(&Value::int(key), db2.clock()).unwrap();
            assert_eq!(got.row.as_ref().unwrap().get(1), &Value::int(v));
        }
        // The recovered database keeps working.
        update_row(&db2, tid, 1, 7);
    }

    /// End-to-end paged backend: commits land in pooled pages, a
    /// checkpoint flushes dirty pages and writes only a tiny v2 frame,
    /// and recovery rebuilds the state from heap-at-C plus the WAL
    /// suffix.
    #[test]
    fn paged_backend_checkpoint_and_recovery_round_trip() {
        use sicost_storage::{PagedConfig, StoragePolicy};
        let paged = || {
            Database::builder().table(schema_t()).unwrap().config(
                EngineConfig::functional().with_storage(StoragePolicy::Paged(
                    PagedConfig::default()
                        .with_pages_per_table(4)
                        .with_pool_pages(4),
                )),
            )
        };
        let db = paged().build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(
            tid,
            (0..16).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
        )
        .unwrap();
        for i in 0..3 {
            update_row(&db, tid, i, 100 + i);
        }
        let out = db.checkpoint().unwrap();
        assert_eq!(out.checkpoint_ts, Ts(4), "bulk load + 3 commits");
        assert!(out.pages_flushed > 0, "dirty pages written back");
        assert_eq!(out.rows, 0, "paged frames carry no rows");
        assert!(
            out.image_bytes < 100,
            "v2 frame stays tiny regardless of table size: {}",
            out.image_bytes
        );
        assert!(out.truncated_bytes > 0);
        assert_eq!(db.metrics().checkpoint_pages_flushed, out.pages_flushed);

        // One post-checkpoint commit forms the replay suffix.
        update_row(&db, tid, 5, 555);

        let image = db.durable_image();
        assert!(!image.heap.is_empty(), "heap bytes ride in the image");
        let (db2, rec) = paged().recover(&image).unwrap();
        assert_eq!(
            rec.checkpoint.expect("paged manifest usable").checkpoint_ts,
            Ts(4)
        );
        assert_eq!(rec.replayed_records, 1, "only the suffix replays");
        let t2 = db2.catalog().table(tid);
        for (key, v) in [(0, 100), (1, 101), (2, 102), (5, 555), (7, 0)] {
            let got = t2.read_at(&Value::int(key), db2.clock()).unwrap();
            assert_eq!(got.row.as_ref().unwrap().get(1), &Value::int(v));
        }
        let m = db2.metrics();
        let pool = m.pool.expect("paged backend exposes pool gauges");
        assert!(pool.capacity == 4 && pool.resident <= 4);
        // The recovered database keeps working.
        update_row(&db2, tid, 1, 7);
    }

    /// Threshold-driven auto-checkpointing: every Nth writing commit takes
    /// a checkpoint inline, and the byte threshold works independently.
    #[test]
    fn auto_checkpoint_fires_on_thresholds() {
        let db = Database::builder()
            .table(schema_t())
            .unwrap()
            .config(EngineConfig::functional().with_checkpoints(CheckpointPolicy::every_commits(2)))
            .build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(0), Value::int(0)])])
            .unwrap();
        for i in 0..5 {
            update_row(&db, tid, 0, i);
        }
        assert_eq!(db.metrics().checkpoints_taken, 2, "commits 2 and 4");

        let db = Database::builder()
            .table(schema_t())
            .unwrap()
            .config(
                EngineConfig::functional().with_checkpoints(CheckpointPolicy::every_wal_bytes(1)),
            )
            .build();
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [Row::new(vec![Value::int(0), Value::int(0)])])
            .unwrap();
        for i in 0..3 {
            update_row(&db, tid, 0, i);
        }
        assert_eq!(
            db.metrics().checkpoints_taken,
            3,
            "every commit leaves ≥1 byte since the last checkpoint"
        );
        assert_eq!(
            db.wal.log_end_offset(),
            db.wal.wal_base(),
            "fully truncated"
        );
    }

    /// Satellite 1 regression: a publisher blocked behind a never-arriving
    /// predecessor must be woken by the crash latch via the publish gate's
    /// condvar — promptly, without the old 1 ms polling loop.
    #[test]
    fn crash_latch_wakes_blocked_publisher() {
        use sicost_common::{CrashPoint, FaultConfig, FaultInjector};
        let faults = Arc::new(FaultInjector::new(FaultConfig::crash(
            CrashPoint::AfterInstall,
            1,
        )));
        let db = Database::builder()
            .table(schema_t())
            .unwrap()
            .config(EngineConfig::functional().with_faults(Arc::clone(&faults)))
            .build();
        std::thread::scope(|s| {
            let db = &db;
            let waiter = s.spawn(move || {
                // Clock is 0; Ts(2) can never publish because Ts(1) does
                // not exist. Only the crash latch can release this wait.
                let t0 = Instant::now();
                let res = db.publish_commit(Ts(2), None);
                (res, t0.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(!waiter.is_finished(), "waiter must block until the crash");
            // Latch the crash; the registered hook notifies the gate.
            assert!(faults.at_crash_point(CrashPoint::AfterInstall));
            let (res, waited) = waiter.join().unwrap();
            assert!(matches!(res, Err(crate::TxnError::Transient(_))));
            assert!(db.crashed());
            assert!(
                waited < Duration::from_secs(5),
                "crash latch must wake the waiter, not time out: {waited:?}"
            );
        });
    }
}
