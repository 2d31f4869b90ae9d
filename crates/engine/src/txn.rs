//! Transaction handles and the commit pipeline.

use crate::config::{CcMode, SfuSemantics};
use crate::error::{AbortReason, SerializationKind, TxnError};
use crate::history::HistoryEvent;
use crate::locks::{LockMode, LockTarget};
use crate::Database;
use sicost_common::{CrashPoint, TableId, Ts, TxnId};
use sicost_storage::{Predicate, Row, TableStore, Value, Version};
use sicost_wal::LogEntry;
use std::collections::HashMap;
use std::time::Instant;

/// Snapshot used by S2PL reads: always the latest committed version (the
/// lock, not the snapshot, provides isolation).
const LATEST: Ts = Ts(u64::MAX);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    table: TableId,
    key: Value,
    /// New image, or `None` for a delete.
    image: Option<Row>,
}

/// A transaction. Obtain via [`Database::begin`]; finish with
/// [`Transaction::commit`] or [`Transaction::rollback`] (dropping an active
/// transaction rolls it back).
///
/// Any serialization-failure or deadlock error **poisons** the handle: its
/// locks are released and its buffered writes discarded on the spot, and
/// all later operations return [`TxnError::Inactive`].
pub struct Transaction<'db> {
    db: &'db Database,
    id: TxnId,
    snapshot: Ts,
    state: TxnState,
    /// Set once any data has been read or buffered; freezes the snapshot.
    touched: bool,
    writes: Vec<PendingWrite>,
    write_index: HashMap<(TableId, Value), usize>,
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(db: &'db Database, id: TxnId, snapshot: Ts) -> Self {
        Self {
            db,
            id,
            snapshot,
            state: TxnState::Active,
            touched: false,
            writes: Vec::new(),
            write_index: HashMap::new(),
        }
    }

    /// Re-takes the snapshot at the current commit clock. Only legal
    /// before the transaction has read or written anything — the intended
    /// use is PostgreSQL's pattern of issuing `LOCK TABLE` as the first
    /// statement, whose snapshot is established only once the lock is
    /// granted (see [`Transaction::lock_table`]).
    pub fn refresh_snapshot(&mut self) -> Result<(), TxnError> {
        self.ensure_active()?;
        if self.touched {
            return Err(TxnError::Constraint(
                "snapshot already in use: refresh must precede all reads and writes".into(),
            ));
        }
        self.db.registry.unregister(self.id, self.snapshot);
        let new = self.db.registry.register(self.id, &self.db.clock);
        if new != self.snapshot {
            if self.cc() == CcMode::Ssi {
                self.db.ssi.begin(self.id, new);
            }
            self.snapshot = new;
            self.db.emit(HistoryEvent::Begin {
                txn: self.id,
                snapshot: new,
            });
        }
        Ok(())
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp the transaction reads at.
    pub fn snapshot(&self) -> Ts {
        self.snapshot
    }

    /// True until commit/rollback/poisoning.
    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    fn ensure_active(&self) -> Result<(), TxnError> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(TxnError::Inactive)
        }
    }

    fn cc(&self) -> CcMode {
        self.db.config.cc
    }

    fn read_ts(&self) -> Ts {
        if self.cc() == CcMode::S2pl {
            LATEST
        } else {
            self.snapshot
        }
    }

    fn charge_op(&self) {
        self.db.cpu.charge_op(self.db.registry.active_count());
    }

    /// Abort immediately and surface `err` (poisoning path).
    fn fail(&mut self, err: TxnError) -> TxnError {
        if let Some(reason) = err.abort_reason() {
            self.abort_internal(reason);
        }
        err
    }

    fn abort_internal(&mut self, reason: AbortReason) {
        debug_assert_eq!(self.state, TxnState::Active);
        self.state = TxnState::Aborted;
        self.writes.clear();
        self.write_index.clear();
        self.db.locks.release_all(self.id);
        self.db.registry.unregister(self.id, self.snapshot);
        if self.cc() == CcMode::Ssi {
            self.db.ssi.on_abort(self.id);
        }
        self.db.metrics.record_abort(reason);
        self.db.emit(HistoryEvent::Abort {
            txn: self.id,
            reason,
        });
    }

    fn lock(&mut self, target: LockTarget, mode: LockMode) -> Result<(), TxnError> {
        // Timed variant only when tracing is on: the hot path pays no
        // clock reads otherwise.
        let started = self.db.trace_timings().then(Instant::now);
        let result = self.db.locks.acquire(self.id, &target, mode);
        if let Some(t0) = started {
            self.db.emit_lock_wait(self.id, t0.elapsed());
        }
        result.map_err(|e| self.fail(e))
    }

    /// First-Updater-Wins validation: the newest committed version of the
    /// key must be within our snapshot.
    fn fuw_check(&mut self, table: &dyn TableStore, key: &Value) -> Result<(), TxnError> {
        match table.latest_ts(key) {
            Some(ts) if ts > self.snapshot => {
                Err(self.fail(TxnError::Serialization(SerializationKind::FirstUpdaterWins)))
            }
            _ => Ok(()),
        }
    }

    /// Writers of committed versions newer than our snapshot (SSI edges),
    /// oldest first. The walk starts at the tail and stops at the
    /// snapshot, so it never visits the versions we can see.
    fn newer_writers(&self, table: &dyn TableStore, key: &Value) -> Vec<TxnId> {
        let mut writers: Vec<TxnId> = table
            .with_chain(key, |chain| {
                chain.newer_than(self.snapshot).map(|v| v.writer).collect()
            })
            .unwrap_or_default();
        writers.reverse();
        writers
    }

    /// Reads `key`'s visible version at the transaction's read timestamp
    /// and emits the `Read` event. Under SSI the SIREAD mark goes up
    /// *before* the chain read (see [`crate::ssi::SsiManager::mark_read`])
    /// and the rw edges — to the announced writers and to the writers of
    /// versions newer than our snapshot — are marked after it.
    fn read_visible(
        &mut self,
        t: &dyn TableStore,
        table: TableId,
        key: &Value,
    ) -> Result<Option<Row>, TxnError> {
        let announced = (self.cc() == CcMode::Ssi)
            .then(|| self.db.ssi.mark_read(self.id, &(table, key.clone())));
        let vis = t.read_at(key, self.read_ts());
        self.db.emit(HistoryEvent::Read {
            txn: self.id,
            table,
            key: key.clone(),
            observed: vis.as_ref().map(|v| v.ts),
        });
        if let Some(announced) = announced {
            let mut writers = self.newer_writers(t, key);
            writers.extend(announced);
            if let Err(e) = self
                .db
                .ssi
                .read_edges(self.id, (table, key.clone()), &writers)
            {
                return Err(self.fail(e));
            }
        }
        Ok(vis.and_then(|v| v.row))
    }

    fn own_write(&self, table: TableId, key: &Value) -> Option<&PendingWrite> {
        self.write_index
            .get(&(table, key.clone()))
            .map(|&i| &self.writes[i])
    }

    /// Reads one record by primary key at the transaction's snapshot
    /// (S2PL: at latest, under a shared row lock). Returns `None` for
    /// absent records.
    pub fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        self.ensure_active()?;
        self.touched = true;
        self.charge_op();
        if let Some(w) = self.own_write(table, key) {
            return Ok(w.image.clone());
        }
        if self.cc() == CcMode::S2pl {
            self.lock(LockTarget::row(table, key.clone()), LockMode::S)?;
        }
        let t = self.db.catalog.table(table);
        self.read_visible(t.as_ref(), table, key)
    }

    /// `SELECT … FOR UPDATE`: reads the record holding its exclusive row
    /// lock. Semantics beyond the lock follow the configured
    /// [`SfuSemantics`]: `IdentityWrite` additionally installs an identity
    /// version at commit (the commercial platform's behaviour), `LockOnly`
    /// does not (PostgreSQL).
    pub fn read_for_update(
        &mut self,
        table: TableId,
        key: &Value,
    ) -> Result<Option<Row>, TxnError> {
        self.ensure_active()?;
        self.touched = true;
        self.charge_op();
        if self.cc() == CcMode::S2pl {
            self.lock(LockTarget::table(table), LockMode::Ix)?;
            self.lock(LockTarget::row(table, key.clone()), LockMode::X)?;
        } else {
            self.lock(LockTarget::row(table, key.clone()), LockMode::X)?;
            let t = self.db.catalog.table(table);
            if self.cc().eager_write_validation() {
                self.fuw_check(t.as_ref(), key)?;
            }
        }
        let t = self.db.catalog.table(table);
        let row = match self.own_write(table, key) {
            Some(w) => w.image.clone(),
            None => self.read_visible(t.as_ref(), table, key)?,
        };
        if self.db.config.sfu == SfuSemantics::IdentityWrite && self.cc() != CcMode::S2pl {
            if let Some(img) = &row {
                // Identity write: version stamp without data change. Do not
                // clobber a real buffered write.
                if self.own_write(table, key).is_none() {
                    self.buffer_write(table, key.clone(), Some(img.clone()));
                    if self.cc() == CcMode::Ssi {
                        if let Err(e) = self.db.ssi.on_write(self.id, &(table, key.clone())) {
                            return Err(self.fail(e));
                        }
                    }
                }
            }
        }
        Ok(row)
    }

    /// Snapshot scan with a predicate (S2PL: scans latest state under a
    /// table shared lock, which is what makes it phantom-safe). The
    /// transaction's own buffered writes are merged into the result.
    pub fn scan(
        &mut self,
        table: TableId,
        pred: &Predicate,
    ) -> Result<Vec<(Value, Row)>, TxnError> {
        self.ensure_active()?;
        self.touched = true;
        self.charge_op();
        if self.cc() == CcMode::S2pl {
            self.lock(LockTarget::table(table), LockMode::S)?;
        }
        let t = self.db.catalog.table(table);
        let mut hits: HashMap<Value, (Row, Option<Ts>)> = HashMap::new();
        t.scan_at(self.read_ts(), pred, |pk, row, ts| {
            hits.insert(pk.clone(), (row.clone(), Some(ts)));
        });
        // Merge own writes: replacements, deletions, and new matches.
        for w in &self.writes {
            if w.table != table {
                continue;
            }
            match &w.image {
                Some(row) if pred.matches(row) => {
                    hits.insert(w.key.clone(), (row.clone(), None));
                }
                _ => {
                    hits.remove(&w.key);
                }
            }
        }
        // Deterministic emission order: HashMap iteration order depends on
        // the per-instance hash seed, which would make history capture (and
        // deterministic simulation) diverge between identical runs.
        let mut hits: Vec<(Value, (Row, Option<Ts>))> = hits.into_iter().collect();
        hits.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let mut out = Vec::with_capacity(hits.len());
        for (pk, (row, observed)) in hits {
            if let Some(ts) = observed {
                self.charge_op();
                self.db.emit(HistoryEvent::Read {
                    txn: self.id,
                    table,
                    key: pk.clone(),
                    observed: Some(ts),
                });
                if self.cc() == CcMode::Ssi {
                    if let Err(e) = self.db.ssi.on_read(self.id, (table, pk.clone()), &[]) {
                        return Err(self.fail(e));
                    }
                }
            }
            out.push((pk, row));
        }
        // Phantom protection under SSI: a predicate read marks the whole
        // relation (Cahill's relation-granularity SIREAD), so any later
        // insert/update/delete in this table by a concurrent transaction
        // raises the antidependency even if it touches rows the scan did
        // not return.
        if self.cc() == CcMode::Ssi {
            if let Err(e) = self
                .db
                .ssi
                .on_read(self.id, crate::ssi::table_read_key(table), &[])
            {
                return Err(self.fail(e));
            }
        }
        Ok(out)
    }

    fn buffer_write(&mut self, table: TableId, key: Value, image: Option<Row>) {
        match self.write_index.get(&(table, key.clone())) {
            Some(&i) => self.writes[i].image = image,
            None => {
                self.write_index
                    .insert((table, key.clone()), self.writes.len());
                self.writes.push(PendingWrite { table, key, image });
            }
        }
    }

    /// Common write path: locking, validation, uniqueness, buffering.
    fn write_internal(
        &mut self,
        table: TableId,
        key: Value,
        image: Option<Row>,
    ) -> Result<(), TxnError> {
        self.ensure_active()?;
        self.touched = true;
        self.charge_op();
        let t = self.db.catalog.table(table);
        // Early schema / PK validation for data images (fail fast, and the
        // installer must never fail after the WAL write).
        if let Some(row) = &image {
            t.schema()
                .validate(row.cells())
                .map_err(|e| TxnError::Constraint(e.to_string()))?;
            if row.get(t.schema().primary_key) != &key {
                return Err(TxnError::Constraint(format!(
                    "primary-key cell {} does not match target key {}",
                    row.get(t.schema().primary_key),
                    key
                )));
            }
        }
        let already_locked = self.own_write(table, &key).is_some();
        if !already_locked {
            if self.cc() == CcMode::S2pl {
                self.lock(LockTarget::table(table), LockMode::Ix)?;
                self.lock(LockTarget::row(table, key.clone()), LockMode::X)?;
            } else {
                if self.db.config.table_intent_locks {
                    // Emulates DML taking ROW EXCLUSIVE on the table so
                    // that explicit LOCK TABLE statements conflict with
                    // concurrent writers (§II-D).
                    self.lock(LockTarget::table(table), LockMode::Ix)?;
                }
                self.lock(LockTarget::row(table, key.clone()), LockMode::X)?;
                if self.cc().eager_write_validation() {
                    self.fuw_check(t.as_ref(), &key)?;
                }
            }
        }
        // Unique-constraint enforcement: lock an index-value sentinel so no
        // concurrent transaction can commit the same value, then check the
        // committed state (mirrors B-tree key locking).
        if let Some(row) = &image {
            let unique_slots = t.schema().unique.clone();
            for (slot, col) in unique_slots.into_iter().enumerate() {
                let val = row.get(col).clone();
                if val.is_null() {
                    continue;
                }
                let sentinel = Value::str(format!("\u{0}uniq:{col}:{val}"));
                self.lock(LockTarget::row(table, sentinel), LockMode::X)?;
                if let Some(owner) = t.lookup_unique(slot, &val, LATEST) {
                    if owner != key {
                        return Err(self.fail(TxnError::Constraint(format!(
                            "unique value {val} for {}.{} already owned by {owner}",
                            t.schema().name,
                            t.schema().columns[col].name
                        ))));
                    }
                }
                // Also guard against duplicates within our own write set.
                let dup_in_writes = self.writes.iter().any(|w| {
                    w.table == table
                        && w.key != key
                        && w.image.as_ref().is_some_and(|r| r.get(col) == &val)
                });
                if dup_in_writes {
                    return Err(self.fail(TxnError::Constraint(format!(
                        "duplicate unique value {val} within one transaction"
                    ))));
                }
            }
        }
        if self.cc() == CcMode::Ssi {
            if let Err(e) = self.db.ssi.on_write(self.id, &(table, key.clone())) {
                return Err(self.fail(e));
            }
            // Relation-level check against concurrent predicate readers.
            if let Err(e) = self
                .db
                .ssi
                .on_write(self.id, &crate::ssi::table_read_key(table))
            {
                return Err(self.fail(e));
            }
        }
        self.buffer_write(table, key, image);
        Ok(())
    }

    /// Explicitly locks a whole table (PostgreSQL's `LOCK TABLE … IN
    /// SHARE/EXCLUSIVE MODE`), held to transaction end. Under SI this
    /// only has teeth when the engine runs with
    /// [`crate::EngineConfig::table_intent_locks`], which makes row
    /// writers take table-IX locks — the §II-D recipe for simulating 2PL
    /// on platforms without declarative 2PL (at table granularity, hence
    /// the poor performance the paper predicts).
    pub fn lock_table(&mut self, table: TableId, exclusive: bool) -> Result<(), TxnError> {
        self.ensure_active()?;
        self.charge_op();
        let mode = if exclusive { LockMode::X } else { LockMode::S };
        self.lock(LockTarget::table(table), mode)
    }

    /// Inserts a new row (keyed by its primary-key cell). Fails with a
    /// constraint error if the key is already visible.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<(), TxnError> {
        self.ensure_active()?;
        let t = self.db.catalog.table(table);
        let key = row.get(t.schema().primary_key).clone();
        let exists = match self.own_write(table, &key) {
            Some(w) => w.image.is_some(),
            None => t
                .read_at(&key, self.read_ts())
                .map(|v| v.row.is_some())
                .unwrap_or(false),
        };
        if exists {
            return Err(TxnError::Constraint(format!(
                "duplicate primary key {key} in {}",
                t.schema().name
            )));
        }
        self.write_internal(table, key, Some(row))
    }

    /// Replaces the row stored under `key` with `row` (an *identity
    /// update* — same image — is a legitimate use: that is what promotion
    /// does).
    pub fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
        self.write_internal(table, key.clone(), Some(row))
    }

    /// Deletes the row under `key`. Returns `false` (without writing) when
    /// no visible row exists.
    pub fn delete(&mut self, table: TableId, key: &Value) -> Result<bool, TxnError> {
        self.ensure_active()?;
        let visible = match self.own_write(table, key) {
            Some(w) => w.image.is_some(),
            None => {
                let t = self.db.catalog.table(table);
                t.read_at(key, self.read_ts())
                    .map(|v| v.row.is_some())
                    .unwrap_or(false)
            }
        };
        if !visible {
            return Ok(false);
        }
        self.write_internal(table, key.clone(), None)?;
        Ok(true)
    }

    /// Commits. For updaters this validates (First-Committer-Wins / SSI),
    /// forces the redo log (group commit), installs the versions at a
    /// reserved timestamp through the striped install pipeline (publishing
    /// the commit clock in reservation order), and releases locks.
    /// Read-only transactions skip the WAL and install entirely.
    pub fn commit(mut self) -> Result<Ts, TxnError> {
        self.ensure_active()?;
        if self.db.crashed() {
            return Err(self.fail(TxnError::Transient("database crashed".into())));
        }
        if let Some(f) = &self.db.config.faults {
            if f.forced_abort() {
                return Err(self.fail(TxnError::Transient("forced abort".into())));
            }
        }
        self.db.cpu.charge_commit(self.db.registry.active_count());

        // Deferred validation (First-Committer-Wins). Stable because we
        // hold exclusive locks on every written key.
        if !self.cc().eager_write_validation() && self.cc() != CcMode::S2pl {
            let stale = self.writes.iter().any(|w| {
                self.db
                    .catalog
                    .table(w.table)
                    .latest_ts(&w.key)
                    .is_some_and(|ts| ts > self.snapshot)
            });
            if stale {
                return Err(self.fail(TxnError::Serialization(
                    SerializationKind::FirstCommitterWins,
                )));
            }
        }
        if self.cc() == CcMode::Ssi {
            let mut keys: Vec<_> = self
                .writes
                .iter()
                .map(|w| (w.table, w.key.clone()))
                .collect();
            let mut tables: Vec<_> = self.writes.iter().map(|w| w.table).collect();
            tables.sort_unstable();
            tables.dedup();
            keys.extend(tables.into_iter().map(crate::ssi::table_read_key));
            if let Err(e) = self.db.ssi.pre_commit(self.id, &keys) {
                return Err(self.fail(e));
            }
        }

        let commit_ts = if self.writes.is_empty() {
            self.snapshot
        } else {
            let faults = self.db.config.faults.clone();
            if let Some(f) = &faults {
                if f.at_crash_point(CrashPoint::BeforeWalAppend) {
                    // Died after validation, before anything was durable:
                    // this transaction must be absent after recovery.
                    return Err(self.fail(TxnError::Transient("crashed before wal append".into())));
                }
            }
            // Force the redo log (blocks for the group-commit batch).
            let entries: Vec<LogEntry> = self
                .writes
                .iter()
                .map(|w| LogEntry {
                    table: w.table,
                    key: w.key.clone(),
                    image: w.image.clone(),
                })
                .collect();
            let wal_started = self.db.trace_timings().then(Instant::now);
            // Registered before the append so the checkpointer's in-flight
            // barrier sees every committer whose record may land below the
            // checkpoint's covered offset. Every exit path below — publish
            // or failure — deregisters.
            self.db.inflight_insert(self.id);
            if let Err(e) = self.db.wal.commit(self.id, entries) {
                self.db.inflight_remove(self.id);
                return Err(self.fail(TxnError::Transient(format!("wal: {e}"))));
            }
            if let Some(t0) = wal_started {
                self.db.emit_wal_sync(self.id, t0.elapsed());
            }
            if let Some(f) = &faults {
                if f.at_crash_point(CrashPoint::AfterWalAppend) {
                    // The redo record is durable but no version was
                    // installed: the client sees an error, yet recovery
                    // must resurrect this commit from the log.
                    self.db.inflight_remove(self.id);
                    return Err(self.fail(TxnError::Transient("crashed after wal append".into())));
                }
            }
            // Install-time pruning: each new chain is built from the
            // anchor at the oldest active snapshot. Our own snapshot is
            // still registered, and any later begin reads a clock at
            // least this horizon, so no snapshot that can reach a dropped
            // version exists now or later.
            let horizon = self.db.registry.min_active_snapshot(&self.db.clock);
            let mut pruned = 0;
            // Striped install: reserve a timestamp under the tiny sequence
            // lock, install each version under its shard's install lock,
            // then publish the clock in reservation order. Snapshots stay
            // transaction-consistent because the clock only ever advances
            // to a timestamp whose every predecessor is fully installed.
            let ts = self.db.reserve_commit_ts();
            let crash_mid_install = faults
                .as_ref()
                .is_some_and(|f| f.at_crash_point(CrashPoint::MidInstall));
            for (i, w) in self.writes.iter().enumerate() {
                if crash_mid_install && i >= self.writes.len().div_ceil(2) {
                    // Died half-way through installation: in-memory state
                    // is torn, but the log is complete — recovery restores
                    // the whole transaction. The reserved timestamp is
                    // never published, so the torn prefix stays invisible
                    // to snapshots (and later committers bail out via the
                    // crash latch in `publish_commit`).
                    break;
                }
                let _shard = self.db.install_shard(w.table, &w.key);
                let t = self.db.catalog.table(w.table);
                let version = match &w.image {
                    Some(row) => Version::data(ts, self.id, row.clone()),
                    None => Version::tombstone(ts, self.id),
                };
                // All constraints were validated (and sentinel-locked)
                // before the WAL write; failure here is an engine bug.
                pruned += t
                    .install(&w.key, version, horizon)
                    .expect("post-WAL install must not fail (validated earlier)");
            }
            if pruned > 0 {
                self.db.metrics.record_pruned(pruned as u64);
            }
            if crash_mid_install {
                self.db.inflight_remove(self.id);
                return Err(self.fail(TxnError::Transient("crashed mid-install".into())));
            }
            if let Err(e) = self.db.publish_commit(ts, Some(self.id)) {
                return Err(self.fail(e));
            }
            if let Some(f) = &faults {
                // AfterInstall latches the crash but the commit happened:
                // the caller gets Ok and recovery must preserve it.
                f.at_crash_point(CrashPoint::AfterInstall);
            }
            ts
        };

        let read_only = self.writes.is_empty();
        self.state = TxnState::Committed;
        self.db.registry.unregister(self.id, self.snapshot);
        if self.cc() == CcMode::Ssi {
            self.db.ssi.finish_commit(self.id, commit_ts);
        }
        self.db.locks.release_all(self.id);
        self.db.metrics.record_commit(read_only);
        let writes = self
            .writes
            .iter()
            .map(|w| (w.table, w.key.clone()))
            .collect();
        self.db.emit(HistoryEvent::Commit {
            txn: self.id,
            commit_ts,
            writes,
        });
        self.db.note_commit_for_vacuum();
        if !read_only {
            self.db.note_commit_for_checkpoint();
        }
        Ok(commit_ts)
    }

    /// Rolls back (application-initiated).
    pub fn rollback(mut self) {
        if self.state == TxnState::Active {
            self.abort_internal(AbortReason::Application);
        }
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            self.abort_internal(AbortReason::Application);
        }
    }
}
