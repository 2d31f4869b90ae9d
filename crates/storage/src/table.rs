//! Tables: sharded maps from primary key to version chain, plus unique
//! secondary indexes.
//!
//! # Read hot path: lock-free via epoch-protected snapshots
//!
//! Both levels of the lookup structure — the per-shard `key → record` map
//! and each record's version chain — are published as **immutable
//! snapshots behind atomic pointers**. Readers pin an epoch
//! ([`sicost_common::epoch::pin`]), load the pointers, and traverse
//! without taking any lock; writers copy the current snapshot, mutate the
//! copy, swap the pointer, and retire the old snapshot's box to the
//! epoch collector. Steady-state reads are therefore wait-free with
//! respect to writers and **perform no allocation** (asserted by
//! `tests/lockfree_reads.rs`).
//!
//! Write-side costs: an install copies the record's chain from the anchor
//! at the oldest active snapshot (O(versions some snapshot can still
//! read)), leaving older versions behind, and a single-row create or a
//! vacuum drop clones one shard's map (O(records per shard)). A batched
//! install ([`Table::install_batch`], for bulk load and checkpoint
//! restore) clones each touched shard's map once for all of its new
//! records, so loading n rows costs O(n), not O(n²). Every replacement
//! retires the old snapshot's box in O(1) bookkeeping, and the retire
//! frees at most a few reclaimable snapshots (chains or shard maps) from
//! the installing thread's epoch bag, so no install pays for reclaiming
//! a backlog ([`sicost_common::epoch`]). Unique secondary indexes remain
//! `RwLock`-guarded: they are only consulted on write paths (installs
//! and index lookups), not on the primary-key read path.
//!
//! Lock ordering within a table: `Shard::write` before `VersionCell::write`
//! (only [`Table::prune`] and [`Table::install_batch`] hold both);
//! [`Table::install`] takes `Shard::write` only inside record creation,
//! before acquiring any cell lock.

use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::{SchemaError, TableSchema};
use crate::value::Value;
use crate::version::{Version, VersionChain};
use sicost_common::epoch::{self, Guard};
use sicost_common::sync::{Mutex, RwLock};
use sicost_common::{TableId, Ts};
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

/// Number of hash shards per table. Shards bound the copy cost of a
/// single-row create or a drop (one shard's map is cloned) and the blast
/// radius of a vacuum pass; readers never lock a shard.
const SHARDS: usize = 64;

/// The outcome of a snapshot read: which version was visible and its image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisibleRead {
    /// Commit timestamp of the visible version (the MVSG needs it to draw
    /// reads-from and anti-dependency edges).
    pub ts: Ts,
    /// Row image, or `None` when the visible version is a tombstone.
    pub row: Option<Row>,
}

/// A unique-constraint violation detected at version installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueViolation {
    /// Table where the conflict happened.
    pub table: String,
    /// Column (by name) whose uniqueness was violated.
    pub column: String,
    /// The duplicated value.
    pub value: Value,
}

impl std::fmt::Display for UniqueViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unique constraint violated on {}.{} for value {}",
            self.table, self.column, self.value
        )
    }
}

impl std::error::Error for UniqueViolation {}

/// The checks every install makes, on either backend and on the batched
/// path: the table's schema, and its unique secondary indexes.
pub(crate) struct Constraints {
    schema: TableSchema,
    /// One map per `schema.unique` entry: indexed-column value → primary
    /// key. Reflects the *latest committed* state; uniqueness is enforced
    /// inside the engine's commit critical section, which serialises
    /// installs.
    unique: Vec<RwLock<HashMap<Value, Value>>>,
}

impl Constraints {
    pub(crate) fn new(schema: TableSchema) -> Self {
        let unique = schema
            .unique
            .iter()
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Self { schema, unique }
    }

    pub(crate) fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The key whose latest committed image holds `value` in unique index
    /// `slot`.
    pub(crate) fn unique_owner(&self, slot: usize, value: &Value) -> Option<Value> {
        self.unique[slot].read().get(value).cloned()
    }

    /// Validates `version`'s image against the schema and checks that its
    /// primary-key cell is `key`. Takes no lock, so installs run it before
    /// they touch the table.
    pub(crate) fn check_image(&self, key: &Value, version: &Version) -> Result<(), InstallError> {
        if let Some(row) = version.row() {
            self.schema
                .validate(row.cells())
                .map_err(InstallError::Schema)?;
            let pk_cell = row.get(self.schema.primary_key);
            if pk_cell != key {
                return Err(InstallError::Schema(SchemaError::BadDeclaration(format!(
                    "primary key cell {pk_cell} does not match chain key {key}"
                ))));
            }
        }
        Ok(())
    }

    /// Admits `version` as the next version of `key`, whose newest version
    /// is `latest`. It must be newer than `latest`, and no other key may
    /// hold one of its unique values. On success, moves `key`'s
    /// unique-index entries from `latest`'s image to `version`'s. The
    /// caller holds `key`'s write lock (its cell or its page), so `latest`
    /// stays the newest version until the caller publishes.
    pub(crate) fn admit(
        &self,
        key: &Value,
        latest: Option<&Version>,
        version: &Version,
    ) -> Result<(), InstallError> {
        if let Some(latest) = latest.filter(|l| l.ts >= version.ts) {
            return Err(InstallError::OutOfOrder {
                table: self.schema.name.clone(),
                key: key.clone(),
                ts: version.ts,
                latest: latest.ts,
            });
        }
        if let Some(new_row) = version.row() {
            for (slot, &col) in self.schema.unique.iter().enumerate() {
                let new_val = new_row.get(col);
                if new_val.is_null() {
                    continue; // SQL UNIQUE admits multiple NULLs
                }
                if let Some(owner) = self.unique[slot].read().get(new_val) {
                    if owner != key {
                        return Err(InstallError::Unique(UniqueViolation {
                            table: self.schema.name.clone(),
                            column: self.schema.columns[col].name.clone(),
                            value: new_val.clone(),
                        }));
                    }
                }
            }
        }
        // Past the checks: move the index entries.
        let old_row = latest.and_then(Version::row);
        for (slot, &col) in self.schema.unique.iter().enumerate() {
            let mut map = self.unique[slot].write();
            if let Some(old) = old_row {
                let old_val = old.get(col);
                if !old_val.is_null() {
                    map.remove(old_val);
                }
            }
            if let Some(new_row) = version.row() {
                let new_val = new_row.get(col);
                if !new_val.is_null() {
                    map.insert(new_val.clone(), key.clone());
                }
            }
        }
        Ok(())
    }
}

/// One record's state: the current chain snapshot behind an atomic
/// pointer, a writer mutex serialising copy-on-write replacements, and a
/// `retired` flag set by vacuum when it unlinks the record so a racing
/// installer knows to re-look-up instead of writing into a dropped cell.
struct VersionCell {
    current: AtomicPtr<VersionChain>,
    write: Mutex<()>,
    retired: AtomicBool,
}

impl VersionCell {
    fn new(chain: VersionChain) -> Self {
        Self {
            current: AtomicPtr::new(Box::into_raw(Box::new(chain))),
            write: Mutex::new(()),
            retired: AtomicBool::new(false),
        }
    }

    /// Borrows the current chain snapshot; the epoch guard keeps the
    /// pointee alive for the borrow.
    fn load<'g>(&self, _guard: &'g Guard) -> &'g VersionChain {
        // SAFETY: `current` always points at a live boxed chain. Replaced
        // boxes are epoch-retired, never freed directly, and `_guard`
        // pins the epoch — so the pointee outlives the returned borrow.
        unsafe { &*self.current.load(Ordering::SeqCst) }
    }

    /// Publishes `next` as the current snapshot. Caller holds `self.write`
    /// (replacements must not race each other).
    fn replace(&self, next: VersionChain) {
        let old = self
            .current
            .swap(Box::into_raw(Box::new(next)), Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw` and is now unlinked.
        // Readers pinned before the swap may still hold it, so the box
        // goes to this thread's epoch bag rather than being dropped here.
        epoch::retire(unsafe { Box::from_raw(old) });
    }
}

impl Drop for VersionCell {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the pointer is always a live box.
        drop(unsafe { Box::from_raw(*self.current.get_mut()) });
    }
}

type CellMap = HashMap<Value, Arc<VersionCell>>;

/// One hash shard: the current `key → record` map snapshot behind an
/// atomic pointer plus a writer mutex serialising map replacements
/// (record creates and vacuum drops).
struct Shard {
    map: AtomicPtr<CellMap>,
    write: Mutex<()>,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: AtomicPtr::new(Box::into_raw(Box::new(CellMap::new()))),
            write: Mutex::new(()),
        }
    }

    fn load<'g>(&self, _guard: &'g Guard) -> &'g CellMap {
        // SAFETY: same protocol as `VersionCell::load` — the pointee is
        // live and epoch-retired on replacement.
        unsafe { &*self.map.load(Ordering::SeqCst) }
    }

    /// Publishes `next` as the current map. Caller holds `self.write`.
    fn replace(&self, next: CellMap) {
        let old = self
            .map
            .swap(Box::into_raw(Box::new(next)), Ordering::SeqCst);
        // SAFETY: see `VersionCell::replace`.
        epoch::retire(unsafe { Box::from_raw(old) });
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the pointer is always a live box.
        drop(unsafe { Box::from_raw(*self.map.get_mut()) });
    }
}

// Compile-time proof that what the unsafe loads share across threads is
// actually shareable: `load` hands `&VersionChain` / `&CellMap` to any
// pinned thread.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    let _ = shareable::<VersionChain>;
    let _ = shareable::<CellMap>;
};

/// A table: schema + sharded primary-key index over version chains +
/// committed-state unique secondary indexes. Primary-key reads are
/// lock-free (see the module docs).
pub struct Table {
    id: TableId,
    constraints: Constraints,
    shards: Vec<Shard>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: TableId, schema: TableSchema) -> Self {
        Self {
            id,
            constraints: Constraints::new(schema),
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Table id within the catalog.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        self.constraints.schema()
    }

    fn shard_index(key: &Value) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn shard_for(&self, key: &Value) -> &Shard {
        &self.shards[Self::shard_index(key)]
    }

    /// Lock-free lookup of the record cell for `key` under an epoch pin.
    fn cell_ref<'g>(&self, key: &Value, guard: &'g Guard) -> Option<&'g VersionCell> {
        self.shard_for(key).load(guard).get(key).map(|a| a.as_ref())
    }

    /// Returns the record cell for `key`, creating it if absent (used by
    /// installs, which need an owned handle to lock across the swap).
    fn cell_or_create(&self, key: &Value) -> Arc<VersionCell> {
        let shard = self.shard_for(key);
        {
            let g = epoch::pin();
            if let Some(c) = shard.load(&g).get(key) {
                return Arc::clone(c);
            }
        }
        let _w = shard.write.lock();
        let g = epoch::pin();
        let map = shard.load(&g);
        if let Some(c) = map.get(key) {
            return Arc::clone(c);
        }
        let cell = Arc::new(VersionCell::new(VersionChain::new()));
        let mut next = map.clone();
        next.insert(key.clone(), Arc::clone(&cell));
        shard.replace(next);
        cell
    }

    /// Lock-free, allocation-free snapshot read: calls `f` with the
    /// version of `key` visible at `snap` (or `None`) while an epoch pin
    /// keeps the chain alive. This is the zero-copy primitive behind
    /// [`Table::read_at`].
    pub fn read_with<R>(&self, key: &Value, snap: Ts, f: impl FnOnce(Option<&Version>) -> R) -> R {
        let g = epoch::pin();
        match self.cell_ref(key, &g) {
            Some(cell) => f(cell.load(&g).visible(snap)),
            None => f(None),
        }
    }

    /// Lock-free visitor over the whole version chain of `key` (`None`
    /// when the record has never existed). The borrow is valid only for
    /// the duration of `f`; the chain is an immutable snapshot, so
    /// concurrent installs are not observed mid-scan.
    pub fn with_chain<R>(&self, key: &Value, f: impl FnOnce(&VersionChain) -> R) -> Option<R> {
        let g = epoch::pin();
        self.cell_ref(key, &g).map(|cell| f(cell.load(&g)))
    }

    /// Snapshot read of one record by primary key. Clones the row image;
    /// use [`Table::read_with`] when a borrow suffices.
    pub fn read_at(&self, key: &Value, snap: Ts) -> Option<VisibleRead> {
        self.read_with(key, snap, |v| {
            v.map(|v| VisibleRead {
                ts: v.ts,
                row: v.row().cloned(),
            })
        })
    }

    /// Commit timestamp of the newest committed version of `key`
    /// (`None` when the record has never existed). This is what
    /// First-Updater/First-Committer-Wins validation compares against.
    pub fn latest_ts(&self, key: &Value) -> Option<Ts> {
        self.with_chain(key, |c| c.latest_ts()).flatten()
    }

    /// Installs a committed version for `key`, enforcing unique constraints
    /// and schema validity. Must be called from within the engine's commit
    /// critical section so that installs follow commit order; a version
    /// not newer than the key's latest is rejected as
    /// [`InstallError::OutOfOrder`].
    ///
    /// The replacement chain is built from the anchor at `horizon` (the
    /// oldest snapshot still in use): versions below it are left out of
    /// the copy instead of waiting for vacuum. Returns how many were left
    /// out; `Ts::ZERO` keeps the whole chain.
    pub fn install(
        &self,
        key: &Value,
        version: Version,
        horizon: Ts,
    ) -> Result<usize, InstallError> {
        self.constraints.check_image(key, &version)?;
        loop {
            let cell = self.cell_or_create(key);
            let _w = cell.write.lock();
            if cell.retired.load(Ordering::SeqCst) {
                // Vacuum unlinked this record between our lookup and the
                // lock; the published map no longer references the cell.
                // Re-look-up — once vacuum publishes the pruned map, the
                // create path builds a fresh cell.
                continue;
            }
            let g = epoch::pin();
            let chain = cell.load(&g);
            self.constraints.admit(key, chain.latest(), &version)?;
            let (next, pruned) = chain.installed(version, horizon);
            cell.replace(next);
            return Ok(pruned);
        }
    }

    /// Installs a batch of committed versions and keeps every version, with
    /// the checks and the result of [`Table::install`] at horizon
    /// `Ts::ZERO`, row by row. Bulk load and checkpoint restore use it.
    ///
    /// The cost is linear in the batch: each touched shard's map is copied
    /// once, takes every new record of the batch, and is published once,
    /// where row-by-row installs copy it once per new record. A new
    /// record's chain holds its one version and no spare capacity. A key
    /// that already has a record gets the copy-on-write append under its
    /// cell lock that `install` makes.
    ///
    /// # Errors
    /// The first version that fails a check, including one for a key that
    /// already holds a version at or after its timestamp (say, the same key
    /// twice in one batch). Versions already admitted stay installed.
    pub fn install_batch(&self, batch: Vec<(Value, Version)>) -> Result<(), InstallError> {
        let mut by_shard: Vec<Vec<(Value, Version)>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for (key, version) in batch {
            by_shard[Self::shard_index(&key)].push((key, version));
        }
        for (shard, rows) in self.shards.iter().zip(by_shard) {
            if rows.is_empty() {
                continue;
            }
            let _sw = shard.write.lock();
            let g = epoch::pin();
            let published = shard.load(&g);
            let mut next = CellMap::with_capacity(published.len() + rows.len());
            next.extend(published.iter().map(|(k, c)| (k.clone(), Arc::clone(c))));
            let result = rows.into_iter().try_for_each(|(key, version)| {
                self.constraints.check_image(&key, &version)?;
                match next.entry(key) {
                    Entry::Occupied(e) => {
                        // Not retired: vacuum marks and unlinks a record
                        // under the shard lock this batch holds.
                        let cell = e.get();
                        let _cw = cell.write.lock();
                        let chain = cell.load(&g);
                        self.constraints.admit(e.key(), chain.latest(), &version)?;
                        cell.replace(chain.installed(version, Ts::ZERO).0);
                    }
                    Entry::Vacant(e) => {
                        self.constraints.admit(e.key(), None, &version)?;
                        e.insert(Arc::new(VersionCell::new(VersionChain::single(version))));
                    }
                }
                Ok(())
            });
            // Publish what was admitted even on error: the unique indexes
            // already name those records.
            shard.replace(next);
            result?;
        }
        Ok(())
    }

    /// Looks up a primary key through a unique secondary index and verifies
    /// the hit against the snapshot (the index itself reflects latest
    /// committed state).
    ///
    /// `unique_slot` is the position within `schema.unique`.
    pub fn lookup_unique(&self, unique_slot: usize, value: &Value, snap: Ts) -> Option<Value> {
        let col = self.schema().unique[unique_slot];
        let pk = self.constraints.unique_owner(unique_slot, value);
        match pk {
            Some(pk) => {
                let vis = self.read_at(&pk, snap)?;
                let row = vis.row?;
                (row.get(col) == value).then_some(pk)
            }
            // Index miss: the value may still be visible in this snapshot if
            // it was removed after the snapshot was taken; fall back to scan.
            None => {
                let mut found = None;
                self.scan_at(
                    snap,
                    &Predicate::Cmp(col, crate::predicate::CmpOp::Eq, value.clone()),
                    |pk, _, _| {
                        found = Some(pk.clone());
                    },
                );
                found
            }
        }
    }

    /// Snapshot scan: calls `f(pk, row, version_ts)` for every record whose
    /// visible version is live data matching `pred`. Iteration order is
    /// unspecified. Lock-free: each shard's map is read as an immutable
    /// snapshot (re-pinned per shard so long scans don't stall reclamation).
    pub fn scan_at(&self, snap: Ts, pred: &Predicate, mut f: impl FnMut(&Value, &Row, Ts)) {
        for shard in &self.shards {
            let g = epoch::pin();
            let map = shard.load(&g);
            for (pk, cell) in map.iter() {
                if let Some(v) = cell.load(&g).visible(snap) {
                    if let Some(row) = v.row() {
                        if pred.matches(row) {
                            f(pk, row, v.ts);
                        }
                    }
                }
            }
        }
    }

    /// Consistent-snapshot extract for checkpointing: every record whose
    /// visible version at `snap` is live data, as `(pk, row)` pairs sorted
    /// by primary key. The MVCC read means writers keep committing newer
    /// versions while the extract runs (a *fuzzy* checkpoint) — the result
    /// is still exactly the committed state at `snap`, because version
    /// chains are immutable below the snapshot horizon.
    pub fn snapshot_at(&self, snap: Ts) -> Vec<(Value, Row)> {
        let mut rows = Vec::new();
        self.scan_at(snap, &Predicate::True, |pk, row, _| {
            rows.push((pk.clone(), row.clone()));
        });
        // Shard iteration order is unspecified; sort so the serialized
        // checkpoint is byte-deterministic for a given state.
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Number of records whose visible version at `snap` is live data.
    pub fn count_at(&self, snap: Ts) -> usize {
        let mut n = 0;
        self.scan_at(snap, &Predicate::True, |_, _, _| n += 1);
        n
    }

    /// Garbage-collects versions invisible to every snapshot at or after
    /// `horizon`; drops records reduced to a dead tombstone. Returns the
    /// number of versions reclaimed.
    ///
    /// Each shard is first peeked lock-free for records with garbage
    /// ([`VersionChain::has_garbage`]); a shard without any is not locked
    /// at all. Otherwise the pass holds `Shard::write` while it rewrites
    /// that shard's garbage records (blocking record creates in the shard
    /// — the measured GC pause) and each such record's
    /// `VersionCell::write` briefly. Readers are never blocked, and any
    /// reader pinned before a replacement keeps its snapshot alive
    /// through the epoch collector.
    pub fn prune(&self, horizon: Ts) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let g = epoch::pin();
            // Sorted key order, not map order: the per-cell lock sequence
            // below must be a pure function of the data, never of a
            // hasher's iteration order, or deterministic-simulation
            // replays of a vacuum racing concurrent writers would
            // diverge between runs.
            let mut garbage: Vec<(&Value, &Arc<VersionCell>)> = shard
                .load(&g)
                .iter()
                .filter(|(_, cell)| cell.load(&g).has_garbage(horizon))
                .collect();
            if garbage.is_empty() {
                continue;
            }
            garbage.sort_by(|a, b| a.0.cmp(b.0));
            let _sw = shard.write.lock();
            let mut dead: Vec<&Value> = Vec::new();
            for (pk, cell) in garbage {
                let _cw = cell.write.lock();
                if cell.retired.load(Ordering::SeqCst) {
                    continue; // a racing pass already dropped the record
                }
                let (next, n) = cell.load(&g).pruned(horizon);
                if next.is_dead(horizon) {
                    // Mark first, unlink after: an installer that raced us
                    // to this cell sees `retired` under the cell lock and
                    // re-looks-up instead of resurrecting a dropped record.
                    reclaimed += n + next.len();
                    cell.retired.store(true, Ordering::SeqCst);
                    dead.push(pk);
                } else if n > 0 {
                    reclaimed += n;
                    cell.replace(next);
                }
            }
            if !dead.is_empty() {
                // Reload under the shard lock: records created since the
                // peek must survive the unlink.
                let mut next_map = shard.load(&g).clone();
                for pk in dead {
                    next_map.remove(pk);
                }
                shard.replace(next_map);
            }
        }
        reclaimed
    }

    /// Total stored versions across all records (for GC tests/metrics).
    pub fn version_count(&self) -> usize {
        let g = epoch::pin();
        self.shards
            .iter()
            .map(|s| s.load(&g).values().map(|c| c.load(&g).len()).sum::<usize>())
            .sum()
    }

    /// Length of the longest version chain in the table — the headline
    /// "is GC keeping up" gauge.
    pub fn max_chain_len(&self) -> usize {
        let g = epoch::pin();
        let mut max = 0;
        for shard in &self.shards {
            for cell in shard.load(&g).values() {
                max = max.max(cell.load(&g).len());
            }
        }
        max
    }
}

/// Errors from [`Table::install`] and [`Table::install_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The image violated the schema.
    Schema(SchemaError),
    /// The image violated a unique constraint.
    Unique(UniqueViolation),
    /// The key already holds a version at or after the new one's
    /// timestamp: a duplicate key in one bulk load, or an install out of
    /// commit order.
    OutOfOrder {
        /// Table of the key.
        table: String,
        /// The key.
        key: Value,
        /// Timestamp of the rejected version.
        ts: Ts,
        /// Timestamp of the key's newest version.
        latest: Ts,
    },
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Schema(e) => write!(f, "{e}"),
            InstallError::Unique(e) => write!(f, "{e}"),
            InstallError::OutOfOrder {
                table,
                key,
                ts,
                latest,
            } => write!(
                f,
                "key {key} of {table} already holds a version at {latest}, not before {ts}"
            ),
        }
    }
}

impl std::error::Error for InstallError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use sicost_common::TxnId;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

    fn accounts() -> Table {
        Table::new(
            TableId(0),
            TableSchema::new(
                "Account",
                vec![
                    ColumnDef::new("Name", ColumnType::Str),
                    ColumnDef::new("CustomerId", ColumnType::Int),
                ],
                0,
                vec![1],
            )
            .unwrap(),
        )
    }

    fn acct_row(name: &str, id: i64) -> Row {
        Row::new(vec![Value::str(name), Value::int(id)])
    }

    #[test]
    fn install_and_read_round_trip() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(1), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        let vis = t.read_at(&Value::str("alice"), Ts(1)).unwrap();
        assert_eq!(vis.ts, Ts(1));
        assert_eq!(vis.row.unwrap().int(1), 7);
        assert!(t.read_at(&Value::str("alice"), Ts(0)).is_none());
        assert!(t.read_at(&Value::str("bob"), Ts(5)).is_none());
    }

    #[test]
    fn install_rejects_wrong_pk_cell() {
        let t = accounts();
        let err = t
            .install(
                &Value::str("alice"),
                Version::data(Ts(1), TxnId(1), acct_row("bob", 7)),
                Ts::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::Schema(_)));
    }

    #[test]
    fn unique_constraint_enforced_across_keys() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(1), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        let err = t
            .install(
                &Value::str("bob"),
                Version::data(Ts(2), TxnId(2), acct_row("bob", 7)),
                Ts::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::Unique(_)));
        // A different id is fine.
        t.install(
            &Value::str("bob"),
            Version::data(Ts(3), TxnId(2), acct_row("bob", 8)),
            Ts::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn unique_value_freed_by_update_and_delete() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(1), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        // Alice changes id 7 -> 9; id 7 becomes available.
        t.install(
            &Value::str("alice"),
            Version::data(Ts(2), TxnId(2), acct_row("alice", 9)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::str("bob"),
            Version::data(Ts(3), TxnId(3), acct_row("bob", 7)),
            Ts::ZERO,
        )
        .unwrap();
        // Deleting bob frees id 7 again.
        t.install(
            &Value::str("bob"),
            Version::tombstone(Ts(4), TxnId(4)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::str("carol"),
            Version::data(Ts(5), TxnId(5), acct_row("carol", 7)),
            Ts::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn same_key_reusing_its_own_unique_value_is_fine() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(1), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        // Identity write: same image, new version stamp.
        t.install(
            &Value::str("alice"),
            Version::data(Ts(2), TxnId(2), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(t.version_count(), 2);
    }

    #[test]
    fn lookup_unique_respects_snapshot() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(5), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(
            t.lookup_unique(0, &Value::int(7), Ts(5)),
            Some(Value::str("alice"))
        );
        // Before the insert committed, the snapshot must not see it.
        assert_eq!(t.lookup_unique(0, &Value::int(7), Ts(4)), None);
    }

    #[test]
    fn lookup_unique_falls_back_to_scan_for_old_snapshots() {
        let t = accounts();
        t.install(
            &Value::str("alice"),
            Version::data(Ts(1), TxnId(1), acct_row("alice", 7)),
            Ts::ZERO,
        )
        .unwrap();
        // id changes to 9 at ts2; a snapshot at ts1 should still find id 7.
        t.install(
            &Value::str("alice"),
            Version::data(Ts(2), TxnId(2), acct_row("alice", 9)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(
            t.lookup_unique(0, &Value::int(7), Ts(1)),
            Some(Value::str("alice"))
        );
        assert_eq!(t.lookup_unique(0, &Value::int(7), Ts(2)), None);
    }

    #[test]
    fn scan_filters_and_respects_snapshot() {
        let t = accounts();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            t.install(
                &Value::str(*name),
                Version::data(Ts(i as u64 + 1), TxnId(1), acct_row(name, i as i64)),
                Ts::ZERO,
            )
            .unwrap();
        }
        assert_eq!(t.count_at(Ts(2)), 2);
        assert_eq!(t.count_at(Ts(10)), 3);
        let mut hits = vec![];
        t.scan_at(
            Ts(10),
            &Predicate::Cmp(1, crate::predicate::CmpOp::Ge, Value::int(1)),
            |pk, _, _| hits.push(pk.clone()),
        );
        hits.sort();
        assert_eq!(hits, vec![Value::str("b"), Value::str("c")]);
    }

    #[test]
    fn prune_reclaims_versions_and_dead_records() {
        let t = accounts();
        for ts in 1..=5u64 {
            t.install(
                &Value::str("alice"),
                Version::data(Ts(ts), TxnId(1), acct_row("alice", ts as i64)),
                Ts::ZERO,
            )
            .unwrap();
        }
        t.install(
            &Value::str("bob"),
            Version::data(Ts(6), TxnId(1), acct_row("bob", 100)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::str("bob"),
            Version::tombstone(Ts(7), TxnId(2)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(t.version_count(), 7);
        let reclaimed = t.prune(Ts(100));
        // alice: 4 old versions; bob: data version + dead tombstone record.
        assert_eq!(reclaimed, 4 + 2);
        assert_eq!(t.version_count(), 1);
        assert!(t.read_at(&Value::str("bob"), Ts(100)).is_none());
        assert_eq!(
            t.read_at(&Value::str("alice"), Ts(100))
                .unwrap()
                .row
                .unwrap()
                .int(1),
            5
        );
    }

    #[test]
    fn latest_ts_tracks_installs() {
        let t = accounts();
        assert_eq!(t.latest_ts(&Value::str("alice")), None);
        t.install(
            &Value::str("alice"),
            Version::data(Ts(3), TxnId(1), acct_row("alice", 1)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(t.latest_ts(&Value::str("alice")), Some(Ts(3)));
    }

    #[test]
    fn read_with_and_with_chain_borrow_without_cloning() {
        let t = accounts();
        for ts in 1..=3u64 {
            t.install(
                &Value::str("alice"),
                Version::data(Ts(ts), TxnId(1), acct_row("alice", ts as i64)),
                Ts::ZERO,
            )
            .unwrap();
        }
        let id = t.read_with(&Value::str("alice"), Ts(2), |v| {
            v.and_then(|v| v.row()).map(|r| r.int(1))
        });
        assert_eq!(id, Some(2));
        assert!(!t.read_with(&Value::str("nobody"), Ts(2), |v| v.is_some()));
        let newer: Vec<u64> = t
            .with_chain(&Value::str("alice"), |c| {
                c.iter().filter(|v| v.ts > Ts(1)).map(|v| v.ts.0).collect()
            })
            .unwrap();
        assert_eq!(newer, vec![2, 3]);
        assert!(t.with_chain(&Value::str("nobody"), |_| ()).is_none());
        assert_eq!(t.max_chain_len(), 3);
    }

    /// Rows `lo..hi` as `(name, CustomerId)` versions at `ts`; `shift`
    /// moves every CustomerId, so a later batch can rewrite unique values.
    fn named_rows(lo: i64, hi: i64, ts: u64, shift: i64) -> Vec<(Value, Version)> {
        (lo..hi)
            .map(|i| {
                let name = format!("c{i:05}");
                let version = Version::data(Ts(ts), TxnId(ts), acct_row(&name, i + shift));
                (Value::str(name), version)
            })
            .collect()
    }

    #[test]
    fn batched_install_matches_row_by_row() {
        let (batched, by_row) = (accounts(), accounts());
        // The first batch creates 600 records; the second updates 400 of
        // them (moving their unique values) and creates 200 more.
        let batches = [named_rows(0, 600, 1, 0), named_rows(200, 800, 2, 10_000)];
        for batch in batches {
            batched.install_batch(batch.clone()).unwrap();
            for (key, version) in batch {
                by_row.install(&key, version, Ts::ZERO).unwrap();
            }
        }
        for snap in [Ts(1), Ts(2)] {
            assert_eq!(batched.snapshot_at(snap), by_row.snapshot_at(snap));
        }
        assert_eq!(batched.version_count(), 1_200);
        assert_eq!(batched.version_count(), by_row.version_count());
        assert_eq!(
            batched.max_chain_len(),
            2,
            "updated records hold two versions"
        );
        assert_eq!(batched.max_chain_len(), by_row.max_chain_len());
        for id in [0, 199, 200, 599, 10_200, 10_599, 10_600, 10_799, 900] {
            for snap in [Ts(1), Ts(2)] {
                assert_eq!(
                    batched.lookup_unique(0, &Value::int(id), snap),
                    by_row.lookup_unique(0, &Value::int(id), snap),
                    "CustomerId {id} at {snap}"
                );
            }
        }
        assert_eq!(
            batched.lookup_unique(0, &Value::int(10_300), Ts(2)),
            Some(Value::str("c00300"))
        );
        assert_eq!(batched.lookup_unique(0, &Value::int(300), Ts(2)), None);
        assert_eq!(
            batched.with_chain(&Value::str("c00000"), |c| c.len()),
            Some(1)
        );
    }

    #[test]
    fn batched_install_rejects_what_row_by_row_rejects() {
        let alice = |id| Version::data(Ts(1), TxnId(1), acct_row("alice", id));
        let bob = Version::data(Ts(1), TxnId(1), acct_row("bob", 7));
        // A unique collision inside one batch.
        let t = accounts();
        let err = t
            .install_batch(vec![
                (Value::str("alice"), alice(7)),
                (Value::str("bob"), bob.clone()),
            ])
            .unwrap_err();
        assert!(matches!(err, InstallError::Unique(_)), "{err}");
        assert_eq!(
            t.count_at(Ts(1)),
            1,
            "the first of the pair stays installed"
        );
        let r = accounts();
        r.install(&Value::str("alice"), alice(7), Ts::ZERO).unwrap();
        let err = r.install(&Value::str("bob"), bob, Ts::ZERO).unwrap_err();
        assert!(matches!(err, InstallError::Unique(_)), "{err}");
        // The same key twice at one timestamp is an error, not a panic.
        let err = accounts()
            .install_batch(vec![
                (Value::str("alice"), alice(1)),
                (Value::str("alice"), alice(2)),
            ])
            .unwrap_err();
        assert!(matches!(err, InstallError::OutOfOrder { .. }), "{err}");
        // A primary-key cell that disagrees with its key.
        let err = accounts()
            .install_batch(vec![(Value::str("carol"), alice(3))])
            .unwrap_err();
        assert!(matches!(err, InstallError::Schema(_)), "{err}");
    }

    /// Stress the orphan-cell race: a writer keeps updating, deleting and
    /// re-inserting two records while a vacuum thread prunes aggressively
    /// (so the writer regularly races a record drop). The `retired` flag
    /// protocol must keep the final state exactly what the writer wrote.
    #[test]
    fn concurrent_installs_and_prunes_stay_consistent() {
        let t = std::sync::Arc::new(accounts());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let hi = std::sync::Arc::new(AtomicU64::new(0));
        let passes = std::sync::Arc::new(AtomicU64::new(0));
        let pruner = {
            let t = std::sync::Arc::clone(&t);
            let stop = std::sync::Arc::clone(&stop);
            let hi = std::sync::Arc::clone(&hi);
            let passes = std::sync::Arc::clone(&passes);
            std::thread::spawn(move || {
                let mut total = 0;
                while !stop.load(SeqCst) {
                    let h = hi.load(SeqCst).saturating_sub(2);
                    if h > 0 {
                        total += t.prune(Ts(h));
                    }
                    epoch::collect();
                    passes.fetch_add(1, SeqCst);
                    std::thread::yield_now();
                }
                total
            })
        };
        let last = 600u64;
        for ts in 1..=last {
            let (key, name) = if ts % 2 == 0 {
                (Value::str("alice"), "alice")
            } else {
                (Value::str("bob"), "bob")
            };
            // Every 7th version is a delete; the next write of that key
            // re-creates the record (racing the pruner's record drop).
            let version = if ts % 7 == 0 {
                Version::tombstone(Ts(ts), TxnId(ts))
            } else {
                Version::data(Ts(ts), TxnId(ts), acct_row(name, ts as i64))
            };
            t.install(&key, version, Ts::ZERO).unwrap();
            hi.store(ts, SeqCst);
            if ts % 100 == 0 {
                // However the OS schedules the two threads, let a whole
                // pruning pass see this horizon before writing on.
                let seen = passes.load(SeqCst);
                while passes.load(SeqCst) < seen + 2 {
                    std::thread::yield_now();
                }
            }
        }
        stop.store(true, SeqCst);
        let reclaimed = pruner.join().unwrap();
        assert!(reclaimed > 0, "pruner should have reclaimed something");
        // Final state: the newest non-deleted write of each key survives.
        let alice = t.read_at(&Value::str("alice"), Ts(last + 1)).unwrap();
        assert_eq!(alice.row.unwrap().int(1), 600);
        let bob = t.read_at(&Value::str("bob"), Ts(last + 1)).unwrap();
        assert_eq!(bob.row.unwrap().int(1), 599);
        let final_reclaim = t.prune(Ts(last));
        let _ = final_reclaim;
        assert_eq!(t.version_count(), 2);
        assert!(t.max_chain_len() <= 1);
    }
}
