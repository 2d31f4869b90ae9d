//! Serializable Snapshot Isolation (Cahill, Röhm & Fekete).
//!
//! The paper's conclusion asks for an engine-side mechanism instead of
//! hand-modifying programs; Cahill's SSI (published by an overlapping
//! author set shortly after) is that mechanism, and this module implements
//! its essential algorithm so the benchmark harness can compare it against
//! the program-modification strategies.
//!
//! The rule: under SI, every non-serializable execution contains a *pivot*
//! transaction with both an incoming and an outgoing rw-antidependency to
//! concurrent transactions (Fekete et al., TODS 2005). SSI tracks, per
//! transaction, `in_conflict` / `out_conflict` flags; when both are set on
//! a transaction, some transaction in the structure is aborted. This admits
//! false positives (the two edges need not lie on a cycle) but never false
//! negatives.
//!
//! Mechanics mirrored from the SSI paper:
//! * readers leave **SIREAD** marks on the keys they read; marks outlive
//!   commit and are garbage-collected only when no concurrent transaction
//!   remains;
//! * a writer marks `reader ──rw──▶ writer` edges against every concurrent
//!   SIREAD holder, both at write time and again at commit;
//! * a reader that observes a version older than the newest committed one
//!   marks `reader ──rw──▶ newer-writer` edges using the version chain's
//!   writer provenance;
//! * to close the validation→install window (the engine writes the WAL
//!   between the two), a committing writer **announces** its write set at
//!   validation time; readers check announcements under the same per-key
//!   partition lock that registers their SIREAD marks, so every rw edge is
//!   discovered by at least one side whatever the interleaving.
//!
//! **Sharding** (mirroring PostgreSQL's split of predicate-lock partitions
//! from `SERIALIZABLEXACT` state, Ports & Grittner VLDB 2012): the
//! SIREAD-mark and announcement maps are hash-partitioned by [`ReadKey`]
//! behind per-shard mutexes, while the per-transaction flag state lives in
//! a separate small map behind its own lock. No operation ever holds a
//! shard lock and the transaction-map lock at once; each side's critical
//! section is atomic per key ({mark SIREAD, collect announcements} for
//! readers, {collect readers, announce} for writers), so the edge between
//! a reader and a writer of the same key is still discovered by at least
//! one of them. The flag updates that follow may interleave, which can
//! only *add* conservative aborts — never miss a dangerous structure.
//!
//! Doomed transactions discover their fate at their next operation or at
//! commit, returning [`SerializationKind::SsiPivot`]. A transaction that
//! is already past validation (`committing`) is never doomed — the
//! discovering side aborts instead.

use crate::error::{SerializationKind, TxnError};
use crate::metrics::LockClasses;
use sicost_common::sync::{stripe_of, InstrumentedMutex};
use sicost_common::{LockStats, TableId, Ts, TxnId};
use sicost_storage::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Key granularity at which SIREAD marks are kept.
pub type ReadKey = (TableId, Value);

/// The relation-granularity SIREAD key for a table: predicate reads
/// (scans) mark the whole relation, and every writer of the table checks
/// it — Cahill's coarse-but-sound answer to phantoms (`Value::Null` is
/// not a legal primary key, so the sentinel cannot collide with rows).
pub fn table_read_key(table: TableId) -> ReadKey {
    (table, Value::Null)
}

#[derive(Debug)]
struct SsiTxn {
    start_ts: Ts,
    commit_ts: Option<Ts>,
    /// Past validation: its commit is inevitable; never doom it.
    committing: bool,
    in_conflict: bool,
    out_conflict: bool,
    doomed: bool,
    read_keys: Vec<ReadKey>,
    announced_keys: Vec<ReadKey>,
}

impl SsiTxn {
    /// Can this transaction still be asked to abort?
    fn abortable(&self) -> bool {
        self.commit_ts.is_none() && !self.committing
    }
}

type TxnMap = HashMap<TxnId, SsiTxn>;

/// One hash partition of the key-indexed state.
#[derive(Debug, Default)]
struct ReadShard {
    /// SIREAD marks: key → readers (active or committed-but-relevant).
    readers: HashMap<ReadKey, Vec<TxnId>>,
    /// Writers past validation, keyed by the items they are installing.
    announced: HashMap<ReadKey, Vec<TxnId>>,
}

/// Is `other` concurrent with a transaction that started at `start`?
/// Committed transactions stay "concurrent" with anything that started
/// before their commit; committing ones are treated as concurrent.
/// The comparison is inclusive because read-only transactions commit
/// at their snapshot timestamp: a reader and a writer beginning on the
/// same clock tick genuinely overlap even though their timestamps tie
/// (conservative: ties may add false aborts, never unsoundness).
fn concurrent_with(txns: &TxnMap, other: TxnId, start: Ts) -> bool {
    match txns.get(&other) {
        Some(t) => t.commit_ts.map(|c| c >= start).unwrap_or(true),
        None => false, // unknown ⇒ long gone ⇒ not concurrent
    }
}

/// Records the rw-antidependency `reader → writer` and applies the
/// pivot rule. Returns the error if `me` must abort now.
fn mark_rw(txns: &mut TxnMap, reader: TxnId, writer: TxnId, me: TxnId) -> Result<(), TxnError> {
    if reader == writer {
        return Ok(());
    }
    if let Some(r) = txns.get_mut(&reader) {
        r.out_conflict = true;
    }
    if let Some(w) = txns.get_mut(&writer) {
        w.in_conflict = true;
    }
    // Pivot rule: any transaction with both flags makes the structure
    // dangerous; abort one abortable participant.
    for t in [reader, writer] {
        let Some(rec) = txns.get(&t) else {
            continue;
        };
        if rec.in_conflict && rec.out_conflict {
            if t == me {
                return Err(TxnError::Serialization(SerializationKind::SsiPivot));
            }
            if rec.abortable() {
                // Active pivot elsewhere: doom it, it will notice.
                txns.get_mut(&t).expect("present").doomed = true;
            } else {
                // Committed/committing pivot: the only abortable
                // participant here is me.
                return Err(TxnError::Serialization(SerializationKind::SsiPivot));
            }
        }
    }
    Ok(())
}

/// The SSI conflict tracker. One per database; inert unless the engine
/// runs in [`crate::CcMode::Ssi`].
#[derive(Debug)]
pub struct SsiManager {
    /// Per-transaction flag state — the small global map.
    txns: InstrumentedMutex<TxnMap>,
    /// Key-partitioned SIREAD/announcement state.
    shards: Vec<InstrumentedMutex<ReadShard>>,
}

impl Default for SsiManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SsiManager {
    /// Empty manager with the default partition count and fresh
    /// (unattached) contention counters.
    pub fn new() -> Self {
        let classes = LockClasses::default();
        Self::with_shards(
            crate::config::EngineConfig::DEFAULT_SHARDS,
            Arc::clone(&classes.ssi_txns),
            Arc::clone(&classes.ssi_reads),
        )
    }

    /// Empty manager with `shards` key partitions, reporting contention
    /// to the given counters.
    pub(crate) fn with_shards(
        shards: usize,
        txns_stats: Arc<LockStats>,
        shard_stats: Arc<LockStats>,
    ) -> Self {
        Self {
            txns: InstrumentedMutex::new(HashMap::new(), txns_stats),
            shards: (0..shards.max(1))
                .map(|_| InstrumentedMutex::new(ReadShard::default(), Arc::clone(&shard_stats)))
                .collect(),
        }
    }

    fn shard(&self, key: &ReadKey) -> &InstrumentedMutex<ReadShard> {
        &self.shards[stripe_of(key, self.shards.len())]
    }

    /// Registers a transaction at begin (or re-registers it after a
    /// snapshot refresh, which is only legal before any reads).
    pub fn begin(&self, txn: TxnId, start_ts: Ts) {
        self.txns.lock().insert(
            txn,
            SsiTxn {
                start_ts,
                commit_ts: None,
                committing: false,
                in_conflict: false,
                out_conflict: false,
                doomed: false,
                read_keys: Vec::new(),
                announced_keys: Vec::new(),
            },
        );
    }

    /// Fails if `txn` has been doomed by a concurrent pivot detection.
    pub fn check_doomed(&self, txn: TxnId) -> Result<(), TxnError> {
        match self.txns.lock().get(&txn) {
            Some(t) if t.doomed => Err(TxnError::Serialization(SerializationKind::SsiPivot)),
            _ => Ok(()),
        }
    }

    /// First half of a point read, taken *before* the reader looks at
    /// the version chain: leaves the SIREAD mark and returns the writers
    /// currently announced as installing the key, atomically under the
    /// key's partition lock — so a concurrent committer either sees our
    /// mark or we see its announcement. Marking first also closes the
    /// window in which a writer could announce, install and unannounce
    /// between our chain read and our mark, unseen by either side; Ports
    /// & Grittner take the SIREAD lock before the conflict-out check for
    /// the same reason.
    pub fn mark_read(&self, txn: TxnId, key: &ReadKey) -> Vec<TxnId> {
        let mut shard = self.shard(key).lock();
        let marks = shard.readers.entry(key.clone()).or_default();
        if !marks.contains(&txn) {
            marks.push(txn);
        }
        shard
            .announced
            .get(key)
            .map(|ws| ws.iter().copied().filter(|w| *w != txn).collect())
            .unwrap_or_default()
    }

    /// Second half of a read: records `key` for cleanup and marks
    /// `txn → writer` antidependencies against `writers` — the writers of
    /// committed versions newer than the one observed (from the version
    /// chain) and those [`SsiManager::mark_read`] found announced.
    pub fn read_edges(&self, txn: TxnId, key: ReadKey, writers: &[TxnId]) -> Result<(), TxnError> {
        let mut txns = self.txns.lock();
        if let Some(t) = txns.get_mut(&txn) {
            // Record the key first so an abort cleans the mark up even on
            // the error paths below.
            t.read_keys.push(key);
            if t.doomed {
                return Err(TxnError::Serialization(SerializationKind::SsiPivot));
            }
        }
        for &w in writers {
            mark_rw(&mut txns, txn, w, txn)?;
        }
        Ok(())
    }

    /// Records a read in one step — [`SsiManager::mark_read`], then
    /// [`SsiManager::read_edges`] against `newer_writers` and the
    /// announced writers — for callers that have already read the chain.
    pub fn on_read(
        &self,
        txn: TxnId,
        key: ReadKey,
        newer_writers: &[TxnId],
    ) -> Result<(), TxnError> {
        let announced = self.mark_read(txn, &key);
        let writers: Vec<TxnId> = newer_writers.iter().copied().chain(announced).collect();
        self.read_edges(txn, key, &writers)
    }

    /// Records a write: marks `reader → txn` antidependencies against every
    /// concurrent SIREAD holder of the key.
    pub fn on_write(&self, txn: TxnId, key: &ReadKey) -> Result<(), TxnError> {
        let readers: Vec<TxnId> = {
            let shard = self.shard(key).lock();
            shard
                .readers
                .get(key)
                .map(|v| v.iter().copied().filter(|r| *r != txn).collect())
                .unwrap_or_default()
        };
        let mut txns = self.txns.lock();
        let my_start = match txns.get(&txn) {
            Some(t) if t.doomed => {
                return Err(TxnError::Serialization(SerializationKind::SsiPivot))
            }
            Some(t) => t.start_ts,
            None => return Ok(()),
        };
        for r in readers {
            if concurrent_with(&txns, r, my_start) {
                mark_rw(&mut txns, r, txn, txn)?;
            }
        }
        Ok(())
    }

    /// Commit-time validation: re-marks reader edges for the write set,
    /// applies the pivot rule to the committer, and — on success —
    /// transitions it to `committing` with its write set announced. After
    /// `Ok(())` the transaction must proceed to install and
    /// [`SsiManager::finish_commit`]; it will never be doomed.
    ///
    /// The announcement goes up *before* the flag marking (each key's
    /// {collect readers, announce} step is atomic in its partition); if
    /// validation then fails, the announcements are retracted. A reader
    /// that saw the short-lived announcement gains at most a conservative
    /// edge to an aborting writer — extra caution, never a miss.
    pub fn pre_commit(&self, txn: TxnId, write_keys: &[ReadKey]) -> Result<(), TxnError> {
        {
            let txns = self.txns.lock();
            let Some(me) = txns.get(&txn) else {
                return Ok(());
            };
            if me.doomed || (me.in_conflict && me.out_conflict) {
                return Err(TxnError::Serialization(SerializationKind::SsiPivot));
            }
        }
        let mut seen_readers: Vec<TxnId> = Vec::new();
        for key in write_keys {
            let mut shard = self.shard(key).lock();
            if let Some(rs) = shard.readers.get(key) {
                seen_readers.extend(rs.iter().copied().filter(|r| *r != txn));
            }
            shard.announced.entry(key.clone()).or_default().push(txn);
        }
        seen_readers.sort_unstable();
        seen_readers.dedup();
        let result = (|| {
            let mut txns = self.txns.lock();
            let Some(me) = txns.get(&txn) else {
                return Ok(());
            };
            let my_start = me.start_ts;
            for r in seen_readers {
                if concurrent_with(&txns, r, my_start) {
                    mark_rw(&mut txns, r, txn, txn)?;
                }
            }
            let me = txns.get_mut(&txn).expect("present");
            // Re-check: an edge may have landed between the first look at
            // our flags and this critical section.
            if me.doomed || (me.in_conflict && me.out_conflict) {
                return Err(TxnError::Serialization(SerializationKind::SsiPivot));
            }
            me.committing = true;
            me.announced_keys = write_keys.to_vec();
            Ok(())
        })();
        if result.is_err() {
            // Not committing after all: take the announcements back down.
            self.unannounce(txn, write_keys);
        }
        result
    }

    /// Marks the transaction committed and retracts its announcements
    /// (SIREAD marks survive until GC).
    pub fn finish_commit(&self, txn: TxnId, commit_ts: Ts) {
        let announced = {
            let mut txns = self.txns.lock();
            match txns.get_mut(&txn) {
                Some(t) => {
                    t.commit_ts = Some(commit_ts);
                    t.committing = false;
                    std::mem::take(&mut t.announced_keys)
                }
                None => Vec::new(),
            }
        };
        self.unannounce(txn, &announced);
    }

    /// Drops all trace of an aborted transaction.
    pub fn on_abort(&self, txn: TxnId) {
        let removed = self.txns.lock().remove(&txn);
        if let Some(t) = removed {
            self.unregister_reads(txn, &t.read_keys);
            self.unannounce(txn, &t.announced_keys);
        }
    }

    /// Garbage-collects committed transactions no longer concurrent with
    /// anything active (commit timestamp at or before the oldest active
    /// snapshot). Returns the number of transaction records reclaimed.
    ///
    /// Each key any dead reader marked is visited once, and one `retain`
    /// drops every dead reader of it: the pass costs one walk of each
    /// touched key's marks, not one per (reader, key) pair.
    pub fn gc(&self, min_active_start: Ts) -> usize {
        let dead: Vec<(TxnId, SsiTxn)> = {
            let mut txns = self.txns.lock();
            let ids: Vec<TxnId> = txns
                .iter()
                .filter(|(_, t)| t.commit_ts.map(|c| c <= min_active_start).unwrap_or(false))
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter()
                .filter_map(|id| txns.remove(&id).map(|t| (id, t)))
                .collect()
        };
        let ids: HashSet<TxnId> = dead.iter().map(|(id, _)| *id).collect();
        // Group the touched keys by partition so each shard lock is taken
        // once per pass, in partition order (a pure function of the data,
        // as deterministic simulation needs).
        let mut by_shard: BTreeMap<usize, HashSet<&ReadKey>> = BTreeMap::new();
        for (_, t) in &dead {
            for key in t.read_keys.iter().chain(&t.announced_keys) {
                by_shard
                    .entry(stripe_of(key, self.shards.len()))
                    .or_default()
                    .insert(key);
            }
        }
        for (shard, keys) in by_shard {
            let mut guard = self.shards[shard].lock();
            let ReadShard { readers, announced } = &mut *guard;
            for key in keys {
                for map in [&mut *readers, &mut *announced] {
                    if let Some(txns) = map.get_mut(key) {
                        txns.retain(|t| !ids.contains(t));
                        if txns.is_empty() {
                            map.remove(key);
                        }
                    }
                }
            }
        }
        dead.len()
    }

    /// Number of transaction records currently tracked (tests/diagnostics).
    pub fn tracked(&self) -> usize {
        self.txns.lock().len()
    }

    /// Total SIREAD marks currently held across every partition (one per
    /// key-reader pair). The memory-bounding gauge for sustained load:
    /// under vacuum it stays flat, without it it grows with every
    /// committed reader whose marks cannot be retired.
    pub fn siread_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().readers.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    fn unregister_reads(&self, txn: TxnId, keys: &[ReadKey]) {
        for key in keys {
            let mut shard = self.shard(key).lock();
            if let Some(marks) = shard.readers.get_mut(key) {
                marks.retain(|r| *r != txn);
                if marks.is_empty() {
                    shard.readers.remove(key);
                }
            }
        }
    }

    fn unannounce(&self, txn: TxnId, keys: &[ReadKey]) {
        for key in keys {
            let mut shard = self.shard(key).lock();
            if let Some(ws) = shard.announced.get_mut(key) {
                ws.retain(|w| *w != txn);
                if ws.is_empty() {
                    shard.announced.remove(key);
                }
            }
        }
    }

    /// (tests) The `(in_conflict, out_conflict)` flags of a tracked txn.
    #[cfg(test)]
    fn flags(&self, txn: TxnId) -> (bool, bool) {
        let txns = self.txns.lock();
        let t = &txns[&txn];
        (t.in_conflict, t.out_conflict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: i64) -> ReadKey {
        (TableId(0), Value::int(k))
    }

    /// Classic write skew: T1 reads x,y writes x; T2 reads x,y writes y.
    /// Under plain SI both commit; SSI must abort one.
    #[test]
    fn write_skew_is_blocked() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(10));
        ssi.begin(TxnId(2), Ts(10));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.on_read(TxnId(1), key(2), &[]).unwrap();
        ssi.on_read(TxnId(2), key(1), &[]).unwrap();
        ssi.on_read(TxnId(2), key(2), &[]).unwrap();
        let r1 = ssi.on_write(TxnId(1), &key(1));
        let r2 = ssi.on_write(TxnId(2), &key(2));
        let c1 = r1.and_then(|_| ssi.pre_commit(TxnId(1), &[key(1)]));
        let c2 = r2.and_then(|_| ssi.pre_commit(TxnId(2), &[key(2)]));
        assert!(
            c1.is_err() || c2.is_err(),
            "SSI must abort at least one of the write-skew pair"
        );
    }

    #[test]
    fn disjoint_transactions_commit() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(10));
        ssi.begin(TxnId(2), Ts(10));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.on_write(TxnId(1), &key(1)).unwrap();
        ssi.on_read(TxnId(2), key(2), &[]).unwrap();
        ssi.on_write(TxnId(2), &key(2)).unwrap();
        ssi.pre_commit(TxnId(1), &[key(1)]).unwrap();
        ssi.pre_commit(TxnId(2), &[key(2)]).unwrap();
        ssi.finish_commit(TxnId(1), Ts(11));
        ssi.finish_commit(TxnId(2), Ts(12));
    }

    #[test]
    fn single_antidependency_is_allowed() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(10));
        ssi.begin(TxnId(2), Ts(10));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.on_write(TxnId(2), &key(1)).unwrap();
        ssi.pre_commit(TxnId(2), &[key(1)]).unwrap();
        ssi.finish_commit(TxnId(2), Ts(11));
        ssi.pre_commit(TxnId(1), &[]).unwrap();
        ssi.finish_commit(TxnId(1), Ts(12));
    }

    #[test]
    fn read_of_stale_version_marks_edge() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(2), Ts(5));
        ssi.finish_commit(TxnId(2), Ts(11)); // T2 committed a new version of k1
        ssi.begin(TxnId(1), Ts(10));
        // T1 (snapshot 10) reads k1, seeing the pre-T2 version.
        ssi.on_read(TxnId(1), key(1), &[TxnId(2)]).unwrap();
        // Now give T1 an in-edge too: T3 reads something T1 writes.
        ssi.begin(TxnId(3), Ts(10));
        ssi.on_read(TxnId(3), key(2), &[]).unwrap();
        let w = ssi.on_write(TxnId(1), &key(2));
        let c = w.and_then(|_| ssi.pre_commit(TxnId(1), &[key(2)]));
        assert_eq!(c, Err(TxnError::Serialization(SerializationKind::SsiPivot)));
    }

    /// The validation→install window: a reader arriving *after* the
    /// writer's pre-commit marking must still find the edge via the
    /// announcement, and — because the writer can no longer abort — the
    /// reader must be the one to die when the structure is dangerous.
    #[test]
    fn announcement_closes_the_commit_window() {
        let ssi = SsiManager::new();
        // W is a pivot-in-waiting: give it an out-edge first (W read k2,
        // X wrote k2 — three-party setup).
        ssi.begin(TxnId(7), Ts(10)); // W
        ssi.begin(TxnId(8), Ts(10)); // X
        ssi.on_read(TxnId(7), key(2), &[]).unwrap();
        ssi.on_write(TxnId(8), &key(2)).unwrap(); // W.out = true
        ssi.pre_commit(TxnId(8), &[key(2)]).unwrap();
        ssi.finish_commit(TxnId(8), Ts(11));
        // W writes k1 and validates; it is now committing (announced).
        ssi.on_write(TxnId(7), &key(1)).unwrap();
        ssi.pre_commit(TxnId(7), &[key(1)]).unwrap();
        // R begins and reads k1 before W installs: must see the
        // announcement, creating R→W (W.in), making W a committing pivot
        // — so R must abort, not W.
        ssi.begin(TxnId(9), Ts(10)); // concurrent with W
        let r = ssi.on_read(TxnId(9), key(1), &[]);
        assert_eq!(
            r,
            Err(TxnError::Serialization(SerializationKind::SsiPivot)),
            "the late reader must die; the committing writer is immutable"
        );
        // W can still finish.
        ssi.finish_commit(TxnId(7), Ts(12));
    }

    #[test]
    fn non_concurrent_reader_is_ignored() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(1));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.finish_commit(TxnId(1), Ts(2));
        ssi.begin(TxnId(2), Ts(5));
        ssi.on_write(TxnId(2), &key(1)).unwrap();
        ssi.pre_commit(TxnId(2), &[key(1)]).unwrap();
        assert!(!ssi.flags(TxnId(1)).1, "old reader gains no out-edge");
        assert!(!ssi.flags(TxnId(2)).0, "new writer gains no in-edge");
    }

    #[test]
    fn doomed_transaction_fails_next_op() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(10));
        ssi.begin(TxnId(2), Ts(10));
        ssi.begin(TxnId(3), Ts(10));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.on_read(TxnId(2), key(2), &[]).unwrap();
        ssi.on_write(TxnId(2), &key(1)).unwrap(); // T2.in = true
        ssi.on_write(TxnId(3), &key(2)).unwrap(); // T2.out = true -> T2 doomed
        assert!(ssi.check_doomed(TxnId(2)).is_err());
        assert!(ssi.on_read(TxnId(2), key(9), &[]).is_err());
    }

    #[test]
    fn abort_clears_siread_marks_and_announcements() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(10));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.on_write(TxnId(1), &key(3)).unwrap();
        ssi.pre_commit(TxnId(1), &[key(3)]).unwrap();
        ssi.on_abort(TxnId(1));
        assert_eq!(ssi.tracked(), 0);
        // A later writer sees no reader, a later reader no announcement.
        ssi.begin(TxnId(2), Ts(10));
        ssi.on_write(TxnId(2), &key(1)).unwrap();
        ssi.on_read(TxnId(2), key(3), &[]).unwrap();
        assert_eq!(ssi.flags(TxnId(2)), (false, false));
    }

    #[test]
    fn gc_reclaims_old_committed_txns() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(1));
        ssi.on_read(TxnId(1), key(1), &[]).unwrap();
        ssi.finish_commit(TxnId(1), Ts(2));
        ssi.begin(TxnId(2), Ts(5));
        assert_eq!(ssi.tracked(), 2);
        assert_eq!(ssi.gc(Ts(5)), 1);
        assert_eq!(ssi.tracked(), 1);
        assert_eq!(
            ssi.gc(Ts(100)),
            0,
            "active transactions are never collected"
        );
    }

    #[test]
    fn committing_transactions_survive_gc() {
        let ssi = SsiManager::new();
        ssi.begin(TxnId(1), Ts(1));
        ssi.on_write(TxnId(1), &key(1)).unwrap();
        ssi.pre_commit(TxnId(1), &[key(1)]).unwrap();
        assert_eq!(ssi.gc(Ts(100)), 0, "committing txns must survive GC");
        ssi.finish_commit(TxnId(1), Ts(2));
        assert_eq!(ssi.gc(Ts(100)), 1);
    }

    /// The pivot detections above must be invariant under the partition
    /// count — 1 shard is the old global-mutex layout.
    #[test]
    fn shard_count_does_not_change_verdicts() {
        let mut baseline = None;
        for shards in [1usize, 4, 16] {
            let ssi = SsiManager::with_shards(shards, Arc::default(), Arc::default());
            ssi.begin(TxnId(1), Ts(10));
            ssi.begin(TxnId(2), Ts(10));
            for k in 0..8 {
                ssi.on_read(TxnId(1), key(k), &[]).unwrap();
                ssi.on_read(TxnId(2), key(k), &[]).unwrap();
            }
            let r1 = ssi.on_write(TxnId(1), &key(0));
            let r2 = ssi.on_write(TxnId(2), &key(7));
            let c1 = r1.and_then(|_| ssi.pre_commit(TxnId(1), &[key(0)]));
            let c2 = r2.and_then(|_| ssi.pre_commit(TxnId(2), &[key(7)]));
            assert!(
                c1.is_err() || c2.is_err(),
                "shards={shards}: at least one of the skew pair dies"
            );
            let verdict = (c1.is_ok(), c2.is_ok());
            match baseline {
                None => baseline = Some(verdict),
                Some(b) => assert_eq!(
                    verdict, b,
                    "shards={shards}: verdicts must match the 1-shard baseline"
                ),
            }
        }
    }
}
