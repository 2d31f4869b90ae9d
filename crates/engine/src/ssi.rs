//! Serializable Snapshot Isolation (Cahill, Röhm & Fekete).
//!
//! The paper's conclusion asks for an engine-side mechanism instead of
//! hand-modifying programs; Cahill's SSI (published by an overlapping
//! author set shortly after) is that mechanism, and this module implements
//! its essential algorithm so the benchmark harness can compare it against
//! the program-modification strategies.
//!
//! The rule: under SI, every non-serializable execution contains a *pivot*
//! T2 with rw-antidependencies `T1 ──rw──▶ T2 ──rw──▶ T3` between concurrent
//! transactions (Fekete et al., TODS 2005), and in at least one such
//! structure T3 is the first transaction of the cycle to commit (Ports &
//! Grittner, VLDB 2012). So each uncommitted transaction keeps its rw in-
//! and out-neighbours, and a pivot is *dangerous* only when some
//! out-neighbour T3 committed before it and some in-neighbour T1 had not
//! committed before T3: `commit(T3) ≤ commit(T1)`, with T1 = T3 allowed (a
//! write skew). A read-only transaction commits at its snapshot timestamp,
//! so the same comparison is PostgreSQL's read-only rule: a read-only T1
//! makes the structure dangerous only if T3 committed before T1's
//! snapshot. The rule is applied at every new edge, at a pivot's own
//! validation, and at T3's validation, which dooms every abortable pivot
//! pointing at T3 that still has an uncommitted in-neighbour (and aborts
//! T3 itself if such a pivot is already past validation). It admits false
//! positives (the edges need not close a cycle) but never false negatives.
//!
//! A time the rule cannot know is taken at its most dangerous: an
//! uncommitted in-neighbour has not committed before anything, a writer
//! between validation and [`SsiManager::finish_commit`] counts as having
//! committed first (both for edges made to it and for pivots that already
//! point at it), and a neighbour that GC has reclaimed counts as
//! dangerous on either side. Once a transaction commits, its neighbour
//! lists give way to one summary, the earliest commit of an out-neighbour
//! that committed before it: every later in-edge comes from a live
//! reader, so that summary alone decides whether the committed
//! transaction has become a pivot that the reader must die for.
//!
//! Mechanics mirrored from the SSI paper:
//! * readers leave **SIREAD** marks on the keys they read; a committed
//!   reader's marks outlive its commit until GC finds no transaction
//!   concurrent with it, and then one sweep of the partitions drops them
//!   (its record keeps no list of them: read keys serve only abort
//!   cleanup);
//! * a write to a row drops the writer's own marks on that row, as
//!   PostgreSQL does: a concurrent writer of the row conflicts with it
//!   ww, and two concurrent writers of one key never both commit (first
//!   updater wins here, first committer wins in the model), so the rw
//!   edge the mark would raise can lie on no committed cycle. The
//!   relation mark a scan leaves stays, since it guards rows the writer
//!   did not write;
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
//! behind per-shard mutexes, while the per-transaction conflict state
//! lives in a separate small map behind its own lock. No operation ever
//! holds a shard lock and the transaction-map lock at once; each side's
//! critical section is atomic per key ({mark SIREAD, collect
//! announcements} for readers, {collect readers, announce} for writers),
//! so the edge between a reader and a writer of the same key is still
//! discovered by at least one of them. Every edge is added, and both its
//! ends re-judged, under the transaction-map lock, and so is every step
//! that makes a structure more dangerous (a writer becoming `committing`),
//! so whichever of the two happens second sees the other.
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
use std::collections::{HashMap, HashSet};
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

/// The commit time of a transaction that has not committed (or whose
/// record GC reclaimed): later than any real one.
const NEVER: Ts = Ts(u64::MAX);

#[derive(Debug)]
struct SsiTxn {
    start_ts: Ts,
    commit_ts: Option<Ts>,
    /// Past validation: its commit is inevitable; never doom it.
    committing: bool,
    doomed: bool,
    /// While uncommitted: allocated at its first read, edge or
    /// announcement and dropped at commit, so that a committed record,
    /// which lives until GC, carries no per-edge or per-key state.
    pending: Option<Box<Pending>>,
    /// Once committed: the earliest commit among the out-neighbours that
    /// committed before it.
    first_out: Option<Ts>,
}

/// What only an uncommitted transaction needs.
#[derive(Debug, Default)]
struct Pending {
    /// Readers of what it writes: `in ──rw──▶ self`.
    ins: Vec<TxnId>,
    /// Writers of what it read: `self ──rw──▶ out`.
    outs: Vec<TxnId>,
    /// The write set announced at validation.
    announced_keys: Vec<ReadKey>,
    /// The keys it marked, for abort cleanup: a committed reader's marks
    /// are swept by [`SsiManager::gc`] without them.
    read_keys: Vec<ReadKey>,
}

impl SsiTxn {
    /// Can this transaction still be asked to abort?
    fn abortable(&self) -> bool {
        self.commit_ts.is_none() && !self.committing
    }

    /// The uncommitted state, or `None` once committed (which keeps only
    /// its summary).
    fn pending_mut(&mut self) -> Option<&mut Pending> {
        if self.commit_ts.is_some() {
            return None;
        }
        Some(self.pending.get_or_insert_with(Box::default))
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

/// When `id` committed, as an in-neighbour: [`NEVER`] while it is live
/// or committing, and once GC has reclaimed it.
fn committed_at(txns: &TxnMap, id: TxnId) -> Ts {
    txns.get(&id).and_then(|t| t.commit_ts).unwrap_or(NEVER)
}

/// When `id` committed, as an out-neighbour of a transaction that has not
/// committed yet: `None` while it is live. A committing writer, whose
/// timestamp is still unknown, and one GC has reclaimed count as having
/// committed first of all.
fn committed_first(txns: &TxnMap, id: TxnId) -> Option<Ts> {
    match txns.get(&id) {
        Some(t) if t.committing => Some(Ts::ZERO),
        Some(t) => t.commit_ts,
        None => Some(Ts::ZERO),
    }
}

/// Is the uncommitted transaction with these neighbours a dangerous
/// pivot: did some out-neighbour commit first, before some in-neighbour
/// had committed?
fn dangerous(txns: &TxnMap, n: &Pending) -> bool {
    let Some(first) = n
        .outs
        .iter()
        .filter_map(|&o| committed_first(txns, o))
        .min()
    else {
        return false;
    };
    n.ins.iter().any(|&i| committed_at(txns, i) >= first)
}

/// Is `t` (a live or committing transaction) a dangerous pivot now?
fn is_pivot(txns: &TxnMap, t: &SsiTxn) -> bool {
    t.pending.as_deref().is_some_and(|n| dangerous(txns, n))
}

fn pivot_abort() -> TxnError {
    TxnError::Serialization(SerializationKind::SsiPivot)
}

/// Records the rw-antidependency `reader → writer` and judges both ends
/// as pivots. Returns the error if `me` must abort now. An edge to or
/// from a transaction with no record (aborted, or reclaimed and so long
/// committed before the other began) is not an edge between concurrent
/// transactions and is dropped.
fn mark_rw(txns: &mut TxnMap, reader: TxnId, writer: TxnId, me: TxnId) -> Result<(), TxnError> {
    if reader == writer || !txns.contains_key(&reader) || !txns.contains_key(&writer) {
        return Ok(());
    }
    for (t, other, outgoing) in [(reader, writer, true), (writer, reader, false)] {
        if let Some(n) = txns.get_mut(&t).and_then(SsiTxn::pending_mut) {
            let list = if outgoing { &mut n.outs } else { &mut n.ins };
            if !list.contains(&other) {
                list.push(other);
            }
        }
    }
    for t in [reader, writer] {
        let rec = &txns[&t];
        let danger = if rec.commit_ts.is_none() {
            is_pivot(txns, rec)
        } else {
            // A committed transaction's out-neighbours were settled when
            // it committed; only a new in-edge can make it a pivot now.
            t == writer
                && rec
                    .first_out
                    .is_some_and(|f| committed_at(txns, reader) >= f)
        };
        if danger {
            if t == me {
                return Err(pivot_abort());
            }
            if rec.abortable() {
                // Active pivot elsewhere: doom it, it will notice.
                txns.get_mut(&t).expect("present").doomed = true;
            } else {
                // Committed/committing pivot: the only abortable
                // participant here is me.
                return Err(pivot_abort());
            }
        }
    }
    Ok(())
}

/// The SSI conflict tracker. One per database; inert unless the engine
/// runs in [`crate::CcMode::Ssi`].
#[derive(Debug)]
pub struct SsiManager {
    /// Per-transaction conflict state — the small global map.
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
                doomed: false,
                pending: None,
                first_out: None,
            },
        );
    }

    /// Fails if `txn` has been doomed by a concurrent pivot detection.
    pub fn check_doomed(&self, txn: TxnId) -> Result<(), TxnError> {
        match self.txns.lock().get(&txn) {
            Some(t) if t.doomed => Err(pivot_abort()),
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
    ///
    /// The duplicate check compares with the key's last mark only, so it
    /// costs the same on a hot key holding thousands of marks: a re-read
    /// after another reader's mark adds a duplicate, which
    /// [`SsiManager::gc`] and abort cleanup remove with the original.
    pub fn mark_read(&self, txn: TxnId, key: &ReadKey) -> Vec<TxnId> {
        let mut shard = self.shard(key).lock();
        let marks = shard.readers.entry(key.clone()).or_default();
        if marks.last() != Some(&txn) {
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
            if let Some(p) = t.pending_mut() {
                p.read_keys.push(key);
            }
            if t.doomed {
                return Err(pivot_abort());
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
    ///
    /// A write to a row supersedes the writer's own marks on it, dropped in
    /// the same partition critical section that collects the other readers
    /// (PostgreSQL's `CheckTargetForConflictsIn`). Any concurrent writer of
    /// the row conflicts with this one ww, and two concurrent writers of a
    /// key never both commit, so the `txn ──rw──▶ other` edge the mark would
    /// raise can lie on no committed cycle. The relation mark a scan leaves
    /// stays: it guards rows this write does not touch.
    pub fn on_write(&self, txn: TxnId, key: &ReadKey) -> Result<(), TxnError> {
        let supersedes = !key.1.is_null();
        let mut readers = Vec::new();
        {
            let mut shard = self.shard(key).lock();
            if let Some(marks) = shard.readers.get_mut(key) {
                marks.retain(|&r| {
                    if r == txn {
                        return !supersedes;
                    }
                    readers.push(r);
                    true
                });
                if marks.is_empty() {
                    shard.readers.remove(key);
                }
            }
        }
        let mut txns = self.txns.lock();
        let my_start = match txns.get(&txn) {
            Some(t) if t.doomed => return Err(pivot_abort()),
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
    /// applies the pivot rule to the committer, applies it to every pivot
    /// with an edge into the committer (which from here on counts as
    /// having committed first), and — on success — transitions it to
    /// `committing` with its write set announced. After `Ok(())` the
    /// transaction must proceed to install and
    /// [`SsiManager::finish_commit`]; it will never be doomed.
    ///
    /// The announcement goes up *before* the edge marking (each key's
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
            if me.doomed || is_pivot(&txns, me) {
                return Err(pivot_abort());
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
            // Re-check: an edge may have landed between the first look and
            // this critical section.
            let me = &txns[&txn];
            if me.doomed || is_pivot(&txns, me) {
                return Err(pivot_abort());
            }
            // From here on we count as having committed first, so a pivot
            // `p ──rw──▶ me` is dangerous if it still has an in-neighbour
            // that has not committed (we, the committer, commit later than
            // any that has). Abort ourselves if such a pivot can no longer
            // abort; otherwise doom them all.
            let pivots: Vec<TxnId> = me
                .pending
                .iter()
                .flat_map(|n| n.ins.iter().copied())
                .filter(|p| {
                    txns.get(p)
                        .filter(|p| p.commit_ts.is_none())
                        .and_then(|p| p.pending.as_deref())
                        .is_some_and(|n| n.ins.iter().any(|&i| committed_at(&txns, i) == NEVER))
                })
                .collect();
            if pivots.iter().any(|p| !txns[p].abortable()) {
                return Err(pivot_abort());
            }
            for p in pivots {
                txns.get_mut(&p).expect("present").doomed = true;
            }
            let me = txns.get_mut(&txn).expect("present");
            me.committing = true;
            if !write_keys.is_empty() {
                me.pending_mut().expect("uncommitted").announced_keys = write_keys.to_vec();
            }
            Ok(())
        })();
        if result.is_err() {
            // Not committing after all: take the announcements back down.
            self.unannounce(txn, write_keys);
        }
        result
    }

    /// Marks the transaction committed, summarises its out-neighbours as
    /// the earliest commit among those that committed before it, and
    /// retracts its announcements (SIREAD marks survive until GC). The
    /// uncommitted state, read keys included, is freed after the
    /// transaction-map lock is released.
    pub fn finish_commit(&self, txn: TxnId, commit_ts: Ts) {
        let pending = {
            let mut txns = self.txns.lock();
            let first_out = txns
                .get(&txn)
                .and_then(|t| t.pending.as_deref())
                .and_then(|n| {
                    n.outs
                        .iter()
                        .filter_map(|&o| committed_first(&txns, o))
                        .filter(|&c| c < commit_ts)
                        .min()
                });
            match txns.get_mut(&txn) {
                Some(t) => {
                    t.commit_ts = Some(commit_ts);
                    t.committing = false;
                    t.first_out = first_out;
                    t.pending.take()
                }
                None => None,
            }
        };
        if let Some(p) = pending {
            self.unannounce(txn, &p.announced_keys);
        }
    }

    /// Drops all trace of an aborted transaction, including its edges in
    /// its neighbours' lists: a neighbour that later finds no record is
    /// then one that GC reclaimed.
    pub fn on_abort(&self, txn: TxnId) {
        let removed = {
            let mut txns = self.txns.lock();
            let removed = txns.remove(&txn);
            if let Some(n) = removed.as_ref().and_then(|t| t.pending.as_deref()) {
                for (ids, outgoing) in [(&n.ins, true), (&n.outs, false)] {
                    for id in ids {
                        if let Some(m) = txns.get_mut(id).and_then(|t| t.pending.as_deref_mut()) {
                            let list = if outgoing { &mut m.outs } else { &mut m.ins };
                            list.retain(|&x| x != txn);
                        }
                    }
                }
            }
            removed
        };
        if let Some(p) = removed.and_then(|t| t.pending) {
            self.unregister_reads(txn, &p.read_keys);
            self.unannounce(txn, &p.announced_keys);
        }
    }

    /// Garbage-collects committed transactions no longer concurrent with
    /// anything active (commit timestamp at or before the oldest active
    /// snapshot). Returns the number of transaction records reclaimed.
    ///
    /// A committed record keeps no read keys, so the dead readers' marks
    /// are dropped by one `retain` sweep over each partition, in partition
    /// order (a pure function of the data, as deterministic simulation
    /// needs): one walk of every mark, each shard lock taken once.
    pub fn gc(&self, min_active_start: Ts) -> usize {
        let mut dead = HashSet::new();
        self.txns.lock().retain(|&id, t| {
            let reclaim = t.commit_ts.is_some_and(|c| c <= min_active_start);
            if reclaim {
                dead.insert(id);
            }
            !reclaim
        });
        if dead.is_empty() {
            return 0;
        }
        for shard in &self.shards {
            shard.lock().readers.retain(|_, marks| {
                marks.retain(|t| !dead.contains(t));
                !marks.is_empty()
            });
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

    /// (tests) The `(ins, outs)` neighbour lists of an uncommitted txn.
    #[cfg(test)]
    fn neighbours(&self, txn: TxnId) -> (Vec<TxnId>, Vec<TxnId>) {
        let txns = self.txns.lock();
        txns[&txn]
            .pending
            .as_deref()
            .map(|n| (n.ins.clone(), n.outs.clone()))
            .unwrap_or_default()
    }

    /// (tests) The SIREAD marks on `key`, in mark order.
    #[cfg(test)]
    fn marks(&self, key: &ReadKey) -> Vec<TxnId> {
        self.shard(key)
            .lock()
            .readers
            .get(key)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: i64) -> ReadKey {
        (TableId(0), Value::int(k))
    }

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    /// `T1 ──rw──▶ T2 ──rw──▶ T3`, all begun at ts 10: T1 reads k1, which
    /// T2 writes; T2 reads k2, which T3 writes. Nobody has committed.
    fn chain_of_three() -> SsiManager {
        let ssi = SsiManager::new();
        for t in [T1, T2, T3] {
            ssi.begin(t, Ts(10));
        }
        ssi.on_read(T1, key(1), &[]).unwrap();
        ssi.on_read(T2, key(2), &[]).unwrap();
        ssi.on_write(T2, &key(1)).unwrap();
        ssi.on_write(T3, &key(2)).unwrap();
        ssi
    }

    fn commit(ssi: &SsiManager, txn: TxnId, writes: &[ReadKey], at: u64) -> Result<(), TxnError> {
        ssi.pre_commit(txn, writes)?;
        ssi.finish_commit(txn, Ts(at));
        Ok(())
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
        assert_eq!(c, Err(pivot_abort()));
    }

    /// The validation→install window: a reader arriving *after* the
    /// writer's pre-commit marking must still find the edge via the
    /// announcement, and — because the writer can no longer abort — the
    /// reader must be the one to die when the structure is dangerous.
    #[test]
    fn announcement_closes_the_commit_window() {
        let ssi = SsiManager::new();
        // W is a pivot-in-waiting: give it an out-edge to a transaction
        // that commits first (W read k2, X wrote k2 and committed).
        ssi.begin(TxnId(7), Ts(10)); // W
        ssi.begin(TxnId(8), Ts(10)); // X
        ssi.on_read(TxnId(7), key(2), &[]).unwrap();
        ssi.on_write(TxnId(8), &key(2)).unwrap(); // W ──rw──▶ X
        ssi.pre_commit(TxnId(8), &[key(2)]).unwrap();
        ssi.finish_commit(TxnId(8), Ts(11));
        // W writes k1 and validates; it is now committing (announced).
        ssi.on_write(TxnId(7), &key(1)).unwrap();
        ssi.pre_commit(TxnId(7), &[key(1)]).unwrap();
        // R begins and reads k1 before W installs: must see the
        // announcement, creating R→W, making W a committing pivot whose
        // out-neighbour committed first — so R must abort, not W.
        ssi.begin(TxnId(9), Ts(10)); // concurrent with W
        let r = ssi.on_read(TxnId(9), key(1), &[]);
        assert_eq!(
            r,
            Err(pivot_abort()),
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
        assert_eq!(
            ssi.neighbours(TxnId(2)),
            (vec![], vec![]),
            "new writer gains no in-edge from the old reader"
        );
    }

    /// Both edges of the structure exist, but until T3 commits, T2 is no
    /// danger; T3's validation dooms it, and it fails its next operation.
    #[test]
    fn pivot_is_doomed_when_its_out_neighbour_commits_first() {
        let ssi = chain_of_three();
        assert_eq!(ssi.neighbours(T2), (vec![T1], vec![T3]));
        assert!(ssi.check_doomed(T2).is_ok(), "T3 has not committed yet");
        commit(&ssi, T3, &[key(2)], 11).unwrap();
        assert!(ssi.check_doomed(T2).is_err());
        assert!(ssi.on_read(T2, key(9), &[]).is_err());
        commit(&ssi, T1, &[], 10).unwrap();
    }

    /// Every other commit order of the three is serializable and commits.
    #[test]
    fn structures_whose_out_neighbour_commits_later_all_commit() {
        let writes = |t: TxnId| match t {
            T1 => vec![key(3)],
            T2 => vec![key(1)],
            _ => vec![key(2)],
        };
        for order in [[T1, T2, T3], [T1, T3, T2], [T2, T1, T3], [T2, T3, T1]] {
            let ssi = chain_of_three();
            ssi.on_write(T1, &key(3)).unwrap();
            for (at, t) in (11..).zip(order) {
                assert_eq!(
                    commit(&ssi, t, &writes(t), at),
                    Ok(()),
                    "{t:?} in commit order {order:?}"
                );
            }
        }
    }

    /// A read-only T1 commits at its snapshot: if that predates T3's
    /// commit, T1 ──rw──▶ T2 ──rw──▶ T3 is safe even though T3 committed
    /// first; if T1's snapshot saw T3's commit, T2 must die.
    #[test]
    fn a_read_only_in_neighbour_is_judged_by_its_snapshot() {
        for (t1_snapshot, safe) in [(10, true), (11, false)] {
            let ssi = SsiManager::new();
            ssi.begin(T2, Ts(10));
            ssi.begin(T3, Ts(10));
            ssi.on_read(T2, key(2), &[]).unwrap();
            ssi.on_write(T3, &key(2)).unwrap();
            commit(&ssi, T3, &[key(2)], 11).unwrap();
            ssi.begin(T1, Ts(t1_snapshot));
            ssi.on_read(T1, key(1), &[]).unwrap();
            commit(&ssi, T1, &[], t1_snapshot).unwrap();
            let t2 = ssi
                .on_write(T2, &key(1))
                .and_then(|_| commit(&ssi, T2, &[key(1)], 12));
            assert_eq!(t2.is_ok(), safe, "T1 snapshot {t1_snapshot}");
        }
    }

    /// The committing window: T3 has validated but not finished when
    /// `T1 ──rw──▶ P` forms and P (already `P ──rw──▶ T3`) validates. T3
    /// must count as committed first, so P — or, failing that, T1 — dies.
    #[test]
    fn a_committing_out_neighbour_counts_as_committed_first() {
        let p = T2;
        let ssi = SsiManager::new();
        for t in [T1, p, T3] {
            ssi.begin(t, Ts(10));
        }
        ssi.on_read(p, key(2), &[]).unwrap();
        ssi.on_write(T3, &key(2)).unwrap();
        ssi.pre_commit(T3, &[key(2)]).unwrap();
        ssi.on_read(T1, key(1), &[]).unwrap();
        let p_ok = ssi
            .on_write(p, &key(1))
            .and_then(|_| ssi.pre_commit(p, &[key(1)]))
            .is_ok();
        ssi.finish_commit(T3, Ts(11));
        if p_ok {
            ssi.finish_commit(p, Ts(12));
            assert!(
                ssi.pre_commit(T1, &[]).is_err(),
                "P and T3 committed, so T1 must die"
            );
        }
    }

    /// A neighbour whose record GC reclaimed counts as dangerous: the same
    /// structure that commits with its records kept aborts without them.
    #[test]
    fn a_reclaimed_neighbour_counts_as_dangerous() {
        for reclaim in [false, true] {
            let ssi = chain_of_three();
            ssi.on_write(T1, &key(3)).unwrap();
            commit(&ssi, T1, &[key(3)], 11).unwrap();
            commit(&ssi, T3, &[key(2)], 12).unwrap();
            if reclaim {
                assert_eq!(ssi.gc(Ts(12)), 2);
            }
            let t2 = ssi.pre_commit(T2, &[key(1)]);
            assert_eq!(t2.is_err(), reclaim);
        }
    }

    #[test]
    fn abort_clears_siread_marks_announcements_and_edges() {
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
        assert_eq!(ssi.neighbours(TxnId(2)), (vec![], vec![]));
        // An aborted neighbour leaves no edge behind.
        let ssi = chain_of_three();
        ssi.on_abort(T3);
        ssi.on_abort(T1);
        assert_eq!(ssi.neighbours(T2), (vec![], vec![]));
    }

    /// A re-read leaves one mark while it is the key's last, and abort
    /// removes the duplicate a re-read after another reader's mark adds.
    #[test]
    fn re_reads_leave_no_stray_marks() {
        let ssi = SsiManager::new();
        ssi.begin(T1, Ts(10));
        ssi.begin(T2, Ts(10));
        ssi.on_read(T1, key(1), &[]).unwrap();
        ssi.on_read(T1, key(1), &[]).unwrap();
        assert_eq!(ssi.siread_entries(), 1);
        ssi.on_read(T2, key(1), &[]).unwrap();
        ssi.on_read(T1, key(1), &[]).unwrap();
        assert_eq!(ssi.siread_entries(), 3);
        ssi.on_abort(T1);
        assert_eq!(ssi.siread_entries(), 1);
    }

    /// A write drops the writer's marks on the row it writes, a re-read's
    /// duplicate too, and only those: another reader's mark on the row
    /// and the writer's relation mark from a scan stay.
    #[test]
    fn a_write_supersedes_only_the_writers_own_row_mark() {
        let ssi = SsiManager::new();
        let relation = table_read_key(TableId(0));
        ssi.begin(T1, Ts(10));
        ssi.begin(T2, Ts(10));
        ssi.on_read(T1, relation.clone(), &[]).unwrap();
        ssi.on_read(T1, key(1), &[]).unwrap();
        ssi.on_read(T2, key(1), &[]).unwrap();
        ssi.on_read(T1, key(1), &[]).unwrap();
        assert_eq!(ssi.marks(&key(1)), vec![T1, T2, T1]);
        ssi.on_write(T1, &key(1)).unwrap();
        ssi.on_write(T1, &relation).unwrap();
        assert_eq!(ssi.marks(&key(1)), vec![T2]);
        assert_eq!(ssi.marks(&relation), vec![T1]);
        assert_eq!(ssi.neighbours(T1), (vec![T2], vec![]));
    }

    /// A committed record keeps no read keys, and GC sweeps every partition
    /// for the dead readers' marks: those of live readers and of committed
    /// readers that are not dead yet stay.
    #[test]
    fn gc_sweeps_dead_readers_marks() {
        let ssi = SsiManager::new();
        let keys: Vec<ReadKey> = (0..32).map(key).collect();
        let partitions: HashSet<usize> = keys.iter().map(|k| stripe_of(k, 16)).collect();
        assert!(partitions.len() > 1, "the keys span several partitions");
        // T1 commits before live T3 began (dead at horizon 10); T2 after.
        ssi.begin(T1, Ts(1));
        ssi.begin(T3, Ts(10));
        ssi.begin(T2, Ts(11));
        for k in &keys {
            for t in [T1, T2, T3] {
                ssi.on_read(t, k.clone(), &[]).unwrap();
            }
        }
        commit(&ssi, T1, &[], 2).unwrap();
        commit(&ssi, T2, &[], 12).unwrap();
        for t in [T1, T2] {
            assert!(ssi.txns.lock()[&t].pending.is_none(), "{t:?} keeps no keys");
        }
        assert_eq!(ssi.siread_entries(), 3 * keys.len());
        assert_eq!(ssi.gc(Ts(10)), 1);
        assert_eq!(ssi.tracked(), 2);
        for k in &keys {
            assert_eq!(ssi.marks(k), vec![T2, T3], "{k:?}");
        }
        commit(&ssi, T3, &[], 10).unwrap();
        assert_eq!(ssi.gc(Ts(20)), 2);
        assert_eq!(ssi.siread_entries(), 0);
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
