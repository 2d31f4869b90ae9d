//! Small-model extraction of the engine's SSI/FCW commit protocol.
//!
//! The transition system mirrors `sicost_engine::ssi` (SIREAD marks,
//! rw-antidependency neighbours, the commit-ordering "pivot" rule) layered
//! over deferred first-committer-wins write validation (the
//! `CcMode::SiFirstCommitterWins` commit-time check in
//! `sicost_engine::txn`). Abstractions versus the real engine, chosen so
//! the state space is exhaustively checkable at ≈3 transactions × 2 keys:
//!
//! * **Commit is one atomic action.** The engine closes its
//!   validation→install window with commit *announcements*
//!   (`SsiManager::pre_commit`); with an atomic commit the window is
//!   empty, so announcements are unnecessary and the `committing` state
//!   collapses away, and with it the engine's rule that a committing
//!   writer counts as having committed first. The window itself is
//!   exercised by the DST torture harness (`tests/sim_torture.rs`) and
//!   the engine's own unit tests, not the model.
//! * **No GC**: committed records are never reclaimed, so the engine's
//!   rule that a reclaimed neighbour counts as dangerous never applies.
//! * **No read-your-own-write**: a transaction never reads a key after
//!   writing it (the engine answers those from the write set without
//!   touching SSI state, so they are protocol-irrelevant).
//! * **WW conflicts resolve at commit (FCW)** rather than eagerly at
//!   write time (FUW). Both enforce the same reachable commit outcomes
//!   under atomic commits; the SSI layer is identical in either mode.
//!
//! The `mark_rw` / `concurrent_with` / `committed_at` / `committed_first`
//! / `dangerous` logic below is a direct port of the identically named
//! functions in `crates/engine/src/ssi.rs` (neighbour lists become
//! bitmasks over transaction ids), and
//! `crates/sim/tests/ssi_crosscheck.rs` replays random action sequences
//! against the real `SsiManager` to keep the port honest.
//!
//! Invariants — named one-to-one with the TLA+ spec at
//! `specs/ssi/serializable_snapshot_isolation.tla`:
//!
//! * `FirstCommitterWins`: no two committed, temporally overlapping
//!   transactions wrote the same key.
//! * `SnapshotRead`: every read observed exactly the newest version at or
//!   below the reader's snapshot.
//! * `Serializable`: the multi-version serialization graph over committed
//!   transactions (ww ∪ wr ∪ rw edges) is acyclic.
//!
//! With `ssi_enabled = false` (plain snapshot isolation), exhaustive
//! exploration *must* find the classic write-skew cycle — the checker's
//! teeth are tested, not assumed.

use crate::model::{Invariant, Model};

/// Sentinel writer id for the initial (pre-history) version of each key.
pub const INIT_WRITER: u8 = u8::MAX;

/// Lifecycle of a modelled transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Not yet begun (not registered with the conflict tracker).
    NotStarted,
    /// Running with a snapshot.
    Active,
    /// Committed at the carried timestamp.
    Committed(u8),
    /// Aborted (removed from the conflict tracker).
    Aborted,
}

/// Per-transaction model state: the fields of `SsiTxn` that survive the
/// atomic-commit abstraction, plus the read/write sets. Like the engine's
/// record, an uncommitted transaction keeps its rw neighbours and a
/// committed one only `first_out`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TxnState {
    /// Lifecycle phase.
    pub phase: Phase,
    /// Snapshot timestamp (meaningful once `Active`).
    pub snapshot: u8,
    /// `(key, observed commit ts)` pairs, in read order.
    pub reads: Vec<(u8, u8)>,
    /// Keys written, in write order.
    pub writes: Vec<u8>,
    /// In-neighbours while uncommitted: bit `i` set for `i ──rw──▶ self`
    /// (`i` read a key this transaction writes).
    pub ins: u8,
    /// Out-neighbours while uncommitted: bit `i` set for `self ──rw──▶ i`.
    pub outs: u8,
    /// Once committed: the earliest commit timestamp among the
    /// out-neighbours that committed before it.
    pub first_out: Option<u8>,
    /// Doomed by a concurrent pivot detection; must abort.
    pub doomed: bool,
}

/// One state of the protocol model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Commit-timestamp clock (initial versions carry ts 0).
    pub clock: u8,
    /// The transactions, indexed by id.
    pub txns: Vec<TxnState>,
    /// Committed versions per key, ascending `(commit_ts, writer)`.
    pub versions: Vec<Vec<(u8, u8)>>,
    /// SIREAD marks per key, in mark order — mirrors the engine's
    /// `ReadShard::readers` so marking order (and therefore partial-mark
    /// outcomes) matches the implementation exactly.
    pub siread: Vec<Vec<u8>>,
}

/// One protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transaction begins, taking the current clock as its snapshot.
    Begin(u8),
    /// `Read(t, k)`: t reads key k at its snapshot.
    Read(u8, u8),
    /// `Write(t, k)`: t adds k to its write set (validation deferred).
    Write(u8, u8),
    /// `Commit(t)`: FCW validation, SSI validation, then atomic install —
    /// or abort, if either validation fails (also taken when doomed).
    Commit(u8),
}

/// The checkable model: `txns` transactions over `keys` keys, with the
/// SSI dangerous-structure rule on or off.
#[derive(Debug, Clone, Copy)]
pub struct SsiFcwModel {
    /// Number of transactions (state space is exponential in this; at
    /// most 8, since neighbour sets are `u8` bitmasks).
    pub txns: usize,
    /// Number of keys.
    pub keys: usize,
    /// `true`: full SSI (commit-ordering pivot rule); `false`: plain SI +
    /// FCW, which must exhibit write skew.
    pub ssi_enabled: bool,
}

impl SsiFcwModel {
    /// The default exhaustive configuration: 3 transactions × 2 keys.
    pub fn small(ssi_enabled: bool) -> Self {
        Self {
            txns: 3,
            keys: 2,
            ssi_enabled,
        }
    }
}

fn present(t: &TxnState) -> bool {
    matches!(t.phase, Phase::Active | Phase::Committed(_))
}

fn abortable(t: &TxnState) -> bool {
    // The model's atomic commit has no `committing` window, so abortable
    // simply means "not yet committed".
    matches!(t.phase, Phase::Active)
}

/// The commit time of a transaction that has not committed: later than
/// any real one.
const NEVER: u8 = u8::MAX;

/// The transaction ids set in a neighbour bitmask.
fn ids(mask: u8) -> impl Iterator<Item = usize> {
    (0..8).filter(move |i| mask >> i & 1 == 1)
}

/// Port of `sicost_engine::ssi::concurrent_with`: committed transactions
/// stay concurrent with anything that started at or before their commit
/// (inclusive tie — conservative); absent transactions are long gone.
fn concurrent_with(txns: &[TxnState], other: usize, start: u8) -> bool {
    match txns[other].phase {
        Phase::Active => true,
        Phase::Committed(c) => c >= start,
        Phase::NotStarted | Phase::Aborted => false,
    }
}

fn committed(t: &TxnState) -> bool {
    matches!(t.phase, Phase::Committed(_))
}

/// Port of `sicost_engine::ssi::committed_at`: when an in-neighbour
/// committed, [`NEVER`] while it has not.
fn committed_at(txns: &[TxnState], id: usize) -> u8 {
    match txns[id].phase {
        Phase::Committed(c) => c,
        _ => NEVER,
    }
}

/// Port of `sicost_engine::ssi::committed_first`: when an out-neighbour of
/// an uncommitted transaction committed, `None` while it is live.
fn committed_first(txns: &[TxnState], id: usize) -> Option<u8> {
    match txns[id].phase {
        Phase::Committed(c) => Some(c),
        _ => None,
    }
}

/// Port of `sicost_engine::ssi::dangerous`: did some out-neighbour of the
/// uncommitted `t` commit first, before some in-neighbour had committed?
fn dangerous(txns: &[TxnState], t: &TxnState) -> bool {
    let Some(first) = ids(t.outs).filter_map(|o| committed_first(txns, o)).min() else {
        return false;
    };
    ids(t.ins).any(|i| committed_at(txns, i) >= first)
}

/// Port of `sicost_engine::ssi::mark_rw`: records the rw-antidependency
/// `reader → writer` and judges both ends as pivots. `Err(())` means `me`
/// must abort now.
fn mark_rw(txns: &mut [TxnState], reader: usize, writer: usize, me: usize) -> Result<(), ()> {
    if reader == writer || !present(&txns[reader]) || !present(&txns[writer]) {
        return Ok(());
    }
    if !committed(&txns[reader]) {
        txns[reader].outs |= 1 << writer;
    }
    if !committed(&txns[writer]) {
        txns[writer].ins |= 1 << reader;
    }
    for t in [reader, writer] {
        let danger = if committed(&txns[t]) {
            // A committed transaction's out-neighbours were settled when it
            // committed; only a new in-edge can make it a pivot now.
            t == writer
                && txns[t]
                    .first_out
                    .is_some_and(|f| committed_at(txns, reader) >= f)
        } else {
            dangerous(txns, &txns[t])
        };
        if danger {
            if t == me {
                return Err(());
            }
            if abortable(&txns[t]) {
                txns[t].doomed = true;
            } else {
                return Err(());
            }
        }
    }
    Ok(())
}

/// Abort cleanup, mirroring `SsiManager::on_abort`: the transaction's
/// SIREAD marks and rw edges disappear and it stops being `present`.
fn abort(state: &mut State, t: usize) {
    state.txns[t].phase = Phase::Aborted;
    for marks in state.siread.iter_mut() {
        marks.retain(|&r| r as usize != t);
    }
    for other in state.txns.iter_mut() {
        other.ins &= !(1 << t);
        other.outs &= !(1 << t);
    }
    state.txns[t].ins = 0;
    state.txns[t].outs = 0;
}

impl State {
    fn observed_version(&self, key: usize, snapshot: u8) -> u8 {
        self.versions[key]
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= snapshot)
            .map(|(ts, _)| *ts)
            .expect("the initial version at ts 0 is always visible")
    }

    fn has_read(&self, t: usize, key: usize) -> bool {
        self.txns[t].reads.iter().any(|(k, _)| *k as usize == key)
    }

    fn has_written(&self, t: usize, key: usize) -> bool {
        self.txns[t].writes.iter().any(|k| *k as usize == key)
    }

    /// Committed transaction ids with their commit timestamps.
    fn committed(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.txns
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.phase {
                Phase::Committed(c) => Some((i, c)),
                _ => None,
            })
    }
}

impl Model for SsiFcwModel {
    type State = State;
    type Action = Action;

    fn init_states(&self) -> Vec<State> {
        vec![State {
            clock: 0,
            txns: vec![
                TxnState {
                    phase: Phase::NotStarted,
                    snapshot: 0,
                    reads: Vec::new(),
                    writes: Vec::new(),
                    ins: 0,
                    outs: 0,
                    first_out: None,
                    doomed: false,
                };
                self.txns
            ],
            versions: vec![vec![(0, INIT_WRITER)]; self.keys],
            siread: vec![Vec::new(); self.keys],
        }]
    }

    fn actions(&self, s: &State, out: &mut Vec<Action>) {
        for (i, t) in s.txns.iter().enumerate() {
            let i8 = i as u8;
            match t.phase {
                Phase::NotStarted => out.push(Action::Begin(i8)),
                Phase::Active => {
                    for k in 0..self.keys {
                        if !s.has_read(i, k) && !s.has_written(i, k) {
                            out.push(Action::Read(i8, k as u8));
                        }
                        if !s.has_written(i, k) {
                            out.push(Action::Write(i8, k as u8));
                        }
                    }
                    out.push(Action::Commit(i8));
                }
                Phase::Committed(_) | Phase::Aborted => {}
            }
        }
    }

    fn next_state(&self, s: &State, action: &Action) -> Option<State> {
        let mut n = s.clone();
        match *action {
            Action::Begin(t) => {
                let t = t as usize;
                n.txns[t].phase = Phase::Active;
                n.txns[t].snapshot = n.clock;
            }
            Action::Read(t, k) => {
                let (t, k) = (t as usize, k as usize);
                let snapshot = n.txns[t].snapshot;
                let observed = n.observed_version(k, snapshot);
                // Mirrors SsiManager::on_read: mark SIREAD, record the
                // read, fail if doomed, then mark rw edges against the
                // writers of committed versions newer than the observed
                // one. (No announcements: commits are atomic here.)
                if n.siread[k].last() != Some(&(t as u8)) {
                    n.siread[k].push(t as u8);
                }
                n.txns[t].reads.push((k as u8, observed));
                if self.ssi_enabled {
                    if n.txns[t].doomed {
                        abort(&mut n, t);
                        return Some(n);
                    }
                    let newer: Vec<usize> = n.versions[k]
                        .iter()
                        .filter(|(ts, w)| *ts > snapshot && *w != INIT_WRITER)
                        .map(|(_, w)| *w as usize)
                        .collect();
                    for w in newer {
                        if mark_rw(&mut n.txns, t, w, t).is_err() {
                            abort(&mut n, t);
                            return Some(n);
                        }
                    }
                }
            }
            Action::Write(t, k) => {
                let (t, k) = (t as usize, k as usize);
                // Mirrors SsiManager::on_write: drop t's own mark on k (the
                // write supersedes it), fail if doomed, then mark rw edges
                // from every concurrent SIREAD holder. The write itself
                // defers WW validation to commit (FCW).
                if self.ssi_enabled {
                    n.siread[k].retain(|&r| r as usize != t);
                    if n.txns[t].doomed {
                        abort(&mut n, t);
                        return Some(n);
                    }
                    let my_start = n.txns[t].snapshot;
                    let readers: Vec<usize> = n.siread[k].iter().map(|&r| r as usize).collect();
                    for r in readers {
                        if concurrent_with(&n.txns, r, my_start)
                            && mark_rw(&mut n.txns, r, t, t).is_err()
                        {
                            abort(&mut n, t);
                            return Some(n);
                        }
                    }
                }
                n.txns[t].writes.push(k as u8);
            }
            Action::Commit(t) => {
                let t = t as usize;
                let snapshot = n.txns[t].snapshot;
                // 1. Deferred first-committer-wins validation (the
                //    CcMode::SiFirstCommitterWins commit-time check): a
                //    committed version newer than our snapshot on any
                //    written key aborts us.
                let fcw_conflict = n.txns[t]
                    .writes
                    .iter()
                    .any(|&k| n.versions[k as usize].iter().any(|(ts, _)| *ts > snapshot));
                if fcw_conflict {
                    abort(&mut n, t);
                    return Some(n);
                }
                if self.ssi_enabled {
                    // 2. SsiManager::pre_commit: pre-check the pivot rule,
                    //    re-mark reader edges for the write set, re-check,
                    //    then doom every pivot `p ──rw──▶ t` that still has
                    //    an uncommitted in-neighbour. (Sorted/deduped
                    //    readers — the engine sorts by TxnId, which is
                    //    registration order.)
                    let me = &n.txns[t];
                    if me.doomed || dangerous(&n.txns, me) {
                        abort(&mut n, t);
                        return Some(n);
                    }
                    let mut readers: Vec<usize> = Vec::new();
                    for &k in &n.txns[t].writes {
                        readers.extend(
                            n.siread[k as usize]
                                .iter()
                                .map(|&r| r as usize)
                                .filter(|&r| r != t),
                        );
                    }
                    readers.sort_unstable();
                    readers.dedup();
                    for r in readers {
                        if concurrent_with(&n.txns, r, snapshot)
                            && mark_rw(&mut n.txns, r, t, t).is_err()
                        {
                            abort(&mut n, t);
                            return Some(n);
                        }
                    }
                    let me = &n.txns[t];
                    if me.doomed || dangerous(&n.txns, me) {
                        abort(&mut n, t);
                        return Some(n);
                    }
                    // Every uncommitted pivot is abortable here (no
                    // committing window), so none forces t to abort.
                    let pivots: Vec<usize> = ids(me.ins)
                        .filter(|&p| {
                            !committed(&n.txns[p])
                                && ids(n.txns[p].ins).any(|i| committed_at(&n.txns, i) == NEVER)
                        })
                        .collect();
                    for p in pivots {
                        n.txns[p].doomed = true;
                    }
                }
                // 3. Atomic install. Read-only transactions commit at
                //    their snapshot (as the engine does).
                let cts = if n.txns[t].writes.is_empty() {
                    snapshot
                } else {
                    n.clock += 1;
                    for k in n.txns[t].writes.clone() {
                        n.versions[k as usize].push((n.clock, t as u8));
                    }
                    n.clock
                };
                // 4. SsiManager::finish_commit: the neighbours give way to
                //    their summary.
                n.txns[t].first_out = ids(n.txns[t].outs)
                    .filter_map(|o| committed_first(&n.txns, o))
                    .filter(|&c| c < cts)
                    .min();
                n.txns[t].ins = 0;
                n.txns[t].outs = 0;
                n.txns[t].phase = Phase::Committed(cts);
            }
        }
        Some(n)
    }

    fn invariants(&self) -> Vec<Invariant<State>> {
        vec![
            Invariant {
                name: "FirstCommitterWins",
                check: inv_first_committer_wins,
            },
            Invariant {
                name: "SnapshotRead",
                check: inv_snapshot_read,
            },
            Invariant {
                name: "Serializable",
                check: inv_serializable,
            },
        ]
    }
}

/// No two committed, temporally overlapping transactions share a written
/// key. Overlap: each began before the other committed.
fn inv_first_committer_wins(s: &State) -> bool {
    let committed: Vec<(usize, u8)> = s.committed().collect();
    for (a, (i, ci)) in committed.iter().enumerate() {
        for (j, cj) in committed.iter().skip(a + 1) {
            let (ti, tj) = (&s.txns[*i], &s.txns[*j]);
            let overlap = ti.snapshot < *cj && tj.snapshot < *ci;
            if !overlap {
                continue;
            }
            if ti.writes.iter().any(|k| tj.writes.contains(k)) {
                return false;
            }
        }
    }
    true
}

/// Every read of a live (non-aborted) transaction observed exactly the
/// newest version at or below its snapshot. Commit timestamps are strictly
/// above every snapshot taken before them, so checking against the final
/// version list is equivalent to checking at read time.
fn inv_snapshot_read(s: &State) -> bool {
    s.txns
        .iter()
        .filter(|t| !matches!(t.phase, Phase::Aborted))
        .all(|t| {
            t.reads
                .iter()
                .all(|&(k, observed)| s.observed_version(k as usize, t.snapshot) == observed)
        })
}

/// The multi-version serialization graph over committed transactions is
/// acyclic. Edges per key: ww (commit order among writers), wr (version
/// writer → its readers), rw (reader → writers of newer versions).
fn inv_serializable(s: &State) -> bool {
    let nodes: Vec<usize> = s.committed().map(|(i, _)| i).collect();
    let index_of = |t: usize| nodes.iter().position(|&n| n == t);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let add = |from: usize, to: usize, adj: &mut Vec<Vec<usize>>| {
        if from != to {
            if let (Some(f), Some(t)) = (index_of(from), index_of(to)) {
                if !adj[f].contains(&t) {
                    adj[f].push(t);
                }
            }
        }
    };

    for k in 0..s.versions.len() {
        let versions = &s.versions[k];
        // ww: version order is commit order.
        for (a, (_, wa)) in versions.iter().enumerate() {
            for (_, wb) in versions.iter().skip(a + 1) {
                if *wa != INIT_WRITER && *wb != INIT_WRITER {
                    add(*wa as usize, *wb as usize, &mut adj);
                }
            }
        }
        for &reader in &nodes {
            for &(k2, observed) in &s.txns[reader].reads {
                if k2 as usize != k {
                    continue;
                }
                // wr: the writer of the observed version → the reader.
                if let Some((_, w)) = s.versions[k].iter().find(|(ts, _)| *ts == observed) {
                    if *w != INIT_WRITER {
                        add(*w as usize, reader, &mut adj);
                    }
                }
                // rw: the reader → writers of newer versions.
                for (ts, w) in versions {
                    if *ts > observed && *w != INIT_WRITER {
                        add(reader, *w as usize, &mut adj);
                    }
                }
            }
        }
    }

    // DFS three-colour cycle detection.
    fn has_cycle(adj: &[Vec<usize>]) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        fn visit(n: usize, adj: &[Vec<usize>], colour: &mut [Colour]) -> bool {
            colour[n] = Colour::Grey;
            for &m in &adj[n] {
                match colour[m] {
                    Colour::Grey => return true,
                    Colour::White => {
                        if visit(m, adj, colour) {
                            return true;
                        }
                    }
                    Colour::Black => {}
                }
            }
            colour[n] = Colour::Black;
            false
        }
        let mut colour = vec![Colour::White; adj.len()];
        for n in 0..adj.len() {
            if colour[n] == Colour::White && visit(n, adj, &mut colour) {
                return true;
            }
        }
        false
    }

    !has_cycle(&adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_bfs;

    const BUDGET: u64 = 5_000_000;

    #[test]
    fn ssi_small_model_is_exhaustively_safe() {
        let model = SsiFcwModel::small(true);
        let report = check_bfs(&model, BUDGET);
        assert!(report.complete, "budget must cover the small model");
        if let Some(v) = &report.violation {
            panic!("SSI/FCW violated an invariant:\n{}", v.render());
        }
        assert!(
            report.explored > 1_000,
            "suspiciously small state space: {}",
            report.explored
        );
        assert!(report.pruned > 0);
    }

    #[test]
    fn plain_si_exhibits_write_skew() {
        let model = SsiFcwModel::small(false);
        let report = check_bfs(&model, BUDGET);
        let v = report
            .violation
            .expect("plain SI + FCW must show the write-skew anomaly");
        assert_eq!(
            v.invariant,
            "Serializable",
            "FCW and SnapshotRead hold under SI; only acyclicity breaks:\n{}",
            v.render()
        );
        // The counterexample must be genuine write skew: two committed
        // transactions with crossing read→write dependencies and disjoint
        // write sets (so FCW could not have stopped them).
        let state = v.state();
        let committed: Vec<usize> = state.committed().map(|(i, _)| i).collect();
        assert!(
            committed.len() >= 2,
            "need two committed txns:\n{}",
            v.render()
        );
        let crossing = committed.iter().any(|&i| {
            committed.iter().any(|&j| {
                i != j
                    && state.txns[i]
                        .reads
                        .iter()
                        .any(|(k, _)| state.txns[j].writes.contains(k))
                    && state.txns[j]
                        .reads
                        .iter()
                        .any(|(k, _)| state.txns[i].writes.contains(k))
                    && !state.txns[i]
                        .writes
                        .iter()
                        .any(|k| state.txns[j].writes.contains(k))
            })
        });
        assert!(crossing, "not a write-skew shape:\n{}", v.render());
    }

    #[test]
    fn fcw_blocks_concurrent_writers_regardless_of_ssi() {
        // Hand-driven: T0 and T1 both write key 0 concurrently; the
        // second committer must abort.
        let model = SsiFcwModel {
            txns: 2,
            keys: 1,
            ssi_enabled: false,
        };
        let s0 = model.init_states().remove(0);
        let s = model.next_state(&s0, &Action::Begin(0)).unwrap();
        let s = model.next_state(&s, &Action::Begin(1)).unwrap();
        let s = model.next_state(&s, &Action::Write(0, 0)).unwrap();
        let s = model.next_state(&s, &Action::Write(1, 0)).unwrap();
        let s = model.next_state(&s, &Action::Commit(0)).unwrap();
        assert!(matches!(s.txns[0].phase, Phase::Committed(_)));
        let s = model.next_state(&s, &Action::Commit(1)).unwrap();
        assert_eq!(s.txns[1].phase, Phase::Aborted, "first committer wins");
        assert!(inv_first_committer_wins(&s));
    }

    fn outcome_counts(s: &State) -> (usize, usize) {
        let committed = s
            .txns
            .iter()
            .filter(|t| matches!(t.phase, Phase::Committed(_)))
            .count();
        let aborted = s.txns.iter().filter(|t| t.phase == Phase::Aborted).count();
        (committed, aborted)
    }

    #[test]
    fn ssi_never_commits_both_sides_of_a_write_skew() {
        // T0: r(k0) w(k1); T1: r(k1) w(k0). With both writes before
        // either commit, each is the other's in- and out-neighbour, and
        // neither is in danger until one commits: T0's commit dooms T1,
        // the pivot whose out-neighbour committed first.
        let model = SsiFcwModel {
            txns: 2,
            keys: 2,
            ssi_enabled: true,
        };
        let s0 = model.init_states().remove(0);
        let s = model.next_state(&s0, &Action::Begin(0)).unwrap();
        let s = model.next_state(&s, &Action::Begin(1)).unwrap();
        let s = model.next_state(&s, &Action::Read(0, 0)).unwrap();
        let s = model.next_state(&s, &Action::Read(1, 1)).unwrap();
        let s = model.next_state(&s, &Action::Write(0, 1)).unwrap();
        let s = model.next_state(&s, &Action::Write(1, 0)).unwrap();
        let s = model.next_state(&s, &Action::Commit(0)).unwrap();
        let s = model.next_state(&s, &Action::Commit(1)).unwrap();
        let (committed, aborted) = outcome_counts(&s);
        assert_eq!(
            (committed, aborted),
            (1, 1),
            "SSI must commit exactly the first committer: {s:?}"
        );
        assert!(inv_serializable(&s));
    }

    #[test]
    fn ssi_aborts_the_straggler_when_the_pivot_committed_first() {
        // Same skew, but T0 commits before T1 writes: T1's write makes it
        // a pivot whose out-neighbour T0 committed first, and T0 is also
        // its (committed, so unabortable) in-neighbour — so T1's write
        // must fail: exactly one commit, one abort.
        let model = SsiFcwModel {
            txns: 2,
            keys: 2,
            ssi_enabled: true,
        };
        let s0 = model.init_states().remove(0);
        let s = model.next_state(&s0, &Action::Begin(0)).unwrap();
        let s = model.next_state(&s, &Action::Begin(1)).unwrap();
        let s = model.next_state(&s, &Action::Read(0, 0)).unwrap();
        let s = model.next_state(&s, &Action::Read(1, 1)).unwrap();
        let s = model.next_state(&s, &Action::Write(0, 1)).unwrap();
        let s = model.next_state(&s, &Action::Commit(0)).unwrap();
        let s = model.next_state(&s, &Action::Write(1, 0)).unwrap();
        let (committed, aborted) = outcome_counts(&s);
        assert_eq!(
            (committed, aborted),
            (1, 1),
            "the straggler must die at its write: {s:?}"
        );
        assert!(inv_serializable(&s));
    }

    /// Terminal states (no action enabled) of the reachable space in which
    /// every transaction aborted.
    fn all_aborted_terminal_states(model: &SsiFcwModel) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = model.init_states();
        let mut actions = Vec::new();
        let mut count = 0;
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            actions.clear();
            model.actions(&s, &mut actions);
            if actions.is_empty() && s.txns.iter().all(|t| t.phase == Phase::Aborted) {
                count += 1;
            }
            stack.extend(actions.iter().filter_map(|a| model.next_state(&s, a)));
        }
        count
    }

    #[test]
    fn commit_ordering_never_aborts_both_of_two_transactions() {
        // The eager rule, which aborted any transaction holding both an
        // in- and an out-edge whatever the commit order, ended 560
        // terminal states of this space with both transactions aborted:
        // a write skew could doom one side and abort the other before
        // either committed. Under the commit-ordering rule nothing aborts
        // before the first commit, so the first committer survives.
        let model = SsiFcwModel {
            txns: 2,
            keys: 2,
            ssi_enabled: true,
        };
        assert_eq!(all_aborted_terminal_states(&model), 0);
    }
}
