//! SSI's write-supersedes-read rule on a real `Database`, driven from one
//! thread: a write drops the writer's own SIREAD mark on the row it
//! writes, and never the relation mark a scan leaves. The write-skew pair
//! runs in every interleaving of its steps, alone and beside a read-only
//! third session; the MVSG certifies every committed history, and the two
//! writers never both commit while concurrent. One named order pins the
//! relation mark, which the MVSG cannot see.
//!
//! A `Begin` takes a transaction id and a snapshot and touches no row,
//! mark or lock, so moving it later past another session's read or write
//! changes nothing (past a `Commit`, which moves the clock, or another
//! `Begin`, which would swap the ids, it does). Of the interleavings that
//! differ only so, the one with each such `Begin` placed latest runs: a
//! `Begin` is followed by its own session's step, a `Begin` or a `Commit`.

use sicost::engine::{CcMode, Database, EngineConfig, SerializationKind, Transaction, TxnError};
use sicost::mvsg::{History, Mvsg};
use sicost::storage::{ColumnDef, ColumnType, Predicate, Row, TableSchema, Value};
use std::collections::HashMap;
use std::sync::Arc;

const X: i64 = 0;
const Y: i64 = 1;

#[derive(Debug, Clone, Copy)]
enum Step {
    Begin,
    Read(i64),
    Write(i64),
    Scan,
    Insert(i64),
    Commit,
}

use Step::*;

/// `b, r(x), r(y), w(x), c` and `b, r(x), r(y), w(y), c`: each writes a
/// row the other read.
const SKEW_PAIR: [&[Step]; 2] = [
    &[Begin, Read(X), Read(Y), Write(X), Commit],
    &[Begin, Read(X), Read(Y), Write(Y), Commit],
];
const READ_ONLY: &[Step] = &[Begin, Read(X), Read(Y), Commit];

/// What one schedule left behind.
struct Outcome {
    committed: Vec<bool>,
    serializable: bool,
}

/// A three-row table under SSI whose history `history` records.
fn database(history: &Arc<History>) -> Database {
    let schema = TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Int),
        ],
        0,
        vec![],
    )
    .unwrap();
    let db = Database::builder()
        .table(schema)
        .unwrap()
        .config(EngineConfig::functional().with_cc(CcMode::Ssi))
        .observer(history.clone())
        .build();
    let t = db.table_id("T").unwrap();
    db.bulk_load(
        t,
        (0..3).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
    )
    .unwrap();
    db
}

/// Runs the sessions' steps in `order` (one session index per step) on a
/// fresh database. `None` when a step would block on a row lock another
/// live session holds. A step that fails must fail with an SSI abort,
/// which ends its session.
fn run(sessions: &[&[Step]], order: &[usize]) -> Option<Outcome> {
    let history = History::new();
    let db = database(&history);
    let t = db.table_id("T").unwrap();
    let mut txns: Vec<Option<Transaction<'_>>> = sessions.iter().map(|_| None).collect();
    let mut next = vec![0; sessions.len()];
    let mut committed = vec![false; sessions.len()];
    let mut row_locks: HashMap<i64, usize> = HashMap::new();
    for &s in order {
        let step = sessions[s][next[s]];
        next[s] += 1;
        if let Begin = step {
            txns[s] = Some(db.begin());
            continue;
        }
        if let Write(k) | Insert(k) = step {
            if row_locks
                .get(&k)
                .is_some_and(|&w| w != s && txns[w].is_some())
            {
                return None;
            }
            row_locks.insert(k, s);
        }
        let Some(tx) = txns[s].as_mut() else {
            continue;
        };
        let row = |k: i64| Row::new(vec![Value::int(k), Value::int(s as i64 + 1)]);
        let result: Result<(), TxnError> = match step {
            Begin => unreachable!("handled above"),
            Read(k) => tx.read(t, &Value::int(k)).map(drop),
            Write(k) => tx.update(t, &Value::int(k), row(k)),
            Scan => tx.scan(t, &Predicate::True).map(drop),
            Insert(k) => tx.insert(t, row(k)),
            Commit => {
                let tx = txns[s].take().expect("live");
                tx.commit().map(|_| committed[s] = true)
            }
        };
        if let Err(e) = result {
            assert_eq!(
                e,
                TxnError::Serialization(SerializationKind::SsiPivot),
                "session {s} in order {order:?}"
            );
            txns[s] = None;
        }
    }
    Some(Outcome {
        committed,
        serializable: Mvsg::from_events(&history.events()).is_serializable(),
    })
}

/// Calls `visit` with every interleaving of the sessions' remaining steps
/// (`left[s]` of session `s`) in which no `Begin` is followed by another
/// session's read or write.
fn interleavings(
    sessions: &[&[Step]],
    left: &mut [usize],
    order: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if left.iter().all(|&n| n == 0) {
        visit(order);
        return;
    }
    let next = |s: usize, left: &[usize]| sessions[s][sessions[s].len() - left[s]];
    let begun = order
        .last()
        .copied()
        .filter(|&p| matches!(sessions[p][sessions[p].len() - left[p] - 1], Begin));
    for s in 0..left.len() {
        if left[s] == 0 || begun.is_some_and(|p| p != s && !matches!(next(s, left), Begin | Commit))
        {
            continue;
        }
        left[s] -= 1;
        order.push(s);
        interleavings(sessions, left, order, visit);
        order.pop();
        left[s] += 1;
    }
}

/// Runs the interleavings of `sessions`; returns how many ran (none
/// blocked) and the orders whose history the MVSG rejects or that commit
/// the writers (sessions 0 and 1) while concurrent.
fn every_interleaving(sessions: &[&[Step]]) -> (usize, Vec<Vec<usize>>) {
    let mut left: Vec<usize> = sessions.iter().map(|s| s.len()).collect();
    let (mut ran, mut failures) = (0, Vec::new());
    interleavings(sessions, &mut left, &mut Vec::new(), &mut |order| {
        let Some(outcome) = run(sessions, order) else {
            return;
        };
        ran += 1;
        // A session is live from its first step to its last.
        let live = |s: usize| {
            let begin = order.iter().position(|&x| x == s).expect("begins");
            let end = order.iter().rposition(|&x| x == s).expect("ends");
            (begin, end)
        };
        let ((b0, e0), (b1, e1)) = (live(0), live(1));
        let both = outcome.committed[0] && outcome.committed[1];
        if !outcome.serializable || (both && b0 < e1 && b1 < e0) {
            failures.push(order.to_vec());
        }
    });
    (ran, failures)
}

/// Runs the interleavings of `sessions` and checks that `expected` ran
/// with no violation.
fn assert_safe(sessions: &[&[Step]], expected: usize) {
    let (ran, failures) = every_interleaving(sessions);
    assert_eq!(ran, expected, "interleavings run, none blocks");
    assert!(
        failures.is_empty(),
        "{} violations, first in order {:?}",
        failures.len(),
        failures.first()
    );
}

#[test]
fn every_interleaving_of_the_write_skew_pair_is_safe() {
    assert_safe(&SKEW_PAIR, 142);
}

#[test]
fn a_read_only_third_session_changes_nothing() {
    assert_safe(&[SKEW_PAIR[0], SKEW_PAIR[1], READ_ONLY], 72_886);
}

/// Both sessions scan the table, and each then inserts a new row the other
/// scan would have returned: each writes into the other's predicate read.
/// Only the relation mark, which a writer keeps, raises those edges, and
/// the MVSG does not see them, so the test counts commits.
#[test]
fn a_scan_keeps_its_relation_mark_through_its_own_insert() {
    let sessions: [&[Step]; 2] = [
        &[Begin, Scan, Insert(3), Commit],
        &[Begin, Scan, Insert(4), Commit],
    ];
    for order in [[0, 1, 0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1, 0]] {
        let outcome = run(&sessions, &order).expect("no row is written twice");
        let commits = outcome.committed.iter().filter(|&&c| c).count();
        assert_eq!(commits, 1, "order {order:?}: exactly one commits");
    }
}
