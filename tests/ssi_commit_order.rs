//! SSI's commit-ordering rule on a real `Database`, driven from one
//! thread. `T1 ──rw──▶ T2 ──rw──▶ T3` runs in every commit order of the
//! three, and only an order in which T3 commits first may abort anyone;
//! for a read-only T1, only one whose snapshot saw T3's commit. A write
//! skew still aborts one side, and the MVSG certifies every committed
//! history.

use sicost::engine::{CcMode, Database, EngineConfig, SerializationKind, Transaction, TxnError};
use sicost::mvsg::{History, Mvsg};
use sicost::storage::{ColumnDef, ColumnType, Row, TableSchema, Value};
use std::sync::Arc;

/// T1 reads it and T2 writes it: `T1 ──rw──▶ T2`.
const X: i64 = 0;
/// T2 reads it and T3 writes it: `T2 ──rw──▶ T3`.
const Y: i64 = 1;
/// Written by T1 when T1 is a writer.
const Z: i64 = 2;

const T1: usize = 0;
const T2: usize = 1;
const T3: usize = 2;

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

/// Transactions driven one step at a time. A step that fails must fail
/// with an SSI abort, which ends its transaction.
struct Sessions<'db> {
    db: &'db Database,
    txns: Vec<Option<Transaction<'db>>>,
    aborted: Vec<usize>,
}

impl<'db> Sessions<'db> {
    fn new(db: &'db Database, n: usize) -> Self {
        Self {
            db,
            txns: (0..n).map(|_| None).collect(),
            aborted: Vec::new(),
        }
    }

    fn begin(&mut self, s: usize) {
        self.txns[s] = Some(self.db.begin());
    }

    fn step(&mut self, s: usize, op: impl FnOnce(&mut Transaction<'db>) -> Result<(), TxnError>) {
        if let Some(tx) = self.txns[s].as_mut() {
            if let Err(e) = op(tx) {
                self.failed(s, e);
            }
        }
    }

    fn read(&mut self, s: usize, key: i64) {
        let t = self.db.table_id("T").unwrap();
        self.step(s, |tx| tx.read(t, &Value::int(key)).map(drop));
    }

    fn write(&mut self, s: usize, key: i64) {
        let t = self.db.table_id("T").unwrap();
        let row = Row::new(vec![Value::int(key), Value::int(s as i64 + 1)]);
        self.step(s, |tx| tx.update(t, &Value::int(key), row));
    }

    fn commit(&mut self, s: usize) {
        if let Some(tx) = self.txns[s].take() {
            if let Err(e) = tx.commit() {
                self.failed(s, e);
            }
        }
    }

    fn failed(&mut self, s: usize, e: TxnError) {
        assert_eq!(
            e,
            TxnError::Serialization(SerializationKind::SsiPivot),
            "transaction {s}"
        );
        self.txns[s] = None;
        self.aborted.push(s);
    }
}

fn certify(history: &History) {
    assert!(
        Mvsg::from_events(&history.events()).is_serializable(),
        "a committed history must certify"
    );
}

/// Builds both edges with all three live, then commits in `order`;
/// returns the aborted transactions.
fn chain_committed_in(order: [usize; 3]) -> Vec<usize> {
    let history = History::new();
    let db = database(&history);
    let mut s = Sessions::new(&db, 3);
    for t in [T1, T2, T3] {
        s.begin(t);
    }
    s.read(T1, X);
    s.read(T2, Y);
    s.write(T2, X);
    s.write(T3, Y);
    s.write(T1, Z);
    for t in order {
        s.commit(t);
    }
    certify(&history);
    s.aborted
}

#[test]
fn a_pivot_aborts_only_when_its_out_neighbour_commits_first() {
    let orders = [
        [T1, T2, T3],
        [T1, T3, T2],
        [T2, T1, T3],
        [T2, T3, T1],
        [T3, T1, T2],
        [T3, T2, T1],
    ];
    for order in orders {
        let aborted = chain_committed_in(order);
        if order[0] == T3 {
            assert_eq!(aborted, vec![T2], "{order:?}: T3 first dooms the pivot");
        } else {
            assert!(aborted.is_empty(), "{order:?}: aborted {aborted:?}");
        }
    }
}

/// T3 commits first, and then a read-only T1 reads X and commits before
/// T2 writes X. If T1's snapshot predates T3's commit, the structure is
/// safe and T2 commits. If T1 began after T3 committed and read T3's Y,
/// T1 has seen T3 but not T2 while T2 precedes T3: T2 must abort. (A
/// transaction is known to be read-only only once it commits, so T1
/// commits before the structure is judged.)
#[test]
fn a_read_only_t1_aborts_the_pivot_only_if_its_snapshot_saw_t3() {
    for t1_sees_t3 in [false, true] {
        let history = History::new();
        let db = database(&history);
        let mut s = Sessions::new(&db, 3);
        s.begin(T2);
        s.begin(T3);
        if !t1_sees_t3 {
            s.begin(T1);
        }
        s.read(T2, Y);
        s.write(T3, Y);
        s.commit(T3);
        if t1_sees_t3 {
            s.begin(T1);
            s.read(T1, Y);
        }
        s.read(T1, X);
        s.commit(T1);
        s.write(T2, X);
        s.commit(T2);
        let expected = if t1_sees_t3 { vec![T2] } else { vec![] };
        assert_eq!(s.aborted, expected, "T1 saw T3: {t1_sees_t3}");
        certify(&history);
    }
}

/// Both read X and Y; one writes X, the other Y. Each is the other's in-
/// and out-neighbour, so whichever commits first dooms the other.
#[test]
fn a_write_skew_aborts_the_second_committer() {
    for first in [T1, T2] {
        let history = History::new();
        let db = database(&history);
        let mut s = Sessions::new(&db, 2);
        for t in [T1, T2] {
            s.begin(t);
            s.read(t, X);
            s.read(t, Y);
        }
        s.write(T1, X);
        s.write(T2, Y);
        let second = T1 + T2 - first;
        s.commit(first);
        s.commit(second);
        assert_eq!(s.aborted, vec![second], "{first} committed first");
        certify(&history);
    }
}
