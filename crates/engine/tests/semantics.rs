//! Cross-thread semantics tests for the engine: these pin down exactly the
//! behaviours the paper's analysis relies on.

use sicost_common::Ts;
use sicost_engine::{CcMode, Database, EngineConfig, SerializationKind, SfuSemantics, TxnError};
use sicost_storage::{
    Catalog, ColumnDef, ColumnType, Predicate, Row, StoragePolicy, TableSchema, Value,
};
use std::sync::mpsc;
use std::time::Duration;

fn schema() -> TableSchema {
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

fn db_with(config: EngineConfig) -> Database {
    let db = Database::builder()
        .table(schema())
        .unwrap()
        .config(config)
        .build();
    let tid = db.table_id("T").unwrap();
    db.bulk_load(
        tid,
        (0..10).map(|i| Row::new(vec![Value::int(i), Value::int(100)])),
    )
    .unwrap();
    db
}

fn row(id: i64, v: i64) -> Row {
    Row::new(vec![Value::int(id), Value::int(v)])
}

fn read_v(db: &Database, id: i64) -> i64 {
    let tid = db.table_id("T").unwrap();
    let mut tx = db.begin();
    let r = tx.read(tid, &Value::int(id)).unwrap().unwrap();
    tx.commit().unwrap();
    r.int(1)
}

#[test]
fn snapshot_reads_are_stable() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();

    let mut t1 = db.begin();
    assert_eq!(t1.read(tid, &Value::int(1)).unwrap().unwrap().int(1), 100);

    // A concurrent writer commits a new version.
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 200)).unwrap();
    t2.commit().unwrap();

    // T1 still sees its snapshot.
    assert_eq!(t1.read(tid, &Value::int(1)).unwrap().unwrap().int(1), 100);
    t1.commit().unwrap();

    // A fresh transaction sees the new version.
    assert_eq!(read_v(&db, 1), 200);
}

#[test]
fn fuw_aborts_immediately_on_stale_write() {
    let db = db_with(EngineConfig::functional()); // FUW
    let tid = db.table_id("T").unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 200)).unwrap();
    t2.commit().unwrap();

    // T1's snapshot predates T2's commit: the write must die at once.
    let err = t1.update(tid, &Value::int(1), row(1, 300)).unwrap_err();
    assert_eq!(
        err,
        TxnError::Serialization(SerializationKind::FirstUpdaterWins)
    );
    // Poisoned: everything else fails with Inactive.
    assert_eq!(
        t1.read(tid, &Value::int(2)).unwrap_err(),
        TxnError::Inactive
    );
    assert_eq!(t1.commit().unwrap_err(), TxnError::Inactive);
    assert_eq!(db.metrics().aborts_first_updater, 1);
}

#[test]
fn fuw_waiter_aborts_when_holder_commits() {
    let db_owner = db_with(EngineConfig::functional());
    let db = &db_owner;
    let tid = db.table_id("T").unwrap();

    std::thread::scope(|s| {
        let mut t1 = db.begin();
        t1.update(tid, &Value::int(1), row(1, 200)).unwrap();

        let (started_tx, started_rx) = mpsc::channel();
        let handle = s.spawn(move || {
            let mut t2 = db.begin();
            started_tx.send(()).unwrap();
            // Blocks on T1's row lock, then must abort because T1 commits.
            let r = t2.update(tid, &Value::int(1), row(1, 300));
            (r, t2.commit())
        });
        started_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        t1.commit().unwrap();
        let (write_result, commit_result) = handle.join().unwrap();
        assert_eq!(
            write_result.unwrap_err(),
            TxnError::Serialization(SerializationKind::FirstUpdaterWins)
        );
        assert_eq!(commit_result.unwrap_err(), TxnError::Inactive);
    });
    assert_eq!(read_v(db, 1), 200, "only the first updater's write lands");
}

#[test]
fn fuw_waiter_proceeds_when_holder_aborts() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();

    std::thread::scope(|s| {
        let mut t1 = db.begin();
        t1.update(tid, &Value::int(1), row(1, 200)).unwrap();

        let handle = s.spawn(|| {
            let mut t2 = db.begin();
            let r = t2.update(tid, &Value::int(1), row(1, 300));
            r.and_then(|_| t2.commit())
        });
        std::thread::sleep(Duration::from_millis(50));
        t1.rollback();
        assert!(handle.join().unwrap().is_ok());
    });
    assert_eq!(read_v(&db, 1), 300);
}

#[test]
fn fcw_validates_lazily_at_commit() {
    let cfg = EngineConfig::functional().with_cc(CcMode::SiFirstCommitterWins);
    let db = db_with(cfg);
    let tid = db.table_id("T").unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 200)).unwrap();
    t2.commit().unwrap();

    // Under FCW the stale write is *accepted*…
    t1.update(tid, &Value::int(1), row(1, 300)).unwrap();
    // …and the transaction dies at commit instead.
    assert_eq!(
        t1.commit().unwrap_err(),
        TxnError::Serialization(SerializationKind::FirstCommitterWins)
    );
    assert_eq!(db.metrics().aborts_first_committer, 1);
    assert_eq!(read_v(&db, 1), 200);
}

/// The paper's premise: plain SI admits write skew. Two transactions each
/// read both of {x, y} and write the other one; both commit.
#[test]
fn write_skew_admitted_under_si() {
    for cc in [CcMode::SiFirstUpdaterWins, CcMode::SiFirstCommitterWins] {
        let db = db_with(EngineConfig::functional().with_cc(cc));
        let tid = db.table_id("T").unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let x1 = t1.read(tid, &Value::int(1)).unwrap().unwrap().int(1);
        let y1 = t1.read(tid, &Value::int(2)).unwrap().unwrap().int(1);
        let x2 = t2.read(tid, &Value::int(1)).unwrap().unwrap().int(1);
        let y2 = t2.read(tid, &Value::int(2)).unwrap().unwrap().int(1);
        // Each withdraws 150 from "its" account if the *sum* allows it —
        // the constraint sum >= 0 holds per transaction but not jointly.
        assert!(x1 + y1 >= 150 && x2 + y2 >= 150);
        t1.update(tid, &Value::int(1), row(1, x1 - 150)).unwrap();
        t2.update(tid, &Value::int(2), row(2, y2 - 150)).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        // Joint constraint violated: that is write skew.
        assert_eq!(read_v(&db, 1) + read_v(&db, 2), -100, "cc={cc:?}");
    }
}

/// The engine-side fix: SSI aborts one of the write-skew pair.
#[test]
fn write_skew_blocked_under_ssi() {
    let db = db_with(EngineConfig::functional().with_cc(CcMode::Ssi));
    let tid = db.table_id("T").unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let r1 = (|| -> Result<(), TxnError> {
        let x = t1.read(tid, &Value::int(1))?.unwrap().int(1);
        let _y = t1.read(tid, &Value::int(2))?.unwrap().int(1);
        t1.update(tid, &Value::int(1), row(1, x - 150))?;
        Ok(())
    })();
    let r2 = (|| -> Result<(), TxnError> {
        let _x = t2.read(tid, &Value::int(1))?.unwrap().int(1);
        let y = t2.read(tid, &Value::int(2))?.unwrap().int(1);
        t2.update(tid, &Value::int(2), row(2, y - 150))?;
        Ok(())
    })();
    let c1 = r1.and_then(|_| t1.commit().map(|_| ()));
    let c2 = r2.and_then(|_| t2.commit().map(|_| ()));
    assert!(
        c1.is_err() || c2.is_err(),
        "SSI must abort at least one transaction"
    );
    let failed = [&c1, &c2].iter().filter(|r| r.is_err()).count();
    for r in [c1, c2].into_iter().flat_map(|r| r.err()) {
        assert_eq!(r, TxnError::Serialization(SerializationKind::SsiPivot));
    }
    assert!(failed >= 1);
    // The joint constraint survives.
    assert!(read_v(&db, 1) + read_v(&db, 2) >= 0);
}

/// SSI point reads leave their SIREAD mark *before* reading the version
/// chain, so a writer that announces, installs and unannounces between
/// the two cannot slip past both sides. Observed from the `Read` event,
/// which fires right after the chain read: by then the mark must already
/// be registered.
#[test]
fn ssi_point_reads_mark_siread_before_reading_the_chain() {
    use sicost_common::sync::Mutex;
    use sicost_engine::{HistoryEvent, HistoryObserver};
    use std::sync::{Arc, OnceLock, Weak};

    /// Samples the engine's SIREAD gauge at every `Read` event.
    #[derive(Default)]
    struct SireadProbe {
        db: OnceLock<Weak<Database>>,
        seen: Mutex<Vec<u64>>,
    }
    impl HistoryObserver for SireadProbe {
        fn on_event(&self, e: HistoryEvent) {
            if let HistoryEvent::Read { .. } = e {
                let db = self.db.get().and_then(Weak::upgrade).expect("db is up");
                self.seen.lock().push(db.metrics().siread_entries);
            }
        }
    }

    let probe = Arc::new(SireadProbe::default());
    let db = Arc::new(
        Database::builder()
            .table(schema())
            .unwrap()
            .config(EngineConfig::functional().with_cc(CcMode::Ssi))
            .observer(probe.clone())
            .build(),
    );
    probe.db.set(Arc::downgrade(&db)).unwrap();
    let tid = db.table_id("T").unwrap();
    db.bulk_load(tid, [row(1, 100), row(2, 100)]).unwrap();

    let mut t = db.begin();
    t.read(tid, &Value::int(1)).unwrap();
    t.read_for_update(tid, &Value::int(2)).unwrap();
    t.commit().unwrap();
    assert_eq!(
        *probe.seen.lock(),
        [1, 2],
        "SIREAD marks at each Read event"
    );
}

#[test]
fn s2pl_readers_block_behind_writers() {
    let db = db_with(EngineConfig::functional().with_cc(CcMode::S2pl));
    let tid = db.table_id("T").unwrap();

    std::thread::scope(|s| {
        let mut t1 = db.begin();
        t1.update(tid, &Value::int(1), row(1, 200)).unwrap();

        let handle = s.spawn(|| {
            let mut t2 = db.begin();
            let v = t2.read(tid, &Value::int(1)).unwrap().unwrap().int(1);
            t2.commit().unwrap();
            v
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "S2PL reader must block on writer");
        t1.commit().unwrap();
        assert_eq!(handle.join().unwrap(), 200, "reader sees committed value");
    });
}

#[test]
fn s2pl_prevents_write_skew() {
    let db = db_with(EngineConfig::functional().with_cc(CcMode::S2pl));
    let tid = db.table_id("T").unwrap();

    std::thread::scope(|s| {
        let h1 = s.spawn(|| {
            let mut t = db.begin();
            let x = t.read(tid, &Value::int(1))?.unwrap().int(1);
            let y = t.read(tid, &Value::int(2))?.unwrap().int(1);
            if x + y >= 150 {
                t.update(tid, &Value::int(1), row(1, x - 150))?;
            }
            t.commit()
        });
        let h2 = s.spawn(|| {
            let mut t = db.begin();
            let x = t.read(tid, &Value::int(1))?.unwrap().int(1);
            let y = t.read(tid, &Value::int(2))?.unwrap().int(1);
            if x + y >= 150 {
                t.update(tid, &Value::int(2), row(2, y - 150))?;
            }
            t.commit()
        });
        let _ = h1.join().unwrap();
        let _ = h2.join().unwrap();
    });
    // Whatever interleaving happened (including deadlock victims), the
    // joint constraint must hold.
    assert!(
        read_v(&db, 1) + read_v(&db, 2) >= 0,
        "S2PL execution must be serializable"
    );
}

/// §II-C: PostgreSQL `FOR UPDATE` is lock-only. The interleaving
/// `begin(T) begin(U) read-sfu(T,x) commit(T) write(U,x) commit(U)` is
/// allowed, leaving the rw edge vulnerable.
#[test]
fn sfu_lock_only_admits_the_paper_interleaving() {
    let db = db_with(EngineConfig::functional()); // LockOnly
    let tid = db.table_id("T").unwrap();

    let mut t = db.begin();
    let mut u = db.begin();
    assert_eq!(
        t.read_for_update(tid, &Value::int(1))
            .unwrap()
            .unwrap()
            .int(1),
        100
    );
    // T commits; its lock evaporates without a version stamp.
    t.commit().unwrap();
    // U (still on the old snapshot) writes x and commits fine.
    u.update(tid, &Value::int(1), row(1, 500)).unwrap();
    u.commit().unwrap();
    assert_eq!(read_v(&db, 1), 500);
}

/// The commercial platform treats `FOR UPDATE` as a write: the same
/// interleaving must now fail (here under FCW, at U's commit).
#[test]
fn sfu_identity_write_closes_the_interleaving() {
    let cfg = EngineConfig::functional()
        .with_cc(CcMode::SiFirstCommitterWins)
        .with_sfu(SfuSemantics::IdentityWrite);
    let db = db_with(cfg);
    let tid = db.table_id("T").unwrap();

    let mut t = db.begin();
    let mut u = db.begin();
    assert!(t.read_for_update(tid, &Value::int(1)).unwrap().is_some());
    t.commit().unwrap(); // installs an identity version of x
    u.update(tid, &Value::int(1), row(1, 500)).unwrap();
    assert_eq!(
        u.commit().unwrap_err(),
        TxnError::Serialization(SerializationKind::FirstCommitterWins)
    );
    assert_eq!(read_v(&db, 1), 100, "data unchanged by the identity write");
}

#[test]
fn sfu_blocks_concurrent_writer_while_held() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    std::thread::scope(|s| {
        let mut t = db.begin();
        t.read_for_update(tid, &Value::int(1)).unwrap();
        let handle = s.spawn(|| {
            let mut u = db.begin();
            let r = u.update(tid, &Value::int(1), row(1, 500));
            r.and_then(|_| u.commit())
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "writer must wait behind FOR UPDATE");
        t.rollback(); // releases the lock without a version
        assert!(handle.join().unwrap().is_ok());
    });
}

#[test]
fn deadlock_detected_and_victim_aborted() {
    let db_owner = db_with(EngineConfig::functional());
    let db = &db_owner;
    let tid = db.table_id("T").unwrap();
    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let h1 = s.spawn(move || {
            let mut t1 = db.begin();
            t1.update(tid, &Value::int(1), row(1, 1)).unwrap();
            ready_tx.send(()).unwrap();
            // Now goes for row 2 — may block or deadlock-abort.
            let r = t1.update(tid, &Value::int(2), row(2, 1));
            r.and_then(|_| t1.commit().map(|_| ()))
        });
        let mut t2 = db.begin();
        t2.update(tid, &Value::int(2), row(2, 2)).unwrap();
        ready_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let r2 = t2
            .update(tid, &Value::int(1), row(1, 2))
            .and_then(|_| t2.commit().map(|_| ()));
        let r1 = h1.join().unwrap();
        assert!(
            r1.is_ok() ^ r2.is_ok(),
            "exactly one of the cross-updaters survives: r1={r1:?} r2={r2:?}"
        );
        assert!(
            [&r1, &r2]
                .iter()
                .any(|r| matches!(r, Err(TxnError::Deadlock))),
            "the loser must die by deadlock: r1={r1:?} r2={r2:?}"
        );
    });
    assert_eq!(db.metrics().aborts_deadlock, 1);
}

#[test]
fn multi_key_commit_is_atomic_to_readers() {
    let db_owner = db_with(EngineConfig::functional());
    let db = &db_owner;
    let tid = db.table_id("T").unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    // Writer moves 50 from row 1 to row 2 repeatedly; readers must always
    // see a constant sum.
    std::thread::scope(|s| {
        let stop_ref = &stop;
        let writer = s.spawn(move || {
            for i in 0..200 {
                let mut t = db.begin();
                let a = t.read(tid, &Value::int(1)).unwrap().unwrap().int(1);
                let b = t.read(tid, &Value::int(2)).unwrap().unwrap().int(1);
                let delta = if i % 2 == 0 { 50 } else { -50 };
                if t.update(tid, &Value::int(1), row(1, a - delta)).is_ok()
                    && t.update(tid, &Value::int(2), row(2, b + delta)).is_ok()
                {
                    let _ = t.commit();
                }
            }
            stop_ref.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let reader = s.spawn(move || {
            while !stop_ref.load(std::sync::atomic::Ordering::SeqCst) {
                let mut t = db.begin();
                let a = t.read(tid, &Value::int(1)).unwrap().unwrap().int(1);
                let b = t.read(tid, &Value::int(2)).unwrap().unwrap().int(1);
                t.commit().unwrap();
                assert_eq!(a + b, 200, "torn read: {a} + {b}");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

#[test]
fn read_own_writes_and_scan_merge() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let mut t = db.begin();
    t.update(tid, &Value::int(1), row(1, 999)).unwrap();
    t.insert(tid, row(50, 999)).unwrap();
    t.delete(tid, &Value::int(2)).unwrap();
    // Keyed reads see own effects.
    assert_eq!(t.read(tid, &Value::int(1)).unwrap().unwrap().int(1), 999);
    assert!(t.read(tid, &Value::int(2)).unwrap().is_none());
    // Scans merge buffered writes.
    let hits = t.scan(tid, &Predicate::eq(1, 999)).unwrap();
    assert_eq!(hits.len(), 2);
    let all = t.scan(tid, &Predicate::True).unwrap();
    assert_eq!(all.len(), 10, "10 loaded - 1 deleted + 1 inserted");
    t.commit().unwrap();
    // And they are durable.
    assert_eq!(read_v(&db, 50), 999);
}

#[test]
fn insert_duplicate_key_fails() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let mut t = db.begin();
    let err = t.insert(tid, row(1, 0)).unwrap_err();
    assert!(matches!(err, TxnError::Constraint(_)));
    // Constraint errors poison too (consistent with engines raising
    // errors that require rollback)… actually check txn unusable:
    // insert() pre-check returns before locking, so the txn survives.
    assert!(t.read(tid, &Value::int(1)).is_ok());
    t.rollback();
}

#[test]
fn bulk_load_rejects_a_duplicate_key_and_still_publishes_its_timestamp() {
    for storage in [StoragePolicy::in_memory(), StoragePolicy::paged()] {
        let db = Database::builder()
            .table(schema())
            .unwrap()
            .config(EngineConfig::functional().with_storage(storage))
            .build();
        let tid = db.table_id("T").unwrap();
        let err = db
            .bulk_load(tid, [row(1, 10), row(2, 20), row(1, 11)])
            .unwrap_err();
        assert!(matches!(err, TxnError::Constraint(_)), "{storage}: {err}");
        assert_eq!(
            db.clock(),
            Ts(1),
            "{storage}: the load's timestamp is published"
        );
        // A later commit does not wait on the failed load.
        let mut t = db.begin();
        t.update(tid, &Value::int(1), row(1, 12)).unwrap();
        t.commit().unwrap();
        assert_eq!(read_v(&db, 1), 12, "{storage}");
    }
}

#[test]
fn delete_and_reinsert_round_trip() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let mut t = db.begin();
    assert!(t.delete(tid, &Value::int(3)).unwrap());
    assert!(!t.delete(tid, &Value::int(3)).unwrap(), "already gone");
    t.commit().unwrap();

    let mut t = db.begin();
    assert!(t.read(tid, &Value::int(3)).unwrap().is_none());
    t.insert(tid, row(3, 42)).unwrap();
    t.commit().unwrap();
    assert_eq!(read_v(&db, 3), 42);
}

#[test]
fn unique_constraint_enforced_between_concurrent_transactions() {
    let db = Database::builder()
        .table(
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
        .unwrap()
        .build();
    let tid = db.table_id("Account").unwrap();

    std::thread::scope(|s| {
        let mut t1 = db.begin();
        t1.insert(tid, Row::new(vec![Value::str("alice"), Value::int(7)]))
            .unwrap();
        let handle = s.spawn(|| {
            let mut t2 = db.begin();
            // Different PK, same unique value: must block on the index
            // sentinel, then fail after T1 commits.
            let r = t2.insert(tid, Row::new(vec![Value::str("bob"), Value::int(7)]));
            r.and_then(|_| t2.commit().map(|_| ()))
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "t2 must wait on the unique sentinel");
        t1.commit().unwrap();
        let r2 = handle.join().unwrap();
        assert!(matches!(r2, Err(TxnError::Constraint(_))), "got {r2:?}");
    });
}

#[test]
fn recovery_replay_reconstructs_committed_state() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    // A mix of committed and aborted work.
    for i in 0..5 {
        let mut t = db.begin();
        t.update(tid, &Value::int(i), row(i, 1000 + i)).unwrap();
        t.commit().unwrap();
    }
    let mut doomed = db.begin();
    doomed.update(tid, &Value::int(9), row(9, -1)).unwrap();
    doomed.rollback();

    // Replay the log into a fresh catalog pre-seeded with the bulk load
    // (bulk load bypasses the WAL, like COPY with wal_level=minimal).
    let mut fresh = Catalog::new();
    let ftid = fresh.create_table(schema()).unwrap();
    let ft = fresh.table(ftid).clone();
    for i in 0..10 {
        ft.install(
            &Value::int(i),
            sicost_storage::Version::data(Ts(1), sicost_common::TxnId(u64::MAX), row(i, 100)),
            Ts::ZERO,
        )
        .unwrap();
    }
    let end = sicost_wal::replay(&db.log_snapshot(), &fresh, Ts(1)).unwrap();

    // Final states agree on every row.
    let now = db.clock();
    for i in 0..10 {
        let live = db
            .catalog()
            .table(tid)
            .read_at(&Value::int(i), now)
            .unwrap()
            .row
            .unwrap()
            .int(1);
        let replayed = ft.read_at(&Value::int(i), end).unwrap().row.unwrap().int(1);
        assert_eq!(live, replayed, "row {i} diverged after replay");
    }
    // The aborted write is nowhere.
    assert_eq!(
        ft.read_at(&Value::int(9), end).unwrap().row.unwrap().int(1),
        100
    );
}

#[test]
fn observer_receives_a_consistent_event_stream() {
    use sicost_common::sync::Mutex;
    use sicost_engine::{HistoryEvent, HistoryObserver};
    use std::sync::Arc;

    #[derive(Default)]
    struct Collect(Mutex<Vec<HistoryEvent>>);
    impl HistoryObserver for Collect {
        fn on_event(&self, e: HistoryEvent) {
            self.0.lock().push(e);
        }
    }

    let collector = Arc::new(Collect::default());
    let db = Database::builder()
        .table(schema())
        .unwrap()
        .observer(collector.clone())
        .build();
    let tid = db.table_id("T").unwrap();
    db.bulk_load(tid, [row(1, 100)]).unwrap();

    let mut t = db.begin();
    t.read(tid, &Value::int(1)).unwrap();
    t.update(tid, &Value::int(1), row(1, 5)).unwrap();
    let cts = t.commit().unwrap();

    let events = collector.0.lock();
    assert!(matches!(events[0], HistoryEvent::Begin { .. }));
    assert!(matches!(
        events[1],
        HistoryEvent::Read {
            observed: Some(_),
            ..
        }
    ));
    match &events[2] {
        HistoryEvent::Commit {
            commit_ts, writes, ..
        } => {
            assert_eq!(*commit_ts, cts);
            assert_eq!(writes.len(), 1);
        }
        other => panic!("expected commit, got {other:?}"),
    }
}

#[test]
fn inactive_handle_rejects_everything() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 1)).unwrap();
    t2.commit().unwrap();
    let _ = t1.update(tid, &Value::int(1), row(1, 2)).unwrap_err();
    assert_eq!(
        t1.read(tid, &Value::int(1)).unwrap_err(),
        TxnError::Inactive
    );
    assert_eq!(
        t1.scan(tid, &Predicate::True).unwrap_err(),
        TxnError::Inactive
    );
    assert_eq!(
        t1.read_for_update(tid, &Value::int(1)).unwrap_err(),
        TxnError::Inactive
    );
    assert_eq!(
        t1.delete(tid, &Value::int(1)).unwrap_err(),
        TxnError::Inactive
    );
}

#[test]
fn read_only_commit_skips_the_wal() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let before = db.wal_stats().records;
    let mut t = db.begin();
    t.read(tid, &Value::int(1)).unwrap();
    t.commit().unwrap();
    assert_eq!(db.wal_stats().records, before, "read-only commit wrote WAL");
    assert_eq!(db.metrics().read_only_commits, 1);

    let mut t = db.begin();
    t.update(tid, &Value::int(1), row(1, 1)).unwrap();
    t.commit().unwrap();
    assert_eq!(db.wal_stats().records, before + 1);
}

#[test]
fn explicit_table_lock_blocks_writers_only_with_intent_locks() {
    use sicost_common::TableId;
    let _ = TableId(0);
    // Without intent locks, a table-X holder does not block row writers
    // (the locks live at different granules).
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();
    let mut locker = db.begin();
    locker.lock_table(tid, true).unwrap();
    let mut writer = db.begin();
    writer.update(tid, &Value::int(1), row(1, 5)).unwrap();
    writer.commit().unwrap();
    locker.rollback();

    // With intent locks, the writer queues behind the table-X holder.
    let mut cfg = EngineConfig::functional();
    cfg.table_intent_locks = true;
    let db_owner = db_with(cfg);
    let db = &db_owner;
    let tid = db.table_id("T").unwrap();
    std::thread::scope(|s| {
        let mut locker = db.begin();
        locker.lock_table(tid, true).unwrap();
        let handle = s.spawn(move || {
            let mut writer = db.begin();
            let r = writer.update(tid, &Value::int(1), row(1, 7));
            r.and_then(|_| writer.commit().map(|_| ()))
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "writer must wait behind LOCK TABLE");
        // Readers are never blocked, even by a table-X lock (SI reads
        // take no locks at all).
        let mut reader = db.begin();
        assert!(reader.read(tid, &Value::int(1)).unwrap().is_some());
        reader.commit().unwrap();
        locker.rollback();
        assert!(handle.join().unwrap().is_ok());
    });
    assert_eq!(read_v(db, 1), 7);
}

#[test]
fn s2pl_table_lock_on_scan_prevents_phantoms() {
    let db_owner = db_with(EngineConfig::functional().with_cc(CcMode::S2pl));
    let db = &db_owner;
    let tid = db.table_id("T").unwrap();
    std::thread::scope(|s| {
        // T1 scans (table S lock) and holds the lock.
        let mut t1 = db.begin();
        let before = t1.scan(tid, &Predicate::True).unwrap().len();
        // T2 tries to insert a row matching the scan: must block behind
        // the table lock until T1 finishes.
        let handle = s.spawn(move || {
            let mut t2 = db.begin();
            t2.insert(tid, row(99, 1)).unwrap();
            t2.commit().map(|_| ())
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "inserter must wait behind scan lock");
        // Re-scan within T1: same result (no phantom).
        assert_eq!(t1.scan(tid, &Predicate::True).unwrap().len(), before);
        t1.commit().unwrap();
        assert!(handle.join().unwrap().is_ok());
    });
    // After both commit, the row is there.
    let mut t = db.begin();
    assert_eq!(t.scan(tid, &Predicate::True).unwrap().len(), 11);
    t.commit().unwrap();
}

#[test]
fn refresh_snapshot_rules() {
    let db = db_with(EngineConfig::functional());
    let tid = db.table_id("T").unwrap();

    // Refresh before any access: allowed, and sees later commits.
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 777)).unwrap();
    t2.commit().unwrap();
    t1.refresh_snapshot().unwrap();
    assert_eq!(t1.read(tid, &Value::int(1)).unwrap().unwrap().int(1), 777);
    // Refresh after reading: rejected.
    let err = t1.refresh_snapshot().unwrap_err();
    assert!(matches!(err, TxnError::Constraint(_)));
    t1.rollback();
}

#[test]
fn fcw_mode_lets_doomed_transactions_waste_work() {
    // The mechanism behind the commercial platform's behaviour: under FCW
    // the doomed transaction runs to completion before failing, so its
    // wasted work is maximal — observable as the write being accepted.
    let cfg = EngineConfig::functional().with_cc(CcMode::SiFirstCommitterWins);
    let db = db_with(cfg);
    let tid = db.table_id("T").unwrap();
    let mut t1 = db.begin();
    t1.read(tid, &Value::int(1)).unwrap();
    let mut t2 = db.begin();
    t2.update(tid, &Value::int(1), row(1, 2)).unwrap();
    t2.commit().unwrap();
    // t1 can still do arbitrary further work, including the stale write…
    t1.update(tid, &Value::int(1), row(1, 3)).unwrap();
    t1.update(tid, &Value::int(5), row(5, 50)).unwrap();
    assert!(t1.is_active());
    // …and only the commit fails.
    assert_eq!(
        t1.commit().unwrap_err(),
        TxnError::Serialization(SerializationKind::FirstCommitterWins)
    );
    assert_eq!(read_v(&db, 5), 100, "no side effects from the doomed txn");
}

#[test]
fn ssi_blocks_scan_based_write_skew() {
    // The doctors-on-call shape: both transactions *scan* for rows with
    // v >= 100 and, seeing two, each "takes a break" by zeroing one.
    // Plain SI commits both (no row-level rw overlap on the same key);
    // SSI's relation-granularity SIREAD marks must abort one.
    let run = |cc: CcMode| -> usize {
        let db = db_with(EngineConfig::functional().with_cc(cc));
        let tid = db.table_id("T").unwrap();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let pred = Predicate::Cmp(1, sicost_storage::predicate::CmpOp::Ge, Value::int(100));
        let r1 = (|| -> Result<(), TxnError> {
            let oncall = t1.scan(tid, &pred)?;
            assert!(oncall.len() >= 2);
            t1.update(tid, &Value::int(1), row(1, 0))?;
            Ok(())
        })();
        let r2 = (|| -> Result<(), TxnError> {
            let oncall = t2.scan(tid, &pred)?;
            assert!(oncall.len() >= 2);
            t2.update(tid, &Value::int(2), row(2, 0))?;
            Ok(())
        })();
        let c1 = r1.and_then(|_| t1.commit().map(|_| ()));
        let c2 = r2.and_then(|_| t2.commit().map(|_| ()));
        [c1, c2].iter().filter(|r| r.is_ok()).count()
    };
    // SI: both commit — the phantom-flavoured write skew.
    assert_eq!(run(CcMode::SiFirstUpdaterWins), 2);
    // SSI: at most one commits.
    assert!(run(CcMode::Ssi) <= 1, "SSI must abort one scanner");
}
