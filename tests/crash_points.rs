//! Crash-point recovery, end-to-end: a simulated crash is armed at each
//! stage of the commit pipeline, the engine runs until it dies, and the
//! durable byte image is recovered into a fresh catalog. The contract at
//! every point: transactions whose redo record reached the log before the
//! crash are durable; transactions that never finished the WAL append are
//! completely absent; a record torn mid-sync is truncated, never replayed.

use sicost::common::{CrashPoint, FaultConfig, FaultInjector, Ts};
use sicost::engine::{Database, EngineConfig, TxnError};
use sicost::storage::{Catalog, ColumnDef, ColumnType, Row, TableSchema, Value};
use sicost::wal::{recover, DecodeError, ScanResult};
use std::sync::Arc;

fn fresh_db(crash: Option<(CrashPoint, u64)>) -> Database {
    let mut cfg = EngineConfig::functional();
    if let Some((point, nth)) = crash {
        cfg = cfg.with_faults(Arc::new(FaultInjector::new(FaultConfig::crash(point, nth))));
    }
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
        .config(cfg)
        .build()
}

/// One single-key writing transaction. All state flows through the WAL
/// (no bulk load), so recovery starts from an empty catalog.
fn put(db: &Database, k: i64, v: i64) -> Result<Ts, TxnError> {
    let tid = db.table_id("T").unwrap();
    let mut tx = db.begin();
    let key = Value::int(k);
    let row = Row::new(vec![key.clone(), Value::int(v)]);
    if tx.read(tid, &key)?.is_some() {
        tx.update(tid, &key, row)?;
    } else {
        tx.insert(tid, row)?;
    }
    tx.commit()
}

/// A two-key writing transaction (so `MidInstall` has a torn half).
fn put_pair(db: &Database, ka: i64, kb: i64, v: i64) -> Result<Ts, TxnError> {
    let tid = db.table_id("T").unwrap();
    let mut tx = db.begin();
    tx.insert(tid, Row::new(vec![Value::int(ka), Value::int(v)]))?;
    tx.insert(tid, Row::new(vec![Value::int(kb), Value::int(v)]))?;
    tx.commit()
}

/// Recovers the durable byte image into a fresh catalog.
fn recovered(db: &Database) -> (Catalog, Ts, ScanResult) {
    let mut fresh = Catalog::new();
    for t in db.catalog().tables() {
        fresh.create_table(t.schema().clone()).unwrap();
    }
    let disk = db.disk_snapshot();
    let (end, scan) = recover(&disk, &fresh, Ts::ZERO).expect("recovery replays");
    (fresh, end, scan)
}

fn rec_read(cat: &Catalog, end: Ts, k: i64) -> Option<i64> {
    cat.table_by_name("T")
        .unwrap()
        .read_at(&Value::int(k), end)
        .and_then(|v| v.row)
        .map(|r| r.int(1))
}

fn live_read(db: &Database, k: i64) -> Option<i64> {
    let tid = db.table_id("T").unwrap();
    db.catalog()
        .table(tid)
        .read_at(&Value::int(k), db.clock())
        .and_then(|v| v.row)
        .map(|r| r.int(1))
}

#[test]
fn crash_before_wal_append_leaves_the_transaction_absent() {
    let db = fresh_db(Some((CrashPoint::BeforeWalAppend, 3)));
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    let err = put(&db, 3, 30).unwrap_err();
    assert!(matches!(err, TxnError::Transient(_)), "{err:?}");
    assert!(db.crashed());
    // The dead process rejects everything from now on.
    assert!(matches!(put(&db, 4, 40), Err(TxnError::Transient(_))));
    assert_eq!(db.faults().unwrap().stats().crashes, 1);

    let (cat, end, scan) = recovered(&db);
    assert!(scan.truncated.is_none(), "nothing was torn");
    assert_eq!(rec_read(&cat, end, 1), Some(10));
    assert_eq!(rec_read(&cat, end, 2), Some(20));
    assert_eq!(rec_read(&cat, end, 3), None, "never reached the log");
    assert_eq!(rec_read(&cat, end, 4), None);
}

#[test]
fn crash_during_wal_sync_tears_the_tail_and_recovery_truncates_it() {
    let db = fresh_db(Some((CrashPoint::DuringWalSync, 3)));
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    let err = put(&db, 3, 30).unwrap_err();
    assert!(matches!(err, TxnError::Transient(_)), "{err:?}");
    assert!(db.crashed());

    let (cat, end, scan) = recovered(&db);
    let t = scan.truncated.expect("the torn tail must be detected");
    assert!(
        matches!(
            t.cause,
            DecodeError::TruncatedHeader
                | DecodeError::TruncatedPayload
                | DecodeError::ChecksumMismatch
        ),
        "{:?}",
        t.cause
    );
    assert_eq!(scan.records.len(), 2, "only the intact prefix replays");
    assert_eq!(rec_read(&cat, end, 1), Some(10));
    assert_eq!(rec_read(&cat, end, 2), Some(20));
    assert_eq!(rec_read(&cat, end, 3), None, "torn record must not replay");
}

#[test]
fn crash_after_wal_append_is_durable_despite_the_client_error() {
    let db = fresh_db(Some((CrashPoint::AfterWalAppend, 3)));
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    // The client saw a failure...
    assert!(matches!(put(&db, 3, 30), Err(TxnError::Transient(_))));
    // ...and the crashed process never exposed the write...
    assert_eq!(live_read(&db, 3), None);
    // ...but the record is durable, so recovery resurrects it. This is
    // the classic "unknown outcome": the commit point is the WAL append.
    let (cat, end, scan) = recovered(&db);
    assert!(scan.truncated.is_none());
    assert_eq!(rec_read(&cat, end, 3), Some(30));
}

#[test]
fn crash_mid_install_is_invisible_live_and_complete_after_recovery() {
    let db = fresh_db(Some((CrashPoint::MidInstall, 3)));
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    // Two writes; the crash installs only the first half.
    assert!(matches!(
        put_pair(&db, 30, 31, 7),
        Err(TxnError::Transient(_))
    ));
    // The torn prefix must stay invisible: the clock never advanced, so
    // no snapshot can observe half a transaction.
    assert_eq!(live_read(&db, 30), None);
    assert_eq!(live_read(&db, 31), None);
    // The log is complete — recovery restores the whole transaction.
    let (cat, end, scan) = recovered(&db);
    assert!(scan.truncated.is_none());
    assert_eq!(rec_read(&cat, end, 30), Some(7));
    assert_eq!(rec_read(&cat, end, 31), Some(7));
}

#[test]
fn crash_after_install_preserves_the_acknowledged_commit() {
    let db = fresh_db(Some((CrashPoint::AfterInstall, 3)));
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    // The commit fully happened — the client got an acknowledgement.
    assert!(put(&db, 3, 30).is_ok());
    assert!(db.crashed(), "the crash latches right after the ack");
    assert!(matches!(put(&db, 4, 40), Err(TxnError::Transient(_))));

    let (cat, end, scan) = recovered(&db);
    assert!(scan.truncated.is_none());
    assert_eq!(rec_read(&cat, end, 1), Some(10));
    assert_eq!(rec_read(&cat, end, 2), Some(20));
    assert_eq!(rec_read(&cat, end, 3), Some(30), "acked commits survive");
    assert_eq!(rec_read(&cat, end, 4), None);
}

#[test]
fn updates_and_overwrites_recover_to_the_latest_committed_image() {
    // No crash armed: hammer one key, then recover and compare.
    let db = fresh_db(None);
    for v in 0..10 {
        assert!(put(&db, 1, v).is_ok());
    }
    let (cat, end, scan) = recovered(&db);
    assert!(scan.truncated.is_none());
    assert_eq!(scan.records.len(), 10);
    assert_eq!(rec_read(&cat, end, 1), Some(9));
    assert_eq!(rec_read(&cat, end, 1), live_read(&db, 1));
}

#[test]
fn a_chopped_disk_image_recovers_its_intact_prefix() {
    let db = fresh_db(None);
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    assert!(put(&db, 3, 30).is_ok());
    let mut disk = db.disk_snapshot();
    // Simulate a crash that lost the end of the last device write.
    disk.truncate(disk.len() - 5);

    let mut fresh = Catalog::new();
    for t in db.catalog().tables() {
        fresh.create_table(t.schema().clone()).unwrap();
    }
    let (end, scan) = recover(&disk, &fresh, Ts::ZERO).unwrap();
    let t = scan.truncated.expect("chopped tail detected");
    assert!(matches!(
        t.cause,
        DecodeError::TruncatedHeader | DecodeError::TruncatedPayload
    ));
    assert_eq!(scan.records.len(), 2);
    assert_eq!(rec_read(&fresh, end, 2), Some(20));
    assert_eq!(rec_read(&fresh, end, 3), None);
}

#[test]
fn a_corrupt_byte_mid_log_hides_everything_after_it() {
    let db = fresh_db(None);
    assert!(put(&db, 1, 10).is_ok());
    assert!(put(&db, 2, 20).is_ok());
    assert!(put(&db, 3, 30).is_ok());
    let mut disk = db.disk_snapshot();
    // Flip the first payload byte of the *second* record.
    let first_len = {
        let scan = sicost::wal::scan_log(&disk);
        assert_eq!(scan.records.len(), 3);
        let mut one = Vec::new();
        scan.records[0].encode_into(&mut one);
        one.len()
    };
    let header = {
        let (payload, second_len) = sicost::wal::read_frame(&disk[first_len..]).unwrap();
        second_len - payload.len()
    };
    disk[first_len + header] ^= 0xff;

    let mut fresh = Catalog::new();
    for t in db.catalog().tables() {
        fresh.create_table(t.schema().clone()).unwrap();
    }
    let (end, scan) = recover(&disk, &fresh, Ts::ZERO).unwrap();
    assert_eq!(scan.truncated.unwrap().cause, DecodeError::ChecksumMismatch);
    assert_eq!(
        scan.records.len(),
        1,
        "frame boundaries past the corrupt record are untrusted"
    );
    assert_eq!(rec_read(&fresh, end, 1), Some(10));
    assert_eq!(rec_read(&fresh, end, 2), None);
    assert_eq!(rec_read(&fresh, end, 3), None);
}
