//! Deterministic-simulation sweep of the begin/vacuum-horizon race.
//!
//! A new snapshot must be registered before any vacuum can compute a
//! horizon past it; otherwise the vacuum prunes the version the snapshot
//! needs, and the transaction finds a committed row missing. Each seed
//! runs a reader task (begin, read one row, commit) against an updater
//! task (update that row, commit, vacuum) under the seeded cooperative
//! scheduler. Rare preemption at lock acquisitions lets the scheduler
//! stop a begin between reading the clock and registering the snapshot,
//! and then run the updater's whole commit and vacuum before the begin
//! resumes; with code that reads the clock outside the registry lock,
//! about one seed in ten of this sweep finds the row missing.

use sicost_common::sync::sim_spawn;
use sicost_engine::{Database, EngineConfig};
use sicost_sim::Sim;
use sicost_storage::{ColumnDef, ColumnType, Row, TableSchema, Value};
use std::sync::Arc;

const SEEDS: u64 = 256;
const ROUNDS: i64 = 50;
const PREEMPT_P: f64 = 0.01;

fn row(v: i64) -> Row {
    Row::new(vec![Value::int(1), Value::int(v)])
}

/// Runs one seeded schedule; returns how many of the reader's
/// transactions found the row missing.
fn missing_reads(seed: u64) -> u64 {
    let (missing, _) = Sim::new(seed).with_preempt(PREEMPT_P).run(|| {
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
        let db = Arc::new(
            Database::builder()
                .table(schema)
                .unwrap()
                .config(EngineConfig::functional())
                .build(),
        );
        let tid = db.table_id("T").unwrap();
        db.bulk_load(tid, [row(0)]).unwrap();
        let reader = {
            let db = Arc::clone(&db);
            sim_spawn("reader", move || {
                let mut missing = 0;
                for _ in 0..ROUNDS {
                    let mut t = db.begin();
                    if t.read(tid, &Value::int(1)).unwrap().is_none() {
                        missing += 1;
                    }
                    t.commit().unwrap();
                }
                missing
            })
        };
        let updater = {
            let db = Arc::clone(&db);
            sim_spawn("updater", move || {
                for v in 1..=ROUNDS {
                    let mut t = db.begin();
                    t.update(tid, &Value::int(1), row(v)).unwrap();
                    t.commit().unwrap();
                    db.vacuum();
                }
            })
        };
        updater.join().unwrap();
        reader.join().unwrap()
    });
    missing
}

#[test]
fn no_snapshot_loses_its_versions_to_a_racing_vacuum() {
    let failing: Vec<u64> = (0..SEEDS).filter(|&s| missing_reads(s) > 0).collect();
    assert!(
        failing.is_empty(),
        "seeds whose reader found the committed row missing: {failing:?}"
    );
}
