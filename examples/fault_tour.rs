//! A tour of the robustness layer: client retries absorbing injected
//! faults, the attempts-vs-goodput report, and crash recovery from a
//! torn write-ahead log.
//!
//! ```sh
//! cargo run --release --example fault_tour
//! ```

use sicost::common::{CrashPoint, FaultConfig, FaultInjector, Ts, Xoshiro256};
use sicost::driver::{run, Outcome, Report, RetryPolicy, RetryReport, RunConfig, Workload};
use sicost::engine::{Database, EngineConfig, TxnError};
use sicost::storage::{Catalog, ColumnDef, ColumnType, Row, TableSchema, Value};
use sicost::wal::recover;
use std::sync::Arc;
use std::time::Duration;

/// A single-table increment workload; every row arrives via the WAL.
struct Counters {
    db: Database,
    table: sicost::common::TableId,
    rows: i64,
}

impl Counters {
    fn new(faults: FaultConfig) -> Self {
        let cfg = EngineConfig::functional().with_faults(Arc::new(FaultInjector::new(faults)));
        let db = Database::builder()
            .table(
                TableSchema::new(
                    "C",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("n", ColumnType::Int),
                    ],
                    0,
                    vec![],
                )
                .unwrap(),
            )
            .unwrap()
            .config(cfg)
            .build();
        let table = db.table_id("C").unwrap();
        let rows = 32;
        for i in 0..rows {
            loop {
                let mut tx = db.begin();
                let r = tx
                    .insert(table, Row::new(vec![Value::int(i), Value::int(0)]))
                    .and_then(|_| tx.commit());
                match r {
                    Ok(_) => break,
                    Err(TxnError::Transient(_)) => continue,
                    Err(e) => panic!("setup insert failed hard: {e}"),
                }
            }
        }
        Self { db, table, rows }
    }
}

impl Workload for Counters {
    type Request = Value;

    fn kinds(&self) -> Vec<&'static str> {
        vec!["increment"]
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, Value) {
        (0, Value::int(rng.next_below(self.rows as u64) as i64))
    }

    fn execute(&self, key: &Value, _attempt: u32) -> Outcome {
        let mut tx = self.db.begin();
        let r = (|| {
            let row = tx.read(self.table, key)?.expect("loaded");
            let n = row.int(1);
            tx.update(
                self.table,
                key,
                Row::new(vec![key.clone(), Value::int(n + 1)]),
            )?;
            tx.commit().map(|_| ())
        })();
        match r {
            Ok(()) => Outcome::Committed,
            Err(TxnError::Deadlock) => Outcome::Deadlock,
            Err(TxnError::Transient(_)) => Outcome::TransientFault,
            Err(e) if e.is_serialization_failure() => Outcome::SerializationFailure,
            Err(_) => Outcome::ApplicationRollback,
        }
    }
}

fn main() {
    // ---- Act 1: transient faults rain, the retry layer absorbs them.
    println!("== Act 1: transient faults vs client retry ==\n");
    let wl = Counters::new(FaultConfig::transient(7, 0.20, 0.10));
    let metrics = run(
        &wl,
        &RunConfig::new(4)
            .with_ramp_up(Duration::from_millis(50))
            .with_measure(Duration::from_millis(500))
            .with_seed(42)
            .with_retry(RetryPolicy::paper_default()),
    );
    println!("{}", RetryReport(&metrics).render());
    let stats = wl.db.faults().unwrap().stats();
    println!(
        "injected: {} forced aborts, {} sync errors, {} latency spikes\n",
        stats.forced_aborts, stats.sync_errors, stats.latency_spikes
    );

    // ---- Act 2: the process dies mid-sync; recovery truncates the tear.
    println!("== Act 2: crash during a WAL sync, then recovery ==\n");
    let db = {
        let cfg = EngineConfig::functional().with_faults(Arc::new(FaultInjector::new(
            FaultConfig::crash(CrashPoint::DuringWalSync, 4),
        )));
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
    };
    let tid = db.table_id("T").unwrap();
    for k in 1..=5 {
        let mut tx = db.begin();
        let r = tx
            .insert(tid, Row::new(vec![Value::int(k), Value::int(k * 10)]))
            .and_then(|_| tx.commit());
        match r {
            Ok(_) => println!("commit key {k}: ok"),
            Err(e) => println!("commit key {k}: {e}"),
        }
    }

    let disk = db.disk_snapshot();
    println!("\ndurable image: {} bytes", disk.len());
    let mut fresh = Catalog::new();
    for t in db.catalog().tables() {
        fresh.create_table(t.schema().clone()).unwrap();
    }
    let (end, scan) = recover(&disk, &fresh, Ts::ZERO).expect("recovery");
    match &scan.truncated {
        Some(t) => println!(
            "recovery truncated a torn tail at byte {} ({})",
            t.offset, t.cause
        ),
        None => println!("log image was clean"),
    }
    println!("{} committed records replayed", scan.records.len());
    let table = fresh.table_by_name("T").unwrap();
    for k in 1..=5 {
        let v = table
            .read_at(&Value::int(k), end)
            .and_then(|v| v.row)
            .map(|r| r.int(1));
        println!("  key {k} after recovery: {v:?}");
    }
}
