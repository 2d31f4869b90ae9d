//! Crash-recovery integration: after a concurrent SmallBank run, replaying
//! the WAL into a fresh catalog must reproduce the committed state
//! exactly — every balance of every customer.

use sicost::common::{Ts, TxnId, Xoshiro256};
use sicost::driver::{run, RetryPolicy, RunConfig};
use sicost::engine::EngineConfig;
use sicost::smallbank::{
    schema::customer_name, SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload,
    Strategy, WorkloadParams,
};
use sicost::storage::{Catalog, Predicate, Row, Value, Version};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn wal_replay_reproduces_every_balance() {
    let config = SmallBankConfig::small(64);
    let bank = Arc::new(SmallBank::new(
        &config,
        EngineConfig::functional(),
        Strategy::MaterializeALL, // exercises all four tables in the log
    ));
    let driver = SmallBankDriver::new(
        Arc::clone(&bank),
        SmallBankWorkload::new(WorkloadParams::paper_default().scaled(64, 8)),
    );
    let metrics = run(
        &driver,
        &RunConfig::new(6)
            .with_ramp_up(Duration::from_millis(20))
            .with_measure(Duration::from_millis(400))
            .with_seed(0x4EC)
            .with_retry(RetryPolicy::disabled()),
    );
    assert!(metrics.commits() > 50, "need a meaningful log");

    // Rebuild: fresh catalog with the same schema, re-seeded with the
    // same bulk-load data (bulk load bypasses the WAL, like COPY), then
    // replay the redo log on top.
    let db = bank.db();
    let log = db.log_snapshot();
    assert!(!log.is_empty());

    let mut fresh = Catalog::new();
    for table in db.catalog().tables() {
        fresh.create_table(table.schema().clone()).unwrap();
    }
    // Reproduce the deterministic population (same seed => same rows).
    let mut rng = Xoshiro256::seed_from_u64(config.seed);
    let n = config.customers;
    let account = fresh.table_by_name("Account").unwrap().clone();
    for i in 0..n {
        account
            .install(
                &Value::str(customer_name(i)),
                Version::data(
                    Ts(1),
                    TxnId(u64::MAX),
                    Row::new(vec![Value::str(customer_name(i)), Value::int(i as i64)]),
                ),
                Ts::ZERO,
            )
            .unwrap();
    }
    let (slo, shi) = config.savings_range;
    let saving = fresh.table_by_name("Saving").unwrap().clone();
    for i in 0..n {
        saving
            .install(
                &Value::int(i as i64),
                Version::data(
                    Ts(2),
                    TxnId(u64::MAX),
                    Row::new(vec![
                        Value::int(i as i64),
                        Value::int(rng.range_inclusive(slo, shi)),
                    ]),
                ),
                Ts::ZERO,
            )
            .unwrap();
    }
    let (clo, chi) = config.checking_range;
    let checking = fresh.table_by_name("Checking").unwrap().clone();
    for i in 0..n {
        checking
            .install(
                &Value::int(i as i64),
                Version::data(
                    Ts(3),
                    TxnId(u64::MAX),
                    Row::new(vec![
                        Value::int(i as i64),
                        Value::int(rng.range_inclusive(clo, chi)),
                    ]),
                ),
                Ts::ZERO,
            )
            .unwrap();
    }
    let conflict = fresh.table_by_name("Conflict").unwrap().clone();
    for i in 0..n {
        conflict
            .install(
                &Value::int(i as i64),
                Version::data(
                    Ts(4),
                    TxnId(u64::MAX),
                    Row::new(vec![Value::int(i as i64), Value::int(0)]),
                ),
                Ts::ZERO,
            )
            .unwrap();
    }

    let end = sicost::wal::replay(&log, &fresh, Ts(4)).expect("replay succeeds");

    // Compare every row of every table between live and recovered.
    let live_ts = db.clock();
    for table in db.catalog().tables() {
        let recovered = fresh.table_by_name(&table.schema().name).unwrap();
        let mut rows = 0;
        table.scan_at(live_ts, &Predicate::True, |pk, row, _| {
            rows += 1;
            let rec = recovered
                .read_at(pk, end)
                .unwrap_or_else(|| panic!("{}.{pk} missing after replay", table.schema().name))
                .row
                .expect("live row");
            assert_eq!(
                rec.cells(),
                row.cells(),
                "{}.{pk} diverged after replay",
                table.schema().name
            );
        });
        assert_eq!(
            recovered.count_at(end),
            rows,
            "{} row count diverged",
            table.schema().name
        );
    }
}
