//! Vacuum correctness and effectiveness under the full engine stack:
//! bounded memory growth, and — the safety side — no version visible to
//! a live snapshot is ever reclaimed, neither by a vacuum pass nor by the
//! pruning every commit does when it installs.

use sicost::common::Xoshiro256;
use sicost::engine::{CcMode, Database, EngineConfig, VacuumPolicy};
use sicost::smallbank::{SmallBank, SmallBankConfig, SmallBankWorkload, Strategy, WorkloadParams};
use sicost::storage::{ColumnDef, ColumnType, Row, TableSchema, Value};

/// Concurrent clients per phase.
const CLIENTS: usize = 4;
/// Transactions each client runs per phase: the phases are bounded by
/// operation count, so every host does the same amount of work.
const OPS_PER_CLIENT: usize = 300;

/// Drives a seeded SSI SmallBank workload in two count-bounded phases
/// and returns the engine's (max chain length, SIREAD entries) gauge
/// after each.
fn two_phase_gauges(vacuum: VacuumPolicy, seed: u64) -> [(u64, u64); 2] {
    let engine = EngineConfig::functional()
        .with_cc(CcMode::Ssi)
        .with_vacuum(vacuum);
    let bank = SmallBank::new(&SmallBankConfig::small(64), engine, Strategy::BaseSI);
    let workload = SmallBankWorkload::new(WorkloadParams::paper_default().scaled(64, 8));
    let mut gauges = [(0, 0); 2];
    for (phase, gauge) in gauges.iter_mut().enumerate() {
        let commits_before = bank.db().metrics().commits;
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let (bank, workload) = (&bank, &workload);
                let stream = seed ^ (phase * CLIENTS + client) as u64;
                s.spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(stream);
                    for _ in 0..OPS_PER_CLIENT {
                        // Serialization failures are part of the load.
                        let _ = workload.execute(bank, &workload.sample(&mut rng));
                    }
                });
            }
        });
        let m = bank.db().metrics();
        assert!(
            m.commits - commits_before > 20,
            "phase {phase} barely progressed"
        );
        *gauge = (m.max_chain_len, m.siread_entries);
    }
    gauges
}

#[test]
fn gc_bounds_chains_and_sireads_where_no_gc_grows_them() {
    let off = two_phase_gauges(VacuumPolicy::disabled(), 0xCC0);
    let on = two_phase_gauges(VacuumPolicy::every_commits(200), 0xCC0);
    // Every install prunes its chain to the oldest active snapshot, so
    // chains stay bounded with the vacuum cadence on or off.
    for (gc, gauges) in [("off", off), ("on", on)] {
        for (phase, (chain, _)) in gauges.iter().enumerate() {
            assert!(
                *chain <= 64,
                "GC-{gc} phase {phase}: max chain {chain} must stay bounded ({gauges:?})"
            );
        }
    }
    // SIREAD marks of committed readers are retired only by vacuum:
    // without it they grow with the commit count.
    assert!(
        off[1].1 > off[0].1,
        "GC-off SIREAD footprint must keep growing: {off:?}"
    );
    // With the commit-cadence daemon they stay under the unvacuumed
    // endpoint.
    assert!(
        on[1].1 < off[1].1,
        "GC-on SIREAD {on:?} must stay bounded vs GC-off {off:?}"
    );
}

/// Builds a bare Counters database (no SmallBank) for snapshot tests.
fn counters_db(rows: i64) -> (Database, sicost::common::TableId) {
    let db = Database::builder()
        .table(
            TableSchema::new(
                "Counters",
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
        .config(EngineConfig::functional())
        .build();
    let table = db.table_id("Counters").unwrap();
    db.bulk_load(
        table,
        (0..rows).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
    )
    .unwrap();
    (db, table)
}

/// Overwrites every row once, one transaction per row.
fn overwrite_all(db: &Database, table: sicost::common::TableId, rows: i64, stamp: i64) {
    for id in 0..rows {
        let mut tx = db.begin();
        tx.update(
            table,
            &Value::int(id),
            Row::new(vec![Value::int(id), Value::int(stamp * rows + id)]),
        )
        .unwrap();
        tx.commit().unwrap();
    }
}

/// The watermark invariant, end to end: readers pinned between churn
/// rounds must re-read exactly what they saw at begin, however much
/// churn piles on top and however the horizon advances as older readers
/// finish. With `vacuum`, a pass follows every churn sweep; without it,
/// only the installs prune.
fn pinned_readers_keep_their_snapshots(vacuum: bool) {
    const ROWS: i64 = 8;
    const ROUNDS: usize = 6;
    let (db, table) = counters_db(ROWS);
    let maybe_vacuum = || {
        if vacuum {
            db.vacuum();
        }
    };

    // Readers opened between churn rounds: each records what its
    // snapshot saw at begin time and stays open until its turn below.
    let mut pinned = Vec::new();
    let mut stamp = 0;
    for round in 0..ROUNDS {
        let mut reader = db.begin();
        let mut seen = Vec::new();
        for id in 0..ROWS {
            let row = reader
                .read(table, &Value::int(id))
                .unwrap()
                .expect("populated");
            seen.push(row.int(1));
        }
        pinned.push((round, reader, seen));

        // Churn: overwrite every row several times, vacuuming after each
        // sweep so any horizon bug would reclaim what a reader still needs.
        for _ in 0..4 {
            stamp += 1;
            overwrite_all(&db, table, ROWS, stamp);
            maybe_vacuum();
        }
    }
    let churned = db.metrics();
    let passes = if vacuum { (ROUNDS * 4) as u64 } else { 0 };
    assert_eq!(churned.vacuum_runs, passes);
    // The watermark did its job the conservative way round: with the
    // round-0 snapshot still live, *all* churn sits above the horizon and
    // neither installs nor passes may drop any of it.
    assert_eq!(
        churned.versions_pruned, 0,
        "no version above the oldest live snapshot may be reclaimed"
    );

    // Readers finish oldest first. After each, one more churn sweep runs
    // at the advanced horizon, and every reader still pinned must
    // re-read through its original snapshot exactly what it saw.
    let mut pruned_while_pinned = 0;
    while !pinned.is_empty() {
        for (round, reader, seen) in pinned.iter_mut() {
            for id in 0..ROWS {
                let row = reader
                    .read(table, &Value::int(id))
                    .unwrap()
                    .unwrap_or_else(|| panic!("round-{round} reader lost row {id}"));
                assert_eq!(
                    row.int(1),
                    seen[id as usize],
                    "round-{round} reader must re-read its snapshot of row {id}"
                );
            }
        }
        let (_, oldest, _) = pinned.remove(0);
        oldest.commit().unwrap();
        stamp += 1;
        overwrite_all(&db, table, ROWS, stamp);
        maybe_vacuum();
        if !pinned.is_empty() {
            pruned_while_pinned = db.metrics().versions_pruned;
        }
    }
    assert!(
        pruned_while_pinned > 0,
        "the horizon must advance, and reclaim, while later readers are pinned"
    );

    // All snapshots gone: one last sweep (and pass) converges every chain
    // to the live version plus, without vacuum, the one it replaced.
    stamp += 1;
    overwrite_all(&db, table, ROWS, stamp);
    maybe_vacuum();
    let m = db.metrics();
    let bound = if vacuum { 1 } else { 2 };
    assert!(
        m.max_chain_len <= bound,
        "with no live snapshots every chain collapses to {bound}, got {}",
        m.max_chain_len
    );
}

#[test]
fn vacuum_never_reclaims_a_version_a_live_snapshot_can_see() {
    pinned_readers_keep_their_snapshots(true);
}

/// The same schedule with no vacuum pass at all: install-time pruning
/// alone must keep every pinned reader's original values.
#[test]
fn install_pruning_never_drops_a_version_a_live_snapshot_can_see() {
    pinned_readers_keep_their_snapshots(false);
}
