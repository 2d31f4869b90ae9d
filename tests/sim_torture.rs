//! Deterministic-simulation torture: the full engine — SmallBank
//! transactions, group-commit WAL, checkpoints, an armed crash point, and
//! post-crash recovery — run under the seeded cooperative scheduler from
//! `sicost::sim`, so every schedule is a pure function of
//! `(crash point, round)`.
//!
//! Each schedule is executed **twice** and the two runs must agree byte
//! for byte: same scheduling trace, same history event stream, same
//! acknowledged totals, same recovered balance. Any divergence means
//! nondeterminism leaked into the engine (a wall-clock branch, an
//! unsorted hash-map iteration, an uninstrumented blocking primitive) —
//! exactly the bugs this harness exists to catch.
//!
//! Balance conservation reuses [`sicost::sim::BalanceAudit`], the same
//! oracle as the wall-clock `recovery_torture` test.
//!
//! Reproduction: a failing schedule writes a recipe file under
//! `target/sim-repro/` and the `SICOST_SIM_REPRO=<crash-point>:<round>`
//! env var replays exactly that schedule. `SICOST_SIM_SCHEDULES=<n>`
//! widens the per-point sweep (nightly).

use sicost::common::sync::{sim_sleep, sim_spawn};
use sicost::common::{CrashPoint, FaultConfig, FaultInjector, Money, Xoshiro256};
use sicost::engine::{EngineConfig, HistoryEvent, HistoryObserver, VacuumPolicy};
use sicost::mvsg::History;
use sicost::sim::{
    repro_override, schedules_per_point, write_repro_file, BalanceAudit, Sim, SimReport,
};
use sicost::smallbank::schema::{customer_name, total_balance};
use sicost::smallbank::{recover_database, SmallBank, SmallBankConfig, Strategy};
use sicost::storage::{PagedConfig, StoragePolicy};
use std::sync::Arc;
use std::time::Duration;

const CUSTOMERS: u64 = 16;
const MPL: usize = 3;
const OPS_PER_WORKER: u64 = 300;
const DRIVER_ROUNDS: u64 = 60;
/// Default seeds (rounds) per crash point; `SICOST_SIM_SCHEDULES` widens.
const DEFAULT_ROUNDS: u64 = 2;

/// Which occurrence of the crash point fires (see `recovery_torture` for
/// the rationale: checkpoint-protocol points must survive the
/// post-population checkpoint, pipeline points spread across commits).
fn crash_nth(point: CrashPoint, round: u64) -> u64 {
    match point {
        CrashPoint::DuringCheckpointWrite
        | CrashPoint::BeforeManifestSwap
        | CrashPoint::AfterManifestSwapBeforeTruncate => 2 + round % 2,
        _ => [3, 11, 31, 77][round as usize % 4],
    }
}

/// Paged backend sized so every page stays resident (3 tables × 4 pages
/// ≤ 16 pool pages): the only page writes are checkpoint flushes, which
/// keeps the `DuringPageFlush` occurrence count predictable.
fn storage_for(paged: bool) -> StoragePolicy {
    if paged {
        StoragePolicy::Paged(
            PagedConfig::default()
                .with_pages_per_table(4)
                .with_pool_pages(16),
        )
    } else {
        StoragePolicy::InMemory
    }
}

/// `DuringPageFlush` counts per page write; the post-population
/// checkpoint must complete uncrashed, so measure its page count with a
/// deterministic fault-free dry run and arm the crash a few page writes
/// into a later checkpoint's flush.
fn page_flush_nth(round: u64) -> u64 {
    let dry = SmallBank::new(
        &SmallBankConfig::small(CUSTOMERS),
        EngineConfig::functional().with_storage(storage_for(true)),
        Strategy::BaseSI,
    );
    let base = dry
        .db()
        .checkpoint()
        .expect("dry-run checkpoint")
        .pages_flushed;
    base + 1 + round
}

fn sim_seed(point: CrashPoint, round: u64) -> u64 {
    // Stable across runs: derived from the crash point's display name.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in point.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Everything a schedule produces that must be identical across replays
/// of the same seed.
#[derive(PartialEq)]
struct Fingerprint {
    report: SimReport,
    history: Vec<HistoryEvent>,
    acked: i64,
    indeterminate: Vec<i64>,
    recovered: i64,
}

/// `vacuum` arms the version-GC daemon against the same crash: the
/// engine auto-vacuums on a tight commit cadence *and* the root task
/// interleaves explicit vacuum passes with its checkpoints, so epoch
/// reclamation, chain pruning and SIREAD GC race the workers and the
/// crash point — and must still replay byte-identically.
fn run_schedule(point: CrashPoint, round: u64, vacuum: bool, paged: bool) -> Fingerprint {
    let context = format!("{point}:{round}");
    let seed =
        sim_seed(point, round) ^ if vacuum { 0x6C } else { 0 } ^ if paged { 0x9A00 } else { 0 };
    let nth = if point == CrashPoint::DuringPageFlush {
        assert!(paged, "DuringPageFlush only exists under the paged backend");
        page_flush_nth(round)
    } else {
        crash_nth(point, round)
    };
    let ((history, audit, recovered), report) = Sim::new(seed).with_preempt(0.05).run(|| {
        let faults = Arc::new(FaultInjector::new(FaultConfig::crash(point, nth)));
        let mut engine = EngineConfig::functional()
            .with_storage(storage_for(paged))
            .with_faults(Arc::clone(&faults));
        if vacuum {
            engine = engine.with_vacuum(VacuumPolicy::every_commits(32));
        }
        let history = History::new();
        let bank = Arc::new(SmallBank::with_observer(
            &SmallBankConfig::small(CUSTOMERS),
            engine,
            Strategy::BaseSI,
            Some(Arc::clone(&history) as Arc<dyn HistoryObserver>),
        ));
        let initial = total_balance(bank.db(), bank.tables()).as_cents();
        bank.db()
            .checkpoint()
            .expect("the post-population checkpoint completes before any crash");

        let workers: Vec<_> = (0..MPL)
            .map(|tid| {
                let bank = Arc::clone(&bank);
                sim_spawn(&format!("worker-{tid}"), move || {
                    let mut rng = Xoshiro256::seed_from_u64(0x51D0 ^ (round << 8) ^ tid as u64);
                    let mut acked = 0i64;
                    let mut indeterminate = None;
                    for _ in 0..OPS_PER_WORKER {
                        if bank.db().crashed() {
                            break;
                        }
                        let c = customer_name(rng.range_inclusive(0, CUSTOMERS as i64 - 1) as u64);
                        let amount = rng.range_inclusive(1, 99);
                        let res = if rng.next_u64() % 2 == 0 {
                            bank.deposit_checking(&c, Money::cents(amount))
                        } else {
                            bank.transact_saving(&c, Money::cents(amount))
                        };
                        match res {
                            Ok(()) => acked += amount,
                            Err(_) if bank.db().crashed() => {
                                indeterminate = Some(amount);
                                break;
                            }
                            Err(e) if e.is_serialization_failure() => {}
                            Err(e) => panic!("unexpected SmallBank error: {e:?}"),
                        }
                    }
                    (acked, indeterminate)
                })
            })
            .collect();

        // The root task drives checkpoints, as the checkpointer daemon
        // would; for the checkpoint crash points this is where the
        // crash fires, mid-protocol, interleaved with the workers.
        for i in 0..DRIVER_ROUNDS {
            if bank.db().crashed() {
                break;
            }
            sim_sleep(Duration::from_millis(1));
            if vacuum && i % 2 == 1 {
                bank.db().vacuum();
            } else {
                let _ = bank.db().checkpoint();
            }
        }

        let mut audit = BalanceAudit::new(initial);
        for w in workers {
            let (acked, indeterminate) = w.join().expect("worker panicked");
            audit.ack(acked);
            if let Some(amount) = indeterminate {
                audit.undecided(amount);
            }
        }
        assert!(
            bank.db().crashed(),
            "{point}/round {round}: the armed crash point never fired"
        );

        // Recover inside the simulation: replay and the recovered
        // database's commits are part of the same schedule.
        let image = bank.db().durable_image();
        let (rdb, rtables, rec) = recover_database(
            EngineConfig::functional().with_storage(storage_for(paged)),
            &image,
        )
        .unwrap_or_else(|e| panic!("{point}/round {round}: recovery failed: {e}"));
        assert!(
            rec.checkpoint.is_some(),
            "{point}/round {round}: no usable checkpoint manifest"
        );
        let recovered = total_balance(&rdb, &rtables).as_cents();

        // The recovered database is live: one more audited deposit.
        let rbank = SmallBank::adopt(rdb, *bank.tables(), Strategy::BaseSI);
        rbank
            .deposit_checking(&customer_name(0), Money::cents(7))
            .expect("recovered database accepts commits");
        assert_eq!(
            total_balance(rbank.db(), rbank.tables()).as_cents(),
            recovered + 7
        );
        (history, audit, recovered)
    });

    audit.assert_explained(recovered, &context);
    Fingerprint {
        report,
        history: history.events(),
        acked: audit.acked(),
        indeterminate: audit.indeterminate().to_vec(),
        recovered,
    }
}

/// Runs one schedule twice and asserts byte-identical outcomes; on any
/// panic, writes the `SICOST_SIM_REPRO` recipe file first.
fn run_schedule_checked(point: CrashPoint, round: u64, vacuum: bool, paged: bool) {
    let label = if vacuum {
        format!("vacuum-{point}")
    } else if paged && point != CrashPoint::DuringPageFlush {
        format!("paged-{point}")
    } else {
        point.to_string()
    };
    let outcome = std::panic::catch_unwind(|| {
        let a = run_schedule(point, round, vacuum, paged);
        let b = run_schedule(point, round, vacuum, paged);
        assert!(
            a.report == b.report,
            "{point}/round {round}: scheduler divergence — {:?} vs {:?}",
            a.report,
            b.report
        );
        assert!(
            a.history == b.history,
            "{point}/round {round}: history divergence — {} vs {} events",
            a.history.len(),
            b.history.len()
        );
        assert!(
            a == b,
            "{point}/round {round}: outcome divergence (acked {} vs {}, recovered {} vs {})",
            a.acked,
            b.acked,
            a.recovered,
            b.recovered
        );
    });
    if let Err(panic) = outcome {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        let path = write_repro_file(&label, round, msg);
        eprintln!(
            "schedule {label}:{round} failed; repro file: {:?} — replay with \
             SICOST_SIM_REPRO={label}:{round}",
            path
        );
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn sim_torture_all_crash_points_deterministically() {
    if let Some((name, round)) = repro_override() {
        if name.starts_with("vacuum-") || name.starts_with("paged-") {
            return; // replayed by the matching variant test below
        }
        let point = *CrashPoint::ALL
            .iter()
            .find(|p| p.to_string() == name)
            .unwrap_or_else(|| panic!("SICOST_SIM_REPRO names unknown crash point {name:?}"));
        run_schedule_checked(point, round, false, point == CrashPoint::DuringPageFlush);
        return;
    }
    let rounds = schedules_per_point(DEFAULT_ROUNDS);
    for &point in CrashPoint::ALL.iter() {
        for round in 0..rounds {
            // The mid-page-flush point only exists under the paged
            // backend; its rounds double as the paged determinism sweep
            // (each schedule still replays byte-identically).
            run_schedule_checked(point, round, false, point == CrashPoint::DuringPageFlush);
        }
    }
}

/// The vacuum daemon racing the workers and the crash: auto-cadence GC
/// plus explicit passes from the root task, on a WAL-pipeline point and a
/// checkpoint-protocol point. Each schedule replays byte-identically —
/// epoch reclamation and chain pruning must be invisible to the
/// deterministic scheduler.
#[test]
fn sim_torture_vacuum_racing_crash_is_deterministic() {
    if let Some((name, round)) = repro_override() {
        let Some(bare) = name.strip_prefix("vacuum-") else {
            return; // replayed by the main sweep above
        };
        let point = *CrashPoint::ALL
            .iter()
            .find(|p| p.to_string() == bare)
            .unwrap_or_else(|| panic!("SICOST_SIM_REPRO names unknown crash point {name:?}"));
        run_schedule_checked(point, round, true, false);
        return;
    }
    let rounds = schedules_per_point(DEFAULT_ROUNDS);
    for point in [
        CrashPoint::AfterWalAppend,
        CrashPoint::DuringCheckpointWrite,
    ] {
        for round in 0..rounds {
            run_schedule_checked(point, round, true, false);
        }
    }
}

/// The paged backend under the deterministic scheduler, crashed on a
/// WAL-pipeline point rather than mid-flush: pool lookups, clock
/// eviction bookkeeping and heap i/o must all be schedule-pure, so the
/// same seed replays byte-identically — the paged analogue of the
/// in-memory determinism contract.
#[test]
fn sim_torture_paged_backend_is_deterministic_on_pipeline_crash() {
    if let Some((name, round)) = repro_override() {
        let Some(bare) = name.strip_prefix("paged-") else {
            return; // replayed by the main sweep above
        };
        let point = *CrashPoint::ALL
            .iter()
            .find(|p| p.to_string() == bare)
            .unwrap_or_else(|| panic!("SICOST_SIM_REPRO names unknown crash point {name:?}"));
        run_schedule_checked(point, round, false, true);
        return;
    }
    let rounds = schedules_per_point(DEFAULT_ROUNDS);
    for point in [CrashPoint::AfterWalAppend, CrashPoint::BeforeManifestSwap] {
        for round in 0..rounds {
            run_schedule_checked(point, round, false, true);
        }
    }
}

/// The same engine closure under two *different* seeds must generally
/// explore different schedules — otherwise the sweep is theatre. Checked
/// on one crash point with the trace fingerprint.
#[test]
fn different_rounds_explore_different_schedules() {
    let a = run_schedule(CrashPoint::AfterWalAppend, 0, false, false);
    let b = run_schedule(CrashPoint::AfterWalAppend, 1, false, false);
    assert_ne!(
        a.report.trace_hash, b.report.trace_hash,
        "rounds 0 and 1 produced identical schedules"
    );
}
