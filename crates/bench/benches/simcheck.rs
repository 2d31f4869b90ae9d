//! **A10** — verification counters: exhaustive model checking of the
//! SSI/FCW commit protocol plus a deterministic-simulation divergence
//! sweep, reported like every other harness so regressions in the state
//! space (a protocol change that shrinks or explodes it) or in
//! determinism (a schedule that stops replaying byte-identically) show
//! up in `bench_results/simcheck.json` diffs.
//!
//! Three sections:
//! 1. SSI enabled — the exhaustive small-model check must complete with
//!    zero violations (FirstCommitterWins, SnapshotRead, Serializable);
//! 2. SSI disabled — the same exploration must *find* the write-skew
//!    counterexample, proving the checker has teeth;
//! 3. DST sweep — seeded engine schedules each run twice; the trace
//!    hashes must agree (divergences = 0).

use sicost_bench::{BenchMode, BenchReport};
use sicost_common::sync::{sim_sleep, sim_spawn};
use sicost_common::{Money, Xoshiro256};
use sicost_engine::EngineConfig;
use sicost_sim::{check_bfs, Sim, SsiFcwModel};
use sicost_smallbank::schema::customer_name;
use sicost_smallbank::{SmallBank, SmallBankConfig, Strategy};
use std::sync::Arc;
use std::time::Duration;

const BUDGET: u64 = 5_000_000;

/// One seeded engine schedule under the DST scheduler: a small SmallBank
/// instance, two workers, virtual-time checkpointing. Returns the
/// schedule fingerprint.
fn dst_schedule(seed: u64) -> (u64, u64) {
    let (_, report) = Sim::new(seed).with_preempt(0.05).run(|| {
        let bank = Arc::new(SmallBank::new(
            &SmallBankConfig::small(8),
            EngineConfig::functional(),
            Strategy::BaseSI,
        ));
        let workers: Vec<_> = (0..2)
            .map(|tid| {
                let bank = Arc::clone(&bank);
                sim_spawn(&format!("worker-{tid}"), move || {
                    let mut rng = Xoshiro256::seed_from_u64(seed ^ tid);
                    for _ in 0..60 {
                        let c = customer_name(rng.range_inclusive(0, 7) as u64);
                        let _ = bank.deposit_checking(&c, Money::cents(rng.range_inclusive(1, 99)));
                    }
                })
            })
            .collect();
        for _ in 0..5 {
            sim_sleep(Duration::from_millis(1));
            let _ = bank.db().checkpoint();
        }
        for w in workers {
            w.join().expect("worker");
        }
        drop(bank);
    });
    (report.trace_hash, report.decisions)
}

fn main() {
    let mode = BenchMode::from_env();
    // The 3×2 space is ~2.5·10⁶ states — exhaustive in every mode; smoke
    // trims only the DST sweep width.
    let (txns, keys, dst_seeds) = match mode {
        BenchMode::Smoke => (3, 2, 4u64),
        BenchMode::Quick => (3, 2, 8),
        BenchMode::Full => (3, 2, 16),
    };

    println!(
        "\nA10 — SSI/FCW model check + DST divergence sweep ({} mode)",
        mode.name()
    );
    println!("{:-<78}", "");

    let mut report = BenchReport::new(
        "simcheck",
        "A10 — exhaustive SSI/FCW model check and deterministic-simulation sweep",
        mode,
    );
    let mut rows = Vec::new();

    // 1. SSI on: the protocol is safe across the whole reachable space.
    let on = check_bfs(
        &SsiFcwModel {
            txns,
            keys,
            ssi_enabled: true,
        },
        BUDGET,
    );
    assert!(on.complete, "budget must cover the small model");
    assert!(
        on.violation.is_none(),
        "SSI/FCW violated an invariant:\n{}",
        on.violation.as_ref().unwrap().render()
    );
    println!(
        "SSI on : {} states, {} transitions ({} pruned), depth {} — all invariants hold",
        on.explored, on.transitions, on.pruned, on.max_depth
    );
    rows.push(vec![
        format!("ssi-on {txns}x{keys}"),
        on.explored.to_string(),
        on.transitions.to_string(),
        on.pruned.to_string(),
        on.max_depth.to_string(),
        "none".into(),
    ]);

    // 2. SSI off: plain SI + FCW must exhibit write skew.
    let off = check_bfs(
        &SsiFcwModel {
            txns,
            keys,
            ssi_enabled: false,
        },
        BUDGET,
    );
    let violation = off
        .violation
        .as_ref()
        .expect("plain SI must show the write-skew anomaly");
    assert_eq!(violation.invariant, "Serializable");
    println!(
        "SSI off: {} states explored before the write-skew counterexample \
         ({} actions deep)",
        off.explored,
        violation.trace.len()
    );
    rows.push(vec![
        format!("ssi-off {txns}x{keys}"),
        off.explored.to_string(),
        off.transitions.to_string(),
        off.pruned.to_string(),
        violation.trace.len().to_string(),
        violation.invariant.into(),
    ]);

    // 3. DST sweep: every seed replayed twice, fingerprints must agree.
    let mut divergences = 0u64;
    let mut decisions_total = 0u64;
    for seed in 0..dst_seeds {
        let (hash_a, decisions) = dst_schedule(0x51CC ^ seed);
        let (hash_b, _) = dst_schedule(0x51CC ^ seed);
        decisions_total += decisions;
        if hash_a != hash_b {
            divergences += 1;
        }
    }
    assert_eq!(
        divergences, 0,
        "same-seed schedules must replay identically"
    );
    println!(
        "DST    : {dst_seeds} schedules x2 replays, {decisions_total} scheduling \
         decisions, {divergences} divergences"
    );
    rows.push(vec![
        "dst-sweep".into(),
        dst_seeds.to_string(),
        decisions_total.to_string(),
        "-".into(),
        "-".into(),
        format!("{divergences} divergences"),
    ]);
    println!("{:-<78}", "");

    report.push_table(
        "verification counters",
        vec![
            "section".into(),
            "states / schedules".into(),
            "transitions / decisions".into(),
            "pruned".into(),
            "depth".into(),
            "violation".into(),
        ],
        rows,
    );
    let expectation = "With SSI enabled the exhaustive small model satisfies \
         FirstCommitterWins, SnapshotRead and Serializable (the invariants of \
         specs/ssi/serializable_snapshot_isolation.tla); with SSI disabled the \
         checker finds the write-skew counterexample; and every seeded DST \
         schedule replays with an identical trace hash — zero divergences.";
    println!("Expectation: {expectation}");
    report.expectation = expectation.into();
    report.notes.push(format!(
        "model {txns} txns x {keys} keys, BFS budget {BUDGET}; DST sweep {dst_seeds} seeds, \
         SmallBank(8) x 2 workers x 60 ops"
    ));
    println!("report: {}", report.write().display());
}
