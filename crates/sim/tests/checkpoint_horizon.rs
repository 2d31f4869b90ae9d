//! Deterministic-simulation sweep of the checkpoint/horizon race.
//!
//! A checkpoint reads every table at its timestamp `C` while committers
//! keep installing. Every install prunes its chain to the oldest
//! registered snapshot, so unless `C` is registered for the length of the
//! capture, the horizon can pass it: a row updated twice after `C` loses
//! its only version at or below `C` before the checkpoint reads it, and
//! the image comes out short of the population. (Replaying the log
//! suffix would repair the final state, but the image would no longer be
//! the committed state at `C`.)
//!
//! Each seed runs two committers over a handful of hot SmallBank
//! customers while the root task takes checkpoints back to back; every
//! image must hold every row. SmallBank never inserts or deletes, so the
//! population is the row count at load.

use sicost_common::sync::sim_spawn;
use sicost_common::{Money, Xoshiro256};
use sicost_engine::EngineConfig;
use sicost_sim::Sim;
use sicost_smallbank::schema::customer_name;
use sicost_smallbank::{SmallBank, SmallBankConfig, Strategy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEEDS: u64 = 32;
const CUSTOMERS: u64 = 4;
const COMMITTERS: usize = 2;
const OPS_PER_COMMITTER: usize = 150;
const PREEMPT_P: f64 = 0.05;

/// Runs one seeded schedule; returns (checkpoints taken, how many of
/// their images missed a row).
fn short_images(seed: u64) -> (usize, usize) {
    let (counts, _) = Sim::new(seed).with_preempt(PREEMPT_P).run(|| {
        let bank = Arc::new(SmallBank::new(
            &SmallBankConfig::small(CUSTOMERS),
            EngineConfig::functional(),
            Strategy::BaseSI,
        ));
        let db = bank.db();
        let population: usize = db.catalog().tables().map(|t| t.count_at(db.clock())).sum();
        let finished = Arc::new(AtomicUsize::new(0));
        let committers: Vec<_> = (0..COMMITTERS)
            .map(|c| {
                let (bank, finished) = (Arc::clone(&bank), Arc::clone(&finished));
                sim_spawn(&format!("committer-{c}"), move || {
                    let mut rng = Xoshiro256::seed_from_u64(seed ^ (c as u64) << 32);
                    for _ in 0..OPS_PER_COMMITTER {
                        let name = customer_name(rng.next_below(CUSTOMERS));
                        let amount = Money::cents(1 + rng.next_below(99) as i64);
                        let res = if rng.next_bool(0.5) {
                            bank.deposit_checking(&name, amount)
                        } else {
                            bank.transact_saving(&name, amount)
                        };
                        if let Err(e) = res {
                            assert!(e.is_serialization_failure(), "unexpected error: {e:?}");
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let (mut taken, mut short) = (0, 0);
        while finished.load(Ordering::SeqCst) < COMMITTERS {
            let out = db.checkpoint().expect("no fault is armed");
            taken += 1;
            if out.rows < population {
                short += 1;
            }
        }
        for c in committers {
            c.join().expect("committer panicked");
        }
        (taken, short)
    });
    counts
}

#[test]
fn every_checkpoint_image_holds_the_whole_population() {
    let mut taken = 0;
    let mut failing = Vec::new();
    for seed in 0..SEEDS {
        let (n, short) = short_images(seed);
        taken += n;
        if short > 0 {
            failing.push((seed, short));
        }
    }
    assert!(
        taken >= SEEDS as usize,
        "the sweep must interleave checkpoints with commits: {taken}"
    );
    assert!(
        failing.is_empty(),
        "(seed, short images) whose checkpoint missed rows of the population: {failing:?}"
    );
}
