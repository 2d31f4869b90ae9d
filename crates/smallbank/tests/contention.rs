//! The mechanism behind Figure 6, pinned deterministically: promotion on
//! the BW edge turns the read-only Balance into a Checking writer, which
//! makes it conflict with DepositChecking and Amalgamate; the WT-side
//! fixes leave Balance untouched.
//!
//! Each test scripts the overlap on one thread, with engine transactions
//! over the strategy's [`Programs`]: one program's transaction begins,
//! the other program runs and commits, and then the first runs and
//! commits. No thread timing decides whether the two overlap.

use sicost_common::Money;
use sicost_engine::{EngineConfig, Transaction};
use sicost_smallbank::{
    schema::customer_name, Programs, SbError, SmallBank, SmallBankConfig, Strategy,
};

/// Which program's transaction begins first, and so commits last.
#[derive(Debug, Clone, Copy)]
enum First {
    Balance,
    Deposit,
}

/// Runs `program` in `tx` and commits it.
fn finish(
    mut tx: Transaction<'_>,
    program: impl FnOnce(&mut Transaction<'_>) -> Result<(), SbError>,
) -> Result<(), SbError> {
    program(&mut tx)?;
    tx.commit()?;
    Ok(())
}

/// Balance and DepositChecking on one customer, overlapped: `first`'s
/// transaction begins, the other program runs and commits, and then
/// `first` runs its program and commits. Returns (Balance's outcome,
/// DepositChecking's outcome).
fn overlap(strategy: Strategy, first: First) -> (Result<(), SbError>, Result<(), SbError>) {
    let bank = SmallBank::new(
        &SmallBankConfig::small(4),
        EngineConfig::functional(),
        strategy,
    );
    let programs = Programs {
        tables: *bank.tables(),
        mods: strategy.mods(),
    };
    let name = customer_name(0);
    let balance = |tx: &mut Transaction<'_>| programs.balance(tx, &name).map(drop);
    let deposit =
        |tx: &mut Transaction<'_>| programs.deposit_checking(tx, &name, Money::dollars(1));
    let db = bank.db();
    let outer = db.begin();
    match first {
        First::Balance => {
            let dc = finish(db.begin(), deposit);
            (finish(outer, balance), dc)
        }
        First::Deposit => {
            let bal = finish(db.begin(), balance);
            (bal, finish(outer, deposit))
        }
    }
}

fn is_serialization_failure(r: &Result<(), SbError>) -> bool {
    matches!(r, Err(e) if e.is_serialization_failure())
}

#[test]
fn promote_bw_makes_balance_contend_with_deposits() {
    // Figure 6's striking bars: under PromoteBW-upd, Balance and
    // DepositChecking both update Checking, so whichever commits second
    // fails First-Updater-Wins on that row.
    let (bal, dc) = overlap(Strategy::PromoteBWUpd, First::Deposit);
    assert_eq!(bal, Ok(()), "Balance commits first");
    assert!(
        is_serialization_failure(&dc),
        "DepositChecking's Checking update must fail FUW: {dc:?}"
    );
    let (bal, dc) = overlap(Strategy::PromoteBWUpd, First::Balance);
    assert_eq!(dc, Ok(()), "DepositChecking commits first");
    assert!(
        is_serialization_failure(&bal),
        "Balance's identity update must fail FUW: {bal:?}"
    );
    // The same script under plain SI: Balance writes nothing.
    assert_eq!(overlap(Strategy::BaseSI, First::Deposit), (Ok(()), Ok(())));
}

#[test]
fn wt_side_fixes_leave_balance_conflict_free() {
    for strategy in [
        Strategy::BaseSI,
        Strategy::MaterializeWT,
        Strategy::PromoteWTUpd,
    ] {
        for first in [First::Balance, First::Deposit] {
            assert_eq!(
                overlap(strategy, first),
                (Ok(()), Ok(())),
                "{strategy}, {first:?} first: Balance is read-only and DC only conflicts with itself"
            );
        }
    }
}

#[test]
fn materialize_bw_contends_only_via_the_conflict_table() {
    // MaterializeBW puts Conflict updates in Bal and WC, so Bal–DC stays
    // clean (DC does not touch Conflict in this option)…
    for first in [First::Balance, First::Deposit] {
        assert_eq!(
            overlap(Strategy::MaterializeBW, first),
            (Ok(()), Ok(())),
            "{first:?} first: Bal–DC must not conflict under MaterializeBW"
        );
    }
    // …which is exactly why its Figure 6 abort profile is mild compared
    // to PromoteBW-upd even though both fix the same edge.
}
