//! The concrete SmallBank anomaly (§III-C), scripted deterministically.
//!
//! The execution from Fekete, O'Neil & O'Neil's "read-only transaction
//! anomaly", transplanted onto SmallBank exactly as the paper describes:
//! `WriteCheck` and `TransactSaving` run concurrently on the same
//! snapshot, and a `Balance` transaction between their commits observes a
//! total that is inconsistent with the overdraft penalty the final state
//! shows. Under plain SI all three commit (non-serializable); under every
//! correct strategy the engine aborts one of them.
//!
//! The script runs `WriteCheck`'s read half and write half from
//! [`Programs`](crate::procs::Programs) (with the strategy's extra
//! statements included) in one transaction, waiting between them,
//! because the anomaly needs its reads and writes separated in time;
//! `TransactSaving` runs on its own thread (it may legitimately block on
//! promoted locks) and `Balance` runs inline through the normal procedure.

use crate::procs::{SbError, SmallBank};
use crate::schema::customer_name;
use sicost_common::Money;
use sicost_storage::{Row, Value};

/// Outcome of one scripted run.
#[derive(Debug)]
pub struct AnomalyOutcome {
    /// What the mid-script Balance transaction returned (it always
    /// commits under WT-side strategies; under BW-side strategies it can
    /// itself abort).
    pub balance_seen: Result<Money, SbError>,
    /// Outcome of the concurrent TransactSaving(+$20).
    pub ts_result: Result<(), SbError>,
    /// Outcome of the scripted WriteCheck($10).
    pub wc_result: Result<(), SbError>,
    /// Final savings balance.
    pub final_saving: Money,
    /// Final checking balance.
    pub final_checking: Money,
}

impl AnomalyOutcome {
    /// The semantic test for the anomaly: every transaction committed,
    /// the check was penalised (checking = −$11), yet Balance saw $20 —
    /// a total under which no serial order charges the penalty.
    pub fn is_anomalous(&self) -> bool {
        self.ts_result.is_ok()
            && self.wc_result.is_ok()
            && self.balance_seen == Ok(Money::dollars(20))
            && self.final_checking == Money::dollars(-11)
    }
}

/// Runs the scripted interleaving against customer 0 of `bank`:
///
/// ```text
/// begin(WC)  read sav, chk            (sees 0, 0)
///            ── TS(+$20) runs to completion (may block, then abort)
///            ── Bal runs               (sees $20 when TS committed)
/// WC:        charge $10 (+$1 penalty since its snapshot shows $0)
/// commit(WC)
/// ```
pub fn run_write_skew_script(bank: &SmallBank) -> AnomalyOutcome {
    let name = customer_name(0);
    let tables = *bank.tables();
    let db = bank.db();

    // Deterministic starting state: both balances zero (setup-level load,
    // outside the measured interleaving).
    let cid = 0i64;
    db.bulk_load(
        tables.saving,
        [Row::new(vec![Value::int(cid), Value::int(0)])],
    )
    .expect("reset saving");
    db.bulk_load(
        tables.checking,
        [Row::new(vec![Value::int(cid), Value::int(0)])],
    )
    .expect("reset checking");

    let v = Money::dollars(10);
    let programs = bank.programs();

    // ---- WC begins and performs its reads on the pre-TS snapshot.
    let mut wc = db.begin();
    let seen = programs.write_check_reads(&mut wc, &name);

    // ---- TS(+$20) runs concurrently on its own thread (it may block on
    // a promoted lock until WC finishes).
    let (ts_result, balance_seen, wc_result) = std::thread::scope(|s| {
        let ts_handle = s.spawn(|| bank.transact_saving(&name, Money::dollars(20)));
        // Give TS time to commit when it is not blocked.
        std::thread::sleep(std::time::Duration::from_millis(60));
        // ---- Bal observes the state between the two commits.
        let balance_seen = bank.balance(&name);

        // ---- WC finishes on its original snapshot. A failed step drops
        // `wc`, which rolls it back.
        let wc_result = seen
            .and_then(|seen| programs.write_check_writes(&mut wc, seen, v))
            .and_then(|()| Ok(wc.commit().map(|_| ())?));
        let ts_result = ts_handle.join().expect("TS thread");
        (ts_result, balance_seen, wc_result)
    });

    // ---- Final state.
    let read_cents = |table| {
        db.catalog()
            .table(table)
            .read_at(&Value::int(cid), db.clock())
            .and_then(|v| v.row)
            .map(|r| r.int(1))
            .unwrap_or(0)
    };
    AnomalyOutcome {
        balance_seen,
        ts_result,
        wc_result,
        final_saving: Money::cents(read_cents(tables.saving)),
        final_checking: Money::cents(read_cents(tables.checking)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SmallBankConfig;
    use crate::strategy::Strategy;
    use sicost_engine::{CcMode, EngineConfig, SfuSemantics};
    use sicost_mvsg::{History, Mvsg};
    use std::sync::Arc;

    fn run(strategy: Strategy, engine: EngineConfig) -> (AnomalyOutcome, Arc<History>) {
        let history = History::new();
        let bank = SmallBank::with_observer(
            &SmallBankConfig::small(4),
            engine,
            strategy,
            Some(history.clone() as Arc<dyn sicost_engine::HistoryObserver>),
        );
        let outcome = run_write_skew_script(&bank);
        (outcome, history)
    }

    #[test]
    fn base_si_exhibits_the_anomaly_and_fails_certification() {
        let (outcome, history) = run(Strategy::BaseSI, EngineConfig::functional());
        assert!(
            outcome.is_anomalous(),
            "plain SI must exhibit the anomaly: {outcome:?}"
        );
        let report = Mvsg::from_events(&history.events()).certify();
        assert!(
            !report.serializable,
            "the MVSG certifier must reject the SI execution"
        );
    }

    #[test]
    fn wt_strategies_prevent_the_anomaly_on_postgres() {
        for strategy in [
            Strategy::MaterializeWT,
            Strategy::PromoteWTUpd,
            Strategy::MaterializeBW,
            Strategy::PromoteBWUpd,
            Strategy::MaterializeALL,
            Strategy::PromoteALL,
        ] {
            let (outcome, history) = run(strategy, EngineConfig::functional());
            assert!(
                !outcome.is_anomalous(),
                "{strategy} must prevent the anomaly: {outcome:?}"
            );
            // Exactly one of the participants must have died by a
            // serialization failure (they genuinely conflict now).
            let serialization_abort = [
                outcome.ts_result.as_ref().err(),
                outcome.wc_result.as_ref().err(),
                outcome.balance_seen.as_ref().err(),
            ]
            .into_iter()
            .flatten()
            .any(|e| e.is_serialization_failure());
            assert!(
                serialization_abort,
                "{strategy}: some transaction must abort: {outcome:?}"
            );
            let report = Mvsg::from_events(&history.events()).certify();
            assert!(report.serializable, "{strategy} execution must certify");
        }
    }

    #[test]
    fn sfu_promotion_works_only_on_the_commercial_platform() {
        // PostgreSQL semantics: lock-only sfu leaves the §II-C
        // interleaving open. The cleanest demonstration is PromoteBW-sfu:
        // Bal sfu-reads Checking, commits, and WriteCheck's later write
        // proceeds — all three commit and the anomaly survives.
        let (outcome, history) = run(Strategy::PromoteBWSfu, EngineConfig::functional());
        assert!(
            outcome.is_anomalous(),
            "lock-only sfu must NOT fix the anomaly (§II-C): {outcome:?}"
        );
        assert!(!Mvsg::from_events(&history.events()).is_serializable());

        // PromoteWT-sfu under lock-only semantics: the SDG still flags
        // the WT edge as vulnerable (see sdg_spec tests), but in *this*
        // script the saving lock delays TS past WC's commit, which
        // forces a serializable order — no assertion of anomaly either way.
        let (outcome, _) = run(Strategy::PromoteWTSfu, EngineConfig::functional());
        assert!(
            !outcome.is_anomalous(),
            "the lock ordering serialises this particular script: {outcome:?}"
        );

        // Commercial semantics: sfu is an identity write.
        let commercial = EngineConfig::functional()
            .with_cc(CcMode::SiFirstCommitterWins)
            .with_sfu(SfuSemantics::IdentityWrite);
        let (outcome, history) = run(Strategy::PromoteWTSfu, commercial.clone());
        assert!(
            !outcome.is_anomalous(),
            "sfu-as-write must fix the anomaly: {outcome:?}"
        );
        assert!(Mvsg::from_events(&history.events()).is_serializable());

        let (outcome, history) = run(Strategy::PromoteBWSfu, commercial);
        assert!(!outcome.is_anomalous(), "{outcome:?}");
        assert!(Mvsg::from_events(&history.events()).is_serializable());
    }

    #[test]
    fn ssi_engine_prevents_the_anomaly_without_program_changes() {
        let (outcome, history) = run(
            Strategy::BaseSI,
            EngineConfig::functional().with_cc(CcMode::Ssi),
        );
        assert!(
            !outcome.is_anomalous(),
            "SSI must block the anomaly with unmodified programs: {outcome:?}"
        );
        let report = Mvsg::from_events(&history.events()).certify();
        assert!(report.serializable);
    }

    #[test]
    fn s2pl_engine_prevents_the_anomaly_without_program_changes() {
        let (outcome, history) = run(
            Strategy::BaseSI,
            EngineConfig::functional().with_cc(CcMode::S2pl),
        );
        assert!(!outcome.is_anomalous(), "{outcome:?}");
        assert!(Mvsg::from_events(&history.events()).is_serializable());
    }

    #[test]
    fn anomalous_state_details_under_plain_si() {
        let (outcome, _) = run(Strategy::BaseSI, EngineConfig::functional());
        // TS deposited $20 into savings; WC charged $10 + $1 penalty
        // against a $0 snapshot.
        assert_eq!(outcome.final_saving, Money::dollars(20));
        assert_eq!(outcome.final_checking, Money::dollars(-11));
        assert_eq!(outcome.balance_seen, Ok(Money::dollars(20)));
    }
}
