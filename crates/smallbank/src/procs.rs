//! The five SmallBank transaction programs (§III-B), with the strategy
//! modifications woven in exactly where the paper's Table I puts them.
//!
//! [`Programs`] is the one coding of the programs, over the
//! [`Statements`] trait; [`SmallBank`] runs it on an in-process
//! [`Database`], and `sicost-server`'s `RemoteBank` runs it over the wire.

use crate::schema::{build_database, SmallBankConfig, Tables};
use crate::strategy::{Mods, Strategy};
use sicost_common::{Money, TableId};
use sicost_engine::{Database, EngineConfig, HistoryObserver, Transaction, TxnError};
use sicost_storage::{Row, Value};
use std::sync::Arc;

/// Outcome domain of the procedures: either the engine aborted us
/// (serialization failure / deadlock) or the application rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbError {
    /// Engine-level abort (serialization failure, deadlock, constraint).
    Txn(TxnError),
    /// The customer name does not exist (DC/WC/TS/Amg rollback rule).
    AccountMissing,
    /// Negative deposit amount (DC rollback rule).
    InvalidAmount,
    /// TransactSaving would drive savings negative (rollback rule).
    InsufficientFunds,
}

impl From<TxnError> for SbError {
    fn from(e: TxnError) -> Self {
        SbError::Txn(e)
    }
}

impl SbError {
    /// True for engine serialization failures (the aborts Figure 6 counts).
    pub fn is_serialization_failure(&self) -> bool {
        matches!(self, SbError::Txn(e) if e.is_serialization_failure())
    }

    /// True for application-rule rollbacks.
    pub fn is_application_rollback(&self) -> bool {
        matches!(
            self,
            SbError::AccountMissing | SbError::InvalidAmount | SbError::InsufficientFunds
        )
    }
}

impl std::fmt::Display for SbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbError::Txn(e) => write!(f, "{e}"),
            SbError::AccountMissing => write!(f, "account not found"),
            SbError::InvalidAmount => write!(f, "invalid amount"),
            SbError::InsufficientFunds => write!(f, "insufficient funds"),
        }
    }
}

impl std::error::Error for SbError {}

/// The three statements the SmallBank programs issue, each a point
/// access by primary key. The engine's [`Transaction`] implements them
/// in process; `sicost-server`'s client transaction implements them over
/// the wire, where it also decides which replies to wait for.
pub trait Statements {
    /// `SELECT * FROM table WHERE pk = :key`.
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError>;
    /// `SELECT * FROM table WHERE pk = :key FOR UPDATE`.
    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError>;
    /// `UPDATE table SET … WHERE pk = :key`, replacing the row.
    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError>;
}

impl Statements for Transaction<'_> {
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Transaction::read(self, table, key)
    }

    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Transaction::read_for_update(self, table, key)
    }

    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
        Transaction::update(self, table, key, row)
    }
}

/// What WriteCheck's read half saw, carried to its write half.
#[derive(Debug, Clone, Copy)]
pub struct CheckReads {
    cid: i64,
    saving: Money,
    checking: Money,
}

/// The five SmallBank programs, each coded once over [`Statements`] with
/// the extra statements its strategy adds (Table I). A program runs
/// inside a transaction its caller began and ends: on `Err` the caller
/// rolls back, on `Ok` it commits.
#[derive(Debug, Clone, Copy)]
pub struct Programs {
    /// Table handles.
    pub tables: Tables,
    /// The strategy's modification flags.
    pub mods: Mods,
}

impl Programs {
    /// DepositChecking's amount rule, checked before `begin`: a negative
    /// amount never opens a transaction.
    pub fn check_deposit(v: Money) -> Result<(), SbError> {
        if v.is_negative() {
            Err(SbError::InvalidAmount)
        } else {
            Ok(())
        }
    }

    // ----- shared fragments -------------------------------------------------

    /// `SELECT CustomerId FROM Account WHERE Name = :n`
    fn lookup_cid(&self, tx: &mut impl Statements, name: &str) -> Result<Option<i64>, TxnError> {
        Ok(tx
            .read(self.tables.account, &Value::str(name))?
            .map(|row| row.int(1)))
    }

    fn read_balance(
        &self,
        tx: &mut impl Statements,
        table: TableId,
        cid: i64,
        for_update: bool,
    ) -> Result<Money, TxnError> {
        let row = if for_update {
            tx.read_for_update(table, &Value::int(cid))?
        } else {
            tx.read(table, &Value::int(cid))?
        };
        // Population guarantees a row per customer; a missing row would be
        // an engine bug, but fail soft as zero like the SQL would (NULL sum).
        Ok(row.map(|r| Money::cents(r.int(1))).unwrap_or(Money::ZERO))
    }

    fn write_balance(
        &self,
        tx: &mut impl Statements,
        table: TableId,
        cid: i64,
        balance: Money,
    ) -> Result<(), TxnError> {
        tx.update(
            table,
            &Value::int(cid),
            Row::new(vec![Value::int(cid), Value::int(balance.as_cents())]),
        )
    }

    /// The identity update of promotion: `UPDATE t SET Balance = Balance
    /// WHERE CustomerId = :cid`.
    fn identity_update(
        &self,
        tx: &mut impl Statements,
        table: TableId,
        cid: i64,
    ) -> Result<(), TxnError> {
        let current = self.read_balance(tx, table, cid, false)?;
        self.write_balance(tx, table, cid, current)
    }

    /// The materialization statement: `UPDATE Conflict SET Value = Value+1
    /// WHERE Id = :cid`.
    fn bump_conflict(&self, tx: &mut impl Statements, cid: i64) -> Result<(), TxnError> {
        let key = Value::int(cid);
        let row = tx.read(self.tables.conflict, &key)?;
        let v = row.map(|r| r.int(1)).unwrap_or(0);
        tx.update(
            self.tables.conflict,
            &key,
            Row::new(vec![key.clone(), Value::int(v + 1)]),
        )
    }

    // ----- the five programs ------------------------------------------------

    /// `Balance(N)` — total of savings and checking (§III-B). Read-only in
    /// the base coding; the BW/ALL strategies add writes here.
    pub fn balance(&self, tx: &mut impl Statements, name: &str) -> Result<Money, SbError> {
        let cid = self.lookup_cid(tx, name)?.ok_or(SbError::AccountMissing)?;
        let sav = self.read_balance(tx, self.tables.saving, cid, false)?;
        let chk = self.read_balance(tx, self.tables.checking, cid, self.mods.bal_sfu_checking)?;
        if self.mods.bal_ident_saving {
            self.identity_update(tx, self.tables.saving, cid)?;
        }
        if self.mods.bal_ident_checking {
            self.identity_update(tx, self.tables.checking, cid)?;
        }
        if self.mods.bal_conflict {
            self.bump_conflict(tx, cid)?;
        }
        Ok(sav + chk)
    }

    /// `DepositChecking(N, V)` (§III-B): rolls back on an unknown name. The
    /// negative-`V` rule is [`Programs::check_deposit`], checked before
    /// the transaction begins.
    pub fn deposit_checking(
        &self,
        tx: &mut impl Statements,
        name: &str,
        v: Money,
    ) -> Result<(), SbError> {
        let cid = self.lookup_cid(tx, name)?.ok_or(SbError::AccountMissing)?;
        let chk = self.read_balance(tx, self.tables.checking, cid, false)?;
        self.write_balance(tx, self.tables.checking, cid, chk + v)?;
        if self.mods.dc_conflict {
            self.bump_conflict(tx, cid)?;
        }
        Ok(())
    }

    /// `TransactSaving(N, V)` (§III-B): deposit or withdrawal on savings;
    /// rolls back if the result would be negative or the name is unknown.
    pub fn transact_saving(
        &self,
        tx: &mut impl Statements,
        name: &str,
        v: Money,
    ) -> Result<(), SbError> {
        let cid = self.lookup_cid(tx, name)?.ok_or(SbError::AccountMissing)?;
        let new = self.read_balance(tx, self.tables.saving, cid, false)? + v;
        if new.is_negative() {
            return Err(SbError::InsufficientFunds);
        }
        self.write_balance(tx, self.tables.saving, cid, new)?;
        if self.mods.ts_conflict {
            self.bump_conflict(tx, cid)?;
        }
        Ok(())
    }

    /// `Amalgamate(N1, N2)` (§III-B): moves all funds of `n1` to `n2`'s
    /// checking account. Both names are looked up before either can fail.
    pub fn amalgamate(&self, tx: &mut impl Statements, n1: &str, n2: &str) -> Result<(), SbError> {
        let (Some(cid1), Some(cid2)) = (self.lookup_cid(tx, n1)?, self.lookup_cid(tx, n2)?) else {
            return Err(SbError::AccountMissing);
        };
        let sav1 = self.read_balance(tx, self.tables.saving, cid1, false)?;
        let chk1 = self.read_balance(tx, self.tables.checking, cid1, false)?;
        let chk2 = self.read_balance(tx, self.tables.checking, cid2, false)?;
        self.write_balance(tx, self.tables.saving, cid1, Money::ZERO)?;
        self.write_balance(tx, self.tables.checking, cid1, Money::ZERO)?;
        self.write_balance(tx, self.tables.checking, cid2, chk2 + sav1 + chk1)?;
        if self.mods.amg_conflict {
            self.bump_conflict(tx, cid1)?;
            self.bump_conflict(tx, cid2)?;
        }
        Ok(())
    }

    /// `WriteCheck(N, V)` (§III-B / Program 1): charges `V` against
    /// checking, with a $1 overdraft penalty when savings+checking can't
    /// cover it. Its two halves are public so a script can run other
    /// transactions between them.
    pub fn write_check(
        &self,
        tx: &mut impl Statements,
        name: &str,
        v: Money,
    ) -> Result<(), SbError> {
        let seen = self.write_check_reads(tx, name)?;
        self.write_check_writes(tx, seen, v)
    }

    /// WriteCheck's reads: the customer id, then savings and checking.
    pub fn write_check_reads(
        &self,
        tx: &mut impl Statements,
        name: &str,
    ) -> Result<CheckReads, SbError> {
        let cid = self.lookup_cid(tx, name)?.ok_or(SbError::AccountMissing)?;
        let saving = self.read_balance(tx, self.tables.saving, cid, self.mods.wc_sfu_saving)?;
        let checking = self.read_balance(tx, self.tables.checking, cid, false)?;
        Ok(CheckReads {
            cid,
            saving,
            checking,
        })
    }

    /// WriteCheck's writes, decided by the balances its reads saw.
    pub fn write_check_writes(
        &self,
        tx: &mut impl Statements,
        seen: CheckReads,
        v: Money,
    ) -> Result<(), SbError> {
        let CheckReads {
            cid,
            saving,
            checking,
        } = seen;
        let charge = if (saving + checking) < v {
            v + Money::dollars(1)
        } else {
            v
        };
        self.write_balance(tx, self.tables.checking, cid, checking - charge)?;
        if self.mods.wc_ident_saving {
            self.write_balance(tx, self.tables.saving, cid, saving)?;
        }
        if self.mods.wc_conflict {
            self.bump_conflict(tx, cid)?;
        }
        Ok(())
    }
}

/// The SmallBank application: a database, and the programs as the
/// chosen strategy modifies them. Share behind an `Arc` across client
/// threads.
pub struct SmallBank {
    db: Database,
    strategy: Strategy,
    programs: Programs,
}

impl SmallBank {
    /// Builds and populates a SmallBank instance.
    pub fn new(config: &SmallBankConfig, engine: EngineConfig, strategy: Strategy) -> Self {
        Self::with_observer(config, engine, strategy, None)
    }

    /// As [`SmallBank::new`], with a history observer for MVSG capture.
    pub fn with_observer(
        config: &SmallBankConfig,
        engine: EngineConfig,
        strategy: Strategy,
        observer: Option<Arc<dyn HistoryObserver>>,
    ) -> Self {
        let (db, tables) = build_database(config, engine, observer);
        Self::adopt(db, tables, strategy)
    }

    /// Wraps an existing database (e.g. one rebuilt by crash recovery
    /// via [`crate::schema::recover_database`]) without repopulating it.
    pub fn adopt(db: Database, tables: Tables, strategy: Strategy) -> Self {
        Self {
            db,
            strategy,
            programs: Programs {
                tables,
                mods: strategy.mods(),
            },
        }
    }

    /// The underlying database (metrics, vacuum, log).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Table handles.
    pub fn tables(&self) -> &Tables {
        &self.programs.tables
    }

    /// The strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The programs as the strategy modifies them.
    pub(crate) fn programs(&self) -> &Programs {
        &self.programs
    }

    /// Total money in the bank (conservation oracle).
    pub fn total_balance(&self) -> Money {
        crate::schema::total_balance(&self.db, self.tables())
    }

    /// Runs `program` in a fresh transaction and commits it. On error the
    /// transaction is dropped, which rolls it back.
    fn run<R>(
        &self,
        program: impl FnOnce(&mut Transaction<'_>) -> Result<R, SbError>,
    ) -> Result<R, SbError> {
        let mut tx = self.db.begin();
        let out = program(&mut tx)?;
        tx.commit()?;
        Ok(out)
    }

    /// [`Programs::balance`] in its own transaction.
    pub fn balance(&self, name: &str) -> Result<Money, SbError> {
        self.run(|tx| self.programs.balance(tx, name))
    }

    /// [`Programs::deposit_checking`] in its own transaction.
    pub fn deposit_checking(&self, name: &str, v: Money) -> Result<(), SbError> {
        Programs::check_deposit(v)?;
        self.run(|tx| self.programs.deposit_checking(tx, name, v))
    }

    /// [`Programs::transact_saving`] in its own transaction.
    pub fn transact_saving(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.run(|tx| self.programs.transact_saving(tx, name, v))
    }

    /// [`Programs::amalgamate`] in its own transaction.
    pub fn amalgamate(&self, n1: &str, n2: &str) -> Result<(), SbError> {
        self.run(|tx| self.programs.amalgamate(tx, n1, n2))
    }

    /// [`Programs::write_check`] in its own transaction.
    pub fn write_check(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.run(|tx| self.programs.write_check(tx, name, v))
    }

    /// `WriteCheck` run with §II-D's third approach: the *pivot*
    /// transaction executes under (simulated) 2PL by taking an explicit
    /// table-granularity exclusive lock on `Saving` before its reads.
    /// By Fekete's allocation theorem (running every pivot with 2PL makes
    /// all executions serializable), this removes the dangerous structure
    /// without touching the other four programs — at the price the paper
    /// predicts: "the explicit locks are all of table granularity and
    /// thus will have very poor performance."
    ///
    /// Only effective when the engine runs with
    /// [`sicost_engine::EngineConfig::table_intent_locks`] so that other
    /// writers conflict with the table lock.
    pub fn write_check_with_table_lock(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.run(|tx| {
            tx.lock_table(self.programs.tables.saving, true)?;
            // PostgreSQL pattern: LOCK TABLE as the first statement means the
            // snapshot is established only after the lock is granted — which
            // is exactly what makes the pivot's reads 2PL-stable.
            tx.refresh_snapshot()?;
            self.programs.write_check(tx, name, v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::customer_name;

    fn bank(strategy: Strategy) -> SmallBank {
        SmallBank::new(
            &SmallBankConfig::small(20),
            EngineConfig::functional(),
            strategy,
        )
    }

    #[test]
    fn balance_sums_savings_and_checking() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(3);
        let total = b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(25)).unwrap();
        assert_eq!(b.balance(&n).unwrap(), total + Money::dollars(25));
    }

    #[test]
    fn unknown_customer_rolls_back_every_program() {
        let b = bank(Strategy::BaseSI);
        assert_eq!(b.balance("ghost"), Err(SbError::AccountMissing));
        assert_eq!(
            b.deposit_checking("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.transact_saving("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.write_check("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.amalgamate("ghost", &customer_name(1)),
            Err(SbError::AccountMissing)
        );
        // All ended as application rollbacks, not serialization aborts.
        let m = b.db().metrics();
        assert_eq!(m.serialization_failures(), 0);
        assert!(m.aborts_application >= 5);
    }

    #[test]
    fn deposit_rejects_negative_amounts() {
        let b = bank(Strategy::BaseSI);
        assert_eq!(
            b.deposit_checking(&customer_name(0), Money::dollars(-5)),
            Err(SbError::InvalidAmount)
        );
    }

    #[test]
    fn transact_saving_enforces_non_negative_balance() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(2);
        let before = b.total_balance();
        // Drain far beyond the max initial balance.
        assert_eq!(
            b.transact_saving(&n, Money::dollars(-100_000)),
            Err(SbError::InsufficientFunds)
        );
        assert_eq!(b.total_balance(), before, "rollback must not move money");
        // A modest deposit works.
        b.transact_saving(&n, Money::dollars(10)).unwrap();
        assert_eq!(b.total_balance(), before + Money::dollars(10));
    }

    #[test]
    fn write_check_applies_overdraft_penalty() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(4);
        let total = b.balance(&n).unwrap();
        let before = b.total_balance();
        // Overdraw: charge = v + $1.
        let v = total + Money::dollars(5);
        b.write_check(&n, v).unwrap();
        assert_eq!(b.total_balance(), before - v - Money::dollars(1));
        // Non-overdraw WC charges exactly v (account now deep negative,
        // so deposit first).
        b.deposit_checking(&n, v + v).unwrap();
        let before = b.total_balance();
        b.write_check(&n, Money::dollars(1)).unwrap();
        assert_eq!(b.total_balance(), before - Money::dollars(1));
    }

    #[test]
    fn amalgamate_moves_everything() {
        let b = bank(Strategy::BaseSI);
        let (n1, n2) = (customer_name(5), customer_name(6));
        let t1 = b.balance(&n1).unwrap();
        let t2 = b.balance(&n2).unwrap();
        let before = b.total_balance();
        b.amalgamate(&n1, &n2).unwrap();
        assert_eq!(b.balance(&n1).unwrap(), Money::ZERO);
        assert_eq!(b.balance(&n2).unwrap(), t1 + t2);
        assert_eq!(b.total_balance(), before, "amalgamate conserves money");
    }

    #[test]
    fn every_strategy_preserves_semantics() {
        // The modifications must not change observable behaviour.
        for strategy in Strategy::all() {
            let b = bank(strategy);
            let n = customer_name(7);
            let total = b.balance(&n).unwrap();
            b.deposit_checking(&n, Money::dollars(10)).unwrap();
            b.transact_saving(&n, Money::dollars(5)).unwrap();
            b.write_check(&n, Money::dollars(3)).unwrap();
            assert_eq!(
                b.balance(&n).unwrap(),
                total + Money::dollars(12),
                "strategy {strategy} changed semantics"
            );
            b.amalgamate(&n, &customer_name(8)).unwrap();
            assert_eq!(b.balance(&n).unwrap(), Money::ZERO);
        }
    }

    #[test]
    fn conflict_table_is_bumped_only_by_materialize_strategies() {
        let read_conflict_sum = |b: &SmallBank| {
            let mut sum = 0;
            b.db().catalog().table(b.tables().conflict).scan_at(
                b.db().clock(),
                &sicost_storage::Predicate::True,
                |_, row, _| sum += row.int(1),
            );
            sum
        };
        let b = bank(Strategy::MaterializeWT);
        let n = customer_name(1);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.transact_saving(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(1)).unwrap();
        assert_eq!(read_conflict_sum(&b), 2, "only WC and TS bump Conflict");

        let b = bank(Strategy::PromoteALL);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        assert_eq!(read_conflict_sum(&b), 0, "promotion never touches Conflict");

        let b = bank(Strategy::MaterializeALL);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.transact_saving(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(1)).unwrap();
        b.amalgamate(&n, &customer_name(2)).unwrap();
        assert_eq!(read_conflict_sum(&b), 6, "Amg bumps two rows");
    }

    #[test]
    fn write_check_with_table_lock_has_identical_semantics() {
        let mut cfg = EngineConfig::functional();
        cfg.table_intent_locks = true;
        let b = SmallBank::new(&SmallBankConfig::small(20), cfg, Strategy::BaseSI);
        let n = customer_name(9);
        let total = b.balance(&n).unwrap();
        let before = b.total_balance();
        b.write_check_with_table_lock(&n, Money::dollars(5))
            .unwrap();
        assert_eq!(b.balance(&n).unwrap(), total - Money::dollars(5));
        assert_eq!(b.total_balance(), before - Money::dollars(5));
        // Unknown customer still rolls back.
        assert_eq!(
            b.write_check_with_table_lock("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
    }

    #[test]
    fn bw_strategies_make_balance_an_updater() {
        for (strategy, expect_wal) in [
            (Strategy::BaseSI, false),
            (Strategy::MaterializeWT, false),
            (Strategy::PromoteWTUpd, false),
            (Strategy::MaterializeBW, true),
            (Strategy::PromoteBWUpd, true),
            (Strategy::PromoteALL, true),
        ] {
            let b = bank(strategy);
            let before = b.db().wal_stats().records;
            b.balance(&customer_name(0)).unwrap();
            let wrote = b.db().wal_stats().records > before;
            assert_eq!(
                wrote, expect_wal,
                "strategy {strategy}: Balance WAL behaviour"
            );
        }
    }
}
