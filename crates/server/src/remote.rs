//! The SmallBank procedures executed over the wire, plus the driver
//! adapter that makes the remote bank a measurable [`Workload`].
//!
//! [`RemoteBank`] runs the one coding of the five programs,
//! [`Programs`], over a [`ClientTxn`]: the client transaction implements
//! [`Statements`], so the remote bank issues the same statements in the
//! same order as the in-process bank. Every read is a protocol round
//! trip; updates are pipelined, so a program's trailing writes ride in
//! the commit's network flush. The remote bank runs
//! `Strategy::BaseSI`, the coding the client/server equivalence tests
//! compare under each concurrency-control mode.

use crate::client::{ClientError, ClientPool, ClientTxn, CommitOutcome};
use crate::transport::Transport;
use sicost_common::{Money, TableId, Xoshiro256};
use sicost_driver::{Outcome, Workload};
use sicost_engine::TxnError;
use sicost_smallbank::driver_adapter::classify;
use sicost_smallbank::schema::Tables;
use sicost_smallbank::workload::TxnRequest;
use sicost_smallbank::{Programs, SbError, SmallBankWorkload, Statements, Strategy, TxnKind};
use sicost_storage::{Row, Value};

/// How a remote procedure failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// The server rolled the transaction back (engine error or
    /// application rule). Definitely not committed.
    Sb(SbError),
    /// The connection failed before the commit was in flight.
    /// Definitely not committed.
    NotCommitted(ClientError),
    /// The commit was in flight when the connection failed. The
    /// transaction may or may not have applied — only the database
    /// knows (the recovery-torture oracle's *undecided* class).
    Indeterminate(ClientError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Sb(e) => write!(f, "{e}"),
            RemoteError::NotCommitted(e) => write!(f, "not committed: {e}"),
            RemoteError::Indeterminate(e) => write!(f, "indeterminate: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl RemoteError {
    /// True when the commit fate is unknown.
    pub fn is_indeterminate(&self) -> bool {
        matches!(self, RemoteError::Indeterminate(_))
    }
}

impl<T: Transport> Statements for ClientTxn<'_, T> {
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        ClientTxn::read(self, table, key)
    }

    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        ClientTxn::read_for_update(self, table, key)
    }

    /// Pipelined: the reply is drained by the next read or by commit.
    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
        self.update_pipelined(table, key, row)
    }
}

/// The SmallBank client application: a connection pool plus the
/// programs, bound to the table ids learned from the handshake catalog.
pub struct RemoteBank<T: Transport> {
    pool: ClientPool<T>,
    programs: Programs,
}

fn commit_outcome(outcome: CommitOutcome) -> Result<(), RemoteError> {
    match outcome {
        CommitOutcome::Committed { .. } => Ok(()),
        CommitOutcome::Aborted(e) => Err(RemoteError::Sb(SbError::Txn(e))),
        CommitOutcome::Failed(e) => Err(RemoteError::NotCommitted(e)),
        CommitOutcome::Indeterminate(e) => Err(RemoteError::Indeterminate(e)),
    }
}

impl<T: Transport> RemoteBank<T> {
    /// Wraps a pool, dialing one connection to learn the catalog. The
    /// server must expose the four SmallBank tables by name.
    pub fn new(pool: ClientPool<T>) -> Result<Self, ClientError> {
        let tables = pool.with(|c| {
            let find = |name: &str| {
                c.table_id(name)
                    .ok_or_else(|| ClientError::Unexpected(format!("no table {name:?} in catalog")))
            };
            Ok::<Tables, ClientError>(Tables {
                account: find("Account")?,
                saving: find("Saving")?,
                checking: find("Checking")?,
                conflict: find("Conflict")?,
            })
        })??;
        let programs = Programs {
            tables,
            mods: Strategy::BaseSI.mods(),
        };
        Ok(Self { pool, programs })
    }

    /// The table ids in use.
    pub fn tables(&self) -> &Tables {
        &self.programs.tables
    }

    /// Runs `program` inside a fresh transaction on a pooled connection,
    /// committing on success and rolling back on error.
    fn transact<R>(
        &self,
        program: impl FnOnce(&mut ClientTxn<'_, T>) -> Result<R, SbError>,
    ) -> Result<R, RemoteError> {
        let mut client = match self.pool.checkout() {
            Ok(c) => c,
            Err(e) => return Err(RemoteError::NotCommitted(e)),
        };
        let result = (|| {
            let mut txn = client.begin().map_err(RemoteError::NotCommitted)?;
            match program(&mut txn) {
                Ok(r) => commit_outcome(txn.commit()).map(|()| r),
                Err(e) => {
                    txn.rollback();
                    Err(RemoteError::Sb(e))
                }
            }
        })();
        self.pool.checkin(client);
        result
    }

    /// [`Programs::balance`] over the wire.
    pub fn balance(&self, name: &str) -> Result<Money, RemoteError> {
        self.transact(|txn| self.programs.balance(txn, name))
    }

    /// [`Programs::deposit_checking`] over the wire.
    pub fn deposit_checking(&self, name: &str, v: Money) -> Result<(), RemoteError> {
        Programs::check_deposit(v).map_err(RemoteError::Sb)?;
        self.transact(|txn| self.programs.deposit_checking(txn, name, v))
    }

    /// [`Programs::transact_saving`] over the wire.
    pub fn transact_saving(&self, name: &str, v: Money) -> Result<(), RemoteError> {
        self.transact(|txn| self.programs.transact_saving(txn, name, v))
    }

    /// [`Programs::amalgamate`] over the wire.
    pub fn amalgamate(&self, n1: &str, n2: &str) -> Result<(), RemoteError> {
        self.transact(|txn| self.programs.amalgamate(txn, n1, n2))
    }

    /// [`Programs::write_check`] over the wire.
    pub fn write_check(&self, name: &str, v: Money) -> Result<(), RemoteError> {
        self.transact(|txn| self.programs.write_check(txn, name, v))
    }

    /// Dispatches one sampled request.
    pub fn execute(&self, req: &TxnRequest) -> Result<(), RemoteError> {
        match req {
            TxnRequest::Balance { name } => self.balance(name).map(|_| ()),
            TxnRequest::DepositChecking { name, v } => self.deposit_checking(name, *v),
            TxnRequest::TransactSaving { name, v } => self.transact_saving(name, *v),
            TxnRequest::Amalgamate { n1, n2 } => self.amalgamate(n1, n2),
            TxnRequest::WriteCheck { name, v } => self.write_check(name, *v),
        }
    }
}

/// Maps a remote result into the driver's outcome taxonomy. The two
/// network-failure classes part ways here: a connection that died
/// *before* the commit frame went out ([`RemoteError::NotCommitted`])
/// provably left no state behind and is a retryable transient fault,
/// while a lost acknowledgement ([`RemoteError::Indeterminate`]) maps to
/// [`Outcome::Indeterminate`], which [`RetryPolicy`] classifies as
/// non-retryable — the commit may have applied, and re-running the
/// transaction could double-apply it (the fault-sweep regression test
/// demonstrates exactly that).
///
/// [`RetryPolicy`]: sicost_driver::RetryPolicy
pub fn classify_remote(result: Result<(), RemoteError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Committed,
        Err(RemoteError::Sb(e)) => classify(Err(e)),
        Err(RemoteError::NotCommitted(_)) => Outcome::TransientFault,
        Err(RemoteError::Indeterminate(_)) => Outcome::Indeterminate,
    }
}

/// A measurable over-the-wire SmallBank workload: the remote bank plus
/// the same request generator the in-process driver uses, so a run with
/// equal sampling seeds issues the identical request stream.
pub struct RemoteWorkload<T: Transport> {
    bank: RemoteBank<T>,
    workload: SmallBankWorkload,
}

impl<T: Transport> RemoteWorkload<T> {
    /// Bundles a remote bank and a request generator.
    pub fn new(bank: RemoteBank<T>, workload: SmallBankWorkload) -> Self {
        Self { bank, workload }
    }

    /// The remote bank under test.
    pub fn bank(&self) -> &RemoteBank<T> {
        &self.bank
    }
}

impl<T: Transport> Workload for RemoteWorkload<T> {
    type Request = TxnRequest;

    fn kinds(&self) -> Vec<&'static str> {
        TxnKind::ALL.iter().map(|k| k.name()).collect()
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, TxnRequest) {
        let req = self.workload.sample(rng);
        let kind_idx = TxnKind::ALL
            .iter()
            .position(|k| *k == req.kind())
            .expect("known kind");
        (kind_idx, req)
    }

    fn execute(&self, req: &TxnRequest, _attempt: u32) -> Outcome {
        classify_remote(self.bank.execute(req))
    }
}
