//! The **SmallBank** benchmark (§III of the paper).
//!
//! A small banking application contrived to offer a diverse choice of
//! serializability-ensuring modifications: three tables
//! (`Account(Name, CustomerId)`, `Saving(CustomerId, Balance)`,
//! `Checking(CustomerId, Balance)`), five transaction programs
//! (Balance, DepositChecking, TransactSaving, Amalgamate, WriteCheck),
//! and — under plain SI — exactly one dangerous structure:
//! `Bal ──v──▶ WC ──v──▶ TS`.
//!
//! [`Strategy`] enumerates the nine program variants measured in the
//! paper (plain SI, the WT/BW single-edge fixes by materialization and
//! both promotions, and the MaterializeALL/PromoteALL sledgehammers);
//! [`Programs`] codes the five procedures once, with the chosen
//! strategy's extra statements, over the [`Statements`] a transaction
//! issues; [`SmallBank`] runs them against a [`sicost_engine::Database`],
//! and `sicost-server`'s `RemoteBank` runs the same coding over the wire.
//! [`sdg_spec`] declares the same programs for
//! [`sicost_core`]'s static analysis so the tests can *prove* each
//! strategy safe (or prove Base SI unsafe) and regenerate Figures 1–3
//! and Table I; [`anomaly`] scripts the concrete non-serializable
//! interleaving for the MVSG certifier.

#![warn(missing_docs)]

pub mod anomaly;
pub mod driver_adapter;
pub mod procs;
pub mod schema;
pub mod sdg_spec;
pub mod strategy;
pub mod workload;

pub use driver_adapter::SmallBankDriver;
pub use procs::{Programs, SbError, SmallBank, Statements};
pub use schema::{recover_database, schema_builder, SmallBankConfig};
pub use sdg_spec::SmallBankSpec;
pub use strategy::Strategy;
pub use workload::{MixWeights, SmallBankWorkload, TxnKind, WorkloadParams};
