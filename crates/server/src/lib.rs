//! Client/server execution for the SmallBank testbed.
//!
//! The paper's measurements ran the benchmark over a network: clients
//! submit statements to a database *server*, and every statement pays a
//! round trip. This crate adds that missing tier — a length-prefixed
//! binary protocol ([`protocol`]), a pluggable frame transport
//! ([`transport`]) with a real TCP backend and a deterministic
//! simulated network ([`simnet`]), the per-connection server state
//! machine and multi-client TCP front-end ([`server`]), a pipelining
//! client with a connection pool ([`client`]), and the SmallBank
//! programs run over the wire ([`remote`]) from the same coding the
//! in-process bank runs.
//!
//! Under the simulated network every byte of the exchange is scheduled
//! by `sicost-sim`'s cooperative scheduler, so a full client/server
//! SmallBank run — latency, reordering across connections, injected
//! disconnects mid-commit — is a pure function of a `u64` seed and
//! replays byte-identically.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod remote;
pub mod server;
pub mod simnet;
pub mod transport;
pub mod wire;

pub use client::{Client, ClientError, ClientPool, ClientTxn, CommitOutcome};
pub use protocol::{Request, Response, PROTOCOL_VERSION};
pub use remote::{classify_remote, RemoteBank, RemoteError, RemoteWorkload};
pub use server::{serve_connection, TcpServer};
pub use simnet::{Direction, FaultKind, FaultSpec, SimNet, SimNetConfig, SimTransport};
pub use transport::{NetError, TcpTransport, Transport};
pub use wire::MAX_FRAME_LEN;
