//! Static Dependency Graph (SDG) analysis and serializability-ensuring
//! program transformations for Snapshot Isolation platforms.
//!
//! This crate is the paper's primary contribution packaged as a library a
//! DBA (or a tool) can use:
//!
//! 1. **Describe** each transaction program's data footprint as a
//!    [`Program`]: parameterised single-row reads/writes, predicate reads,
//!    `SELECT … FOR UPDATE` reads.
//! 2. **Analyse**: [`Sdg::build`] derives every inter-program conflict,
//!    marks *vulnerable* edges (read-write conflicts between potentially
//!    concurrent instances not shielded by a guaranteed write-write
//!    conflict), and enumerates *dangerous structures* (two consecutive
//!    vulnerable edges on a cycle). By the theorem of Fekete et al. (TODS
//!    2005), no dangerous structure ⇒ every execution on an SI engine is
//!    serializable.
//! 3. **Choose** which vulnerable edges to break:
//!    [`cover::minimal_edge_cover`] solves the (NP-hard, per Jorwekar et
//!    al.) minimum-cost hitting problem exactly for small graphs and
//!    greedily for large ones, with a cost model encoding the paper's
//!    guidelines (avoid turning read-only programs into updaters).
//! 4. **Transform**: [`strategy::apply`] rewrites programs by
//!    *materialization* (both sides update a dedicated `Conflict` table
//!    row) or *promotion* (identity update or `FOR UPDATE` on the read),
//!    and re-analysis proves the result safe.
//!
//! The platform split from §II-C is explicit: [`SfuTreatment`] controls
//! whether `FOR UPDATE` counts as a write (the commercial platform) or as
//! a mere lock (PostgreSQL), in which case promotion-by-sfu does **not**
//! remove vulnerability.

#![deny(missing_docs)]

pub mod cover;
pub mod program;
pub mod render;
pub mod robustness;
pub mod sdg;
pub mod strategy;

pub use cover::{minimal_edge_cover, CoverSolution, EdgeCost};
pub use program::{Access, AccessMode, KeySpec, Program};
pub use robustness::{check, CostDelta, FixEdge, RobustnessReport, Witness, WorkloadSpec};
pub use sdg::{ConflictKind, DangerousStructure, Sdg, SdgEdge, SfuTreatment};
pub use strategy::{apply, verify_safe, EdgePick, StrategyPlan, Technique, CONFLICT_TABLE};
