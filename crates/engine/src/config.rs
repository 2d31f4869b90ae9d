//! Engine configuration: concurrency-control mode, `FOR UPDATE` semantics,
//! and the simulated cost model.

use sicost_common::FaultInjector;
use sicost_storage::StoragePolicy;
use sicost_wal::WalConfig;
use std::sync::Arc;
use std::time::Duration;

/// Concurrency-control discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Snapshot Isolation, First-Updater-Wins (PostgreSQL, §II).
    SiFirstUpdaterWins,
    /// Snapshot Isolation, First-Committer-Wins (the commercial platform /
    /// Berenson et al.'s original formulation).
    SiFirstCommitterWins,
    /// Serializable Snapshot Isolation (Cahill et al.): SI plus
    /// rw-antidependency tracking with pivot aborts.
    Ssi,
    /// Strict two-phase locking with shared/intention/exclusive modes.
    S2pl,
}

impl CcMode {
    /// True for the two plain-SI modes (which admit write skew).
    pub fn is_snapshot_isolation(self) -> bool {
        matches!(
            self,
            CcMode::SiFirstUpdaterWins | CcMode::SiFirstCommitterWins
        )
    }

    /// True when writers validate their snapshot at write time
    /// (First-Updater-Wins style). SSI builds on FUW in PostgreSQL and here.
    pub fn eager_write_validation(self) -> bool {
        matches!(self, CcMode::SiFirstUpdaterWins | CcMode::Ssi)
    }
}

/// Platform semantics of `SELECT … FOR UPDATE` (§II-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfuSemantics {
    /// PostgreSQL: takes the row write lock (and errors on a stale row)
    /// but installs **no version** — once the reader commits, the lock
    /// evaporates and a later concurrent writer proceeds. This leaves the
    /// interleaving `begin(T) begin(U) read-sfu(T,x) commit(T) write(U,x)
    /// commit(U)` non-serializable, exactly as §II-C observes.
    LockOnly,
    /// Commercial platform: "treated for concurrency control like an
    /// Update" — installs an identity version at commit, so any concurrent
    /// writer of the row fails validation.
    IdentityWrite,
}

/// Simulated resource costs. All zeros (the default) makes the engine run
/// at memory speed for functional tests; the presets below calibrate it to
/// the paper's 2008-era platform so the benchmark harnesses reproduce the
/// published curve shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU service time charged (through a serialising CPU station) for
    /// each read/write/scan-row operation.
    pub cpu_per_op: Duration,
    /// Extra CPU service time charged at commit (parsing/planning/commit
    /// bookkeeping aggregated into one knob).
    pub cpu_per_commit: Duration,
    /// Load penalty: each active transaction above `contention_knee`
    /// multiplies CPU service times by `1 + cpu_contention_factor` per
    /// excess transaction. Zero for the PostgreSQL profile (flat plateau);
    /// positive for the commercial profile, whose measured throughput
    /// *declines* past its peak (paper §IV-F).
    pub cpu_contention_factor: f64,
    /// Active-transaction count where the load penalty starts.
    pub contention_knee: u32,
}

impl CostModel {
    /// Free CPU: functional-test configuration.
    pub fn zero() -> Self {
        Self {
            cpu_per_op: Duration::ZERO,
            cpu_per_commit: Duration::ZERO,
            cpu_contention_factor: 0.0,
            contention_knee: 0,
        }
    }

    /// True when no CPU cost is ever charged.
    pub fn is_zero(&self) -> bool {
        self.cpu_per_op.is_zero() && self.cpu_per_commit.is_zero()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::zero()
    }
}

/// When the engine takes fuzzy checkpoints on its own (each one also
/// truncates the covered WAL prefix). Both triggers default to off —
/// explicit [`crate::Database::checkpoint`] calls work regardless — and
/// both can be armed at once, in which case whichever threshold trips
/// first wins and resets both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many log bytes accumulate since the last one.
    pub every_wal_bytes: Option<u64>,
    /// Checkpoint once this many writing commits happen since the last
    /// one.
    pub every_commits: Option<u64>,
}

impl CheckpointPolicy {
    /// No automatic checkpoints (the default in every preset).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Byte-driven checkpoints: one per `bytes` of accumulated WAL.
    pub fn every_wal_bytes(bytes: u64) -> Self {
        Self::disabled().with_every_wal_bytes(bytes)
    }

    /// Commit-driven checkpoints: one per `commits` writing commits.
    pub fn every_commits(commits: u64) -> Self {
        Self::disabled().with_every_commits(commits)
    }

    /// Arms the byte-accumulation trigger (builder-style).
    pub fn with_every_wal_bytes(mut self, bytes: u64) -> Self {
        self.every_wal_bytes = Some(bytes);
        self
    }

    /// Arms the commit-count trigger (builder-style).
    pub fn with_every_commits(mut self, commits: u64) -> Self {
        self.every_commits = Some(commits);
        self
    }

    /// True when neither trigger is armed.
    pub fn is_disabled(&self) -> bool {
        self.every_wal_bytes.is_none() && self.every_commits.is_none()
    }
}

/// When the engine vacuums (version GC + SSI record GC) on its own, in
/// the same shape as [`CheckpointPolicy`]: a commit-count trigger, a
/// WAL-byte trigger, or both (whichever trips first wins and resets
/// both). Explicit [`crate::Database::vacuum`] calls work regardless.
/// Vacuum runs are single-flight: a trigger that fires while a vacuum is
/// already running is skipped, not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VacuumPolicy {
    /// Vacuum once this many log bytes accumulate since the last run.
    pub every_wal_bytes: Option<u64>,
    /// Vacuum once this many commits (including read-only commits — they
    /// are what pins the snapshot horizon) happen since the last run.
    pub every_commits: Option<u64>,
}

impl VacuumPolicy {
    /// No automatic vacuum (the functional-profile default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Byte-driven vacuum: one run per `bytes` of accumulated WAL.
    pub fn every_wal_bytes(bytes: u64) -> Self {
        Self::disabled().with_every_wal_bytes(bytes)
    }

    /// Commit-driven vacuum: one run per `commits` commits.
    pub fn every_commits(commits: u64) -> Self {
        Self::disabled().with_every_commits(commits)
    }

    /// Arms the byte-accumulation trigger (builder-style).
    pub fn with_every_wal_bytes(mut self, bytes: u64) -> Self {
        self.every_wal_bytes = Some(bytes);
        self
    }

    /// Arms the commit-count trigger (builder-style).
    pub fn with_every_commits(mut self, commits: u64) -> Self {
        self.every_commits = Some(commits);
        self
    }

    /// True when neither trigger is armed.
    pub fn is_disabled(&self) -> bool {
        self.every_wal_bytes.is_none() && self.every_commits.is_none()
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrency-control discipline.
    pub cc: CcMode,
    /// `FOR UPDATE` semantics.
    pub sfu: SfuSemantics,
    /// WAL / group-commit parameters.
    pub wal: WalConfig,
    /// Simulated CPU costs.
    pub cost: CostModel,
    /// When the engine vacuums (version GC + SSI record GC) on its own.
    /// See [`VacuumPolicy`]; disabled means only explicit
    /// [`crate::Database::vacuum`] calls run passes. Either way, each
    /// commit prunes the chains it installs onto.
    pub vacuum: VacuumPolicy,
    /// When `true`, SI/SSI writers also take an intention-exclusive lock
    /// on the table before their row locks. Pure overhead for plain SI,
    /// but it makes *explicit* table locks
    /// ([`crate::Transaction::lock_table`]) conflict with concurrent
    /// writers — the substrate for §II-D's "simulate 2PL with explicit
    /// table-granularity locks" approach (PostgreSQL's `LOCK TABLE`).
    pub table_intent_locks: bool,
    /// Shared fault injector driving WAL faults and commit-pipeline
    /// crashes/forced aborts. `None` (the default) injects nothing.
    pub faults: Option<Arc<FaultInjector>>,
    /// Stripe count for the engine's serialization points: the commit
    /// install locks, the SSI SIREAD/announcement partitions, and the lock
    /// manager's entry/held maps. `1` reproduces the old fully-global
    /// behaviour (useful as the ablation baseline); values are clamped to
    /// at least 1. Sharding changes performance only, never outcomes —
    /// `crates/smallbank/tests/shard_oracle.rs` enforces that.
    pub shards: usize,
    /// When `true` **and** an observer is registered, the engine times
    /// each row/table lock acquisition and each WAL group-commit wait and
    /// reports them through [`crate::HistoryObserver::on_lock_wait`] /
    /// [`crate::HistoryObserver::on_wal_sync`] (consumed by the
    /// `sicost-trace` sink). Off by default: the hot path then pays no
    /// clock reads for tracing.
    pub trace_timings: bool,
    /// When the engine checkpoints (and truncates WAL) on its own. See
    /// [`CheckpointPolicy`]; disabled in every preset.
    pub checkpoints: CheckpointPolicy,
    /// Which backend tables live on: fully resident (the default in every
    /// preset) or paged behind a buffer pool. See
    /// [`StoragePolicy`] / [`sicost_storage::PagedConfig`]; under `Paged` checkpoints
    /// become incremental (dirty pages + a tiny frame) automatically.
    pub storage: StoragePolicy,
}

impl EngineConfig {
    /// Default stripe count for the engine's serialization points.
    pub const DEFAULT_SHARDS: usize = 16;
    /// Functional profile: SI/FUW with zero simulated costs. The right
    /// configuration for tests that care about semantics, not timing.
    pub fn functional() -> Self {
        Self {
            cc: CcMode::SiFirstUpdaterWins,
            sfu: SfuSemantics::LockOnly,
            wal: WalConfig::instant(),
            cost: CostModel::zero(),
            vacuum: VacuumPolicy::disabled(),
            table_intent_locks: false,
            faults: None,
            shards: Self::DEFAULT_SHARDS,
            trace_timings: false,
            checkpoints: CheckpointPolicy::disabled(),
            storage: StoragePolicy::InMemory,
        }
    }

    /// The PostgreSQL-like platform of §IV-A–E: SI with First-Updater-Wins,
    /// `FOR UPDATE` as lock-only, group-commit WAL, flat CPU model.
    /// Calibration notes live in `EXPERIMENTS.md`.
    pub fn postgres_like() -> Self {
        Self {
            cc: CcMode::SiFirstUpdaterWins,
            sfu: SfuSemantics::LockOnly,
            wal: WalConfig::paper_default(),
            cost: CostModel {
                cpu_per_op: Duration::from_micros(110),
                cpu_per_commit: Duration::from_micros(220),
                cpu_contention_factor: 0.0,
                contention_knee: 0,
            },
            vacuum: VacuumPolicy::every_commits(20_000),
            table_intent_locks: false,
            faults: None,
            shards: Self::DEFAULT_SHARDS,
            trace_timings: false,
            checkpoints: CheckpointPolicy::disabled(),
            storage: StoragePolicy::InMemory,
        }
    }

    /// The commercial platform of §IV-F: First-Committer-Wins, `FOR
    /// UPDATE` treated as an identity write, and a load penalty that makes
    /// throughput peak around MPL 20–25 and then decline.
    pub fn commercial_like() -> Self {
        Self {
            cc: CcMode::SiFirstCommitterWins,
            sfu: SfuSemantics::IdentityWrite,
            wal: WalConfig::paper_default(),
            cost: CostModel {
                cpu_per_op: Duration::from_micros(150),
                cpu_per_commit: Duration::from_micros(300),
                cpu_contention_factor: 0.035,
                contention_knee: 20,
            },
            vacuum: VacuumPolicy::every_commits(20_000),
            table_intent_locks: false,
            faults: None,
            shards: Self::DEFAULT_SHARDS,
            trace_timings: false,
            checkpoints: CheckpointPolicy::disabled(),
            storage: StoragePolicy::InMemory,
        }
    }

    /// Sets the concurrency-control mode (builder-style).
    pub fn with_cc(mut self, cc: CcMode) -> Self {
        self.cc = cc;
        self
    }

    /// Sets `FOR UPDATE` semantics (builder-style).
    pub fn with_sfu(mut self, sfu: SfuSemantics) -> Self {
        self.sfu = sfu;
        self
    }

    /// Sets the WAL configuration (builder-style).
    pub fn with_wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Sets the cost model (builder-style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attaches a fault injector (builder-style). The same injector is
    /// shared by the WAL device and the commit pipeline, so one seed
    /// drives the whole fault schedule.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the serialization-point stripe count (builder-style). `1`
    /// degenerates to one global lock per serialization point.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enables the per-transaction lock-wait / WAL-sync timing hooks
    /// (builder-style). See [`EngineConfig::trace_timings`].
    pub fn with_trace_timings(mut self, on: bool) -> Self {
        self.trace_timings = on;
        self
    }

    /// Sets the automatic-checkpoint policy (builder-style). This is the
    /// one entry point for checkpoint configuration; build the policy
    /// with the [`CheckpointPolicy`] constructors.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = policy;
        self
    }

    /// Sets the automatic-vacuum policy (builder-style). Build the policy
    /// with the [`VacuumPolicy`] constructors; `VacuumPolicy::disabled()`
    /// turns background GC off (explicit `vacuum` calls still work).
    pub fn with_vacuum(mut self, policy: VacuumPolicy) -> Self {
        self.vacuum = policy;
        self
    }

    /// Sets the storage backend (builder-style) — the policy-struct entry
    /// point, same shape as [`EngineConfig::with_checkpoints`] and
    /// [`EngineConfig::with_vacuum`]. Build the policy with the
    /// [`StoragePolicy`] constructors and [`sicost_storage::PagedConfig`] builders.
    pub fn with_storage(mut self, storage: StoragePolicy) -> Self {
        self.storage = storage;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::functional()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(CcMode::SiFirstUpdaterWins.is_snapshot_isolation());
        assert!(CcMode::SiFirstCommitterWins.is_snapshot_isolation());
        assert!(!CcMode::Ssi.is_snapshot_isolation());
        assert!(!CcMode::S2pl.is_snapshot_isolation());
        assert!(CcMode::SiFirstUpdaterWins.eager_write_validation());
        assert!(CcMode::Ssi.eager_write_validation());
        assert!(!CcMode::SiFirstCommitterWins.eager_write_validation());
    }

    #[test]
    fn presets_differ_where_the_paper_says_they_do() {
        let pg = EngineConfig::postgres_like();
        let com = EngineConfig::commercial_like();
        assert_eq!(pg.cc, CcMode::SiFirstUpdaterWins);
        assert_eq!(com.cc, CcMode::SiFirstCommitterWins);
        assert_eq!(pg.sfu, SfuSemantics::LockOnly);
        assert_eq!(com.sfu, SfuSemantics::IdentityWrite);
        assert_eq!(pg.cost.cpu_contention_factor, 0.0);
        assert!(com.cost.cpu_contention_factor > 0.0);
    }

    #[test]
    fn functional_profile_is_free() {
        let f = EngineConfig::functional();
        assert!(f.cost.is_zero());
        assert!(f.wal.sync_latency.is_zero());
    }

    #[test]
    fn shards_default_and_clamp() {
        assert_eq!(
            EngineConfig::functional().shards,
            EngineConfig::DEFAULT_SHARDS
        );
        assert_eq!(EngineConfig::functional().with_shards(4).shards, 4);
        assert_eq!(
            EngineConfig::functional().with_shards(0).shards,
            1,
            "zero is clamped to a single global stripe"
        );
    }

    #[test]
    fn builder_setters() {
        let cfg = EngineConfig::functional()
            .with_cc(CcMode::S2pl)
            .with_sfu(SfuSemantics::IdentityWrite);
        assert_eq!(cfg.cc, CcMode::S2pl);
        assert_eq!(cfg.sfu, SfuSemantics::IdentityWrite);
    }

    #[test]
    fn checkpoints_are_off_by_default_and_settable() {
        for cfg in [
            EngineConfig::functional(),
            EngineConfig::postgres_like(),
            EngineConfig::commercial_like(),
        ] {
            assert!(cfg.checkpoints.is_disabled());
        }
        let cfg = EngineConfig::functional()
            .with_checkpoints(CheckpointPolicy::every_wal_bytes(1 << 20).with_every_commits(500));
        assert_eq!(cfg.checkpoints.every_wal_bytes, Some(1 << 20));
        assert_eq!(cfg.checkpoints.every_commits, Some(500));
        assert!(!cfg.checkpoints.is_disabled());
    }

    #[test]
    fn vacuum_policy_presets_and_builder() {
        assert!(EngineConfig::functional().vacuum.is_disabled());
        assert_eq!(
            EngineConfig::postgres_like().vacuum.every_commits,
            Some(20_000)
        );
        assert_eq!(
            EngineConfig::commercial_like().vacuum.every_commits,
            Some(20_000)
        );
        let cfg = EngineConfig::functional()
            .with_vacuum(VacuumPolicy::every_commits(100).with_every_wal_bytes(1 << 16));
        assert_eq!(cfg.vacuum.every_commits, Some(100));
        assert_eq!(cfg.vacuum.every_wal_bytes, Some(1 << 16));
        assert!(VacuumPolicy::disabled().is_disabled());
        assert_eq!(
            VacuumPolicy::every_wal_bytes(4096).every_wal_bytes,
            Some(4096)
        );
    }

    #[test]
    fn checkpoint_policy_constructors() {
        assert!(CheckpointPolicy::disabled().is_disabled());
        assert_eq!(CheckpointPolicy::every_commits(10).every_commits, Some(10));
        assert_eq!(CheckpointPolicy::every_commits(10).every_wal_bytes, None);
        assert_eq!(
            CheckpointPolicy::every_wal_bytes(4096).every_wal_bytes,
            Some(4096)
        );
    }

    #[test]
    fn storage_policy_defaults_and_builder() {
        for cfg in [
            EngineConfig::functional(),
            EngineConfig::postgres_like(),
            EngineConfig::commercial_like(),
        ] {
            assert!(!cfg.storage.is_paged(), "presets default to resident");
        }
        let cfg = EngineConfig::functional().with_storage(StoragePolicy::Paged(
            sicost_storage::PagedConfig::default().with_pool_pages(8),
        ));
        match cfg.storage {
            StoragePolicy::Paged(p) => assert_eq!(p.pool_pages, 8),
            other => panic!("expected paged, got {other:?}"),
        }
    }
}
