//! The storage backend boundary: [`TableStore`] and [`StoragePolicy`].
//!
//! The engine never names a concrete table type — commit installs, vacuum
//! prunes, checkpoint extracts and every read go through `dyn TableStore`.
//! Two backends implement it:
//!
//! * [`crate::Table`] — the resident lock-free multi-version store.
//! * [`crate::PagedTable`] — version chains packed into pages behind a
//!   bounded buffer pool over a simulated disk heap.
//!
//! # Dyn-safety layering
//!
//! Today's `Table` surface leans on generic closures (`read_with`,
//! `with_chain`, `scan_at`), which cannot be trait-object methods. The
//! trait therefore exposes *dyn-safe cores* taking `&mut dyn FnMut`
//! callbacks, and the ergonomic generic wrappers live in an inherent
//! `impl dyn TableStore` block — so engine call sites keep the exact
//! syntax they had against the concrete type.

use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::table::{InstallError, VisibleRead};
use crate::value::Value;
use crate::version::{Version, VersionChain};
use sicost_common::{TableId, Ts};
use std::time::Duration;

/// Which storage backend a catalog builds its tables on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoragePolicy {
    /// Every table fully resident: the lock-free sharded store. The
    /// default — zero I/O cost, unbounded memory.
    #[default]
    InMemory,
    /// Tables live on a simulated-disk heap in fixed-fan-out pages; only
    /// the buffer pool's frames are resident. Reads can miss and
    /// checkpoints flush dirty pages instead of whole-table images.
    Paged(PagedConfig),
}

impl StoragePolicy {
    /// The resident backend (the default).
    pub fn in_memory() -> Self {
        StoragePolicy::InMemory
    }

    /// The paged backend with default tuning.
    pub fn paged() -> Self {
        StoragePolicy::Paged(PagedConfig::default())
    }

    /// True for the paged backend.
    pub fn is_paged(&self) -> bool {
        matches!(self, StoragePolicy::Paged(_))
    }
}

impl std::fmt::Display for StoragePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoragePolicy::InMemory => write!(f, "in-memory"),
            StoragePolicy::Paged(c) => write!(
                f,
                "paged(pages/table={}, pool={})",
                c.pages_per_table, c.pool_pages
            ),
        }
    }
}

/// Tuning for the paged backend.
///
/// Pages are fixed-fan-out hash buckets: every table owns exactly
/// `pages_per_table` page slots and a key's page is a pure function of its
/// bytes, so the page directory never grows or splits and same-seed
/// simulated runs touch pages in an identical order. The buffer pool is
/// shared by all tables of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedConfig {
    /// Page slots per table (the fixed hash fan-out).
    pub pages_per_table: u32,
    /// Buffer-pool capacity in page frames, shared across tables.
    pub pool_pages: usize,
    /// Device latency charged per page read (a pool miss).
    pub page_read_latency: Duration,
    /// Device latency charged per page write (eviction write-back or
    /// checkpoint flush).
    pub page_write_latency: Duration,
}

impl Default for PagedConfig {
    fn default() -> Self {
        Self {
            pages_per_table: 64,
            pool_pages: 32,
            page_read_latency: Duration::ZERO,
            page_write_latency: Duration::ZERO,
        }
    }
}

impl PagedConfig {
    /// Sets the per-table page fan-out.
    pub fn with_pages_per_table(mut self, pages: u32) -> Self {
        assert!(pages > 0, "a table needs at least one page");
        self.pages_per_table = pages;
        self
    }

    /// Sets the pool capacity in frames. At least 2 (one victim candidate
    /// must always exist while another frame is pinned).
    pub fn with_pool_pages(mut self, frames: usize) -> Self {
        assert!(frames >= 2, "the pool needs at least two frames");
        self.pool_pages = frames;
        self
    }

    /// Sets the page-read (miss) latency.
    pub fn with_page_read_latency(mut self, d: Duration) -> Self {
        self.page_read_latency = d;
        self
    }

    /// Sets the page-write (write-back/flush) latency.
    pub fn with_page_write_latency(mut self, d: Duration) -> Self {
        self.page_write_latency = d;
        self
    }

    /// A disk-like profile: 2 ms per page in either direction — the same
    /// order as the paper platform's data disk, making cold misses
    /// genuinely expensive relative to in-pool reads.
    pub fn disk_like(self) -> Self {
        self.with_page_read_latency(Duration::from_micros(2000))
            .with_page_write_latency(Duration::from_micros(2000))
    }
}

/// The backend-neutral table surface the engine programs against.
///
/// Object-safe by construction: callback-taking methods accept
/// `&mut dyn FnMut`. Prefer the generic wrappers on `dyn TableStore`
/// ([`read_with`](trait.TableStore.html#method.read_with) and friends) at
/// call sites.
pub trait TableStore: Send + Sync {
    /// Table id within the catalog.
    fn id(&self) -> TableId;

    /// The table's schema.
    fn schema(&self) -> &TableSchema;

    /// Calls `f` exactly once with the version of `key` visible at `snap`
    /// (or `None`). The borrow is valid only for the callback.
    fn read_version(&self, key: &Value, snap: Ts, f: &mut dyn FnMut(Option<&Version>));

    /// Calls `f` with the whole version chain of `key` when the record
    /// exists; returns `false` (without calling `f`) when it never did.
    fn visit_chain(&self, key: &Value, f: &mut dyn FnMut(&VersionChain)) -> bool;

    /// Installs a committed version for `key`, enforcing schema validity
    /// and unique constraints. Must be called from within the engine's
    /// commit critical section so installs follow commit order; a version
    /// not newer than the key's latest is rejected as
    /// [`InstallError::OutOfOrder`].
    ///
    /// `horizon` is the oldest snapshot still in use. A backend may drop
    /// the versions of `key` that lie below the anchor at `horizon` (the
    /// newest version with `ts <= horizon`) while it installs; `Ts::ZERO`
    /// keeps them all. Returns the number of versions dropped.
    fn install(&self, key: &Value, version: Version, horizon: Ts) -> Result<usize, InstallError>;

    /// Installs a batch of committed versions and keeps every version:
    /// bulk load and checkpoint restore. The checks and the result are
    /// those of [`TableStore::install`] at horizon `Ts::ZERO`, row by row;
    /// a key that already holds a version at or after a row's timestamp
    /// (the same key twice in one batch) is an error, not a panic. On
    /// error, the rows already admitted stay installed.
    ///
    /// The default installs row by row, which is linear on the paged
    /// backend. The resident store overrides it to copy each shard map
    /// once per batch instead of once per new record.
    fn install_batch(&self, batch: Vec<(Value, Version)>) -> Result<(), InstallError> {
        for (key, version) in batch {
            self.install(&key, version, Ts::ZERO)?;
        }
        Ok(())
    }

    /// Looks up a primary key through unique secondary index `unique_slot`,
    /// verified against `snap`.
    fn lookup_unique(&self, unique_slot: usize, value: &Value, snap: Ts) -> Option<Value>;

    /// Calls `f(pk, row, version_ts)` for every record whose visible
    /// version at `snap` is live data matching `pred`. Iteration order is
    /// backend-defined (the engine sorts where order matters).
    fn scan_visible(&self, snap: Ts, pred: &Predicate, f: &mut dyn FnMut(&Value, &Row, Ts));

    /// Garbage-collects versions invisible to every snapshot at or after
    /// `horizon`. Returns the number of versions reclaimed.
    fn prune(&self, horizon: Ts) -> usize;

    /// Total stored versions across all records.
    fn version_count(&self) -> usize;

    /// Length of the longest version chain in the table.
    fn max_chain_len(&self) -> usize;
}

/// Generic convenience wrappers over the dyn-safe core — these give
/// `Arc<dyn TableStore>` call sites the same closure-based surface the
/// concrete [`crate::Table`] always had.
impl dyn TableStore + '_ {
    /// Snapshot read via borrow: calls `f` with the visible version of
    /// `key` at `snap` (or `None`) and returns `f`'s result.
    pub fn read_with<R>(&self, key: &Value, snap: Ts, f: impl FnOnce(Option<&Version>) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.read_version(key, snap, &mut |v| {
            out = Some(f.take().expect("read_version calls back exactly once")(v));
        });
        out.expect("read_version must invoke its callback")
    }

    /// Visitor over the whole version chain of `key` (`None` when the
    /// record has never existed).
    pub fn with_chain<R>(&self, key: &Value, f: impl FnOnce(&VersionChain) -> R) -> Option<R> {
        let mut f = Some(f);
        let mut out = None;
        let found = self.visit_chain(key, &mut |c| {
            out = Some(f.take().expect("visit_chain calls back at most once")(c));
        });
        if found {
            Some(out.expect("visit_chain must call back when it returns true"))
        } else {
            None
        }
    }

    /// Snapshot read of one record by primary key, cloning the row image.
    pub fn read_at(&self, key: &Value, snap: Ts) -> Option<VisibleRead> {
        self.read_with(key, snap, |v| {
            v.map(|v| VisibleRead {
                ts: v.ts,
                row: v.row().cloned(),
            })
        })
    }

    /// Commit timestamp of the newest committed version of `key`.
    pub fn latest_ts(&self, key: &Value) -> Option<Ts> {
        self.with_chain(key, |c| c.latest_ts()).flatten()
    }

    /// Snapshot scan with a generic callback (see
    /// [`TableStore::scan_visible`]).
    pub fn scan_at(&self, snap: Ts, pred: &Predicate, mut f: impl FnMut(&Value, &Row, Ts)) {
        self.scan_visible(snap, pred, &mut f);
    }

    /// Consistent-snapshot extract: every record whose visible version at
    /// `snap` is live data, as `(pk, row)` pairs sorted by primary key.
    pub fn snapshot_at(&self, snap: Ts) -> Vec<(Value, Row)> {
        let mut rows = Vec::new();
        self.scan_at(snap, &Predicate::True, |pk, row, _| {
            rows.push((pk.clone(), row.clone()));
        });
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Number of records whose visible version at `snap` is live data.
    pub fn count_at(&self, snap: Ts) -> usize {
        let mut n = 0;
        self.scan_at(snap, &Predicate::True, |_, _, _| n += 1);
        n
    }
}

impl TableStore for crate::table::Table {
    fn id(&self) -> TableId {
        crate::table::Table::id(self)
    }

    fn schema(&self) -> &TableSchema {
        crate::table::Table::schema(self)
    }

    fn read_version(&self, key: &Value, snap: Ts, f: &mut dyn FnMut(Option<&Version>)) {
        crate::table::Table::read_with(self, key, snap, f);
    }

    fn visit_chain(&self, key: &Value, f: &mut dyn FnMut(&VersionChain)) -> bool {
        crate::table::Table::with_chain(self, key, |c| f(c)).is_some()
    }

    fn install(&self, key: &Value, version: Version, horizon: Ts) -> Result<usize, InstallError> {
        crate::table::Table::install(self, key, version, horizon)
    }

    fn install_batch(&self, batch: Vec<(Value, Version)>) -> Result<(), InstallError> {
        crate::table::Table::install_batch(self, batch)
    }

    fn lookup_unique(&self, unique_slot: usize, value: &Value, snap: Ts) -> Option<Value> {
        crate::table::Table::lookup_unique(self, unique_slot, value, snap)
    }

    fn scan_visible(&self, snap: Ts, pred: &Predicate, f: &mut dyn FnMut(&Value, &Row, Ts)) {
        crate::table::Table::scan_at(self, snap, pred, |pk, row, ts| f(pk, row, ts));
    }

    fn prune(&self, horizon: Ts) -> usize {
        crate::table::Table::prune(self, horizon)
    }

    fn version_count(&self) -> usize {
        crate::table::Table::version_count(self)
    }

    fn max_chain_len(&self) -> usize {
        crate::table::Table::max_chain_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::table::Table;
    use sicost_common::TxnId;
    use std::sync::Arc;

    fn store() -> Arc<dyn TableStore> {
        Arc::new(Table::new(
            TableId(0),
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Int),
                ],
                0,
                vec![],
            )
            .unwrap(),
        ))
    }

    #[test]
    fn dyn_wrappers_round_trip_through_the_object() {
        let t = store();
        t.install(
            &Value::int(1),
            Version::data(
                Ts(1),
                TxnId(1),
                Row::new(vec![Value::int(1), Value::int(10)]),
            ),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(1),
            Version::data(
                Ts(3),
                TxnId(2),
                Row::new(vec![Value::int(1), Value::int(30)]),
            ),
            Ts::ZERO,
        )
        .unwrap();

        assert_eq!(t.latest_ts(&Value::int(1)), Some(Ts(3)));
        assert_eq!(
            t.read_at(&Value::int(1), Ts(2))
                .unwrap()
                .row
                .unwrap()
                .int(1),
            10
        );
        assert_eq!(t.read_with(&Value::int(1), Ts(5), |v| v.unwrap().ts), Ts(3));
        assert_eq!(t.with_chain(&Value::int(1), |c| c.len()), Some(2));
        assert_eq!(t.with_chain(&Value::int(9), |c| c.len()), None);
        assert_eq!(t.count_at(Ts(5)), 1);
        let snap = t.snapshot_at(Ts(5));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.int(1), 30);
        assert_eq!(t.prune(Ts(5)), 1);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.max_chain_len(), 1);
    }

    #[test]
    fn policy_display_and_builders() {
        assert_eq!(StoragePolicy::in_memory().to_string(), "in-memory");
        assert!(!StoragePolicy::default().is_paged());
        let p = PagedConfig::default()
            .with_pages_per_table(8)
            .with_pool_pages(4)
            .disk_like();
        assert_eq!(p.pages_per_table, 8);
        assert_eq!(p.pool_pages, 4);
        assert!(p.page_read_latency > Duration::ZERO);
        let pol = StoragePolicy::Paged(p);
        assert!(pol.is_paged());
        assert_eq!(pol.to_string(), "paged(pages/table=8, pool=4)");
    }
}
