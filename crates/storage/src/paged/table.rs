//! [`PagedTable`]: the [`TableStore`](crate::TableStore) backend whose
//! version chains live in heap pages behind the shared buffer pool.
//!
//! A key's page is `fnv1a(key bytes) % pages_per_table` — a fixed-fan-out
//! hash directory, so the page map never grows or splits and the same key
//! always touches the same page in every run. Semantics mirror
//! [`crate::Table`] (same install validation, unique-constraint protocol,
//! visibility rules and vacuum behaviour); the differences are
//! operational:
//!
//! * Every record access pins a page, so reads can miss and pay device
//!   latency — the axis the paged experiments sweep.
//! * Mutation takes the page's write lock instead of the lock-free COW
//!   protocol; install and prune on the same page serialize, which also
//!   removes the retired-cell dance vacuum needed in the resident store.
//! * Unique secondary indexes stay resident (they are derived data:
//!   recovery rebuilds them by replaying installs).
//! * An install appends in place and ignores the pruning horizon, so
//!   chains shrink only when vacuum runs.

use super::codec;
use super::heap::PageAddr;
use super::pool::{BufferPool, PageHandle};
use crate::predicate::{CmpOp, Predicate};
use crate::row::Row;
use crate::schema::{SchemaError, TableSchema};
use crate::table::{InstallError, UniqueViolation};
use crate::value::Value;
use crate::version::{Version, VersionChain};
use sicost_common::sync::RwLock;
use sicost_common::{fnv1a, TableId, Ts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A table stored in fixed-fan-out pages behind the catalog's buffer
/// pool.
pub struct PagedTable {
    id: TableId,
    schema: TableSchema,
    pages: u32,
    pool: Arc<BufferPool>,
    /// value -> primary key, one map per `schema.unique` entry. Latest
    /// committed state, exactly like the resident store's maps.
    unique_maps: Vec<RwLock<HashMap<Value, Value>>>,
    /// Longest chain since the last prune, maintained on install and
    /// recomputed exactly by `prune`'s page walk. A gauge read must not
    /// fault pages in through the pool, so this is never computed on
    /// demand (concurrent installs during a prune may briefly
    /// under-report — it is a gauge, not an invariant).
    max_len: AtomicUsize,
}

impl PagedTable {
    /// Creates an empty paged table.
    pub fn new(
        id: TableId,
        schema: TableSchema,
        pages_per_table: u32,
        pool: Arc<BufferPool>,
    ) -> Self {
        assert!(pages_per_table > 0, "a table needs at least one page");
        let unique_maps = schema
            .unique
            .iter()
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Self {
            id,
            schema,
            pages: pages_per_table,
            pool,
            unique_maps,
            max_len: AtomicUsize::new(0),
        }
    }

    /// The page a key hashes to.
    fn addr_of(&self, key: &Value) -> PageAddr {
        let mut bytes = Vec::with_capacity(16);
        codec::put_value(&mut bytes, key);
        (self.id.0, (fnv1a(&bytes) % u64::from(self.pages)) as u32)
    }

    fn fetch(&self, page: u32) -> PageHandle<'_> {
        self.pool.fetch((self.id.0, page))
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Page fan-out of this table.
    pub fn pages_per_table(&self) -> u32 {
        self.pages
    }
}

impl crate::TableStore for PagedTable {
    fn id(&self) -> TableId {
        self.id
    }

    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn read_version(&self, key: &Value, snap: Ts, f: &mut dyn FnMut(Option<&Version>)) {
        let handle = self.pool.fetch(self.addr_of(key));
        let cells = handle.read();
        f(cells.get(key).and_then(|c| c.visible(snap)));
    }

    fn visit_chain(&self, key: &Value, f: &mut dyn FnMut(&VersionChain)) -> bool {
        let handle = self.pool.fetch(self.addr_of(key));
        let cells = handle.read();
        match cells.get(key) {
            Some(chain) => {
                f(chain);
                true
            }
            None => false,
        }
    }

    /// Ignores `horizon`: this backend prunes at vacuum only (DESIGN.md
    /// §11 says why), so it always reports 0 versions dropped.
    fn install(&self, key: &Value, version: Version, _horizon: Ts) -> Result<usize, InstallError> {
        // Identical validation to the resident store.
        if let Some(row) = version.row() {
            self.schema
                .validate(row.cells())
                .map_err(InstallError::Schema)?;
            let pk_cell = row.get(self.schema.primary_key);
            if pk_cell != key {
                return Err(InstallError::Schema(SchemaError::BadDeclaration(format!(
                    "primary key cell {pk_cell} does not match chain key {key}"
                ))));
            }
        }
        let mut handle = self.pool.fetch(self.addr_of(key));
        let mut cells = handle.write();
        let old_row = cells
            .get(key)
            .and_then(|c| c.latest())
            .and_then(|v| v.row().cloned());
        // Unique checks against latest committed state. Lock order is
        // page -> unique map everywhere, so this cannot deadlock with
        // concurrent installs on other pages.
        if let Some(new_row) = version.row() {
            for (slot, &col) in self.schema.unique.iter().enumerate() {
                let new_val = new_row.get(col);
                if new_val.is_null() {
                    continue; // SQL UNIQUE admits multiple NULLs
                }
                let map = self.unique_maps[slot].read();
                if let Some(owner) = map.get(new_val) {
                    if owner != key {
                        return Err(InstallError::Unique(UniqueViolation {
                            table: self.schema.name.clone(),
                            column: self.schema.columns[col].name.clone(),
                            value: new_val.clone(),
                        }));
                    }
                }
            }
        }
        for (slot, &col) in self.schema.unique.iter().enumerate() {
            let mut map = self.unique_maps[slot].write();
            if let Some(old) = &old_row {
                let old_val = old.get(col);
                if !old_val.is_null() {
                    map.remove(old_val);
                }
            }
            if let Some(new_row) = version.row() {
                let new_val = new_row.get(col);
                if !new_val.is_null() {
                    map.insert(new_val.clone(), key.clone());
                }
            }
        }
        // Past the checks: only now materialize the chain, so a rejected
        // install leaves no empty chain behind in the page.
        let chain = cells.entry(key.clone()).or_default();
        chain.install(version);
        self.max_len.fetch_max(chain.len(), Ordering::Relaxed);
        Ok(0)
    }

    fn lookup_unique(&self, unique_slot: usize, value: &Value, snap: Ts) -> Option<Value> {
        let col = self.schema.unique[unique_slot];
        let pk = self.unique_maps[unique_slot].read().get(value).cloned();
        match pk {
            Some(pk) => {
                let mut verified = None;
                self.read_version(&pk, snap, &mut |v| {
                    if let Some(row) = v.and_then(|v| v.row()) {
                        if row.get(col) == value {
                            verified = Some(pk.clone());
                        }
                    }
                });
                verified
            }
            // Index miss: the value may still be visible in this snapshot
            // if it was removed after the snapshot was taken.
            None => {
                let mut found = None;
                self.scan_visible(
                    snap,
                    &Predicate::Cmp(col, CmpOp::Eq, value.clone()),
                    &mut |pk, _, _| {
                        found = Some(pk.clone());
                    },
                );
                found
            }
        }
    }

    fn scan_visible(&self, snap: Ts, pred: &Predicate, f: &mut dyn FnMut(&Value, &Row, Ts)) {
        // Page order then key order within the page: deterministic, and
        // each page is pinned only while it is being read.
        for page in 0..self.pages {
            let handle = self.fetch(page);
            let cells = handle.read();
            for (pk, chain) in cells.iter() {
                if let Some(v) = chain.visible(snap) {
                    if let Some(row) = v.row() {
                        if pred.matches(row) {
                            f(pk, row, v.ts);
                        }
                    }
                }
            }
        }
    }

    fn prune(&self, horizon: Ts) -> usize {
        let mut reclaimed = 0;
        let mut max = 0;
        for page in 0..self.pages {
            let mut handle = self.fetch(page);
            // Peek read-only first: pages with nothing to prune must not
            // be dirtied (a checkpoint would then rewrite them for no
            // state change). The same pass feeds the chain-length gauge.
            let (page_max, has_garbage) = {
                let cells = handle.read();
                let mut pm = 0;
                let mut garbage = false;
                for c in cells.values() {
                    pm = pm.max(c.len());
                    garbage |= c.has_garbage(horizon);
                }
                (pm, garbage)
            };
            if !has_garbage {
                max = max.max(page_max);
                continue;
            }
            let mut cells = handle.write();
            let mut page_reclaimed = 0;
            let mut dead = Vec::new();
            for (key, chain) in cells.iter_mut() {
                page_reclaimed += chain.prune(horizon);
                if chain.is_dead(horizon) {
                    dead.push(key.clone());
                }
            }
            for key in &dead {
                if let Some(chain) = cells.remove(key) {
                    page_reclaimed += chain.len();
                }
            }
            max = max.max(cells.values().map(|c| c.len()).max().unwrap_or(0));
            reclaimed += page_reclaimed;
        }
        self.max_len.store(max, Ordering::Relaxed);
        reclaimed
    }

    fn version_count(&self) -> usize {
        let mut n = 0;
        for page in 0..self.pages {
            let handle = self.fetch(page);
            n += handle.read().values().map(|c| c.len()).sum::<usize>();
        }
        n
    }

    fn max_chain_len(&self) -> usize {
        // The install-maintained gauge: reading it must not fault every
        // page of the table in through the pool.
        self.max_len.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::heap::HeapStore;
    use crate::TableStore;
    use sicost_common::TxnId;
    use std::time::Duration;

    fn schema() -> TableSchema {
        use crate::schema::{ColumnDef, ColumnType};
        TableSchema::new(
            "Acct",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("bal", ColumnType::Int),
            ],
            0,
            vec![1],
        )
        .unwrap()
    }

    fn paged(pages: u32, pool_frames: usize) -> Arc<dyn TableStore> {
        let heap = Arc::new(HeapStore::new(Duration::ZERO, Duration::ZERO, None));
        let pool = Arc::new(BufferPool::new(pool_frames, heap));
        Arc::new(PagedTable::new(TableId(0), schema(), pages, pool))
    }

    fn row(id: i64, name: &str, bal: i64) -> Row {
        Row::new(vec![Value::int(id), Value::from(name), Value::int(bal)])
    }

    #[test]
    fn reads_scans_and_installs_match_resident_semantics() {
        let t = paged(4, 2);
        t.install(
            &Value::int(1),
            Version::data(Ts(1), TxnId(1), row(1, "a", 10)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(2),
            Version::data(Ts(2), TxnId(2), row(2, "b", 20)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(1),
            Version::data(Ts(4), TxnId(3), row(1, "a", 15)),
            Ts::ZERO,
        )
        .unwrap();

        assert_eq!(
            t.read_at(&Value::int(1), Ts(3))
                .unwrap()
                .row
                .unwrap()
                .int(2),
            10
        );
        assert_eq!(
            t.read_at(&Value::int(1), Ts(5))
                .unwrap()
                .row
                .unwrap()
                .int(2),
            15
        );
        assert_eq!(t.latest_ts(&Value::int(1)), Some(Ts(4)));
        assert!(t.read_at(&Value::int(9), Ts(5)).is_none());

        let snap = t.snapshot_at(Ts(5));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, Value::int(1));
        assert_eq!(snap[1].0, Value::int(2));
        assert_eq!(t.count_at(Ts(1)), 1);
        assert_eq!(t.version_count(), 3);
        assert_eq!(t.max_chain_len(), 2);
    }

    #[test]
    fn unique_constraint_and_index_lookup() {
        let t = paged(4, 2);
        t.install(
            &Value::int(1),
            Version::data(Ts(1), TxnId(1), row(1, "a", 10)),
            Ts::ZERO,
        )
        .unwrap();
        // Another key claiming the same unique name is rejected.
        let err = t
            .install(
                &Value::int(2),
                Version::data(Ts(2), TxnId(2), row(2, "a", 0)),
                Ts::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::Unique(_)));
        // Same key re-asserting its own value is fine.
        t.install(
            &Value::int(1),
            Version::data(Ts(3), TxnId(3), row(1, "a", 11)),
            Ts::ZERO,
        )
        .unwrap();

        assert_eq!(
            t.lookup_unique(0, &Value::from("a"), Ts(4)),
            Some(Value::int(1))
        );
        // Delete frees the value; an old snapshot still finds it by scan.
        t.install(
            &Value::int(1),
            Version::tombstone(Ts(5), TxnId(4)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(t.lookup_unique(0, &Value::from("a"), Ts(6)), None);
        assert_eq!(
            t.lookup_unique(0, &Value::from("a"), Ts(4)),
            Some(Value::int(1)),
            "index miss must fall back to a snapshot scan"
        );
        t.install(
            &Value::int(2),
            Version::data(Ts(7), TxnId(5), row(2, "a", 5)),
            Ts::ZERO,
        )
        .unwrap();
        assert_eq!(
            t.lookup_unique(0, &Value::from("a"), Ts(8)),
            Some(Value::int(2))
        );
    }

    #[test]
    fn pk_mismatch_rejected() {
        let t = paged(2, 2);
        let err = t
            .install(
                &Value::int(1),
                Version::data(Ts(1), TxnId(1), row(2, "x", 0)),
                Ts::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::Schema(_)));
    }

    #[test]
    fn prune_reclaims_and_drops_dead_records() {
        let t = paged(2, 2);
        t.install(
            &Value::int(1),
            Version::data(Ts(1), TxnId(1), row(1, "a", 10)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(1),
            Version::data(Ts(2), TxnId(2), row(1, "a", 11)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(2),
            Version::data(Ts(3), TxnId(3), row(2, "b", 20)),
            Ts::ZERO,
        )
        .unwrap();
        t.install(
            &Value::int(2),
            Version::tombstone(Ts(4), TxnId(4)),
            Ts::ZERO,
        )
        .unwrap();

        // Horizon above everything: key 1 keeps one anchor, key 2 dies.
        assert_eq!(t.max_chain_len(), 2);
        let reclaimed = t.prune(Ts(5));
        assert_eq!(reclaimed, 3);
        assert_eq!(t.version_count(), 1);
        assert!(t.with_chain(&Value::int(2), |_| ()).is_none());
        assert_eq!(t.max_chain_len(), 1, "prune refreshes the gauge");
    }

    /// Chains whose versions all lie at or above their anchor hold no
    /// garbage: a prune must leave their page clean, so the next
    /// checkpoint does not write it back.
    #[test]
    fn prune_leaves_a_page_without_garbage_clean() {
        let heap = Arc::new(HeapStore::new(Duration::ZERO, Duration::ZERO, None));
        let pool = Arc::new(BufferPool::new(2, heap));
        let t = PagedTable::new(TableId(0), schema(), 1, Arc::clone(&pool));
        // Key 1: every version above the horizon. Key 2: its oldest
        // version is the anchor, with nothing below it.
        for ts in 5..=7 {
            t.install(
                &Value::int(1),
                Version::data(Ts(ts), TxnId(ts), row(1, "a", ts as i64)),
                Ts::ZERO,
            )
            .unwrap();
        }
        for ts in [2, 4] {
            t.install(
                &Value::int(2),
                Version::data(Ts(ts), TxnId(ts), row(2, "b", ts as i64)),
                Ts::ZERO,
            )
            .unwrap();
        }
        assert_eq!(pool.flush_dirty().unwrap().pages, 1);
        let before = pool.stats();

        assert_eq!(t.prune(Ts(3)), 0);
        assert_eq!(t.version_count(), 5);
        assert_eq!(t.max_chain_len(), 3, "the peek still feeds the gauge");
        assert_eq!(pool.flush_dirty().unwrap().pages, 0, "no page dirtied");
        assert_eq!(pool.stats().dirty_writebacks, before.dirty_writebacks);

        // Once the horizon reaches key 2's second version there is
        // garbage, and only then is the page rewritten.
        assert_eq!(t.prune(Ts(4)), 1);
        assert_eq!(pool.flush_dirty().unwrap().pages, 1);
    }

    #[test]
    fn working_set_larger_than_pool_stays_correct() {
        // 8 pages, 2 frames: every scan thrashes, data must survive
        // eviction round trips.
        let t = paged(8, 2);
        for id in 0..50i64 {
            t.install(
                &Value::int(id),
                Version::data(
                    Ts(1 + id as u64),
                    TxnId(id as u64),
                    row(id, &format!("n{id}"), id),
                ),
                Ts::ZERO,
            )
            .unwrap();
        }
        assert_eq!(t.count_at(Ts(100)), 50);
        for id in 0..50i64 {
            assert_eq!(
                t.read_at(&Value::int(id), Ts(100))
                    .unwrap()
                    .row
                    .unwrap()
                    .int(2),
                id
            );
        }
    }
}
