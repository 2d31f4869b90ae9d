//! The catalog: name → table resolution, backend selection.
//!
//! The catalog is where [`StoragePolicy`] takes effect: `create_table`
//! builds either a resident [`Table`] or a
//! [`PagedTable`] over the catalog's shared buffer
//! pool and heap, and hands both out as `Arc<dyn TableStore>` so nothing
//! upstream ever branches on the backend.

use crate::paged::{
    BufferPool, FlushStats, HeapImage, HeapStore, PageIoError, PagedTable, PoolStats,
};
use crate::schema::{SchemaError, TableSchema};
use crate::store::{StoragePolicy, TableStore};
use crate::table::Table;
use sicost_common::{FaultInjector, TableId};
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable-after-setup collection of tables. DDL happens once, before
/// transactions start (as in the benchmarks), so the catalog needs no
/// internal locking: it is built with `&mut self` and then shared behind an
/// `Arc` by the engine.
pub struct Catalog {
    tables: Vec<Arc<dyn TableStore>>,
    by_name: HashMap<String, TableId>,
    policy: StoragePolicy,
    /// Present only under [`StoragePolicy::Paged`]: one pool (over one
    /// heap) shared by every table of this catalog.
    pool: Option<Arc<BufferPool>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::with_policy(StoragePolicy::InMemory)
    }
}

impl Catalog {
    /// Empty catalog on the resident backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty catalog on the given backend.
    pub fn with_policy(policy: StoragePolicy) -> Self {
        Self::with_policy_and_faults(policy, None)
    }

    /// Empty catalog on the given backend, threading the process-wide
    /// fault injector into the paged heap so page writes share the WAL's
    /// crash and latency discipline.
    pub fn with_policy_and_faults(
        policy: StoragePolicy,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let pool = match &policy {
            StoragePolicy::InMemory => None,
            StoragePolicy::Paged(cfg) => {
                let heap = Arc::new(HeapStore::new(
                    cfg.page_read_latency,
                    cfg.page_write_latency,
                    faults,
                ));
                Some(Arc::new(BufferPool::new(cfg.pool_pages, heap)))
            }
        };
        Self {
            tables: Vec::new(),
            by_name: HashMap::new(),
            policy,
            pool,
        }
    }

    /// The backend this catalog builds tables on.
    pub fn policy(&self) -> &StoragePolicy {
        &self.policy
    }

    /// True when tables live on the paged backend.
    pub fn is_paged(&self) -> bool {
        self.pool.is_some()
    }

    /// Creates a table on the catalog's backend, returning its id.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId, SchemaError> {
        if self.by_name.contains_key(&schema.name) {
            return Err(SchemaError::BadDeclaration(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(schema.name.clone(), id);
        let table: Arc<dyn TableStore> = match (&self.policy, &self.pool) {
            (StoragePolicy::Paged(cfg), Some(pool)) => Arc::new(PagedTable::new(
                id,
                schema,
                cfg.pages_per_table,
                pool.clone(),
            )),
            _ => Arc::new(Table::new(id, schema)),
        };
        self.tables.push(table);
        Ok(id)
    }

    /// Table by id.
    ///
    /// # Panics
    /// Panics on an unknown id — ids only come from `create_table`.
    pub fn table(&self, id: TableId) -> &Arc<dyn TableStore> {
        &self.tables[id.0 as usize]
    }

    /// Table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Arc<dyn TableStore>> {
        self.by_name.get(name).map(|id| self.table(*id))
    }

    /// Id of a named table.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// All tables, in id order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<dyn TableStore>> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no table has been created.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Buffer-pool counters (`None` on the resident backend).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Writes every dirty pooled page to the heap — the paged half of a
    /// checkpoint. A no-op `Ok` on the resident backend.
    pub fn flush_dirty_pages(&self) -> Result<FlushStats, PageIoError> {
        match &self.pool {
            Some(pool) => pool.flush_dirty(),
            None => Ok(FlushStats::default()),
        }
    }

    /// Drops every unpinned page from the pool (persisting dirty ones) —
    /// cold-start for measurements. `None` on the resident backend.
    pub fn cool_pool(&self) -> Option<Result<u64, PageIoError>> {
        self.pool.as_ref().map(|p| p.evict_all())
    }

    /// A copy of the heap's durable bytes (empty on the resident
    /// backend). Carried in `DurableImage` for crash-recovery tests.
    pub fn heap_image(&self) -> HeapImage {
        match &self.pool {
            Some(pool) => pool.heap().snapshot(),
            None => HeapImage::default(),
        }
    }

    /// The shared buffer pool (paged backend only) — exposed for tests
    /// and metrics plumbing.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::store::PagedConfig;

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(name, vec![ColumnDef::new("id", ColumnType::Int)], 0, vec![]).unwrap()
    }

    #[test]
    fn create_and_resolve() {
        let mut c = Catalog::new();
        let a = c.create_table(schema("A")).unwrap();
        let b = c.create_table(schema("B")).unwrap();
        assert_ne!(a, b);
        assert_eq!(c.table(a).schema().name, "A");
        assert_eq!(c.table_by_name("B").unwrap().id(), b);
        assert_eq!(c.table_id("A"), Some(a));
        assert_eq!(c.table_id("missing"), None);
        assert_eq!(c.len(), 2);
        assert!(!c.is_paged());
        assert!(c.pool_stats().is_none());
        assert!(c.heap_image().is_empty());
        assert_eq!(c.flush_dirty_pages().unwrap().pages, 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.create_table(schema("A")).unwrap();
        assert!(c.create_table(schema("A")).is_err());
    }

    #[test]
    fn iteration_in_id_order() {
        let mut c = Catalog::new();
        c.create_table(schema("A")).unwrap();
        c.create_table(schema("B")).unwrap();
        let names: Vec<_> = c.tables().map(|t| t.schema().name.clone()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn paged_catalog_shares_one_pool_across_tables() {
        use crate::{Row, Value, Version};
        use sicost_common::{Ts, TxnId};

        let mut c = Catalog::with_policy(StoragePolicy::Paged(
            PagedConfig::default()
                .with_pages_per_table(2)
                .with_pool_pages(2),
        ));
        let a = c.create_table(schema("A")).unwrap();
        let b = c.create_table(schema("B")).unwrap();
        assert!(c.is_paged());

        c.table(a)
            .install(
                &Value::int(1),
                Version::data(Ts(1), TxnId(1), Row::new(vec![Value::int(1)])),
                Ts::ZERO,
            )
            .unwrap();
        c.table(b)
            .install(
                &Value::int(2),
                Version::data(Ts(2), TxnId(2), Row::new(vec![Value::int(2)])),
                Ts::ZERO,
            )
            .unwrap();

        let stats = c.pool_stats().unwrap();
        assert_eq!(stats.capacity, 2);
        assert!(stats.misses >= 2, "each table touched its own page");

        let flushed = c.flush_dirty_pages().unwrap();
        assert_eq!(flushed.pages, 2);
        assert!(!c.heap_image().is_empty());
        assert_eq!(c.table(a).read_at(&Value::int(1), Ts(5)).unwrap().ts, Ts(1));
    }
}
