//! A bulk load costs the same per row at any table size.
//!
//! `Database::bulk_load` hands its rows to the table as one batch, and the
//! resident store copies each shard's map once per batch. Copying it once
//! per new row instead makes a load quadratic: the bytes allocated per row
//! grow with the rows already loaded. This test counts the bytes allocated
//! while loading 2 048 and 16 384 rows into empty tables and requires the
//! per-row figures to agree within 1.5×. (One test per binary on purpose:
//! a concurrent test thread would pollute the process-wide counter.)

use sicost_engine::{Database, EngineConfig};
use sicost_storage::{ColumnDef, ColumnType, Row, TableSchema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with a process-wide count of the bytes allocated.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated per row by one bulk load of `n` rows into an empty
/// table shaped like SmallBank's Account (a string key and a unique
/// column). The rows are built before the count starts.
fn bytes_per_row(n: i64) -> f64 {
    let db = Database::builder()
        .table(
            TableSchema::new(
                "Account",
                vec![
                    ColumnDef::new("Name", ColumnType::Str),
                    ColumnDef::new("CustomerId", ColumnType::Int),
                ],
                0,
                vec![1],
            )
            .unwrap(),
        )
        .unwrap()
        .config(EngineConfig::functional())
        .build();
    let tid = db.table_id("Account").unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::str(format!("c{i:06}")), Value::int(i)]))
        .collect();
    let before = BYTES.load(Ordering::SeqCst);
    db.bulk_load(tid, rows).unwrap();
    (BYTES.load(Ordering::SeqCst) - before) as f64 / n as f64
}

#[test]
fn bulk_load_allocates_the_same_bytes_per_row_at_any_table_size() {
    let small = bytes_per_row(2_048);
    let large = bytes_per_row(16_384);
    let ratio = small.max(large) / small.min(large);
    assert!(
        ratio < 1.5,
        "bytes allocated per row: {small:.0} loading 2 048 rows, {large:.0} loading \
         16 384 rows ({ratio:.2}×)"
    );
}
