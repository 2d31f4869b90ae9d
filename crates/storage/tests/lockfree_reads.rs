//! Steady-state reads on the lock-free hot path must not allocate.
//!
//! The storage read path is epoch-pinned pointer chasing: pin, load the
//! shard's map snapshot, hash the key, borrow the chain. After the
//! thread's one-time epoch-slot registration, none of that touches the
//! allocator — the property this test asserts with a counting global
//! allocator. (One test per binary on purpose: a concurrent test thread
//! would pollute the process-wide allocation counter.)

use sicost_common::{TableId, Ts, TxnId};
use sicost_storage::{ColumnDef, ColumnType, Row, Table, TableSchema, Value, Version};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with a process-wide allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_reads_perform_zero_allocations() {
    // No unique indexes: the hot read path under test is the plain
    // pk -> chain lookup every transactional read takes.
    let table = Table::new(
        TableId(0),
        TableSchema::new(
            "Counters",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("n", ColumnType::Int),
            ],
            0,
            vec![],
        )
        .unwrap(),
    );
    let keys: Vec<Value> = (0..64i64).map(Value::int).collect();
    for (i, key) in keys.iter().enumerate() {
        for ts in 1..=4u64 {
            table
                .install(
                    key,
                    Version::data(
                        Ts(i as u64 * 4 + ts),
                        TxnId(1),
                        Row::new(vec![key.clone(), Value::int(ts as i64)]),
                    ),
                    Ts::ZERO,
                )
                .unwrap();
        }
    }
    let snap = Ts(u64::MAX);

    // Warm-up: the thread's first epoch pin registers its slot (one
    // allocation, ever); a first pass touches every chain.
    for key in &keys {
        assert!(table.read_with(key, snap, |v| v.is_some()), "{key:?}");
    }

    // Measured steady state: pins, map loads, hashing, chain borrows.
    let mut sum = 0i64;
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..100 {
        for key in &keys {
            sum += table
                .read_with(key, snap, |v| {
                    v.and_then(|v| v.row()).map_or(0, |r| r.int(1))
                })
                .max(0);
            assert_eq!(table.latest_ts(key).map(|t| t.0 % 4), Some(0));
            let chain_len = table.with_chain(key, |c| c.iter().count()).unwrap_or(0);
            assert_eq!(chain_len, 4);
        }
        assert_eq!(table.max_chain_len(), 4);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(sum, 4 * 64 * 100, "reads must have observed every row");
    assert_eq!(
        after - before,
        0,
        "steady-state lock-free reads must not allocate"
    );
}
