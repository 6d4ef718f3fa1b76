//! String columns allocate per column, not per value: a `Utf8` column
//! is one offsets array and one byte buffer, so decoding a table,
//! filtering it, gathering its rows, concatenating it and the hash
//! join's gather (null fill included) allocate as often for 20,000 rows
//! as for 200. A counting global allocator (hence a test binary of its
//! own, with a single test so nothing else allocates alongside) counts
//! allocation calls, growth included, while each operation runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sc_engine::exec::{hash_join, JoinType};
use sc_engine::storage::format::{decode, encode};
use sc_engine::{DataType, Table, TableBuilder, Value};

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (the caller's obligations on
// `layout` and `ptr` pass straight through); the counter only observes
// calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls (new blocks and growth) while `run` executes.
fn allocations<T>(run: impl FnOnce() -> T) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    let out = run();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    drop(out);
    calls
}

/// `rows` rows of a join key and two string columns of mixed lengths.
fn strings(rows: usize) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("s", DataType::Utf8)
        .column("t", DataType::Utf8)
        .build();
    for i in 0..rows {
        t.push_row(vec![
            Value::Int64(i as i64),
            Value::Utf8(format!("value-{i}")),
            Value::Utf8("αβ".repeat(i % 7)),
        ])
        .unwrap();
    }
    t
}

/// Allocation calls of each operation over a `rows`-row table.
fn profile(rows: usize) -> Vec<(&'static str, usize)> {
    let t = strings(rows);
    let sctb = encode(&t);
    let mask: Vec<bool> = (0..rows).map(|i| i % 3 != 0).collect();
    let reversed: Vec<usize> = (0..rows).rev().collect();
    // Half the probe rows find no build row: the join gathers right-side
    // strings for the matches and fills the misses with "".
    let build = t.take_rows(&(0..rows / 2).collect::<Vec<_>>()).unwrap();
    let on = [("k".to_string(), "k".to_string())];
    vec![
        ("decode", allocations(|| decode(sctb.clone()).unwrap())),
        ("filter", allocations(|| t.filter_rows(&mask).unwrap())),
        ("take", allocations(|| t.take_rows(&reversed).unwrap())),
        (
            "concat",
            allocations(|| Table::concat(&[&t, &t, &t]).unwrap()),
        ),
        (
            "left join",
            allocations(|| hash_join(&t, &build, &on, JoinType::Left).unwrap()),
        ),
    ]
}

#[test]
fn string_columns_allocate_per_column_not_per_value() {
    let small = profile(200);
    let large = profile(20_000);
    for ((op, few), (_, many)) in small.iter().zip(&large) {
        assert_eq!(
            many, few,
            "{op} made {many} allocation calls at 20,000 rows and {few} at 200"
        );
        // A handful per column (two per string column), nowhere near one
        // per value.
        assert!(*many < 40, "{op} made {many} allocation calls");
    }
}
