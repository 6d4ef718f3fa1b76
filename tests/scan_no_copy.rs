//! Scans borrow: `LogicalPlan::Scan` hands operators the source's
//! `Arc<Table>`, so executing a plan over a large table never holds a
//! second copy of it. A counting global allocator (hence a test binary
//! of its own, with a single test so nothing else allocates alongside)
//! measures the high-water mark of live heap bytes while a plan runs;
//! with small outputs it must stay below half the input table's size.
//! The table is few rows by many columns, so what operators keep per
//! row (masks, hash entries) is several times smaller than that bound
//! and only a copy of the table can cross it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sc_engine::exec::{AggFunc, TableDelta};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::{DataType, Table, TableBuilder, Value};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (the caller's obligations on
// `layout` and `ptr` pass straight through); the counters only observe
// sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Highest number of live heap bytes above the starting level while
/// `run` executes.
fn peak_extra<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = run();
    (out, (PEAK.load(Ordering::Relaxed) - before) as u64)
}

/// `rows` rows of one key, one group column (8 values) and 126 payload
/// columns: 1 KiB a row, against the ≈150 B a join keeps per build row.
fn wide(rows: i64) -> Table {
    let mut b = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("g", DataType::Int64);
    for c in 0..126 {
        b = b.column(format!("p{c}"), DataType::Float64);
    }
    let mut t = b.build();
    for i in 0..rows {
        let mut row = vec![Value::Int64(i), Value::Int64(i % 8)];
        row.extend((0..126).map(|c| Value::Float64((i * 31 + c) as f64)));
        t.push_row(row).unwrap();
    }
    t
}

#[test]
fn plans_over_a_shared_table_never_hold_a_second_copy() {
    let big = Arc::new(wide(1024));
    let size = big.byte_size();
    assert!(size >= 1 << 20, "the table must be ≈1 MB, is {size} B");
    let mut few = TableBuilder::new().column("fk", DataType::Int64).build();
    for i in 0..10i64 {
        few.push_row(vec![Value::Int64(i * 100)]).unwrap();
    }
    let source: HashMap<String, Arc<Table>> = HashMap::from([
        ("big".to_string(), Arc::clone(&big)),
        ("few".to_string(), Arc::new(few.clone())),
    ]);
    let on = vec![("fk".to_string(), "k".to_string())];

    let plans = [
        (
            "scan → aggregate",
            LogicalPlan::scan("big").aggregate(
                vec!["g".to_string()],
                vec![AggExpr::new(AggFunc::Sum, "p0", "s")],
            ),
            8,
        ),
        (
            "scan → filter",
            LogicalPlan::scan("big").filter(Expr::col("k").lt(Expr::lit(16i64))),
            16,
        ),
        (
            "join with a bare-scan build side",
            LogicalPlan::scan("few").join(LogicalPlan::scan("big"), on.clone()),
            10,
        ),
    ];
    for (what, plan, rows) in plans {
        let (out, extra) = peak_extra(|| plan.execute(&source).unwrap());
        assert_eq!(out.num_rows(), rows, "{what}");
        assert!(
            extra < size / 2,
            "{what}: {extra} B live at peak over a {size} B input — the scan copied it"
        );
    }

    // The delta path evaluates a join's build side the same way.
    let deltas: HashMap<String, TableDelta> =
        HashMap::from([("few".to_string(), TableDelta::insert_only(few))]);
    let plan = LogicalPlan::scan("few").join(LogicalPlan::scan("big"), on);
    let (delta, extra) = peak_extra(|| plan.execute_delta(&deltas, &source).unwrap());
    assert_eq!(delta.insert_rows(), 10);
    assert!(
        extra < size / 2,
        "delta join: {extra} B live at peak over a {size} B build side"
    );

    // A bare-scan root is the one plan that materializes a copy: the
    // caller gets an owned table and the source keeps its own.
    let (copy, extra) = peak_extra(|| LogicalPlan::scan("big").execute(&source).unwrap());
    assert_eq!(copy, *big);
    assert!(extra >= size);
    assert_eq!(Arc::strong_count(&big), 2, "the source's and this test's");
}
