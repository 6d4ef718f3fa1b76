//! Snapshot-isolation stress suite for the MVCC read tier: many pinned
//! readers reread **byte-identical** state while a refresher, an
//! ingester, and a compactor commit concurrently, and epoch GC reclaims
//! superseded files only after the last pin drops.
//!
//! This is the integration-level proof behind `ScSession::snapshot()`:
//! the reader-vs-rewriter race family (spurious `Corrupt`/missing-file
//! errors, torn metadata, `.seg.old` fallback races) is structurally
//! impossible on the pinned path, not retried around.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sc::prelude::*;
use sc::ScSession;
use sc_engine::{DataType, Value};

/// A small deterministic base table.
fn base_rows(range: std::ops::Range<i64>) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("v", DataType::Int64)
        .build();
    for k in range {
        t.push_row(vec![Value::Int64(k), Value::Int64(k * 7)])
            .unwrap();
    }
    t
}

/// A session with one base table and two MVs (a filter and its child),
/// so refreshes exercise the DAG and the append path.
fn rig() -> (tempfile::TempDir, Arc<ScSession>) {
    let dir = tempfile::tempdir().unwrap();
    let sys = Arc::new(
        ScSession::builder()
            .storage_dir(dir.path())
            .memory_budget(8 << 20)
            .build()
            .unwrap(),
    );
    sys.disk().write_table("base", &base_rows(0..200)).unwrap();
    sys.register_mv(MvDefinition::new(
        "mv_pos",
        LogicalPlan::scan("base").filter(Expr::col("k").ge(Expr::lit(0i64))),
    ))
    .unwrap();
    sys.register_mv(MvDefinition::new(
        "mv_head",
        LogicalPlan::scan("mv_pos").limit(64),
    ))
    .unwrap();
    sys.refresh().unwrap();
    (dir, sys)
}

/// The tentpole acceptance test: N reader threads each pin a snapshot
/// and reread every table's contents *and* stored bytes in a tight loop,
/// demanding byte-identity with their first read, while a refresher
/// (fed by an ingester) and a compactor churn the same tables. After all
/// pins drop, epoch GC must have reclaimed every superseded file.
#[test]
fn many_readers_hold_snapshot_isolation_under_refresh_and_compaction() {
    let (_dir, sys) = rig();
    let stop = AtomicBool::new(false);
    const READERS: usize = 6;

    std::thread::scope(|scope| {
        // Readers: pin once, then reread until the writers finish.
        for r in 0..READERS {
            let sys = &sys;
            let stop = &stop;
            scope.spawn(move || {
                let snap = sys.snapshot();
                let tables = ["base", "mv_pos", "mv_head"];
                let first: Vec<_> = tables
                    .iter()
                    .map(|t| {
                        (
                            snap.read_table(t).unwrap(),
                            snap.stored_file_bytes(t).unwrap(),
                            snap.row_count(t).unwrap(),
                            snap.segment_count(t).unwrap(),
                            snap.size_of(t).unwrap(),
                        )
                    })
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    for (t, want) in tables.iter().zip(&first) {
                        assert_eq!(
                            snap.read_table(t).unwrap(),
                            want.0,
                            "reader {r}: '{t}' rows changed under a pinned snapshot"
                        );
                        assert_eq!(
                            snap.stored_file_bytes(t).unwrap(),
                            want.1,
                            "reader {r}: '{t}' stored bytes changed under a pinned snapshot"
                        );
                        assert_eq!(snap.row_count(t).unwrap(), want.2);
                        assert_eq!(snap.segment_count(t).unwrap(), want.3);
                        assert_eq!(snap.size_of(t).unwrap(), want.4);
                    }
                }
            });
        }
        // Maintenance: ingest + refresh + compact, concurrently with the
        // pinned readers, for a fixed number of rounds.
        for round in 0..8 {
            let delta = base_rows(200 + round * 10..210 + round * 10);
            sys.ingest_delta("base", TableDelta::insert_only(delta))
                .unwrap();
            sys.refresh().unwrap();
            if round % 3 == 2 {
                sys.compact_mvs().unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Every pin has dropped: superseded files are gone, live state is
    // the latest commit, and no GC delete failed along the way.
    assert_eq!(sys.disk().retained_file_count().unwrap(), 0);
    assert_eq!(sys.disk().gc_failed_deletes(), 0);
    assert_eq!(sys.disk().row_count("base").unwrap(), 280);
    let fresh = sys.snapshot();
    assert_eq!(fresh.row_count("base").unwrap(), 280);
    assert_eq!(
        fresh.read_table("mv_pos").unwrap(),
        sys.disk().read_table("mv_pos").unwrap()
    );
}

/// Superseded segments survive exactly as long as the oldest pin needs
/// them: a stack of snapshots taken across refreshes is reclaimed
/// youngest-visible-state-last as pins drop oldest-first.
#[test]
fn superseded_segments_are_reclaimed_only_after_the_last_pin_drops() {
    let (_dir, sys) = rig();
    let s1 = sys.snapshot();
    let v1 = s1.stored_file_bytes("mv_pos").unwrap();

    sys.ingest_delta("base", TableDelta::insert_only(base_rows(200..230)))
        .unwrap();
    sys.refresh().unwrap();
    let s2 = sys.snapshot();
    let v2 = s2.stored_file_bytes("mv_pos").unwrap();
    assert_ne!(v1, v2);

    sys.ingest_delta("base", TableDelta::insert_only(base_rows(230..260)))
        .unwrap();
    sys.refresh().unwrap();
    sys.compact_mvs().unwrap();

    let retained_with_both = sys.disk().retained_file_count().unwrap();
    assert!(retained_with_both > 0, "two live pins must retain files");

    // Dropping the *older* pin frees its exclusive files but not s2's.
    drop(s1);
    let retained_with_s2 = sys.disk().retained_file_count().unwrap();
    assert!(retained_with_s2 < retained_with_both);
    assert!(retained_with_s2 > 0, "s2 still pins superseded state");
    assert_eq!(s2.stored_file_bytes("mv_pos").unwrap(), v2);

    drop(s2);
    assert_eq!(sys.disk().retained_file_count().unwrap(), 0);
}

/// Satellite 1's pin: the metadata reads (`size_of`/`row_count`/
/// `segment_count`/`stored_file_bytes`) loop against a hot rewriter on
/// the *same* catalog without ever surfacing a spurious
/// `Corrupt`/missing-file error — they ride the same epoch-consistent
/// read path as `read_table` now.
#[test]
fn metadata_reads_survive_a_hot_rewriter() {
    let dir = tempfile::tempdir().unwrap();
    let cat = Arc::new(sc_engine::storage::DiskCatalog::open(dir.path()).unwrap());
    cat.write_table("t", &base_rows(0..64)).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writer = {
            let cat = &cat;
            let stop = &stop;
            scope.spawn(move || {
                let mut n = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // Alternate rewrites and appends so both the
                    // full-retention and manifest-only commit paths run.
                    if n.is_multiple_of(2) {
                        cat.write_table("t", &base_rows(0..64 + (n as i64 % 7)))
                            .unwrap();
                    } else {
                        cat.append_table("t", &base_rows(0..3)).unwrap();
                    }
                    n += 1;
                }
                n
            })
        };
        for _ in 0..300 {
            // Unpinned reads: must never spuriously fail while the
            // rewriter churns (same handle — commits are coherent).
            let size = cat.size_of("t").unwrap();
            assert!(size > 0);
            assert!(cat.row_count("t").unwrap() >= 64);
            assert!(cat.segment_count("t").unwrap() >= 1);
            let files = cat.stored_file_bytes("t").unwrap();
            assert_eq!(files[0].0, "t.sctb");
            // And pinned reads are coherent *across* calls: sizes sum up.
            let pin = cat.pin();
            let total: u64 = pin
                .stored_file_bytes("t")
                .unwrap()
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum();
            assert_eq!(total, pin.size_of("t").unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().unwrap() > 0, "the rewriter must have run");
    });
    assert_eq!(cat.gc_failed_deletes(), 0);
    assert_eq!(cat.retained_file_count().unwrap(), 0);
}
