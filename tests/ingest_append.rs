//! The ingest contract over segmented storage.
//!
//! An insert-only batch lands as one new segment of its base table, so
//! the bytes an ingest writes follow the batch, not the base: the same
//! batch writes the same bytes into a base ten times larger. A batch
//! with deletes rewrites the base into the canonical single segment.
//! Either way the stored rows equal the batch applied to the base, in
//! order; a snapshot pinned before an ingest keeps reading the rows it
//! pinned; and incremental refresh stays row-identical to recomputation
//! over a fragmented base. A batch of another schema is refused before
//! anything is written or logged, by the catalog and by the session
//! alike, and an empty one never claims the log.
//!
//! The bound on how many segments an ingest lets a base grow to is a
//! private constant; its unit test sits beside `DeltaStore::ingest`.

mod support;

use std::collections::HashMap;

use sc_core::{FlagSet, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::MvDefinition;
use sc_engine::exec::{DeltaBatch, TableDelta};
use sc_engine::storage::{format, DiskCatalog};
use sc_engine::{DataType, EngineError, ScSession, Table, TableBuilder, Value};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;
use sc_workload::updates::{generate_delta, UpdateStreamSpec};

/// `(k, s)` rows for every `k` in `keys`.
fn rows(keys: impl IntoIterator<Item = i64>) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("s", DataType::Utf8)
        .build();
    for k in keys {
        t.push_row(vec![Value::Int64(k), Value::Utf8(format!("row {k}"))])
            .unwrap();
    }
    t
}

/// A session without MVs over a fresh directory holding `t` = `base`.
fn session_with(base: &Table) -> (ScSession, tempfile::TempDir) {
    let dir = tempfile::tempdir().unwrap();
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .runtime_feedback(false)
        .build()
        .unwrap();
    session.disk().write_table("t", base).unwrap();
    (session, dir)
}

/// Bytes of the files backing `table` that `op` wrote: every file
/// present afterwards that was absent before or whose bytes changed.
fn bytes_written(disk: &DiskCatalog, table: &str, op: impl FnOnce()) -> u64 {
    let before: HashMap<_, _> = disk.stored_file_bytes(table).unwrap().into_iter().collect();
    op();
    disk.stored_file_bytes(table)
        .unwrap()
        .into_iter()
        .filter(|(name, bytes)| before.get(name) != Some(bytes))
        .map(|(_, bytes)| bytes.len() as u64)
        .sum()
}

#[test]
fn an_insert_only_ingest_writes_the_batch_whatever_the_base_size() {
    let batch = rows(-50..0);
    let mut appended = Vec::new();
    let mut rewritten = Vec::new();
    for base_rows in [2_000, 20_000] {
        let (session, _dir) = session_with(&rows(0..base_rows));
        let disk = session.disk();
        let base_bytes = disk.size_of("t").unwrap();
        appended.push(bytes_written(disk, "t", || {
            session
                .ingest_delta("t", TableDelta::insert_only(batch.clone()))
                .unwrap()
        }));
        assert_eq!(disk.segment_count("t").unwrap(), 2);
        // A batch with deletes still rewrites the whole base.
        let mixed = TableDelta::from_batch(DeltaBatch {
            deletes: rows([0]),
            inserts: batch.clone(),
        })
        .unwrap();
        rewritten.push(bytes_written(disk, "t", || {
            session.ingest_delta("t", mixed).unwrap()
        }));
        assert!(*rewritten.last().unwrap() > base_bytes);
    }
    // The new segment plus the manifest, the same at both base sizes.
    assert_eq!(appended[0], appended[1]);
    let segment = format::encoded_size(&batch);
    assert!(
        appended[0] > segment && appended[0] < segment + 256,
        "an append of a {segment}-byte segment wrote {} bytes",
        appended[0]
    );
    assert!(rewritten[1] > 5 * rewritten[0]);
}

#[test]
fn reads_after_every_ingest_equal_the_batches_applied_in_turn() {
    let (session, _dir) = session_with(&rows(0..100));
    let mut expected = rows(0..100);
    for round in 0..24i64 {
        let inserts = rows(1_000 * (round + 1)..1_000 * (round + 1) + round % 5 + 1);
        let delta = if round % 7 == 6 {
            // Delete the oldest row still present and one this stream
            // appended earlier.
            let first = match expected.value(0, 0) {
                Value::Int64(k) => k,
                v => panic!("unexpected key {v:?}"),
            };
            TableDelta::from_batch(DeltaBatch {
                deletes: rows([first, 1_000 * round]),
                inserts,
            })
            .unwrap()
        } else {
            TableDelta::insert_only(inserts)
        };
        expected = delta.apply(&expected).unwrap();
        session.ingest_delta("t", delta).unwrap();
        assert_eq!(
            session.disk().read_table("t").unwrap(),
            expected,
            "round {round}"
        );
    }
    assert_eq!(session.delta_store().pending_batches("t"), 24);
}

#[test]
fn a_batch_with_deletes_leaves_exactly_one_segment() {
    let (session, _dir) = session_with(&rows(0..50));
    for k in 50..53 {
        session
            .ingest_delta("t", TableDelta::insert_only(rows([k])))
            .unwrap();
    }
    assert_eq!(session.disk().segment_count("t").unwrap(), 4);
    let mixed = TableDelta::from_batch(DeltaBatch {
        deletes: rows([51]),
        inserts: rows([99]),
    })
    .unwrap();
    session.ingest_delta("t", mixed).unwrap();
    assert_eq!(session.disk().segment_count("t").unwrap(), 1);
    let expected: Vec<i64> = (0..51).chain([52, 99]).collect();
    assert_eq!(session.disk().read_table("t").unwrap(), rows(expected));
}

#[test]
fn a_snapshot_pinned_before_an_append_does_not_see_its_rows() {
    let (session, _dir) = session_with(&rows(0..10));
    let snapshot = session.snapshot();
    session
        .ingest_delta("t", TableDelta::insert_only(rows(10..15)))
        .unwrap();
    assert_eq!(snapshot.read_table("t").unwrap(), rows(0..10));
    assert_eq!(snapshot.segment_count("t").unwrap(), 1);
    assert_eq!(snapshot.row_count("t").unwrap(), 10);
    assert_eq!(session.disk().read_table("t").unwrap(), rows(0..15));
    // Only the superseded manifest was retained for the pin.
    drop(snapshot);
    assert_eq!(session.disk().retained_file_count().unwrap(), 0);
    assert_eq!(session.snapshot().row_count("t").unwrap(), 15);
}

#[test]
fn a_batch_of_another_schema_is_refused_before_anything_is_written() {
    let mut other = TableBuilder::new().column("y", DataType::Utf8).build();
    other.push_row(vec![Value::Utf8("y".into())]).unwrap();
    let mut retyped = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("s", DataType::Int64)
        .build();
    retyped
        .push_row(vec![Value::Int64(1), Value::Int64(2)])
        .unwrap();
    // The same types under other names, holding a stored row.
    let mut renamed = TableBuilder::new()
        .column("key", DataType::Int64)
        .column("s", DataType::Utf8)
        .build();
    renamed
        .push_row(vec![Value::Int64(1), Value::Utf8("row 1".into())])
        .unwrap();

    // The catalog itself, on a fragmented table (the check reads the
    // last segment's header).
    let dir = tempfile::tempdir().unwrap();
    let disk = DiskCatalog::open(dir.path()).unwrap();
    disk.write_table("t", &rows(0..3)).unwrap();
    disk.append_table("t", &rows(3..4)).unwrap();
    let files = disk.stored_file_bytes("t").unwrap();
    for bad in [&other, &retyped, &renamed] {
        let err = disk.append_table("t", bad).unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err}");
        assert_eq!(disk.read_table("t").unwrap(), rows(0..4));
        assert_eq!(disk.stored_file_bytes("t").unwrap(), files);
    }

    // Through the session: the base and the delta log stay as they were.
    let (session, _dir) = session_with(&rows(0..3));
    session
        .ingest_delta("t", TableDelta::insert_only(rows(3..4)))
        .unwrap();
    let pending = session.delta_store().pending("t");
    for bad in [&other, &retyped, &renamed] {
        // Appended (insert-only) and rewritten (delete-only) alike.
        let deleting = DeltaBatch {
            deletes: bad.clone(),
            inserts: Table::empty(bad.schema().clone()),
        };
        for delta in [
            TableDelta::insert_only(bad.clone()),
            TableDelta::from_batch(deleting).unwrap(),
        ] {
            let err = session.ingest_delta("t", delta).unwrap_err();
            assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err}");
            assert_eq!(session.disk().read_table("t").unwrap(), rows(0..4));
            assert_eq!(session.delta_store().pending("t"), pending);
        }
    }

    // An empty batch writes nothing, so nothing checked its schema: it
    // must not claim the log, or the next good batch would commit and
    // then fail to log.
    let (session, _dir) = session_with(&rows(0..3));
    session
        .ingest_delta("t", TableDelta::empty(other.schema().clone()))
        .unwrap();
    assert!(session.delta_store().is_empty());
    session
        .ingest_delta("t", TableDelta::insert_only(rows(3..4)))
        .unwrap();
    assert_eq!(session.delta_store().pending_batches("t"), 1);
    assert_eq!(session.disk().read_table("t").unwrap(), rows(0..4));
}

/// A session over TinyTpcds refreshing `sales_pipeline` in `mode`.
fn pipeline_rig(mode: RefreshMode) -> (ScSession, tempfile::TempDir) {
    let dir = tempfile::tempdir().unwrap();
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .refresh_mode(mode)
        .runtime_feedback(false)
        .build()
        .unwrap();
    TinyTpcds::generate(0.4, 7)
        .load_into(session.disk())
        .unwrap();
    for mv in sales_pipeline() {
        session.register_mv(mv).unwrap();
    }
    (session, dir)
}

fn mv_tables(session: &ScSession, mvs: &[MvDefinition]) -> Vec<Table> {
    mvs.iter()
        .map(|mv| session.disk().read_table(&mv.name).unwrap())
        .collect()
}

#[test]
fn incremental_refresh_matches_full_over_a_fragmented_base() {
    let mvs = sales_pipeline();
    let plan = Plan {
        order: (0..mvs.len()).map(NodeId).collect(),
        flagged: FlagSet::from_nodes(mvs.len(), [NodeId(0)]),
    };
    let (full, _full_dir) = pipeline_rig(RefreshMode::AlwaysFull);
    let (inc, _inc_dir) = pipeline_rig(RefreshMode::AlwaysIncremental);
    full.refresh_with_plan(&plan).unwrap();
    inc.refresh_with_plan(&plan).unwrap();
    // Five insert-only rounds fragment the fact table; the mixed sixth
    // folds it back into one segment; two more fragment it again.
    for round in 0..8u64 {
        let spec = if round == 5 {
            UpdateStreamSpec::mixed(0.02, 0.02, 0.01)
        } else {
            UpdateStreamSpec::inserts(0.02)
        };
        for rig in [&full, &inc] {
            let base = rig.disk().read_table("store_sales").unwrap();
            rig.ingest_delta("store_sales", generate_delta(&base, &spec, 40 + round))
                .unwrap();
        }
        let segments = inc.disk().segment_count("store_sales").unwrap();
        let expect = if round < 5 { round + 2 } else { round - 4 };
        assert_eq!(segments as u64, expect, "round {round}");
        full.refresh_with_plan(&plan).unwrap();
        inc.refresh_with_plan(&plan).unwrap();
        assert_eq!(
            mv_tables(&full, &mvs),
            mv_tables(&inc, &mvs),
            "round {round}: incremental MVs must be row-identical to full ones"
        );
    }
    // And both match the controller-free oracle, byte for byte.
    let oracle = support::oracle_mv_bytes(inc.disk(), &mvs);
    for (mv, (name, bytes)) in mvs.iter().zip(oracle) {
        let stored = inc.disk().read_table(&mv.name).unwrap();
        assert_eq!(format::encode(&stored).to_vec(), bytes, "{name}");
    }
}
