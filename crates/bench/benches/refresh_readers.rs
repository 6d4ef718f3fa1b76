//! Criterion benchmark for the MVCC snapshot-read tier: epoch-pinned
//! reader latency with the system quiet vs. with a refresher continuously
//! committing full recomputes of the same MVs in the background.
//!
//! The claim under test is the serving-tier one: pinned readers are
//! lock-free with respect to maintenance, so reader throughput stays
//! ~flat while refreshes run — the only cost a concurrent refresher can
//! impose is disk-channel bandwidth, never lock waits, retry loops, or
//! spurious `Corrupt` errors. Recorded on the 1-CPU unthrottled host:
//! `pin_read_quiet` and `pin_read_during_refresh` land within ~15% of
//! each other (scheduler noise), where the pre-MVCC reader would
//! interleave retries with every commit.
//!
//! Each measured iteration pins a fresh snapshot, reads an MV through
//! it, and drops the pin (so epoch GC runs on the hot path too — its
//! cost is part of what must stay flat).

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use sc_core::Plan;
use sc_dag::NodeId;
use sc_engine::controller::MvDefinition;
use sc_engine::expr::Expr;
use sc_engine::plan::LogicalPlan;
use sc_engine::{DataType, ScSession, Table, TableBuilder, Value};

fn base_rows(n: i64) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("v", DataType::Float64)
        .build();
    for k in 0..n {
        t.push_row(vec![Value::Int64(k), Value::Float64(k as f64 / 3.0)])
            .unwrap();
    }
    t
}

fn pipeline() -> Vec<MvDefinition> {
    vec![
        MvDefinition::new(
            "mv_pos",
            LogicalPlan::scan("base").filter(Expr::col("k").ge(Expr::lit(0i64))),
        ),
        MvDefinition::new("mv_head", LogicalPlan::scan("mv_pos").limit(256)),
    ]
}

fn bench_refresh_readers(c: &mut Criterion) {
    let dir = tempfile::tempdir().expect("tempdir");
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .runtime_feedback(false)
        .build()
        .expect("opens");
    session
        .disk()
        .write_table("base", &base_rows(5_000))
        .expect("writes");
    for mv in pipeline() {
        session.register_mv(mv).expect("registers");
    }
    let plan = Plan::unoptimized((0..session.mv_count()).map(NodeId).collect());
    session
        .refresh_with_plan(&plan)
        .expect("baseline materialization");

    let mut g = c.benchmark_group("refresh_readers");
    g.sample_size(20);

    // Quiet system: pin, read, unpin — the serving tier's steady state.
    g.bench_function("pin_read_quiet", |b| {
        b.iter(|| {
            let snap = session.snapshot();
            snap.read_table("mv_pos").expect("pinned read")
        })
    });

    // Hot system: the same reads while a refresher thread commits full
    // recomputes of both MVs as fast as it can (constant-size work, so
    // the background load is steady across the measurement).
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let refresher = {
            let session = &session;
            let stop = &stop;
            let plan = &plan;
            scope.spawn(move || {
                // Refresh before testing `stop`: in smoke mode the
                // one-iteration reader can finish before this thread's
                // first check, and it must still have read under a commit.
                let mut runs = 0u64;
                loop {
                    session.refresh_with_plan(plan).expect("background refresh");
                    runs += 1;
                    if stop.load(Ordering::Relaxed) {
                        break runs;
                    }
                }
            })
        };
        g.bench_function("pin_read_during_refresh", |b| {
            b.iter(|| {
                let snap = session.snapshot();
                snap.read_table("mv_pos")
                    .expect("pinned read under refresh")
            })
        });
        stop.store(true, Ordering::Relaxed);
        let runs = refresher.join().expect("refresher joins");
        assert!(runs > 0, "the background refresher must have committed");
    });
    g.finish();

    // Smoke-mode correctness rider: a pin taken now rereads identical
    // bytes across one more refresh, and GC leaves nothing behind.
    let snap = session.snapshot();
    let before = snap.stored_file_bytes("mv_pos").expect("pinned bytes");
    session.refresh_with_plan(&plan).expect("final refresh");
    assert_eq!(
        snap.stored_file_bytes("mv_pos").expect("pinned reread"),
        before,
        "pinned snapshot must reread byte-identical state across a refresh"
    );
    drop(snap);
    assert_eq!(session.disk().retained_file_count().expect("dir scan"), 0);
    assert_eq!(session.disk().gc_failed_deletes(), 0);
}

criterion_group!(benches, bench_refresh_readers);
criterion_main!(benches);
