//! Criterion benchmark for the refresh executor at 1/2/4 lanes, over a
//! throttled disk that models ONE shared storage device (a read channel
//! and a write channel; concurrent I/Os share the configured bandwidth).
//! Lanes therefore win by overlapping the two channels and the catalog,
//! not by multiplying bandwidth:
//!
//! * `sales_pipeline/*` — the paper's 9-MV DAG, unoptimized plan: the
//!   hub fan-out leaves modest read-vs-write pipelining for lanes.
//! * `sales_pipeline_sc/*` — the same DAG under the S/C-optimized plan:
//!   flagged hubs are served from the Memory Catalog, freeing the read
//!   channel so lanes overlap more.
//! * `wide_ingest/*` — four independent full-copy MVs: the write of MV i
//!   overlaps the read of MV i+1, the canonical lane win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sc_core::Plan;
use sc_dag::NodeId;
use sc_engine::controller::MvDefinition;
use sc_engine::expr::Expr;
use sc_engine::plan::LogicalPlan;
use sc_engine::storage::Throttle;
use sc_engine::ScSession;
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

const LANES: [usize; 3] = [1, 2, 4];

/// A session at `lanes` lanes over a fresh directory holding the TinyTpcds
/// tables at scale 0.5 and `mvs`, on ~25 MB/s read, ~18 MB/s write
/// storage: slow enough that the DAG's structure, not the host's NVMe,
/// decides the timings.
fn slow_session(lanes: usize, mvs: &[MvDefinition]) -> (tempfile::TempDir, ScSession) {
    let dir = tempfile::tempdir().expect("tempdir");
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .throttle(Throttle {
            read_bps: 25e6,
            write_bps: 18e6,
            latency_s: 1e-3,
        })
        .lanes(lanes)
        .runtime_feedback(false)
        .build()
        .expect("opens");
    TinyTpcds::generate(0.5, 42)
        .load_into(session.disk())
        .expect("ingests");
    for mv in mvs {
        session.register_mv(mv.clone()).expect("registers");
    }
    (dir, session)
}

fn bench_sales_pipeline(c: &mut Criterion) {
    let mvs = sales_pipeline();
    let sessions: Vec<_> = LANES.iter().map(|&l| slow_session(l, &mvs)).collect();
    let unoptimized = Plan::unoptimized((0..mvs.len()).map(NodeId).collect());

    // Profile (and so materialize) once per session, then derive the S/C
    // plan the optimizer would pick.
    let profiles: Vec<_> = sessions
        .iter()
        .map(|(_, s)| s.refresh_with_plan(&unoptimized).expect("profiles"))
        .collect();
    let sc_plan = sessions[0]
        .1
        .optimize_from(&profiles[0])
        .expect("optimizes");

    for (group, plan) in [
        ("sales_pipeline", &unoptimized),
        ("sales_pipeline_sc", &sc_plan),
    ] {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        for (lanes, (_, session)) in LANES.iter().zip(&sessions) {
            g.bench_with_input(BenchmarkId::from_parameter(lanes), plan, |b, plan| {
                b.iter(|| session.refresh_with_plan(plan).expect("refreshes"))
            });
        }
        g.finish();
    }
}

fn bench_wide_ingest(c: &mut Criterion) {
    let mvs: Vec<MvDefinition> = (0..4)
        .map(|i| {
            MvDefinition::new(
                format!("sales_copy{i}"),
                LogicalPlan::scan("store_sales")
                    .filter(Expr::col("ss_quantity").ge(Expr::lit(i as i64))),
            )
        })
        .collect();
    let plan = Plan::unoptimized((0..mvs.len()).map(NodeId).collect());

    let mut g = c.benchmark_group("wide_ingest");
    g.sample_size(10);
    for lanes in LANES {
        let (_dir, session) = slow_session(lanes, &mvs);
        g.bench_with_input(BenchmarkId::from_parameter(lanes), &plan, |b, plan| {
            b.iter(|| session.refresh_with_plan(plan).expect("refreshes"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sales_pipeline, bench_wide_ingest);
criterion_main!(benches);
