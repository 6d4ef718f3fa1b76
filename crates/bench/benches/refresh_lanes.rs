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

use sc_core::{CostModel, Plan, ScOptimizer};
use sc_dag::{Dag, NodeId};
use sc_engine::controller::{Controller, MvDefinition};
use sc_engine::expr::Expr;
use sc_engine::plan::LogicalPlan;
use sc_engine::storage::{DiskCatalog, Throttle};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

/// ~25 MB/s read, ~18 MB/s write: slow enough that the DAG's structure,
/// not the host's NVMe, decides the timings.
fn slow_disk(dir: &std::path::Path) -> DiskCatalog {
    let slow = Throttle {
        read_bps: 25e6,
        write_bps: 18e6,
        latency_s: 1e-3,
    };
    DiskCatalog::open_throttled(dir, slow).expect("opens")
}

fn bench_sales_pipeline(c: &mut Criterion) {
    let dir = tempfile::tempdir().expect("tempdir");
    let disk = slow_disk(dir.path());
    TinyTpcds::generate(0.5, 42)
        .load_into(&disk)
        .expect("ingests");
    let mvs = sales_pipeline();
    let order: Vec<NodeId> = (0..mvs.len()).map(NodeId).collect();
    let unoptimized = Plan::unoptimized(order);
    let budget = 64 << 20;

    // Profile once, then derive the S/C plan the optimizer would pick.
    let profile = Controller::new(&disk, budget)
        .refresh(&mvs, &unoptimized)
        .expect("profiles");
    // The profile ran in MV order, so node i's size is profile.nodes[i]'s.
    let sizes = Dag::from_parts(
        mvs.iter()
            .zip(&profile.nodes)
            .map(|(mv, n)| (mv.name.clone(), n.output_bytes)),
        Controller::dependencies(&mvs),
    )
    .expect("acyclic");
    let problem = CostModel::paper()
        .build_problem(&sizes, budget, |_| None)
        .expect("valid problem");
    let sc_plan = ScOptimizer::default()
        .optimize(&problem)
        .expect("optimizes");

    for (group, plan) in [
        ("sales_pipeline", &unoptimized),
        ("sales_pipeline_sc", &sc_plan),
    ] {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        for lanes in [1usize, 2, 4] {
            g.bench_with_input(BenchmarkId::from_parameter(lanes), &lanes, |b, &lanes| {
                b.iter(|| {
                    Controller::new(&disk, budget)
                        .with_lanes(lanes)
                        .refresh(&mvs, plan)
                        .expect("refreshes")
                })
            });
        }
        g.finish();
    }
}

fn bench_wide_ingest(c: &mut Criterion) {
    let dir = tempfile::tempdir().expect("tempdir");
    let disk = slow_disk(dir.path());
    TinyTpcds::generate(0.5, 42)
        .load_into(&disk)
        .expect("ingests");
    let mvs: Vec<MvDefinition> = (0..4)
        .map(|i| {
            MvDefinition::new(
                format!("sales_copy{i}"),
                LogicalPlan::scan("store_sales")
                    .filter(Expr::col("ss_quantity").ge(Expr::lit(i as i64))),
            )
        })
        .collect();
    let order: Vec<NodeId> = (0..mvs.len()).map(NodeId).collect();
    let plan = Plan::unoptimized(order);

    let mut g = c.benchmark_group("wide_ingest");
    g.sample_size(10);
    for lanes in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(lanes), &lanes, |b, &lanes| {
            b.iter(|| {
                Controller::new(&disk, 64 << 20)
                    .with_lanes(lanes)
                    .refresh(&mvs, &plan)
                    .expect("refreshes")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sales_pipeline, bench_wide_ingest);
criterion_main!(benches);
