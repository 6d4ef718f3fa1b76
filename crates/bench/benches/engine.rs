//! Criterion microbenchmarks for the execution-engine substrate: operator
//! throughput, the columnar file format, the raw (unthrottled) read path
//! of a hub-sized table, and a full controller refresh.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use sc_core::Plan;
use sc_dag::NodeId;
use sc_engine::exec::{self, AggFunc};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::{format, DiskCatalog};
use sc_engine::{DataType, ScSession, Table, TableBuilder, Value};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn numbers(n: i64) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("v", DataType::Float64)
        .build();
    for i in 0..n {
        t.push_row(vec![Value::Int64(i % 1000), Value::Float64(i as f64)])
            .expect("row");
    }
    t
}

fn bench_operators(c: &mut Criterion) {
    let t = numbers(100_000);
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Elements(t.num_rows() as u64));
    let pred = Expr::col("v").gt(Expr::lit(50_000.0f64));
    g.bench_function("filter_100k", |b| {
        b.iter(|| exec::filter(&t, &pred).expect("filters"))
    });
    g.bench_function("aggregate_100k", |b| {
        b.iter(|| {
            exec::aggregate(
                &t,
                &["k".to_string()],
                &[(AggFunc::Sum, "v".to_string(), "s".to_string())],
            )
            .expect("aggregates")
        })
    });
    let small = numbers(1000);
    g.bench_function("hash_join_100k_x_1k", |b| {
        b.iter(|| {
            exec::hash_join(
                &t,
                &small,
                &[("k".to_string(), "k".to_string())],
                exec::JoinType::Inner,
            )
            .expect("joins")
        })
    });
    g.finish();
}

fn bench_format(c: &mut Criterion) {
    let t = numbers(100_000);
    let bytes = format::encode(&t);
    let mut g = c.benchmark_group("columnar_format");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_100k", |b| b.iter(|| format::encode(&t)));
    g.bench_function("decode_100k", |b| {
        b.iter(|| format::decode(bytes.clone()).expect("decodes"))
    });
    g.finish();
}

/// The price of a Memory Catalog miss, layer by layer, on a table the
/// size of `scbench`'s join hub (≈6.4 MB): the checksum alone (old
/// byte-at-a-time hash beside the manifest's word-at-a-time one), a raw
/// verified `read_table`, and a scan feeding an operator.
fn bench_read_path(c: &mut Criterion) {
    let hub = numbers(400_000);
    let bytes = format::encode(&hub);
    let mut g = c.benchmark_group("read_path");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("fnv1a64_hub", |b| b.iter(|| format::fnv1a64(&bytes)));
    g.bench_function("segment_checksum_hub", |b| {
        b.iter(|| format::segment_checksum(&bytes))
    });

    let dir = tempfile::tempdir().expect("tempdir");
    let disk = DiskCatalog::open(dir.path()).expect("opens");
    disk.write_table("hub", &hub).expect("writes");
    g.bench_function("read_table_hub", |b| {
        b.iter(|| disk.read_table("hub").expect("reads"))
    });

    let source: HashMap<String, Arc<Table>> = HashMap::from([("hub".to_string(), Arc::new(hub))]);
    let plan = LogicalPlan::scan("hub").aggregate(
        vec!["k".to_string()],
        vec![AggExpr::new(AggFunc::Sum, "v", "s")],
    );
    g.bench_function("scan_aggregate_hub", |b| {
        b.iter(|| plan.execute(&source).expect("aggregates"))
    });
    g.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let dir = tempfile::tempdir().expect("tempdir");
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .runtime_feedback(false)
        .build()
        .expect("opens");
    TinyTpcds::generate(0.5, 42)
        .load_into(session.disk())
        .expect("ingests");
    for mv in sales_pipeline() {
        session.register_mv(mv).expect("registers");
    }
    let n = session.mv_count();
    let order: Vec<NodeId> = (0..n).map(NodeId).collect();
    let baseline = Plan::unoptimized(order.clone());
    let flagged = Plan {
        order,
        flagged: sc_core::FlagSet::from_nodes(n, [NodeId(0), NodeId(5), NodeId(6)]),
    };
    let mut g = c.benchmark_group("controller_refresh");
    g.sample_size(20);
    g.bench_function("baseline_9mv", |b| {
        b.iter(|| session.refresh_with_plan(&baseline).expect("refreshes"))
    });
    g.bench_function("flagged_9mv", |b| {
        b.iter(|| session.refresh_with_plan(&flagged).expect("refreshes"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_operators,
    bench_format,
    bench_read_path,
    bench_refresh
);
criterion_main!(benches);
