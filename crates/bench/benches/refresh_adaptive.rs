//! Criterion benchmark for runtime-feedback re-optimization: a
//! compute-bound wide aggregate the static, I/O-only cost model
//! *misranks* (its output out-sizes its input and it publishes no delta,
//! so on byte terms a full recompute always looks cheaper), refreshed
//! under `Auto` twice — once cold (static estimates → full recompute
//! every round) and once with an observation sidecar warmed by a single
//! prior run (observed compute rate → incremental merge).
//!
//! The pipeline's cost is dominated by evaluating a deep projection
//! expression over every row, which the incremental path only pays for
//! the delta — exactly the blind spot the observation layer exists for.
//! Setup asserts the two decisions outright (cold picks Full with `est`
//! provenance, warmed picks Incremental with `obs` provenance) and
//! prints the achieved wall-clock speedup, so the `--test` smoke run in
//! CI pins the adaptive flip, not just that the benchmark executes.
//!
//! Recorded on the 1-CPU host: static ~1.7x slower than the warmed
//! adaptive refresh at a 256-row delta against a 40k-row base (~79 ms
//! full recompute vs ~46 ms incremental merge).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sc_core::{CostModel, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::{Controller, CostProvenance, MvDefinition, RefreshConfig};
use sc_engine::exec::{AggFunc, TableDelta};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::{DeltaStore, DiskCatalog, ObservationStore};
use sc_engine::{DataType, RunMetrics, Table, TableBuilder, Value};

const BASE_ROWS: usize = 40_000;
const DELTA_ROWS: usize = 256;

/// Rows `[start, start + n)`: a near-unique integer key plus one numeric
/// column, `v` bounded in [1, 2) so the deep expression chain stays
/// finite.
fn events_rows(n: usize, start: usize) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("v", DataType::Float64)
        .build();
    for i in start..start + n {
        t.push_row(vec![
            Value::Int64(i as i64),
            Value::Float64(1.0 + (i % 1000) as f64 / 1000.0),
        ])
        .unwrap();
    }
    t
}

/// A deep arithmetic chain over `v`: `depth` multiply-subtract rounds,
/// each a separate columnar pass — per-row work far beyond what the byte
/// counts suggest, invisible to the static cost model.
fn deep_chain(depth: usize) -> Expr {
    let mut e = Expr::col("v");
    for _ in 0..depth {
        e = e.mul(Expr::lit(1.01f64)).sub(Expr::lit(0.003f64));
    }
    e
}

/// The misranked MV: expression-heavy projection into a near-unique
/// group key (output rows ≈ input rows, output bytes ≥ input bytes),
/// mergeable aggregate publishing no delta.
fn wide_agg() -> MvDefinition {
    MvDefinition::new(
        "wide_agg",
        LogicalPlan::scan("events")
            .project(vec![
                (Expr::col("k"), "k".into()),
                (deep_chain(16), "a".into()),
                (deep_chain(16).mul(Expr::col("v")), "b".into()),
                (deep_chain(16).add(Expr::col("v")), "c".into()),
            ])
            .aggregate(
                vec!["k".into()],
                vec![
                    AggExpr::new(AggFunc::Sum, "a", "sa"),
                    AggExpr::new(AggFunc::Sum, "b", "sb"),
                    AggExpr::new(AggFunc::Sum, "c", "sc"),
                ],
            ),
    )
}

/// Fast-storage cost model matching the unthrottled catalog: byte terms
/// in microseconds, so the static ranking (Full — the incremental path
/// reads and writes strictly more bytes) has a small margin the observed
/// millisecond-scale compute rate dwarfs.
fn fast_storage() -> CostModel {
    CostModel {
        disk_read_bps: 10e9,
        disk_write_bps: 10e9,
        mem_bps: 20e9,
        disk_latency_s: 10e-6,
    }
}

/// Benchmark state: bases post-churn, the MV one refresh behind, a file
/// snapshot restored between iterations, the pending delta, and a
/// sidecar store warmed by exactly one observed full run.
struct AdaptiveBench {
    _dir: tempfile::TempDir,
    disk: DiskCatalog,
    snapshot: std::path::PathBuf,
    mvs: Vec<MvDefinition>,
    plan: Plan,
    delta: TableDelta,
    warmed: ObservationStore,
}

impl AdaptiveBench {
    fn prepare() -> Self {
        let dir = tempfile::tempdir().expect("tempdir");
        let disk = DiskCatalog::open(dir.path()).expect("opens");
        disk.write_table("events", &events_rows(BASE_ROWS, 0))
            .expect("writes");
        let mvs = vec![wide_agg()];
        let plan = Plan::unoptimized((0..mvs.len()).map(NodeId).collect());
        Controller::new(&disk, 64 << 20)
            .refresh(&mvs, &plan)
            .expect("baseline materialization");

        // Churn the base (ingestion lands between refreshes and is not
        // part of either strategy's cost), then snapshot: bases
        // post-churn, the MV one refresh behind.
        let delta = TableDelta::insert_only(events_rows(DELTA_ROWS, BASE_ROWS));
        let events = disk.read_table("events").expect("reads");
        disk.write_table("events", &delta.apply(&events).expect("applies"))
            .expect("writes");
        let snapshot = dir.path().join("snapshot");
        std::fs::create_dir_all(&snapshot).expect("mkdir");
        for entry in std::fs::read_dir(dir.path()).expect("reads dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "sctb" || e == "seg") {
                let name = path.file_name().expect("file name");
                std::fs::copy(&path, snapshot.join(name)).expect("snapshots");
            }
        }

        // Warm-up: one observed full run records the node's compute rate;
        // restore the files so every measured iteration starts equal.
        let bench = AdaptiveBench {
            disk,
            snapshot,
            mvs,
            plan,
            delta,
            warmed: ObservationStore::new(),
            _dir: dir,
        };
        bench.refresh(Some(&bench.warmed));
        bench.restore();
        bench
    }

    fn restore(&self) {
        for entry in std::fs::read_dir(&self.snapshot).expect("reads snapshot") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "sctb" || e == "seg") {
                let name = path.file_name().expect("file name");
                std::fs::copy(&path, self.disk.dir().join(name)).expect("restores");
            }
        }
    }

    /// One `Auto` refresh of the pending delta from the snapshot state,
    /// with or without the warmed observation store attached.
    fn refresh(&self, observations: Option<&ObservationStore>) -> RunMetrics {
        self.restore();
        let store = DeltaStore::new();
        store.append("events", self.delta.clone()).expect("appends");
        let mut controller = Controller::new(&self.disk, 64 << 20)
            .with_delta_store(&store)
            .with_cost_model(fast_storage())
            .with_refresh_config(RefreshConfig::default().with_refresh_mode(RefreshMode::Auto));
        if let Some(obs) = observations {
            controller = controller.with_observations(obs);
        }
        controller
            .refresh(&self.mvs, &self.plan)
            .expect("refreshes")
    }
}

fn bench_refresh_adaptive(c: &mut Criterion) {
    let bench = AdaptiveBench::prepare();

    // The adaptive flip, asserted on real metrics (runs under the
    // `--test` smoke in CI): cold = statically misranked Full, warmed =
    // observation-driven Incremental.
    let cold = bench.refresh(None);
    assert_eq!(
        cold.nodes[0].mode,
        NodeMode::Full,
        "static model must pick Full"
    );
    assert_eq!(cold.nodes[0].cost, CostProvenance::Estimated);
    let warm = bench.refresh(Some(&bench.warmed));
    assert_eq!(
        warm.nodes[0].mode,
        NodeMode::Incremental,
        "one warm-up observation must flip the decision"
    );
    assert_eq!(warm.nodes[0].cost, CostProvenance::Observed);

    // Record the achieved end-to-end speedup in the bench output.
    let time = |obs: Option<&ObservationStore>| {
        let t = Instant::now();
        for _ in 0..3 {
            bench.refresh(obs);
        }
        t.elapsed().as_secs_f64() / 3.0
    };
    let static_s = time(None);
    let adaptive_s = time(Some(&bench.warmed));
    println!(
        "refresh_adaptive: static {:.1} ms, warmed adaptive {:.1} ms ({:.1}x)",
        static_s * 1e3,
        adaptive_s * 1e3,
        static_s / adaptive_s
    );

    let mut g = c.benchmark_group("refresh_adaptive");
    g.sample_size(10);
    for (label, obs) in [("static", None), ("adaptive_warmed", Some(&bench.warmed))] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &obs, |b, &obs| {
            b.iter(|| bench.refresh(obs))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_refresh_adaptive);
criterion_main!(benches);
