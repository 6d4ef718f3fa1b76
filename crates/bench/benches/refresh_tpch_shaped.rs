//! Criterion benchmark over the TPC-H-shaped workload generator: full vs
//! incremental refresh of a star and a snowflake layout under Zipf-skewed
//! fact churn, on a throttled disk slow enough that the refresh strategy —
//! not the host's NVMe — decides the timings.
//!
//! The pipeline exercises the operator surface the scenario corpus pins:
//! a keyed inner-join hub (`priced`), a **left outer** join hub
//! (`priced_outer`, null-filling unmatched parts through the delta rule),
//! a mergeable aggregate consuming the hub (`brand_volume`), and a
//! distinct-merge view (`supplier_mix`). Star vs snowflake changes the
//! fact schema and key skew, so the two groups bound how layout shifts
//! the incremental win.
//!
//! Every measured iteration starts from the same snapshot: bases already
//! post-churn (ingestion lands between refreshes in a real deployment),
//! MVs one refresh behind, the delta pending in a fresh log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sc_core::{Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::{Controller, MvDefinition, RefreshConfig};
use sc_engine::exec::{AggFunc, TableDelta};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::{DeltaStore, DiskCatalog, Throttle};
use sc_workload::tpch_shaped::TpchSpec;
use sc_workload::updates::{generate_delta, UpdateStreamSpec};

/// ~25 MB/s read, ~18 MB/s write (as in `refresh_delta` / `refresh_lanes`).
fn slow_disk(dir: &std::path::Path) -> DiskCatalog {
    let slow = Throttle {
        read_bps: 25e6,
        write_bps: 18e6,
        latency_s: 1e-3,
    };
    DiskCatalog::open_throttled(dir, slow).expect("opens")
}

/// The corpus-shaped pipeline: inner-join hub, left-outer-join hub,
/// mergeable aggregate, distinct merge. Valid under both layouts (it only
/// touches lineitem/part/supplier, which star and snowflake share).
fn tpch_pipeline() -> Vec<MvDefinition> {
    vec![
        MvDefinition::new(
            "priced",
            LogicalPlan::scan("lineitem").join(
                LogicalPlan::scan("part"),
                vec![("l_partkey".into(), "p_partkey".into())],
            ),
        ),
        MvDefinition::new(
            "priced_outer",
            LogicalPlan::scan("lineitem").left_join(
                LogicalPlan::scan("part"),
                vec![("l_partkey".into(), "p_partkey".into())],
            ),
        ),
        MvDefinition::new(
            "brand_volume",
            LogicalPlan::scan("priced").aggregate(
                vec!["p_brand".into()],
                vec![
                    AggExpr::new(AggFunc::Sum, "l_extendedprice", "revenue"),
                    AggExpr::new(AggFunc::Count, "l_quantity", "n"),
                ],
            ),
        ),
        MvDefinition::new(
            "supplier_mix",
            LogicalPlan::scan("lineitem")
                .join(
                    LogicalPlan::scan("supplier"),
                    vec![("l_suppkey".into(), "s_suppkey".into())],
                )
                .project(vec![(Expr::col("s_nation"), "s_nation".into())])
                .distinct(),
        ),
    ]
}

/// Benchmark state: a throttled catalog whose bases are post-churn and
/// whose MVs are one refresh behind, a file snapshot to restore between
/// iterations, and the pending fact delta.
struct TpchBench {
    _dir: tempfile::TempDir,
    disk: DiskCatalog,
    snapshot: std::path::PathBuf,
    mvs: Vec<MvDefinition>,
    plan: Plan,
    delta: TableDelta,
}

impl TpchBench {
    fn prepare(spec: TpchSpec, fraction: f64) -> Self {
        let dir = tempfile::tempdir().expect("tempdir");
        let disk = slow_disk(dir.path());
        spec.load_into(&disk).expect("ingests");
        let mvs = tpch_pipeline();
        let plan = Plan::unoptimized((0..mvs.len()).map(NodeId).collect());
        Controller::new(&disk, 64 << 20)
            .refresh(&mvs, &plan)
            .expect("baseline materialization");

        // Churn the fact table and apply it to the stored base.
        let lineitem = disk.read_table("lineitem").expect("reads");
        let delta = generate_delta(&lineitem, &UpdateStreamSpec::inserts(fraction), 7);
        disk.write_table("lineitem", &delta.apply(&lineitem).expect("applies"))
            .expect("writes");

        // Snapshot every storage file: bases post-churn, MVs pre-refresh.
        let snapshot = dir.path().join("snapshot");
        std::fs::create_dir_all(&snapshot).expect("mkdir");
        for entry in std::fs::read_dir(dir.path()).expect("reads dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "sctb" || e == "seg") {
                let name = path.file_name().expect("file name");
                std::fs::copy(&path, snapshot.join(name)).expect("snapshots");
            }
        }
        TpchBench {
            disk,
            snapshot,
            mvs,
            plan,
            delta,
            _dir: dir,
        }
    }

    /// Restores every storage file from the snapshot (raw, unthrottled
    /// copies — negligible next to the throttled refresh being measured).
    fn restore(&self) {
        for entry in std::fs::read_dir(&self.snapshot).expect("reads snapshot") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "sctb" || e == "seg") {
                let name = path.file_name().expect("file name");
                std::fs::copy(&path, self.disk.dir().join(name)).expect("restores");
            }
        }
    }

    fn refresh(&self, mode: RefreshMode) -> sc_engine::RunMetrics {
        self.restore();
        let store = DeltaStore::new();
        store
            .append("lineitem", self.delta.clone())
            .expect("appends");
        Controller::new(&self.disk, 64 << 20)
            .with_delta_store(&store)
            .with_refresh_config(RefreshConfig::default().with_refresh_mode(mode))
            .refresh(&self.mvs, &self.plan)
            .expect("refreshes")
    }
}

fn bench_refresh_tpch_shaped(c: &mut Criterion) {
    for (label, snowflake) in [("star", false), ("snowflake", true)] {
        let spec = TpchSpec {
            seed: 42,
            fact_rows: 6000,
            parts: 120,
            suppliers: 40,
            customers: 200,
            orders: 600,
            zipf: 1.2,
            snowflake,
        };
        let bench = TpchBench::prepare(spec, 0.02);

        // The corpus claims, checked on real metrics before timing: both
        // join hubs — inner and left outer — maintain through the delta
        // rule under insert-only fact churn.
        let probe = bench.refresh(RefreshMode::AlwaysIncremental);
        for hub in ["priced", "priced_outer", "brand_volume", "supplier_mix"] {
            let node = probe.nodes.iter().find(|n| n.name == hub).expect("node");
            assert_eq!(
                node.mode,
                sc_core::NodeMode::Incremental,
                "{label}: '{hub}' must maintain incrementally under fact churn"
            );
        }

        let mut g = c.benchmark_group(format!("refresh_tpch_{label}"));
        g.sample_size(10);
        for (mode_label, mode) in [
            ("full", RefreshMode::AlwaysFull),
            ("incremental", RefreshMode::AlwaysIncremental),
        ] {
            g.bench_with_input(
                BenchmarkId::from_parameter(mode_label),
                &mode,
                |b, &mode| b.iter(|| bench.refresh(mode)),
            );
        }
        g.finish();
    }
}

criterion_group!(benches, bench_refresh_tpch_shaped);
criterion_main!(benches);
