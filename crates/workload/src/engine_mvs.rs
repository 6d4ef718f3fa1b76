//! Runnable MV workloads over the [`crate::tpcds`] tables: real
//! `sc-engine` plans used by the examples, the Figure 3 experiment, and
//! the cross-crate integration tests.
//!
//! Also provides the *execution metadata* step of the S/C architecture
//! (§III-A): [`problem_from_metrics`] turns a profiled refresh run into an
//! S/C Opt instance (observed output sizes + model-estimated speedup
//! scores), which is exactly what the paper's Optimizer consumes.

use sc_core::{CostModel, MvMeta, Problem};
use sc_dag::Dag;
use sc_engine::controller::{Controller, MvDefinition, RunMetrics};
use sc_engine::exec::AggFunc;
use sc_engine::exec::SortKey;
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};

/// The Figure 3 microbenchmark: a multi-way join of a fact table with
/// three dimensions, materialized as a single MV (the paper uses the
/// TPC-H Q8 join of customer/orders/lineitem/nation; this is the TPC-DS
/// equivalent over our generated tables).
pub fn fact_join_mv() -> MvDefinition {
    MvDefinition::new(
        "fact_join",
        LogicalPlan::scan("store_sales")
            .join(
                LogicalPlan::scan("item"),
                vec![("ss_item_sk".into(), "i_item_sk".into())],
            )
            .join(
                LogicalPlan::scan("customer"),
                vec![("ss_customer_sk".into(), "c_customer_sk".into())],
            )
            .join(
                LogicalPlan::scan("date_dim"),
                vec![("ss_sold_date_sk".into(), "d_date_sk".into())],
            ),
    )
}

/// A realistic multi-MV refresh pipeline over the TPC-DS-style tables:
/// nine dependent MVs covering enriched facts, per-category/state
/// aggregates, a union across channels, and report tables. The structure
/// deliberately has the Figure 4 shape — an expensive enriched fact table
/// consumed by several cheap aggregates — which is where S/C's flagging
/// pays off.
pub fn sales_pipeline() -> Vec<MvDefinition> {
    let year_filter = |col: &str| Expr::col(col).ge(Expr::lit(0i64)); // full range
    vec![
        // 0: enriched store sales (fact ⋈ item ⋈ date) — the hub table.
        MvDefinition::new(
            "enriched_sales",
            LogicalPlan::scan("store_sales")
                .filter(year_filter("ss_quantity"))
                .join(
                    LogicalPlan::scan("item"),
                    vec![("ss_item_sk".into(), "i_item_sk".into())],
                )
                .join(
                    LogicalPlan::scan("date_dim"),
                    vec![("ss_sold_date_sk".into(), "d_date_sk".into())],
                ),
        ),
        // 1: revenue by category.
        MvDefinition::new(
            "rev_by_category",
            LogicalPlan::scan("enriched_sales").aggregate(
                vec!["i_category".into()],
                vec![
                    AggExpr::new(AggFunc::Sum, "ss_sales_price", "revenue"),
                    AggExpr::new(AggFunc::Count, "ss_item_sk", "n_sales"),
                ],
            ),
        ),
        // 2: revenue by year.
        MvDefinition::new(
            "rev_by_year",
            LogicalPlan::scan("enriched_sales").aggregate(
                vec!["d_year".into()],
                vec![AggExpr::new(AggFunc::Sum, "ss_sales_price", "revenue")],
            ),
        ),
        // 3: high-value sales slice.
        MvDefinition::new(
            "premium_sales",
            LogicalPlan::scan("enriched_sales")
                .filter(Expr::col("ss_sales_price").gt(Expr::lit(400.0f64))),
        ),
        // 4: customer enrichment of the premium slice.
        MvDefinition::new(
            "premium_by_state",
            LogicalPlan::scan("premium_sales")
                .join(
                    LogicalPlan::scan("customer"),
                    vec![("ss_customer_sk".into(), "c_customer_sk".into())],
                )
                .aggregate(
                    vec!["c_state".into()],
                    vec![AggExpr::new(
                        AggFunc::Sum,
                        "ss_sales_price",
                        "premium_revenue",
                    )],
                ),
        ),
        // 5: catalog channel aggregate (independent branch).
        MvDefinition::new(
            "catalog_by_item",
            LogicalPlan::scan("catalog_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![AggExpr::new(
                    AggFunc::Sum,
                    "ss_sales_price",
                    "catalog_revenue",
                )],
            ),
        ),
        // 6: web channel aggregate (independent branch).
        MvDefinition::new(
            "web_by_item",
            LogicalPlan::scan("web_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![AggExpr::new(AggFunc::Sum, "ss_sales_price", "web_revenue")],
            ),
        ),
        // 7: cross-channel union report.
        MvDefinition::new(
            "cross_channel",
            LogicalPlan::scan("catalog_by_item")
                .project(vec![
                    (Expr::col("ss_item_sk"), "item_sk".into()),
                    (Expr::col("catalog_revenue"), "revenue".into()),
                ])
                .union(LogicalPlan::scan("web_by_item").project(vec![
                    (Expr::col("ss_item_sk"), "item_sk".into()),
                    (Expr::col("web_revenue"), "revenue".into()),
                ])),
        ),
        // 8: top items across channels.
        MvDefinition::new(
            "top_items",
            LogicalPlan::scan("cross_channel")
                .aggregate(
                    vec!["item_sk".into()],
                    vec![AggExpr::new(AggFunc::Sum, "revenue", "total_revenue")],
                )
                .sort(vec![SortKey::desc("total_revenue")])
                .limit(25),
        ),
    ]
}

/// Builds an S/C Opt instance from a profiled refresh run: observed output
/// sizes become node sizes, speedup scores come from the cost model and
/// the dependency fan-out. This is the paper's "Execution Metadata" — the
/// DBMS-side measurements from past runs that feed the Optimizer.
pub fn problem_from_metrics(
    mvs: &[MvDefinition],
    metrics: &RunMetrics,
    cost: &CostModel,
    budget: u64,
) -> sc_core::Result<Problem> {
    assert_eq!(mvs.len(), metrics.nodes.len(), "one metric per MV expected");
    // metrics.nodes is in execution order; map back to MV index by name.
    let mut size_by_name = std::collections::HashMap::new();
    for m in &metrics.nodes {
        size_by_name.insert(m.name.clone(), m.output_bytes);
    }
    let edges = Controller::dependencies(mvs);
    let mut children = vec![0usize; mvs.len()];
    for &(i, _) in &edges {
        children[i] += 1;
    }
    let graph: Dag<MvMeta> = Dag::from_parts(
        mvs.iter().enumerate().map(|(i, mv)| {
            let size = size_by_name.get(&mv.name).copied().unwrap_or(0);
            MvMeta::new(
                mv.name.clone(),
                size,
                cost.speedup_score(size, children[i], None),
            )
        }),
        edges,
    )?;
    Problem::new(graph, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcds::TinyTpcds;
    use sc_core::{Plan, ScOptimizer};
    use sc_dag::NodeId;
    use sc_engine::storage::{DiskCatalog, MemoryCatalog};

    fn setup() -> (tempfile::TempDir, DiskCatalog) {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        TinyTpcds::generate(0.3, 42).load_into(&disk).unwrap();
        (dir, disk)
    }

    #[test]
    fn fact_join_runs() {
        let (_dir, disk) = setup();
        let mem = MemoryCatalog::new(64 << 20);
        let mvs = vec![fact_join_mv()];
        let plan = Plan::unoptimized(vec![NodeId(0)]);
        let m = Controller::new(&disk, &mem).refresh(&mvs, &plan).unwrap();
        assert!(m.nodes[0].rows > 0);
        assert!(disk.contains("fact_join"));
    }

    #[test]
    fn sales_pipeline_structure() {
        let mvs = sales_pipeline();
        assert_eq!(mvs.len(), 9);
        let deps = Controller::dependencies(&mvs);
        // enriched_sales feeds three consumers.
        let hub_children = deps.iter().filter(|&&(i, _)| i == 0).count();
        assert_eq!(hub_children, 3);
        // cross_channel reads both channel aggregates.
        assert!(deps.contains(&(5, 7)));
        assert!(deps.contains(&(6, 7)));
        assert!(deps.contains(&(7, 8)));
    }

    #[test]
    fn pipeline_runs_and_optimized_run_matches_baseline_output() {
        let (_dir, disk) = setup();
        let mem = MemoryCatalog::new(64 << 20);
        let mvs = sales_pipeline();
        let order: Vec<NodeId> = (0..mvs.len()).map(NodeId).collect();
        let controller = Controller::new(&disk, &mem);

        // Baseline run, then profile -> optimize -> optimized run.
        let baseline = controller.refresh(&mvs, &Plan::unoptimized(order)).unwrap();
        let cost = CostModel::paper();
        let problem = problem_from_metrics(&mvs, &baseline, &cost, 1 << 20).unwrap();
        let plan = ScOptimizer::default().optimize(&problem).unwrap();
        assert!(plan.flagged.count() > 0, "something must be worth flagging");

        let baseline_tables: Vec<_> = mvs
            .iter()
            .map(|mv| disk.read_table(&mv.name).unwrap())
            .collect();
        let optimized = controller.refresh(&mvs, &plan).unwrap();
        assert_eq!(optimized.nodes.len(), mvs.len());
        for (mv, before) in mvs.iter().zip(baseline_tables) {
            let after = disk.read_table(&mv.name).unwrap();
            assert_eq!(before, after, "optimization must not change {}", mv.name);
        }
        assert!(mem.is_empty());
    }

    #[test]
    fn problem_from_metrics_uses_observed_sizes() {
        let (_dir, disk) = setup();
        let mem = MemoryCatalog::new(64 << 20);
        let mvs = sales_pipeline();
        let order: Vec<NodeId> = (0..mvs.len()).map(NodeId).collect();
        let metrics = Controller::new(&disk, &mem)
            .refresh(&mvs, &Plan::unoptimized(order))
            .unwrap();
        let problem = problem_from_metrics(&mvs, &metrics, &CostModel::paper(), 1 << 30).unwrap();
        assert_eq!(problem.len(), mvs.len());
        // Node 0 (enriched_sales) is the hub: largest size, highest score.
        let sizes = problem.sizes();
        let scores = problem.scores();
        let max_size = *sizes.iter().max().unwrap();
        assert_eq!(sizes[0], max_size);
        assert!(scores[0] >= scores[1]);
    }
}
