//! Runnable MV workloads over the [`crate::tpcds`] tables: real
//! `sc-engine` plans used by the examples, the Figure 3 experiment, and
//! the cross-crate integration tests.

use sc_engine::controller::MvDefinition;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcds::TinyTpcds;
    use sc_core::Plan;
    use sc_dag::NodeId;
    use sc_engine::controller::dependencies;
    use sc_engine::ScSession;

    /// A session with a 1 MiB Memory Catalog over TinyTpcds at scale 0.3,
    /// with `mvs` registered.
    fn setup(mvs: Vec<MvDefinition>) -> (tempfile::TempDir, ScSession) {
        let dir = tempfile::tempdir().unwrap();
        let session = ScSession::builder()
            .storage_dir(dir.path())
            .memory_budget(1 << 20)
            .runtime_feedback(false)
            .build()
            .unwrap();
        TinyTpcds::generate(0.3, 42)
            .load_into(session.disk())
            .unwrap();
        for mv in mvs {
            session.register_mv(mv).unwrap();
        }
        (dir, session)
    }

    #[test]
    fn fact_join_runs() {
        let (_dir, session) = setup(vec![fact_join_mv()]);
        let plan = Plan::unoptimized(vec![NodeId(0)]);
        let m = session.refresh_with_plan(&plan).unwrap();
        assert!(m.nodes[0].rows > 0);
        assert!(session.disk().contains("fact_join"));
    }

    #[test]
    fn sales_pipeline_structure() {
        let mvs = sales_pipeline();
        assert_eq!(mvs.len(), 9);
        let deps = dependencies(&mvs);
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
        let (_dir, session) = setup(sales_pipeline());
        let mvs = session.mvs();

        // Baseline run, then profile -> optimize -> optimized run.
        let baseline = session.baseline_refresh().unwrap();
        let plan = session.optimize_from(&baseline).unwrap();
        assert!(plan.flagged.count() > 0, "something must be worth flagging");

        let baseline_tables: Vec<_> = mvs
            .iter()
            .map(|mv| session.disk().read_table(&mv.name).unwrap())
            .collect();
        let optimized = session.refresh_with_plan(&plan).unwrap();
        assert_eq!(optimized.nodes.len(), mvs.len());
        for (mv, before) in mvs.iter().zip(baseline_tables) {
            let after = session.disk().read_table(&mv.name).unwrap();
            assert_eq!(before, after, "optimization must not change {}", mv.name);
        }
    }
}
