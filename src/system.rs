//! Unit tests of [`crate::ScSession`]. The session lives in `sc-engine`;
//! its tests live here because they drive it over `sc-workload`'s
//! fixtures, which `sc-engine` cannot depend on (it would link a second
//! copy of itself).

mod tests {
    use sc_dag::NodeId;
    use sc_engine::controller::MvDefinition;
    use sc_engine::exec::TableDelta;
    use sc_engine::plan::LogicalPlan;
    use sc_engine::EngineError;
    use sc_workload::engine_mvs::sales_pipeline;
    use sc_workload::tpcds::TinyTpcds;

    use crate::{ScError, ScSession};

    fn session() -> (tempfile::TempDir, ScSession) {
        let dir = tempfile::tempdir().unwrap();
        let sys = ScSession::builder()
            .storage_dir(dir.path())
            .memory_budget(8 << 20)
            .build()
            .unwrap();
        TinyTpcds::generate(0.2, 42).load_into(sys.disk()).unwrap();
        for mv in sales_pipeline() {
            sys.register_mv(mv).unwrap();
        }
        (dir, sys)
    }

    #[test]
    fn end_to_end_profile_optimize_refresh() {
        let (_dir, sys) = session();
        let baseline = sys.baseline_refresh().unwrap();
        let plan = sys.optimize_from(&baseline).unwrap();
        let optimized = sys.refresh_with_plan(&plan).unwrap();
        assert_eq!(baseline.nodes.len(), 9);
        assert_eq!(optimized.nodes.len(), 9);
        assert!(plan.flagged.count() > 0);
        for mv in sys.mvs() {
            assert!(sys.disk().contains(&mv.name));
        }
    }

    #[test]
    fn problem_uses_observed_sizes() {
        let (_dir, sys) = session();
        let metrics = sys.baseline_refresh().unwrap();
        let plan = sys.optimize_from(&metrics).unwrap();
        assert_eq!(plan.order.len(), sys.mv_count());
        // Node 0 (enriched_sales) is the hub: largest size, highest score.
        let hub = metrics
            .nodes
            .iter()
            .position(|n| n.name == "enriched_sales")
            .unwrap();
        let max_size = metrics.nodes.iter().map(|n| n.output_bytes).max().unwrap();
        assert_eq!(metrics.nodes[hub].output_bytes, max_size);
        assert!(plan.flagged.contains(NodeId(0)));
        // The optimizer sizes the hub from the metrics: observed larger
        // than the budget, it can no longer be flagged.
        let mut oversized = metrics.clone();
        oversized.nodes[hub].output_bytes = sys.memory_budget() + 1;
        let plan = sys.optimize_from(&oversized).unwrap();
        assert!(!plan.flagged.contains(NodeId(0)));
    }

    #[test]
    fn optimize_from_rejects_metrics_predating_a_registration() {
        let (_dir, sys) = session();
        let old = sys.baseline_refresh().unwrap();
        sys.register_mv(MvDefinition::new("items", LogicalPlan::scan("item")))
            .unwrap();
        assert!(matches!(
            sys.optimize_from(&old),
            Err(EngineError::InvalidPlan(_))
        ));
        // Metrics covering the new registration optimize again.
        let fresh = sys.baseline_refresh().unwrap();
        assert!(sys.optimize_from(&fresh).is_ok());
    }

    #[test]
    fn managed_refresh_profiles_once_then_reuses_the_plan() {
        let (_dir, sys) = session();
        assert!(!sys.has_cached_plan());
        let first = sys.refresh().unwrap();
        assert!(first.profiled, "first refresh must profile");
        assert_eq!(first.plan.flagged.count(), 0, "profiling run is baseline");
        assert!(sys.has_cached_plan());

        let second = sys.refresh().unwrap();
        assert!(!second.profiled, "second refresh reuses the cached plan");
        assert!(
            second.plan.flagged.count() > 0,
            "cached plan is the optimized one"
        );
        let explain = second.explain();
        assert!(
            explain.contains("cached plan"),
            "explain says so: {explain}"
        );

        // Registration invalidates: the next refresh re-profiles.
        sys.register_mv(MvDefinition::new(
            "extra",
            LogicalPlan::scan("enriched_sales"),
        ))
        .unwrap();
        assert!(!sys.has_cached_plan());
        let third = sys.refresh().unwrap();
        assert!(third.profiled);
        assert_eq!(third.metrics.nodes.len(), 10);
    }

    #[test]
    fn duplicate_mv_registration_is_rejected() {
        let (_dir, sys) = session();
        let err = sys
            .register_mv(MvDefinition::new(
                "enriched_sales",
                LogicalPlan::scan("store_sales"),
            ))
            .unwrap_err();
        match err {
            EngineError::DuplicateMv(name) => assert_eq!(name, "enriched_sales"),
            other => panic!("expected DuplicateMv, got {other:?}"),
        }
        // The registry is untouched: still 9 MVs, original plan intact.
        assert_eq!(sys.mv_count(), 9);
        assert_eq!(sys.mvs()[0].name, "enriched_sales");
    }

    #[test]
    fn colliding_mv_stems_are_rejected_at_registration() {
        let (_dir, sys) = session();
        // "enriched.sales" sanitizes to the same stem as the registered
        // "enriched_sales" — letting it through would alias their files.
        let err = sys
            .register_mv(MvDefinition::new(
                "enriched.sales",
                LogicalPlan::scan("store_sales"),
            ))
            .unwrap_err();
        match &err {
            EngineError::NameCollision { name, existing } => {
                assert_eq!(name, "enriched.sales");
                assert_eq!(existing, "enriched_sales");
            }
            other => panic!("expected NameCollision, got {other:?}"),
        }
        assert_eq!(sys.mv_count(), 9);
        assert!(err.to_string().contains("collides"));
    }

    #[test]
    fn snapshot_pins_committed_state_across_refresh() {
        let (_dir, sys) = session();
        sys.refresh().unwrap();
        let snap = sys.snapshot();
        let before = snap.read_table("rev_by_category").unwrap();
        let rows_before = snap.row_count("rev_by_category").unwrap();
        let bytes_before = snap.stored_file_bytes("rev_by_category").unwrap();

        // Churn a base table and refresh: live state moves on.
        let sales = sys.disk().read_table("store_sales").unwrap();
        let sample = sales.take_rows(&(0..25).collect::<Vec<_>>()).unwrap();
        sys.ingest_delta("store_sales", TableDelta::insert_only(sample))
            .unwrap();
        sys.refresh().unwrap();

        // The pinned snapshot still serves the pre-refresh version,
        // byte-identically; a fresh snapshot sees the new one.
        assert_eq!(snap.read_table("rev_by_category").unwrap(), before);
        assert_eq!(snap.row_count("rev_by_category").unwrap(), rows_before);
        assert_eq!(
            snap.stored_file_bytes("rev_by_category").unwrap(),
            bytes_before
        );
        let fresh = sys.snapshot();
        assert!(fresh.epoch() > snap.epoch());
        assert_ne!(
            fresh.stored_file_bytes("rev_by_category").unwrap(),
            bytes_before,
            "live state moved on while the pin held its version"
        );
        // Queries through the snapshot resolve at its epoch too.
        let plan = LogicalPlan::scan("rev_by_category");
        assert_eq!(snap.query(&plan).unwrap(), before);
        assert_eq!(
            sys.query(&plan).unwrap(),
            fresh.read_table("rev_by_category").unwrap()
        );
        drop((snap, fresh));
        assert_eq!(sys.disk().retained_file_count().unwrap(), 0);
    }

    #[test]
    fn snapshot_tables_excludes_post_pin_registrations() {
        let (_dir, sys) = session();
        sys.refresh().unwrap();
        let snap = sys.snapshot();
        let before = snap.tables().unwrap();
        assert!(before.contains(&"store_sales".to_string()));
        assert!(before.contains(&"rev_by_category".to_string()));

        // A table registered after the pin must be absent from the
        // pinned listing but visible to a fresh snapshot.
        let sample = sys
            .disk()
            .read_table("date_dim")
            .unwrap()
            .take_rows(&[0])
            .unwrap();
        sys.disk().write_table("late_arrival", &sample).unwrap();
        let after = snap.tables().unwrap();
        assert_eq!(after, before);
        assert!(!after.contains(&"late_arrival".to_string()));
        let fresh = sys.snapshot();
        assert!(fresh
            .tables()
            .unwrap()
            .contains(&"late_arrival".to_string()));
    }

    #[test]
    fn dependency_graph_shape() {
        let (_dir, sys) = session();
        let g = sys.dependency_graph().unwrap();
        assert_eq!(g.len(), 9);
        assert_eq!(g.node(NodeId(0)), "enriched_sales");
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert!(g.is_topological_order(&g.kahn_order()));
    }

    #[test]
    fn ingest_then_refresh_consumes_the_delta_log() {
        let (_dir, sys) = session();
        let plan = sys.optimize_from(&sys.baseline_refresh().unwrap()).unwrap();
        sys.refresh_with_plan(&plan).unwrap();

        // Churn one fact table: duplicate a slice of existing rows.
        let sales = sys.disk().read_table("store_sales").unwrap();
        let sample = sales.take_rows(&(0..25).collect::<Vec<_>>()).unwrap();
        sys.ingest_delta("store_sales", TableDelta::insert_only(sample))
            .unwrap();
        assert!(!sys.delta_store().is_empty());

        let m = sys.refresh_with_plan(&plan).unwrap();
        assert!(sys.delta_store().is_empty(), "refresh consumes the log");
        // The catalog/web branch saw no churn and must be skipped.
        let skipped: Vec<&str> = m
            .nodes
            .iter()
            .filter(|n| n.mode == sc_core::NodeMode::Skipped)
            .map(|n| n.name.as_str())
            .collect();
        assert!(skipped.contains(&"catalog_by_item"));
        assert!(skipped.contains(&"web_by_item"));

        // With the log drained, the next refresh recomputes as before.
        let again = sys.refresh_with_plan(&plan).unwrap();
        assert!(again
            .nodes
            .iter()
            .all(|n| n.mode == sc_core::NodeMode::Full));
    }

    #[test]
    fn explain_header_carries_the_session_budget() {
        let (_dir, sys) = session();
        let report = sys.refresh().unwrap();
        let peak = report.metrics.peak_memory_bytes;
        assert_eq!(report.metrics.memory_budget_bytes, sys.memory_budget());
        let header = report.explain().lines().next().unwrap().to_string();
        assert!(
            header.ends_with(&format!("peak memory {peak} of {} bytes", 8 << 20)),
            "{header}"
        );
    }

    #[test]
    fn errors_are_wrapped() {
        let dir = tempfile::tempdir().unwrap();
        let sys = ScSession::builder()
            .storage_dir(dir.path())
            .memory_budget(1 << 20)
            .build()
            .unwrap();
        // No base tables ingested: refresh must fail with an engine error.
        for mv in sales_pipeline() {
            sys.register_mv(mv).unwrap();
        }
        match sys.baseline_refresh() {
            Err(EngineError::UnknownTable(_)) => {}
            other => panic!("expected unknown table, got {other:?}"),
        }
        let msg = ScError::DuplicateMv("x".into()).to_string();
        assert!(msg.contains("duplicate"));
        match ScSession::builder().build() {
            Err(EngineError::MissingStorageDir) => {}
            Err(other) => panic!("expected MissingStorageDir, got {other:?}"),
            Ok(_) => panic!("expected MissingStorageDir, got a session"),
        }
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<ScSession>();
    }
}
