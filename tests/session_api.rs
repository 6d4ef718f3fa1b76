//! Cross-crate tests for the session façade: builder defaults, the
//! managed plan lifecycle (caching, registration and drift
//! invalidation), and the delta log's point-in-time snapshot semantics
//! when ingestion races a running refresh.

use std::sync::Arc;

use sc::ScSession;
use sc_engine::exec::TableDelta;
use sc_engine::storage::Throttle;
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn load_and_register(sys: &ScSession) {
    TinyTpcds::generate(0.3, 42).load_into(sys.disk()).unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
}

/// Stored files (name, bytes) backing one table.
type StoredFiles = Vec<(String, Vec<u8>)>;

/// The stored file bytes (manifest + segments) of every registered MV.
fn mv_file_bytes(sys: &ScSession) -> Vec<(String, StoredFiles)> {
    sys.mvs()
        .iter()
        .map(|mv| {
            (
                mv.name.clone(),
                sys.disk().stored_file_bytes(&mv.name).unwrap(),
            )
        })
        .collect()
}

/// A builder with no overrides behaves byte-identically to one spelling
/// out the documented defaults (64 MiB budget, one lane, `Auto`): same
/// config, same derived plan, same MV bytes.
#[test]
fn builder_defaults_are_the_documented_ones() {
    let dir_a = tempfile::tempdir().unwrap();
    let defaulted = ScSession::builder()
        .storage_dir(dir_a.path())
        .build()
        .unwrap();
    let dir_b = tempfile::tempdir().unwrap();
    let explicit = ScSession::builder()
        .storage_dir(dir_b.path())
        .memory_budget(64 << 20)
        .lanes(1)
        .refresh_mode(sc_core::RefreshMode::Auto)
        .build()
        .unwrap();

    assert_eq!(defaulted.memory_budget(), explicit.memory_budget());
    assert_eq!(defaulted.refresh_config(), explicit.refresh_config());

    load_and_register(&defaulted);
    load_and_register(&explicit);
    let optimized_plan = |sys: &ScSession| {
        let plan = sys.optimize_from(&sys.baseline_refresh().unwrap()).unwrap();
        sys.refresh_with_plan(&plan).unwrap();
        plan
    };
    assert_eq!(
        optimized_plan(&defaulted),
        optimized_plan(&explicit),
        "same defaults must derive the same plan"
    );
    for ((name_a, bytes_a), (name_b, bytes_b)) in mv_file_bytes(&defaulted)
        .into_iter()
        .zip(mv_file_bytes(&explicit))
    {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "MV '{name_a}' differs across constructors"
        );
    }
}

/// A batch ingested *while* a refresh is executing is never half-applied:
/// the run works from a point-in-time snapshot of the delta log, so the
/// mid-run batch either pends for the next refresh or (when the running
/// refresh recomputed an MV that already absorbed it via its live base
/// read) poisons the log so the next refresh recomputes. Either way, one
/// draining refresh later the MVs are exactly what a full recompute of
/// the final bases produces.
#[test]
fn ingest_during_slow_refresh_preserves_snapshot_semantics() {
    let dir = tempfile::tempdir().unwrap();
    // Slow writes stretch the refresh so the mid-run ingest lands inside
    // the window reliably.
    let sys = Arc::new(
        ScSession::builder()
            .storage_dir(dir.path())
            .memory_budget(64 << 20)
            .throttle(Throttle {
                read_bps: 200e6,
                write_bps: 15e6,
                latency_s: 1e-4,
            })
            .build()
            .unwrap(),
    );
    load_and_register(&sys);
    sys.refresh().unwrap(); // profile + materialize everything

    let churn = {
        let sales = sys.disk().read_table("store_sales").unwrap();
        sales.take_rows(&(0..40).collect::<Vec<_>>()).unwrap()
    };

    let refresher = {
        let sys = Arc::clone(&sys);
        std::thread::spawn(move || sys.refresh().unwrap())
    };
    // Land the ingest inside the refresh window.
    std::thread::sleep(std::time::Duration::from_millis(30));
    sys.ingest_delta("store_sales", TableDelta::insert_only(churn))
        .unwrap();
    let mid_run = refresher.join().unwrap();
    assert_eq!(mid_run.nodes().len(), 9);

    // The mid-run batch was not silently swallowed by the in-flight run:
    // it still pends (possibly with the log poisoned for safety).
    assert!(
        !sys.delta_store().is_empty() || sys.delta_store().is_poisoned(),
        "a mid-run ingest must survive the running refresh"
    );

    // Drain, then verify against a forced full recompute of the same
    // (final) bases: applying the delta exactly once is what recompute
    // reproduces.
    for _ in 0..3 {
        if sys.delta_store().is_empty() && !sys.delta_store().is_poisoned() {
            break;
        }
        sys.refresh().unwrap();
    }
    assert!(sys.delta_store().is_empty());
    // Draining rounds may have appended segments; the equality contract
    // compares the canonical form, so compact before the byte snapshot.
    sys.compact_mvs().unwrap();
    let after_drain = mv_file_bytes(&sys);
    sys.refresh().unwrap(); // empty log -> full recompute of every MV
    let recomputed = mv_file_bytes(&sys);
    assert_eq!(
        after_drain, recomputed,
        "drained MVs must equal a clean recompute of the final bases"
    );
}

/// Output-size drift beyond `ScSession::SIZE_DRIFT_THRESHOLD` invalidates the
/// cached plan; the next refresh re-profiles. The baseline is *stored*
/// sizes, so every maintenance mode is on one scale: a small append stays
/// within the band, large growth trips it whether it arrived via rewrite
/// or (see `steady_appends_eventually_trigger_reprofile`) via appends.
#[test]
fn size_drift_invalidates_the_cached_plan() {
    let dir = tempfile::tempdir().unwrap();
    // The drift band is comfortably above one small append round (~0.6%
    // growth) and comfortably below the doubling batch at the end.
    assert_eq!(ScSession::SIZE_DRIFT_THRESHOLD, 0.5);
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(8 << 20)
        .runtime_feedback(false)
        .build()
        .unwrap();
    load_and_register(&sys);

    assert!(sys.refresh().unwrap().profiled);
    assert!(
        !sys.refresh().unwrap().profiled,
        "stable sizes: plan reused"
    );
    assert!(sys.has_cached_plan());

    // A small insert-only batch is absorbed by the append path; its
    // stored-size growth is well inside the tolerance band, so steady
    // trickle rounds don't thrash the plan cache.
    let sales = sys.disk().read_table("store_sales").unwrap();
    let small = sales.take_rows(&(0..10).collect::<Vec<_>>()).unwrap();
    sys.ingest_delta("store_sales", TableDelta::insert_only(small))
        .unwrap();
    sys.refresh().unwrap();
    assert!(
        sys.has_cached_plan(),
        "an in-band append round must not invalidate the cache"
    );

    // Double the fact table with a delete in the stream: the join hub
    // cannot maintain incrementally (deletes don't cross join spines),
    // so it recomputes in full and its drifted output size is observed.
    let sales = sys.disk().read_table("store_sales").unwrap();
    let n = sales.num_rows();
    let grow = sales.take_rows(&(0..n).collect::<Vec<_>>()).unwrap();
    let kill = sales.take_rows(&[0]).unwrap();
    sys.ingest_delta(
        "store_sales",
        TableDelta::from_batch(sc_engine::exec::DeltaBatch {
            deletes: kill,
            inserts: grow,
        })
        .unwrap(),
    )
    .unwrap();

    let drifted = sys.refresh().unwrap();
    assert!(!drifted.profiled, "this run still used the cached plan");
    assert!(
        !sys.has_cached_plan(),
        "observed drift must invalidate the cache"
    );
    assert!(
        sys.refresh().unwrap().profiled,
        "and the next run re-profiles"
    );
}

/// A profiling run that skips untouched branches (pending churn
/// elsewhere) must not starve those branches of flags: the optimizer
/// sees their stored size, not zero. And a skip-profile must not cause
/// spurious drift re-profiles on the following steady refreshes.
#[test]
fn profiling_with_pending_churn_still_flags_quiet_branches() {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(32 << 20)
        .build()
        .unwrap();
    load_and_register(&sys);
    sys.refresh().unwrap(); // materialize everything

    // Invalidate the plan, then churn only the fact branch: the next
    // profile skips the untouched catalog/web branch.
    sys.register_mv(sc_engine::controller::MvDefinition::new(
        "premium_copy",
        sc_engine::plan::LogicalPlan::scan("premium_sales"),
    ))
    .unwrap();
    let sales = sys.disk().read_table("store_sales").unwrap();
    let grow = sales.take_rows(&(0..40).collect::<Vec<_>>()).unwrap();
    sys.ingest_delta("store_sales", TableDelta::insert_only(grow))
        .unwrap();

    let reprofile = sys.refresh().unwrap();
    assert!(reprofile.profiled);
    assert_eq!(
        reprofile.mode("web_by_item"),
        Some(sc_core::NodeMode::Skipped),
        "untouched branch must be skipped by the churn-aware profile"
    );

    // The cached plan still flags the skipped hub: at this budget every
    // consumer-feeding node fits, and its stored size (not zero) is what
    // the optimizer weighed.
    let optimized = sys.refresh().unwrap();
    assert!(!optimized.profiled);
    let web_idx = sys
        .mvs()
        .iter()
        .position(|mv| mv.name == "web_by_item")
        .unwrap();
    assert!(
        optimized.plan.flagged.contains(sc_dag::NodeId(web_idx)),
        "quiet branch must still be flag-worthy: {:?}",
        optimized.plan
    );
    // Steady state: no spurious drift invalidation from the mixed
    // profile (executed nodes have real baselines, skipped ones none).
    assert!(!sys.refresh().unwrap().profiled);
    assert!(sys.has_cached_plan());
}

/// The managed lifecycle and the explicit three-call flow produce the
/// same optimized outcome on the same data.
#[test]
fn managed_refresh_matches_explicit_flow() {
    let open = |dir: &std::path::Path| {
        ScSession::builder()
            .storage_dir(dir)
            .memory_budget(8 << 20)
            .build()
            .unwrap()
    };
    let dir_a = tempfile::tempdir().unwrap();
    let managed = open(dir_a.path());
    let dir_b = tempfile::tempdir().unwrap();
    let explicit = open(dir_b.path());
    load_and_register(&managed);
    load_and_register(&explicit);

    managed.refresh().unwrap();
    let report = managed.refresh().unwrap();

    let baseline = explicit.baseline_refresh().unwrap();
    let plan = explicit.optimize_from(&baseline).unwrap();
    let metrics = explicit.refresh_with_plan(&plan).unwrap();

    assert_eq!(report.plan, plan, "same profile must cache the same plan");
    assert_eq!(report.nodes().len(), metrics.nodes.len());
    for (a, b) in report.nodes().iter().zip(&metrics.nodes) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.output_bytes, b.output_bytes);
    }
}

/// `optimize_from` on a profile that skipped nodes sizes them by their
/// stored files, like the managed refresh does: a skipped node whose
/// stored size exceeds the budget is no free flag.
#[test]
fn optimize_from_sizes_skipped_nodes_by_their_stored_files() {
    let dir = tempfile::tempdir().unwrap();
    let budget = 1 << 10;
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(budget)
        .runtime_feedback(false)
        .build()
        .unwrap();
    load_and_register(&sys);
    sys.refresh().unwrap(); // materialize everything

    // Churn only the fact branch: the profile skips the web branch.
    let sales = sys.disk().read_table("store_sales").unwrap();
    let grow = sales.take_rows(&(0..40).collect::<Vec<_>>()).unwrap();
    sys.ingest_delta("store_sales", TableDelta::insert_only(grow))
        .unwrap();
    let profile = sys.baseline_refresh().unwrap();
    let web = profile
        .nodes
        .iter()
        .find(|n| n.name == "web_by_item")
        .unwrap();
    assert_eq!(web.mode, sc_core::NodeMode::Skipped);
    let stored = sys.disk().size_of("web_by_item").unwrap();
    assert!(
        stored > budget,
        "{stored} B must not fit a {budget} B budget"
    );

    let plan = sys.optimize_from(&profile).unwrap();
    let web_idx = sys
        .mvs()
        .iter()
        .position(|mv| mv.name == "web_by_item")
        .unwrap();
    assert!(
        !plan.flagged.contains(sc_dag::NodeId(web_idx)),
        "a skipped node is sized by its stored file, not zero: {plan:?}"
    );
}
