//! Runtime-feedback re-optimization: persisted per-node observations
//! (the `observations.scst` sidecar) feeding the Auto cost model.
//!
//! The acceptance scenario is a compute-bound wide aggregate the static,
//! I/O-only cost model *misranks*: its output is at least as large as its
//! input and it publishes no delta, so on byte terms alone a full
//! recompute always looks cheaper than merging — but the actual expense
//! is evaluating the projection expressions over every row, which the
//! incremental path only pays for the delta. One warm-up run records the
//! observed compute throughput; the next refresh flips the node to
//! incremental, with `explain()` attributing the decision to `obs`. A
//! twin session with `runtime_feedback(false)` pins the static
//! misranking end-to-end.
//!
//! The satellites ride along: a doomed run (and its poisoned-log retry)
//! must leave the sidecar byte-identical to a never-failed history;
//! steady append-path growth must eventually trip the plan-cache drift
//! baseline; a child's Auto decision must price its incremental parent's
//! *post-update* size; and the simulator consults the same observed
//! summaries through `ScenarioSpec::mirror`.

use sc::ScSession;
use sc_core::{CostModel, FlagSet, ModeReason, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::{CostProvenance, MvDefinition};
use sc_engine::exec::{AggFunc, TableDelta};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::{ObservationStore, SIDECAR_FILE};
use sc_engine::{DataType, Table, TableBuilder, Value};
use sc_sim::{SimConfig, SimNode, SimWorkload, Simulator};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;
use sc_workload::{ChurnRound, ScenarioSpec};

/// Rows `[start, start + n)` of the `events` base table: a near-unique
/// string key plus one numeric column the MV's projection fans out.
fn events_rows(n: usize, start: usize) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Utf8)
        .column("v", DataType::Float64)
        .build();
    for i in start..start + n {
        t.push_row(vec![
            Value::Utf8(format!("key_{i:06}")),
            Value::Float64(i as f64 * 0.5 + 1.0),
        ])
        .unwrap();
    }
    t
}

/// The misranked MV: expression-heavy projection, near-unique group key
/// (output rows ≈ input rows, output bytes ≥ input bytes), mergeable
/// aggregate that publishes no delta — so the static incremental path
/// pays the full output read *and* write on top of the delta terms and
/// can never beat a recompute on I/O bytes alone.
fn wide_agg_plan() -> LogicalPlan {
    let v = || Expr::col("v");
    LogicalPlan::scan("events")
        .project(vec![
            (Expr::col("k"), "k".into()),
            (
                v().mul(Expr::lit(3.0f64)).add(Expr::lit(1.0f64)),
                "a".into(),
            ),
            (v().mul(v()).sub(v()), "b".into()),
            (v().mul(v()).mul(v()).add(v()), "c".into()),
        ])
        .aggregate(
            vec!["k".into()],
            vec![
                AggExpr::new(AggFunc::Sum, "a", "sa"),
                AggExpr::new(AggFunc::Sum, "b", "sb"),
                AggExpr::new(AggFunc::Sum, "c", "sc"),
            ],
        )
}

/// A fast-storage cost model: with 10 GB/s disks the byte terms shrink to
/// microseconds, so the static decision margin is small and the measured
/// compute rate (hundreds of microseconds and up) dominates once
/// observed — while the static ranking itself is unchanged: the
/// incremental path still reads and writes strictly more bytes.
fn fast_storage() -> CostModel {
    CostModel {
        disk_read_bps: 10e9,
        disk_write_bps: 10e9,
        mem_bps: 20e9,
        disk_latency_s: 10e-6,
    }
}

fn wide_agg_session(dir: &std::path::Path, feedback: bool) -> ScSession {
    let sys = ScSession::builder()
        .storage_dir(dir)
        .memory_budget(64 << 20)
        .cost_model(fast_storage())
        .runtime_feedback(feedback)
        .build()
        .unwrap();
    if !sys.disk().contains("events") {
        sys.disk()
            .write_table("events", &events_rows(24_000, 0))
            .unwrap();
    }
    sys.register_mv(MvDefinition::new("wide_agg", wide_agg_plan()))
        .unwrap();
    sys
}

/// The `obs` provenance cell of `mv`'s row in `explain()` output.
fn explain_cell(report: &sc::RefreshReport, mv: &str) -> String {
    let text = report.explain();
    let line = text
        .lines()
        .find(|l| l.starts_with(mv))
        .unwrap_or_else(|| panic!("no explain row for {mv}: {text}"));
    line.to_string()
}

/// Acceptance: the static model ranks the wide aggregate Full forever;
/// one warm-up run's observed compute rate flips the next refresh to
/// Incremental, visibly decided from the sidecar (`obs` provenance), and
/// the decision survives a session restart via the persisted sidecar.
#[test]
fn observed_compute_rate_flips_the_misranked_aggregate() {
    let dir = tempfile::tempdir().unwrap();
    let sys = wide_agg_session(dir.path(), true);

    // Warm-up: first materialization is necessarily full; its measured
    // compute rate lands in the in-memory store and, after the run, in
    // the persisted sidecar next to the catalog.
    let warmup = sys.refresh().unwrap();
    assert!(warmup.profiled);
    assert_eq!(warmup.mode("wide_agg"), Some(NodeMode::Full));
    assert!(dir.path().join(SIDECAR_FILE).exists());

    // Churn reaching the node, small against the table.
    sys.ingest_delta("events", TableDelta::insert_only(events_rows(64, 24_000)))
        .unwrap();
    let input = sys.disk().size_of("events").unwrap();
    let output = sys.disk().size_of("wide_agg").unwrap();
    let delta = sys.delta_store().pending_bytes("events");

    // The misranking, pinned at the model: statically Full wins (output
    // >= input and no published delta), but the recorded observation
    // carries enough compute to flip the same comparison.
    let cm = fast_storage();
    assert!(
        !cm.incremental_refresh_wins(input, output, delta, 0, None, None),
        "scenario must be statically misranked (I/O terms pick Full)"
    );
    let sidecar = ObservationStore::load(dir.path().join(SIDECAR_FILE));
    let summary = sidecar
        .summary("wide_agg", wide_agg_plan().fingerprint())
        .expect("warm-up must persist an observation for the node identity");
    assert!(summary.has_compute());
    assert!(
        cm.incremental_refresh_wins(input, output, delta, 0, None, Some(&summary)),
        "observed compute rate must flip the comparison: {summary:?}"
    );

    // And the refresh actually decides from it.
    let adapted = sys.refresh().unwrap();
    assert!(!adapted.profiled);
    let node = adapted.node("wide_agg").unwrap();
    assert_eq!(
        node.mode,
        NodeMode::Incremental,
        "Auto must follow the observation"
    );
    assert_eq!(node.reason, ModeReason::DeltaApplied);
    assert_eq!(node.cost, CostProvenance::Observed);
    assert!(
        explain_cell(&adapted, "wide_agg").contains(" obs "),
        "explain must attribute the decision to observations"
    );

    // Twin rig without feedback: same data, same churn, static decision —
    // the node stays Full because the cost model cannot see compute.
    let dir_b = tempfile::tempdir().unwrap();
    let control = wide_agg_session(dir_b.path(), false);
    control.refresh().unwrap();
    control
        .ingest_delta("events", TableDelta::insert_only(events_rows(64, 24_000)))
        .unwrap();
    let static_run = control.refresh().unwrap();
    let node = static_run.node("wide_agg").unwrap();
    assert_eq!(
        node.mode,
        NodeMode::Full,
        "static model must misrank the node"
    );
    assert_eq!(node.reason, ModeReason::CostModel);
    assert_eq!(node.cost, CostProvenance::Estimated);
    assert!(explain_cell(&static_run, "wide_agg").contains(" est "));

    // Both maintenance paths agree on the contents.
    assert_eq!(
        sys.disk().row_count("wide_agg").unwrap(),
        control.disk().row_count("wide_agg").unwrap(),
    );

    // Restart: a fresh session over the same directory loads the sidecar
    // and decides its *first* refresh from it — no re-warm-up. The adapted
    // run measured both paths, so which one wins is a comparison of two
    // measured times; the check is that the reopened session makes exactly
    // the decision the cost model makes from the reloaded summary, not
    // which way the timings fell.
    drop(sys);
    let reopened = wide_agg_session(dir.path(), true);
    reopened
        .ingest_delta("events", TableDelta::insert_only(events_rows(64, 24_064)))
        .unwrap();
    let reloaded = ObservationStore::load(dir.path().join(SIDECAR_FILE))
        .summary("wide_agg", wide_agg_plan().fingerprint())
        .expect("the sidecar must hold the node's observation after a restart");
    assert!(reloaded.has_compute());
    let expected = if cm.incremental_refresh_wins(
        reopened.disk().size_of("events").unwrap(),
        reopened.disk().size_of("wide_agg").unwrap(),
        reopened.delta_store().pending_bytes("events"),
        0,
        None,
        Some(&reloaded),
    ) {
        NodeMode::Incremental
    } else {
        NodeMode::Full
    };
    let first = reopened.refresh().unwrap();
    let node = first.node("wide_agg").unwrap();
    assert_eq!(
        (node.mode, node.cost),
        (expected, CostProvenance::Observed),
        "the reopened session must decide from the persisted observation"
    );
}

/// Aggregates over the join hub under Auto with warm observations: only
/// full recomputations have been measured, and their rate is per *output*
/// byte — tiny aggregates over a wide hub. Priced by the share of the
/// full path's work the delta represents, an insert-only round maintains
/// all three aggregates from their deltas, and the hub's filtered slice
/// appends its delta. The stored bytes then match a twin that recomputes
/// everything.
#[test]
fn warm_auto_maintains_the_hub_aggregates_incrementally() {
    let session = |dir: &std::path::Path, mode: RefreshMode| {
        let sys = ScSession::builder()
            .storage_dir(dir)
            .memory_budget(400 << 10) // the hub does not fit
            .refresh_mode(mode)
            .runtime_feedback(mode == RefreshMode::Auto)
            .build()
            .unwrap();
        TinyTpcds::generate(1.0, 42).load_into(sys.disk()).unwrap();
        for mv in sales_pipeline() {
            sys.register_mv(mv).unwrap();
        }
        sys
    };
    let (dir, twin_dir) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
    let auto = session(dir.path(), RefreshMode::Auto);
    let full = session(twin_dir.path(), RefreshMode::AlwaysFull);
    // The profiling run records one full-path observation per node.
    assert!(auto.refresh().unwrap().profiled);
    full.refresh().unwrap();
    let hub = auto.disk().size_of("enriched_sales").unwrap();
    assert!(hub > auto.memory_budget());

    let round = ChurnRound::inserts(["store_sales"], 0.01, 7);
    round.ingest_into(&auto).unwrap();
    round.ingest_into(&full).unwrap();
    let report = auto.refresh().unwrap();
    full.refresh().unwrap();
    for agg in ["rev_by_year", "rev_by_category", "premium_by_state"] {
        let n = report.node(agg).unwrap();
        assert_eq!(
            (n.mode, n.reason, n.cost),
            (
                NodeMode::Incremental,
                ModeReason::DeltaApplied,
                CostProvenance::Observed
            ),
            "{agg}:\n{}",
            report.explain()
        );
        let predicted = n.predicted.expect("an Auto decision compares costs");
        assert!(predicted.incremental_s < predicted.full_s, "{agg}");
    }
    assert!(report.node("premium_sales").unwrap().appended_bytes > 0);

    auto.compact_mvs().unwrap();
    for mv in auto.mvs() {
        assert_eq!(
            auto.disk().stored_file_bytes(&mv.name).unwrap(),
            full.disk().stored_file_bytes(&mv.name).unwrap(),
            "{}",
            mv.name
        );
    }
}

/// Satellite 1: a doomed run must teach the adaptive layer nothing. The
/// sidecar only learns at the run's commit point, and the poisoned-log
/// retry recomputes in a non-representative mode — so after a failure +
/// retry the store is byte-identical to the never-failed history, and
/// learning resumes on the next healthy run.
#[test]
fn doomed_run_and_poisoned_retry_teach_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(1 << 20)
        .build()
        .unwrap();
    let aux = events_rows(10, 0);
    sys.disk()
        .write_table("events", &events_rows(2_000, 0))
        .unwrap();
    sys.disk().write_table("aux", &aux).unwrap();
    for mv in [
        MvDefinition::new(
            "lows",
            LogicalPlan::scan("events").filter(Expr::col("v").le(Expr::lit(500.0f64))),
        ),
        MvDefinition::new(
            "highs",
            LogicalPlan::scan("events").filter(Expr::col("v").gt(Expr::lit(500.0f64))),
        ),
        // Runs last, reached by the churn, and also reads `aux` — which
        // the doomed run loses.
        MvDefinition::new(
            "with_aux",
            LogicalPlan::scan("events").union(LogicalPlan::scan("aux")),
        ),
    ] {
        sys.register_mv(mv).unwrap();
    }
    let plain = Plan {
        order: vec![NodeId(0), NodeId(1), NodeId(2)],
        flagged: FlagSet::none(3),
    };
    let sidecar = || std::fs::read(dir.path().join(SIDECAR_FILE)).unwrap();

    sys.refresh_with_plan(&plain).unwrap();
    assert!(
        !ObservationStore::load(dir.path().join(SIDECAR_FILE)).is_empty(),
        "a healthy run must record"
    );
    let control = sidecar();

    // Pending churn, then a run that dies *after* real nodes executed
    // with real measured work: the third MV's input is gone, so it errors
    // once the first two have already maintained.
    sys.ingest_delta("events", TableDelta::insert_only(events_rows(50, 2_000)))
        .unwrap();
    sys.disk().drop_table("aux").unwrap();
    assert!(sys.refresh_with_plan(&plain).is_err());
    assert_eq!(sidecar(), control, "a doomed run must record nothing");
    assert!(
        sys.delta_store().is_poisoned(),
        "failure with pending churn poisons the log"
    );

    // The retry recomputes under ModeReason::PoisonedLog — correct, but
    // not representative of a freely-chosen full run: still nothing.
    sys.disk().write_table("aux", &aux).unwrap();
    let retry = sys.refresh_with_plan(&plain).unwrap();
    assert!(
        retry
            .nodes
            .iter()
            .any(|n| n.reason == ModeReason::PoisonedLog),
        "retry must run in poisoned-log mode: {retry:?}"
    );
    assert_eq!(
        sidecar(),
        control,
        "failed run + retry must leave the sidecar byte-identical to a never-failed history"
    );

    // The log drained clean, so the next healthy run learns again.
    sys.ingest_delta("events", TableDelta::insert_only(events_rows(50, 2_050)))
        .unwrap();
    sys.refresh_with_plan(&plain).unwrap();
    assert_ne!(sidecar(), control, "learning must resume after recovery");
}

/// Satellite 2 regression: the drift baseline is *stored* sizes, so an
/// MV grown past the threshold purely by append-path segments (which the
/// old in-memory baseline never saw) invalidates the cached plan.
#[test]
fn steady_appends_eventually_trigger_reprofile() {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(8 << 20)
        .runtime_feedback(false)
        .build()
        .unwrap();
    TinyTpcds::generate(0.3, 42).load_into(sys.disk()).unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
    assert!(sys.refresh().unwrap().profiled);
    assert!(!sys.refresh().unwrap().profiled);
    assert!(sys.has_cached_plan());

    // Insert-only trickle: every round grows the fact table ~8%, rides
    // the append path, and never rewrites the hub MVs. Twelve rounds
    // compound to ~2.6x, well past the 50% drift band.
    let mut appended = false;
    let mut tripped = false;
    for _ in 0..12 {
        let sales = sys.disk().read_table("store_sales").unwrap();
        let n = (sales.num_rows() / 12).max(1);
        let batch = sales.take_rows(&(0..n).collect::<Vec<_>>()).unwrap();
        sys.ingest_delta("store_sales", TableDelta::insert_only(batch))
            .unwrap();
        let report = sys.refresh().unwrap();
        assert!(!report.profiled, "append rounds ride the cached plan");
        appended |= report.nodes().iter().any(|m| m.appended_bytes > 0);
        if !sys.has_cached_plan() {
            tripped = true;
            break;
        }
    }
    assert!(appended, "rounds must actually use the append path");
    assert!(
        tripped,
        "cumulative append growth must exceed the drift band and invalidate the plan"
    );
    assert!(
        sys.refresh().unwrap().profiled,
        "the refresh after invalidation re-profiles"
    );
}

/// Satellite 3: a child of an incremental *publishing* parent must price
/// its full path against the parent's post-update size. The scenario sits
/// in the window `2δ < P + C ≤ 3δ` (zero-latency, equal-bandwidth
/// model), where pricing the stale pre-run parent size picks Full and
/// pricing the grown size picks Incremental — the guard asserts pin the
/// window on the actual stored sizes, so a drifting encoding fails
/// loudly instead of silently leaving the boundary.
#[test]
fn child_decision_prices_post_update_parent_size() {
    let cm = CostModel {
        disk_read_bps: 100e6,
        disk_write_bps: 100e6,
        mem_bps: 100e6,
        disk_latency_s: 0.0,
    };
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(1 << 20)
        .cost_model(cm.clone())
        .runtime_feedback(false)
        .build()
        .unwrap();
    let disk = sys.disk();
    let mut base = TableBuilder::new().column("v", DataType::Int64).build();
    for i in 0..1_000 {
        base.push_row(vec![Value::Int64(i)]).unwrap();
    }
    disk.write_table("src", &base).unwrap();
    let pass_all = || Expr::col("v").ge(Expr::lit(0i64));
    sys.register_mv(MvDefinition::new(
        "p1",
        LogicalPlan::scan("src").filter(pass_all()),
    ))
    .unwrap();
    sys.register_mv(MvDefinition::new(
        "c1",
        LogicalPlan::scan("p1").filter(pass_all()),
    ))
    .unwrap();
    let plan = Plan {
        order: vec![NodeId(0), NodeId(1)],
        flagged: FlagSet::none(2),
    };
    sys.refresh_with_plan(&plan).unwrap(); // materialize both levels

    let mut grow = TableBuilder::new().column("v", DataType::Int64).build();
    for i in 1_000..1_800 {
        grow.push_row(vec![Value::Int64(i)]).unwrap();
    }
    sys.ingest_delta("src", TableDelta::insert_only(grow))
        .unwrap();
    let delta = sys.delta_store().pending_bytes("src");
    let parent = disk.size_of("p1").unwrap();
    let child = disk.size_of("c1").unwrap();

    // Guard: the setup sits exactly in the flip window. Incremental costs
    // 3δ here (delta read + catalog read + appended write); the full path
    // costs input + C.
    assert!(
        !cm.incremental_refresh_wins(parent, child, delta, 0, Some(delta), None),
        "stale pre-run parent size must rank the child Full (P={parent} C={child} d={delta})"
    );
    assert!(
        cm.incremental_refresh_wins(parent + delta, child, delta, 0, Some(delta), None),
        "post-update parent size must rank the child Incremental (P={parent} C={child} d={delta})"
    );
    // And the parent itself maintains incrementally, so the child really
    // faces a grown parent at execution time.
    let src = disk.size_of("src").unwrap();
    assert!(cm.incremental_refresh_wins(src, parent, delta, 0, Some(delta), None));

    let metrics = sys.refresh_with_plan(&plan).unwrap();
    let mode = |name: &str| {
        metrics
            .nodes
            .iter()
            .find(|n| n.name == name)
            .map(|n| (n.mode, n.reason))
            .unwrap()
    };
    assert_eq!(
        mode("p1"),
        (NodeMode::Incremental, ModeReason::DeltaApplied)
    );
    assert_eq!(
        mode("c1"),
        (NodeMode::Incremental, ModeReason::DeltaApplied),
        "child must price the parent's post-update size, not the stale pre-run one"
    );
}

/// The simulator's Auto branch consults the same observed summaries the
/// engine does: a statically-Full merge aggregate flips to Incremental
/// when its node carries a compute observation.
#[test]
fn sim_auto_consults_observed_compute_like_the_engine() {
    let mb = 1u64 << 20;
    let node = SimNode::new("agg", 0.5, mb, mb)
        .with_delta(10 << 10)
        .merge_only();
    let cfg = SimConfig::paper(0);
    let plan = Plan {
        order: vec![NodeId(0)],
        flagged: FlagSet::none(1),
    };

    let static_w = SimWorkload::from_parts([node.clone()], []).unwrap();
    let static_run = Simulator::new(cfg.clone()).run(&static_w, &plan).unwrap();
    assert_eq!(static_run.nodes[0].mode, NodeMode::Full);

    // An observed full-path compute rate of 1 µs/byte dwarfs the byte
    // terms; the incremental side only pays it over the 10 KiB delta.
    let observed = sc_core::ObservedNodeCost {
        full_compute_s_per_byte: Some(1e-6),
        inc_compute_s_per_byte: None,
        write_s_per_byte: None,
        output_delta_ratio: None,
        samples: 3,
    };
    let warmed_w = SimWorkload::from_parts([node.with_observed_cost(observed)], []).unwrap();
    let warmed = Simulator::new(cfg.clone()).run(&warmed_w, &plan).unwrap();
    assert_eq!(
        warmed.nodes[0].mode,
        NodeMode::Incremental,
        "sim Auto must price the observed compute rate"
    );
    // Same comparison the engine makes, bit for bit.
    let cm = cfg.cost_model();
    assert!(!cm.incremental_refresh_wins(mb, mb, 10 << 10, 0, None, None));
    assert!(cm.incremental_refresh_wins(mb, mb, 10 << 10, 0, None, Some(&observed)));
}

/// The spec bridge: `mirror` with a sidecar annotates every mirrored node with
/// the sidecar summary for its engine identity (name + plan fingerprint),
/// so a warmed engine session and the simulator decide from one store.
#[test]
fn mirror_annotates_sim_nodes_from_the_sidecar() {
    let spec = ScenarioSpec::sales_pipeline(0.4, 42, 64 << 20)
        .with_refresh_mode(RefreshMode::AlwaysIncremental)
        .with_churn(sc_workload::ChurnRound::inserts(["store_sales"], 0.02, 7));
    let dir = tempfile::tempdir().unwrap();
    let session = spec.open(dir.path()).unwrap();
    let baseline = session.baseline_refresh().unwrap();
    // Pending churn: the decision facts (observations among them) only
    // matter — and are only mirrored — while the engine tracks deltas.
    spec.ingest_round(0, &session).unwrap();

    // The profiling run persisted one full observation per node.
    let sidecar = ObservationStore::load(session.disk().dir().join(SIDECAR_FILE));
    assert_eq!(sidecar.node_count(), spec.mvs.len());

    let observed = |w: &SimWorkload| -> Vec<Option<sc_core::ObservedNodeCost>> {
        w.graph
            .payloads()
            .iter()
            .map(|n| n.churn.as_ref().expect("churn pends").facts.observed)
            .collect()
    };
    let plain = spec.mirror(&session, &baseline, None).unwrap();
    assert!(observed(&plain).iter().all(Option::is_none));

    let warmed = spec.mirror(&session, &baseline, Some(&sidecar)).unwrap();
    for (n, obs) in warmed.graph.payloads().iter().zip(observed(&warmed)) {
        let obs = obs.unwrap_or_else(|| panic!("{} must carry its sidecar summary", n.name));
        assert!(obs.has_compute(), "{}: {obs:?}", n.name);
    }
}

/// A sidecar that cannot be saved does not fail the refresh — the
/// observations are advisory — but the run reports it: in the metrics and
/// as an `explain()` warning.
#[test]
fn failed_sidecar_save_is_reported_not_fatal() {
    let dir = tempfile::tempdir().unwrap();
    // A directory where the sidecar file belongs: its commit rename fails.
    std::fs::create_dir(dir.path().join(SIDECAR_FILE)).unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(8 << 20)
        .build()
        .unwrap();
    TinyTpcds::generate(0.2, 42).load_into(sys.disk()).unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
    let report = sys.refresh().unwrap();
    let error = report.metrics.observation_save_error.as_deref();
    assert!(
        error.is_some_and(|e| e.contains(SIDECAR_FILE)),
        "the failed save must be recorded: {error:?}"
    );
    assert!(
        report
            .explain()
            .contains("WARNING: runtime observations were not saved"),
        "{}",
        report.explain()
    );
    for mv in sys.mvs() {
        assert!(sys.disk().contains(&mv.name), "{} persisted", mv.name);
    }

    // Once the path is usable again, the next run saves and is quiet.
    std::fs::remove_dir(dir.path().join(SIDECAR_FILE)).unwrap();
    let report = sys.refresh().unwrap();
    assert_eq!(report.metrics.observation_save_error, None);
    assert!(!report.explain().contains("WARNING"));
    assert!(dir.path().join(SIDECAR_FILE).is_file());
}
