//! Cross-check: on a shared [`ScenarioSpec`], the simulator's predicted
//! per-node refresh decisions — mode (skip / incremental / full) *and*
//! [`ModeReason`] — must match the engine's **exactly**, under every
//! policy including `Auto`: the delta-join rule (a churned build side
//! forces a recompute), its transitive effects, and the cost model's
//! calls.
//!
//! Both rigs are constructed from *one spec value*: the engine via
//! [`ScenarioSpec::open`] (tables loaded, MVs registered, config
//! applied), the simulator via [`ScenarioSpec::sim_config`] and
//! [`ScenarioSpec::mirror`]. The mirror hands the simulator the engine's
//! own decision facts — the same catalog sizes, pending log and (runtime
//! feedback being on) persisted observation sidecar the engine's `Auto`
//! consults — and both sides decide through one kernel,
//! `sc_core::modes::plan`. Nothing is re-declared by hand, so this test
//! pins the whole bridge.
//!
//! The file also holds the concurrency acceptance test: `ingest_delta`
//! racing `session.refresh()` on an `Arc<ScSession>` must leave the
//! system byte-identical to a rig that ingested the same batches
//! sequentially.

use std::collections::HashMap;
use std::sync::Arc;

use sc::ScSession;
use sc_core::{ModeReason, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::RunMetrics;
use sc_engine::exec::TableDelta;
use sc_engine::storage::{ObservationStore, SIDECAR_FILE};
use sc_sim::Simulator;
use sc_workload::updates::{generate_delta, UpdateStreamSpec};
use sc_workload::{ChurnRound, ScenarioSpec};

/// The shared scenario skeleton: the nine-MV sales pipeline over seeded
/// TinyTpcds tables. Churn rounds and the refresh mode vary per scenario.
fn base_spec(mode: RefreshMode) -> ScenarioSpec {
    ScenarioSpec::sales_pipeline(0.4, 42, 64 << 20).with_refresh_mode(mode)
}

/// A node's decision: its mode and the reason for it.
type Decision = (NodeMode, ModeReason);

/// Mirrors `session`'s pending state into the simulator and runs it under
/// `plan`. The mirror reads the observation sidecar the session persisted,
/// which is what the engine's `Auto` decisions consult.
fn simulate(
    spec: &ScenarioSpec,
    session: &ScSession,
    baseline: &RunMetrics,
    plan: &Plan,
) -> HashMap<String, Decision> {
    let sidecar = ObservationStore::load(session.disk().dir().join(SIDECAR_FILE));
    let mirrored = spec.mirror(session, baseline, Some(&sidecar)).unwrap();
    let report = Simulator::new(spec.sim_config())
        .run(&mirrored, plan)
        .unwrap();
    report
        .nodes
        .into_iter()
        .map(|n| (n.name, (n.mode, n.reason)))
        .collect()
}

/// Asserts the engine's run matches the simulator's prediction node by
/// node, and returns the engine's decisions by name.
fn assert_same_decisions(
    scenario: &str,
    sim: &HashMap<String, Decision>,
    engine: &RunMetrics,
) -> HashMap<String, Decision> {
    for n in &engine.nodes {
        assert_eq!(
            sim[&n.name],
            (n.mode, n.reason),
            "{scenario}: sim and engine disagree on {}",
            n.name
        );
    }
    engine
        .nodes
        .iter()
        .map(|n| (n.name.clone(), (n.mode, n.reason)))
        .collect()
}

/// Builds the engine session and the simulator **from `spec` alone**,
/// applies the spec's whole churn schedule, runs both sides, asserts the
/// per-node decisions agree name by name, and returns the engine's so
/// scenarios can assert they were not vacuous.
fn assert_parity(spec: &ScenarioSpec, scenario: &str) -> HashMap<String, Decision> {
    let dir = tempfile::tempdir().unwrap();
    let session = spec.open(dir.path()).unwrap();
    // Profiling refresh: every node executes, so mirrored compute times
    // and output sizes are real (and, with runtime feedback on, the
    // sidecar holds one observation per node).
    let baseline = session.baseline_refresh().unwrap();
    for round in 0..spec.churn.len() {
        spec.ingest_round(round, &session).unwrap();
    }

    let plan = Plan::unoptimized((0..spec.mvs.len()).map(NodeId).collect());
    let sim = simulate(spec, &session, &baseline, &plan);
    let engine = session.refresh_with_plan(&plan).unwrap();
    assert_same_decisions(scenario, &sim, &engine)
}

/// Satellite of the segmented-storage PR: the sim/engine mode parity must
/// hold whether the engine's MVs are *fragmented* (append-path segments
/// accumulated across rounds) or *compacted* back to canonical form —
/// driven by the spec's [`sc_workload::ScenarioSpec::with_compact_every`]
/// toggle, so both storage states ride the same scenario value.
#[test]
fn parity_holds_on_fragmented_and_compacted_state() {
    for compact_every in [None, Some(1usize)] {
        let mut spec = base_spec(RefreshMode::AlwaysIncremental)
            .with_churn(ChurnRound::inserts(["store_sales"], 0.03, 11))
            .with_churn(ChurnRound::inserts(["store_sales"], 0.02, 12));
        if let Some(n) = compact_every {
            spec = spec.with_compact_every(n);
        }
        let dir = tempfile::tempdir().unwrap();
        let session = spec.open(dir.path()).unwrap();
        let baseline = session.baseline_refresh().unwrap();
        let plan = Plan::unoptimized((0..spec.mvs.len()).map(NodeId).collect());

        // Round 0 is ingested and refreshed up front, leaving the hub
        // either fragmented (append landed) or compacted per the toggle.
        spec.ingest_round(0, &session).unwrap();
        session.refresh_with_plan(&plan).unwrap();
        if spec.compact_due(0) {
            session.compact_mvs().unwrap();
            assert_eq!(session.disk().segment_count("enriched_sales").unwrap(), 1);
        } else {
            assert!(
                session.disk().segment_count("enriched_sales").unwrap() > 1,
                "insert-only refresh must fragment the hub"
            );
        }

        // Round 1 pends; sim and engine must agree on every node's mode
        // regardless of the storage state round 0 left behind.
        spec.ingest_round(1, &session).unwrap();
        let sim = simulate(&spec, &session, &baseline, &plan);
        let engine = session.refresh_with_plan(&plan).unwrap();
        let m = assert_same_decisions(&format!("compact_every={compact_every:?}"), &sim, &engine);
        assert_eq!(m["enriched_sales"].0, NodeMode::Incremental);
        assert_eq!(m["web_by_item"].0, NodeMode::Skipped);
    }
}

#[test]
fn sim_predicts_engine_node_modes_exactly() {
    use ModeReason::*;
    use NodeMode::*;
    // Scenario 1: fact churn — the delta-join sweet spot. The hub and all
    // its consumers maintain incrementally, untouched channels skip.
    let spec = base_spec(RefreshMode::AlwaysIncremental).with_churn(ChurnRound::inserts(
        ["store_sales"],
        0.04,
        3,
    ));
    let m = assert_parity(&spec, "fact churn");
    assert_eq!(m["enriched_sales"], (Incremental, DeltaApplied));
    assert_eq!(m["premium_by_state"], (Incremental, DeltaApplied));
    assert_eq!(m["web_by_item"], (Skipped, NoChurn));

    // Scenario 2: dimension churn — the build side of the hub changed, so
    // the hub and everything downstream of it recomputes.
    let spec = base_spec(RefreshMode::AlwaysIncremental).with_churn(ChurnRound::inserts(
        ["item"],
        0.05,
        4,
    ));
    let m = assert_parity(&spec, "dimension churn");
    assert_eq!(m["enriched_sales"], (Full, StaticChurn));
    assert_eq!(m["rev_by_year"], (Full, ParentRecomputed));
    assert_eq!(m["web_by_item"], (Skipped, NoChurn));

    // Scenario 3: both at once over two rounds, under AlwaysFull — the
    // trivial baseline.
    let spec = base_spec(RefreshMode::AlwaysFull)
        .with_churn(ChurnRound::inserts(["store_sales", "item"], 0.03, 5))
        .with_churn(ChurnRound::inserts(["store_sales"], 0.02, 6));
    let m = assert_parity(&spec, "always full");
    assert!(m.values().all(|&d| d == (Full, FullPolicy)));

    // Scenario 4: an empty churn schedule — with nothing logged, the
    // session refreshes without delta tracking (everything recomputes, so
    // profiling runs stay meaningful) and the mirror predicts the same.
    let spec = base_spec(RefreshMode::AlwaysIncremental);
    let m = assert_parity(&spec, "quiet log");
    assert!(m.values().all(|&d| d == (Full, FullPolicy)));
}

/// `Auto` — the session default — decided by the cost model over the
/// engine's stored sizes and, with runtime feedback on, the observations
/// its profiling run recorded.
#[test]
fn sim_predicts_engine_auto_decisions_exactly() {
    use ModeReason::*;
    use NodeMode::*;
    let fact_churn =
        || base_spec(RefreshMode::Auto).with_churn(ChurnRound::inserts(["store_sales"], 0.04, 3));
    // Observed compute rates are measured, so which merges win may vary
    // from run to run — parity may not: both sides read one sidecar.
    let m = assert_parity(&fact_churn(), "auto, observed");
    assert_eq!(m["enriched_sales"], (Incremental, DeltaApplied));
    assert_eq!(m["web_by_item"], (Skipped, NoChurn));

    // Static estimates only: the hub's append path wins, while re-reading
    // and rewriting a small aggregate loses to recomputing it.
    let m = assert_parity(
        &fact_churn().with_runtime_feedback(false),
        "auto, estimated",
    );
    assert_eq!(m["enriched_sales"], (Incremental, DeltaApplied));
    assert_eq!(m["premium_by_state"], (Full, CostModel));
    assert_eq!(m["web_by_item"], (Skipped, NoChurn));
}

/// The catalog half of the parity. Engine and simulator apply the same
/// plan-order accounting ([`sc_core::AdmissionReplay`]: admit a flagged
/// node when the computed prefix reaches it, then release the parents it
/// was the last consumer of), so with every node flagged under a budget
/// that holds the hub but not everything, the engine's *measured* peak
/// catalog usage and per-node admit/fallback outcomes equal the
/// simulator's prediction — at one lane and at four.
#[test]
fn sim_predicts_engine_catalog_usage_at_every_lane_count() {
    // Size the budget from a probe: room for the hub plus a little.
    let probe_spec = base_spec(RefreshMode::AlwaysFull);
    let probe_dir = tempfile::tempdir().unwrap();
    let probe = probe_spec.open(probe_dir.path()).unwrap();
    let hub_bytes = probe.baseline_refresh().unwrap().nodes[0].output_bytes;
    let n = probe_spec.mvs.len();
    let plan = Plan {
        order: (0..n).map(NodeId).collect(),
        flagged: sc_core::FlagSet::from_nodes(n, (0..n).map(NodeId)),
    };

    let mut outcomes = Vec::new();
    for lanes in [1usize, 4] {
        let spec = ScenarioSpec::sales_pipeline(0.4, 42, hub_bytes + hub_bytes / 8)
            .with_refresh_mode(RefreshMode::AlwaysFull)
            .with_lanes(lanes);
        let dir = tempfile::tempdir().unwrap();
        let session = spec.open(dir.path()).unwrap();
        let baseline = session.baseline_refresh().unwrap();
        let mirrored = spec.mirror(&session, &baseline, None).unwrap();
        let sim = Simulator::new(spec.sim_config())
            .run(&mirrored, &plan)
            .unwrap();
        let engine = session.refresh_with_plan(&plan).unwrap();

        assert_eq!(
            engine.peak_memory_bytes, sim.peak_memory_bytes,
            "lanes={lanes}: measured peak vs predicted peak"
        );
        for (e, s) in engine.nodes.iter().zip(&sim.nodes) {
            assert_eq!(e.name, s.name);
            assert_eq!(e.flagged, s.flagged, "lanes={lanes}: {} flagged", e.name);
            assert_eq!(
                e.fell_back, s.fell_back,
                "lanes={lanes}: {} fell back",
                e.name
            );
        }
        outcomes.push((
            engine.peak_memory_bytes,
            engine.nodes.iter().map(|n| n.fell_back).collect::<Vec<_>>(),
        ));
    }
    // Not vacuous: the hub was admitted, something fell back, and none
    // of it depended on the lane count.
    assert!(outcomes[0].0 >= hub_bytes);
    assert!(outcomes[0].1.iter().any(|&f| f));
    assert_eq!(outcomes[0], outcomes[1]);
}

/// Stored files (name, bytes) backing one table.
type StoredFiles = Vec<(String, Vec<u8>)>;

/// The stored file bytes (manifest + segments) of every table in the
/// catalog, by name (base tables and MVs alike).
fn catalog_bytes(session: &ScSession) -> Vec<(String, StoredFiles)> {
    session
        .disk()
        .list()
        .unwrap()
        .into_iter()
        .map(|name| {
            let files = session.disk().stored_file_bytes(&name).unwrap();
            (name, files)
        })
        .collect()
}

/// Acceptance: `ingest_delta` racing `session.refresh()` on an
/// `Arc<ScSession>` — no data races (the session is `Sync`; this test
/// runs under the race detector the standard library's `thread` sanity
/// affords), no lost or double-applied batches, and final state
/// byte-identical to a sequential rig.
///
/// Both rigs are built from the same [`ScenarioSpec`] and ingest the
/// *same* pre-generated insert-only batches (derived from the identical
/// initial `store_sales` contents), so after every log is drained their
/// catalogs must agree byte for byte: refreshes work from point-in-time
/// log snapshots, so a batch landing mid-run is either invisible to that
/// run (pending for the next) or detected as contamination and replayed
/// via a full recompute — never half-applied.
#[test]
fn concurrent_ingest_during_refresh_matches_sequential() {
    let spec = ScenarioSpec::sales_pipeline(0.3, 42, 64 << 20);

    let dir_c = tempfile::tempdir().unwrap();
    let concurrent = Arc::new(spec.open(dir_c.path()).unwrap());
    let dir_s = tempfile::tempdir().unwrap();
    let sequential = spec.open(dir_s.path()).unwrap();

    // First refresh materializes every MV (and caches a plan) on both.
    concurrent.refresh().unwrap();
    sequential.refresh().unwrap();

    // Pre-generate all batches from the identical initial fact table, so
    // both rigs ingest the same bytes in the same order (insert-only
    // batches commute with each other's application to the base).
    let initial = concurrent.disk().read_table("store_sales").unwrap();
    let batches: Vec<TableDelta> = (0..6)
        .map(|seed| generate_delta(&initial, &UpdateStreamSpec::inserts(0.02), seed))
        .collect();

    // Concurrent rig: one thread streams the batches in while the main
    // thread keeps refreshing.
    let ingester = {
        let session = Arc::clone(&concurrent);
        let batches = batches.clone();
        std::thread::spawn(move || {
            for b in batches {
                session.ingest_delta("store_sales", b).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };
    while !ingester.is_finished() {
        concurrent.refresh().unwrap();
    }
    ingester.join().unwrap();
    // Drain whatever is still pending (a contaminated run poisons the log
    // and the next refresh recomputes; bounded, not open-ended).
    for _ in 0..4 {
        if concurrent.delta_store().is_empty() && !concurrent.delta_store().is_poisoned() {
            break;
        }
        concurrent.refresh().unwrap();
    }
    assert!(concurrent.delta_store().is_empty(), "log must drain");
    assert!(!concurrent.delta_store().is_poisoned());

    // Sequential reference: same batches, no concurrency.
    for b in batches {
        sequential.ingest_delta("store_sales", b).unwrap();
    }
    sequential.refresh().unwrap();
    assert!(sequential.delta_store().is_empty());

    // Byte-level equality of the full catalogs: all 7 base tables and
    // all 9 MVs. The two rigs interleaved refreshes differently, so their
    // append-path segment layouts may differ — the equality contract
    // compares the canonical form, so compact both first.
    concurrent.compact_mvs().unwrap();
    sequential.compact_mvs().unwrap();
    let a = catalog_bytes(&concurrent);
    let b = catalog_bytes(&sequential);
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), 16, "7 base tables + 9 MVs");
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.into_iter().zip(b) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "'{name_a}' diverged between the concurrent and sequential rigs"
        );
    }
}
