//! Cross-crate tests for the incremental (delta) refresh subsystem.
//!
//! The load-bearing property is the segmented-storage **equality
//! contract**: across seeded update streams — insert-only and mixed
//! insert/update/delete — an incremental refresh must leave every MV
//! *row-identical* to what a from-scratch recomputation produces after
//! every round (insert-only rounds append delta-sized segments, so the
//! file layout legitimately differs), and *byte-identical* file for file
//! once `compact()` collapses the segments back to the canonical
//! single-segment form — on one lane and on four. The second property is
//! *delta-sized admission*: a flagged node whose consumers all maintain
//! incrementally reserves only its delta in the Memory Catalog, so flags
//! survive budgets that could never hold the full table. The third is
//! *O(delta) persistence*: append-path nodes report delta-sized
//! `appended_bytes` where a full refresh rewrites the whole MV.

use sc_core::FlagSet;
use sc_core::{ModeReason, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::{Controller, MvDefinition, RefreshConfig};
use sc_engine::exec::AggFunc;
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::{DeltaStore, DiskCatalog};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;
use sc_workload::updates::{generate_delta, JoinHubChurn, UpdateStreamSpec};

/// A workload mixing every maintenance shape over the TinyTpcds tables:
/// row-wise filter chains (delete-safe), a chained filter over an MV, two
/// mergeable aggregates, a join hub (incremental under insert-only churn
/// of its probe side, full otherwise), and an independent branch that
/// skips when only `store_sales` churns.
fn mixed_workload() -> Vec<MvDefinition> {
    vec![
        // 0: delete-safe filter chain over the churning fact table.
        MvDefinition::new(
            "hot_sales",
            LogicalPlan::scan("store_sales")
                .filter(Expr::col("ss_sales_price").gt(Expr::lit(100.0f64))),
        ),
        // 1: mergeable aggregate over the MV above.
        MvDefinition::new(
            "sales_by_item",
            LogicalPlan::scan("hot_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![
                    AggExpr::new(AggFunc::Sum, "ss_sales_price", "revenue"),
                    AggExpr::new(AggFunc::Count, "ss_item_sk", "n"),
                    AggExpr::new(AggFunc::Max, "ss_sales_price", "top_price"),
                ],
            ),
        ),
        // 2: second-level filter chain (consumes hot_sales' delta).
        MvDefinition::new(
            "bulk_hot_sales",
            LogicalPlan::scan("hot_sales").filter(Expr::col("ss_quantity").gt(Expr::lit(50i64))),
        ),
        // 3: join hub — delta-joins insert-only probe churn against the
        // static item dimension, recomputes when the stream has deletes.
        MvDefinition::new(
            "hot_enriched",
            LogicalPlan::scan("hot_sales").join(
                LogicalPlan::scan("item"),
                vec![("ss_item_sk".into(), "i_item_sk".into())],
            ),
        ),
        // 4: independent branch over a table that never churns here.
        MvDefinition::new(
            "web_by_item",
            LogicalPlan::scan("web_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![AggExpr::new(AggFunc::Sum, "ss_sales_price", "web_revenue")],
            ),
        ),
    ]
}

fn plan_for(mvs: &[MvDefinition], flagged: &[usize]) -> Plan {
    Plan {
        order: (0..mvs.len()).map(NodeId).collect(),
        flagged: FlagSet::from_nodes(mvs.len(), flagged.iter().map(|&i| NodeId(i))),
    }
}

struct Rig {
    _dir: tempfile::TempDir,
    disk: DiskCatalog,
    budget: u64,
    store: DeltaStore,
}

fn rig(budget: u64) -> Rig {
    let dir = tempfile::tempdir().unwrap();
    let disk = DiskCatalog::open(dir.path()).unwrap();
    TinyTpcds::generate(0.4, 42).load_into(&disk).unwrap();
    Rig {
        _dir: dir,
        disk,
        budget,
        store: DeltaStore::new(),
    }
}

fn refresh(
    r: &Rig,
    mvs: &[MvDefinition],
    plan: &Plan,
    lanes: usize,
    mode: RefreshMode,
) -> sc_engine::RunMetrics {
    Controller::new(&r.disk, r.budget)
        .with_delta_store(&r.store)
        .with_refresh_config(RefreshConfig::with_lanes(lanes).with_refresh_mode(mode))
        .refresh(mvs, plan)
        .unwrap()
}

/// Stored files (name, bytes) backing one table.
type StoredFiles = Vec<(String, Vec<u8>)>;

/// Raw stored bytes of every file (manifest + segments) backing every MV.
fn mv_file_bytes(r: &Rig, mvs: &[MvDefinition]) -> Vec<(String, StoredFiles)> {
    mvs.iter()
        .map(|mv| (mv.name.clone(), r.disk.stored_file_bytes(&mv.name).unwrap()))
        .collect()
}

/// Logical stored contents of every MV (layout-independent).
fn mv_tables(r: &Rig, mvs: &[MvDefinition]) -> Vec<(String, sc_engine::Table)> {
    mvs.iter()
        .map(|mv| (mv.name.clone(), r.disk.read_table(&mv.name).unwrap()))
        .collect()
}

/// Compacts every MV back to the canonical single-segment form.
fn compact_all(r: &Rig, mvs: &[MvDefinition]) {
    for mv in mvs {
        r.disk.compact(&mv.name).unwrap();
    }
}

/// Three seeded churn rounds — insert-only, then mixed with updates and
/// deletes — refreshed incrementally on one rig and fully on another:
/// every MV file must stay byte-identical, on 1 lane and on 4.
#[test]
fn incremental_refresh_is_byte_identical_across_update_streams() {
    for lanes in [1usize, 4] {
        let mvs = mixed_workload();
        let plan = plan_for(&mvs, &[0]);
        let full = rig(32 << 20);
        let inc = rig(32 << 20);
        refresh(&full, &mvs, &plan, lanes, RefreshMode::AlwaysFull);
        refresh(&inc, &mvs, &plan, lanes, RefreshMode::AlwaysFull);

        let rounds = [
            UpdateStreamSpec::inserts(0.05),
            UpdateStreamSpec::mixed(0.03, 0.02, 0.01),
            UpdateStreamSpec::inserts(0.08),
        ];
        for (round, spec) in rounds.iter().enumerate() {
            // Identical churn lands on both rigs (bases were identical, so
            // the seeded stream is too).
            for r in [&full, &inc] {
                let sales = r.disk.read_table("store_sales").unwrap();
                let delta = generate_delta(&sales, spec, round as u64 + 99);
                r.store.ingest(&r.disk, "store_sales", delta).unwrap();
            }
            let fm = refresh(&full, &mvs, &plan, lanes, RefreshMode::AlwaysFull);
            let im = refresh(&inc, &mvs, &plan, lanes, RefreshMode::AlwaysIncremental);

            assert_eq!(
                mv_tables(&full, &mvs),
                mv_tables(&inc, &mvs),
                "round {round}, lanes {lanes}: stored MVs must be row-identical"
            );
            assert!(fm.nodes.iter().all(|n| n.mode == NodeMode::Full));
            let mode_of = |m: &sc_engine::RunMetrics, name: &str| {
                m.nodes.iter().find(|n| n.name == name).unwrap().mode
            };
            // The untouched branch skips; the join hub delta-joins and the
            // aggregate merges whenever the stream is insert-only (round 1
            // carries deletes, which neither joins nor aggregates absorb).
            assert_eq!(mode_of(&im, "web_by_item"), NodeMode::Skipped);
            let expect = if round == 1 {
                NodeMode::Full
            } else {
                NodeMode::Incremental
            };
            assert_eq!(
                mode_of(&im, "hot_enriched"),
                expect,
                "round {round}, lanes {lanes}"
            );
            assert_eq!(
                mode_of(&im, "sales_by_item"),
                expect,
                "round {round}, lanes {lanes}"
            );
            // Insert-only rounds persist hot_sales via the append path —
            // a delta-sized segment, not an MV rewrite; the mixed round's
            // deletes force the canonical rewrite.
            let hot = im.nodes.iter().find(|n| n.name == "hot_sales").unwrap();
            if round == 1 {
                assert_eq!(hot.appended_bytes, 0, "lanes {lanes}");
                assert_eq!(hot.segments, 1, "lanes {lanes}");
            } else {
                assert!(hot.appended_bytes > 0, "round {round}, lanes {lanes}");
                assert!(
                    hot.appended_bytes < hot.output_bytes / 4,
                    "round {round}, lanes {lanes}: append must be O(delta), \
                     wrote {} of a {}-byte MV",
                    hot.appended_bytes,
                    hot.output_bytes
                );
                assert!(hot.segments > 1, "round {round}, lanes {lanes}");
            }
        }
        // The equality contract's second half: after compacting the
        // fragmented rig back to canonical form, every file is
        // byte-identical to the always-full reference.
        assert!(inc.disk.segment_count("hot_sales").unwrap() > 1);
        compact_all(&inc, &mvs);
        assert_eq!(inc.disk.segment_count("hot_sales").unwrap(), 1);
        assert_eq!(
            mv_file_bytes(&full, &mvs),
            mv_file_bytes(&inc, &mvs),
            "lanes {lanes}: compacted files must be byte-identical to the reference"
        );
    }
}

/// Under `AlwaysIncremental` with deletes in the stream, delete-safe
/// filter chains still maintain incrementally while aggregates and
/// projections recompute — and results stay byte-identical.
#[test]
fn deletes_propagate_through_filter_chains_only() {
    let mvs = mixed_workload();
    let plan = plan_for(&mvs, &[]);
    let full = rig(32 << 20);
    let inc = rig(32 << 20);
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysFull);

    let spec = UpdateStreamSpec::mixed(0.0, 0.0, 0.05); // pure deletes
    for r in [&full, &inc] {
        let sales = r.disk.read_table("store_sales").unwrap();
        r.store
            .ingest(&r.disk, "store_sales", generate_delta(&sales, &spec, 5))
            .unwrap();
    }
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    let im = refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysIncremental);
    assert_eq!(mv_file_bytes(&full, &mvs), mv_file_bytes(&inc, &mvs));

    let mode_of = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap().mode;
    assert_eq!(mode_of("hot_sales"), NodeMode::Incremental);
    assert_eq!(mode_of("bulk_hot_sales"), NodeMode::Incremental);
    assert_eq!(
        mode_of("sales_by_item"),
        NodeMode::Full,
        "aggregates cannot merge deletions"
    );
    assert_eq!(
        mode_of("hot_enriched"),
        NodeMode::Full,
        "joins cannot propagate deletions"
    );
}

/// Delta-sized admission: with a budget that could never hold the flagged
/// hub's table, the incremental run still admits the flag (its payload is
/// the delta), while a full refresh under the same budget falls back.
#[test]
fn delta_payload_admission_fits_where_full_tables_cannot() {
    let mvs: Vec<MvDefinition> = mixed_workload()
        .into_iter()
        .filter(|mv| mv.name != "hot_enriched") // keep every consumer incremental
        .collect();
    let probe_rig = rig(1 << 30);
    let probe_plan = plan_for(&mvs, &[0]);
    let probe = refresh(&probe_rig, &mvs, &probe_plan, 1, RefreshMode::AlwaysFull);
    let hub_bytes = probe.nodes[0].output_bytes;

    // Budget: a tenth of the hub — no full-table flag can ever fit.
    let budget = hub_bytes / 10;
    let r = rig(budget);
    let plan = plan_for(&mvs, &[0]);
    refresh(&r, &mvs, &plan, 1, RefreshMode::AlwaysFull);

    let sales = r.disk.read_table("store_sales").unwrap();
    let delta = generate_delta(&sales, &UpdateStreamSpec::inserts(0.02), 3);
    r.store.ingest(&r.disk, "store_sales", delta).unwrap();

    for lanes in [1usize, 4] {
        // Re-ingest for the second lane round (the first refresh consumed
        // the log).
        if r.store.is_empty() {
            let sales = r.disk.read_table("store_sales").unwrap();
            let delta = generate_delta(&sales, &UpdateStreamSpec::inserts(0.02), 4);
            r.store.ingest(&r.disk, "store_sales", delta).unwrap();
        }
        let im = refresh(&r, &mvs, &plan, lanes, RefreshMode::AlwaysIncremental);
        let hub = &im.nodes[0];
        assert_eq!(hub.mode, NodeMode::Incremental);
        assert!(
            hub.flagged && !hub.fell_back,
            "lanes {lanes}: delta-sized payload must be admitted"
        );
        assert!(hub.delta_bytes > 0);
        assert!(im.peak_memory_bytes <= budget, "budget is never exceeded");
    }

    // The same flag under a full refresh cannot fit and falls back.
    let sales = r.disk.read_table("store_sales").unwrap();
    r.store
        .ingest(
            &r.disk,
            "store_sales",
            generate_delta(&sales, &UpdateStreamSpec::inserts(0.02), 5),
        )
        .unwrap();
    let fm = refresh(&r, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    assert!(fm.nodes[0].fell_back, "full table cannot fit the budget");
}

/// The acceptance-criterion scenario: the `enriched_sales` join hub (fact
/// ⋈ item ⋈ date_dim with three consumers, plus the premium_by_state
/// join+aggregate) is maintained incrementally under seeded insert-only
/// fact churn, byte-identical to full recomputation, on 1 and 4 lanes.
#[test]
fn join_hub_pipeline_maintained_incrementally_and_byte_identical() {
    for lanes in [1usize, 4] {
        let mvs = sales_pipeline();
        let plan = plan_for(&mvs, &[0]); // flag the hub
        let full = rig(64 << 20);
        let inc = rig(64 << 20);
        refresh(&full, &mvs, &plan, lanes, RefreshMode::AlwaysFull);
        refresh(&inc, &mvs, &plan, lanes, RefreshMode::AlwaysFull);

        let churn = JoinHubChurn::store_sales(0.04);
        for round in 0..2u64 {
            churn.ingest_round(&full.disk, &full.store, round).unwrap();
            churn.ingest_round(&inc.disk, &inc.store, round).unwrap();
            refresh(&full, &mvs, &plan, lanes, RefreshMode::AlwaysFull);
            let im = refresh(&inc, &mvs, &plan, lanes, RefreshMode::AlwaysIncremental);

            assert_eq!(
                mv_tables(&full, &mvs),
                mv_tables(&inc, &mvs),
                "round {round}, lanes {lanes}: join-hub pipeline must stay row-identical"
            );
            let node = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap();
            // The join hub delta-joins its fact churn against the static
            // dimensions, and every consumer maintains from its delta.
            assert_eq!(node("enriched_sales").mode, NodeMode::Incremental);
            assert!(node("enriched_sales").delta_bytes > 0);
            assert_eq!(node("rev_by_category").mode, NodeMode::Incremental);
            assert_eq!(node("rev_by_year").mode, NodeMode::Incremental);
            assert_eq!(node("premium_sales").mode, NodeMode::Incremental);
            // join + aggregate over a published delta, customer static.
            assert_eq!(node("premium_by_state").mode, NodeMode::Incremental);
            // Channels the churn never touches skip outright.
            for skipped in [
                "catalog_by_item",
                "web_by_item",
                "cross_channel",
                "top_items",
            ] {
                assert_eq!(node(skipped).mode, NodeMode::Skipped, "{skipped}");
            }
            assert!(inc.store.is_empty());
            // The hub's fan-out delta lands as an appended segment.
            assert!(node("enriched_sales").appended_bytes > 0);
            assert_eq!(
                node("enriched_sales").segments as u64,
                round + 2,
                "one more segment per insert-only round"
            );
        }
        compact_all(&inc, &mvs);
        assert_eq!(
            mv_file_bytes(&full, &mvs),
            mv_file_bytes(&inc, &mvs),
            "lanes {lanes}: compacted join-hub files must be byte-identical"
        );
    }
}

/// ROADMAP regression closed by the segmented layout's write term: a
/// wide join-hub MV (its contents out-size its churning fact input) used
/// to need `AlwaysIncremental` — the read-side-only cost model saw the
/// O(MV) re-read + rewrite and always recomputed. With the append path
/// the incremental refresh reads O(delta + dimensions) and writes
/// O(delta), so plain `Auto` now picks it.
#[test]
fn auto_picks_delta_join_for_wide_hub() {
    let mvs = sales_pipeline();
    let plan = plan_for(&mvs, &[0]);
    let r = rig(64 << 20);
    refresh(&r, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    // The gap's defining shape: hub contents out-size the fact input.
    assert!(
        r.disk.size_of("enriched_sales").unwrap() > r.disk.size_of("store_sales").unwrap(),
        "scenario must reproduce the wide-hub shape"
    );

    let churn = JoinHubChurn::store_sales(0.04);
    churn.ingest_round(&r.disk, &r.store, 1).unwrap();
    let auto = refresh(&r, &mvs, &plan, 1, RefreshMode::Auto);
    let node = |name: &str| auto.nodes.iter().find(|n| n.name == name).unwrap();
    let hub = node("enriched_sales");
    assert_eq!(
        hub.mode,
        NodeMode::Incremental,
        "Auto must now pick delta-join for the wide hub, got {:?} ({})",
        hub.mode,
        hub.reason.describe()
    );
    assert_eq!(hub.reason, ModeReason::DeltaApplied);
    assert!(hub.appended_bytes > 0, "the hub persists via an append");
    assert!(
        hub.appended_bytes < hub.output_bytes / 5,
        "append is O(delta): wrote {} of a {}-byte MV",
        hub.appended_bytes,
        hub.output_bytes
    );
    assert_eq!(node("web_by_item").mode, NodeMode::Skipped);
    assert!(r.store.is_empty());
}

/// Churning a *dimension* (build side) forces the hub — and transitively
/// its consumers — back to full recomputation: the delta-join boundary.
/// Results stay byte-identical either way.
#[test]
fn build_side_churn_falls_back_to_full_recompute() {
    let mvs = sales_pipeline();
    let plan = plan_for(&mvs, &[]);
    let full = rig(64 << 20);
    let inc = rig(64 << 20);
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysFull);

    // item feeds enriched_sales' build side.
    let churn = JoinHubChurn::new(["item"], 0.05);
    churn.ingest_round(&full.disk, &full.store, 9).unwrap();
    churn.ingest_round(&inc.disk, &inc.store, 9).unwrap();
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    let im = refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysIncremental);
    assert_eq!(mv_file_bytes(&full, &mvs), mv_file_bytes(&inc, &mvs));

    let node = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap();
    assert_eq!(
        node("enriched_sales").mode,
        NodeMode::Full,
        "changed build side cannot be delta-joined"
    );
    // Its consumers lose their parent delta and recompute too.
    assert_eq!(node("rev_by_category").mode, NodeMode::Full);
    assert_eq!(node("premium_sales").mode, NodeMode::Full);
    // Untouched channels still skip.
    assert_eq!(node("web_by_item").mode, NodeMode::Skipped);
}

/// Failure path shipped untested by PR 2: an unflagged parent that
/// publishes a delta must spill it to a transient storage file, and its
/// incremental consumers read it back from disk (off-catalog). The spill
/// is removed at the end of the run.
#[test]
fn spilled_delta_is_read_back_when_consumer_is_off_catalog() {
    let mvs = mixed_workload();
    let plan = plan_for(&mvs, &[]); // nothing flagged: no catalog payloads
    let full = rig(32 << 20);
    let inc = rig(32 << 20);
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysFull);

    let spec = UpdateStreamSpec::inserts(0.05);
    for r in [&full, &inc] {
        let sales = r.disk.read_table("store_sales").unwrap();
        r.store
            .ingest(&r.disk, "store_sales", generate_delta(&sales, &spec, 17))
            .unwrap();
    }
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    let im = refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysIncremental);
    assert_eq!(mv_tables(&full, &mvs), mv_tables(&inc, &mvs));

    let node = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap();
    assert_eq!(node("hot_sales").mode, NodeMode::Incremental);
    assert!(!node("hot_sales").flagged);
    // Consumers maintained incrementally off-catalog. Append-path
    // consumers (bulk_hot_sales, hot_enriched) read only the spilled
    // #delta (plus join build sides) — never their own stored contents;
    // the merge aggregate still re-reads its contents to rewrite them.
    for consumer in ["bulk_hot_sales", "hot_enriched", "sales_by_item"] {
        let n = node(consumer);
        assert_eq!(n.mode, NodeMode::Incremental, "{consumer}");
        assert!(
            n.disk_reads >= 1,
            "{consumer} must read the spilled delta from storage, got {}",
            n.disk_reads
        );
        assert_eq!(
            n.memory_reads, 0,
            "{consumer} reads nothing from the catalog"
        );
    }
    assert!(
        node("sales_by_item").disk_reads >= 2,
        "merge re-reads contents"
    );
    assert!(node("bulk_hot_sales").appended_bytes > 0);
    compact_all(&inc, &mvs);
    assert_eq!(mv_file_bytes(&full, &mvs), mv_file_bytes(&inc, &mvs));
    // The spill is transient: gone once the run ends.
    assert!(!inc.disk.contains("hot_sales#delta"));
}

/// A batch ingested *while* a refresh runs may already be baked into the
/// MVs that run recomputed in full (executions read live bases); the
/// controller must detect this and poison the log so the next run
/// recomputes instead of applying the batch a second time. Whatever the
/// interleaving, the system must converge to a clean control.
#[test]
fn concurrent_ingest_during_refresh_never_double_applies() {
    use sc_engine::storage::Throttle;

    // Slow the victim's disk so the refresh run leaves a wide window for
    // the concurrent ingest to land mid-run — and order the workload so a
    // slow warm-up node delays the store_sales reader past that window,
    // making the late node *bake in* the concurrently ingested batch.
    let dir = tempfile::tempdir().unwrap();
    let slow = Throttle {
        read_bps: 1e6,
        write_bps: 4e6,
        latency_s: 1e-3,
    };
    let disk = DiskCatalog::open_throttled(dir.path(), slow).unwrap();
    TinyTpcds::generate(0.4, 42).load_into(&disk).unwrap();
    let store = DeltaStore::new();
    let mvs = vec![
        // ~100 KB of throttled reads (~100 ms) before anything else runs.
        MvDefinition::new(
            "warm",
            LogicalPlan::scan("catalog_sales").union(LogicalPlan::scan("web_sales")),
        ),
        // Reads store_sales only after `warm` finishes.
        MvDefinition::new(
            "late_sales",
            LogicalPlan::scan("store_sales")
                .filter(Expr::col("ss_sales_price").gt(Expr::lit(100.0f64))),
        ),
        MvDefinition::new(
            "late_by_item",
            LogicalPlan::scan("late_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![AggExpr::new(AggFunc::Sum, "ss_sales_price", "revenue")],
            ),
        ),
    ];
    let plan = plan_for(&mvs, &[]);
    Controller::new(&disk, 32 << 20)
        .refresh(&mvs, &plan)
        .unwrap();

    // Δ1 pends normally; Δ2 is ingested from another thread while the
    // refresh consuming Δ1 is in flight, through the same (throttled)
    // handle: its read of store_sales queues on the modeled read
    // channel right behind `catalog_sales` — ahead of `web_sales` — so
    // Δ2 lands squarely inside `warm`'s paced reads, before
    // `late_sales` reads the base. Both deltas are generated before the
    // run from bases no refresh touches, so both streams are
    // deterministic regardless of timing.
    let sales = disk.read_table("store_sales").unwrap();
    let delta_1 = generate_delta(&sales, &UpdateStreamSpec::inserts(0.04), 21);
    store.ingest(&disk, "store_sales", delta_1).unwrap();
    let sales = disk.read_table("store_sales").unwrap();
    let delta_2 = generate_delta(&sales, &UpdateStreamSpec::inserts(0.03), 22);
    std::thread::scope(|scope| {
        let refresh_thread = scope.spawn(|| {
            Controller::new(&disk, 32 << 20)
                .with_delta_store(&store)
                .with_refresh_config(
                    RefreshConfig::with_lanes(1).with_refresh_mode(RefreshMode::AlwaysFull),
                )
                .refresh(&mvs, &plan)
                .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        store.ingest(&disk, "store_sales", delta_2).unwrap();
        refresh_thread.join().unwrap();
    });
    // If Δ2 landed mid-run it is already in the recomputed MVs and the
    // log must be poisoned; either way the retry must not double-apply.
    if store.is_poisoned() {
        let retry = Controller::new(&disk, 32 << 20)
            .with_delta_store(&store)
            .with_refresh_config(
                RefreshConfig::with_lanes(1).with_refresh_mode(RefreshMode::AlwaysIncremental),
            )
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(
            retry.nodes.iter().all(|n| n.mode != NodeMode::Incremental),
            "poisoned log must force full recomputes"
        );
    } else {
        Controller::new(&disk, 32 << 20)
            .with_delta_store(&store)
            .with_refresh_config(
                RefreshConfig::with_lanes(1).with_refresh_mode(RefreshMode::AlwaysIncremental),
            )
            .refresh(&mvs, &plan)
            .unwrap();
    }
    assert!(store.is_empty() && !store.is_poisoned());

    // Control: same bases, same two streams, refreshed serially with no
    // concurrency. The victim must converge to exactly this state.
    let control = rig(32 << 20);
    Controller::new(&control.disk, control.budget)
        .refresh(&mvs, &plan)
        .unwrap();
    for seed in [21u64, 22] {
        let sales = control.disk.read_table("store_sales").unwrap();
        let frac = if seed == 21 { 0.04 } else { 0.03 };
        control
            .store
            .ingest(
                &control.disk,
                "store_sales",
                generate_delta(&sales, &UpdateStreamSpec::inserts(frac), seed),
            )
            .unwrap();
        refresh(&control, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    }
    for mv in &mvs {
        assert_eq!(
            disk.read_table(&mv.name).unwrap(),
            control.disk.read_table(&mv.name).unwrap(),
            "{} must converge to the serial control",
            mv.name
        );
    }
}

/// Failure path shipped untested by PR 2: every unsupported shape under
/// `RefreshMode::AlwaysIncremental` must *fall back* to recomputation —
/// never error — and stay byte-identical, even when the stream carries
/// updates and deletes.
#[test]
fn unsupported_shapes_fall_back_rather_than_error() {
    let mvs = vec![
        // Top-k never delta-maintains: appended rows reorder the prefix.
        MvDefinition::new(
            "top_priced",
            LogicalPlan::scan("store_sales")
                .top_k(vec![sc_engine::exec::SortKey::desc("ss_sales_price")], 40),
        ),
        // Unions, sorts and limits always recompute.
        MvDefinition::new(
            "both_channels",
            LogicalPlan::scan("catalog_sales").union(LogicalPlan::scan("web_sales")),
        ),
        MvDefinition::new(
            "top_sales",
            LogicalPlan::scan("store_sales")
                .sort(vec![sc_engine::exec::SortKey::desc("ss_sales_price")])
                .limit(50),
        ),
        // Avg cannot resume from its stored quotient.
        MvDefinition::new(
            "avg_by_item",
            LogicalPlan::scan("store_sales").aggregate(
                vec!["ss_item_sk".into()],
                vec![AggExpr::new(AggFunc::Avg, "ss_sales_price", "mean_price")],
            ),
        ),
        // Aggregate-over-aggregate: nested, unsupported.
        MvDefinition::new(
            "avg_rollup",
            LogicalPlan::scan("avg_by_item").aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Max, "mean_price", "max_mean")],
            ),
        ),
    ];
    let plan = plan_for(&mvs, &[0]);
    let full = rig(32 << 20);
    let inc = rig(32 << 20);
    refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
    refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysFull);

    for (round, spec) in [
        UpdateStreamSpec::inserts(0.05),
        UpdateStreamSpec::mixed(0.02, 0.03, 0.02),
    ]
    .iter()
    .enumerate()
    {
        for r in [&full, &inc] {
            for table in ["store_sales", "catalog_sales"] {
                let base = r.disk.read_table(table).unwrap();
                r.store
                    .ingest(&r.disk, table, generate_delta(&base, spec, 31))
                    .unwrap();
            }
        }
        refresh(&full, &mvs, &plan, 1, RefreshMode::AlwaysFull);
        // Must not error: unsupported shapes recompute.
        let im = refresh(&inc, &mvs, &plan, 1, RefreshMode::AlwaysIncremental);
        assert_eq!(
            mv_file_bytes(&full, &mvs),
            mv_file_bytes(&inc, &mvs),
            "round {round}"
        );
        assert!(
            im.nodes
                .iter()
                .all(|n| n.mode == NodeMode::Full || n.mode == NodeMode::Skipped),
            "round {round}: every touched shape recomputes"
        );
        assert!(im.nodes.iter().any(|n| n.mode == NodeMode::Full));
    }
}

/// Failure path shipped untested by PR 2 at the pipeline level: a refresh
/// that fails *after* join-hub deltas were applied poisons the log; the
/// retry recomputes every delta-reached MV from the authoritative bases
/// instead of double-applying, matching a system that never failed.
#[test]
fn poisoned_log_retry_recomputes_join_hub_instead_of_double_applying() {
    let good = sales_pipeline();
    let good_plan = plan_for(&good, &[]);
    let victim = rig(64 << 20);
    let control = rig(64 << 20);
    refresh(&victim, &good, &good_plan, 1, RefreshMode::AlwaysFull);
    refresh(&control, &good, &good_plan, 1, RefreshMode::AlwaysFull);

    let churn = JoinHubChurn::store_sales(0.03);
    churn.ingest_round(&victim.disk, &victim.store, 5).unwrap();
    churn
        .ingest_round(&control.disk, &control.store, 5)
        .unwrap();

    // Doomed run on the victim: the hub and its consumers maintain
    // incrementally (their applied deltas are persisted), then a final MV
    // scans a missing table and aborts the run.
    let mut doomed = sales_pipeline();
    doomed.push(MvDefinition::new("boom", LogicalPlan::scan("no_such")));
    let doomed_plan = plan_for(&doomed, &[]);
    let err = Controller::new(&victim.disk, victim.budget)
        .with_delta_store(&victim.store)
        .with_refresh_config(
            RefreshConfig::with_lanes(1).with_refresh_mode(RefreshMode::AlwaysIncremental),
        )
        .refresh(&doomed, &doomed_plan);
    assert!(err.is_err());
    assert!(victim.store.is_poisoned(), "failed run must poison the log");
    // The hub's committed append survives the failure (appends are
    // atomic at the manifest commit), leaving it fragmented…
    assert!(victim.disk.segment_count("enriched_sales").unwrap() > 1);

    // Retry on the good set: no node may apply the delta a second time.
    let retry = refresh(
        &victim,
        &good,
        &good_plan,
        1,
        RefreshMode::AlwaysIncremental,
    );
    assert!(
        retry.nodes.iter().all(|n| n.mode != NodeMode::Incremental),
        "poisoned log forces full recomputes"
    );
    assert!(!victim.store.is_poisoned() && victim.store.is_empty());
    // …and the full recompute collapses it back to canonical form.
    assert_eq!(victim.disk.segment_count("enriched_sales").unwrap(), 1);

    // The control rig refreshes once, cleanly (appending), then compacts.
    refresh(
        &control,
        &good,
        &good_plan,
        1,
        RefreshMode::AlwaysIncremental,
    );
    assert_eq!(
        mv_tables(&victim, &good),
        mv_tables(&control, &good),
        "recovered pipeline must be row-identical to a system that never failed"
    );
    compact_all(&victim, &good);
    compact_all(&control, &good);
    assert_eq!(
        mv_file_bytes(&victim, &good),
        mv_file_bytes(&control, &good),
        "compacted recovered pipeline must match a system that never failed"
    );
}
