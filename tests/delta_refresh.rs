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
//! `appended_bytes` where a full refresh rewrites the whole MV — at every
//! MV size, for a fixed delta.
//!
//! Every rig is a session with one refresh mode and one lane count. An
//! incremental rig's first refresh runs over an empty delta log, so it
//! materializes every MV in full, exactly like the always-full reference.

use std::ops::Deref;

use sc_core::FlagSet;
use sc_core::{ModeReason, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::MvDefinition;
use sc_engine::exec::AggFunc;
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::Throttle;
use sc_engine::{RunMetrics, ScSession, Table};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;
use sc_workload::updates::{generate_delta, UpdateStreamSpec};
use sc_workload::{ChurnRound, TpchSpec};

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

/// A session refreshing on `lanes` lanes under `mode`, its storage in a
/// directory of its own.
struct Rig {
    session: ScSession,
    _dir: tempfile::TempDir,
}

impl Deref for Rig {
    type Target = ScSession;

    fn deref(&self) -> &ScSession {
        &self.session
    }
}

fn session_rig(
    budget: u64,
    lanes: usize,
    mode: RefreshMode,
    throttle: Option<Throttle>,
    mvs: &[MvDefinition],
) -> Rig {
    let dir = tempfile::tempdir().unwrap();
    let mut builder = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(budget)
        .lanes(lanes)
        .refresh_mode(mode)
        .runtime_feedback(false);
    if let Some(t) = throttle {
        builder = builder.throttle(t);
    }
    let session = builder.build().unwrap();
    for mv in mvs {
        session.register_mv(mv.clone()).unwrap();
    }
    Rig { session, _dir: dir }
}

/// A rig over the TinyTpcds tables at scale 0.4 with `mvs` registered.
fn rig(budget: u64, lanes: usize, mode: RefreshMode, mvs: &[MvDefinition]) -> Rig {
    let r = session_rig(budget, lanes, mode, None, mvs);
    TinyTpcds::generate(0.4, 42).load_into(r.disk()).unwrap();
    r
}

fn refresh(r: &Rig, plan: &Plan) -> RunMetrics {
    r.refresh_with_plan(plan).unwrap()
}

/// Ingests a seeded `spec` stream against `table`'s current contents.
fn churn(r: &Rig, table: &str, spec: &UpdateStreamSpec, seed: u64) {
    let base = r.disk().read_table(table).unwrap();
    r.ingest_delta(table, generate_delta(&base, spec, seed))
        .unwrap();
}

/// Stored files (name, bytes) backing one table.
type StoredFiles = Vec<(String, Vec<u8>)>;

/// Raw stored bytes of every file (manifest + segments) backing every MV.
fn mv_file_bytes(r: &Rig, mvs: &[MvDefinition]) -> Vec<(String, StoredFiles)> {
    mvs.iter()
        .map(|mv| {
            (
                mv.name.clone(),
                r.disk().stored_file_bytes(&mv.name).unwrap(),
            )
        })
        .collect()
}

/// Logical stored contents of every MV (layout-independent).
fn mv_tables(r: &Rig, mvs: &[MvDefinition]) -> Vec<(String, Table)> {
    mvs.iter()
        .map(|mv| (mv.name.clone(), r.disk().read_table(&mv.name).unwrap()))
        .collect()
}

/// Three seeded churn rounds — insert-only, then mixed with updates and
/// deletes — refreshed incrementally on one rig and fully on another:
/// every MV file must stay byte-identical, on 1 lane and on 4.
#[test]
fn incremental_refresh_is_byte_identical_across_update_streams() {
    for lanes in [1usize, 4] {
        let mvs = mixed_workload();
        let plan = plan_for(&mvs, &[0]);
        let full = rig(32 << 20, lanes, RefreshMode::AlwaysFull, &mvs);
        let inc = rig(32 << 20, lanes, RefreshMode::AlwaysIncremental, &mvs);
        refresh(&full, &plan);
        refresh(&inc, &plan);

        let rounds = [
            UpdateStreamSpec::inserts(0.05),
            UpdateStreamSpec::mixed(0.03, 0.02, 0.01),
            UpdateStreamSpec::inserts(0.08),
        ];
        for (round, spec) in rounds.iter().enumerate() {
            // Identical churn lands on both rigs (bases were identical, so
            // the seeded stream is too).
            for r in [&full, &inc] {
                churn(r, "store_sales", spec, round as u64 + 99);
            }
            let fm = refresh(&full, &plan);
            let im = refresh(&inc, &plan);

            assert_eq!(
                mv_tables(&full, &mvs),
                mv_tables(&inc, &mvs),
                "round {round}, lanes {lanes}: stored MVs must be row-identical"
            );
            assert!(fm.nodes.iter().all(|n| n.mode == NodeMode::Full));
            let mode_of =
                |m: &RunMetrics, name: &str| m.nodes.iter().find(|n| n.name == name).unwrap().mode;
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
        assert!(inc.disk().segment_count("hot_sales").unwrap() > 1);
        inc.compact_mvs().unwrap();
        assert_eq!(inc.disk().segment_count("hot_sales").unwrap(), 1);
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
    let full = rig(32 << 20, 1, RefreshMode::AlwaysFull, &mvs);
    let inc = rig(32 << 20, 1, RefreshMode::AlwaysIncremental, &mvs);
    refresh(&full, &plan);
    refresh(&inc, &plan);

    let spec = UpdateStreamSpec::mixed(0.0, 0.0, 0.05); // pure deletes
    for r in [&full, &inc] {
        churn(r, "store_sales", &spec, 5);
    }
    refresh(&full, &plan);
    let im = refresh(&inc, &plan);
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
    let plan = plan_for(&mvs, &[0]);
    let probe_rig = rig(1 << 30, 1, RefreshMode::AlwaysFull, &mvs);
    let hub_bytes = refresh(&probe_rig, &plan).nodes[0].output_bytes;

    // Budget: a tenth of the hub — no full-table flag can ever fit.
    let budget = hub_bytes / 10;
    for lanes in [1usize, 4] {
        let r = rig(budget, lanes, RefreshMode::AlwaysIncremental, &mvs);
        // The first refresh recomputes in full (the log is empty): the
        // same flag cannot fit and falls back.
        let fm = refresh(&r, &plan);
        assert!(fm.nodes[0].fell_back, "full table cannot fit the budget");

        churn(&r, "store_sales", &UpdateStreamSpec::inserts(0.02), 3);
        let im = refresh(&r, &plan);
        let hub = &im.nodes[0];
        assert_eq!(hub.mode, NodeMode::Incremental);
        assert!(
            hub.flagged && !hub.fell_back,
            "lanes {lanes}: delta-sized payload must be admitted"
        );
        assert!(hub.delta_bytes > 0);
        assert!(im.peak_memory_bytes <= budget, "budget is never exceeded");
    }
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
        let full = rig(64 << 20, lanes, RefreshMode::AlwaysFull, &mvs);
        let inc = rig(64 << 20, lanes, RefreshMode::AlwaysIncremental, &mvs);
        refresh(&full, &plan);
        refresh(&inc, &plan);

        for round in 0..2u64 {
            let churn = ChurnRound::inserts(["store_sales"], 0.04, round);
            churn.ingest_into(&full).unwrap();
            churn.ingest_into(&inc).unwrap();
            refresh(&full, &plan);
            let im = refresh(&inc, &plan);

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
            assert!(inc.delta_store().is_empty());
            // The hub's fan-out delta lands as an appended segment.
            assert!(node("enriched_sales").appended_bytes > 0);
            assert_eq!(
                node("enriched_sales").segments as u64,
                round + 2,
                "one more segment per insert-only round"
            );
        }
        inc.compact_mvs().unwrap();
        assert_eq!(
            mv_file_bytes(&full, &mvs),
            mv_file_bytes(&inc, &mvs),
            "lanes {lanes}: compacted join-hub files must be byte-identical"
        );
    }
}

/// The MV-size sweep: the join hub and its three direct consumers at
/// growing TinyTpcds scales under a **fixed absolute delta** (400 fact
/// rows at every scale). The append path must persist the hub in
/// O(delta) bytes however large the MV grows.
#[test]
fn append_path_writes_o_delta_at_every_mv_size() {
    const DELTA_ROWS: f64 = 400.0;
    let mvs: Vec<MvDefinition> = sales_pipeline().into_iter().take(4).collect();
    let plan = plan_for(&mvs, &[]);
    for scale in [0.25f64, 0.5, 1.0] {
        let r = session_rig(64 << 20, 1, RefreshMode::AlwaysIncremental, None, &mvs);
        TinyTpcds::generate(scale, 42).load_into(r.disk()).unwrap();
        refresh(&r, &plan);
        let rows = r.disk().row_count("store_sales").unwrap() as f64;
        churn(
            &r,
            "store_sales",
            &UpdateStreamSpec::inserts(DELTA_ROWS / rows),
            7,
        );
        let m = refresh(&r, &plan);
        let hub = m.nodes.iter().find(|n| n.name == "enriched_sales").unwrap();
        assert_eq!(hub.mode, NodeMode::Incremental, "scale {scale}");
        assert!(
            hub.appended_bytes > 0,
            "scale {scale}: hub must persist via the append path"
        );
        assert!(
            hub.appended_bytes < hub.output_bytes / 4,
            "scale {scale}: append-path refresh must write O(delta) bytes, \
             wrote {} of a {}-byte MV",
            hub.appended_bytes,
            hub.output_bytes
        );
    }
}

/// The TPC-H-shaped hubs under Zipf-skewed fact churn, in the star and
/// the snowflake layout: a keyed inner-join hub (`priced`), a **left
/// outer** join hub (`priced_outer`, null-filling unmatched parts through
/// the delta rule), a mergeable aggregate over the inner hub
/// (`brand_volume`) and a distinct merge (`supplier_mix`) all maintain
/// incrementally, row-identical to recomputation.
#[test]
fn tpch_shaped_hubs_stay_incremental_under_fact_churn() {
    let mvs = vec![
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
    ];
    let plan = plan_for(&mvs, &[]);
    for snowflake in [false, true] {
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
        let rigs = [RefreshMode::AlwaysFull, RefreshMode::AlwaysIncremental].map(|mode| {
            let r = session_rig(64 << 20, 1, mode, None, &mvs);
            spec.load_into(r.disk()).unwrap();
            refresh(&r, &plan);
            churn(&r, "lineitem", &UpdateStreamSpec::inserts(0.02), 7);
            r
        });
        let [full, inc] = &rigs;
        refresh(full, &plan);
        let im = refresh(inc, &plan);
        for hub in ["priced", "priced_outer", "brand_volume", "supplier_mix"] {
            let node = im.nodes.iter().find(|n| n.name == hub).unwrap();
            assert_eq!(
                node.mode,
                NodeMode::Incremental,
                "snowflake {snowflake}: '{hub}' must maintain incrementally under fact churn"
            );
        }
        assert_eq!(mv_tables(full, &mvs), mv_tables(inc, &mvs));
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
    let r = rig(64 << 20, 1, RefreshMode::Auto, &mvs);
    refresh(&r, &plan);
    // The gap's defining shape: hub contents out-size the fact input.
    assert!(
        r.disk().size_of("enriched_sales").unwrap() > r.disk().size_of("store_sales").unwrap(),
        "scenario must reproduce the wide-hub shape"
    );

    ChurnRound::inserts(["store_sales"], 0.04, 1)
        .ingest_into(&r)
        .unwrap();
    let auto = refresh(&r, &plan);
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
    assert!(r.delta_store().is_empty());
}

/// Churning a *dimension* (build side) forces the hub — and transitively
/// its consumers — back to full recomputation: the delta-join boundary.
/// Results stay byte-identical either way.
#[test]
fn build_side_churn_falls_back_to_full_recompute() {
    let mvs = sales_pipeline();
    let plan = plan_for(&mvs, &[]);
    let full = rig(64 << 20, 1, RefreshMode::AlwaysFull, &mvs);
    let inc = rig(64 << 20, 1, RefreshMode::AlwaysIncremental, &mvs);
    refresh(&full, &plan);
    refresh(&inc, &plan);

    // item feeds enriched_sales' build side.
    let churn = ChurnRound::inserts(["item"], 0.05, 9);
    churn.ingest_into(&full).unwrap();
    churn.ingest_into(&inc).unwrap();
    refresh(&full, &plan);
    let im = refresh(&inc, &plan);
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

/// An unflagged parent whose consumers all maintain incrementally puts
/// its delta in the Memory Catalog; when that delta does not fit, it
/// falls back to spilling it to a transient storage file, and its
/// incremental consumers read it back from disk (off-catalog). The spill
/// is removed at the end of the run.
#[test]
fn spilled_delta_is_read_back_when_consumer_is_off_catalog() {
    let mvs = mixed_workload();
    let plan = plan_for(&mvs, &[]); // nothing flagged by the plan
                                    // A catalog smaller than hot_sales' delta: its admission fails.
    let budget = 1 << 10;
    let full = rig(budget, 1, RefreshMode::AlwaysFull, &mvs);
    let inc = rig(budget, 1, RefreshMode::AlwaysIncremental, &mvs);
    refresh(&full, &plan);
    refresh(&inc, &plan);

    let spec = UpdateStreamSpec::inserts(0.05);
    for r in [&full, &inc] {
        churn(r, "store_sales", &spec, 17);
    }
    refresh(&full, &plan);
    let epoch = inc.disk().current_epoch();
    let im = refresh(&inc, &plan);
    assert_eq!(mv_tables(&full, &mvs), mv_tables(&inc, &mvs));

    let node = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap();
    assert_eq!(node("hot_sales").mode, NodeMode::Incremental);
    assert!(node("hot_sales").delta_bytes > budget);
    // One commit per refreshed MV, plus the spill's write (an unpinned
    // drop commits nothing).
    let refreshed = im.nodes.iter().filter(|n| n.mode != NodeMode::Skipped);
    assert_eq!(
        inc.disk().current_epoch() - epoch,
        refreshed.count() as u64 + 1
    );
    assert!(!node("hot_sales").flagged && node("hot_sales").fell_back);
    assert_eq!(im.peak_memory_bytes, 0, "nothing was admitted");
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
    inc.compact_mvs().unwrap();
    assert_eq!(mv_file_bytes(&full, &mvs), mv_file_bytes(&inc, &mvs));
    // The spill is transient: gone once the run ends.
    assert!(!inc.disk().contains("hot_sales#delta"));
}

/// The same parent under a budget its delta fits: although the plan
/// flags nothing, every consumer maintains incrementally, so the delta
/// enters the Memory Catalog and is read from there — no spill is
/// written, and the parent's own append runs off the critical path.
#[test]
fn all_incremental_parent_keeps_its_delta_in_the_catalog() {
    let mvs = mixed_workload();
    let plan = plan_for(&mvs, &[]);
    let full = rig(32 << 20, 1, RefreshMode::AlwaysFull, &mvs);
    let inc = rig(32 << 20, 1, RefreshMode::AlwaysIncremental, &mvs);
    refresh(&full, &plan);
    refresh(&inc, &plan);

    let spec = UpdateStreamSpec::inserts(0.05);
    for r in [&full, &inc] {
        churn(r, "store_sales", &spec, 17);
    }
    refresh(&full, &plan);
    let epoch = inc.disk().current_epoch();
    let im = refresh(&inc, &plan);
    assert_eq!(mv_tables(&full, &mvs), mv_tables(&inc, &mvs));

    let node = |name: &str| im.nodes.iter().find(|n| n.name == name).unwrap();
    let hot = node("hot_sales");
    assert_eq!(hot.mode, NodeMode::Incremental);
    assert!(hot.flagged && !hot.fell_back);
    assert_eq!(hot.write_s, 0.0, "the append is backgrounded");
    assert!(hot.appended_bytes > 0);
    assert!(im.peak_memory_bytes > 0 && im.peak_memory_bytes < hot.output_bytes);
    for consumer in ["bulk_hot_sales", "hot_enriched", "sales_by_item"] {
        assert!(node(consumer).memory_reads >= 1, "{consumer}");
    }
    // One commit per refreshed MV and nothing else: no delta file was
    // written.
    let refreshed = im.nodes.iter().filter(|n| n.mode != NodeMode::Skipped);
    assert_eq!(inc.disk().current_epoch() - epoch, refreshed.count() as u64);
    inc.compact_mvs().unwrap();
    assert_eq!(mv_file_bytes(&full, &mvs), mv_file_bytes(&inc, &mvs));
}

/// A batch ingested *while* a refresh runs may already be baked into the
/// MVs that run recomputed in full (executions read live bases); the
/// controller must detect this and poison the log so the next run
/// recomputes instead of applying the batch a second time. Whatever the
/// interleaving, the system must converge to a clean control.
#[test]
fn concurrent_ingest_during_refresh_never_double_applies() {
    // Slow the victim's disk so the refresh run leaves a wide window for
    // the concurrent ingest to land mid-run. The victim maintains
    // incrementally, so the one node that recomputes in full is `warm`:
    // a union (never delta-maintained) reached by the fact churn, which
    // reads ~100 KB of throttled channel tables (~100 ms) before it reads
    // `store_sales` live — late enough to *bake in* a batch ingested
    // meanwhile.
    let slow = Throttle {
        read_bps: 1e6,
        write_bps: 4e6,
        latency_s: 1e-3,
    };
    let mvs = vec![
        MvDefinition::new(
            "warm",
            LogicalPlan::scan("catalog_sales")
                .union(LogicalPlan::scan("web_sales"))
                .union(LogicalPlan::scan("store_sales")),
        ),
        // Delete-safe filter: maintains from the snapshotted delta alone.
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
    let victim = session_rig(
        32 << 20,
        1,
        RefreshMode::AlwaysIncremental,
        Some(slow),
        &mvs,
    );
    TinyTpcds::generate(0.4, 42)
        .load_into(victim.disk())
        .unwrap();
    refresh(&victim, &plan);

    // Δ1 pends normally; Δ2 is ingested from another thread while the
    // refresh consuming Δ1 is in flight, through the same (throttled)
    // session, so it lands inside `warm`'s paced reads. Both deltas are
    // generated before the run from bases no refresh touches, so both
    // streams are deterministic regardless of timing.
    let sales = victim.disk().read_table("store_sales").unwrap();
    let delta_1 = generate_delta(&sales, &UpdateStreamSpec::inserts(0.04), 21);
    victim.ingest_delta("store_sales", delta_1).unwrap();
    let sales = victim.disk().read_table("store_sales").unwrap();
    let delta_2 = generate_delta(&sales, &UpdateStreamSpec::inserts(0.03), 22);
    std::thread::scope(|scope| {
        let refresh_thread = scope.spawn(|| refresh(&victim, &plan));
        std::thread::sleep(std::time::Duration::from_millis(30));
        victim.ingest_delta("store_sales", delta_2).unwrap();
        refresh_thread.join().unwrap();
    });
    // If Δ2 landed mid-run it is already in the recomputed MVs and the
    // log must be poisoned; either way the retry must not double-apply.
    let poisoned = victim.delta_store().is_poisoned();
    let retry = refresh(&victim, &plan);
    if poisoned {
        assert!(
            retry.nodes.iter().all(|n| n.mode != NodeMode::Incremental),
            "poisoned log must force full recomputes"
        );
    }
    assert!(victim.delta_store().is_empty() && !victim.delta_store().is_poisoned());

    // Control: same bases, same two streams, refreshed serially with no
    // concurrency. The victim must converge to exactly this state.
    let control = rig(32 << 20, 1, RefreshMode::AlwaysFull, &mvs);
    refresh(&control, &plan);
    for seed in [21u64, 22] {
        let frac = if seed == 21 { 0.04 } else { 0.03 };
        churn(
            &control,
            "store_sales",
            &UpdateStreamSpec::inserts(frac),
            seed,
        );
        refresh(&control, &plan);
    }
    assert_eq!(
        mv_tables(&victim, &mvs),
        mv_tables(&control, &mvs),
        "the victim must converge to the serial control"
    );
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
    let full = rig(32 << 20, 1, RefreshMode::AlwaysFull, &mvs);
    let inc = rig(32 << 20, 1, RefreshMode::AlwaysIncremental, &mvs);
    refresh(&full, &plan);
    refresh(&inc, &plan);

    for (round, spec) in [
        UpdateStreamSpec::inserts(0.05),
        UpdateStreamSpec::mixed(0.02, 0.03, 0.02),
    ]
    .iter()
    .enumerate()
    {
        for r in [&full, &inc] {
            for table in ["store_sales", "catalog_sales"] {
                churn(r, table, spec, 31);
            }
        }
        refresh(&full, &plan);
        // Must not error: unsupported shapes recompute.
        let im = refresh(&inc, &plan);
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
    let victim = rig(64 << 20, 1, RefreshMode::AlwaysIncremental, &good);
    let control = rig(64 << 20, 1, RefreshMode::AlwaysIncremental, &good);
    refresh(&victim, &good_plan);
    refresh(&control, &good_plan);

    let churn = ChurnRound::inserts(["store_sales"], 0.03, 5);
    churn.ingest_into(&victim).unwrap();
    churn.ingest_into(&control).unwrap();

    // Doomed run on the victim: the hub and its consumers maintain
    // incrementally (their applied deltas are persisted), then a final MV
    // scans a missing table and aborts the run.
    victim
        .register_mv(MvDefinition::new("boom", LogicalPlan::scan("no_such")))
        .unwrap();
    let doomed_plan = plan_for(&victim.mvs(), &[]);
    assert!(victim.refresh_with_plan(&doomed_plan).is_err());
    assert!(
        victim.delta_store().is_poisoned(),
        "failed run must poison the log"
    );
    // The hub's committed append survives the failure (appends are
    // atomic at the manifest commit), leaving it fragmented…
    assert!(victim.disk().segment_count("enriched_sales").unwrap() > 1);

    // Retry once the missing table exists: no node may apply the delta a
    // second time.
    let stub = sc_engine::TableBuilder::new()
        .column("x", sc_engine::DataType::Int64)
        .build();
    victim.disk().write_table("no_such", &stub).unwrap();
    let retry = refresh(&victim, &doomed_plan);
    assert!(
        retry.nodes.iter().all(|n| n.mode != NodeMode::Incremental),
        "poisoned log forces full recomputes"
    );
    assert!(!victim.delta_store().is_poisoned() && victim.delta_store().is_empty());
    // …and the full recompute collapses it back to canonical form.
    assert_eq!(victim.disk().segment_count("enriched_sales").unwrap(), 1);

    // The control rig refreshes once, cleanly (appending), then compacts.
    refresh(&control, &good_plan);
    assert_eq!(
        mv_tables(&victim, &good),
        mv_tables(&control, &good),
        "recovered pipeline must be row-identical to a system that never failed"
    );
    victim.compact_mvs().unwrap();
    control.compact_mvs().unwrap();
    assert_eq!(
        mv_file_bytes(&victim, &good),
        mv_file_bytes(&control, &good),
        "compacted recovered pipeline must match a system that never failed"
    );
}
