//! Property-based **incremental-vs-full differential harness**.
//!
//! The correctness bar for incremental maintenance on segmented storage
//! is the **equality contract**: *row-identity with full recomputation
//! after every round* (append-path rounds legitimately fragment the file
//! layout) and *byte-identity of every stored file after `compact()`*.
//! This suite holds that bar over randomized inputs: each case generates
//! a random MV DAG (scan / filter / project / keyed inner join /
//! aggregate / union / sort+limit over 2–5 base tables) and a seeded
//! schedule of insert / update / delete streams, then drives three rigs
//! through the same churn — one refreshing `AlwaysFull` (the reference,
//! itself checked every round against the controller-free oracle of
//! `tests/support`, so the executor is never its own judge), two
//! refreshing `AlwaysIncremental` on 1 and 4 lanes. After every round
//! the incremental rigs must be row-identical to the reference and
//! byte-identical to *each other* (identical operation histories must
//! produce identical segment layouts, fragmented or not); after a final
//! compaction every file must be byte-identical across all three.
//!
//! Because the DAGs include shapes on *both* sides of the support
//! boundary (delta-joins with static build sides, self-joins whose build
//! side churns, unmergeable `Avg` aggregates, unions, sorts), the same
//! property also proves the boundary is drawn correctly: unsupported
//! shapes must fall back to recomputation rather than corrupt or error.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sc_core::{FlagSet, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::controller::MvDefinition;
use sc_engine::exec::{AggFunc, SortKey};
use sc_engine::expr::Expr;
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage;
use sc_engine::{DataType, RunMetrics, ScSession, Table, TableBuilder, Value};
use sc_workload::updates::{generate_delta, UpdateStreamSpec};

/// One generated scenario: base tables, an MV DAG over them, a churn
/// schedule, and controller knobs.
struct Case {
    tables: Vec<(String, Table)>,
    mvs: Vec<MvDefinition>,
    /// Per round: `(table, stream spec)` churn against the current bases.
    rounds: Vec<Vec<(String, UpdateStreamSpec)>>,
    flagged: Vec<usize>,
    budget: u64,
}

/// All base tables (and canonical MVs) share this schema, so any source
/// can feed any operator: `k` joins, `g` groups, `v` measures.
fn base_table(rng: &mut StdRng) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("g", DataType::Int64)
        .column("v", DataType::Float64)
        .build();
    for _ in 0..rng.gen_range(20..50) {
        t.push_row(vec![
            Value::Int64(rng.gen_range(0..10)),
            Value::Int64(rng.gen_range(0..5)),
            Value::Float64(rng.gen_range(0..8000) as f64 / 8.0),
        ])
        .unwrap();
    }
    t
}

fn build_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_tables = rng.gen_range(2..=5usize);
    let tables: Vec<(String, Table)> = (0..n_tables)
        .map(|i| (format!("b{i}"), base_table(&mut rng)))
        .collect();

    // Sources a later MV may scan: base tables plus every earlier MV that
    // kept the canonical (k, g, v) schema.
    let mut row_sources: Vec<String> = tables.iter().map(|(n, _)| n.clone()).collect();
    let mut mvs: Vec<MvDefinition> = Vec::new();
    let mut joins_used = 0usize;
    let n_mvs = rng.gen_range(3..=8usize);
    for i in 0..n_mvs {
        let name = format!("mv{i}");
        let src = row_sources[rng.gen_range(0..row_sources.len())].clone();
        let filter_of = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => Expr::col("v").gt(Expr::lit(rng.gen_range(0..500) as f64)),
            1 => Expr::col("g").eq(Expr::lit(rng.gen_range(0..5i64))),
            _ => Expr::col("k").lt(Expr::lit(rng.gen_range(2..10i64))),
        };
        let (plan, canonical) = match rng.gen_range(0..10) {
            // Keyed inner join — the delta-join shape (capped to bound
            // fan-out blowup). The build side may be a base table or an
            // earlier MV; picking the same source on both sides yields a
            // self-join whose build side churns with its probe side.
            0..=2 if joins_used < 2 => {
                joins_used += 1;
                let right = row_sources[rng.gen_range(0..row_sources.len())].clone();
                let mut left = LogicalPlan::scan(&src);
                if rng.gen_bool(0.5) {
                    left = left.filter(filter_of(&mut rng));
                }
                let joined = left.join(LogicalPlan::scan(&right), vec![("k".into(), "k".into())]);
                if rng.gen_bool(0.7) {
                    // Project back to the canonical schema so later MVs
                    // can consume the hub.
                    (
                        joined.project(vec![
                            (Expr::col("k"), "k".into()),
                            (Expr::col("g"), "g".into()),
                            (Expr::col("v").add(Expr::col("v_r")), "v".into()),
                        ]),
                        true,
                    )
                } else {
                    (joined, false) // 6-column sink
                }
            }
            // Aggregate sink, occasionally with an unmergeable Avg.
            3..=4 => {
                let mut aggs = vec![
                    AggExpr::new(AggFunc::Sum, "v", "s"),
                    AggExpr::new(AggFunc::Count, "v", "n"),
                ];
                match rng.gen_range(0..3) {
                    0 => aggs.push(AggExpr::new(AggFunc::Min, "v", "lo")),
                    1 => aggs.push(AggExpr::new(AggFunc::Avg, "v", "m")),
                    _ => aggs.push(AggExpr::new(AggFunc::Max, "v", "hi")),
                }
                (
                    LogicalPlan::scan(&src).aggregate(vec!["g".into()], aggs),
                    false,
                )
            }
            // Union — always recomputed.
            5 => {
                let other = row_sources[rng.gen_range(0..row_sources.len())].clone();
                (
                    LogicalPlan::scan(&src).union(LogicalPlan::scan(&other)),
                    true,
                )
            }
            // Sort + limit — always recomputed, keeps the schema.
            6 => (
                LogicalPlan::scan(&src)
                    .sort(vec![SortKey::desc("v"), SortKey::asc("k")])
                    .limit(rng.gen_range(5..40)),
                true,
            ),
            // Projection chain (lossy: insert-only maintenance).
            7 => (
                LogicalPlan::scan(&src).project(vec![
                    (Expr::col("k"), "k".into()),
                    (Expr::col("g"), "g".into()),
                    (Expr::col("v").mul(Expr::lit(2.0f64)), "v".into()),
                ]),
                true,
            ),
            // Filter chain (the only delete-safe shape).
            _ => {
                let mut plan = LogicalPlan::scan(&src).filter(filter_of(&mut rng));
                if rng.gen_bool(0.3) {
                    plan = plan.filter(filter_of(&mut rng));
                }
                (plan, true)
            }
        };
        if canonical {
            row_sources.push(name.clone());
        }
        mvs.push(MvDefinition::new(name, plan));
    }

    let rounds = (0..rng.gen_range(1..=2usize))
        .map(|_| {
            let mut churn = Vec::new();
            for (t, _) in &tables {
                if rng.gen_bool(0.5) {
                    let spec = match rng.gen_range(0..4) {
                        0 | 1 => UpdateStreamSpec::inserts(0.10),
                        2 => UpdateStreamSpec::mixed(0.06, 0.04, 0.03),
                        _ => UpdateStreamSpec::mixed(0.0, 0.0, 0.08),
                    };
                    churn.push((t.clone(), spec));
                }
            }
            churn
        })
        .collect();

    let flagged = (0..mvs.len()).filter(|_| rng.gen_bool(0.3)).collect();
    let budget = [4u64 << 10, 256 << 10, 64 << 20][rng.gen_range(0..3usize)];
    Case {
        tables,
        mvs,
        rounds,
        flagged,
        budget,
    }
}

/// A session over the case's tables and MVs, refreshing on `lanes` lanes
/// under `mode`.
struct Rig {
    session: ScSession,
    _dir: tempfile::TempDir,
}

fn rig(case: &Case, lanes: usize, mode: RefreshMode) -> Rig {
    let dir = tempfile::tempdir().unwrap();
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(case.budget)
        .lanes(lanes)
        .refresh_mode(mode)
        .runtime_feedback(false)
        .build()
        .unwrap();
    for (name, table) in &case.tables {
        session.disk().write_table(name, table).unwrap();
    }
    for mv in &case.mvs {
        session.register_mv(mv.clone()).unwrap();
    }
    Rig { session, _dir: dir }
}

fn refresh(r: &Rig, plan: &Plan) -> RunMetrics {
    r.session.refresh_with_plan(plan).unwrap()
}

/// All stored files (manifest + segments) backing one MV.
fn mv_files(r: &Rig, name: &str) -> Vec<(String, Vec<u8>)> {
    r.session.disk().stored_file_bytes(name).unwrap()
}

// The differential property: after every churn round, the always-full
// reference equals the controller-free oracle, and incremental
// maintenance (1 and 4 lanes) leaves every MV row-identical to that
// reference and byte-identical across lane counts, drains
// the Memory Catalog, consumes the delta log, and leaves no spilled
// `#delta` files behind; after compaction, every stored file is
// byte-identical to the reference.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_matches_full_on_random_dags(seed in 0u64..1_000_000_000) {
        let case = build_case(seed);
        let plan = Plan {
            order: (0..case.mvs.len()).map(NodeId).collect(),
            flagged: FlagSet::from_nodes(case.mvs.len(), case.flagged.iter().map(|&i| NodeId(i))),
        };
        let reference = rig(&case, 1, RefreshMode::AlwaysFull);
        let inc1 = rig(&case, 1, RefreshMode::AlwaysIncremental);
        let inc4 = rig(&case, 4, RefreshMode::AlwaysIncremental);
        // First materialization is necessarily full on every rig: the
        // incremental rigs' delta logs are still empty.
        for r in [&reference, &inc1, &inc4] {
            refresh(r, &plan);
        }

        for (round, churn) in case.rounds.iter().enumerate() {
            // Identical churn lands on every rig: the bases are identical
            // (byte-identity held last round), so the seeded streams are
            // identical too.
            for r in [&reference, &inc1, &inc4] {
                for (table, spec) in churn {
                    let base = r.session.disk().read_table(table).unwrap();
                    let delta = generate_delta(&base, spec, seed ^ (round as u64 * 7919 + 13));
                    r.session.ingest_delta(table, delta).unwrap();
                }
            }
            refresh(&reference, &plan);
            let m1 = refresh(&inc1, &plan);
            let m4 = refresh(&inc4, &plan);

            let oracle = support::oracle_mv_bytes(reference.session.disk(), &case.mvs);
            for (mv, (_, oracle_bytes)) in case.mvs.iter().zip(&oracle) {
                let want = reference.session.disk().read_table(&mv.name).unwrap();
                prop_assert_eq!(
                    &storage::format::encode(&want)[..],
                    &oracle_bytes[..],
                    "seed {} round {round}: full refresh of {} diverged from the oracle",
                    seed,
                    mv.name
                );
                prop_assert_eq!(
                    &want,
                    &inc1.session.disk().read_table(&mv.name).unwrap(),
                    "seed {} round {round}: 1-lane incremental diverged on {}",
                    seed,
                    mv.name
                );
                prop_assert_eq!(
                    &want,
                    &inc4.session.disk().read_table(&mv.name).unwrap(),
                    "seed {} round {round}: 4-lane incremental diverged on {}",
                    seed,
                    mv.name
                );
                // Identical operation histories must produce identical
                // segment layouts, appended or not — lane count included.
                prop_assert_eq!(
                    &mv_files(&inc1, &mv.name),
                    &mv_files(&inc4, &mv.name),
                    "seed {} round {round}: lane count changed {}'s stored files",
                    seed,
                    mv.name
                );
                prop_assert!(
                    !inc1.session.disk().contains(&format!("{}#delta", mv.name)),
                    "spill files are transient"
                );
            }
            // Lane count must not change maintenance decisions.
            for (a, b) in m1.nodes.iter().zip(&m4.nodes) {
                prop_assert_eq!(a.mode, b.mode, "seed {} round {round}: {}", seed, a.name);
            }
            for r in [&reference, &inc1, &inc4] {
                prop_assert!(
                    r.session.delta_store().is_empty(),
                    "successful refresh consumes the log"
                );
            }
        }
        // The contract's second half: compaction restores the canonical
        // single-segment form, byte-identical to the reference.
        for mv in &case.mvs {
            inc1.session.disk().compact(&mv.name).unwrap();
            inc4.session.disk().compact(&mv.name).unwrap();
            prop_assert_eq!(inc1.session.disk().segment_count(&mv.name).unwrap(), 1);
            let want = mv_files(&reference, &mv.name);
            prop_assert_eq!(
                &want,
                &mv_files(&inc1, &mv.name),
                "seed {}: compacted {} diverged from the reference",
                seed,
                mv.name
            );
            prop_assert_eq!(
                &want,
                &mv_files(&inc4, &mv.name),
                "seed {}: compacted {} (4 lanes) diverged from the reference",
                seed,
                mv.name
            );
        }
    }
}
