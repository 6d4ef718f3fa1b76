//! Cross-crate tests for lane-count independence of the refresh executor:
//! N-lane and 1-lane runs must be observationally identical (byte-for-byte
//! MV contents — also against a controller-free oracle — identical flag
//! outcomes, drained Memory Catalog), and the whole profile → optimize →
//! refresh loop must be deterministic for a fixed dataset seed.

mod support;

use std::collections::BTreeSet;

use sc::ScSession;
use sc_core::Plan;
use sc_engine::RunMetrics;
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn system_with_data(budget: u64, scale: f64, lanes: usize) -> (tempfile::TempDir, ScSession) {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(budget)
        .lanes(lanes)
        .build()
        .unwrap();
    TinyTpcds::generate(scale, 42)
        .load_into(sys.disk())
        .unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
    (dir, sys)
}

/// The paper's three-call flow: profile, optimize, refresh under the plan.
fn profile_optimize_refresh(sys: &ScSession) -> (Plan, RunMetrics, RunMetrics) {
    let baseline = sys.baseline_refresh().unwrap();
    let plan = sys.optimize_from(&baseline).unwrap();
    let optimized = sys.refresh_with_plan(&plan).unwrap();
    (plan, baseline, optimized)
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

/// Differential test: `lanes = 1`, `2` and `4` refreshes of the same
/// optimized plan produce MV tables byte-identical to each other and to
/// the controller-free oracle, with the same flag outcomes and peak
/// catalog usage, at a budget that forces choices (8 MiB) and one where
/// everything fits (64 MiB).
#[test]
fn n_lane_refresh_is_byte_identical_to_one_lane_and_the_oracle() {
    for budget in [8u64 << 20, 64 << 20] {
        let (_d1, one_sys) = system_with_data(budget, 0.5, 1);
        let (one_plan, _, one_run) = profile_optimize_refresh(&one_sys);
        assert!(
            one_plan.flagged.count() > 0,
            "expected flagging at {budget} bytes"
        );
        let oracle = support::oracle_mv_bytes(one_sys.disk(), &one_sys.mvs());
        let one_files = mv_file_bytes(&one_sys);

        for lanes in [1usize, 2, 4] {
            let (_d, sys) = system_with_data(budget, 0.5, lanes);
            assert_eq!(sys.refresh_config().lanes, lanes);
            let (plan, _, run) = profile_optimize_refresh(&sys);
            // Same data, same profile → same plan at every lane count.
            assert_eq!(plan, one_plan, "plans must agree across lane counts");
            assert_eq!(run.peak_memory_bytes, one_run.peak_memory_bytes);

            let files = mv_file_bytes(&sys);
            assert_eq!(
                files, one_files,
                "stored MVs differ between 1 and {lanes} lanes"
            );
            for ((name, files), (oracle_name, want)) in files.iter().zip(&oracle) {
                assert_eq!(name, oracle_name);
                // A full refresh stores manifest + one canonical segment.
                assert_eq!(files.len(), 2, "{name}: manifest + one segment");
                assert_eq!(
                    &files[1].1, want,
                    "{lanes} lanes, {budget} bytes: '{name}' differs from the oracle"
                );
            }
        }
    }
}

/// Node metrics are reported in plan order with the same row counts,
/// sizes, flag outcomes and input sources at four lanes as at one.
#[test]
fn four_lane_metrics_agree_with_one_lane() {
    let (_d1, one_sys) = system_with_data(8 << 20, 0.5, 1);
    let (_d2, four_sys) = system_with_data(8 << 20, 0.5, 4);
    let (_, _, one_run) = profile_optimize_refresh(&one_sys);
    let (_, _, four_run) = profile_optimize_refresh(&four_sys);
    for (a, b) in one_run.nodes.iter().zip(&four_run.nodes) {
        assert_eq!(a.name, b.name, "metrics must stay in plan order");
        assert_eq!(a.rows, b.rows, "{} row count differs", a.name);
        assert_eq!(a.output_bytes, b.output_bytes, "{} size differs", a.name);
        assert_eq!(a.flagged, b.flagged, "{} flag status differs", a.name);
        assert_eq!(a.fell_back, b.fell_back, "{} fallback differs", a.name);
        assert_eq!(a.memory_reads, b.memory_reads, "{}", a.name);
        assert_eq!(a.disk_reads, b.disk_reads, "{}", a.name);
    }
}

/// The node set of a run, independent of wall-clock completion order.
fn node_set(run: &RunMetrics) -> BTreeSet<(String, usize, u64, bool)> {
    run.nodes
        .iter()
        .map(|n| (n.name.clone(), n.rows, n.output_bytes, n.flagged))
        .collect()
}

/// Determinism: two systems built from the same TinyTpcds seed yield
/// identical plans and identical `RunMetrics` node sets.
#[test]
fn same_seed_yields_identical_plans_and_node_sets() {
    let (_d1, sys_a) = system_with_data(8 << 20, 0.5, 4);
    let (_d2, sys_b) = system_with_data(8 << 20, 0.5, 4);

    let (plan_a, base_a, opt_a) = profile_optimize_refresh(&sys_a);
    let (plan_b, base_b, opt_b) = profile_optimize_refresh(&sys_b);

    assert_eq!(plan_a, plan_b, "same seed must give the same plan");
    assert_eq!(node_set(&base_a), node_set(&base_b));
    assert_eq!(node_set(&opt_a), node_set(&opt_b));
    // And across a re-refresh of the same plan.
    let again = sys_a.refresh_with_plan(&plan_a).unwrap();
    assert_eq!(node_set(&again), node_set(&opt_a));
}

/// A different seed changes the data (sanity check that the determinism
/// test is not vacuous).
#[test]
fn different_seed_changes_the_data() {
    let (_d1, sys_a) = system_with_data(8 << 20, 0.3, 1);
    let dir_b = tempfile::tempdir().unwrap();
    let disk_b = sc_engine::storage::DiskCatalog::open(dir_b.path()).unwrap();
    TinyTpcds::generate(0.3, 43).load_into(&disk_b).unwrap();
    let a = sys_a.disk().read_table("store_sales").unwrap();
    let b = disk_b.read_table("store_sales").unwrap();
    assert_ne!(a, b, "different seeds must generate different fact tables");
}
