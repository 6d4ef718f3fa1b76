//! Cross-crate integration tests: the full profile → optimize → refresh
//! loop on the real engine, correctness invariants of S/C plans, and the
//! engine/simulator agreement on plan rankings.

use std::collections::HashMap;

use sc::prelude::*;
use sc::ScSession;
use sc_core::ScOptimizer;
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn system_with_data(budget: u64, scale: f64) -> (tempfile::TempDir, ScSession) {
    let dir = tempfile::tempdir().unwrap();
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(budget)
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

#[test]
fn optimized_run_produces_byte_identical_mvs() {
    let (_dir, sys) = system_with_data(8 << 20, 0.5);
    let baseline = sys.baseline_refresh().unwrap();
    let baseline_tables: Vec<_> = sys
        .mvs()
        .iter()
        .map(|mv| sys.disk().read_table(&mv.name).unwrap())
        .collect();

    let plan = sys.optimize_from(&baseline).unwrap();
    assert!(
        plan.flagged.count() > 0,
        "expected some flagging at this budget"
    );
    let optimized = sys.refresh_with_plan(&plan).unwrap();
    assert_eq!(optimized.nodes.len(), sys.mvs().len());

    for (mv, before) in sys.mvs().iter().zip(baseline_tables) {
        let after = sys.disk().read_table(&mv.name).unwrap();
        assert_eq!(
            before, after,
            "S/C must not change the contents of {}",
            mv.name
        );
    }
}

#[test]
fn plans_respect_budget_and_dependencies() {
    let (_dir, sys) = system_with_data(2 << 20, 0.5);
    let baseline = sys.baseline_refresh().unwrap();
    let sizes: HashMap<&str, u64> = baseline
        .nodes
        .iter()
        .map(|n| (n.name.as_str(), n.output_bytes))
        .collect();
    let graph = sys
        .dependency_graph()
        .unwrap()
        .map(|_, name| (name.clone(), sizes[name.as_str()]));
    let problem = CostModel::paper()
        .build_problem(&graph, sys.memory_budget(), |_| None)
        .unwrap();
    let plan = ScOptimizer::default().optimize(&problem).unwrap();
    assert!(problem.graph().is_topological_order(&plan.order));
    assert!(problem.is_feasible(&plan.order, &plan.flagged).unwrap());
    let optimized = sys.refresh_with_plan(&plan).unwrap();
    assert!(
        optimized.peak_memory_bytes <= sys.memory_budget(),
        "runtime peak {} must stay within {}",
        optimized.peak_memory_bytes,
        sys.memory_budget()
    );
}

#[test]
fn flagged_hub_is_read_from_memory_by_all_consumers() {
    let (_dir, sys) = system_with_data(32 << 20, 0.5);
    let baseline = sys.baseline_refresh().unwrap();
    let plan = sys.optimize_from(&baseline).unwrap();
    // The enriched_sales hub (3 consumers, big output) must be flagged.
    assert!(
        plan.flagged.contains(NodeId(0)),
        "hub must be flagged: {plan:?}"
    );
    let optimized = sys.refresh_with_plan(&plan).unwrap();
    let hub_consumers: Vec<_> = optimized
        .nodes
        .iter()
        .filter(|n| ["rev_by_category", "rev_by_year", "premium_sales"].contains(&n.name.as_str()))
        .collect();
    assert_eq!(hub_consumers.len(), 3);
    for c in hub_consumers {
        assert!(
            c.memory_reads >= 1,
            "{} should read the hub from memory",
            c.name
        );
    }
}

#[test]
fn tiny_budget_degrades_gracefully_to_baseline_behavior() {
    let (_dir, sys) = system_with_data(64, 0.3); // 64 bytes: nothing fits
    let baseline = sys.baseline_refresh().unwrap();
    let plan = sys.optimize_from(&baseline).unwrap();
    assert_eq!(
        plan.flagged.count(),
        0,
        "nothing can be flagged in 64 bytes"
    );
    let run = sys.refresh_with_plan(&plan).unwrap();
    assert_eq!(run.peak_memory_bytes, 0);
    for mv in sys.mvs() {
        assert!(sys.disk().contains(&mv.name));
    }
}

#[test]
fn simulator_and_engine_agree_on_plan_ranking() {
    // Build a simulation twin of the engine pipeline from profiled
    // metrics, then check both rank "S/C plan" above "no flags".
    let dir = tempfile::tempdir().unwrap();
    let throttle = Throttle {
        read_bps: 30e6,
        write_bps: 20e6,
        latency_s: 1e-3,
    };
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(16 << 20)
        .throttle(throttle)
        .build()
        .unwrap();
    TinyTpcds::generate(1.0, 42).load_into(sys.disk()).unwrap();
    for mv in sales_pipeline() {
        sys.register_mv(mv).unwrap();
    }
    let baseline = sys.baseline_refresh().unwrap();
    let plan = sys.optimize_from(&baseline).unwrap();
    let optimized = sys.refresh_with_plan(&plan).unwrap();
    let engine_speedup = baseline.total_s / optimized.total_s;

    // Simulation twin: per-node compute + sizes from the profile.
    let graph = sys.dependency_graph().unwrap();
    let nodes: Vec<SimNode> = baseline
        .nodes
        .iter()
        .map(|n| {
            // Base reads: disk reads not explained by parent MVs.
            SimNode::new(&n.name, n.compute_s, n.output_bytes, 0)
        })
        .collect();
    let edges: Vec<(usize, usize)> = graph.edges().map(|(a, b)| (a.index(), b.index())).collect();
    let w = SimWorkload::from_parts(nodes, edges).unwrap();
    let config = SimConfig {
        disk_read_bps: 30e6,
        disk_write_bps: 20e6,
        disk_latency_s: 1e-3,
        per_node_overhead_s: 0.0,
        ..SimConfig::paper(16 << 20)
    };
    let sim = Simulator::new(config);
    let sim_base = sim.run_unoptimized(&w).unwrap();
    let sim_sc = sim.run(&w, &plan).unwrap();
    let sim_speedup = sim_base.total_s / sim_sc.total_s;

    assert!(
        engine_speedup > 1.0,
        "engine: S/C must win ({engine_speedup:.2})"
    );
    assert!(sim_speedup > 1.0, "sim: S/C must win ({sim_speedup:.2})");
}

#[test]
fn repeated_refreshes_are_idempotent() {
    let (_dir, sys) = system_with_data(8 << 20, 0.3);
    let plan = sys.optimize_from(&sys.baseline_refresh().unwrap()).unwrap();
    let first = sys.refresh_with_plan(&plan).unwrap();
    let second = sys.refresh_with_plan(&plan).unwrap();
    assert_eq!(first.nodes.len(), second.nodes.len());
    for (a, b) in first.nodes.iter().zip(&second.nodes) {
        assert_eq!(
            a.output_bytes, b.output_bytes,
            "{} changed between runs",
            a.name
        );
        assert_eq!(a.rows, b.rows);
    }
}
