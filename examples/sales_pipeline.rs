//! A closer look at one refresh run: per-MV timing breakdown on the real
//! execution engine, baseline vs S/C, over throttled storage.
//!
//! ```sh
//! cargo run --release --example sales_pipeline
//! ```

use std::collections::HashMap;

use sc::prelude::*;
use sc::ScSession;

fn print_run(label: &str, metrics: &sc::engine::RunMetrics) {
    println!("\n=== {label}: {:.3}s end-to-end ===", metrics.total_s);
    println!(
        "{:<18} | {:>8} | {:>8} | {:>8} | {:>9} | {:>5}",
        "mv", "read s", "cmpt s", "write s", "bytes", "flag"
    );
    println!(
        "{:-<18}-+-{:->8}-+-{:->8}-+-{:->8}-+-{:->9}-+-{:->5}",
        "", "", "", "", "", ""
    );
    for n in &metrics.nodes {
        println!(
            "{:<18} | {:>8.3} | {:>8.3} | {:>8.3} | {:>9} | {:>5}",
            n.name,
            n.read_s,
            n.compute_s,
            n.write_s,
            n.output_bytes,
            if n.flagged { "mem" } else { "disk" }
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = tempfile::tempdir()?;
    // A slower-than-paper disk exaggerates the effect so the demo is quick
    // but the breakdown is legible.
    let throttle = Throttle {
        read_bps: 40e6,
        write_bps: 25e6,
        latency_s: 1e-3,
    };
    let sys = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(16 << 20)
        .throttle(throttle)
        .build()?;

    sc::workload::tpcds::TinyTpcds::generate(2.0, 7).load_into(sys.disk())?;
    for mv in sc::workload::engine_mvs::sales_pipeline() {
        sys.register_mv(mv)?;
    }

    let baseline = sys.baseline_refresh()?;
    let plan = sys.optimize_from(&baseline)?;
    let optimized = sys.refresh_with_plan(&plan)?;
    print_run("baseline (no optimization)", &baseline);
    print_run("S/C optimized", &optimized);

    // Rebuild the optimizer's input only to print score/size totals: the
    // dependency graph with each MV's profiled output size.
    let sizes: HashMap<&str, u64> = baseline
        .nodes
        .iter()
        .map(|n| (n.name.as_str(), n.output_bytes))
        .collect();
    let graph = sys
        .dependency_graph()?
        .map(|_, name| (name.clone(), sizes[name.as_str()]));
    let problem = CostModel::paper().build_problem(&graph, sys.memory_budget(), |_| None)?;
    println!("\nplan: {}", plan.summary(&problem));
    println!(
        "speedup: {:.2}x (peak memory {} / {} bytes)",
        baseline.total_s / optimized.total_s,
        optimized.peak_memory_bytes,
        sys.memory_budget()
    );
    Ok(())
}
