//! Memory Catalog sizing study (the Figure 11 experiment in miniature):
//! sweep the budget from 0.4 % to 6.4 % of the dataset size on the 100 GB
//! date-partitioned TPC-DS workloads and report the end-to-end speedup,
//! for both spare-memory and reallocated-query-memory configurations.
//!
//! ```sh
//! cargo run --release --example memory_sweep
//! ```
//!
//! This experiment is simulator-only (paper-scale data); for engine+sim
//! rigs driven from one shared value, see `sc_workload::ScenarioSpec`
//! and `ScenarioSpec::open`.

use sc::prelude::*;
use sc_core::ScOptimizer;

fn main() {
    let dataset = DatasetSpec::tpcds_partitioned(100.0);
    let percents = [0.4, 0.8, 1.6, 3.2, 6.4];

    println!("dataset: {}", dataset.label());
    println!(
        "{:>8} | {:>14} | {:>16}",
        "mem %", "spare memory", "query memory"
    );
    println!("{:->8}-+-{:->14}-+-{:->16}", "", "", "");

    for &pct in &percents {
        let budget = dataset.memory_budget(pct);
        let mut row = Vec::new();
        for query_memory in [false, true] {
            let mut config = SimConfig::paper(budget);
            if query_memory {
                // Shrinking DBMS query memory by the catalog's share slows
                // operators slightly (hash tables spill sooner).
                config.compute_penalty = 0.02 * pct;
            }
            let sim = Simulator::new(config.clone());

            let mut base_total = 0.0;
            let mut sc_total = 0.0;
            for w in PaperWorkload::all() {
                let built = w.build(&dataset);
                let problem = built.problem(&config).expect("valid workload");
                let plan = ScOptimizer::default()
                    .optimize(&problem)
                    .expect("optimizable");
                base_total += sim.run_unoptimized(&built).expect("valid run").total_s;
                sc_total += sim.run(&built, &plan).expect("valid run").total_s;
            }
            row.push(base_total / sc_total);
        }
        println!("{:>7}% | {:>13.2}x | {:>15.2}x", pct, row[0], row[1]);
    }
    println!("\n(paper, Figure 11: 1.50x at 0.4% up to 4.35x at 6.4%; query-memory");
    println!(" reallocation costs at most 0.25x of speedup)");
}
