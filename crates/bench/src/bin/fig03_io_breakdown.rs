//! **Figure 3**: runtime breakdown (read base tables / compute joins /
//! write final output) of a CTAS materializing a multi-way fact-dimension
//! join, across dataset sizes.
//!
//! Small scales run for real on `sc-engine` with the paper-calibrated disk
//! throttle; the paper's 1 GB–1000 GB axis is reproduced with the cost
//! model (the join is the Figure 3 measurement, not an S/C run — no
//! optimization is involved).

use sc_bench::print_header;
use sc_core::Plan;
use sc_dag::NodeId;
use sc_engine::storage::Throttle;
use sc_engine::ScSession;
use sc_sim::{SimConfig, SimNode, SimWorkload, Simulator};
use sc_workload::engine_mvs::fact_join_mv;
use sc_workload::tpcds::TinyTpcds;

fn main() {
    println!("Figure 3 — runtime breakdown of a 4-table join materialization\n");

    // --- real engine runs at laptop scales.
    println!("(a) real sc-engine runs, paper-throttled disk:");
    print_header(&[
        ("scale", 7),
        ("total s", 9),
        ("read %", 7),
        ("compute %", 9),
        ("write %", 8),
    ]);
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let dir = tempfile::tempdir().expect("tempdir");
        // A 1-byte Memory Catalog: unused, nothing is flagged.
        let session = ScSession::builder()
            .storage_dir(dir.path())
            .throttle(Throttle::paper_disk())
            .memory_budget(1)
            .runtime_feedback(false)
            .build()
            .expect("open session");
        TinyTpcds::generate(scale, 42)
            .load_into(session.disk())
            .expect("ingest");
        session.register_mv(fact_join_mv()).expect("register");
        let metrics = session
            .refresh_with_plan(&Plan::unoptimized(vec![NodeId(0)]))
            .expect("refresh");
        let n = &metrics.nodes[0];
        let total = n.read_s + n.compute_s + n.write_s;
        println!(
            "{:>7} | {:>9.3} | {:>6.1}% | {:>8.1}% | {:>7.1}%",
            format!("x{scale}"),
            total,
            100.0 * n.read_s / total,
            100.0 * n.compute_s / total,
            100.0 * n.write_s / total
        );
    }

    // --- cost-model projection over the paper's 1–1000 GB axis. The
    // Figure 3 join reads ~46% of the dataset (customer+orders+lineitem+
    // nation in TPC-H terms) and writes a joined result of similar size;
    // compute is SF-proportional.
    println!("\n(b) cost-model projection (paper axis):");
    print_header(&[
        ("scale", 7),
        ("total s", 9),
        ("read %", 7),
        ("compute %", 9),
        ("write %", 8),
    ]);
    for (sf, label) in [
        (1.0f64, "1G"),
        (10.0, "10G"),
        (100.0, "100G"),
        (1000.0, "1000G"),
    ] {
        let read_bytes = (0.46 * sf * 1e9) as u64;
        let out_bytes = (0.40 * sf * 1e9) as u64;
        // Compute grows slightly sublinearly in the paper (5.4 s at 1 GB is
        // mostly fixed overhead); keep it linear with a floor.
        let compute_s = (1.4 * sf / 100.0).max(1.6);
        let w = SimWorkload::from_parts(
            [SimNode::new("ctas_join", compute_s, out_bytes, read_bytes)],
            std::iter::empty(),
        )
        .expect("single node");
        let sim = Simulator::new(SimConfig::paper(1));
        let r = sim.run_unoptimized(&w).expect("runs");
        let n = &r.nodes[0];
        let total = n.read_s + n.compute_s + n.write_s;
        println!(
            "{:>7} | {:>9.1} | {:>6.1}% | {:>8.1}% | {:>7.1}%",
            label,
            total,
            100.0 * n.read_s / total,
            100.0 * n.compute_s / total,
            100.0 * n.write_s / total
        );
    }
    println!("\npaper: write takes 37%-69% of each statement's runtime as scale grows");
}
