//! # sc-sim — deterministic refresh-run simulation
//!
//! The paper evaluates S/C on TPC-DS datasets up to 1 TB on a Presto
//! cluster. Those scales are not reproducible on a laptop, so this crate
//! replays refresh runs *analytically*: given a workload DAG annotated with
//! per-node compute seconds and output sizes, plus a calibrated cost model
//! (§VI-A: 519.8 MB/s disk read, 358.9 MB/s write, 175 µs latency), it
//! simulates the exact controller semantics of `sc-engine`:
//!
//! * a pool of compute lanes ([`SimConfig::with_lanes`]) starting nodes
//!   by the engine's own start rule ([`sc_core::Dispatch`]) — one lane
//!   (the default) executes strictly in plan order, the paper's
//!   sequential issue of MV statements;
//! * a storage write channel shared by blocking and background
//!   materializations (FIFO, bandwidth-limited);
//! * flagged nodes created in memory, materialized in the background, and
//!   released once all consumers executed;
//! * strict Memory Catalog accounting with fallback-to-disk on pressure;
//! * per-node maintenance modes (skip / incremental / full) for churn
//!   scenarios, decided by the engine's own rules
//!   ([`sc_core::modes::plan`]), with the same [`sc_core::ModeReason`]s.
//!
//! The simulator also models the two §VI baselines that are systems rather
//! than algorithms: the DBMS **LRU result cache** (Figure 9) via
//! [`Simulator::run_lru`], and **multi-worker clusters** (Table V) via
//! [`ClusterModel`].
//!
//! ```
//! use sc_sim::{SimNode, SimWorkload, Simulator, SimConfig};
//! use sc_core::{ScOptimizer, Plan};
//!
//! let w = SimWorkload::from_parts(
//!     [
//!         SimNode::new("mv1", 2.0, 4 << 30, 8 << 30),
//!         SimNode::new("mv2", 1.0, 1 << 30, 0),
//!         SimNode::new("mv3", 1.0, 1 << 30, 0),
//!     ],
//!     [(0, 1), (0, 2)],
//! )
//! .unwrap();
//! let config = SimConfig::paper(2 << 30); // 2 GiB Memory Catalog
//! let problem = w.problem(&config).unwrap();
//! let plan = ScOptimizer::default().optimize(&problem).unwrap();
//!
//! let sim = Simulator::new(config);
//! let baseline = sim.run_unoptimized(&w).unwrap();
//! let optimized = sim.run(&w, &plan).unwrap();
//! assert!(optimized.total_s < baseline.total_s);
//! ```

#![warn(missing_docs)]

mod cluster;
mod error;
mod lru;
mod report;
mod simulator;
mod workload;

pub use cluster::ClusterModel;
pub use error::{Result, SimError};
pub use report::{NodeTimeline, SimReport};
pub use simulator::{SimConfig, Simulator};
pub use workload::{SimChurn, SimNode, SimWorkload};
