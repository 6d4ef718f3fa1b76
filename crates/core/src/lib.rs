//! # sc-core — the S/C Opt optimizer
//!
//! This crate implements the primary contribution of *"S/C: Speeding up Data
//! Materialization with Bounded Memory"* (Li, Pi, Park — ICDE 2023): given a
//! DAG of materialized-view updates together with per-node output sizes and
//! *speedup scores*, jointly choose
//!
//! 1. a set of **flagged** nodes [`FlagSet`] whose outputs are kept in a
//!    bounded in-memory catalog, and
//! 2. a topological **execution order** `τ`,
//!
//! so that the total speedup score of flagged nodes is maximized while the
//! peak size of co-resident flagged outputs never exceeds the Memory Catalog
//! budget `M` (**Problem 1, S/C Opt**).
//!
//! The solver mirrors the paper's structure:
//!
//! * [`constraints`] — the per-position constraint sets `Vi` and the
//!   redundancy pruning of Algorithm 1 (`SimplifiedMKP` preprocessing);
//! * [`mkp`] — a branch-and-bound solver for the multidimensional 0-1
//!   knapsack that solves **S/C Opt Nodes** (Problem 2) exactly;
//! * [`select`] — node-selection strategies: the MKP solution plus the
//!   Greedy / Random / Ratio baselines evaluated in §VI;
//! * [`order`] — ordering strategies for **S/C Opt Order** (Problem 3):
//!   **MA-DFS** plus the DFS / simulated-annealing / separator baselines;
//! * [`alternating`] — Algorithm 2, the alternating optimization driving the
//!   two subproblem solvers to a fixed point;
//! * [`memory`] — peak / average memory usage of a `(order, flagged)` pair;
//! * [`modes`], [`dispatch`] and [`replay`] — the refresh executor's
//!   decision rules (per-node maintenance modes, the start rule, the
//!   plan-order catalog accounting), shared by the engine and the
//!   simulator so the two cannot drift apart;
//! * [`score`] — the speedup-score estimation model built from storage
//!   bandwidths (§IV "Speedup Scores").
//!
//! ```
//! use sc_core::prelude::*;
//! use sc_dag::Dag;
//!
//! // Figure 4's workload: MV1 feeds MV2 and MV3.
//! let graph = Dag::from_parts(
//!     [
//!         MvMeta::new("MV1", 8 << 30, 120.0),
//!         MvMeta::new("MV2", 2 << 30, 15.0),
//!         MvMeta::new("MV3", 3 << 30, 20.0),
//!     ],
//!     [(0, 1), (0, 2)],
//! )
//! .unwrap();
//! let problem = Problem::new(graph, 10 << 30).unwrap();
//!
//! let plan = ScOptimizer::default().optimize(&problem).unwrap();
//! assert!(plan.flagged.contains(sc_dag::NodeId(0)), "MV1 is worth keeping in memory");
//! assert!(problem.is_feasible(&plan.order, &plan.flagged).unwrap());
//! ```

#![warn(missing_docs)]

pub mod alternating;
pub mod constraints;
pub mod dispatch;
pub mod error;
pub mod memory;
pub mod mkp;
pub mod modes;
pub mod order;
pub mod plan;
pub mod problem;
pub mod replay;
pub mod score;
pub mod select;

pub use alternating::{
    AlternatingOptimizer, Convergence, IterationTrace, OptimizeOutcome, ScOptimizer,
};
pub use constraints::ConstraintSets;
pub use dispatch::{run_ahead_window, Dispatch};
pub use error::OptError;
pub use memory::MemoryProfile;
pub use modes::{
    BaseChurn, CostProvenance, Feed, ModePlan, ModeReason, NodeFacts, NodeMode, Policy, RefreshMode,
};
pub use plan::{FlagSet, Plan};
pub use problem::{MvMeta, Problem};
pub use replay::{AdmissionReplay, CatalogStep};
pub use score::{CostModel, ObservedNodeCost, RefreshCosts};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OptError>;

/// Commonly used items.
pub mod prelude {
    pub use crate::alternating::{AlternatingOptimizer, ScOptimizer};
    pub use crate::order::{
        DfsScheduler, MaDfsScheduler, OrderScheduler, SaScheduler, SeparatorScheduler,
        TopologicalScheduler,
    };
    pub use crate::plan::{FlagSet, Plan};
    pub use crate::problem::{MvMeta, Problem};
    pub use crate::score::CostModel;
    pub use crate::select::{
        GreedySelector, MkpSelector, NodeSelector, RandomSelector, RatioSelector,
    };
}
