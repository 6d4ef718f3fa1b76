//! # sc — Short-Circuit (S/C): speeding up data materialization with bounded memory
//!
//! A from-scratch Rust reproduction of *"S/C: Speeding up Data
//! Materialization with Bounded Memory"* (Li, Pi, Park — ICDE 2023).
//!
//! S/C refreshes a set of materialized views (MVs) with acyclic
//! dependencies. It jointly optimizes the refresh order and a bounded
//! in-memory **Memory Catalog** holding selected intermediate tables, so
//! downstream MVs read hot inputs from memory while materialization to
//! external storage proceeds in the background — cutting end-to-end
//! refresh time without ever weakening durability (every MV is still
//! persisted exactly as defined).
//!
//! The workspace crates, re-exported here:
//!
//! * [`core`] — the S/C Opt optimizer (constraint sets, exact MKP
//!   selection, MA-DFS scheduling, alternating optimization);
//! * [`dag`] — the DAG substrate;
//! * [`engine`] — a mini columnar warehouse: expressions, operators, a
//!   columnar file format, the disk catalog, the append-only delta log,
//!   the refresh controller (one lane-pool executor sized by
//!   [`ScSessionBuilder::lanes`] — one lane is the paper's sequential
//!   walk; per-node full, incremental, or skipped maintenance via
//!   [`sc_core::RefreshMode`]), and the [`ScSession`] that owns them all
//!   and is the only way to refresh or ingest;
//! * [`sim`] — a discrete-event simulator for paper-scale experiments
//!   (10 GB–1 TB, clusters, LRU baselines, churn scenarios);
//! * [`workload`] — TPC-DS-style data and the paper's workloads, plus
//!   the §VI-H synthetic DAG generator, seeded update streams
//!   ([`sc_workload::updates`]), and unified engine/sim scenario specs
//!   ([`sc_workload::ScenarioSpec`], opened as a session by
//!   [`ScenarioSpec::open`](sc_workload::ScenarioSpec::open)).
//!
//! A separate (not re-exported) crate, `sc-serve`, layers a concurrent
//! TCP query-serving front end over this façade: epoch-pinned reads and
//! wire queries/ingest/refresh over a length-prefixed binary protocol,
//! with bounded admission, deadlines, and graceful drain. Take a
//! refreshed `Arc<ScSession>` and hand it to `sc_serve::Server::start`;
//! see `examples/serve.rs`.
//!
//! The façade is [`ScSession`] (long-lived, `Arc`-shareable,
//! plan-managing) plus the [`RefreshReport`] a managed refresh returns;
//! both live in `sc-engine` and are re-exported here, with [`ScError`]
//! as the name of their one error type, [`sc_engine::EngineError`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use sc::ScSession;
//!
//! let dir = tempfile::tempdir().unwrap();
//! // 1. Build a session: one typed config for storage, memory budget,
//! //    throttle, lanes, and refresh mode. Sessions are Arc-shareable.
//! let sys = Arc::new(
//!     ScSession::builder()
//!         .storage_dir(dir.path())
//!         .memory_budget(4 << 20)
//!         .build()
//!         .unwrap(),
//! );
//!
//! // 2. Ingest base data (here: the bundled TPC-DS-style generator).
//! let data = sc::workload::tpcds::TinyTpcds::generate(0.2, 42);
//! data.load_into(sys.disk()).unwrap();
//!
//! // 3. Register MV definitions (dependencies are inferred from scans;
//! //    name collisions are rejected).
//! for mv in sc::workload::engine_mvs::sales_pipeline() {
//!     sys.register_mv(mv).unwrap();
//! }
//!
//! // 4. The session manages the plan: the first refresh profiles the
//! //    workload and caches an optimized plan, later refreshes reuse it.
//! let profile = sys.refresh().unwrap();
//! assert!(profile.profiled);
//! let optimized = sys.refresh().unwrap();
//! assert!(!optimized.profiled);
//! assert_eq!(optimized.nodes().len(), profile.nodes().len());
//! println!("{}", optimized.explain()); // why each node was flagged/skipped
//! ```
//!
//! The paper's explicit three-call flow is still available when you want
//! to hold the plan yourself: [`ScSession::baseline_refresh`] →
//! [`ScSession::optimize_from`] → [`ScSession::refresh_with_plan`].

pub use sc_core as core;
pub use sc_dag as dag;
pub use sc_engine as engine;
pub use sc_sim as sim;
pub use sc_workload as workload;

#[cfg(test)]
mod system;

pub use sc_engine::{RefreshReport, ScSession, ScSessionBuilder, ScSnapshot};

/// The session's error type: every failure a session call can report is
/// an [`sc_engine::EngineError`].
pub type ScError = sc_engine::EngineError;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use sc_core::prelude::*;
    pub use sc_dag::{Dag, NodeId};
    pub use sc_engine::controller::MvDefinition;
    pub use sc_engine::prelude::*;
    pub use sc_sim::{ClusterModel, SimConfig, SimNode, SimWorkload, Simulator};
    pub use sc_workload::{
        ChurnRound, DatasetSpec, GeneratorParams, PaperWorkload, ScenarioSpec, SynthGenerator,
    };

    pub use crate::{RefreshReport, ScSession, ScSessionBuilder, ScSnapshot};
}
