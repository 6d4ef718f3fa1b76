//! # sc-engine — a mini columnar warehouse for S/C
//!
//! The S/C paper treats the DBMS as a black box that executes SQL and can
//! read its inputs either from external storage or from an in-memory
//! *Memory Catalog* (the paper's implementation drives Presto's `hive` and
//! `memory` connectors). This crate is that black box, built from scratch:
//!
//! * a typed, columnar data model ([`Table`], [`Column`], [`Schema`]);
//! * scalar expressions ([`expr::Expr`]) and relational operators
//!   (filter / project / hash join / hash aggregate / sort / limit / union)
//!   composed into a [`plan::LogicalPlan`];
//! * a [`storage::DiskCatalog`] persisting tables in a self-describing
//!   columnar file format, with an optional bandwidth/latency
//!   [`storage::Throttle`] calibrated to the paper's disk;
//! * an append-only delta log ([`storage::DeltaStore`]) and delta-aware
//!   operators ([`exec::delta`]) enabling *incremental* MV maintenance:
//!   refreshes apply only what changed, byte-identical to recomputation;
//! * a refresh controller that performs an MV refresh run for a given
//!   [`sc_core::Plan`]: flagged nodes are created directly in the run's
//!   bounded Memory Catalog — admitted, and released once all their
//!   consumers finish, by [`sc_core::AdmissionReplay`], the one budget
//!   accounting — and materialized to storage in the background (in
//!   parallel with downstream work, §III-C); per node it chooses full
//!   recompute vs delta maintenance vs skipping ([`sc_core::RefreshMode`]);
//! * the [`ScSession`] that owns all of the above — the one entry point
//!   for refreshes and ingestion (the controller and the delta log's
//!   mutators are crate-private) — and the [`RefreshReport`] a managed
//!   refresh returns.
//!
//! ```
//! use sc_engine::prelude::*;
//!
//! let mut t = TableBuilder::new()
//!     .column("id", DataType::Int64)
//!     .column("amount", DataType::Float64)
//!     .build();
//! t.push_row(vec![Value::Int64(1), Value::Float64(10.5)]).unwrap();
//! t.push_row(vec![Value::Int64(2), Value::Float64(7.25)]).unwrap();
//!
//! let plan = LogicalPlan::scan("orders")
//!     .filter(Expr::col("amount").gt(Expr::lit(8.0)))
//!     .project(vec![(Expr::col("id"), "id".into())]);
//! let mut tables = std::collections::HashMap::new();
//! tables.insert("orders".to_string(), std::sync::Arc::new(t));
//! let out = plan.execute(&tables).unwrap();
//! assert_eq!(out.num_rows(), 1);
//! ```

#![warn(missing_docs)]

/// Typed columnar vectors backing [`Table`].
pub mod column;
pub mod controller;
/// The crate-wide [`EngineError`] type.
pub mod error;
pub mod exec;
pub mod expr;
pub mod plan;
mod report;
/// Table schemas: named, typed fields.
pub mod schema;
mod session;
pub mod storage;
/// The columnar [`Table`] and its builder.
pub mod table;
/// Scalar [`DataType`]s and [`Value`]s.
pub mod types;

pub use column::{Column, Utf8Column};
pub use controller::{CostProvenance, NodeMetrics, RefreshConfig, RunMetrics};
pub use error::EngineError;
pub use report::RefreshReport;
pub use schema::{Field, Schema};
pub use session::{ScSession, ScSessionBuilder, ScSnapshot};
pub use table::{Table, TableBuilder};
pub use types::{DataType, Value};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Commonly used items.
pub mod prelude {
    pub use crate::column::Column;
    pub use crate::controller::{RefreshConfig, RunMetrics};
    pub use crate::exec::{DeltaBatch, TableDelta};
    pub use crate::expr::Expr;
    pub use crate::plan::{AggExpr, JoinType, LogicalPlan};
    pub use crate::schema::{Field, Schema};
    pub use crate::storage::{DeltaStore, DiskCatalog, ObservationStore, Throttle};
    pub use crate::table::{Table, TableBuilder};
    pub use crate::types::{DataType, Value};
}
