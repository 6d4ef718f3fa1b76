//! Relational operators. Each operator is a pure function
//! `(&Table, …) -> Result<Table>`; the [`crate::plan::LogicalPlan`]
//! interpreter composes them.

mod aggregate;
pub mod delta;
mod join;
#[cfg(test)]
mod key_props;
mod keys;
mod project;
mod sort;

pub use aggregate::{aggregate, AggFunc};
pub use delta::{
    aggs_mergeable, delta_filter, delta_join, delta_project, merge_aggregate, merge_distinct,
    DeltaBatch, TableDelta,
};
pub use join::{hash_join, JoinType};
pub use project::{filter, project};
pub use sort::{distinct, limit, sort_by, top_k, union_all, SortKey};
