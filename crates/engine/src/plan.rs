//! Logical plans: the "SQL statement" carried by each node of an S/C
//! workload. A plan is a tree of relational operators over named input
//! tables; the controller resolves those names against the Memory Catalog
//! first and external storage second, which is exactly the short-circuit
//! the paper exploits.

use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::{self, AggFunc, SortKey, TableDelta};
use crate::expr::Expr;
use crate::table::Table;
use crate::{EngineError, Result};

pub use crate::exec::JoinType;

/// One aggregate output: `func(column) AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input column.
    pub column: String,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Creates `func(column) AS alias`.
    pub fn new(func: AggFunc, column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func,
            column: column.into(),
            alias: alias.into(),
        }
    }
}

/// A tree of relational operators.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a named table from the catalogs.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows matching a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Compute expressions into named output columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash join on key equality.
    Join {
        /// Probe side.
        left: Box<LogicalPlan>,
        /// Build side.
        right: Box<LogicalPlan>,
        /// `(left key, right key)` pairs.
        on: Vec<(String, String)>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// First occurrence of each distinct row, in input order.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Stable multi-key sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// First `n` rows under a stable multi-key sort (`ORDER BY … LIMIT n`
    /// fused). Appended input rows can reorder the whole prefix, so the
    /// operator has no delta rule and always takes the
    /// [`IncrementalSupport::Unsupported`] full-recompute fallback.
    TopK {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
        /// Row cap.
        n: usize,
    },
    /// First `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// `UNION ALL` of two same-schema inputs.
    Union {
        /// First input.
        left: Box<LogicalPlan>,
        /// Second input.
        right: Box<LogicalPlan>,
    },
}

/// Anything that can resolve a table name to a table.
///
/// A plan's scans resolve through it: a scan whose plan reads every
/// column of its table calls [`TableSource::table`], and a scan under an
/// `Aggregate` or `Project` — which read only the columns they name —
/// calls [`TableSource::projected`] with that column set (see
/// [`LogicalPlan::execute`]).
pub trait TableSource {
    /// Resolves `name`, or fails with [`EngineError::UnknownTable`].
    fn table(&self, name: &str) -> Result<Arc<Table>>;

    /// Resolves `name` for a scan that reads only `columns`: the table
    /// returned holds at least those columns, and may hold more. A
    /// source that stores columns apart reads and decodes only these
    /// (the disk catalog's pinned reads and a refresh run's disk reads);
    /// the default hands out the whole table. Fails with
    /// [`EngineError::UnknownTable`], or with
    /// [`EngineError::UnknownColumn`] where the source checks names.
    fn projected(&self, name: &str, columns: &[String]) -> Result<Arc<Table>> {
        let _ = columns;
        self.table(name)
    }
}

/// Anything that can resolve a table name to its pending delta (the
/// changes since the consuming MV's last refresh).
pub trait DeltaSource {
    /// Resolves `name`'s pending delta (empty when nothing changed), or
    /// fails with [`EngineError::UnknownTable`].
    fn delta(&self, name: &str) -> Result<TableDelta>;
}

/// What the incremental-maintenance subsystem can do with a plan, derived
/// purely from its operator tree (see [`LogicalPlan::incremental_support`]).
///
/// The maintainable shapes are **delta spines**: a chain of
/// Scan/Filter/Project operators descending through the *probe* (left)
/// side of keyed joins — inner or left outer — whose build (right)
/// subtrees hang off as *static* inputs. The spine's single bottom scan is the only input whose
/// delta propagates; every table scanned by a build subtree is recorded in
/// `static_tables` and must be **unchanged** for the run — a churned build
/// side interleaves new join pairs into existing probe rows' match groups,
/// which no append-only output delta can reproduce byte-identically (see
/// [`crate::exec::delta_join`]), so the node recomputes instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalSupport {
    /// A delta spine (Scan/Filter/Project, optionally through keyed
    /// joins): input deltas propagate row-wise via
    /// [`LogicalPlan::execute_delta`], and the node publishes its own
    /// output delta for downstream consumers. `projects`/`joins` record
    /// whether those lossy/fan-out operators are present — either one
    /// restricts the chain to insert-only deltas.
    RowWise {
        /// Whether the spine contains a projection.
        projects: bool,
        /// Whether the spine contains a keyed join.
        joins: bool,
        /// Tables scanned by join build subtrees; their deltas must be
        /// empty for the node to maintain incrementally.
        static_tables: Vec<String>,
    },
    /// A hash aggregation over a delta spine: the node's stored output
    /// can absorb an insert-only input delta via
    /// [`crate::exec::merge_aggregate`], but no output delta is published
    /// (group updates are not representable as insert-only changes).
    /// `mergeable` is false when an aggregate function (Avg) cannot resume
    /// its accumulator from the stored value.
    MergeAggregate {
        /// Whether the spine below the aggregate contains a projection.
        projects: bool,
        /// Whether the spine below the aggregate contains an inner join.
        joins: bool,
        /// Whether every aggregate function can be merged incrementally.
        mergeable: bool,
        /// Tables scanned by join build subtrees below the aggregate.
        static_tables: Vec<String>,
    },
    /// A distinct over a delta spine: the stored output absorbs an
    /// insert-only input delta via [`crate::exec::merge_distinct`]
    /// (first-occurrence order means existing rows never move and new
    /// values append). Like [`IncrementalSupport::MergeAggregate`], no
    /// output delta is published — whether a delta row survives the dedup
    /// is unknowable downstream — and deletes force a recompute (the
    /// stored output carries no multiplicity).
    DistinctMerge {
        /// Whether the spine below the distinct contains a projection.
        projects: bool,
        /// Whether the spine below the distinct contains a keyed join.
        joins: bool,
        /// Tables scanned by join build subtrees below the distinct.
        static_tables: Vec<String>,
    },
    /// Unkeyed joins, unions, sorts, limits, top-k, or nested
    /// aggregates/distincts: always recomputed in full.
    Unsupported,
}

impl IncrementalSupport {
    /// Whether a plan with this support can be maintained incrementally
    /// given whether its input delta removes rows. (Callers must
    /// separately check that every [`IncrementalSupport::static_tables`]
    /// entry is unchanged.)
    pub fn maintainable(&self, has_deletes: bool) -> bool {
        match self {
            IncrementalSupport::RowWise {
                projects, joins, ..
            } => !has_deletes || (!*projects && !*joins),
            IncrementalSupport::MergeAggregate { mergeable, .. } => *mergeable && !has_deletes,
            IncrementalSupport::DistinctMerge { .. } => !has_deletes,
            IncrementalSupport::Unsupported => false,
        }
    }

    /// Whether the node's own output delta is available to consumers.
    pub fn publishes_delta(&self) -> bool {
        matches!(self, IncrementalSupport::RowWise { .. })
    }

    /// Tables the incremental path reads in full and therefore requires to
    /// be unchanged: the build sides of every join on the spine. Empty for
    /// join-free shapes and for [`IncrementalSupport::Unsupported`].
    pub fn static_tables(&self) -> &[String] {
        match self {
            IncrementalSupport::RowWise { static_tables, .. }
            | IncrementalSupport::MergeAggregate { static_tables, .. }
            | IncrementalSupport::DistinctMerge { static_tables, .. } => static_tables,
            IncrementalSupport::Unsupported => &[],
        }
    }
}

impl TableSource for HashMap<String, Arc<Table>> {
    fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// The whole table: narrowing a table already in memory would copy
    /// the columns it keeps. The names are checked as a stored read
    /// checks them.
    fn projected(&self, name: &str, columns: &[String]) -> Result<Arc<Table>> {
        let table = self.table(name)?;
        for column in columns {
            table.schema().index_of(column)?;
        }
        Ok(table)
    }
}

impl DeltaSource for HashMap<String, TableDelta> {
    fn delta(&self, name: &str) -> Result<TableDelta> {
        self.get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }
}

impl LogicalPlan {
    /// A stable hash of the plan *shape* — operators, expressions, table
    /// names — used to key persisted runtime observations. Re-registering
    /// an MV under the same name with a different DAG yields a different
    /// fingerprint, so it starts cold instead of inheriting observations
    /// measured for another shape.
    pub fn fingerprint(&self) -> u64 {
        crate::storage::format::fnv1a64(format!("{self:?}").as_bytes())
    }

    /// Scan of a named table.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Appends a filter.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Appends a projection.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// Appends an inner join with `right`.
    pub fn join(self, right: LogicalPlan, on: Vec<(String, String)>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            join_type: JoinType::Inner,
        }
    }

    /// Appends a left outer join with `right`.
    pub fn left_join(self, right: LogicalPlan, on: Vec<(String, String)>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            join_type: JoinType::Left,
        }
    }

    /// Appends an aggregation.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Appends a distinct.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    /// Appends a sort.
    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Appends a fused `ORDER BY … LIMIT n` (top-k).
    pub fn top_k(self, keys: Vec<SortKey>, n: usize) -> LogicalPlan {
        LogicalPlan::TopK {
            input: Box::new(self),
            keys,
            n,
        }
    }

    /// Appends a limit.
    pub fn limit(self, n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Appends a union.
    pub fn union(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Names of all tables this plan scans (the node's dependencies), in
    /// first-reference order without duplicates.
    pub fn input_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_inputs(&mut out);
        out
    }

    fn collect_inputs(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::Scan { table } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::TopK { input, .. }
            | LogicalPlan::Limit { input, .. } => input.collect_inputs(out),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                left.collect_inputs(out);
                right.collect_inputs(out);
            }
        }
    }

    /// Classifies the plan for incremental maintenance (see
    /// [`IncrementalSupport`]).
    pub fn incremental_support(&self) -> IncrementalSupport {
        /// Walks a candidate delta spine, returning
        /// `(projects, joins, static_tables)` when the shape is supported.
        fn spine(plan: &LogicalPlan) -> Option<(bool, bool, Vec<String>)> {
            match plan {
                LogicalPlan::Scan { .. } => Some((false, false, Vec::new())),
                LogicalPlan::Filter { input, .. } => spine(input),
                LogicalPlan::Project { input, .. } => {
                    spine(input).map(|(_, joins, statics)| (true, joins, statics))
                }
                // Both keyed join types admit the delta rule: an
                // insert-only probe delta against a static build side
                // appends its (matched or, for Left, null-filled) output
                // rows exactly where a full recompute would (see
                // [`crate::exec::delta_join`]).
                LogicalPlan::Join {
                    left, right, on, ..
                } if !on.is_empty() => {
                    let (projects, _, mut statics) = spine(left)?;
                    for table in right.input_tables() {
                        if !statics.contains(&table) {
                            statics.push(table);
                        }
                    }
                    Some((projects, true, statics))
                }
                _ => None,
            }
        }
        if let LogicalPlan::Aggregate { input, aggs, .. } = self {
            if let Some((projects, joins, static_tables)) = spine(input) {
                let triples: Vec<(AggFunc, String, String)> = aggs
                    .iter()
                    .map(|a| (a.func, a.column.clone(), a.alias.clone()))
                    .collect();
                return IncrementalSupport::MergeAggregate {
                    projects,
                    joins,
                    mergeable: exec::aggs_mergeable(&triples),
                    static_tables,
                };
            }
            return IncrementalSupport::Unsupported;
        }
        if let LogicalPlan::Distinct { input } = self {
            if let Some((projects, joins, static_tables)) = spine(input) {
                return IncrementalSupport::DistinctMerge {
                    projects,
                    joins,
                    static_tables,
                };
            }
            return IncrementalSupport::Unsupported;
        }
        match spine(self) {
            Some((projects, joins, static_tables)) => IncrementalSupport::RowWise {
                projects,
                joins,
                static_tables,
            },
            None => IncrementalSupport::Unsupported,
        }
    }

    /// Propagates input deltas down the delta spine (Scan/Filter/Project,
    /// through the probe side of keyed inner or left outer joins),
    /// producing the output delta. A join's build side is executed in full against `tables` —
    /// it must be unchanged, so its stored contents *are* its pre-image
    /// (see [`crate::exec::delta_join`]). Fails on operators outside the
    /// spine — callers must consult [`LogicalPlan::incremental_support`]
    /// first. (An aggregate root is handled by the controller, which feeds
    /// its *input*'s delta to [`crate::exec::merge_aggregate`].)
    pub fn execute_delta<D, T>(&self, deltas: &D, tables: &T) -> Result<TableDelta>
    where
        D: DeltaSource + ?Sized,
        T: TableSource + ?Sized,
    {
        match self {
            LogicalPlan::Scan { table } => deltas.delta(table),
            LogicalPlan::Filter { input, predicate } => {
                exec::delta_filter(&input.execute_delta(deltas, tables)?, predicate)
            }
            LogicalPlan::Project { input, exprs } => {
                exec::delta_project(&input.execute_delta(deltas, tables)?, exprs)
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } if !on.is_empty() => {
                let probe_delta = left.execute_delta(deltas, tables)?;
                let build = right.evaluate(tables, None)?;
                exec::delta_join(&probe_delta, &build, on, *join_type)
            }
            other => Err(EngineError::InvalidPlan(format!(
                "operator is not delta-maintainable: {other:?}"
            ))),
        }
    }

    /// Executes the plan against `source`, materializing the result.
    ///
    /// Scans borrow: an operator reads its input through the source's
    /// `Arc` instead of a copy of the table. Only a plan whose root is a
    /// bare `Scan` materializes a copy (the caller asked for an owned
    /// table and the source keeps its own).
    ///
    /// Scans read only the columns the plan above them reads. The set is
    /// derived top down: the root reads every column; `Aggregate` and
    /// `Project` narrow it to the columns they name; `Filter`, `Sort`,
    /// `TopK` and `Limit` pass their consumer's set through and add their
    /// own; a `Join`, `Union` or `Distinct` input reads every column. A
    /// scan whose set is empty (an operator that names no column still
    /// needs the row count) reads every column too.
    pub fn execute<S: TableSource + ?Sized>(&self, source: &S) -> Result<Table> {
        Ok(Arc::unwrap_or_clone(self.evaluate(source, None)?))
    }

    /// Evaluates the plan bottom-up, its consumer reading `reads` of its
    /// output (`None`: every column). A `Scan` hands out the source's own
    /// `Arc`; every other operator borrows its inputs and returns a fresh
    /// (uniquely owned) result.
    fn evaluate<S: TableSource + ?Sized>(
        &self,
        source: &S,
        reads: Option<Vec<String>>,
    ) -> Result<Arc<Table>> {
        // The set a passing operator reads: its consumer's plus its own.
        let plus = |own: Vec<String>| {
            reads.clone().map(|mut cols| {
                cols.extend(own);
                cols
            })
        };
        let out = match self {
            LogicalPlan::Scan { table } => {
                return match reads {
                    Some(cols) if !cols.is_empty() => source.projected(table, &cols),
                    _ => source.table(table),
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let mut own = Vec::new();
                predicate.referenced_columns(&mut own);
                exec::filter(&*input.evaluate(source, plus(own))?, predicate)
            }
            LogicalPlan::Project { input, exprs } => {
                let mut cols = Vec::new();
                for (expr, _) in exprs {
                    expr.referenced_columns(&mut cols);
                }
                exec::project(&*input.evaluate(source, Some(cols))?, exprs)
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => exec::hash_join(
                &*left.evaluate(source, None)?,
                &*right.evaluate(source, None)?,
                on,
                *join_type,
            ),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let cols = group_by
                    .iter()
                    .chain(aggs.iter().map(|a| &a.column))
                    .cloned()
                    .collect();
                let triples: Vec<(AggFunc, String, String)> = aggs
                    .iter()
                    .map(|a| (a.func, a.column.clone(), a.alias.clone()))
                    .collect();
                exec::aggregate(&*input.evaluate(source, Some(cols))?, group_by, &triples)
            }
            LogicalPlan::Distinct { input } => exec::distinct(&*input.evaluate(source, None)?),
            LogicalPlan::Sort { input, keys } => {
                let own = keys.iter().map(|k| k.column.clone()).collect();
                exec::sort_by(&*input.evaluate(source, plus(own))?, keys)
            }
            LogicalPlan::TopK { input, keys, n } => {
                let own = keys.iter().map(|k| k.column.clone()).collect();
                exec::top_k(&*input.evaluate(source, plus(own))?, keys, *n)
            }
            LogicalPlan::Limit { input, n } => exec::limit(&*input.evaluate(source, reads)?, *n),
            LogicalPlan::Union { left, right } => exec::union_all(
                &*left.evaluate(source, None)?,
                &*right.evaluate(source, None)?,
            ),
        };
        out.map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn source() -> HashMap<String, Arc<Table>> {
        let mut orders = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("cust", DataType::Int64)
            .column("amount", DataType::Float64)
            .build();
        for (id, c, a) in [(1, 10, 5.0), (2, 11, 50.0), (3, 10, 25.0), (4, 12, 75.0)] {
            orders
                .push_row(vec![(id as i64).into(), (c as i64).into(), a.into()])
                .unwrap();
        }
        let mut custs = TableBuilder::new()
            .column("cust_id", DataType::Int64)
            .column("region", DataType::Utf8)
            .build();
        for (c, r) in [(10, "east"), (11, "west"), (12, "east")] {
            custs.push_row(vec![(c as i64).into(), r.into()]).unwrap();
        }
        let mut m = HashMap::new();
        m.insert("orders".to_string(), Arc::new(orders));
        m.insert("customers".to_string(), Arc::new(custs));
        m
    }

    #[test]
    fn end_to_end_spj_pipeline() {
        // SELECT region, SUM(amount) AS rev FROM orders JOIN customers
        // ON cust = cust_id WHERE amount > 10 GROUP BY region
        // ORDER BY rev DESC
        let plan = LogicalPlan::scan("orders")
            .filter(Expr::col("amount").gt(Expr::lit(10.0f64)))
            .join(
                LogicalPlan::scan("customers"),
                vec![("cust".into(), "cust_id".into())],
            )
            .aggregate(
                vec!["region".into()],
                vec![AggExpr::new(AggFunc::Sum, "amount", "rev")],
            )
            .sort(vec![SortKey::desc("rev")]);
        let out = plan.execute(&source()).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 0), Value::Utf8("east".into()));
        assert_eq!(out.value(0, 1), Value::Float64(100.0));
        assert_eq!(out.value(1, 1), Value::Float64(50.0));
    }

    #[test]
    fn input_tables_deduplicated_in_order() {
        let plan = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), vec![("x".into(), "x".into())])
            .union(LogicalPlan::scan("a").filter(Expr::lit(true)));
        assert_eq!(plan.input_tables(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn unknown_table_fails() {
        let plan = LogicalPlan::scan("missing");
        assert!(matches!(
            plan.execute(&source()),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn limit_and_union() {
        let plan = LogicalPlan::scan("orders")
            .limit(1)
            .union(LogicalPlan::scan("orders").limit(2));
        assert_eq!(plan.execute(&source()).unwrap().num_rows(), 3);
    }

    #[test]
    fn left_join_via_builder() {
        let plan = LogicalPlan::scan("orders").left_join(
            LogicalPlan::scan("customers").filter(Expr::col("region").eq(Expr::lit("east"))),
            vec![("cust".into(), "cust_id".into())],
        );
        let out = plan.execute(&source()).unwrap();
        assert_eq!(out.num_rows(), 4); // west order kept with empty region
    }

    #[test]
    fn incremental_support_classification() {
        use crate::exec::AggFunc;
        let scan = LogicalPlan::scan("t");
        assert_eq!(
            scan.incremental_support(),
            IncrementalSupport::RowWise {
                projects: false,
                joins: false,
                static_tables: vec![]
            }
        );
        let chain = LogicalPlan::scan("t")
            .filter(Expr::lit(true))
            .project(vec![(Expr::col("x"), "x".into())]);
        assert_eq!(
            chain.incremental_support(),
            IncrementalSupport::RowWise {
                projects: true,
                joins: false,
                static_tables: vec![]
            }
        );
        // Filter-only chains survive deletes; projections do not.
        assert!(LogicalPlan::scan("t")
            .filter(Expr::lit(true))
            .incremental_support()
            .maintainable(true));
        assert!(!chain.incremental_support().maintainable(true));
        assert!(chain.incremental_support().maintainable(false));

        let agg = LogicalPlan::scan("t")
            .aggregate(vec!["k".into()], vec![AggExpr::new(AggFunc::Sum, "v", "s")]);
        assert_eq!(
            agg.incremental_support(),
            IncrementalSupport::MergeAggregate {
                projects: false,
                joins: false,
                mergeable: true,
                static_tables: vec![]
            }
        );
        assert!(agg.incremental_support().maintainable(false));
        assert!(!agg.incremental_support().maintainable(true));
        assert!(!agg.incremental_support().publishes_delta());

        let avg = LogicalPlan::scan("t")
            .aggregate(vec!["k".into()], vec![AggExpr::new(AggFunc::Avg, "v", "m")]);
        assert!(!avg.incremental_support().maintainable(false));

        // Unkeyed joins stay unsupported; keyed left outer joins ride the
        // same insert-only delta rule as inner ones.
        let join = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![]);
        assert_eq!(join.incremental_support(), IncrementalSupport::Unsupported);
        let left = LogicalPlan::scan("a")
            .left_join(LogicalPlan::scan("b"), vec![("x".into(), "x".into())]);
        assert_eq!(
            left.incremental_support(),
            IncrementalSupport::RowWise {
                projects: false,
                joins: true,
                static_tables: vec!["b".into()]
            }
        );
        // Anything over an aggregate: unsupported.
        assert_eq!(
            agg.clone().filter(Expr::lit(true)).incremental_support(),
            IncrementalSupport::Unsupported
        );

        // Distinct over a spine merges without publishing; top-k and
        // distinct-over-aggregate fall to the Unsupported full-recompute
        // path.
        let dis = LogicalPlan::scan("t").filter(Expr::lit(true)).distinct();
        assert_eq!(
            dis.incremental_support(),
            IncrementalSupport::DistinctMerge {
                projects: false,
                joins: false,
                static_tables: vec![]
            }
        );
        assert!(dis.incremental_support().maintainable(false));
        assert!(!dis.incremental_support().maintainable(true));
        assert!(!dis.incremental_support().publishes_delta());
        let topk = LogicalPlan::scan("t").top_k(vec![SortKey::desc("v")], 5);
        assert_eq!(topk.incremental_support(), IncrementalSupport::Unsupported);
        assert_eq!(
            agg.clone().distinct().incremental_support(),
            IncrementalSupport::Unsupported
        );
    }

    #[test]
    fn incremental_support_classifies_join_spines() {
        use crate::exec::AggFunc;
        // The enriched_sales shape: filtered fact joined to two dimensions.
        let hub = LogicalPlan::scan("fact")
            .filter(Expr::lit(true))
            .join(LogicalPlan::scan("dim_a"), vec![("k".into(), "ka".into())])
            .join(
                LogicalPlan::scan("dim_b").filter(Expr::lit(true)),
                vec![("k".into(), "kb".into())],
            );
        let support = hub.incremental_support();
        assert_eq!(
            support,
            IncrementalSupport::RowWise {
                projects: false,
                joins: true,
                static_tables: vec!["dim_a".into(), "dim_b".into()]
            }
        );
        // Join spines publish deltas but are insert-only.
        assert!(support.publishes_delta());
        assert!(support.maintainable(false));
        assert!(!support.maintainable(true));
        assert_eq!(support.static_tables(), ["dim_a", "dim_b"]);

        // An aggregate over a join spine merges; build tables carry over.
        let agg = hub
            .clone()
            .aggregate(vec!["g".into()], vec![AggExpr::new(AggFunc::Sum, "v", "s")]);
        assert_eq!(
            agg.incremental_support(),
            IncrementalSupport::MergeAggregate {
                projects: false,
                joins: true,
                mergeable: true,
                static_tables: vec!["dim_a".into(), "dim_b".into()]
            }
        );
        // An aggregate anywhere on the build side is fine (it is static);
        // an aggregate on the spine is not.
        let agg_build = LogicalPlan::scan("fact").join(
            LogicalPlan::scan("dim_a").aggregate(vec!["ka".into()], vec![]),
            vec![("k".into(), "ka".into())],
        );
        assert!(matches!(
            agg_build.incremental_support(),
            IncrementalSupport::RowWise { joins: true, .. }
        ));
        let agg_spine = LogicalPlan::scan("fact")
            .aggregate(vec!["k".into()], vec![])
            .join(LogicalPlan::scan("dim_a"), vec![("k".into(), "ka".into())]);
        assert_eq!(
            agg_spine.incremental_support(),
            IncrementalSupport::Unsupported
        );
        assert!(IncrementalSupport::Unsupported.static_tables().is_empty());
    }

    #[test]
    fn execute_delta_propagates_through_chain() {
        let mut base = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        base.push_row(vec![1.into(), 10.0.into()]).unwrap();
        base.push_row(vec![2.into(), 3.0.into()]).unwrap();
        let delta = TableDelta::insert_only(base.clone());
        let mut deltas = HashMap::new();
        deltas.insert("t".to_string(), delta);
        let tables: HashMap<String, Arc<Table>> = HashMap::new();

        let plan = LogicalPlan::scan("t")
            .filter(Expr::col("v").gt(Expr::lit(5.0f64)))
            .project(vec![(Expr::col("k"), "k".into())]);
        let out = plan.execute_delta(&deltas, &tables).unwrap();
        assert_eq!(out.insert_rows(), 1);
        assert_eq!(out.batches()[0].inserts.value(0, 0), Value::Int64(1));

        // Unknown table and unsupported operators fail cleanly.
        assert!(LogicalPlan::scan("missing")
            .execute_delta(&deltas, &tables)
            .is_err());
        assert!(LogicalPlan::scan("t")
            .union(LogicalPlan::scan("t"))
            .execute_delta(&deltas, &tables)
            .is_err());
    }

    #[test]
    fn execute_delta_through_join_spine_matches_full() {
        // Churn only the probe-side table of orders ⋈ customers; the
        // propagated delta applied to the old MV must equal recomputation.
        let tables = source();
        let plan = LogicalPlan::scan("orders")
            .filter(Expr::col("amount").gt(Expr::lit(10.0f64)))
            .join(
                LogicalPlan::scan("customers"),
                vec![("cust".into(), "cust_id".into())],
            );
        let mv_old = plan.execute(&tables).unwrap();

        let mut growth = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("cust", DataType::Int64)
            .column("amount", DataType::Float64)
            .build();
        growth
            .push_row(vec![5.into(), 10.into(), 60.0.into()])
            .unwrap();
        growth
            .push_row(vec![6.into(), 99.into(), 70.0.into()]) // no customer
            .unwrap();
        let delta = TableDelta::insert_only(growth);
        let mut deltas = HashMap::new();
        deltas.insert("orders".to_string(), delta.clone());

        let out = plan.execute_delta(&deltas, &tables).unwrap();
        let incremental = out.apply(&mv_old).unwrap();

        let mut grown = tables.clone();
        let orders_new = delta.apply(&tables["orders"]).unwrap();
        grown.insert("orders".to_string(), Arc::new(orders_new));
        assert_eq!(incremental, plan.execute(&grown).unwrap());

        // Deletes cannot cross the join.
        let mut del = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("cust", DataType::Int64)
            .column("amount", DataType::Float64)
            .build();
        del.push_row(vec![2.into(), 11.into(), 50.0.into()])
            .unwrap();
        let with_del = TableDelta::from_batch(crate::exec::DeltaBatch {
            deletes: del,
            inserts: Table::empty(delta.schema().clone()),
        })
        .unwrap();
        let mut deltas = HashMap::new();
        deltas.insert("orders".to_string(), with_del);
        assert!(plan.execute_delta(&deltas, &tables).is_err());
    }

    #[test]
    fn distinct_and_top_k_execute() {
        let dis = LogicalPlan::scan("orders")
            .project(vec![(Expr::col("cust"), "cust".into())])
            .distinct();
        let out = dis.execute(&source()).unwrap();
        assert_eq!(out.num_rows(), 3); // customers 10, 11, 12
        assert_eq!(out.value(0, 0), Value::Int64(10));

        let topk = LogicalPlan::scan("orders").top_k(vec![SortKey::desc("amount")], 2);
        let out = topk.execute(&source()).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 2), Value::Float64(75.0));
        // Top-k has no delta rule: the spine interpreter rejects it.
        let deltas: HashMap<String, TableDelta> = HashMap::new();
        assert!(topk.execute_delta(&deltas, &source()).is_err());
    }

    #[test]
    fn execute_delta_through_left_join_spine_matches_full() {
        let tables = source();
        let plan = LogicalPlan::scan("orders").left_join(
            LogicalPlan::scan("customers").filter(Expr::col("region").eq(Expr::lit("east"))),
            vec![("cust".into(), "cust_id".into())],
        );
        let mv_old = plan.execute(&tables).unwrap();

        let mut growth = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("cust", DataType::Int64)
            .column("amount", DataType::Float64)
            .build();
        growth
            .push_row(vec![5.into(), 11.into(), 60.0.into()]) // west: null-filled
            .unwrap();
        growth
            .push_row(vec![6.into(), 12.into(), 70.0.into()]) // east: matched
            .unwrap();
        let delta = TableDelta::insert_only(growth);
        let mut deltas = HashMap::new();
        deltas.insert("orders".to_string(), delta.clone());

        let incremental = plan
            .execute_delta(&deltas, &tables)
            .unwrap()
            .apply(&mv_old)
            .unwrap();
        let mut grown = tables.clone();
        let orders_new = delta.apply(&tables["orders"]).unwrap();
        grown.insert("orders".to_string(), Arc::new(orders_new));
        assert_eq!(incremental, plan.execute(&grown).unwrap());
    }

    #[test]
    fn project_renames() {
        let plan = LogicalPlan::scan("orders").project(vec![(
            Expr::col("amount").mul(Expr::lit(2.0f64)),
            "double_amount".into(),
        )]);
        let out = plan.execute(&source()).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.value(0, 0), Value::Float64(10.0));
    }

    /// A source that records each scan's column set (`None`: the whole
    /// table) and serves the tables of [`source`].
    struct Recording {
        tables: HashMap<String, Arc<Table>>,
        scans: std::cell::RefCell<Vec<(String, Option<Vec<String>>)>>,
    }

    impl TableSource for Recording {
        fn table(&self, name: &str) -> Result<Arc<Table>> {
            self.scans.borrow_mut().push((name.into(), None));
            self.tables.table(name)
        }

        fn projected(&self, name: &str, columns: &[String]) -> Result<Arc<Table>> {
            let mut cols = columns.to_vec();
            cols.sort();
            cols.dedup();
            self.scans.borrow_mut().push((name.into(), Some(cols)));
            self.tables.projected(name, columns)
        }
    }

    fn scans(plan: &LogicalPlan) -> Vec<(String, Option<Vec<String>>)> {
        let src = Recording {
            tables: source(),
            scans: Default::default(),
        };
        assert_eq!(
            plan.execute(&src).unwrap(),
            plan.execute(&source()).unwrap()
        );
        src.scans.into_inner()
    }

    fn set(cols: &[&str]) -> Option<Vec<String>> {
        Some(cols.iter().map(|c| c.to_string()).collect())
    }

    #[test]
    fn aggregates_and_projections_narrow_their_scans() {
        let amount = || Expr::col("amount").gt(Expr::lit(10.0f64));
        let agg = LogicalPlan::scan("orders").filter(amount()).aggregate(
            vec!["cust".into()],
            vec![AggExpr::new(AggFunc::Sum, "amount", "s")],
        );
        assert_eq!(
            scans(&agg),
            vec![("orders".into(), set(&["amount", "cust"]))]
        );
        let proj = LogicalPlan::scan("orders")
            .sort(vec![SortKey::desc("id")])
            .limit(2)
            .project(vec![(Expr::col("cust").mul(Expr::lit(2i64)), "c2".into())]);
        assert_eq!(scans(&proj), vec![("orders".into(), set(&["cust", "id"]))]);
        let topk = LogicalPlan::scan("orders")
            .top_k(vec![SortKey::asc("amount")], 1)
            .project(vec![(Expr::col("id"), "id".into())]);
        assert_eq!(
            scans(&topk),
            vec![("orders".into(), set(&["amount", "id"]))]
        );
        // An operator that names no column still needs the row count.
        let count = LogicalPlan::scan("orders").project(vec![(Expr::lit(1i64), "one".into())]);
        assert_eq!(scans(&count), vec![("orders".into(), None)]);
    }

    #[test]
    fn a_root_filter_join_union_or_distinct_reads_every_column() {
        let all = |t: &str| (t.to_string(), None);
        let filter = LogicalPlan::scan("orders").filter(Expr::col("amount").gt(Expr::lit(1.0f64)));
        assert_eq!(scans(&filter), vec![all("orders")]);
        // Below a narrowing operator, too: each input of these reads
        // every column.
        let sum = |plan: LogicalPlan| {
            plan.aggregate(vec![], vec![AggExpr::new(AggFunc::Count, "cust", "n")])
        };
        let join = LogicalPlan::scan("orders").join(
            LogicalPlan::scan("customers"),
            vec![("cust".into(), "cust_id".into())],
        );
        assert_eq!(scans(&join), vec![all("orders"), all("customers")]);
        assert_eq!(scans(&sum(join)), vec![all("orders"), all("customers")]);
        let union = LogicalPlan::scan("orders").union(LogicalPlan::scan("orders"));
        assert_eq!(scans(&sum(union)), vec![all("orders"), all("orders")]);
        let distinct = LogicalPlan::scan("orders").distinct();
        assert_eq!(scans(&sum(distinct)), vec![all("orders")]);
    }

    #[test]
    fn a_projected_scan_checks_its_column_names() {
        let plan = LogicalPlan::scan("orders").aggregate(vec!["nope".into()], vec![]);
        assert!(matches!(
            plan.execute(&source()),
            Err(EngineError::UnknownColumn(c)) if c == "nope"
        ));
    }
}
