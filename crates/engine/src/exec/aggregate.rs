use std::sync::Arc;

use super::keys::{GroupIndex, Keys};
use crate::column::Column;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::{EngineError, Result};

/// Aggregate functions supported by [`aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (ignores its input column's values).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
    /// Numeric mean.
    Avg,
}

impl AggFunc {
    fn output_type(self, input: DataType) -> Result<DataType> {
        match self {
            AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match input {
                DataType::Int64 => Ok(DataType::Int64),
                DataType::Float64 => Ok(DataType::Float64),
                DataType::Date => Ok(DataType::Date),
                other => Err(EngineError::TypeMismatch {
                    expected: "numeric".into(),
                    got: other.to_string(),
                    context: "aggregate".into(),
                }),
            },
            AggFunc::Avg => match input {
                DataType::Int64 | DataType::Float64 | DataType::Date => Ok(DataType::Float64),
                other => Err(EngineError::TypeMismatch {
                    expected: "numeric".into(),
                    got: other.to_string(),
                    context: "aggregate".into(),
                }),
            },
        }
    }
}

/// Hash aggregation: groups `input` by the named key columns and computes
/// `(func, input column, output name)` aggregates per group.
///
/// With no group keys the whole table forms a single group (global
/// aggregate), matching SQL semantics for a non-grouped aggregate over a
/// non-empty input; an empty input yields zero rows.
pub fn aggregate(
    input: &Table,
    group_by: &[String],
    aggs: &[(AggFunc, String, String)],
) -> Result<Table> {
    let key_cols: Vec<&Column> = group_by
        .iter()
        .map(|g| input.column_by_name(g))
        .collect::<Result<_>>()?;
    let agg_cols: Vec<&Column> = aggs
        .iter()
        .map(|(_, c, _)| input.column_by_name(c))
        .collect::<Result<_>>()?;

    // Validate output types up front.
    let mut fields: Vec<Field> = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        fields.push(input.schema().field(g)?.clone());
    }
    for ((func, _, name), col) in aggs.iter().zip(&agg_cols) {
        fields.push(Field::new(name.clone(), func.output_type(col.data_type())?));
    }

    // Group rows: dense ids in first-seen order.
    let sources = [Keys::new(key_cols.clone(), input.num_rows())];
    let mut groups = GroupIndex::default();
    let ids = groups.intern_all(&sources, 0);
    let n = groups.len();

    // Emit one row per group in first-seen order (deterministic output):
    // keys gathered from each group's first row, aggregates folded over
    // the input in row order.
    let first: Vec<usize> = groups.first_rows().iter().map(|&(_, row)| row).collect();
    let mut columns: Vec<Column> = key_cols.iter().map(|c| c.take(&first)).collect();
    for ((func, _, _), col) in aggs.iter().zip(&agg_cols) {
        let dtype = fields[columns.len()].dtype;
        let sum = || fold_groups(col, &ids, n, 0.0, |acc, v| acc + v);
        let count = || fold_groups(col, &ids, n, 0.0, |acc, _| acc + 1.0);
        let values = match func {
            AggFunc::Count => count(),
            AggFunc::Sum => sum(),
            AggFunc::Min => fold_groups(col, &ids, n, f64::INFINITY, f64::min),
            AggFunc::Max => fold_groups(col, &ids, n, f64::NEG_INFINITY, f64::max),
            AggFunc::Avg => sum()
                .into_iter()
                .zip(count())
                .map(|(sum, count)| sum / count.max(1.0))
                .collect(),
        };
        columns.push(numeric_column(dtype, values, "aggregate")?);
    }
    Table::new(Arc::new(Schema::new(fields)?), columns)
}

/// Folds `col`'s values, read as `f64`, into one accumulator per group in
/// row order; `ids[row]` is the row's group. Non-numeric columns read as
/// 0.0 (only `Count`, which ignores values, accepts them).
fn fold_groups(
    col: &Column,
    ids: &[usize],
    groups: usize,
    init: f64,
    step: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    fn run<T: Copy>(
        acc: &mut [f64],
        ids: &[usize],
        v: &[T],
        as_f64: impl Fn(T) -> f64,
        step: impl Fn(f64, f64) -> f64,
    ) {
        for (&g, &x) in ids.iter().zip(v) {
            acc[g] = step(acc[g], as_f64(x));
        }
    }
    let mut acc = vec![init; groups];
    match col {
        Column::Int64(v) => run(&mut acc, ids, v, |x| x as f64, step),
        Column::Float64(v) => run(&mut acc, ids, v, |x| x, step),
        Column::Date(v) => run(&mut acc, ids, v, |x| x as f64, step),
        Column::Utf8(_) | Column::Bool(_) => {
            for &g in ids {
                acc[g] = step(acc[g], 0.0);
            }
        }
    }
    acc
}

/// An aggregate's output column from its `f64` accumulators, cast to the
/// output type (`Int64` and `Date` truncate); `context` names the operator
/// in the error for a non-numeric type with values to emit.
pub(super) fn numeric_column(dtype: DataType, values: Vec<f64>, context: &str) -> Result<Column> {
    Ok(match dtype {
        DataType::Int64 => Column::Int64(values.into_iter().map(|x| x as i64).collect()),
        DataType::Float64 => Column::Float64(values),
        DataType::Date => Column::Date(values.into_iter().map(|x| x as i32).collect()),
        other if values.is_empty() => Column::empty(other),
        other => {
            return Err(EngineError::TypeMismatch {
                expected: "numeric".into(),
                got: other.to_string(),
                context: context.into(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn sales() -> Table {
        let mut t = TableBuilder::new()
            .column("store", DataType::Utf8)
            .column("qty", DataType::Int64)
            .column("price", DataType::Float64)
            .build();
        for (s, q, p) in [
            ("a", 1, 10.0),
            ("b", 2, 20.0),
            ("a", 3, 30.0),
            ("b", 4, 5.0),
            ("a", 5, 1.0),
        ] {
            t.push_row(vec![s.into(), (q as i64).into(), p.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn group_by_sum_count() {
        let out = aggregate(
            &sales(),
            &["store".into()],
            &[
                (AggFunc::Sum, "qty".into(), "total_qty".into()),
                (AggFunc::Count, "qty".into(), "n".into()),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        // First-seen order: a then b.
        assert_eq!(out.value(0, 0), Value::Utf8("a".into()));
        assert_eq!(out.value(0, 1), Value::Int64(9));
        assert_eq!(out.value(0, 2), Value::Int64(3));
        assert_eq!(out.value(1, 1), Value::Int64(6));
    }

    #[test]
    fn min_max_avg() {
        let out = aggregate(
            &sales(),
            &["store".into()],
            &[
                (AggFunc::Min, "price".into(), "lo".into()),
                (AggFunc::Max, "price".into(), "hi".into()),
                (AggFunc::Avg, "price".into(), "mean".into()),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, 1), Value::Float64(1.0));
        assert_eq!(out.value(0, 2), Value::Float64(30.0));
        let Value::Float64(mean) = out.value(1, 3) else {
            panic!("avg must be float")
        };
        assert!((mean - 12.5).abs() < 1e-12);
    }

    #[test]
    fn global_aggregate_no_keys() {
        let out = aggregate(&sales(), &[], &[(AggFunc::Sum, "qty".into(), "s".into())]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int64(15));
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let empty = TableBuilder::new().column("x", DataType::Int64).build();
        let out = aggregate(&empty, &[], &[(AggFunc::Sum, "x".into(), "s".into())]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn sum_of_strings_rejected() {
        let r = aggregate(&sales(), &[], &[(AggFunc::Sum, "store".into(), "s".into())]);
        assert!(r.is_err());
        // Count of strings is fine.
        let ok = aggregate(
            &sales(),
            &[],
            &[(AggFunc::Count, "store".into(), "n".into())],
        )
        .unwrap();
        assert_eq!(ok.value(0, 0), Value::Int64(5));
    }

    #[test]
    fn unknown_columns_rejected() {
        assert!(aggregate(&sales(), &["zzz".into()], &[]).is_err());
        assert!(aggregate(&sales(), &[], &[(AggFunc::Sum, "zzz".into(), "s".into())]).is_err());
    }

    #[test]
    fn avg_output_is_float_even_for_ints() {
        let out = aggregate(&sales(), &[], &[(AggFunc::Avg, "qty".into(), "m".into())]).unwrap();
        assert_eq!(out.schema().field("m").unwrap().dtype, DataType::Float64);
        assert_eq!(out.value(0, 0), Value::Float64(3.0));
    }
}
