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
        let sum = || fold_floats(col, &ids, n, 0.0, |acc, v| acc + v);
        let acc = match (func, dtype) {
            (AggFunc::Avg, _) => {
                let count = fold_floats(col, &ids, n, 0.0, |acc, _| acc + 1.0);
                Acc::Float(
                    sum()
                        .into_iter()
                        .zip(count)
                        .map(|(sum, count)| sum / count.max(1.0))
                        .collect(),
                )
            }
            (_, DataType::Float64) => Acc::Float(match func {
                AggFunc::Min => fold_floats(col, &ids, n, f64::INFINITY, f64::min),
                AggFunc::Max => fold_floats(col, &ids, n, f64::NEG_INFINITY, f64::max),
                _ => sum(),
            }),
            _ => {
                let mut acc = Acc::Int(Vec::with_capacity(n));
                acc.fold(*func, col, &ids)?;
                acc
            }
        };
        columns.push(acc.into_column(dtype, "aggregate")?);
    }
    Table::new(Arc::new(Schema::new(fields)?), columns)
}

/// Folds `col`'s values, read as `f64`, into one accumulator per group in
/// row order; `ids[row]` is the row's group. Serves `Float64` outputs and
/// `Avg`; the numeric output types reject every other input.
fn fold_floats(
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

/// One aggregate's per-group accumulators, by group id. Integer outputs
/// (`Int64`, `Date`, and every `Count`) accumulate exactly in `i64`, so a
/// sum or extreme above 2^53 keeps every bit; `Float64` outputs in `f64`.
pub(super) enum Acc {
    /// `Int64` and `Date` outputs.
    Int(Vec<i64>),
    /// `Float64` outputs.
    Float(Vec<f64>),
}

/// Puts each value in its group's accumulator, in row order: an id equal
/// to `acc.len()` opens the group with `first(x)`, any other steps it.
/// Ids come in first-seen order, so every other id is already open.
fn each_group<T: Copy>(
    acc: &mut Vec<T>,
    ids: &[usize],
    values: impl Iterator<Item = T>,
    first: impl Fn(T) -> T,
    step: impl Fn(T, T) -> Option<T>,
) -> Result<()> {
    for (&g, x) in ids.iter().zip(values) {
        if g == acc.len() {
            acc.push(first(x));
        } else {
            acc[g] = step(acc[g], x)
                .ok_or_else(|| EngineError::Arithmetic("integer overflow in aggregate".into()))?;
        }
    }
    Ok(())
}

impl Acc {
    /// Empty accumulators for an aggregate whose output type is `dtype`,
    /// with room for `groups` groups.
    pub(super) fn for_output(dtype: DataType, groups: usize) -> Acc {
        match dtype {
            DataType::Float64 => Acc::Float(Vec::with_capacity(groups)),
            _ => Acc::Int(Vec::with_capacity(groups)),
        }
    }

    /// Folds `func` over `col` in row order, `ids[row]` being the row's
    /// group (see [`each_group`]). A new group starts from its first value
    /// (1 for `Count`); an integer overflow is an
    /// [`EngineError::Arithmetic`] error, never a wrapped or saturated
    /// value.
    pub(super) fn fold(&mut self, func: AggFunc, col: &Column, ids: &[usize]) -> Result<()> {
        fn ints(
            acc: &mut Vec<i64>,
            func: AggFunc,
            ids: &[usize],
            values: impl Iterator<Item = i64>,
        ) -> Result<()> {
            match func {
                AggFunc::Count => each_group(acc, ids, values, |_| 1, |a, _| a.checked_add(1)),
                AggFunc::Sum => each_group(acc, ids, values, |x| x, i64::checked_add),
                AggFunc::Min => each_group(acc, ids, values, |x| x, |a, x| Some(a.min(x))),
                AggFunc::Max => each_group(acc, ids, values, |x| x, |a, x| Some(a.max(x))),
                AggFunc::Avg => Err(EngineError::InvalidPlan("Avg folds in f64".into())),
            }
        }
        match (self, col) {
            (Acc::Int(acc), _) if func == AggFunc::Count => {
                ints(acc, func, ids, std::iter::repeat(0))
            }
            (Acc::Int(acc), Column::Int64(v)) => ints(acc, func, ids, v.iter().copied()),
            (Acc::Int(acc), Column::Date(v)) => ints(acc, func, ids, v.iter().map(|&x| x as i64)),
            (Acc::Float(acc), Column::Float64(v)) => {
                let step = match func {
                    AggFunc::Sum => |a: f64, x: f64| Some(a + x),
                    AggFunc::Min => |a: f64, x: f64| Some(a.min(x)),
                    AggFunc::Max => |a: f64, x: f64| Some(a.max(x)),
                    AggFunc::Count | AggFunc::Avg => {
                        return Err(EngineError::InvalidPlan(format!(
                            "{func:?} does not fold in f64"
                        )))
                    }
                };
                each_group(acc, ids, v.iter().copied(), |x| x, step)
            }
            _ if ids.is_empty() => Ok(()),
            (acc, col) => Err(acc.type_error(col.data_type(), "aggregate input")),
        }
    }

    /// Sets each group's accumulator to the stored `col` value of its row
    /// (`ids[row]` being the row's group), opening groups in first-seen
    /// order; a repeated stored key keeps its last stored value.
    pub(super) fn resume(&mut self, col: &Column, ids: &[usize]) -> Result<()> {
        fn last<T>(_: T, x: T) -> Option<T> {
            Some(x)
        }
        match (self, col) {
            (Acc::Int(acc), Column::Int64(v)) => {
                each_group(acc, ids, v.iter().copied(), |x| x, last)
            }
            (Acc::Int(acc), Column::Date(v)) => {
                each_group(acc, ids, v.iter().map(|&x| x as i64), |x| x, last)
            }
            (Acc::Float(acc), Column::Float64(v)) => {
                each_group(acc, ids, v.iter().copied(), |x| x, last)
            }
            _ if ids.is_empty() => Ok(()),
            (acc, col) => Err(acc.type_error(col.data_type(), "stored aggregate")),
        }
    }

    /// The accumulators of `groups`, in that order.
    pub(super) fn gather(self, groups: &[usize]) -> Acc {
        match self {
            Acc::Int(v) => Acc::Int(groups.iter().map(|&g| v[g]).collect()),
            Acc::Float(v) => Acc::Float(groups.iter().map(|&g| v[g]).collect()),
        }
    }

    fn type_error(&self, got: DataType, context: &str) -> EngineError {
        EngineError::TypeMismatch {
            expected: match self {
                Acc::Int(_) => "Int64 or Date",
                Acc::Float(_) => "Float64",
            }
            .into(),
            got: got.to_string(),
            context: context.into(),
        }
    }

    /// The output column of type `dtype`; `context` names the operator in
    /// an error. A `Date` outside `i32` is an [`EngineError::Arithmetic`]
    /// error, not a truncated day.
    pub(super) fn into_column(self, dtype: DataType, context: &str) -> Result<Column> {
        Ok(match (self, dtype) {
            (Acc::Float(v), DataType::Float64) => Column::Float64(v),
            (Acc::Int(v), DataType::Int64) => Column::Int64(v),
            (Acc::Int(v), DataType::Date) => Column::Date(
                v.into_iter()
                    .map(|x| {
                        i32::try_from(x).map_err(|_| {
                            EngineError::Arithmetic(format!("{context}: day {x} overflows a Date"))
                        })
                    })
                    .collect::<Result<_>>()?,
            ),
            (Acc::Int(v), other) if v.is_empty() => Column::empty(other),
            (Acc::Float(v), other) if v.is_empty() => Column::empty(other),
            (_, other) => {
                return Err(EngineError::TypeMismatch {
                    expected: "numeric".into(),
                    got: other.to_string(),
                    context: context.into(),
                })
            }
        })
    }
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

    #[test]
    fn integer_aggregates_stay_exact_above_2_pow_53() {
        let big = 1i64 << 53;
        let ints = |values: &[i64]| {
            let mut t = TableBuilder::new().column("x", DataType::Int64).build();
            for &v in values {
                t.push_row(vec![v.into()]).unwrap();
            }
            t
        };
        let one = |t: &Table, func| {
            aggregate(t, &[], &[(func, "x".into(), "a".into())]).map(|out| out.value(0, 0))
        };
        assert_eq!(
            one(&ints(&[big, 1]), AggFunc::Sum).unwrap(),
            Value::Int64(big + 1)
        );
        assert_eq!(
            one(&ints(&[big + 1]), AggFunc::Max).unwrap(),
            Value::Int64(big + 1)
        );
        assert_eq!(
            one(&ints(&[big + 1, big + 3]), AggFunc::Min).unwrap(),
            Value::Int64(big + 1)
        );
        // Overflow is a typed error, not a saturated or wrapped value.
        assert!(matches!(
            one(&ints(&[i64::MAX, 1]), AggFunc::Sum),
            Err(EngineError::Arithmetic(_))
        ));
        let mut days = TableBuilder::new().column("x", DataType::Date).build();
        for d in [i32::MAX, 1] {
            days.push_row(vec![Value::Date(d)]).unwrap();
        }
        assert!(matches!(
            one(&days, AggFunc::Sum),
            Err(EngineError::Arithmetic(_))
        ));
        assert_eq!(one(&days, AggFunc::Max).unwrap(), Value::Date(i32::MAX));
    }
}
