use std::sync::Arc;

use super::keys::{JoinIndex, Keys, NONE};
use crate::column::Column;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::{EngineError, Result};

/// Join type. The S/C workloads (select-project-join units from TPC-DS)
/// need inner and left outer joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching pairs.
    Inner,
    /// Keep every left row; unmatched right columns are filled with
    /// type-appropriate nulls (0 / 0.0 / "" / false).
    Left,
}

/// Hash join of `left` and `right` on equality of the named key columns.
///
/// The smaller side should conventionally be `right` (the build side); the
/// probe streams over `left`. Output columns are the left columns followed
/// by the right columns, with right-side name collisions suffixed `_r`.
pub fn hash_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    join_type: JoinType,
) -> Result<Table> {
    if on.is_empty() {
        return Err(EngineError::InvalidPlan(
            "join requires at least one key".into(),
        ));
    }
    let left_keys: Vec<&Column> = on
        .iter()
        .map(|(l, _)| left.column_by_name(l))
        .collect::<Result<_>>()?;
    let right_keys: Vec<&Column> = on
        .iter()
        .map(|(_, r)| right.column_by_name(r))
        .collect::<Result<_>>()?;

    // Build side: right table. Probe side: left table, in row order, each
    // row's matches in build-row order.
    let build = JoinIndex::build(Keys::new(right_keys, right.num_rows()));
    let probe = Keys::new(left_keys, left.num_rows());
    let keys = build.probe(&probe);
    let mut left_idx: Vec<usize> = Vec::with_capacity(left.num_rows());
    let right_columns: Vec<Column> = match join_type {
        JoinType::Inner => {
            let mut right_idx: Vec<usize> = Vec::with_capacity(left.num_rows());
            for (row, &key) in keys.iter().enumerate() {
                if key == NONE {
                    continue;
                }
                for &r in build.rows(key) {
                    left_idx.push(row);
                    right_idx.push(r);
                }
            }
            right.columns().iter().map(|c| c.take(&right_idx)).collect()
        }
        JoinType::Left => {
            let mut right_idx: Vec<Option<usize>> = Vec::with_capacity(left.num_rows());
            for (row, &key) in keys.iter().enumerate() {
                if key == NONE {
                    left_idx.push(row);
                    right_idx.push(None);
                    continue;
                }
                for &r in build.rows(key) {
                    left_idx.push(row);
                    right_idx.push(Some(r));
                }
            }
            right
                .columns()
                .iter()
                .map(|c| take_optional(c, &right_idx))
                .collect()
        }
    };

    // Assemble output schema: left fields, then right fields (deduped).
    let mut fields: Vec<Field> = Vec::with_capacity(left.num_columns() + right.num_columns());
    fields.extend_from_slice(left.schema().fields());
    for f in right.schema().fields() {
        let name = if left.schema().index_of(&f.name).is_ok() {
            format!("{}_r", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field::new(name, f.dtype));
    }

    let mut columns: Vec<Column> = Vec::with_capacity(fields.len());
    for c in left.columns() {
        columns.push(c.take(&left_idx));
    }
    columns.extend(right_columns);
    Table::new(Arc::new(Schema::new(fields)?), columns)
}

/// Gathers rows where present, null-filling gaps (left-join misses) with
/// the type's null: 0 / 0.0 / "" (an empty span) / false / day 0.
fn take_optional(c: &Column, indices: &[Option<usize>]) -> Column {
    fn gather<T: Clone>(v: &[T], indices: &[Option<usize>], null: T) -> Vec<T> {
        indices
            .iter()
            .map(|i| match i {
                Some(i) => v[*i].clone(),
                None => null.clone(),
            })
            .collect()
    }
    match c {
        Column::Int64(v) => Column::Int64(gather(v, indices, 0)),
        Column::Float64(v) => Column::Float64(gather(v, indices, 0.0)),
        Column::Utf8(v) => Column::Utf8(v.take_optional(indices)),
        Column::Bool(v) => Column::Bool(gather(v, indices, false)),
        Column::Date(v) => Column::Date(gather(v, indices, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn orders() -> Table {
        let mut t = TableBuilder::new()
            .column("order_id", DataType::Int64)
            .column("cust_id", DataType::Int64)
            .column("amount", DataType::Float64)
            .build();
        t.push_row(vec![100.into(), 1.into(), 10.0.into()]).unwrap();
        t.push_row(vec![101.into(), 2.into(), 20.0.into()]).unwrap();
        t.push_row(vec![102.into(), 1.into(), 30.0.into()]).unwrap();
        t.push_row(vec![103.into(), 9.into(), 40.0.into()]).unwrap();
        t
    }

    fn customers() -> Table {
        let mut t = TableBuilder::new()
            .column("cust_id", DataType::Int64)
            .column("name", DataType::Utf8)
            .build();
        t.push_row(vec![1.into(), "alice".into()]).unwrap();
        t.push_row(vec![2.into(), "bob".into()]).unwrap();
        t
    }

    #[test]
    fn inner_join_matches_keys() {
        let out = hash_join(
            &orders(),
            &customers(),
            &[("cust_id".into(), "cust_id".into())],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3); // order 103 has no customer
                                       // Collision: right cust_id renamed.
        assert!(out.schema().index_of("cust_id_r").is_ok());
        assert_eq!(
            out.value(0, out.schema().index_of("name").unwrap()),
            Value::Utf8("alice".into())
        );
    }

    #[test]
    fn left_join_null_fills() {
        let out = hash_join(
            &orders(),
            &customers(),
            &[("cust_id".into(), "cust_id".into())],
            JoinType::Left,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4);
        let name_col = out.schema().index_of("name").unwrap();
        assert_eq!(out.value(3, name_col), Value::Utf8(String::new()));
    }

    #[test]
    fn one_to_many_duplicates_probe_rows() {
        // Customer 1 has two orders; joining customers->orders fans out.
        let out = hash_join(
            &customers(),
            &orders(),
            &[("cust_id".into(), "cust_id".into())],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn multi_key_join() {
        let mut l = TableBuilder::new()
            .column("a", DataType::Int64)
            .column("b", DataType::Utf8)
            .build();
        l.push_row(vec![1.into(), "x".into()]).unwrap();
        l.push_row(vec![1.into(), "y".into()]).unwrap();
        let mut r = TableBuilder::new()
            .column("a2", DataType::Int64)
            .column("b2", DataType::Utf8)
            .column("v", DataType::Int64)
            .build();
        r.push_row(vec![1.into(), "x".into(), 7.into()]).unwrap();
        r.push_row(vec![1.into(), "z".into(), 8.into()]).unwrap();
        let out = hash_join(
            &l,
            &r,
            &[("a".into(), "a2".into()), ("b".into(), "b2".into())],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(
            out.value(0, out.schema().index_of("v").unwrap()),
            Value::Int64(7)
        );
    }

    #[test]
    fn join_requires_keys_and_valid_columns() {
        assert!(hash_join(&orders(), &customers(), &[], JoinType::Inner).is_err());
        assert!(hash_join(
            &orders(),
            &customers(),
            &[("nope".into(), "cust_id".into())],
            JoinType::Inner
        )
        .is_err());
    }

    #[test]
    fn empty_sides() {
        let empty_right = TableBuilder::new()
            .column("cust_id", DataType::Int64)
            .build();
        let out = hash_join(
            &orders(),
            &empty_right,
            &[("cust_id".into(), "cust_id".into())],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
        let out = hash_join(
            &orders(),
            &empty_right,
            &[("cust_id".into(), "cust_id".into())],
            JoinType::Left,
        )
        .unwrap();
        assert_eq!(out.num_rows(), orders().num_rows());
    }
}
