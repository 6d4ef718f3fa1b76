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
/// When every probe row yields exactly one output row (an FK join), the
/// output shares the probe side's columns instead of gathering them.
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
    let inner = join_type == JoinType::Inner;
    // Output rows per probe row: its build matches, or one null-filled row
    // for a left join's miss.
    let fan = |key: usize| match key {
        NONE => usize::from(!inner),
        key => build.rows(key).len(),
    };
    // An FK join: every probe row yields exactly one output row. The
    // output's left half is then the probe side itself, so its columns
    // pass through and only the build side is gathered.
    let mut columns: Vec<Arc<Column>> = if keys.iter().all(|&key| fan(key) == 1) {
        left.columns().to_vec()
    } else {
        let mut left_idx: Vec<usize> = Vec::with_capacity(left.num_rows());
        for (row, &key) in keys.iter().enumerate() {
            left_idx.resize(left_idx.len() + fan(key), row);
        }
        left.columns()
            .iter()
            .map(|c| Arc::new(c.take(&left_idx)))
            .collect()
    };
    if inner {
        let mut right_idx: Vec<usize> = Vec::with_capacity(left.num_rows());
        for &key in keys.iter().filter(|&&key| key != NONE) {
            right_idx.extend_from_slice(build.rows(key));
        }
        columns.extend(right.columns().iter().map(|c| Arc::new(c.take(&right_idx))));
    } else {
        let mut right_idx: Vec<Option<usize>> = Vec::with_capacity(left.num_rows());
        for &key in &keys {
            match key {
                NONE => right_idx.push(None),
                key => right_idx.extend(build.rows(key).iter().copied().map(Some)),
            }
        }
        columns.extend(
            right
                .columns()
                .iter()
                .map(|c| Arc::new(take_optional(c, &right_idx))),
        );
    }

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
    Table::from_shared(Arc::new(Schema::new(fields)?), columns)
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

    /// `hash_join`'s output, asserted equal to a nested-loop join: for each
    /// left row in order, its matching right rows in order; a left join's
    /// miss gets the type's null.
    fn checked_join(left: &Table, right: &Table, on: (usize, usize), join_type: JoinType) -> Table {
        let out = hash_join(
            left,
            right,
            &[(
                left.schema().fields()[on.0].name.clone(),
                right.schema().fields()[on.1].name.clone(),
            )],
            join_type,
        )
        .unwrap();
        let mut expected = Table::empty(out.schema().clone());
        let values = |t: &Table, row: usize| -> Vec<Value> {
            (0..t.num_columns()).map(|c| t.value(row, c)).collect()
        };
        for l in 0..left.num_rows() {
            let mut matched = false;
            for r in 0..right.num_rows() {
                if left.value(l, on.0) == right.value(r, on.1) {
                    matched = true;
                    let mut row = values(left, l);
                    row.extend(values(right, r));
                    expected.push_row(row).unwrap();
                }
            }
            if !matched && join_type == JoinType::Left {
                let mut row = values(left, l);
                row.extend(right.schema().fields().iter().map(|f| match f.dtype {
                    DataType::Int64 => Value::Int64(0),
                    DataType::Utf8 => Value::Utf8(String::new()),
                    other => panic!("no null for {other}"),
                }));
                expected.push_row(row).unwrap();
            }
        }
        assert_eq!(out, expected);
        out
    }

    fn shares_probe_columns(out: &Table, probe: &Table) -> bool {
        probe
            .columns()
            .iter()
            .zip(out.columns())
            .all(|(p, o)| Arc::ptr_eq(p, o))
    }

    #[test]
    fn an_fk_join_shares_the_probe_columns() {
        // Every order but 103 has exactly one customer.
        let fk = orders().take_rows(&[0, 1, 2]).unwrap();
        let out = checked_join(&fk, &customers(), (1, 0), JoinType::Inner);
        assert!(shares_probe_columns(&out, &fk));
        // A left join's misses emit one row each, so order 103 passes too.
        let probe = orders();
        let out = checked_join(&probe, &customers(), (1, 0), JoinType::Left);
        assert_eq!(out.num_rows(), 4);
        assert!(shares_probe_columns(&out, &probe));
    }

    #[test]
    fn fan_out_and_inner_misses_gather_the_probe_side() {
        // Customer 1 has two orders: its row is repeated.
        let probe = customers();
        for join_type in [JoinType::Inner, JoinType::Left] {
            let out = checked_join(&probe, &orders(), (0, 1), join_type);
            assert_eq!(out.num_rows(), 3);
            assert!(!shares_probe_columns(&out, &probe));
        }
        // Order 103 has no customer: an inner join drops its row.
        let probe = orders();
        let out = checked_join(&probe, &customers(), (1, 0), JoinType::Inner);
        assert_eq!(out.num_rows(), 3);
        assert!(!shares_probe_columns(&out, &probe));
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
