use std::cmp::Ordering;

use super::keys::{GroupIndex, Keys};
use crate::column::Column;
use crate::table::Table;
use crate::Result;

/// A sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort by.
    pub column: String,
    /// Descending if true.
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: false,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            descending: true,
        }
    }
}

/// Stable multi-key sort.
pub fn sort_by(input: &Table, keys: &[SortKey]) -> Result<Table> {
    let cols: Vec<(&Column, bool)> = keys
        .iter()
        .map(|k| Ok((input.column_by_name(&k.column)?, k.descending)))
        .collect::<Result<_>>()?;
    let mut indices: Vec<usize> = (0..input.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for (col, desc) in &cols {
            let ord = compare_rows(col, a, b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    input.take_rows(&indices)
}

fn compare_rows(col: &Column, a: usize, b: usize) -> Ordering {
    match col {
        Column::Int64(v) => v[a].cmp(&v[b]),
        Column::Float64(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
        Column::Utf8(v) => v.bytes_at(a).cmp(v.bytes_at(b)),
        Column::Bool(v) => v[a].cmp(&v[b]),
        Column::Date(v) => v[a].cmp(&v[b]),
    }
}

/// Keeps the first `n` rows.
pub fn limit(input: &Table, n: usize) -> Result<Table> {
    let take: Vec<usize> = (0..input.num_rows().min(n)).collect();
    input.take_rows(&take)
}

/// Keeps each distinct row's **first occurrence**, in input order (SQL
/// `SELECT DISTINCT *`). First-occurrence order is what makes the
/// operator's stored output mergeable: appending rows to the input can
/// only append new values after the existing ones (see
/// [`super::merge_distinct`]).
pub fn distinct(input: &Table) -> Result<Table> {
    let sources = [Keys::rows(input)];
    let mut seen = GroupIndex::default();
    seen.intern_all(&sources, 0);
    let take: Vec<usize> = seen.first_rows().iter().map(|&(_, row)| row).collect();
    input.take_rows(&take)
}

/// The first `n` rows under a stable multi-key sort — `ORDER BY … LIMIT n`
/// fused into one operator. Appending input rows can *reorder the entire
/// prefix*, so top-k has no append-only delta rule; the planner routes it
/// to the `UnsupportedShape` full-recompute fallback.
pub fn top_k(input: &Table, keys: &[SortKey], n: usize) -> Result<Table> {
    limit(&sort_by(input, keys)?, n)
}

/// Concatenates two tables with identical schemas (SQL `UNION ALL`).
pub fn union_all(a: &Table, b: &Table) -> Result<Table> {
    Table::concat(&[a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn t() -> Table {
        let mut t = TableBuilder::new()
            .column("g", DataType::Utf8)
            .column("v", DataType::Int64)
            .build();
        for (g, v) in [("b", 1), ("a", 3), ("b", 2), ("a", 1)] {
            t.push_row(vec![g.into(), (v as i64).into()]).unwrap();
        }
        t
    }

    #[test]
    fn multi_key_sort() {
        let out = sort_by(&t(), &[SortKey::asc("g"), SortKey::desc("v")]).unwrap();
        let got: Vec<(String, i64)> = (0..4)
            .map(|r| match (out.value(r, 0), out.value(r, 1)) {
                (Value::Utf8(g), Value::Int64(v)) => (g, v),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), 3),
                ("a".into(), 1),
                ("b".into(), 2),
                ("b".into(), 1)
            ]
        );
    }

    #[test]
    fn sort_unknown_column_errors() {
        assert!(sort_by(&t(), &[SortKey::asc("zz")]).is_err());
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit(&t(), 2).unwrap().num_rows(), 2);
        assert_eq!(limit(&t(), 100).unwrap().num_rows(), 4);
        assert_eq!(limit(&t(), 0).unwrap().num_rows(), 0);
    }

    #[test]
    fn union_all_stacks_rows() {
        let u = union_all(&t(), &t()).unwrap();
        assert_eq!(u.num_rows(), 8);
        let other = TableBuilder::new().column("x", DataType::Bool).build();
        assert!(union_all(&t(), &other).is_err());
    }

    #[test]
    fn distinct_keeps_first_occurrence_in_order() {
        let mut t = TableBuilder::new()
            .column("g", DataType::Utf8)
            .column("v", DataType::Int64)
            .build();
        for (g, v) in [("b", 1), ("a", 3), ("b", 1), ("a", 3), ("a", 1)] {
            t.push_row(vec![g.into(), (v as i64).into()]).unwrap();
        }
        let out = distinct(&t).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, 0), Value::Utf8("b".into()));
        assert_eq!(out.value(1, 0), Value::Utf8("a".into()));
        assert_eq!(out.value(2, 1), Value::Int64(1));
        // Already-distinct input is the identity.
        assert_eq!(distinct(&out).unwrap(), out);
    }

    #[test]
    fn top_k_is_sort_then_limit() {
        let out = top_k(&t(), &[SortKey::desc("v")], 2).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 1), Value::Int64(3));
        assert_eq!(out.value(1, 1), Value::Int64(2));
        assert_eq!(
            top_k(&t(), &[SortKey::desc("v")], 2).unwrap(),
            limit(&sort_by(&t(), &[SortKey::desc("v")]).unwrap(), 2).unwrap()
        );
        assert!(top_k(&t(), &[SortKey::asc("zz")], 2).is_err());
    }

    #[test]
    fn sort_floats_and_dates() {
        let mut f = TableBuilder::new()
            .column("x", DataType::Float64)
            .column("d", DataType::Date)
            .build();
        f.push_row(vec![Value::Float64(2.5), Value::Date(10)])
            .unwrap();
        f.push_row(vec![Value::Float64(1.5), Value::Date(20)])
            .unwrap();
        let out = sort_by(&f, &[SortKey::asc("x")]).unwrap();
        assert_eq!(out.value(0, 1), Value::Date(20));
        let out = sort_by(&f, &[SortKey::desc("d")]).unwrap();
        assert_eq!(out.value(0, 1), Value::Date(20));
    }
}
