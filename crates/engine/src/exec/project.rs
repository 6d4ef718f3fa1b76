use std::sync::Arc;

use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::Result;

/// Keeps rows where `predicate` evaluates to `true`.
pub fn filter(input: &Table, predicate: &Expr) -> Result<Table> {
    let mask_col = predicate.evaluate(input)?;
    let mask = mask_col.as_bool()?;
    input.filter_rows(mask)
}

/// Evaluates `(expr, output name)` pairs into a new table; a bare column
/// reference shares the input's column.
pub fn project(input: &Table, exprs: &[(Expr, String)]) -> Result<Table> {
    let mut fields = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for (expr, name) in exprs {
        let col = match expr {
            Expr::Column(c) => Arc::clone(&input.columns()[input.schema().index_of(c)?]),
            expr => Arc::new(expr.evaluate(input)?),
        };
        fields.push(Field::new(name.clone(), col.data_type()));
        columns.push(col);
    }
    Table::from_shared(Arc::new(Schema::new(fields)?), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn t() -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        for i in 0..10 {
            t.push_row(vec![Value::Int64(i), Value::Float64(i as f64 * 1.5)])
                .unwrap();
        }
        t
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let out = filter(&t(), &Expr::col("k").ge(Expr::lit(7i64))).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, 0), Value::Int64(7));
    }

    #[test]
    fn filter_requires_bool_predicate() {
        assert!(filter(&t(), &Expr::col("k")).is_err());
    }

    #[test]
    fn project_computes_and_renames() {
        let out = project(
            &t(),
            &[
                (Expr::col("k"), "key".into()),
                (Expr::col("v").mul(Expr::lit(2.0f64)), "double_v".into()),
            ],
        )
        .unwrap();
        assert_eq!(out.num_columns(), 2);
        assert_eq!(
            out.schema().field("double_v").unwrap().dtype,
            DataType::Float64
        );
        assert_eq!(out.value(2, 1), Value::Float64(6.0));
    }

    #[test]
    fn project_rejects_duplicate_names() {
        let r = project(
            &t(),
            &[(Expr::col("k"), "x".into()), (Expr::col("v"), "x".into())],
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_input_passes_through() {
        let empty = TableBuilder::new().column("k", DataType::Int64).build();
        let out = filter(&empty, &Expr::col("k").gt(Expr::lit(0i64))).unwrap();
        assert_eq!(out.num_rows(), 0);
        let out = project(&empty, &[(Expr::col("k"), "k".into())]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
