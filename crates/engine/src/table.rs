use std::fmt::Write as _;
use std::sync::Arc;

use crate::column::{selection, Column};
use crate::schema::{Field, Schema};
use crate::types::{DataType, Value};
use crate::{EngineError, Result};

#[cfg(test)]
mod filter_props;

/// An immutable-schema, columnar table (the unit the catalogs store and the
/// operators consume/produce).
///
/// Columns are reference-counted: cloning a table costs O(columns), and an
/// operator whose output column equals an input column hands that column
/// on ([`Table::from_shared`]) instead of copying it. Mutation
/// ([`Table::push_row`]) is copy-on-write, so it never changes a table
/// that shares the column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    num_rows: usize,
}

impl Table {
    /// Creates a table from a schema and matching columns.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        Table::from_shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// [`Table::new`] over columns that may be shared with other tables.
    pub fn from_shared(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(EngineError::ArityMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.dtype != c.data_type() {
                return Err(EngineError::TypeMismatch {
                    expected: f.dtype.to_string(),
                    got: c.data_type().to_string(),
                    context: format!("column '{}'", f.name),
                });
            }
            if c.len() != num_rows {
                return Err(EngineError::ArityMismatch {
                    expected: num_rows,
                    got: c.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.dtype)))
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns, each shareable with another table.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Appends a row of values in schema order.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        // Validate all values first so a failed push cannot leave ragged
        // columns behind.
        for (c, v) in self.columns.iter().zip(&row) {
            if c.data_type() != v.data_type() {
                return Err(EngineError::TypeMismatch {
                    expected: c.data_type().to_string(),
                    got: v.data_type().to_string(),
                    context: "Table::push_row".into(),
                });
            }
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(c).push(v).expect("validated above");
        }
        self.num_rows += 1;
        Ok(())
    }

    /// The value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Total in-memory footprint in bytes (the `si` the optimizer sees).
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// A new table keeping only rows where `mask` is true: the kept
    /// rows' indices are built once and every column gathers them; a mask
    /// that keeps every row shares every column.
    pub fn filter_rows(&self, mask: &[bool]) -> Result<Table> {
        if mask.len() != self.num_rows {
            return Err(EngineError::ArityMismatch {
                expected: self.num_rows,
                got: mask.len(),
            });
        }
        let Some(rows) = selection(mask) else {
            return Ok(self.clone());
        };
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(&rows)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// A new table with rows gathered by `indices` (duplicates allowed).
    pub fn take_rows(&self, indices: &[usize]) -> Result<Table> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.num_rows) {
            return Err(EngineError::ArityMismatch {
                expected: self.num_rows,
                got: bad,
            });
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Concatenates tables with identical schemas; one table is shared,
    /// not copied.
    pub fn concat(tables: &[&Table]) -> Result<Table> {
        let first = tables
            .first()
            .ok_or_else(|| EngineError::InvalidPlan("concat requires at least one table".into()))?;
        if let [only] = tables {
            return Ok((*only).clone());
        }
        if let Some(t) = tables.iter().find(|t| t.schema != first.schema) {
            return Err(EngineError::TypeMismatch {
                expected: first.schema.to_string(),
                got: t.schema.to_string(),
                context: "concat".into(),
            });
        }
        let columns = first
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let parts: Vec<&Column> = tables.iter().map(|t| &*t.columns[i]).collect();
                Column::concat(f.dtype, &parts).map(Arc::new)
            })
            .collect::<Result<_>>()?;
        Ok(Table {
            schema: first.schema.clone(),
            columns,
            num_rows: tables.iter().map(|t| t.num_rows).sum(),
        })
    }

    /// Renders the first `limit` rows as an ASCII table (for examples and
    /// debugging).
    pub fn pretty(&self, limit: usize) -> String {
        let mut s = String::new();
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        let _ = writeln!(s, "| {} |", names.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            names
                .iter()
                .map(|n| "-".repeat(n.len() + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in 0..self.num_rows.min(limit) {
            let vals: Vec<String> = (0..self.num_columns())
                .map(|c| self.value(row, c).to_string())
                .collect();
            let _ = writeln!(s, "| {} |", vals.join(" | "));
        }
        if self.num_rows > limit {
            let _ = writeln!(s, "... {} more rows", self.num_rows - limit);
        }
        s
    }
}

/// Fluent builder for small tables (tests, examples, dimension data).
#[derive(Debug, Default)]
pub struct TableBuilder {
    fields: Vec<Field>,
}

impl TableBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        TableBuilder { fields: Vec::new() }
    }

    /// Adds a column.
    pub fn column(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.fields.push(Field::new(name, dtype));
        self
    }

    /// Builds the (empty) table; panics on duplicate column names, which is
    /// a programming error in construction code.
    pub fn build(self) -> Table {
        let schema = Schema::new(self.fields).expect("duplicate column name in TableBuilder");
        Table::empty(Arc::new(schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("name", DataType::Utf8)
            .column("score", DataType::Float64)
            .build();
        t.push_row(vec![1.into(), "alice".into(), 9.5.into()])
            .unwrap();
        t.push_row(vec![2.into(), "bob".into(), 7.0.into()])
            .unwrap();
        t.push_row(vec![3.into(), "carol".into(), 8.25.into()])
            .unwrap();
        t
    }

    #[test]
    fn build_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.value(1, 1), Value::Utf8("bob".into()));
        assert_eq!(t.column_by_name("score").unwrap().len(), 3);
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn push_row_validates_before_mutating() {
        let mut t = sample();
        // Wrong type in the *last* column: nothing must be appended.
        let err = t.push_row(vec![4.into(), "dave".into(), Value::Bool(true)]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(0).len(), 3, "no partial row may remain");
        // Wrong arity.
        assert!(t.push_row(vec![4.into()]).is_err());
    }

    #[test]
    fn push_row_on_a_clone_leaves_the_original_unchanged() {
        let original = sample();
        let mut copy = original.clone();
        for (a, b) in original.columns().iter().zip(copy.columns()) {
            assert!(Arc::ptr_eq(a, b), "a clone shares every column");
        }
        copy.push_row(vec![4.into(), "dave".into(), 6.5.into()])
            .unwrap();
        assert_eq!(original, sample());
        assert_eq!(copy.num_rows(), 4);
        assert_eq!(copy.value(3, 1), Value::Utf8("dave".into()));
        for (a, b) in original.columns().iter().zip(copy.columns()) {
            assert!(!Arc::ptr_eq(a, b), "the push copied the shared column");
        }
    }

    #[test]
    fn new_validates_schema_and_lengths() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Bool),
            ])
            .unwrap(),
        );
        assert!(Table::new(schema.clone(), vec![Column::Int64(vec![1])]).is_err());
        assert!(Table::new(
            schema.clone(),
            vec![Column::Int64(vec![1]), Column::Int64(vec![2])]
        )
        .is_err());
        assert!(Table::new(
            schema,
            vec![Column::Int64(vec![1]), Column::Bool(vec![true, false])]
        )
        .is_err());
    }

    #[test]
    fn filter_and_take() {
        let t = sample();
        let f = t.filter_rows(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(1, 1), Value::Utf8("carol".into()));
        let g = t.take_rows(&[2, 2, 0]).unwrap();
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.value(0, 0), Value::Int64(3));
        assert!(t.take_rows(&[9]).is_err());
        assert!(t.filter_rows(&[true]).is_err());
    }

    #[test]
    fn concat_requires_same_schema() {
        let t = sample();
        let joined = Table::concat(&[&t, &t]).unwrap();
        assert_eq!(joined.num_rows(), 6);
        let other = TableBuilder::new().column("x", DataType::Bool).build();
        assert!(Table::concat(&[&t, &other]).is_err());
        assert!(Table::concat(&[]).is_err());
    }

    #[test]
    fn byte_size_counts_strings() {
        let t = sample();
        // 3 i64 (24) + 3 f64 (24) + strings (5+3+5 bytes + 4 offsets × 8).
        assert_eq!(t.byte_size(), 24 + 24 + (5 + 3 + 5 + 32));
    }

    #[test]
    fn pretty_renders_and_truncates() {
        let t = sample();
        let p = t.pretty(2);
        assert!(p.contains("alice"));
        assert!(p.contains("1 more rows"));
        assert!(!p.contains("carol"));
    }
}
