use crate::types::{DataType, Value};
use crate::{EngineError, Result};

/// A typed column of values, stored as a dense native vector.
///
/// Strings are the only variable-width type; their heap bytes are counted by
/// [`Column::byte_size`] so the Memory Catalog accounting reflects real
/// footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// UTF-8 strings.
    Utf8(Vec<String>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Days since the Unix epoch.
    Date(Vec<i32>),
}

impl Column {
    /// Creates an empty column of `dtype`.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Date => Column::Date(Vec::new()),
        }
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => Column::Utf8(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Date => Column::Date(Vec::with_capacity(cap)),
        }
    }

    /// This column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
            Column::Date(_) => DataType::Date,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Date(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (panics if out of bounds, like slice indexing).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Float64(v) => Value::Float64(v[row]),
            Column::Utf8(v) => Value::Utf8(v[row].clone()),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Date(v) => Value::Date(v[row]),
        }
    }

    /// Appends `value`; fails on type mismatch.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (Column::Utf8(v), Value::Utf8(x)) => v.push(x),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (Column::Date(v), Value::Date(x)) => v.push(x),
            (col, value) => {
                return Err(EngineError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    got: value.data_type().to_string(),
                    context: "Column::push".into(),
                })
            }
        }
        Ok(())
    }

    /// In-memory footprint in bytes, including string heap data.
    pub fn byte_size(&self) -> u64 {
        match self {
            Column::Int64(v) => (v.len() * 8) as u64,
            Column::Float64(v) => (v.len() * 8) as u64,
            Column::Utf8(v) => v.iter().map(|s| s.len() as u64 + 24).sum::<u64>(),
            Column::Bool(v) => v.len() as u64,
            Column::Date(v) => (v.len() * 4) as u64,
        }
    }

    /// Builds a new column keeping only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        fn keep<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(keep(v, mask)),
            Column::Float64(v) => Column::Float64(keep(v, mask)),
            Column::Utf8(v) => Column::Utf8(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Date(v) => Column::Date(keep(v, mask)),
        }
    }

    /// Builds a new column with rows reordered/duplicated by `indices`.
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(gather(v, indices)),
            Column::Float64(v) => Column::Float64(gather(v, indices)),
            Column::Utf8(v) => Column::Utf8(gather(v, indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Date(v) => Column::Date(gather(v, indices)),
        }
    }

    /// Appends all values of `other`; fails on type mismatch.
    pub fn extend(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Date(a), Column::Date(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(EngineError::TypeMismatch {
                    expected: a.data_type().to_string(),
                    got: b.data_type().to_string(),
                    context: "Column::extend".into(),
                })
            }
        }
        Ok(())
    }

    /// Boolean view used by filters; fails for non-bool columns.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "Bool".into(),
                got: other.data_type().to_string(),
                context: "predicate".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_push() {
        let mut c = Column::empty(DataType::Int64);
        assert!(c.is_empty());
        c.push(Value::Int64(1)).unwrap();
        c.push(Value::Int64(2)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Int64(2));
        assert!(c.push(Value::Bool(true)).is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Column::Int64(vec![1, 2]).byte_size(), 16);
        assert_eq!(Column::Date(vec![1, 2]).byte_size(), 8);
        assert_eq!(Column::Bool(vec![true]).byte_size(), 1);
        // Strings: heap bytes + 24 bytes of Vec header each.
        assert_eq!(Column::Utf8(vec!["ab".into()]).byte_size(), 26);
    }

    #[test]
    fn filter_and_take() {
        let c = Column::Int64(vec![10, 20, 30, 40]);
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::Int64(vec![10, 30])
        );
        assert_eq!(c.take(&[3, 0, 0]), Column::Int64(vec![40, 10, 10]));
        let s = Column::Utf8(vec!["a".into(), "b".into()]);
        assert_eq!(s.filter(&[false, true]), Column::Utf8(vec!["b".into()]));
    }

    #[test]
    fn extend_matches_types() {
        let mut a = Column::Float64(vec![1.0]);
        a.extend(&Column::Float64(vec![2.0])).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.extend(&Column::Int64(vec![1])).is_err());
    }

    #[test]
    fn as_bool_checks_type() {
        assert!(Column::Bool(vec![true]).as_bool().is_ok());
        assert!(Column::Int64(vec![1]).as_bool().is_err());
    }

    #[test]
    fn with_capacity_types() {
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
            DataType::Date,
        ] {
            let c = Column::with_capacity(dt, 10);
            assert_eq!(c.data_type(), dt);
            assert!(c.is_empty());
        }
    }
}
