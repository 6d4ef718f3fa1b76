use crate::types::{DataType, Value};
use crate::{EngineError, Result};

#[cfg(test)]
mod utf8_props;

/// A typed column of values.
///
/// Fixed-width types are dense native vectors. Strings use Arrow's
/// layout ([`Utf8Column`]): one offsets array and one byte buffer per
/// column, so no value owns an allocation of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// UTF-8 strings.
    Utf8(Utf8Column),
    /// Booleans.
    Bool(Vec<bool>),
    /// Days since the Unix epoch.
    Date(Vec<i32>),
}

/// A column of strings: every value's bytes back to back in one buffer,
/// and `n + 1` offsets into it, starting at 0 — value `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`.
///
/// Building one from other columns (filter, gather, concatenation,
/// decode) sizes both buffers first and fills them once, so it allocates
/// twice whatever the row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Utf8Column {
    offsets: Vec<usize>,
    bytes: String,
}

impl Default for Utf8Column {
    fn default() -> Self {
        Utf8Column::with_capacity(0, 0)
    }
}

impl Utf8Column {
    /// An empty column with room for `values` values of `bytes` bytes in
    /// all.
    pub(crate) fn with_capacity(values: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(values + 1);
        offsets.push(0);
        Utf8Column {
            offsets,
            bytes: String::with_capacity(bytes),
        }
    }

    /// A column from its two buffers. `offsets` must start at 0, never
    /// decrease, end at `bytes.len()` and fall on character boundaries;
    /// callers build them that way (decode checks them first).
    pub(crate) fn from_parts(offsets: Vec<usize>, bytes: String) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&bytes.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets.iter().all(|&o| bytes.is_char_boundary(o)));
        Utf8Column { offsets, bytes }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (panics if out of bounds, like slice indexing).
    #[inline]
    pub fn get(&self, row: usize) -> &str {
        &self.bytes[self.offsets[row]..self.offsets[row + 1]]
    }

    /// The value at `row` as bytes. Hashing, equality and ordering use
    /// this: it skips `get`'s char-boundary checks (the offsets are
    /// checked once, when the column is built), and byte order is `str`
    /// order.
    #[inline]
    pub(crate) fn bytes_at(&self, row: usize) -> &[u8] {
        &self.bytes.as_bytes()[self.offsets[row]..self.offsets[row + 1]]
    }

    /// The two buffers: `n + 1` offsets from 0, and every value's bytes
    /// back to back. Kernels that walk every value (the key hash) read
    /// them directly instead of slicing one value at a time.
    #[inline]
    pub(crate) fn parts(&self) -> (&[usize], &[u8]) {
        (&self.offsets, self.bytes.as_bytes())
    }

    /// Every value in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }

    /// Appends one value.
    pub fn push_str(&mut self, value: &str) {
        self.bytes.push_str(value);
        self.offsets.push(self.bytes.len());
    }

    /// Total bytes of all values (the byte buffer's length).
    pub(crate) fn value_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The byte length of the value at `row`.
    #[inline]
    fn value_len(&self, row: usize) -> usize {
        self.offsets[row + 1] - self.offsets[row]
    }

    /// A column of `rows` values, each produced by `value` from the
    /// output row: an offsets pass that sizes the byte buffer, then one
    /// copy per value.
    fn gather(&self, rows: usize, value: impl Fn(usize) -> Option<usize>) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut end = 0;
        offsets.push(end);
        for out in 0..rows {
            if let Some(row) = value(out) {
                end += self.value_len(row);
            }
            offsets.push(end);
        }
        let mut bytes = String::with_capacity(end);
        for out in 0..rows {
            if let Some(row) = value(out) {
                bytes.push_str(self.get(row));
            }
        }
        Utf8Column::from_parts(offsets, bytes)
    }

    /// `value` repeated `rows` times.
    pub(crate) fn repeat(value: &str, rows: usize) -> Self {
        let offsets = (0..=rows).map(|i| i * value.len()).collect();
        Utf8Column::from_parts(offsets, value.repeat(rows))
    }

    /// The values at `indices`, in that order.
    fn take(&self, indices: &[usize]) -> Self {
        self.gather(indices.len(), |i| Some(indices[i]))
    }

    /// The values at `indices`, with `""` where an index is missing.
    pub(crate) fn take_optional(&self, indices: &[Option<usize>]) -> Self {
        self.gather(indices.len(), |i| indices[i])
    }

    /// Appends every value of `other`.
    fn extend(&mut self, other: &Utf8Column) {
        let base = self.bytes.len();
        self.bytes.push_str(&other.bytes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
    }
}

impl<'a> FromIterator<&'a str> for Utf8Column {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        let mut out = Utf8Column::default();
        for s in iter {
            out.push_str(s);
        }
        out
    }
}

impl From<Vec<&str>> for Utf8Column {
    fn from(values: Vec<&str>) -> Self {
        values.into_iter().collect()
    }
}

/// The rows `mask` keeps, in ascending order — or `None` when it keeps
/// every row, so a caller can clone instead of gathering. One counting
/// pass sizes the vector; the second writes every row index to the next
/// free slot and advances the slot by the mask bit, so no branch depends
/// on the data.
pub(crate) fn selection(mask: &[bool]) -> Option<Vec<usize>> {
    let kept = mask.iter().filter(|&&m| m).count();
    if kept == mask.len() {
        return None;
    }
    // One spare slot: a dropped row after the last kept one still writes.
    let mut rows = vec![0; kept + 1];
    let mut next = 0;
    for (row, &m) in mask.iter().enumerate() {
        rows[next] = row;
        next += m as usize;
    }
    rows.truncate(kept);
    Some(rows)
}

impl Column {
    /// Creates an empty column of `dtype`.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Utf8 => Column::Utf8(Utf8Column::default()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Date => Column::Date(Vec::new()),
        }
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => Column::Utf8(Utf8Column::with_capacity(cap, 0)),
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
            Column::Utf8(v) => Value::Utf8(v.get(row).to_string()),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Date(v) => Value::Date(v[row]),
        }
    }

    /// Appends `value`; fails on type mismatch.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (Column::Utf8(v), Value::Utf8(x)) => v.push_str(&x),
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

    /// In-memory footprint in bytes: the values' own bytes, and for
    /// strings the byte buffer plus `8·(n + 1)` bytes of offsets.
    pub fn byte_size(&self) -> u64 {
        match self {
            Column::Int64(v) => (v.len() * 8) as u64,
            Column::Float64(v) => (v.len() * 8) as u64,
            Column::Utf8(v) => (v.value_bytes() + 8 * (v.len() + 1)) as u64,
            Column::Bool(v) => v.len() as u64,
            Column::Date(v) => (v.len() * 4) as u64,
        }
    }

    /// Builds a new column keeping only rows where `mask` is true: the
    /// kept rows' indices are built once and gathered by
    /// [`Column::take`]; a mask that keeps every row returns a clone.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        match selection(mask) {
            Some(rows) => self.take(&rows),
            None => self.clone(),
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
            Column::Utf8(v) => Column::Utf8(v.take(indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Date(v) => Column::Date(gather(v, indices)),
        }
    }

    /// Appends all values of `other`; fails on type mismatch.
    pub fn extend(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend(b),
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

    /// The row-concatenation of `parts`, each of type `dtype`, into
    /// buffers sized once up front; fails on a part of another type.
    pub(crate) fn concat(dtype: DataType, parts: &[&Column]) -> Result<Column> {
        let rows = parts.iter().map(|c| c.len()).sum();
        let mut out = match dtype {
            DataType::Utf8 => {
                let bytes = parts
                    .iter()
                    .map(|c| match c {
                        Column::Utf8(v) => v.value_bytes(),
                        _ => 0,
                    })
                    .sum();
                Column::Utf8(Utf8Column::with_capacity(rows, bytes))
            }
            _ => Column::with_capacity(dtype, rows),
        };
        for part in parts {
            out.extend(part)?;
        }
        Ok(out)
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
        // Strings: the byte buffer + 8 bytes per offset (n + 1 of them).
        assert_eq!(Column::Utf8(vec!["ab"].into()).byte_size(), 2 + 16);
        assert_eq!(Column::Utf8(vec!["ab", "", "c"].into()).byte_size(), 3 + 32);
        assert_eq!(Column::empty(DataType::Utf8).byte_size(), 8);
    }

    #[test]
    fn filter_and_take() {
        let c = Column::Int64(vec![10, 20, 30, 40]);
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::Int64(vec![10, 30])
        );
        assert_eq!(c.take(&[3, 0, 0]), Column::Int64(vec![40, 10, 10]));
        let s = Column::Utf8(vec!["a", "b"].into());
        assert_eq!(s.filter(&[false, true]), Column::Utf8(vec!["b"].into()));
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
