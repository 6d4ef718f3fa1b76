//! Scalar expressions evaluated column-at-a-time over a [`Table`].
//!
//! A binary operator reads a referenced column by borrow, and a literal
//! operand stays one scalar rather than a full-length column; only the
//! result of an operator is materialized.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::column::{Column, Utf8Column};
use crate::table::Table;
use crate::types::{DataType, Value};
use crate::{EngineError, Result};

/// Binary operators supported in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division (errors on division by zero).
    Div,
    /// Equality on any type.
    Eq,
    /// Inequality on any type.
    Ne,
    /// Less-than on numerics, dates and strings.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
}

#[allow(clippy::should_implement_trait)] // fluent builder API: a.add(b) reads as SQL
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(rhs),
        }
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }
    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// `self != rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// Columns referenced by this expression (with duplicates).
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
        }
    }

    /// Evaluates the expression over every row of `table`.
    pub fn evaluate(&self, table: &Table) -> Result<Column> {
        Ok(match self.operand(table)? {
            Operand::Column(c) => c.into_owned(),
            Operand::Scalar(v) => broadcast(v, table.num_rows()),
        })
    }

    /// The expression's value over `table` without copying a referenced
    /// column or expanding a literal.
    fn operand<'a>(&'a self, table: &'a Table) -> Result<Operand<'a>> {
        Ok(match self {
            Expr::Column(name) => Operand::Column(Cow::Borrowed(table.column_by_name(name)?)),
            Expr::Literal(v) => Operand::Scalar(v),
            Expr::Binary { left, op, right } => {
                let l = left.operand(table)?;
                let r = right.operand(table)?;
                Operand::Column(Cow::Owned(eval_binary(&l, *op, &r, table.num_rows())?))
            }
        })
    }

    /// The output type of this expression over `table`'s schema, without
    /// evaluating it.
    pub fn output_type(&self, table: &Table) -> Result<DataType> {
        match self {
            Expr::Column(name) => Ok(table.schema().field(name)?.dtype),
            Expr::Literal(v) => Ok(v.data_type()),
            Expr::Binary { left, op, right } => {
                let lt = left.output_type(table)?;
                let rt = right.output_type(table)?;
                binary_output_type(lt, *op, rt)
            }
        }
    }
}

fn binary_output_type(l: DataType, op: BinOp, r: DataType) -> Result<DataType> {
    use BinOp::*;
    let numeric = |t: DataType| matches!(t, DataType::Int64 | DataType::Float64 | DataType::Date);
    match op {
        Add | Sub | Mul | Div => {
            if !numeric(l) || !numeric(r) {
                return Err(type_err(l, r, "arithmetic"));
            }
            if l == DataType::Int64 && r == DataType::Int64 && op != Div {
                Ok(DataType::Int64)
            } else {
                Ok(DataType::Float64)
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => Ok(DataType::Bool),
        And | Or => {
            if l == DataType::Bool && r == DataType::Bool {
                Ok(DataType::Bool)
            } else {
                Err(type_err(l, r, "boolean logic"))
            }
        }
    }
}

fn type_err(l: DataType, r: DataType, context: &str) -> EngineError {
    EngineError::TypeMismatch {
        expected: l.to_string(),
        got: r.to_string(),
        context: context.to_string(),
    }
}

/// One side of a binary operator: a column (borrowed from the table or
/// computed by a sub-expression) or a literal that stays scalar.
enum Operand<'a> {
    Column(Cow<'a, Column>),
    Scalar(&'a Value),
}

impl Operand<'_> {
    fn data_type(&self) -> DataType {
        match self {
            Operand::Column(c) => c.data_type(),
            Operand::Scalar(v) => v.data_type(),
        }
    }
}

/// `v` repeated `rows` times.
fn broadcast(v: &Value, rows: usize) -> Column {
    match v {
        Value::Int64(x) => Column::Int64(vec![*x; rows]),
        Value::Float64(x) => Column::Float64(vec![*x; rows]),
        Value::Utf8(x) => Column::Utf8(Utf8Column::repeat(x, rows)),
        Value::Bool(x) => Column::Bool(vec![*x; rows]),
        Value::Date(x) => Column::Date(vec![*x; rows]),
    }
}

/// A typed view of one operand: a slice of every row, or one value.
enum Side<'a, T: Clone> {
    Rows(Cow<'a, [T]>),
    Scalar(T),
}

impl<'a, T: Clone> Side<'a, T> {
    /// `f` applied row by row to `self` and `other`, over `rows` rows.
    fn zip<U: Clone, R>(
        &self,
        other: &Side<'_, U>,
        rows: usize,
        f: impl Fn(&T, &U) -> R,
    ) -> Vec<R> {
        match (self, other) {
            (Side::Rows(a), Side::Rows(b)) => {
                a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect()
            }
            (Side::Rows(a), Side::Scalar(y)) => a.iter().map(|x| f(x, y)).collect(),
            (Side::Scalar(x), Side::Rows(b)) => b.iter().map(|y| f(x, y)).collect(),
            (Side::Scalar(x), Side::Scalar(y)) => (0..rows).map(|_| f(x, y)).collect(),
        }
    }
}

fn int64_side<'a>(o: &'a Operand<'_>) -> Option<Side<'a, i64>> {
    match o {
        Operand::Column(c) => match c.as_ref() {
            Column::Int64(v) => Some(Side::Rows(Cow::Borrowed(v))),
            _ => None,
        },
        Operand::Scalar(Value::Int64(x)) => Some(Side::Scalar(*x)),
        Operand::Scalar(_) => None,
    }
}

/// A string view of one operand: a column's values, or one value.
enum StrSide<'a> {
    Rows(&'a Utf8Column),
    Scalar(&'a str),
}

fn utf8_side<'a>(o: &'a Operand<'_>) -> Option<StrSide<'a>> {
    match o {
        Operand::Column(c) => match c.as_ref() {
            Column::Utf8(v) => Some(StrSide::Rows(v)),
            _ => None,
        },
        Operand::Scalar(Value::Utf8(x)) => Some(StrSide::Scalar(x)),
        Operand::Scalar(_) => None,
    }
}

/// A boolean view; fails for non-bool operands.
fn bool_side<'a>(o: &'a Operand<'_>) -> Result<Side<'a, bool>> {
    match o {
        Operand::Column(c) => Ok(Side::Rows(Cow::Borrowed(c.as_bool()?))),
        Operand::Scalar(Value::Bool(x)) => Ok(Side::Scalar(*x)),
        Operand::Scalar(v) => Err(EngineError::TypeMismatch {
            expected: "Bool".into(),
            got: v.data_type().to_string(),
            context: "predicate".into(),
        }),
    }
}

/// A numeric view as `f64` (`Int64` and `Date` widen; `Float64` columns
/// are borrowed); fails for other types.
fn f64_side<'a>(o: &'a Operand<'_>) -> Result<Side<'a, f64>> {
    let side = match o {
        Operand::Column(c) => match c.as_ref() {
            Column::Int64(v) => Some(Side::Rows(v.iter().map(|&x| x as f64).collect())),
            Column::Float64(v) => Some(Side::Rows(Cow::Borrowed(v.as_slice()))),
            Column::Date(v) => Some(Side::Rows(v.iter().map(|&x| x as f64).collect())),
            _ => None,
        },
        Operand::Scalar(v) => v.as_f64().map(Side::Scalar),
    };
    side.ok_or_else(|| EngineError::TypeMismatch {
        expected: "numeric".into(),
        got: o.data_type().to_string(),
        context: "arithmetic".into(),
    })
}

fn eval_binary(l: &Operand<'_>, op: BinOp, r: &Operand<'_>, rows: usize) -> Result<Column> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => eval_arith(l, op, r, rows),
        Eq | Ne | Lt | Le | Gt | Ge => eval_cmp(l, op, r, rows),
        And | Or => {
            let a = bool_side(l)?;
            let b = bool_side(r)?;
            Ok(Column::Bool(if op == And {
                a.zip(&b, rows, |&x, &y| x && y)
            } else {
                a.zip(&b, rows, |&x, &y| x || y)
            }))
        }
    }
}

fn eval_arith(l: &Operand<'_>, op: BinOp, r: &Operand<'_>, rows: usize) -> Result<Column> {
    // Fast path: Int64 ⊕ Int64 stays integral (except division).
    if op != BinOp::Div {
        if let (Some(a), Some(b)) = (int64_side(l), int64_side(r)) {
            return Ok(Column::Int64(match op {
                BinOp::Add => a.zip(&b, rows, |x, y| x.wrapping_add(*y)),
                BinOp::Sub => a.zip(&b, rows, |x, y| x.wrapping_sub(*y)),
                BinOp::Mul => a.zip(&b, rows, |x, y| x.wrapping_mul(*y)),
                _ => unreachable!("eval_arith only receives arithmetic ops"),
            }));
        }
    }
    let a = f64_side(l)?;
    let b = f64_side(r)?;
    Ok(Column::Float64(match op {
        BinOp::Add => a.zip(&b, rows, |x, y| x + y),
        BinOp::Sub => a.zip(&b, rows, |x, y| x - y),
        BinOp::Mul => a.zip(&b, rows, |x, y| x * y),
        BinOp::Div => {
            let zero = match &b {
                Side::Rows(v) => v.contains(&0.0),
                Side::Scalar(y) => *y == 0.0 && rows > 0,
            };
            if zero {
                return Err(EngineError::Arithmetic("division by zero".into()));
            }
            a.zip(&b, rows, |x, y| x / y)
        }
        _ => unreachable!("arith op"),
    }))
}

fn eval_cmp(l: &Operand<'_>, op: BinOp, r: &Operand<'_>, rows: usize) -> Result<Column> {
    // String comparisons are lexicographic; everything else numeric.
    if let (Some(a), Some(b)) = (utf8_side(l), utf8_side(r)) {
        return Ok(compare_str(&a, op, &b, rows));
    }
    if l.data_type() == DataType::Bool && r.data_type() == DataType::Bool {
        return Ok(compare(&bool_side(l)?, op, &bool_side(r)?, rows, Ord::cmp));
    }
    let a = f64_side(l)?;
    let b = f64_side(r)?;
    Ok(compare(&a, op, &b, rows, |x, y| {
        x.partial_cmp(y).unwrap_or(Ordering::Equal)
    }))
}

/// `a op b` row by row under the ordering `cmp`.
fn compare<T: Clone>(
    a: &Side<'_, T>,
    op: BinOp,
    b: &Side<'_, T>,
    rows: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Column {
    Column::Bool(match op {
        BinOp::Eq => a.zip(b, rows, |x, y| cmp(x, y) == Ordering::Equal),
        BinOp::Ne => a.zip(b, rows, |x, y| cmp(x, y) != Ordering::Equal),
        BinOp::Lt => a.zip(b, rows, |x, y| cmp(x, y) == Ordering::Less),
        BinOp::Le => a.zip(b, rows, |x, y| cmp(x, y) != Ordering::Greater),
        BinOp::Gt => a.zip(b, rows, |x, y| cmp(x, y) == Ordering::Greater),
        BinOp::Ge => a.zip(b, rows, |x, y| cmp(x, y) != Ordering::Less),
        _ => unreachable!("cmp op"),
    })
}

/// `a op b` row by row over strings, compared by bytes.
fn compare_str(a: &StrSide<'_>, op: BinOp, b: &StrSide<'_>, rows: usize) -> Column {
    let holds: fn(Ordering) -> bool = match op {
        BinOp::Eq => Ordering::is_eq,
        BinOp::Ne => Ordering::is_ne,
        BinOp::Lt => Ordering::is_lt,
        BinOp::Le => Ordering::is_le,
        BinOp::Gt => Ordering::is_gt,
        BinOp::Ge => Ordering::is_ge,
        _ => unreachable!("cmp op"),
    };
    Column::Bool(match (a, b) {
        (StrSide::Rows(x), StrSide::Rows(y)) => x
            .iter()
            .zip(y.iter())
            .map(|(x, y)| holds(x.cmp(y)))
            .collect(),
        (StrSide::Rows(x), StrSide::Scalar(y)) => x.iter().map(|x| holds(x.cmp(y))).collect(),
        (StrSide::Scalar(x), StrSide::Rows(y)) => y.iter().map(|y| holds((*x).cmp(y))).collect(),
        (StrSide::Scalar(x), StrSide::Scalar(y)) => vec![holds(x.cmp(y)); rows],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table() -> Table {
        let mut t = TableBuilder::new()
            .column("a", DataType::Int64)
            .column("b", DataType::Float64)
            .column("s", DataType::Utf8)
            .column("d", DataType::Date)
            .build();
        t.push_row(vec![1.into(), 2.0.into(), "x".into(), Value::Date(100)])
            .unwrap();
        t.push_row(vec![5.into(), 3.0.into(), "y".into(), Value::Date(200)])
            .unwrap();
        t
    }

    #[test]
    fn column_and_literal() {
        let t = table();
        assert_eq!(
            Expr::col("a").evaluate(&t).unwrap(),
            Column::Int64(vec![1, 5])
        );
        assert_eq!(
            Expr::lit(7i64).evaluate(&t).unwrap(),
            Column::Int64(vec![7, 7])
        );
        assert!(Expr::col("zz").evaluate(&t).is_err());
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        let t = table();
        let e = Expr::col("a").add(Expr::lit(10i64)).mul(Expr::lit(2i64));
        assert_eq!(e.evaluate(&t).unwrap(), Column::Int64(vec![22, 30]));
        assert_eq!(e.output_type(&t).unwrap(), DataType::Int64);
    }

    #[test]
    fn mixed_arithmetic_widens_to_float() {
        let t = table();
        let e = Expr::col("a").add(Expr::col("b"));
        assert_eq!(e.evaluate(&t).unwrap(), Column::Float64(vec![3.0, 8.0]));
        assert_eq!(e.output_type(&t).unwrap(), DataType::Float64);
        // Int/Int division also widens.
        let d = Expr::col("a").div(Expr::lit(2i64));
        assert_eq!(d.evaluate(&t).unwrap(), Column::Float64(vec![0.5, 2.5]));
    }

    #[test]
    fn division_by_zero_errors() {
        let t = table();
        assert!(Expr::col("a").div(Expr::lit(0i64)).evaluate(&t).is_err());
        // A zero literal divisor errors only when there is a row to divide.
        let empty = Table::empty(t.schema().clone());
        assert_eq!(
            Expr::col("a")
                .div(Expr::lit(0i64))
                .evaluate(&empty)
                .unwrap(),
            Column::Float64(vec![])
        );
        // A zero in a divisor column errors wherever it sits.
        let zero_b = Expr::col("b").sub(Expr::lit(3.0f64));
        assert!(Expr::col("a").div(zero_b).evaluate(&t).is_err());
    }

    #[test]
    fn literals_stay_scalar_on_either_side() {
        let t = table();
        assert_eq!(
            Expr::lit(10i64).sub(Expr::col("a")).evaluate(&t).unwrap(),
            Column::Int64(vec![9, 5])
        );
        assert_eq!(
            Expr::lit(2i64).mul(Expr::lit(3i64)).evaluate(&t).unwrap(),
            Column::Int64(vec![6, 6])
        );
        assert_eq!(
            Expr::lit("x").lt(Expr::col("s")).evaluate(&t).unwrap(),
            Column::Bool(vec![false, true])
        );
        assert_eq!(
            Expr::lit(true)
                .and(Expr::col("a").gt(Expr::lit(1i64)))
                .evaluate(&t)
                .unwrap(),
            Column::Bool(vec![false, true])
        );
        // Int64 ⊕ Int64 wraps, as the column kernel always has.
        assert_eq!(
            Expr::col("a")
                .add(Expr::lit(i64::MAX))
                .evaluate(&t)
                .unwrap(),
            Column::Int64(vec![i64::MIN, i64::MIN + 4])
        );
        // Type errors do not depend on the row count.
        let empty = Table::empty(t.schema().clone());
        assert!(Expr::lit("x").add(Expr::col("a")).evaluate(&empty).is_err());
        assert!(Expr::lit(1i64)
            .and(Expr::col("a"))
            .evaluate(&empty)
            .is_err());
    }

    #[test]
    fn comparisons() {
        let t = table();
        assert_eq!(
            Expr::col("a").gt(Expr::lit(2i64)).evaluate(&t).unwrap(),
            Column::Bool(vec![false, true])
        );
        assert_eq!(
            Expr::col("s").eq(Expr::lit("x")).evaluate(&t).unwrap(),
            Column::Bool(vec![true, false])
        );
        assert_eq!(
            Expr::col("d")
                .le(Expr::lit(Value::Date(100)))
                .evaluate(&t)
                .unwrap(),
            Column::Bool(vec![true, false])
        );
        // Cross-type numeric comparison works (int vs float).
        assert_eq!(
            Expr::col("a").ge(Expr::col("b")).evaluate(&t).unwrap(),
            Column::Bool(vec![false, true])
        );
    }

    #[test]
    fn boolean_logic() {
        let t = table();
        let e = Expr::col("a")
            .gt(Expr::lit(0i64))
            .and(Expr::col("b").lt(Expr::lit(2.5f64)));
        assert_eq!(e.evaluate(&t).unwrap(), Column::Bool(vec![true, false]));
        let o = Expr::col("a")
            .gt(Expr::lit(4i64))
            .or(Expr::col("b").lt(Expr::lit(2.5f64)));
        assert_eq!(o.evaluate(&t).unwrap(), Column::Bool(vec![true, true]));
        // AND on non-bool fails.
        assert!(Expr::col("a").and(Expr::col("b")).evaluate(&t).is_err());
        assert!(Expr::col("a").and(Expr::col("b")).output_type(&t).is_err());
    }

    #[test]
    fn arithmetic_on_strings_fails() {
        let t = table();
        assert!(Expr::col("s").add(Expr::lit(1i64)).evaluate(&t).is_err());
        assert!(Expr::col("s").add(Expr::lit(1i64)).output_type(&t).is_err());
    }

    #[test]
    fn referenced_columns_walks_tree() {
        let e = Expr::col("a").add(Expr::col("b")).gt(Expr::lit(1i64));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn output_type_of_comparison_is_bool() {
        let t = table();
        assert_eq!(
            Expr::col("s").eq(Expr::lit("x")).output_type(&t).unwrap(),
            DataType::Bool
        );
    }
}
