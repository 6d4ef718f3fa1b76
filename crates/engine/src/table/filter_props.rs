//! Property test of `Table::filter_rows` against a row-by-row reference:
//! a table holding all five column types, filtered by an all-false, an
//! all-true or a random mask, must keep exactly the masked rows' values
//! in their original order, each column's own `filter` must agree, and
//! a mask of the wrong length is refused.

use proptest::prelude::*;

use crate::table::{Table, TableBuilder};
use crate::types::{DataType, Value};

const WORDS: &[&str] = &[
    "",
    "a",
    "αβ",
    "日本語",
    "\0",
    "a value longer than one 32-byte stripe",
];

/// One row — `(Int64, Float64, word)`, `(Bool, Date)` — and its random
/// mask bit.
type Row = ((i64, f64, usize), (u8, i32), u8);

fn table(rows: &[Row]) -> Table {
    let mut t = TableBuilder::new()
        .column("i", DataType::Int64)
        .column("f", DataType::Float64)
        .column("s", DataType::Utf8)
        .column("b", DataType::Bool)
        .column("d", DataType::Date)
        .build();
    for &((i, f, s), (b, d), _) in rows {
        t.push_row(vec![
            Value::Int64(i),
            Value::Float64(f),
            Value::Utf8(WORDS[s].to_string()),
            Value::Bool(b == 1),
            Value::Date(d),
        ])
        .unwrap();
    }
    t
}

/// The values of the rows `keep` selects, read one at a time.
fn rows_where(t: &Table, keep: impl Fn(usize) -> bool) -> Vec<Vec<Value>> {
    (0..t.num_rows())
        .filter(|&r| keep(r))
        .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn filter_rows_matches_the_row_by_row_reference(
        (rows, shape) in (
            collection::vec(
                ((-50i64..50, -1e3f64..1e3, 0..WORDS.len()), (0u8..2, -400i32..400), 0u8..2),
                0..48,
            ),
            0u8..3,
        )
    ) {
        let t = table(&rows);
        // 0: all false, 1: all true, 2: each row's random bit.
        let mask: Vec<bool> = rows.iter().map(|r| shape == 1 || shape == 2 && r.2 == 1).collect();
        let out = t.filter_rows(&mask).unwrap();
        prop_assert_eq!(out.schema(), t.schema());
        prop_assert_eq!(out.num_rows(), mask.iter().filter(|&&m| m).count());
        prop_assert_eq!(rows_where(&out, |_| true), rows_where(&t, |r| mask[r]));
        for c in 0..t.num_columns() {
            prop_assert_eq!(&t.column(c).filter(&mask), out.column(c));
        }
        if shape == 1 {
            prop_assert_eq!(&out, &t);
        }
        let mut long = mask.clone();
        long.push(true);
        prop_assert!(t.filter_rows(&long).is_err());
    }
}
