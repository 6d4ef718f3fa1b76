//! Property test of the string layout: every operation that builds a
//! `Utf8` column from others (filter, gather, null-filled gather,
//! extend, concatenation, sort, broadcast, comparison, the SCTB round
//! trip) against a `Vec<String>` reference built from the same values.
//! The vocabulary mixes the empty string, one byte, multi-byte
//! characters, an embedded NUL and a value longer than a hash chunk.

use proptest::prelude::*;

use super::{Column, Utf8Column};
use crate::exec::{hash_join, sort_by, JoinType, SortKey};
use crate::expr::Expr;
use crate::storage::format::{decode, encode};
use crate::table::{Table, TableBuilder};
use crate::types::{DataType, Value};

const VOCAB: &[&str] = &[
    "",
    "a",
    "b",
    "ab",
    "é",
    "αβ",
    "日本語",
    "\0",
    "a value longer than one 32-byte stripe",
];

fn strings(max: usize) -> impl Strategy<Value = Vec<String>> {
    collection::vec(0..VOCAB.len(), 0..max)
        .prop_map(|ix| ix.into_iter().map(|i| VOCAB[i].to_string()).collect())
}

fn column(values: &[String]) -> Column {
    Column::Utf8(values.iter().map(String::as_str).collect())
}

/// The column's values, after checking that every accessor agrees.
fn values(col: &Column) -> Vec<String> {
    let Column::Utf8(v) = col else {
        panic!("not a Utf8 column: {col:?}")
    };
    let out: Vec<String> = v.iter().map(str::to_string).collect();
    assert_eq!(v.len(), out.len());
    for (i, s) in out.iter().enumerate() {
        assert_eq!(v.get(i), s);
        assert_eq!(col.value(i), Value::Utf8(s.clone()));
    }
    let bytes: usize = out.iter().map(String::len).sum();
    assert_eq!(v.value_bytes(), bytes);
    assert_eq!(col.byte_size(), (bytes + 8 * (out.len() + 1)) as u64);
    out
}

/// A table of a row id `i` (`Int64`), a join key `k` (`Int64`, four
/// values) and the strings `s`.
fn table(strings: &[String]) -> Table {
    let mut t = TableBuilder::new()
        .column("i", DataType::Int64)
        .column("k", DataType::Int64)
        .column("s", DataType::Utf8)
        .build();
    for (i, s) in strings.iter().enumerate() {
        let row = vec![
            Value::Int64(i as i64),
            Value::Int64(s.len() as i64 % 4),
            Value::Utf8(s.clone()),
        ];
        t.push_row(row).unwrap();
    }
    t
}

fn strings_of(t: &Table, name: &str) -> Vec<String> {
    values(t.column_by_name(name).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_operations_match_the_reference(
        (a, b, picks) in (strings(24), strings(24), collection::vec(0usize..1 << 16, 0..40))
    ) {
        let (ca, cb) = (column(&a), column(&b));
        prop_assert_eq!(values(&ca), a.clone());
        let from_vec = Utf8Column::from(a.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(&Column::Utf8(from_vec), &ca);

        let mask: Vec<bool> =
            (0..a.len()).map(|i| picks.get(i).is_some_and(|p| p % 2 == 0)).collect();
        let want: Vec<String> =
            a.iter().zip(&mask).filter(|(_, &m)| m).map(|(s, _)| s.clone()).collect();
        prop_assert_eq!(values(&ca.filter(&mask)), want);

        if !a.is_empty() {
            let idx: Vec<usize> = picks.iter().map(|p| p % a.len()).collect();
            let want: Vec<String> = idx.iter().map(|&i| a[i].clone()).collect();
            prop_assert_eq!(values(&ca.take(&idx)), want);

            let Column::Utf8(va) = &ca else { unreachable!() };
            let opt: Vec<Option<usize>> =
                picks.iter().map(|p| (p % 3 != 0).then_some(p % a.len())).collect();
            let want: Vec<String> =
                opt.iter().map(|i| i.map_or(String::new(), |i| a[i].clone())).collect();
            prop_assert_eq!(values(&Column::Utf8(va.take_optional(&opt))), want);
        }

        let mut ext = ca.clone();
        ext.extend(&cb).unwrap();
        let want: Vec<String> = a.iter().chain(&b).cloned().collect();
        prop_assert_eq!(values(&ext), want.clone());
        prop_assert_eq!(values(&Column::concat(DataType::Utf8, &[&ca, &cb]).unwrap()), want);
    }

    #[test]
    fn table_operators_match_the_reference((a, b) in (strings(24), strings(12))) {
        let (ta, tb) = (table(&a), table(&b));

        let cat = Table::concat(&[&ta, &tb, &ta]).unwrap();
        let want: Vec<String> = a.iter().chain(&b).chain(&a).cloned().collect();
        prop_assert_eq!(strings_of(&cat, "s"), want);
        prop_assert_eq!(decode(encode(&cat)).unwrap(), cat.clone());

        // Sorting is stable: ties keep row order.
        for descending in [false, true] {
            let key = SortKey { column: "s".into(), descending };
            let sorted = sort_by(&ta, &[key]).unwrap();
            let mut want: Vec<String> = a.clone();
            if descending {
                want.sort_by(|x, y| y.cmp(x));
            } else {
                want.sort();
            }
            prop_assert_eq!(strings_of(&sorted, "s"), want);
        }

        // Left join: each left row's matches in build order, or one row
        // whose right strings are the empty null.
        let on = [("k".to_string(), "k".to_string())];
        let joined = hash_join(&ta, &tb, &on, JoinType::Left).unwrap();
        let mut want_l = Vec::new();
        let mut want_r = Vec::new();
        for l in &a {
            let key = l.len() % 4;
            let matches: Vec<&String> = b.iter().filter(|r| r.len() % 4 == key).collect();
            if matches.is_empty() {
                want_l.push(l.clone());
                want_r.push(String::new());
            }
            for r in matches {
                want_l.push(l.clone());
                want_r.push(r.clone());
            }
        }
        prop_assert_eq!(strings_of(&joined, "s"), want_l);
        prop_assert_eq!(strings_of(&joined, "s_r"), want_r);

        // A string literal broadcasts to every row; comparisons go by bytes.
        for lit in VOCAB {
            let wide = Expr::lit(*lit).evaluate(&ta).unwrap();
            prop_assert_eq!(values(&wide), vec![lit.to_string(); a.len()]);
            let lt = Expr::col("s").lt(Expr::lit(*lit)).evaluate(&ta).unwrap();
            let want: Vec<bool> = a.iter().map(|s| s.as_str() < *lit).collect();
            prop_assert_eq!(lt.as_bool().unwrap(), want.as_slice());
            let ge = Expr::lit(*lit).ge(Expr::col("s")).evaluate(&ta).unwrap();
            let want: Vec<bool> = a.iter().map(|s| *lit >= s.as_str()).collect();
            prop_assert_eq!(ge.as_bool().unwrap(), want.as_slice());
        }
        let eq = Expr::col("s").eq(Expr::col("s")).evaluate(&ta).unwrap();
        prop_assert!(eq.as_bool().unwrap().iter().all(|&x| x));
    }
}
