//! Property test of the key kernel: every hash operator against a naive
//! nested-loop / `BTreeMap` reference, on small random tables whose key
//! columns mix the three key classes (`Int64`/`Date`/`Bool` as one
//! integer, `Float64` by bits with ±0.0 and NaN, `Utf8` by bytes). Every
//! case runs four times: under two hash seeds, whose outputs must agree
//! byte for byte, with every row hash forced equal, so the equality
//! check behind a hash collision decides each lookup, and with every row
//! hash cut to one bit, so groups open both on a batch's first pass and
//! on its collision walk.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use super::keys::{with_constant_hash, with_hash_seed, with_one_bit_hash};
use super::{
    aggregate, distinct, hash_join, merge_aggregate, merge_distinct, AggFunc, DeltaBatch, JoinType,
    TableDelta,
};
use crate::storage::format::encode;
use crate::table::{Table, TableBuilder};
use crate::types::{DataType, Value};

/// splitmix64: the case generator, seeded by the property harness.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// A key cell: small domains, so keys repeat and collide across types.
    fn key_cell(&mut self, dtype: DataType) -> Value {
        match dtype {
            DataType::Int64 => Value::Int64(self.below(4) as i64 - 1),
            DataType::Date => Value::Date(self.below(4) as i32 - 1),
            DataType::Bool => Value::Bool(self.below(2) == 1),
            DataType::Float64 => Value::Float64(self.pick(&[0.0, -0.0, f64::NAN, 1.5, -1.0])),
            DataType::Utf8 => Value::Utf8(self.pick(&STRING_KEYS).to_string()),
        }
    }

    /// A measure cell: finite, never -0.0, so a resumed fold and a full
    /// one perform the same operations.
    fn measure(&mut self, dtype: DataType) -> Value {
        match dtype {
            DataType::Int64 => Value::Int64(self.below(4) as i64),
            DataType::Float64 => Value::Float64((self.below(4) + 1) as f64 / 8.0),
            DataType::Date => Value::Date(self.below(4) as i32),
            other => self.key_cell(other),
        }
    }

    /// `rows` rows of `(name, type, is_key)` columns (possibly zero rows).
    fn table(&mut self, cols: &[(String, DataType, bool)], rows: usize) -> Table {
        let mut b = TableBuilder::new();
        for (name, dtype, _) in cols {
            b = b.column(name.clone(), *dtype);
        }
        let mut t = b.build();
        for _ in 0..rows {
            let row = cols
                .iter()
                .map(|&(_, dtype, key)| {
                    if key {
                        self.key_cell(dtype)
                    } else {
                        self.measure(dtype)
                    }
                })
                .collect();
            t.push_row(row).unwrap();
        }
        t
    }

    fn rows(&mut self) -> usize {
        self.pick(&[0, 1, 3, 6, 9, 14])
    }
}

/// `Utf8` key cells: 0, 1, 7, 8, 9, 16 and 17 bytes, around the 8-byte
/// words the key hash reads, with pairs that differ only in their last
/// byte. The last row of a table always ends on its column's last byte,
/// where the word read runs past the buffer.
const STRING_KEYS: [&str; 12] = [
    "",
    "a",
    "b",
    "é",
    "abcdefg",
    "abcdefgh",
    "abcdefgz",
    "abcdefghi",
    "abcdefghijklmnop",
    "abcdefghijklmnoz",
    "abcdefghijklmnopq",
    "abcdefghijklmnopz",
];

const KEY_TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Date,
    DataType::Bool,
    DataType::Float64,
    DataType::Utf8,
];

/// A cell as the reference compares it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Int(i64),
    Float(u64),
    Str(String),
}

fn class(v: Value) -> Class {
    match v {
        Value::Int64(x) => Class::Int(x),
        Value::Date(x) => Class::Int(x as i64),
        Value::Bool(x) => Class::Int(x as i64),
        Value::Float64(x) => Class::Float(x.to_bits()),
        Value::Utf8(x) => Class::Str(x),
    }
}

fn classes(t: &Table, cols: &[usize], row: usize) -> Vec<Class> {
    cols.iter().map(|&c| class(t.value(row, c))).collect()
}

fn all_cols(t: &Table) -> Vec<usize> {
    (0..t.num_columns()).collect()
}

/// Column types plus every cell by class: equal exactly when two tables
/// hold the same bits in the same typed columns (NaN included).
type Canon = (Vec<DataType>, Vec<Vec<Class>>);

fn canon(t: &Table) -> Canon {
    let cols = all_cols(t);
    (
        t.schema().fields().iter().map(|f| f.dtype).collect(),
        (0..t.num_rows()).map(|r| classes(t, &cols, r)).collect(),
    )
}

fn index_of(t: &Table, names: &[String]) -> Vec<usize> {
    names
        .iter()
        .map(|n| t.schema().index_of(n).unwrap())
        .collect()
}

fn null_of(dtype: DataType) -> Class {
    match dtype {
        DataType::Float64 => Class::Float(0f64.to_bits()),
        DataType::Utf8 => Class::Str(String::new()),
        _ => Class::Int(0),
    }
}

fn ref_join(left: &Table, right: &Table, on: &[(String, String)], how: JoinType) -> Canon {
    let lk = index_of(left, &on.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>());
    let rk = index_of(
        right,
        &on.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for l in 0..left.num_rows() {
        let key = classes(left, &lk, l);
        let mut matched = false;
        for r in 0..right.num_rows() {
            if classes(right, &rk, r) == key {
                matched = true;
                let mut row = classes(left, &all_cols(left), l);
                row.extend(classes(right, &all_cols(right), r));
                rows.push(row);
            }
        }
        if !matched && how == JoinType::Left {
            let mut row = classes(left, &all_cols(left), l);
            row.extend(right.schema().fields().iter().map(|f| null_of(f.dtype)));
            rows.push(row);
        }
    }
    let types = left
        .schema()
        .fields()
        .iter()
        .chain(right.schema().fields())
        .map(|f| f.dtype)
        .collect();
    (types, rows)
}

fn ref_aggregate(input: &Table, group_by: &[String], aggs: &[(AggFunc, String, String)]) -> Canon {
    let keys = index_of(input, group_by);
    let vals = index_of(input, &aggs.iter().map(|a| a.1.clone()).collect::<Vec<_>>());
    // Per group: its first row and, per aggregate, its values in row order.
    let mut ids: BTreeMap<Vec<Class>, usize> = BTreeMap::new();
    let mut groups: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
    for row in 0..input.num_rows() {
        let g = *ids.entry(classes(input, &keys, row)).or_insert_with(|| {
            groups.push((row, vec![Vec::new(); aggs.len()]));
            groups.len() - 1
        });
        for (values, &c) in groups[g].1.iter_mut().zip(&vals) {
            values.push(input.value(row, c));
        }
    }
    let mut types: Vec<DataType> = keys
        .iter()
        .map(|&c| input.schema().fields()[c].dtype)
        .collect();
    for ((func, _, _), &c) in aggs.iter().zip(&vals) {
        types.push(match (func, input.schema().fields()[c].dtype) {
            (AggFunc::Count, _) => DataType::Int64,
            (AggFunc::Avg, _) => DataType::Float64,
            (_, dtype) => dtype,
        });
    }
    let rows = groups
        .iter()
        .map(|(first, values)| {
            let mut row = classes(input, &keys, *first);
            for (((func, _, _), values), dtype) in aggs.iter().zip(values).zip(&types[keys.len()..])
            {
                // Integer outputs are exact; floats fold left to right.
                let ints = values.iter().map(|v| match *v {
                    Value::Int64(x) => x,
                    Value::Date(x) => x as i64,
                    _ => 0,
                });
                let floats = values.iter().map(|v| v.as_f64().unwrap_or(0.0));
                let count = values.len();
                row.push(match (func, dtype) {
                    (AggFunc::Count, _) => Class::Int(count as i64),
                    (AggFunc::Avg, _) => {
                        Class::Float((floats.fold(0.0, |a, x| a + x) / count as f64).to_bits())
                    }
                    (AggFunc::Sum, DataType::Float64) => {
                        Class::Float(floats.fold(0.0, |a, x| a + x).to_bits())
                    }
                    (AggFunc::Min, DataType::Float64) => {
                        Class::Float(floats.fold(f64::INFINITY, f64::min).to_bits())
                    }
                    (AggFunc::Max, DataType::Float64) => {
                        Class::Float(floats.fold(f64::NEG_INFINITY, f64::max).to_bits())
                    }
                    (AggFunc::Sum, _) => Class::Int(ints.sum()),
                    (AggFunc::Min, _) => Class::Int(ints.min().unwrap()),
                    (AggFunc::Max, _) => Class::Int(ints.max().unwrap()),
                });
            }
            row
        })
        .collect();
    (types, rows)
}

fn ref_distinct(input: &Table) -> Canon {
    let cols = all_cols(input);
    let mut seen = BTreeSet::new();
    let (types, rows) = canon(input);
    let rows = (0..input.num_rows())
        .filter(|&r| seen.insert(classes(input, &cols, r)))
        .map(|r| rows[r].clone())
        .collect();
    (types, rows)
}

/// Batch by batch: each delete removes the first remaining equal row,
/// then the inserts append.
fn ref_apply(table: &Table, delta: &TableDelta) -> Canon {
    let (types, mut rows) = canon(table);
    for batch in delta.batches() {
        for del in canon(&batch.deletes).1 {
            if let Some(pos) = rows.iter().position(|r| *r == del) {
                rows.remove(pos);
            }
        }
        rows.extend(canon(&batch.inserts).1);
    }
    (types, rows)
}

/// A delta of 1–3 batches over `t`'s schema; deletes pick existing rows
/// (duplicates included) and fresh ones when `deletes` is set.
fn gen_delta(
    g: &mut Gen,
    t: &Table,
    cols: &[(String, DataType, bool)],
    deletes: bool,
) -> TableDelta {
    let mut delta = TableDelta::empty(t.schema().clone());
    for _ in 0..1 + g.below(3) {
        let fresh = if deletes { g.below(3) } else { 0 };
        let mut dels = g.table(cols, fresh);
        if deletes && t.num_rows() > 0 {
            let picks: Vec<usize> = (0..g.below(5)).map(|_| g.below(t.num_rows())).collect();
            dels = Table::concat(&[&dels, &t.take_rows(&picks).unwrap()]).unwrap();
        }
        let rows = g.rows();
        delta
            .push_batch(DeltaBatch {
                deletes: dels,
                inserts: g.table(cols, rows),
            })
            .unwrap();
    }
    delta
}

/// Checks every join shape of one case; appends each output to `outs`.
fn check_joins(g: &mut Gen, outs: &mut Vec<Table>) {
    // Key pairs across classes: some can match (Int64 ⋈ Date, Bool ⋈
    // Int64), some never can (Int64 ⋈ Float64, Utf8 ⋈ Int64).
    let pairs = [
        (DataType::Int64, DataType::Int64),
        (DataType::Int64, DataType::Date),
        (DataType::Date, DataType::Int64),
        (DataType::Bool, DataType::Int64),
        (DataType::Float64, DataType::Float64),
        (DataType::Utf8, DataType::Utf8),
        (DataType::Int64, DataType::Float64),
        (DataType::Utf8, DataType::Int64),
    ];
    let nkeys = 1 + g.below(2);
    let mut lcols = Vec::new();
    let mut rcols = Vec::new();
    let mut on = Vec::new();
    for i in 0..nkeys {
        let (l, r) = g.pick(&pairs);
        lcols.push((format!("l{i}"), l, true));
        rcols.push((format!("r{i}"), r, true));
        on.push((format!("l{i}"), format!("r{i}")));
    }
    lcols.push(("v".to_string(), DataType::Utf8, false));
    rcols.push(("v".to_string(), DataType::Float64, false));
    let (lrows, rrows) = (g.rows(), g.rows());
    let left = g.table(&lcols, lrows);
    let right = g.table(&rcols, rrows);
    for how in [JoinType::Inner, JoinType::Left] {
        let out = hash_join(&left, &right, &on, how).unwrap();
        assert_eq!(
            canon(&out),
            ref_join(&left, &right, &on, how),
            "{how:?} on {on:?}"
        );
        outs.push(out);
    }
}

/// Checks every grouping operator of one case; appends each output to
/// `outs`.
fn check_groups(g: &mut Gen, outs: &mut Vec<Table>) {
    let mut cols: Vec<(String, DataType, bool)> = (0..g.below(3))
        .map(|i| (format!("k{i}"), g.pick(&KEY_TYPES), true))
        .collect();
    let group_by: Vec<String> = cols.iter().map(|c| c.0.clone()).collect();
    for (name, dtype) in [
        ("vi", DataType::Int64),
        ("vf", DataType::Float64),
        ("vd", DataType::Date),
    ] {
        cols.push((name.to_string(), dtype, false));
    }
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let aggs: Vec<(AggFunc, String, String)> = (0..1 + g.below(3))
        .map(|j| {
            let func = g.pick(&funcs);
            let input = match func {
                AggFunc::Count => g.pick(&cols).0,
                _ => g.pick(&["vi", "vf", "vd"]).to_string(),
            };
            (func, input, format!("a{j}"))
        })
        .collect();
    let rows = g.rows();
    let t = g.table(&cols, rows);

    let stored = aggregate(&t, &group_by, &aggs).unwrap();
    assert_eq!(canon(&stored), ref_aggregate(&t, &group_by, &aggs));
    let stored_distinct = distinct(&t).unwrap();
    assert_eq!(canon(&stored_distinct), ref_distinct(&t));

    // Insert-only growth: the merges must equal the reference over the
    // grown input, and `apply` must be the plain concatenation.
    let delta = gen_delta(g, &t, &cols, false);
    let grown = delta.apply(&t).unwrap();
    assert_eq!(canon(&grown), ref_apply(&t, &delta));
    if aggs.iter().all(|a| a.0 != AggFunc::Avg) {
        let merged = merge_aggregate(&stored, &delta, &group_by, &aggs).unwrap();
        assert_eq!(canon(&merged), ref_aggregate(&grown, &group_by, &aggs));
    }
    let merged = merge_distinct(&stored_distinct, &delta).unwrap();
    assert_eq!(canon(&merged), ref_distinct(&grown));
    outs.extend([stored, stored_distinct, grown, merged]);

    // Deletes: first-occurrence removal by full-row equality, and the
    // single-table encoding round-trips every batch.
    let delta = gen_delta(g, &t, &cols, true);
    let applied = delta.apply(&t).unwrap();
    assert_eq!(canon(&applied), ref_apply(&t, &delta));
    outs.push(applied);
    let decoded = TableDelta::from_table(&delta.to_table().unwrap()).unwrap();
    assert_eq!(decoded.batches().len(), delta.batches().len());
    for (a, b) in decoded.batches().iter().zip(delta.batches()) {
        assert_eq!(canon(&a.deletes), canon(&b.deletes));
        assert_eq!(canon(&a.inserts), canon(&b.inserts));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_operators_match_the_naive_reference(seed in 0u64..u64::MAX) {
        let run = || {
            let mut g = Gen(seed);
            let mut outs = Vec::new();
            check_joins(&mut g, &mut outs);
            check_groups(&mut g, &mut outs);
            outs.iter().map(|t| encode(t).to_vec()).collect::<Vec<_>>()
        };
        let seeded = with_hash_seed(seed, run);
        prop_assert!(with_hash_seed(!seed, run) == seeded, "output moved with the hash seed");
        prop_assert!(with_constant_hash(run) == seeded, "output moved under collisions");
        prop_assert!(with_one_bit_hash(run) == seeded, "output moved under partial collisions");
    }
}
