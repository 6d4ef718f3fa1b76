//! Seeded generators for TPC-DS-style base tables, small enough to execute
//! on `sc-engine` (the laptop-scale stand-in for the paper's 10 GB–1 TB
//! datasets; the large-scale sweeps use `sc-sim` instead).
//!
//! Schemas are simplified but keep the join keys and measures the
//! workloads need: the three sales fact tables share the
//! `(item_sk, customer_sk, date_sk, store_sk)` foreign keys into the
//! dimension tables.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sc_engine::{Column, DataType, Table, TableBuilder, Value};

/// A generated miniature TPC-DS dataset.
#[derive(Debug)]
pub struct TinyTpcds {
    tables: HashMap<String, Arc<Table>>,
}

/// Row-count profile at `scale = 1.0`; all fact tables scale linearly.
const ITEM_ROWS: usize = 200;
const CUSTOMER_ROWS: usize = 400;
const STORE_ROWS: usize = 12;
const DATE_ROWS: usize = 365 * 5; // 5 years, like TPC-DS 1998-2002
const STORE_SALES_ROWS: usize = 6000;
const CATALOG_SALES_ROWS: usize = 3600;
const WEB_SALES_ROWS: usize = 1800;

impl TinyTpcds {
    /// Generates a dataset at the given scale (1.0 ≈ a few MB) with a
    /// fixed seed.
    pub fn generate(scale: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = scale_rows(ITEM_ROWS, scale.sqrt());
        let n_customers = scale_rows(CUSTOMER_ROWS, scale.sqrt());
        let mut tables = HashMap::new();
        tables.insert("date_dim".to_string(), Arc::new(date_dim()));
        tables.insert("item".to_string(), Arc::new(item(n_items, &mut rng)));
        tables.insert(
            "customer".to_string(),
            Arc::new(customer(n_customers, &mut rng)),
        );
        tables.insert("store".to_string(), Arc::new(store(STORE_ROWS, &mut rng)));
        for (name, rows) in [
            ("store_sales", scale_rows(STORE_SALES_ROWS, scale)),
            ("catalog_sales", scale_rows(CATALOG_SALES_ROWS, scale)),
            ("web_sales", scale_rows(WEB_SALES_ROWS, scale)),
        ] {
            tables.insert(
                name.to_string(),
                Arc::new(sales_fact(rows, n_items, n_customers, STORE_ROWS, &mut rng)),
            );
        }
        TinyTpcds { tables }
    }

    /// The generated tables by name.
    pub fn tables(&self) -> &HashMap<String, Arc<Table>> {
        &self.tables
    }

    /// One table.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Writes every table into a disk catalog (the "data ingestion" step
    /// preceding an MV refresh run).
    pub fn load_into(&self, disk: &sc_engine::storage::DiskCatalog) -> sc_engine::Result<()> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        for name in names {
            disk.write_table(name, &self.tables[name])?;
        }
        Ok(())
    }

    /// Total bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.byte_size()).sum()
    }
}

fn scale_rows(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1)
}

/// `date_dim`: one row per day over five years with year/month columns.
pub fn date_dim() -> Table {
    let mut t = TableBuilder::new()
        .column("d_date_sk", DataType::Int64)
        .column("d_date", DataType::Date)
        .column("d_year", DataType::Int64)
        .column("d_moy", DataType::Int64)
        .build();
    for i in 0..DATE_ROWS as i64 {
        let year = 1998 + i / 365;
        let moy = (i % 365) / 31 + 1;
        t.push_row(vec![
            Value::Int64(i),
            Value::Date(10227 + i as i32), // 1998-01-01 ≈ day 10227
            Value::Int64(year),
            Value::Int64(moy.min(12)),
        ])
        .expect("schema-consistent row");
    }
    t
}

/// `item`: catalog items with category and price.
pub fn item(n: usize, rng: &mut StdRng) -> Table {
    const CATEGORIES: [&str; 6] = ["Books", "Electronics", "Home", "Music", "Shoes", "Sports"];
    let mut t = TableBuilder::new()
        .column("i_item_sk", DataType::Int64)
        .column("i_category", DataType::Utf8)
        .column("i_current_price", DataType::Float64)
        .build();
    for i in 0..n as i64 {
        t.push_row(vec![
            Value::Int64(i),
            Value::Utf8(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string()),
            Value::Float64((rng.gen_range(100..99900) as f64) / 100.0),
        ])
        .expect("schema-consistent row");
    }
    t
}

/// `customer`: customers with a birth year and state.
pub fn customer(n: usize, rng: &mut StdRng) -> Table {
    const STATES: [&str; 8] = ["CA", "IL", "NY", "TX", "WA", "GA", "OH", "FL"];
    let mut t = TableBuilder::new()
        .column("c_customer_sk", DataType::Int64)
        .column("c_birth_year", DataType::Int64)
        .column("c_state", DataType::Utf8)
        .build();
    for i in 0..n as i64 {
        t.push_row(vec![
            Value::Int64(i),
            Value::Int64(rng.gen_range(1930..2005)),
            Value::Utf8(STATES[rng.gen_range(0..STATES.len())].to_string()),
        ])
        .expect("schema-consistent row");
    }
    t
}

/// `store`: stores with a state.
pub fn store(n: usize, rng: &mut StdRng) -> Table {
    const STATES: [&str; 4] = ["CA", "IL", "NY", "TX"];
    let mut t = TableBuilder::new()
        .column("s_store_sk", DataType::Int64)
        .column("s_state", DataType::Utf8)
        .build();
    for i in 0..n as i64 {
        t.push_row(vec![
            Value::Int64(i),
            Value::Utf8(STATES[rng.gen_range(0..STATES.len())].to_string()),
        ])
        .expect("schema-consistent row");
    }
    t
}

/// A sales fact table (shared schema for store/catalog/web sales). Values
/// are drawn row by row and collected a column at a time.
pub fn sales_fact(
    rows: usize,
    n_items: usize,
    n_customers: usize,
    n_stores: usize,
    rng: &mut StdRng,
) -> Table {
    let schema = TableBuilder::new()
        .column("ss_item_sk", DataType::Int64)
        .column("ss_customer_sk", DataType::Int64)
        .column("ss_store_sk", DataType::Int64)
        .column("ss_sold_date_sk", DataType::Int64)
        .column("ss_quantity", DataType::Int64)
        .column("ss_sales_price", DataType::Float64)
        .build()
        .schema()
        .clone();
    let mut keys: [Vec<i64>; 5] = std::array::from_fn(|_| Vec::with_capacity(rows));
    let mut price = Vec::with_capacity(rows);
    for _ in 0..rows {
        keys[0].push(rng.gen_range(0..n_items as i64));
        keys[1].push(rng.gen_range(0..n_customers as i64));
        keys[2].push(rng.gen_range(0..n_stores as i64));
        keys[3].push(rng.gen_range(0..DATE_ROWS as i64));
        keys[4].push(rng.gen_range(1..100));
        price.push((rng.gen_range(100..50000) as f64) / 100.0);
    }
    let mut columns: Vec<Column> = keys.into_iter().map(Column::Int64).collect();
    columns.push(Column::Float64(price));
    Table::new(schema, columns).expect("schema-consistent columns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_tables() {
        let ds = TinyTpcds::generate(1.0, 42);
        for name in [
            "date_dim",
            "item",
            "customer",
            "store",
            "store_sales",
            "catalog_sales",
            "web_sales",
        ] {
            assert!(ds.table(name).is_some(), "missing {name}");
        }
        assert_eq!(
            ds.table("store_sales").unwrap().num_rows(),
            STORE_SALES_ROWS
        );
        assert!(ds.total_bytes() > 100_000);
    }

    #[test]
    fn scale_changes_fact_rows() {
        let small = TinyTpcds::generate(0.5, 42);
        let big = TinyTpcds::generate(2.0, 42);
        assert_eq!(
            small.table("store_sales").unwrap().num_rows(),
            STORE_SALES_ROWS / 2
        );
        assert_eq!(
            big.table("store_sales").unwrap().num_rows(),
            STORE_SALES_ROWS * 2
        );
        // Dimensions grow with sqrt(scale).
        assert!(big.table("item").unwrap().num_rows() < ITEM_ROWS * 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TinyTpcds::generate(1.0, 7);
        let b = TinyTpcds::generate(1.0, 7);
        assert_eq!(
            a.table("store_sales").unwrap(),
            b.table("store_sales").unwrap()
        );
        let c = TinyTpcds::generate(1.0, 8);
        assert_ne!(
            a.table("store_sales").unwrap(),
            c.table("store_sales").unwrap()
        );
    }

    /// `sales_fact` as a row-at-a-time generator: one `push_row` per row.
    fn sales_fact_by_rows(
        rows: usize,
        n_items: usize,
        n_customers: usize,
        n_stores: usize,
        rng: &mut StdRng,
    ) -> Table {
        // Zero rows draw nothing: an empty table with the fact schema.
        let mut t = sales_fact(0, n_items, n_customers, n_stores, rng);
        for _ in 0..rows {
            t.push_row(vec![
                Value::Int64(rng.gen_range(0..n_items as i64)),
                Value::Int64(rng.gen_range(0..n_customers as i64)),
                Value::Int64(rng.gen_range(0..n_stores as i64)),
                Value::Int64(rng.gen_range(0..DATE_ROWS as i64)),
                Value::Int64(rng.gen_range(1..100)),
                Value::Float64((rng.gen_range(100..50000) as f64) / 100.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn generate_matches_a_row_wise_reference() {
        for seed in [1, 7] {
            let ds = TinyTpcds::generate(1.0, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut expected = vec![
                ("date_dim", date_dim()),
                ("item", item(ITEM_ROWS, &mut rng)),
                ("customer", customer(CUSTOMER_ROWS, &mut rng)),
                ("store", store(STORE_ROWS, &mut rng)),
            ];
            for (name, rows) in [
                ("store_sales", STORE_SALES_ROWS),
                ("catalog_sales", CATALOG_SALES_ROWS),
                ("web_sales", WEB_SALES_ROWS),
            ] {
                let t = sales_fact_by_rows(rows, ITEM_ROWS, CUSTOMER_ROWS, STORE_ROWS, &mut rng);
                expected.push((name, t));
            }
            assert_eq!(ds.tables().len(), expected.len());
            for (name, table) in expected {
                assert_eq!(**ds.table(name).unwrap(), table, "{name}, seed {seed}");
            }
        }
    }

    #[test]
    fn foreign_keys_resolve() {
        let ds = TinyTpcds::generate(1.0, 42);
        let items = ds.table("item").unwrap().num_rows() as i64;
        let sales = ds.table("store_sales").unwrap();
        let col = sales.column_by_name("ss_item_sk").unwrap();
        for row in 0..sales.num_rows() {
            match col.value(row) {
                Value::Int64(sk) => assert!(sk >= 0 && sk < items),
                other => panic!("bad key {other:?}"),
            }
        }
    }

    #[test]
    fn load_into_disk_catalog() {
        let dir = tempfile::tempdir().unwrap();
        let disk = sc_engine::storage::DiskCatalog::open(dir.path()).unwrap();
        let ds = TinyTpcds::generate(0.2, 42);
        ds.load_into(&disk).unwrap();
        assert_eq!(disk.list().unwrap().len(), 7);
        assert_eq!(
            disk.read_table("item").unwrap().num_rows(),
            ds.table("item").unwrap().num_rows()
        );
    }

    #[test]
    fn date_dim_years_cover_range() {
        let d = date_dim();
        let years = d.column_by_name("d_year").unwrap();
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for r in 0..d.num_rows() {
            if let Value::Int64(y) = years.value(r) {
                min = min.min(y);
                max = max.max(y);
            }
        }
        assert_eq!((min, max), (1998, 2002));
    }
}
