//! The dataset axis of the evaluation: TPC-DS scale factors and the
//! date-partitioned variant.
//!
//! §VI-A: "We create two copies of each dataset for each scale. One is a
//! normal dataset generated as is (TPC-DS). The other is a date-partitioned
//! dataset wherein the three largest tables (store_sales, catalog_sales,
//! web_sales) are partitioned by year [...] (TPC-DSp)." Partitioning lets
//! year-scoped MV updates scan one partition instead of the whole fact
//! table, which shrinks both base reads and intermediate sizes — the
//! reason the paper's TPC-DSp speedups are larger.

use serde::{Deserialize, Serialize};

/// Bytes per gigabyte (decimal, matching TPC-DS scale factors).
pub const GB: f64 = 1e9;

/// A TPC-DS dataset instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Scale factor in GB (the paper uses 10, 25, 50, 100, 1000).
    pub scale_gb: f64,
    /// Whether the three fact tables are partitioned by year (TPC-DSp).
    pub partitioned: bool,
}

impl DatasetSpec {
    /// Regular TPC-DS at `scale_gb`.
    pub fn tpcds(scale_gb: f64) -> Self {
        DatasetSpec {
            scale_gb,
            partitioned: false,
        }
    }

    /// Date-partitioned TPC-DSp at `scale_gb`.
    pub fn tpcds_partitioned(scale_gb: f64) -> Self {
        DatasetSpec {
            scale_gb,
            partitioned: true,
        }
    }

    /// Total dataset size in bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.scale_gb * GB) as u64
    }

    /// Size of one fact table as a fraction of the dataset. TPC-DS's three
    /// big fact tables dominate the dataset; the published size breakdown
    /// at SF100 is roughly store_sales 37 %, catalog_sales 28 %,
    /// web_sales 14 %, with dimensions and the remaining fact tables
    /// making up the rest.
    pub fn fact_fraction(table: FactTable) -> f64 {
        match table {
            FactTable::StoreSales => 0.37,
            FactTable::CatalogSales => 0.28,
            FactTable::WebSales => 0.14,
        }
    }

    /// The paper's Memory Catalog sizing convention: a percentage of the
    /// dataset size (Figure 10 uses 1.6 %, Figure 11 sweeps 0.4–6.4 %).
    pub fn memory_budget(&self, percent: f64) -> u64 {
        (self.scale_gb * GB * percent / 100.0) as u64
    }

    /// Short label, e.g. `"100GB TPC-DSp"`.
    pub fn label(&self) -> String {
        format!(
            "{}GB TPC-DS{}",
            self.scale_gb,
            if self.partitioned { "p" } else { "" }
        )
    }
}

/// The three large, partitionable fact tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FactTable {
    /// `store_sales` — the largest fact table.
    StoreSales,
    /// `catalog_sales`.
    CatalogSales,
    /// `web_sales`.
    WebSales,
}

impl FactTable {
    /// All fact tables.
    pub fn all() -> [FactTable; 3] {
        [
            FactTable::StoreSales,
            FactTable::CatalogSales,
            FactTable::WebSales,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_budgets() {
        let d = DatasetSpec::tpcds(100.0);
        assert_eq!(d.total_bytes(), 100_000_000_000);
        assert_eq!(d.memory_budget(1.6), 1_600_000_000);
        assert_eq!(d.label(), "100GB TPC-DS");
        assert_eq!(DatasetSpec::tpcds_partitioned(10.0).label(), "10GB TPC-DSp");
    }

    #[test]
    fn fact_fractions_are_dominant_but_below_one() {
        let total: f64 = FactTable::all()
            .into_iter()
            .map(DatasetSpec::fact_fraction)
            .sum();
        assert!(total > 0.7 && total < 1.0);
    }
}
