//! The **Memory Catalog** (§III-C): a bounded in-memory table store.
//!
//! S/C creates flagged nodes' outputs directly here; downstream nodes read
//! them without touching external storage, and the controller releases each
//! entry once all its consumers have executed. The catalog enforces the
//! budget `M` strictly and tracks peak usage so runs can verify the
//! optimizer's feasibility claim.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::table::Table;
use crate::{EngineError, Result};

#[derive(Debug, Default)]
struct Inner {
    tables: HashMap<String, Arc<Table>>,
    used: u64,
    peak: u64,
}

/// A bounded, thread-safe in-memory table catalog.
#[derive(Debug)]
pub struct MemoryCatalog {
    budget: u64,
    inner: Mutex<Inner>,
}

impl MemoryCatalog {
    /// Creates a catalog with `budget` bytes of capacity.
    pub fn new(budget: u64) -> Self {
        MemoryCatalog {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured budget `M`.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently held.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Highest `used` observed since creation (or the last
    /// [`MemoryCatalog::reset_peak`]).
    pub fn peak(&self) -> u64 {
        self.inner.lock().peak
    }

    /// Resets the peak-usage watermark to the current usage.
    pub fn reset_peak(&self) {
        let mut g = self.inner.lock();
        g.peak = g.used;
    }

    /// Number of resident tables.
    pub fn len(&self) -> usize {
        self.inner.lock().tables.len()
    }

    /// Whether no tables are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `table` under `name`.
    ///
    /// Fails with [`EngineError::MemoryBudgetExceeded`] if the table does
    /// not fit, and with [`EngineError::TableExists`] on name collision
    /// (an MV refresh never creates the same node twice in one run).
    pub fn insert(&self, name: &str, table: Arc<Table>) -> Result<()> {
        let size = table.byte_size();
        let mut g = self.inner.lock();
        if g.tables.contains_key(name) {
            return Err(EngineError::TableExists(name.to_string()));
        }
        if g.used + size > self.budget {
            return Err(EngineError::MemoryBudgetExceeded {
                requested: size,
                used: g.used,
                budget: self.budget,
            });
        }
        g.used += size;
        g.peak = g.peak.max(g.used);
        g.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Fetches a resident table.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.inner.lock().tables.get(name).cloned()
    }

    /// Whether `name` is resident.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.lock().tables.contains_key(name)
    }

    /// Releases `name`, freeing its budget share. Returns the table if it
    /// was resident.
    pub fn remove(&self, name: &str) -> Option<Arc<Table>> {
        let mut g = self.inner.lock();
        let t = g.tables.remove(name)?;
        g.used -= t.byte_size();
        Some(t)
    }

    /// Names of resident tables, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().tables.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn table_of_size(rows: i64) -> Arc<Table> {
        let mut t = TableBuilder::new().column("x", DataType::Int64).build();
        for i in 0..rows {
            t.push_row(vec![Value::Int64(i)]).unwrap();
        }
        Arc::new(t)
    }

    #[test]
    fn insert_get_remove() {
        let cat = MemoryCatalog::new(1000);
        let t = table_of_size(10); // 80 bytes
        cat.insert("t", t.clone()).unwrap();
        assert_eq!(cat.used(), 80);
        assert_eq!(cat.len(), 1);
        assert!(cat.contains("t"));
        assert_eq!(cat.get("t").unwrap().num_rows(), 10);
        let removed = cat.remove("t").unwrap();
        assert_eq!(removed.num_rows(), 10);
        assert_eq!(cat.used(), 0);
        assert!(cat.get("t").is_none());
        assert!(cat.remove("t").is_none());
    }

    #[test]
    fn budget_is_enforced() {
        let cat = MemoryCatalog::new(100);
        cat.insert("a", table_of_size(10)).unwrap(); // 80 bytes
        let err = cat.insert("b", table_of_size(10)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::MemoryBudgetExceeded {
                requested: 80,
                used: 80,
                budget: 100
            }
        ));
        // Freeing a makes room.
        cat.remove("a");
        cat.insert("b", table_of_size(10)).unwrap();
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let cat = MemoryCatalog::new(1000);
        cat.insert("a", table_of_size(10)).unwrap();
        cat.insert("b", table_of_size(20)).unwrap();
        cat.remove("a");
        assert_eq!(cat.used(), 160);
        assert_eq!(cat.peak(), 240);
        cat.reset_peak();
        assert_eq!(cat.peak(), 160);
    }

    #[test]
    fn duplicate_names_rejected() {
        let cat = MemoryCatalog::new(1000);
        cat.insert("t", table_of_size(1)).unwrap();
        assert!(matches!(
            cat.insert("t", table_of_size(1)),
            Err(EngineError::TableExists(_))
        ));
    }

    #[test]
    fn list_sorted() {
        let cat = MemoryCatalog::new(1000);
        cat.insert("zeta", table_of_size(1)).unwrap();
        cat.insert("alpha", table_of_size(1)).unwrap();
        assert_eq!(cat.list(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn concurrent_inserts_respect_budget() {
        let cat = Arc::new(MemoryCatalog::new(800)); // fits 10 tables of 80 B
        let handles: Vec<_> = (0..20)
            .map(|i| {
                let cat = cat.clone();
                std::thread::spawn(move || cat.insert(&format!("t{i}"), table_of_size(10)).is_ok())
            })
            .collect();
        let successes = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(
            successes, 10,
            "exactly the budget's worth of inserts succeed"
        );
        assert_eq!(cat.used(), 800);
        assert!(cat.peak() <= 800);
    }
}
