//! The append-only **delta log**: pending base-table changes accumulated
//! between refresh runs.
//!
//! Ingestion is a two-step protocol (see [`crate::ScSession::ingest_delta`]):
//! the change batch is applied to the authoritative base table in
//! external storage immediately — the DBMS's tables are always current —
//! and simultaneously appended here, so the next refresh run knows
//! exactly what changed since each MV's last refresh. A successful
//! refresh consumes the batches it ran from; a failed one leaves the log
//! intact, and poisoned, so the changes are retried.
//!
//! The log's writers are crate-private: the session that owns it is the
//! only way in, and its refresh runs the only way out. Everyone else
//! reads it through [`crate::ScSession::delta_store`].

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::exec::TableDelta;
use crate::storage::DiskCatalog;
use crate::{EngineError, Result};

/// Segments a base table may hold before an insert-only ingest rewrites
/// it into one instead of appending another: the bound on how
/// fragmented a refresh's base read can get.
///
/// Measured on 2 vCPUs with a 2.9 MB, 60,000-row `store_sales` and
/// 0.5 % batches: a canonical `read_table` takes ≈ 1.1 ms; a fragmented
/// one pays ≈ 0.3 ms once for the concatenation, then ≈ 0.02 ms per
/// segment (open, read, checksum, decode). At 16 segments the
/// per-segment share is ≈ 0.3 ms a read, a twentieth of the ≈ 6 ms
/// rewrite each append saves.
const MAX_BASE_SEGMENTS: usize = 16;

/// Thread-safe in-memory log of pending per-table deltas.
///
/// Batches appended for the same table are kept in arrival order; the
/// controller's delta operators replay them in that order, which is what
/// makes incremental maintenance byte-identical to recomputation even when
/// a later batch touches rows an earlier batch inserted.
///
/// The controller works from a [`DeltaStore::snapshot`] taken at refresh
/// start, so batches ingested *during* a run are neither partially applied
/// nor lost: a successful run consumes exactly the snapshotted prefix. A
/// *failed* run marks the log **poisoned**: some MVs may already hold
/// their incrementally-applied contents while the log still pends, and
/// re-applying a delta is not idempotent — so the next refresh recomputes
/// every delta-reached MV from its (authoritative, already-updated) base
/// tables, which is always correct. Consuming the log clears the poison.
#[derive(Debug)]
pub struct DeltaStore {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    pending: HashMap<String, TableDelta>,
    poisoned: bool,
}

impl DeltaStore {
    /// An empty log.
    pub(crate) fn new() -> Self {
        DeltaStore {
            inner: Mutex::default(),
        }
    }

    /// Appends `delta`'s batches to `table`'s pending log without
    /// touching storage.
    #[cfg(test)]
    pub(crate) fn append(&self, table: &str, delta: TableDelta) -> Result<()> {
        let mut g = self.inner.lock();
        match g.pending.get_mut(table) {
            Some(existing) => existing.extend(delta)?,
            None => {
                g.pending.insert(table.to_string(), delta);
            }
        }
        Ok(())
    }

    /// The pending delta for `table`, if any batches are logged.
    pub fn pending(&self, table: &str) -> Option<TableDelta> {
        self.inner.lock().pending.get(table).cloned()
    }

    /// Number of pending batches logged against `table` (0 when none) —
    /// cheaper than cloning via [`DeltaStore::pending`], and what the
    /// controller compares against its snapshot to detect batches that
    /// arrived *during* a refresh run.
    pub fn pending_batches(&self, table: &str) -> usize {
        self.inner
            .lock()
            .pending
            .get(table)
            .map(|d| d.batches().len())
            .unwrap_or(0)
    }

    /// Pending bytes logged against `table` (0 when none).
    pub fn pending_bytes(&self, table: &str) -> u64 {
        self.inner
            .lock()
            .pending
            .get(table)
            .map(TableDelta::byte_size)
            .unwrap_or(0)
    }

    /// Names of tables with pending batches, sorted.
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().pending.keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().pending.is_empty()
    }

    /// A point-in-time copy of the pending log (what one refresh run works
    /// from).
    pub fn snapshot(&self) -> HashMap<String, TableDelta> {
        self.inner.lock().pending.clone()
    }

    /// Whether a previous refresh failed mid-run, leaving MV contents that
    /// must not absorb the pending deltas a second time.
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Marks the log poisoned (called by the controller when a refresh
    /// fails after deltas may have been applied to some MVs).
    pub(crate) fn mark_poisoned(&self) {
        self.inner.lock().poisoned = true;
    }

    /// Consumes exactly the batches captured in `snapshot` — batches
    /// ingested after the snapshot survive for the next refresh — and
    /// clears the poison flag (every MV is consistent again).
    pub(crate) fn consume(&self, snapshot: &HashMap<String, TableDelta>) {
        let mut g = self.inner.lock();
        for (table, snap) in snapshot {
            let consumed = snap.batches().len();
            if let Some(current) = g.pending.get_mut(table) {
                if current.batches().len() <= consumed {
                    g.pending.remove(table);
                } else {
                    current.discard_first(consumed);
                }
            }
        }
        g.poisoned = false;
    }

    /// Ingests one change batch: applies `delta` to the base table
    /// `table` in `disk` (the authoritative copy stays current) and logs
    /// it for the next refresh run's incremental maintenance.
    ///
    /// The storage write is O(batch) when it can be: an insert-only
    /// batch commits its rows as one new segment of the base
    /// ([`DiskCatalog::append_table`]), so the base is neither read nor
    /// rewritten. A batch with deletes — or a base already
    /// [`MAX_BASE_SEGMENTS`] segments long — takes the read-modify-write
    /// instead: read the base, apply the batch, rewrite it in the
    /// canonical single-segment form. Either way the stored rows equal
    /// `delta.apply(&base)`, in the same order, and a batch of another
    /// schema fails before anything is written or logged.
    ///
    /// The log lock is held across the disk commit and the log append,
    /// so a concurrent [`DeltaStore::snapshot`] observes either neither
    /// effect or both — a refresh must never see the updated base
    /// without the pending batch (it would bake the delta into a
    /// recomputed MV and then apply it again next run). The lock also
    /// serializes concurrent ingests against one table, which keeps the
    /// read-modify-write whole and the segment bound exact (only ingest
    /// appends to a base).
    pub(crate) fn ingest(&self, disk: &DiskCatalog, table: &str, delta: TableDelta) -> Result<()> {
        let mut g = self.inner.lock();
        if !delta.has_deletes() && disk.segment_count(table)? < MAX_BASE_SEGMENTS {
            disk.append_table(table, &delta.insert_rows_table()?)?;
        } else {
            let base = disk.read_table(table)?;
            if base.schema() != delta.schema() {
                return Err(EngineError::TypeMismatch {
                    expected: base.schema().to_string(),
                    got: delta.schema().to_string(),
                    context: "DeltaStore::ingest".into(),
                });
            }
            disk.write_table(table, &delta.apply(&base)?)?;
        }
        match g.pending.get_mut(table) {
            Some(existing) => existing.extend(delta)?,
            // An empty batch wrote nothing, so no check has seen its
            // schema: it must not claim the log, or the next batch's log
            // append would fail after that batch's commit.
            None if delta.is_empty() => {}
            None => {
                g.pending.insert(table.to_string(), delta);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::DeltaBatch;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn rows(vals: &[i64]) -> crate::table::Table {
        let mut t = TableBuilder::new().column("x", DataType::Int64).build();
        for &v in vals {
            t.push_row(vec![Value::Int64(v)]).unwrap();
        }
        t
    }

    #[test]
    fn append_accumulates_batches_in_order() {
        let store = DeltaStore::new();
        assert!(store.is_empty());
        store
            .append("t", TableDelta::insert_only(rows(&[1])))
            .unwrap();
        store
            .append("t", TableDelta::insert_only(rows(&[2, 3])))
            .unwrap();
        let d = store.pending("t").unwrap();
        assert_eq!(d.batches().len(), 2);
        assert_eq!(d.insert_rows(), 3);
        assert!(store.pending_bytes("t") > 0);
        assert_eq!(store.pending_bytes("other"), 0);
        assert_eq!(store.tables(), vec!["t".to_string()]);
        store.consume(&store.snapshot());
        assert!(store.is_empty());
    }

    #[test]
    fn append_rejects_schema_drift() {
        let store = DeltaStore::new();
        store
            .append("t", TableDelta::insert_only(rows(&[1])))
            .unwrap();
        let mut other = TableBuilder::new().column("y", DataType::Bool).build();
        other.push_row(vec![Value::Bool(true)]).unwrap();
        assert!(store.append("t", TableDelta::insert_only(other)).is_err());
    }

    #[test]
    fn snapshot_consume_keeps_later_batches_and_clears_poison() {
        let store = DeltaStore::new();
        store
            .append("t", TableDelta::insert_only(rows(&[1])))
            .unwrap();
        let snap = store.snapshot();
        // A batch ingested after the snapshot must survive consumption.
        store
            .append("t", TableDelta::insert_only(rows(&[2])))
            .unwrap();
        store
            .append("u", TableDelta::insert_only(rows(&[3])))
            .unwrap();
        store.mark_poisoned();
        assert!(store.is_poisoned());
        store.consume(&snap);
        assert!(!store.is_poisoned());
        let t = store.pending("t").unwrap();
        assert_eq!(t.batches().len(), 1);
        assert_eq!(t.batches()[0].inserts, rows(&[2]));
        assert!(store.pending("u").is_some());
        // Consuming everything empties the table's entry.
        let snap2 = store.snapshot();
        store.consume(&snap2);
        assert!(store.is_empty());
    }

    #[test]
    fn ingest_updates_base_and_logs() {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("t", &rows(&[1, 2])).unwrap();
        let store = DeltaStore::new();
        store
            .ingest(
                &disk,
                "t",
                TableDelta::from_batch(DeltaBatch {
                    deletes: rows(&[1]),
                    inserts: rows(&[9]),
                })
                .unwrap(),
            )
            .unwrap();
        assert_eq!(disk.read_table("t").unwrap(), rows(&[2, 9]));
        assert_eq!(store.pending("t").unwrap().delete_rows(), 1);
    }

    #[test]
    fn insert_only_ingest_appends_up_to_the_segment_bound() {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("t", &rows(&[0])).unwrap();
        let store = DeltaStore::new();
        let mut expected = rows(&[0]);
        let batches = 2 * MAX_BASE_SEGMENTS + 3;
        for v in 1..=batches as i64 {
            let delta = TableDelta::insert_only(rows(&[v]));
            expected = delta.apply(&expected).unwrap();
            let before = disk.segment_count("t").unwrap();
            store.ingest(&disk, "t", delta).unwrap();
            // Below the bound a batch appends one segment; at it, the
            // base is rewritten whole.
            let after = disk.segment_count("t").unwrap();
            let want = if before < MAX_BASE_SEGMENTS {
                before + 1
            } else {
                1
            };
            assert_eq!(after, want, "batch {v}");
            assert!(after <= MAX_BASE_SEGMENTS);
            assert_eq!(disk.read_table("t").unwrap(), expected, "batch {v}");
        }
        assert_eq!(store.pending_batches("t"), batches);
    }
}
