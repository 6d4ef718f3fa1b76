//! Storage backends: a self-describing columnar file format
//! ([`mod@format`]), an external-storage catalog with optional I/O throttling
//! ([`DiskCatalog`]), the bounded in-memory [`MemoryCatalog`] at the heart
//! of S/C, the append-only [`DeltaStore`] logging base-table changes
//! between refresh runs, and the checksummed [`ObservationStore`] sidecar
//! feeding runtime metrics back into the cost model.

pub mod format;

mod delta;
mod disk;
mod memory;
mod observe;

pub use delta::{ingest, DeltaStore};
pub use disk::{DiskCatalog, EpochPin, RetentionSubscription, Throttle};
pub use memory::MemoryCatalog;
pub use observe::{Observation, ObservationStore, OBSERVATION_RING, SIDECAR_FILE};
