//! Storage backends: a self-describing columnar file format
//! ([`mod@format`]), an external-storage catalog with optional I/O throttling
//! ([`DiskCatalog`]), the append-only [`DeltaStore`] logging base-table
//! changes between refresh runs, and the checksummed [`ObservationStore`]
//! sidecar feeding runtime metrics back into the cost model. The bounded
//! Memory Catalog at the heart of S/C is not a store here: each refresh
//! run owns one ([`crate::controller`]).

pub mod format;

mod delta;
mod disk;
mod observe;

pub use delta::DeltaStore;
pub(crate) use disk::TableStat;
pub use disk::{DiskCatalog, EpochPin, RetentionSubscription, Throttle};
pub(crate) use observe::StagedSave;
pub use observe::{Observation, ObservationStore, OBSERVATION_RING, SIDECAR_FILE};
