//! Settled malloc thresholds for the catalog's table buffers.
//!
//! A table read, its decode, an operator's output and a table's encode
//! each take buffers of megabytes that live for one refresh round.
//! glibc's malloc moves two thresholds as a process runs: a buffer past
//! the *mmap threshold* gets pages of its own, and freeing such a buffer
//! raises that threshold to its size (up to a 32 MiB ceiling); heap top
//! past the *trim threshold*, twice the first, goes back to the kernel.
//! Where a buffer lands therefore depends on which buffers the process
//! happened to free before, and a buffer on fresh pages pays a page fault
//! per 4 KiB. Under a steady refresh loop on a 2-vCPU VM that made the
//! same few-MB base-table read cost 1.6 ms on reused pages and 3.5-4.8 ms
//! on fresh ones: every fourth round in some runs, in no round of others.
//!
//! [`settle_thresholds`] takes that history out: it frees one buffer just
//! under the ceiling first, so both thresholds sit at their final values
//! from the first table on, and a buffer of a given size costs the same
//! in every round of every run. A process that fixed its thresholds
//! itself keeps them (glibc moves them only while they are unset), and
//! under another allocator this is one unused allocation.

/// Just under glibc's 32 MiB ceiling on the dynamic mmap threshold, so
/// freeing it moves the threshold (a chunk past the ceiling would not).
const SETTLE_BYTES: usize = 31 << 20;

/// Allocates and frees one [`SETTLE_BYTES`] buffer, once per process
/// (called by [`super::DiskCatalog::open`]). The buffer is never
/// written: its pages are mapped but not touched.
pub(super) fn settle_thresholds() {
    static SETTLED: std::sync::Once = std::sync::Once::new();
    SETTLED.call_once(|| {
        // `black_box` keeps the optimizer from eliding the unused pair.
        drop(std::hint::black_box(Vec::<u8>::with_capacity(SETTLE_BYTES)));
    });
}
