//! External storage: tables persisted as **segmented SCTB** files in a
//! directory (the paper uses a Hive metastore over NFS; any
//! materialization location works, §III footnote 2).
//!
//! ## Segmented layout
//!
//! A table is stored as a small manifest ([`format::Manifest`]) plus
//! ordered row-segment files, each a complete self-describing SCTB
//! table. The table's contents are the row-concatenation of its
//! segments in manifest order. This is what lets an insert-only
//! incremental refresh *append* a delta-sized segment
//! ([`DiskCatalog::append_table`]) instead of rewriting the whole MV —
//! the write cost becomes O(delta), not O(MV).
//!
//! Each rule has one owning module: `naming` (the file-name format and
//! the one directory scan that parses it), `retention` (pins, the
//! retained-file index, creation epochs, the GC horizon and its
//! subscribers), `pacing` ([`Throttle`]'s modeled device), and this one
//! (the commit protocol below, the read path, [`EpochPin`]).
//!
//! ## Append / commit / compact protocol
//!
//! * The **manifest rename is the commit point**. An append writes the new
//!   segment file first (via tmp + rename) and only then commits a
//!   manifest referencing it; a crash between the two leaves an orphan
//!   segment that no manifest references — the prior version stays fully
//!   readable and the orphan is pruned by the next rewrite/compact.
//! * Reads verify every referenced segment against its manifest-recorded
//!   byte length and [`format::segment_checksum`] — once per segment per
//!   read — so torn or truncated segment files fail with
//!   [`EngineError::Corrupt`] instead of being silently read.
//! * [`DiskCatalog::write_table`] (a full rewrite, e.g. an MV recompute)
//!   and [`DiskCatalog::compact`] both produce the **canonical
//!   single-segment form**: exactly one segment with id 0 plus its
//!   manifest. Encoding is deterministic, so two catalogs holding
//!   equal-row tables in canonical form are byte-identical file for file —
//!   the equality contract the differential test suites pin: *row*
//!   identity after every refresh round, *byte* identity after
//!   `compact()`. Retention never perturbs this: epochs appear only in
//!   *retained*-file names, never in live file names or manifest bytes.
//!
//! ## Snapshot reads & epoch GC
//!
//! Every commit (rewrite, append, compact, drop) advances a per-catalog
//! **manifest epoch**. [`DiskCatalog::pin`] returns an [`EpochPin`] that
//! pins the current epoch: reads through the pin resolve each table to
//! the file versions committed at pin time, byte for byte, while
//! writers keep committing. A commit that replaces files moves them
//! into the retained namespace (`<file>~<epoch>`, see
//! [`format::retained_name`]) instead of deleting them; epoch-based GC
//! deletes a retained file only once the oldest live pin is at or past
//! its supersede epoch (immediately, when nothing is pinned). The
//! rename into the retained namespace doubles as the rewrite protocol's
//! crash safety: at any crash point either the live or the retained
//! bytes verify against the live manifest, and the read path falls back
//! to retained copies by checksum.
//!
//! Pins are a per-instance contract, like the internal I/O lock. A
//! reader racing a writer on *another* handle to the same directory
//! gets best-effort semantics instead: verification failures retry
//! while the manifest keeps changing under them, and a reader that
//! exhausts its retry budget under a hot cross-handle writer fails with
//! the typed [`EngineError::ReadContention`] rather than a misleading
//! corruption report.

mod naming;
mod pacing;
mod retention;
#[cfg(test)]
mod tests;

pub use naming::{parse_retained, retained_name};
pub use pacing::Throttle;
pub use retention::RetentionSubscription;

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::plan::TableSource;
use crate::storage::format::{self, Manifest, SegmentMeta};
use crate::table::Table;
use crate::{EngineError, Result};

use naming::Kind;
use pacing::Pacer;
use retention::{Retention, Version};

/// A directory of segmented SCTB tables with optional I/O pacing.
///
/// Catalog operations are atomic **within one instance**: an internal
/// read/write lock scopes the filesystem work (never the throttle
/// pacing, so reads and writes still overlap on their separate modeled
/// channels), which is what makes `ingest_delta` rewriting a base table
/// safe against refresh lanes reading it through the same catalog.
/// Readers additionally retry verification failures whose manifest
/// changed under them, covering writers on *other* handles to the same
/// directory.
#[derive(Debug)]
pub struct DiskCatalog {
    dir: PathBuf,
    pacer: Pacer,
    /// Guards the filesystem portion of every operation (see above),
    /// and every access to `retention`.
    io: RwLock<()>,
    /// The last committed manifest epoch (commits advance it under the
    /// write half of `io`; [`DiskCatalog::pin`] samples it under the
    /// read half, so a pin never lands mid-commit).
    epoch: AtomicU64,
    retention: Retention,
    /// Sanitized stem -> the original table name that claimed it; a
    /// second distinct name mapping to a claimed stem is a
    /// [`EngineError::NameCollision`] instead of silent aliasing.
    names: Mutex<HashMap<String, String>>,
    /// Retained-file deletes that failed (GC debt that would otherwise
    /// accumulate invisibly).
    gc_failed: AtomicU64,
    /// Max verification-failure retries an unpinned read spends on a
    /// manifest that keeps changing under it before failing with
    /// [`EngineError::ReadContention`].
    read_retry_cap: u32,
    /// Test probe: segment bytes the read path has fed to the checksum.
    #[cfg(test)]
    hashed_bytes: AtomicU64,
}

const READ_RETRY_CAP: u32 = 32;

impl DiskCatalog {
    /// Opens (creating if needed) a catalog rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        // Start the epoch counter above any retained suffix already on
        // disk (debris a crashed process left behind), so this
        // instance's retained names never collide with leftovers.
        let max_epoch = naming::scan(dir)?
            .iter()
            .filter_map(|(_, f)| f.retained)
            .max()
            .unwrap_or(0);
        Ok(DiskCatalog {
            dir: dir.to_path_buf(),
            pacer: Pacer::new(None),
            io: RwLock::new(()),
            epoch: AtomicU64::new(max_epoch),
            retention: Retention::default(),
            names: Mutex::new(HashMap::new()),
            gc_failed: AtomicU64::new(0),
            read_retry_cap: READ_RETRY_CAP,
            #[cfg(test)]
            hashed_bytes: AtomicU64::new(0),
        })
    }

    /// Opens a catalog whose reads and writes are paced by `throttle`.
    pub fn open_throttled(dir: impl AsRef<Path>, throttle: Throttle) -> Result<Self> {
        let mut c = Self::open(dir)?;
        c.pacer = Pacer::new(Some(throttle));
        Ok(c)
    }

    /// Overrides the unpinned-read retry budget, so a test can reach the
    /// cap deterministically.
    #[cfg(test)]
    fn with_read_retry_cap(mut self, cap: u32) -> Self {
        self.read_retry_cap = cap;
        self
    }

    /// The directory backing this catalog.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file stem `name` materializes under (path-safe sanitization),
    /// exposed so callers registering logical names can detect stem
    /// collisions up front (see [`EngineError::NameCollision`]).
    pub fn file_stem(name: &str) -> String {
        naming::stem(name)
    }

    /// The path of `file`, or of its copy retained at epoch `retained`.
    fn path(&self, file: &str, retained: Option<u64>) -> PathBuf {
        match retained {
            Some(e) => self.dir.join(naming::retained_name(file, e)),
            None => self.dir.join(file),
        }
    }

    /// Records `name` as the owner of its sanitized stem `safe`, failing
    /// with [`EngineError::NameCollision`] when a *different* name
    /// already claimed it — two distinct logical names must never alias
    /// one set of files. Called on every write path.
    fn claim_name(&self, safe: &str, name: &str) -> Result<()> {
        let mut names = self.names.lock();
        match names.get(safe) {
            Some(existing) if existing != name => Err(EngineError::NameCollision {
                name: name.to_string(),
                existing: existing.clone(),
            }),
            Some(_) => Ok(()),
            None => {
                names.insert(safe.to_string(), name.to_string());
                Ok(())
            }
        }
    }

    /// Writes `file` via tmp + rename, so it appears whole or not at all.
    fn write_atomic(&self, file: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(naming::tmp(file));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, self.dir.join(file))?;
        Ok(())
    }

    /// Atomically commits `manifest`; returns its byte length.
    fn commit_manifest(&self, safe: &str, manifest: &Manifest) -> Result<u64> {
        let bytes = format::encode_manifest(manifest);
        self.write_atomic(&naming::manifest(safe), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Encodes `rows` as segment `id` of `safe`, lands it atomically, and
    /// returns its manifest entry.
    fn write_segment(&self, safe: &str, id: u64, rows: &Table) -> Result<SegmentMeta> {
        let payload = format::encode(rows);
        self.write_atomic(&naming::segment(safe, id), &payload)?;
        Ok(SegmentMeta {
            id,
            rows: rows.num_rows() as u64,
            bytes: payload.len() as u64,
            checksum: format::segment_checksum(&payload),
        })
    }

    // ---- epoch pins, retention, and epoch GC ----

    /// The last committed manifest epoch, read without taking the io
    /// lock. Because commits store the epoch with `SeqCst` only after
    /// every rename has landed, the value is always a *committed* epoch
    /// and observes each commit's total order — it can lag a concurrent
    /// commit by one epoch, never run ahead of one. This is the
    /// serving-tier fast path: a cache keyed by `(epoch, table)` can
    /// answer hits without contending with a committing writer's
    /// exclusive io lock.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Subscribes `hook` to the **retention horizon** —
    /// `min(oldest live pin, committed epoch)` — reported every time
    /// epoch GC runs (every commit and every pin drop). State keyed at
    /// an epoch *below* the horizon can never be read again through
    /// this catalog: no live pin holds it, and new pins only land at
    /// the committed epoch. The serving tier uses this to evict
    /// snapshot-cache entries in lockstep with retained-namespace
    /// reclamation.
    ///
    /// Subscriptions stack: every live one is notified, and each lasts
    /// until the returned [`RetentionSubscription`] drops. Hooks run
    /// while the catalog's internal io write lock is held: they must be
    /// fast and must **not** call back into this catalog.
    pub fn subscribe_retention(
        &self,
        hook: impl Fn(u64) + Send + Sync + 'static,
    ) -> RetentionSubscription {
        self.retention.subscribe(hook)
    }

    /// Pins the current manifest epoch and returns the reader handle.
    /// Every read through the pin resolves to the file versions
    /// committed at pin time; the files it needs are retained on disk
    /// until the pin (and every older one) drops.
    pub fn pin(&self) -> EpochPin<'_> {
        let _io = self.io.read();
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.retention.pin(epoch);
        EpochPin {
            catalog: self,
            epoch,
        }
    }

    fn unpin(&self, epoch: u64) {
        let _io = self.io.write();
        self.retention.unpin(epoch);
        self.gc_retained_locked(None);
    }

    /// Deletes retained files no pin can still need (supersede epoch at
    /// or below the GC horizon) and reports the horizon to retention
    /// subscribers. With `table` set, additionally sweeps on-disk
    /// retained debris of that table this instance never created (a
    /// crashed process's leftovers) — safe exactly when the table has
    /// just been committed, which is when callers pass it. Failed
    /// deletes are counted ([`DiskCatalog::gc_failed_deletes`]), never
    /// silently dropped.
    fn gc_retained_locked(&self, table: Option<&str>) {
        let (horizon, freed) = self.retention.collect();
        for file in freed {
            self.remove_counted(&self.dir.join(file));
        }
        // The horizon is `u64::MAX` when nothing is pinned, so the
        // observable one is bounded by the committed epoch.
        self.retention
            .notify(horizon.min(self.epoch.load(Ordering::SeqCst)));
        let Some(safe) = table else { return };
        let Ok(files) = naming::scan(&self.dir) else {
            return;
        };
        for (path, f) in files {
            if f.stem == safe && f.retained.is_some_and(|e| e <= horizon) {
                self.remove_counted(&path);
            }
        }
    }

    /// Removes a file whose absence is fine but whose *failed* removal
    /// is GC debt worth surfacing.
    fn remove_counted(&self, path: &Path) {
        match fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => {
                self.gc_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Retained-file (or orphan-prune) deletes that have failed on this
    /// instance — epoch-GC debt that would otherwise accumulate
    /// invisibly. Surfaced per refresh run via
    /// `RunMetrics::gc_failed_deletes`.
    pub fn gc_failed_deletes(&self) -> u64 {
        self.gc_failed.load(Ordering::Relaxed)
    }

    /// Number of retained (superseded) files currently on disk — 0 once
    /// every pin has dropped and GC has run. Exposed for tests and
    /// operational checks.
    pub fn retained_file_count(&self) -> Result<usize> {
        let files = naming::scan(&self.dir)?;
        Ok(files.iter().filter(|(_, f)| f.retained.is_some()).count())
    }

    /// Copies the committed manifest bytes into the retained namespace
    /// at epoch `c` — needed only while pins are live, since the
    /// manifest swap itself is atomic (callers hold the io write lock).
    fn retain_manifest_locked(&self, safe: &str, raw: &[u8], c: u64) -> Result<()> {
        if !self.retention.pinned() {
            return Ok(());
        }
        let file = naming::manifest(safe);
        fs::write(self.path(&file, Some(c)), raw)?;
        self.retention.retain(file, c);
        Ok(())
    }

    /// Moves the committed version described by `manifest` into the
    /// retained namespace at epoch `c`: the manifest bytes by copy (when
    /// pins are live), every segment file by rename — so the old bytes
    /// exist on disk throughout the commit that replaces them,
    /// regardless of pins (this rename is also the rewrite protocol's
    /// crash-window safety; see the module docs).
    fn retain_version_locked(
        &self,
        safe: &str,
        manifest: &Manifest,
        raw: &[u8],
        c: u64,
    ) -> Result<()> {
        self.retain_manifest_locked(safe, raw, c)?;
        for seg in &manifest.segments {
            let file = naming::segment(safe, seg.id);
            match fs::rename(self.path(&file, None), self.path(&file, Some(c))) {
                Ok(()) => self.retention.retain(file, c),
                // Already missing (an earlier crash window): nothing to
                // retain; readers of the old version fall back to any
                // retained copy that verifies.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// The one verification every segment read goes through — primary
    /// file or retained copy, raw-bytes or decoded read: the exact byte
    /// length, then the manifest checksum. It is the read path's only
    /// call to the hash, so a segment that verifies is hashed once per
    /// read by construction.
    fn verify_segment(&self, name: &str, seg: &SegmentMeta, raw: Vec<u8>) -> Result<Vec<u8>> {
        if raw.len() as u64 != seg.bytes {
            return Err(EngineError::Corrupt(format!(
                "{name}: segment {} is {} bytes, manifest records {}",
                seg.id,
                raw.len(),
                seg.bytes
            )));
        }
        #[cfg(test)]
        self.hashed_bytes
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        if format::segment_checksum(&raw) != seg.checksum {
            return Err(EngineError::Corrupt(format!(
                "{name}: segment {} fails its checksum",
                seg.id
            )));
        }
        Ok(raw)
    }

    /// Loads `name`'s manifest as of `pin` (`None` = the live version),
    /// returning it with its raw bytes (whose length is part of the
    /// table's stored size, and which unpinned reads compare across
    /// retry attempts). A pinned reader gets the version retention
    /// resolves for it; a table created after the pin is
    /// [`EngineError::UnknownTable`].
    fn manifest_at(&self, name: &str, safe: &str, pin: Option<u64>) -> Result<(Manifest, Vec<u8>)> {
        let retained = match pin.map_or(Version::Live, |e| self.retention.manifest(safe, e)) {
            Version::Live => None,
            Version::Retained(s) => Some(s),
            Version::Unborn => return Err(EngineError::UnknownTable(name.to_string())),
        };
        let raw = fs::read(self.path(&naming::manifest(safe), retained)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                EngineError::UnknownTable(name.to_string())
            } else {
                EngineError::Io(e)
            }
        })?;
        Ok((format::decode_manifest(Bytes::from(raw.clone()))?, raw))
    }

    /// Raw bytes of one segment as of `pin` — the oldest retained copy
    /// superseding the pin, else the live file — verified (length +
    /// checksum) against the manifest entry. On a primary failure,
    /// every on-disk retained copy of the segment file (this
    /// instance's and any crashed process's), oldest supersession
    /// first, is tried against the same entry — checksums make
    /// acceptance exact. This is the crash-recovery and
    /// cross-handle-race fallback.
    fn read_segment_bytes_at(
        &self,
        name: &str,
        safe: &str,
        seg: &SegmentMeta,
        pin: Option<u64>,
    ) -> Result<Vec<u8>> {
        let file = naming::segment(safe, seg.id);
        let retained = pin.and_then(|e| self.retention.superseding(&file, e));
        let primary = match fs::read(self.path(&file, retained)) {
            Ok(raw) => self.verify_segment(name, seg, raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(EngineError::Corrupt(
                format!("{name}: segment {} missing", seg.id),
            )),
            Err(e) => return Err(e.into()),
        };
        primary.or_else(|err| {
            let mut copies: Vec<(u64, PathBuf)> = naming::scan(&self.dir)
                .unwrap_or_default()
                .into_iter()
                .filter(|(_, f)| f.stem == safe && f.kind == Kind::Segment(seg.id))
                .filter_map(|(path, f)| Some((f.retained?, path)))
                .collect();
            copies.sort();
            copies
                .into_iter()
                .find_map(|(_, path)| self.verify_segment(name, seg, fs::read(path).ok()?).ok())
                .ok_or(err)
        })
    }

    /// Removes every live segment file of `safe` whose id is not in
    /// `keep` (crash orphans and stale leftovers; callers have just
    /// committed a manifest, so anything unreferenced is dead).
    /// Retained-namespace files are untouched — epoch GC owns those.
    /// Failed removals are counted, not swallowed.
    fn prune_segments(&self, safe: &str, keep: &[u64]) -> Result<()> {
        for (path, f) in naming::scan(&self.dir)? {
            let dead = matches!(f.kind, Kind::Segment(id) if !keep.contains(&id));
            if dead && f.stem == safe && f.retained.is_none() {
                self.remove_counted(&path);
            }
        }
        Ok(())
    }

    /// Whether a table exists (has a committed manifest).
    pub fn contains(&self, name: &str) -> bool {
        self.path(&naming::manifest(&naming::stem(name)), None)
            .exists()
    }

    /// The filesystem half of a canonical rewrite (callers hold the
    /// write half of [`DiskCatalog::io`]). Returns bytes written.
    ///
    /// Commit protocol, crash-safe at every step:
    /// 1. the committed version moves into the retained namespace
    ///    (`<file>~<epoch>`): segment files by rename, the manifest by
    ///    copy when pins are live — so the old bytes exist on disk
    ///    throughout;
    /// 2. the new canonical segment 0 lands via tmp + rename;
    /// 3. the manifest commit (tmp + rename) flips readers to the new
    ///    version atomically;
    /// 4. epoch GC deletes whatever no pin still needs (immediately,
    ///    when nothing is pinned).
    ///
    /// Dying before step 3 leaves the old version readable: the live
    /// manifest still describes the retained segment bytes, which the
    /// read path falls back to by checksum. Dying after step 3 leaves
    /// the new version live, plus retained debris the next commit of
    /// this table sweeps.
    fn rewrite_locked(&self, name: &str, safe: &str, table: &Table) -> Result<u64> {
        let c = self.epoch.load(Ordering::SeqCst) + 1;
        match self.manifest_at(name, safe, None) {
            Ok((old, raw)) => self.retain_version_locked(safe, &old, &raw, c)?,
            // No committed version to retain (creation, or a corrupt
            // manifest being rewritten over — the recovery path).
            Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => {
                self.retention.born(safe, c);
            }
            Err(e) => return Err(e),
        }
        let seg = self.write_segment(safe, 0, table)?;
        let manifest_len = self.commit_manifest(
            safe,
            &Manifest {
                segments: vec![seg],
            },
        )?;
        self.epoch.store(c, Ordering::SeqCst);
        self.gc_retained_locked(Some(safe));
        self.prune_segments(safe, &[0])?;
        Ok(seg.bytes + manifest_len)
    }

    /// Persists `table` under `name` in the canonical single-segment form,
    /// replacing any previous version and pruning stale segments (an MV
    /// recompute replaces the old contents). Returns bytes written
    /// (segment plus manifest).
    pub fn write_table(&self, name: &str, table: &Table) -> Result<u64> {
        let started = Instant::now();
        let safe = naming::stem(name);
        let len = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            self.rewrite_locked(name, &safe, table)?
        };
        self.pacer.write(started, len);
        Ok(len)
    }

    /// Appends `rows` to `name` as a new committed segment — the
    /// O(delta)-write path an insert-only incremental refresh takes
    /// instead of rewriting the MV. The table must already exist; a
    /// zero-row append is a no-op. Returns bytes written (segment plus the
    /// rewritten manifest).
    ///
    /// The segment file is fully written (tmp + rename) *before* the
    /// manifest commit references it, so a crash mid-append leaves the
    /// prior version readable and the new segment invisible.
    pub fn append_table(&self, name: &str, rows: &Table) -> Result<u64> {
        if rows.num_rows() == 0 {
            return Ok(0);
        }
        let started = Instant::now();
        let safe = naming::stem(name);
        let len = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            let (mut manifest, raw) = self.manifest_at(name, &safe, None)?;
            // An append leaves every committed segment in place; only
            // the manifest is superseded, so only it needs retaining
            // (and only while pins are live — the swap is atomic).
            let c = self.epoch.load(Ordering::SeqCst) + 1;
            self.retain_manifest_locked(&safe, &raw, c)?;
            let seg = self.write_segment(&safe, manifest.next_id(), rows)?;
            manifest.segments.push(seg);
            let manifest_len = self.commit_manifest(&safe, &manifest)?;
            self.epoch.store(c, Ordering::SeqCst);
            self.gc_retained_locked(Some(&safe));
            seg.bytes + manifest_len
        };
        self.pacer.write(started, len);
        Ok(len)
    }

    /// Persists `table` under `name` by the requested path: `append`
    /// commits it as a new delta-sized segment
    /// ([`DiskCatalog::append_table`]), otherwise it replaces the stored
    /// contents canonically ([`DiskCatalog::write_table`]). The single
    /// dispatch point for the controller's blocking-write and
    /// background-materializer paths.
    pub fn persist_table(&self, name: &str, table: &Table, append: bool) -> Result<u64> {
        if append {
            self.append_table(name, table)
        } else {
            self.write_table(name, table)
        }
    }

    /// Collapses `name` back to the canonical single-segment form,
    /// pruning the replaced segments. A no-op (returning 0) when the table
    /// is already canonical; otherwise returns bytes written.
    pub fn compact(&self, name: &str) -> Result<u64> {
        let started = Instant::now();
        let safe = naming::stem(name);
        let (read_bytes, written) = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            let (manifest, raw) = self.manifest_at(name, &safe, None)?;
            if manifest.segments.len() == 1 && manifest.segments[0].id == 0 {
                return Ok(0);
            }
            let table = self.read_segments_at(name, &safe, &manifest, None)?;
            let written = self.rewrite_locked(name, &safe, &table)?;
            (raw.len() as u64 + manifest.total_bytes(), written)
        };
        self.pacer.read(started, read_bytes);
        self.pacer.write(started, written);
        Ok(written)
    }

    /// Reads every segment of `manifest` as of `pin` — verified bytes,
    /// decoded, each decoded row count checked against its manifest
    /// entry — concatenated in manifest order.
    fn read_segments_at(
        &self,
        name: &str,
        safe: &str,
        manifest: &Manifest,
        pin: Option<u64>,
    ) -> Result<Table> {
        let mut parts = Vec::with_capacity(manifest.segments.len());
        for seg in &manifest.segments {
            let raw = self.read_segment_bytes_at(name, safe, seg, pin)?;
            let table = format::decode(Bytes::from(raw))?;
            if table.num_rows() as u64 != seg.rows {
                // Catches manifest corruption the byte checks cannot (the
                // rows field is metadata, not part of the segment payload).
                return Err(EngineError::Corrupt(format!(
                    "{name}: segment {} holds {} rows, manifest records {}",
                    seg.id,
                    table.num_rows(),
                    seg.rows
                )));
            }
            parts.push(table);
        }
        match parts.len() {
            1 => Ok(parts.pop().expect("one part")),
            _ => Table::concat(&parts.iter().collect::<Vec<_>>()),
        }
    }

    /// Runs `attempt` under the io read lock against `name`'s stem and
    /// manifest as of `pin`. Unpinned attempts that fail verification
    /// are retried while the live manifest keeps changing under them (a
    /// writer on another handle), up to the retry cap — exhaustion is the typed
    /// [`EngineError::ReadContention`], while a failing attempt over a
    /// *stable* manifest is genuine [`EngineError::Corrupt`]. Pinned
    /// attempts never retry: a pin's files are held on disk for its
    /// lifetime.
    fn with_manifest<T>(
        &self,
        name: &str,
        pin: Option<u64>,
        mut attempt: impl FnMut(&str, &Manifest, &[u8]) -> Result<T>,
    ) -> Result<T> {
        let safe = &naming::stem(name);
        let mut attempts = 0u32;
        loop {
            let (result, manifest_raw) = {
                let _io = self.io.read();
                let (manifest, raw) = self.manifest_at(name, safe, pin)?;
                let result = attempt(safe, &manifest, &raw);
                (result, raw)
            };
            match result {
                Ok(v) => return Ok(v),
                Err(err @ EngineError::Corrupt(_)) if pin.is_none() => {
                    attempts += 1;
                    if attempts > self.read_retry_cap {
                        return Err(EngineError::ReadContention {
                            table: name.to_string(),
                            attempts,
                        });
                    }
                    let changed = |raw: &[u8]| {
                        fs::read(self.path(&naming::manifest(safe), None))
                            .map(|now| now != raw)
                            .unwrap_or(true)
                    };
                    if changed(&manifest_raw) {
                        // A cross-handle writer committed: back off
                        // briefly so a hot writer cannot starve the
                        // reader, then try the new manifest.
                        std::thread::sleep(Duration::from_micros(100));
                        continue;
                    }
                    // Possibly mid-commit (segment swapped, manifest not
                    // yet renamed): give the writer a beat, then decide.
                    std::thread::sleep(Duration::from_micros(500));
                    if changed(&manifest_raw) {
                        continue;
                    }
                    // Stable manifest: genuine corruption.
                    return Err(err);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Loads the table stored under `name`: its segments, verified and
    /// concatenated in manifest order.
    ///
    /// Within one catalog instance, the internal I/O lock makes reads
    /// atomic against writers outright. Against writers on *other*
    /// handles to the same directory, a rewrite swaps segment contents
    /// before its manifest commit lands, so one attempt can catch a
    /// manifest/segment pair from two committed states and fail
    /// verification; the two cases are told apart across attempts — a
    /// manifest that changed since the failed attempt means a concurrent
    /// writer (retry against the new manifest), a stable one means the
    /// corruption is real and surfaces as [`EngineError::Corrupt`].
    pub fn read_table(&self, name: &str) -> Result<Table> {
        self.read_table_at(name, None)
    }

    fn read_table_at(&self, name: &str, pin: Option<u64>) -> Result<Table> {
        let started = Instant::now();
        let (table, total_bytes) = self.with_manifest(name, pin, |safe, manifest, raw| {
            let t = self.read_segments_at(name, safe, manifest, pin)?;
            Ok((t, raw.len() as u64 + manifest.total_bytes()))
        })?;
        self.pacer.read(started, total_bytes);
        Ok(table)
    }

    /// Size in bytes of the stored table (manifest plus all segments), if
    /// present.
    pub fn size_of(&self, name: &str) -> Result<u64> {
        self.size_of_at(name, None)
    }

    fn size_of_at(&self, name: &str, pin: Option<u64>) -> Result<u64> {
        self.with_manifest(
            name,
            pin,
            |_, m, raw| Ok(raw.len() as u64 + m.total_bytes()),
        )
    }

    /// Number of committed segments backing `name` (1 = canonical form).
    pub fn segment_count(&self, name: &str) -> Result<usize> {
        self.segment_count_at(name, None)
    }

    fn segment_count_at(&self, name: &str, pin: Option<u64>) -> Result<usize> {
        self.with_manifest(name, pin, |_, m, _| Ok(m.segments.len()))
    }

    /// Total stored rows of `name`, from the manifest alone (no segment
    /// reads).
    pub fn row_count(&self, name: &str) -> Result<u64> {
        self.row_count_at(name, None)
    }

    fn row_count_at(&self, name: &str, pin: Option<u64>) -> Result<u64> {
        self.with_manifest(name, pin, |_, m, _| Ok(m.total_rows()))
    }

    /// The raw stored bytes of every file backing `name` — the manifest
    /// first, then each segment in manifest order — keyed by *live* file
    /// name (pinned reads of retained copies report the same keys, so
    /// byte-identity comparisons stay file-for-file). Every segment's
    /// bytes are verified against its manifest entry, so a cross-handle
    /// rewrite mid-walk retries instead of returning a torn mix of two
    /// committed states. This is what the differential suites compare
    /// for the byte-identity-after-compact contract.
    pub fn stored_file_bytes(&self, name: &str) -> Result<Vec<(String, Vec<u8>)>> {
        self.stored_file_bytes_at(name, None)
    }

    fn stored_file_bytes_at(&self, name: &str, pin: Option<u64>) -> Result<Vec<(String, Vec<u8>)>> {
        self.with_manifest(name, pin, |safe, manifest, raw| {
            let mut out = vec![(naming::manifest(safe), raw.to_vec())];
            for seg in &manifest.segments {
                out.push((
                    naming::segment(safe, seg.id),
                    self.read_segment_bytes_at(name, safe, seg, pin)?,
                ));
            }
            Ok(out)
        })
    }

    /// Deletes a stored table — manifest and every segment file, including
    /// crash orphans (no error if absent). With pins live, the committed
    /// version moves to the retained namespace instead, so pinned
    /// readers keep seeing it until the last pin drops; the live
    /// namespace is empty either way. Dropping releases the name's stem
    /// claim for reuse.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let safe = naming::stem(name);
        let _io = self.io.write();
        let retained = match self.manifest_at(name, &safe, None) {
            Ok(version) if self.retention.pinned() => Some(version),
            Ok(_) | Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => None,
            Err(e) => return Err(e),
        };
        let c = self.epoch.load(Ordering::SeqCst) + 1;
        if let Some((manifest, raw)) = &retained {
            self.retain_version_locked(&safe, manifest, raw, c)?;
        }
        match fs::remove_file(self.path(&naming::manifest(&safe), None)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        if retained.is_some() {
            self.epoch.store(c, Ordering::SeqCst);
        }
        {
            let mut names = self.names.lock();
            if names.get(&safe).is_some_and(|o| o == name) {
                names.remove(&safe);
            }
        }
        self.prune_segments(&safe, &[])?;
        self.gc_retained_locked(Some(&safe));
        Ok(())
    }

    /// Names of all stored tables, sorted — the same names
    /// [`EpochPin::tables`] lists for a pin at the current epoch.
    pub fn list(&self) -> Result<Vec<String>> {
        self.tables_at(None)
    }

    /// Table names visible as of `pin` (`None` = the live tables),
    /// sorted.
    ///
    /// A table is visible to a pin iff a manifest for it was committed
    /// at or before the pinned epoch: tables created after the pin are
    /// absent, tables dropped after the pin are still listed (their
    /// pinned version remains readable through the retained namespace).
    /// Names are the logical names registered on this instance's write
    /// paths; tables only ever written by another process list under
    /// their sanitized file stem (identical for already-path-safe
    /// names).
    fn tables_at(&self, pin: Option<u64>) -> Result<Vec<String>> {
        let _io = self.io.read();
        // Every stem with a manifest, live or retained (a retained copy
        // is the only trace a post-pin drop leaves), and whether it has
        // a live one.
        let mut stems = BTreeMap::<String, bool>::new();
        for (_, f) in naming::scan(&self.dir)? {
            if f.kind == Kind::Manifest {
                *stems.entry(f.stem).or_default() |= f.retained.is_none();
            }
        }
        let names = self.names.lock();
        let mut out: Vec<String> = stems
            .into_iter()
            .filter(|(stem, live)| {
                match pin.map_or(Version::Live, |e| self.retention.manifest(stem, e)) {
                    Version::Live => *live,
                    Version::Retained(_) => true,
                    Version::Unborn => false,
                }
            })
            .map(|(stem, _)| names.get(&stem).cloned().unwrap_or(stem))
            .collect();
        out.sort();
        Ok(out)
    }
}

/// A reader handle pinning the catalog's state as of a manifest epoch
/// (see [`DiskCatalog::pin`]). Every read through it resolves each
/// table to the file versions committed at pin time — byte for byte,
/// no matter how many rewrites, appends, compactions, or drops commit
/// concurrently on the same catalog instance. The files a pin needs
/// are retained on disk until the last pin that can see them drops
/// (epoch GC runs on drop). As a [`TableSource`], it gives a plan
/// pinned-epoch scans.
///
/// Pinned reads never retry and never contend with the refresh-run
/// lock; they serialize only against the short filesystem critical
/// section of a committing writer.
#[derive(Debug)]
pub struct EpochPin<'a> {
    catalog: &'a DiskCatalog,
    epoch: u64,
}

impl EpochPin<'_> {
    /// The manifest epoch this pin holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Loads the table stored under `name` as of the pinned epoch.
    /// Tables created after the pin are [`EngineError::UnknownTable`].
    pub fn read_table(&self, name: &str) -> Result<Table> {
        self.catalog.read_table_at(name, Some(self.epoch))
    }

    /// Size in bytes of the pinned version (manifest plus segments).
    pub fn size_of(&self, name: &str) -> Result<u64> {
        self.catalog.size_of_at(name, Some(self.epoch))
    }

    /// Segment count of the pinned version.
    pub fn segment_count(&self, name: &str) -> Result<usize> {
        self.catalog.segment_count_at(name, Some(self.epoch))
    }

    /// Stored rows of the pinned version (manifest only, no segment
    /// reads).
    pub fn row_count(&self, name: &str) -> Result<u64> {
        self.catalog.row_count_at(name, Some(self.epoch))
    }

    /// Raw stored bytes of the pinned version, keyed by live file name
    /// (see [`DiskCatalog::stored_file_bytes`]).
    pub fn stored_file_bytes(&self, name: &str) -> Result<Vec<(String, Vec<u8>)>> {
        self.catalog.stored_file_bytes_at(name, Some(self.epoch))
    }

    /// Logical names of every table visible at the pinned epoch, sorted.
    /// Tables created after the pin are absent; tables dropped after the
    /// pin are still listed because their pinned version stays readable.
    pub fn tables(&self) -> Result<Vec<String>> {
        self.catalog.tables_at(Some(self.epoch))
    }
}

impl TableSource for EpochPin<'_> {
    fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.read_table(name).map(Arc::new)
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.catalog.unpin(self.epoch);
    }
}
