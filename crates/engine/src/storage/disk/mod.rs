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
//! the write cost becomes O(delta), not O(MV) — and an insert-only
//! ingest append its batch to a base table the same way.
//!
//! Each rule has one owning module: `naming` (the file-name format and
//! the one directory scan that parses it), `retention` (pins, the
//! retained-file index, creation epochs, the GC horizon and its
//! subscribers), `pacing` ([`Throttle`]'s modeled device), `malloc`
//! (settling the allocator's thresholds at the first open), and this one
//! (the directory lock and crash recovery, the commit protocol below,
//! the read path, [`EpochPin`]).
//!
//! ## Append / commit / compact protocol
//!
//! * The **manifest rename is the commit point**. An append writes the new
//!   segment file first (via tmp + rename) and only then commits a
//!   manifest referencing it; a crash between the two leaves an orphan
//!   segment that no manifest references — the prior version stays fully
//!   readable and the next [`DiskCatalog::open`] deletes the orphan.
//!   A commit that fails *without* a crash undoes its own steps before
//!   returning the error, so the committed version reads back as it was.
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
//! bytes verify against the live manifest, and open restores the
//! retained ones when the live ones do not.
//!
//! ## One owner per directory
//!
//! [`DiskCatalog::open`] locks `<dir>/LOCK` for the handle's lifetime
//! (a second open fails with [`EngineError::CatalogLocked`]). With no
//! other writer possible, only a crash can leave the directory
//! disagreeing with its manifests, and open recovers from that once,
//! so the read and commit paths never list the directory or retry.

mod malloc;
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
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::plan::TableSource;
use crate::schema::Schema;
use crate::storage::format::{self, Manifest, SegmentMeta};
use crate::table::Table;
use crate::{EngineError, Result};

use naming::Kind;
use pacing::Pacer;
use retention::{Retention, Version};

/// Bytes of a segment read to parse its SCTB header (the append schema
/// check): one block, which holds the header unless the column names
/// total about 4 KB.
const HEADER_PREFIX: u64 = 4096;

/// What one manifest says about a stored table
/// ([`DiskCatalog::stat`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TableStat {
    /// Manifest plus segment bytes, as [`DiskCatalog::size_of`] counts.
    pub bytes: u64,
    /// Total rows over every segment.
    pub rows: u64,
    /// Committed segments.
    pub segments: usize,
}

/// A directory of segmented SCTB tables with optional I/O pacing.
///
/// Catalog operations are atomic **within one instance**: an internal
/// read/write lock scopes the filesystem work (never the throttle
/// pacing, so reads and writes still overlap on their separate modeled
/// channels), which is what makes `ingest_delta` appending to or
/// rewriting a base table safe against refresh lanes reading it through
/// the same catalog.
/// The handle owns its directory (see the module docs).
#[derive(Debug)]
pub struct DiskCatalog {
    dir: PathBuf,
    /// The locked `LOCK` file; closing it on drop releases the directory.
    _lock: fs::File,
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
    /// Test probe: segment bytes the read path has fed to the checksum.
    #[cfg(test)]
    hashed_bytes: AtomicU64,
}

impl DiskCatalog {
    /// Opens (creating if needed) a catalog rooted at `dir`, owning the
    /// directory until the handle drops (see the module docs) and
    /// recovering from a writer that crashed in it.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        malloc::settle_thresholds();
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let lock = fs::File::create(dir.join(naming::LOCK))?;
        lock.try_lock().map_err(|e| match e {
            fs::TryLockError::WouldBlock => EngineError::CatalogLocked(dir.to_path_buf()),
            fs::TryLockError::Error(e) => EngineError::Io(e),
        })?;
        let catalog = DiskCatalog {
            dir: dir.to_path_buf(),
            _lock: lock,
            pacer: Pacer::new(None),
            io: RwLock::new(()),
            epoch: AtomicU64::new(0),
            retention: Retention::default(),
            names: Mutex::new(HashMap::new()),
            gc_failed: AtomicU64::new(0),
            #[cfg(test)]
            hashed_bytes: AtomicU64::new(0),
        };
        catalog.recover()?;
        Ok(catalog)
    }

    /// The crash-recovery pass, run once by [`DiskCatalog::open`] over
    /// one directory scan. For every table whose live manifest decodes:
    /// a referenced segment whose live file is missing or fails
    /// verification is restored from the oldest retained copy that
    /// verifies (a rewrite that died before its manifest commit), and
    /// every other retained file, `.tmp` file and unreferenced live
    /// segment is deleted. A stem with no live manifest (a lost drop, or
    /// a creation that never committed) loses all its files; a stem
    /// whose manifest does not decode is left alone for a rewrite to
    /// replace.
    fn recover(&self) -> Result<()> {
        let mut stems = BTreeMap::<String, Vec<(PathBuf, naming::FileName)>>::new();
        for (path, f) in naming::scan(&self.dir)? {
            stems.entry(f.stem.clone()).or_default().push((path, f));
        }
        for (safe, mut files) in stems {
            let manifest = match fs::read(self.path(&naming::manifest(&safe), None)) {
                Ok(raw) => match format::decode_manifest(Bytes::from(raw)) {
                    Ok(manifest) => manifest,
                    Err(_) => continue,
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::default(),
                Err(e) => return Err(e.into()),
            };
            let live = |seg: &SegmentMeta| self.path(&naming::segment(&safe, seg.id), None);
            let verifies = |path: &Path, seg: &SegmentMeta| {
                fs::read(path).is_ok_and(|raw| self.verify_segment(&safe, seg, raw).is_ok())
            };
            // Live files first, then retained copies oldest first.
            files.sort_by_key(|(_, f)| f.retained);
            let mut restored = Vec::new();
            for (path, f) in files {
                let referenced = match f.kind {
                    Kind::Segment(id) => manifest.segments.iter().find(|s| s.id == id),
                    _ => None,
                };
                match (f.kind, f.retained, referenced) {
                    (Kind::Manifest, None, _) | (Kind::Segment(_), None, Some(_)) => {}
                    (_, Some(_), Some(seg))
                        if !restored.contains(&seg.id)
                            && !verifies(&live(seg), seg)
                            && verifies(&path, seg) =>
                    {
                        fs::rename(&path, live(seg))?;
                        restored.push(seg.id);
                    }
                    _ => self.remove_counted(&path),
                }
            }
        }
        Ok(())
    }

    /// Opens a catalog whose reads and writes are paced by `throttle`.
    pub fn open_throttled(dir: impl AsRef<Path>, throttle: Throttle) -> Result<Self> {
        let mut c = Self::open(dir)?;
        c.pacer = Pacer::new(Some(throttle));
        Ok(c)
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

    /// The two writes of a rewrite or an append: lands `rows` as the
    /// next segment of `manifest` (tmp + rename), then commits
    /// `manifest` extended by it. If the manifest commit fails the new
    /// segment is removed again, so a failed call leaves no orphan.
    /// Returns bytes written.
    fn publish_segment(&self, safe: &str, mut manifest: Manifest, rows: &Table) -> Result<u64> {
        let payload = format::encode(rows);
        let id = manifest.next_id();
        let file = naming::segment(safe, id);
        self.write_atomic(&file, &payload)?;
        manifest.segments.push(SegmentMeta {
            id,
            rows: rows.num_rows() as u64,
            bytes: payload.len() as u64,
            checksum: format::segment_checksum(&payload),
        });
        let manifest_len = self
            .commit_manifest(safe, &manifest)
            .inspect_err(|_| self.remove_counted(&self.path(&file, None)))?;
        Ok(payload.len() as u64 + manifest_len)
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
        self.gc_retained_locked();
    }

    /// Deletes retained files no pin can still need (supersede epoch at
    /// or below the GC horizon) and reports the horizon to retention
    /// subscribers. Failed deletes are counted
    /// ([`DiskCatalog::gc_failed_deletes`]), never silently dropped.
    fn gc_retained_locked(&self) {
        let (horizon, freed) = self.retention.collect();
        for file in freed {
            self.remove_counted(&self.dir.join(file));
        }
        // The horizon is `u64::MAX` when nothing is pinned, so the
        // observable one is bounded by the committed epoch.
        self.retention
            .notify(horizon.min(self.epoch.load(Ordering::SeqCst)));
    }

    /// Runs the filesystem steps of the next commit, passing them its
    /// epoch `c` (callers hold the io write lock). On success the epoch
    /// advances and GC runs. On failure, whatever the steps moved into
    /// the retained namespace at `c` moves back before the error
    /// returns — a retained manifest copy lands on the identical live
    /// bytes — so the committed version stays readable with no debris.
    /// Steps that land a new file remove it again themselves
    /// ([`DiskCatalog::publish_segment`]).
    fn commit_locked(&self, steps: impl FnOnce(u64) -> Result<u64>) -> Result<u64> {
        let c = self.epoch.load(Ordering::SeqCst) + 1;
        let result = steps(c);
        if result.is_ok() {
            self.epoch.store(c, Ordering::SeqCst);
            self.gc_retained_locked();
        } else {
            for file in self.retention.forget(c) {
                if fs::rename(self.path(&file, Some(c)), self.path(&file, None)).is_err() {
                    self.gc_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        result
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

    /// Retained-file (or recovery) deletes that have failed on this
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
                // Already missing (the table is corrupt): nothing to
                // retain, and a rewrite replaces it.
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
    /// table's stored size). A pinned reader gets the version retention
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
    /// checksum) against the manifest entry.
    fn read_segment_bytes_at(
        &self,
        name: &str,
        safe: &str,
        seg: &SegmentMeta,
        pin: Option<u64>,
    ) -> Result<Vec<u8>> {
        let file = naming::segment(safe, seg.id);
        let retained = pin.and_then(|e| self.retention.superseding(&file, e));
        match fs::read(self.path(&file, retained)) {
            Ok(raw) => self.verify_segment(name, seg, raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(EngineError::Corrupt(
                format!("{name}: segment {} missing", seg.id),
            )),
            Err(e) => Err(e.into()),
        }
    }

    /// The schema the SCTB header of `manifest`'s last segment declares
    /// (`None` for a table without segments), read from the segment's
    /// first block only: no checksum, no decode. Callers hold the io
    /// lock.
    fn stored_schema_locked(&self, safe: &str, manifest: &Manifest) -> Result<Option<Schema>> {
        let Some(seg) = manifest.segments.last() else {
            return Ok(None);
        };
        let path = self.path(&naming::segment(safe, seg.id), None);
        let header = |limit: u64| -> Result<Schema> {
            let mut prefix = Vec::new();
            fs::File::open(&path)?
                .take(limit)
                .read_to_end(&mut prefix)?;
            Ok(format::decode_header(&mut Bytes::from(prefix))?.0)
        };
        // Column names are short, so a header nearly always fits in one
        // block; a longer one is read again from the whole segment.
        match header(HEADER_PREFIX) {
            Err(EngineError::Corrupt(_)) if seg.bytes > HEADER_PREFIX => header(seg.bytes),
            schema => schema,
        }
        .map(Some)
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
    /// Dying before step 3 leaves the live manifest describing the
    /// retained segment bytes, which the next open restores. Dying
    /// after step 3 leaves the new version live, plus retained debris
    /// the next open deletes. Failing without dying undoes steps 1–2.
    fn rewrite_locked(&self, name: &str, safe: &str, table: &Table) -> Result<u64> {
        let old = match self.manifest_at(name, safe, None) {
            Ok(version) => Some(version),
            // No committed version to retain (creation, or a corrupt
            // manifest being rewritten over).
            Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => None,
            Err(e) => return Err(e),
        };
        self.commit_locked(|c| {
            match &old {
                Some((old, raw)) => self.retain_version_locked(safe, old, raw, c)?,
                None => self.retention.born(safe, c),
            }
            self.publish_segment(safe, Manifest::default(), table)
        })
    }

    /// Persists `table` under `name` in the canonical single-segment form,
    /// replacing any previous version (an MV recompute replaces the old
    /// contents). Returns bytes written (segment plus manifest).
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
    /// O(delta)-write path an insert-only incremental refresh and an
    /// insert-only ingest take instead of rewriting the table. The table
    /// must already exist, and `rows` must have its schema (else
    /// [`EngineError::TypeMismatch`], with nothing written); a zero-row
    /// append is a no-op. Returns bytes written (segment plus the
    /// rewritten manifest).
    ///
    /// The segment file is fully written (tmp + rename) *before* the
    /// manifest commit references it, so a crash or a failure mid-append
    /// leaves the prior version readable and the new segment invisible.
    pub fn append_table(&self, name: &str, rows: &Table) -> Result<u64> {
        if rows.num_rows() == 0 {
            return Ok(0);
        }
        let started = Instant::now();
        let safe = naming::stem(name);
        let len = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            let (manifest, raw) = self.manifest_at(name, &safe, None)?;
            if let Some(stored) = self.stored_schema_locked(&safe, &manifest)? {
                if stored != **rows.schema() {
                    return Err(EngineError::TypeMismatch {
                        expected: stored.to_string(),
                        got: rows.schema().to_string(),
                        context: "DiskCatalog::append_table".into(),
                    });
                }
            }
            // An append leaves every committed segment in place; only
            // the manifest is superseded, so only it needs retaining
            // (and only while pins are live — the swap is atomic).
            self.commit_locked(|c| {
                self.retain_manifest_locked(&safe, &raw, c)?;
                self.publish_segment(&safe, manifest, rows)
            })?
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
    /// retiring the replaced segments. A no-op (returning 0) when the table
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
            let table = self.read_segments_at(name, &safe, &manifest, None, None)?;
            let written = self.rewrite_locked(name, &safe, &table)?;
            (raw.len() as u64 + manifest.total_bytes(), written)
        };
        self.pacer.read(started, read_bytes);
        self.pacer.write(started, written);
        Ok(written)
    }

    /// Reads every segment of `manifest` as of `pin` — verified bytes
    /// (each segment hashed once, whole), framed, each frame's row count
    /// checked against its manifest entry — and decodes them in one pass
    /// into one table, keeping only `columns` (`None`: every column).
    fn read_segments_at(
        &self,
        name: &str,
        safe: &str,
        manifest: &Manifest,
        pin: Option<u64>,
        columns: Option<&[String]>,
    ) -> Result<Table> {
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for seg in &manifest.segments {
            let raw = self.read_segment_bytes_at(name, safe, seg, pin)?;
            let segment = format::Segment::frame(Bytes::from(raw))?;
            if segment.rows() as u64 != seg.rows {
                // Catches manifest corruption the byte checks cannot (the
                // rows field is metadata, not part of the segment payload).
                return Err(EngineError::Corrupt(format!(
                    "{name}: segment {} holds {} rows, manifest records {}",
                    seg.id,
                    segment.rows(),
                    seg.rows
                )));
            }
            segments.push(segment);
        }
        format::decode_segments(&segments, columns)
    }

    /// Runs `read` under the io read lock against `name`'s stem and
    /// manifest as of `pin`. The lock makes it atomic against this
    /// handle's writers, and the handle owns the directory, so a
    /// verification failure is genuine [`EngineError::Corrupt`].
    fn with_manifest<T>(
        &self,
        name: &str,
        pin: Option<u64>,
        read: impl FnOnce(&str, &Manifest, &[u8]) -> Result<T>,
    ) -> Result<T> {
        let safe = &naming::stem(name);
        let _io = self.io.read();
        let (manifest, raw) = self.manifest_at(name, safe, pin)?;
        read(safe, &manifest, &raw)
    }

    /// Loads the table stored under `name`: its segments, verified and
    /// concatenated in manifest order.
    pub fn read_table(&self, name: &str) -> Result<Table> {
        self.read_table_at(name, None, None)
    }

    /// Loads only `columns` of the table stored under `name`, in stored
    /// order. Every segment is still read, length-checked and hashed
    /// whole; only the decode skips the other columns' payloads. A name
    /// the table lacks is [`EngineError::UnknownColumn`].
    pub(crate) fn read_columns(&self, name: &str, columns: &[String]) -> Result<Table> {
        self.read_table_at(name, None, Some(columns))
    }

    fn read_table_at(
        &self,
        name: &str,
        pin: Option<u64>,
        columns: Option<&[String]>,
    ) -> Result<Table> {
        let started = Instant::now();
        let (table, total_bytes) = self.with_manifest(name, pin, |safe, manifest, raw| {
            let t = self.read_segments_at(name, safe, manifest, pin, columns)?;
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

    /// Stored bytes, rows and segment count of `name`, from one manifest
    /// read.
    pub(crate) fn stat(&self, name: &str) -> Result<TableStat> {
        self.with_manifest(name, None, |_, m, raw| {
            Ok(TableStat {
                bytes: raw.len() as u64 + m.total_bytes(),
                rows: m.total_rows(),
                segments: m.segments.len(),
            })
        })
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
    /// bytes are verified against its manifest entry. This is what the
    /// differential suites compare for the byte-identity-after-compact
    /// contract.
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

    /// Deletes a stored table — manifest and every segment file it
    /// references (no error if absent). With pins live, the committed
    /// version moves to the retained namespace instead, as a commit, so
    /// pinned readers keep seeing it until the last pin drops; the live
    /// namespace is empty either way. Dropping releases the name's stem
    /// claim for reuse.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let safe = naming::stem(name);
        let _io = self.io.write();
        let live = match self.manifest_at(name, &safe, None) {
            Ok(version) => Some(version),
            // A corrupt manifest's segments are unknown: the next open
            // deletes them once the manifest is gone.
            Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => None,
            Err(e) => return Err(e),
        };
        let remove_manifest = || match fs::remove_file(self.path(&naming::manifest(&safe), None)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(EngineError::Io(e)),
            _ => Ok(0),
        };
        match live {
            Some((manifest, raw)) if self.retention.pinned() => {
                self.commit_locked(|c| {
                    self.retain_version_locked(&safe, &manifest, &raw, c)?;
                    remove_manifest()
                })?;
            }
            live => {
                remove_manifest()?;
                for seg in live.iter().flat_map(|(m, _)| &m.segments) {
                    self.remove_counted(&self.path(&naming::segment(&safe, seg.id), None));
                }
            }
        }
        let mut names = self.names.lock();
        if names.get(&safe).is_some_and(|o| o == name) {
            names.remove(&safe);
        }
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
    /// Names are the logical names registered on this handle's write
    /// paths; tables not written since the directory was opened list
    /// under their sanitized file stem (identical for already-path-safe
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
/// Pinned reads never contend with the refresh-run lock; they
/// serialize only against the short filesystem critical
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
        self.catalog.read_table_at(name, Some(self.epoch), None)
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

    fn projected(&self, name: &str, columns: &[String]) -> Result<Arc<Table>> {
        self.catalog
            .read_table_at(name, Some(self.epoch), Some(columns))
            .map(Arc::new)
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.catalog.unpin(self.epoch);
    }
}
