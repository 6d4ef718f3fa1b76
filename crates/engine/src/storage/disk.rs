//! External storage: tables persisted as **segmented SCTB** files in a
//! directory (the paper uses a Hive metastore over NFS; any
//! materialization location works, §III footnote 2).
//!
//! ## Segmented layout
//!
//! A table `name` is stored as a small manifest (`<name>.sctb`, see
//! [`format::Manifest`]) plus ordered row-segment files
//! (`<name>.<id>.seg`), each a complete self-describing SCTB table. The
//! table's contents are the row-concatenation of its segments in manifest
//! order. This is what lets an insert-only incremental refresh *append* a
//! delta-sized segment ([`DiskCatalog::append_table`]) instead of
//! rewriting the whole MV — the write cost becomes O(delta), not O(MV).
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

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::storage::format::{self, Manifest, SegmentMeta};
use crate::table::Table;
use crate::{EngineError, Result};

/// Bandwidth/latency pacing for reads and writes, used to emulate the
/// paper's measured disk (519.8 MB/s read, 358.9 MB/s write, 175 µs
/// latency) on hardware that is much faster.
///
/// Pacing models *one* storage device per catalog: a shared read channel
/// and a shared write channel. Concurrent operations reserve back-to-back
/// slots on their channel, so N parallel reads share `read_bps` instead of
/// each getting the full bandwidth — multi-lane refresh timings therefore
/// reflect genuine overlap (reads vs writes vs compute), not bandwidth
/// multiplication. Each operation sleeps until its reserved slot ends
/// (`latency + bytes / bandwidth` after the channel frees); if the real
/// I/O was slower than the model, no extra delay is added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throttle {
    /// Modeled read bandwidth, bytes/second.
    pub read_bps: f64,
    /// Modeled write bandwidth, bytes/second.
    pub write_bps: f64,
    /// Fixed per-operation latency, seconds.
    pub latency_s: f64,
}

impl Throttle {
    /// The disk measured in the paper's experimental environment (§VI-A).
    pub fn paper_disk() -> Self {
        Throttle {
            read_bps: 519.8e6,
            write_bps: 358.9e6,
            latency_s: 175e-6,
        }
    }

    /// A fast throttle for tests: high bandwidth, zero latency.
    pub fn fast() -> Self {
        Throttle {
            read_bps: 64e9,
            write_bps: 64e9,
            latency_s: 0.0,
        }
    }
}

/// Per-direction channel reservations backing [`Throttle`]'s shared-device
/// model: the instant at which each channel next becomes free.
#[derive(Debug)]
struct Pacer {
    read_free: Mutex<Instant>,
    write_free: Mutex<Instant>,
}

impl Pacer {
    fn new() -> Self {
        let now = Instant::now();
        Pacer {
            read_free: Mutex::new(now),
            write_free: Mutex::new(now),
        }
    }

    /// Reserves a slot of `latency + bytes / bps` on `channel` starting no
    /// earlier than `started`, then sleeps until the slot ends.
    fn pace(channel: &Mutex<Instant>, started: Instant, bytes: u64, bps: f64, latency_s: f64) {
        let duration = Duration::from_secs_f64(latency_s + bytes as f64 / bps);
        let target = {
            let mut free_at = channel.lock();
            let begin = (*free_at).max(started);
            *free_at = begin + duration;
            *free_at
        };
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    }
}

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
    throttle: Option<Throttle>,
    pacer: Pacer,
    /// Guards the filesystem portion of every operation (see above).
    io: RwLock<()>,
    /// The last committed manifest epoch (commits advance it under the
    /// write half of `io`; [`DiskCatalog::pin`] samples it under the
    /// read half, so a pin never lands mid-commit).
    epoch: AtomicU64,
    /// Live pin refcounts by pinned epoch; the smallest key bounds what
    /// epoch GC may delete.
    pins: Mutex<BTreeMap<u64, usize>>,
    /// Superseded files this instance moved into the retained namespace
    /// and has not yet garbage-collected.
    retained: Mutex<Vec<Retained>>,
    /// Creation epoch per table stem (tables created by this instance):
    /// a pin older than a table's creation must not see it.
    born: Mutex<HashMap<String, u64>>,
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
    /// Observer notified whenever the epoch-retention horizon moves
    /// (see [`DiskCatalog::set_retention_hook`]).
    retention_hook: Mutex<Option<RetentionHook>>,
    /// Test probe: segment bytes the read path has fed to the checksum.
    #[cfg(test)]
    hashed_bytes: AtomicU64,
}

/// A registered retention observer (see
/// [`DiskCatalog::set_retention_hook`]). Wrapped so [`DiskCatalog`] can
/// keep deriving `Debug`.
struct RetentionHook(Arc<dyn Fn(u64) + Send + Sync>);

impl std::fmt::Debug for RetentionHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RetentionHook")
    }
}

/// A superseded file retained for pinned readers: which live file it
/// shadows and the commit epoch that replaced it.
#[derive(Debug, Clone)]
struct Retained {
    file: String,
    epoch: u64,
}

const DEFAULT_READ_RETRY_CAP: u32 = 32;

impl DiskCatalog {
    /// Opens (creating if needed) a catalog rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        // Start the epoch counter above any retained suffix already on
        // disk (debris a crashed process left behind), so this
        // instance's retained names never collide with leftovers.
        let mut max_epoch = 0;
        for entry in fs::read_dir(dir.as_ref())? {
            if let Some(file) = entry?.path().file_name().and_then(|f| f.to_str()) {
                if let Some((_, e)) = format::parse_retained(file) {
                    max_epoch = max_epoch.max(e);
                }
            }
        }
        Ok(DiskCatalog {
            dir: dir.as_ref().to_path_buf(),
            throttle: None,
            pacer: Pacer::new(),
            io: RwLock::new(()),
            epoch: AtomicU64::new(max_epoch),
            pins: Mutex::new(BTreeMap::new()),
            retained: Mutex::new(Vec::new()),
            born: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            gc_failed: AtomicU64::new(0),
            read_retry_cap: DEFAULT_READ_RETRY_CAP,
            retention_hook: Mutex::new(None),
            #[cfg(test)]
            hashed_bytes: AtomicU64::new(0),
        })
    }

    /// Opens a catalog whose reads and writes are paced by `throttle`.
    pub fn open_throttled(dir: impl AsRef<Path>, throttle: Throttle) -> Result<Self> {
        let mut c = Self::open(dir)?;
        c.throttle = Some(throttle);
        Ok(c)
    }

    /// Overrides the unpinned-read retry budget (see
    /// [`EngineError::ReadContention`]); mainly for tests that need the
    /// cap reached deterministically.
    pub fn with_read_retry_cap(mut self, cap: u32) -> Self {
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
        Self::safe_name(name)
    }

    /// Table names come from workload definitions; keep them path-safe.
    /// Safe names never contain `.`, so `<safe>.<id>.seg` parses
    /// unambiguously.
    fn safe_name(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    fn manifest_file(safe: &str) -> String {
        format!("{safe}.sctb")
    }

    fn segment_file(safe: &str, id: u64) -> String {
        format!("{safe}.{id}.seg")
    }

    fn manifest_path(&self, safe: &str) -> PathBuf {
        self.dir.join(Self::manifest_file(safe))
    }

    fn segment_path(&self, safe: &str, id: u64) -> PathBuf {
        self.dir.join(Self::segment_file(safe, id))
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

    /// Reads and decodes `name`'s manifest, returning it with the raw
    /// manifest bytes (whose length is part of the table's stored size,
    /// and which `read_table` compares across retry attempts).
    fn load_manifest(&self, name: &str) -> Result<(Manifest, Vec<u8>)> {
        let safe = Self::safe_name(name);
        let raw = fs::read(self.manifest_path(&safe)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                EngineError::UnknownTable(name.to_string())
            } else {
                EngineError::Io(e)
            }
        })?;
        Ok((format::decode_manifest(Bytes::from(raw.clone()))?, raw))
    }

    /// Atomically commits `manifest` (tmp + rename); returns its byte
    /// length.
    fn commit_manifest(&self, safe: &str, manifest: &Manifest) -> Result<u64> {
        let bytes = format::encode_manifest(manifest);
        let path = self.manifest_path(safe);
        let tmp = path.with_extension("sctb.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        Ok(bytes.len() as u64)
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

    /// Registers `hook` to be notified with the current **retention
    /// horizon** — `min(oldest live pin, committed epoch)` — every time
    /// epoch GC runs (every commit and every pin drop). State keyed at
    /// an epoch *below* the horizon can never be read again through
    /// this catalog: no live pin holds it, and new pins only land at
    /// the committed epoch. The serving tier uses this to evict
    /// snapshot-cache entries in lockstep with retained-namespace
    /// reclamation.
    ///
    /// The hook runs while the catalog's internal io write lock is
    /// held: it must be fast and must **not** call back into this
    /// catalog. One hook is held at a time; re-registering replaces the
    /// previous one.
    pub fn set_retention_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.retention_hook.lock() = Some(RetentionHook(Arc::new(hook)));
    }

    /// Removes the retention hook (see
    /// [`DiskCatalog::set_retention_hook`]).
    pub fn clear_retention_hook(&self) {
        *self.retention_hook.lock() = None;
    }

    /// Pins the current manifest epoch and returns the reader handle.
    /// Every read through the pin resolves to the file versions
    /// committed at pin time; the files it needs are retained on disk
    /// until the pin (and every older one) drops.
    pub fn pin(&self) -> EpochPin<'_> {
        let _io = self.io.read();
        let epoch = self.epoch.load(Ordering::SeqCst);
        *self.pins.lock().entry(epoch).or_insert(0) += 1;
        EpochPin {
            catalog: self,
            epoch,
        }
    }

    /// The oldest pinned epoch (`u64::MAX` when nothing is pinned) —
    /// the GC horizon: a retained file is deletable iff its supersede
    /// epoch is at or below this.
    fn min_pin(&self) -> u64 {
        self.pins.lock().keys().next().copied().unwrap_or(u64::MAX)
    }

    fn unpin(&self, epoch: u64) {
        let _io = self.io.write();
        {
            let mut pins = self.pins.lock();
            if let Some(n) = pins.get_mut(&epoch) {
                *n -= 1;
                if *n == 0 {
                    pins.remove(&epoch);
                }
            }
        }
        self.gc_retained_locked(None);
    }

    /// Deletes retained files no pin can still need (supersede epoch at
    /// or below the GC horizon). With `table` set, additionally sweeps
    /// on-disk retained debris of that table this instance never
    /// created (a crashed process's leftovers) — safe exactly when the
    /// table has just been committed, which is when callers pass it.
    /// Failed deletes are counted ([`DiskCatalog::gc_failed_deletes`]),
    /// never silently dropped.
    fn gc_retained_locked(&self, table: Option<&str>) {
        let horizon = self.min_pin();
        {
            let mut retained = self.retained.lock();
            retained.retain(|r| {
                if r.epoch > horizon {
                    return true;
                }
                self.remove_counted(&self.dir.join(format::retained_name(&r.file, r.epoch)));
                false
            });
        }
        // Tell the retention observer (if any) how far reclamation has
        // advanced, so external caches keyed by epoch evict in lockstep
        // with the retained namespace. `min_pin` is `u64::MAX` when
        // nothing is pinned, so the observable horizon is bounded by
        // the committed epoch.
        let hook = self
            .retention_hook
            .lock()
            .as_ref()
            .map(|h| Arc::clone(&h.0));
        if let Some(hook) = hook {
            hook(horizon.min(self.epoch.load(Ordering::SeqCst)));
        }
        let Some(safe) = table else { return };
        let prefix = format!("{safe}.");
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            let Some((base, e)) = format::parse_retained(file) else {
                continue;
            };
            let Some(rest) = base.strip_prefix(&prefix) else {
                continue;
            };
            let is_table_file = rest == "sctb"
                || rest
                    .strip_suffix(".seg")
                    .is_some_and(|m| m.parse::<u64>().is_ok());
            if is_table_file && e <= horizon {
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
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            if let Some(file) = entry?.path().file_name().and_then(|f| f.to_str()) {
                if format::parse_retained(file).is_some() {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Copies the committed manifest bytes into the retained namespace
    /// at epoch `c` — needed only while pins are live, since the
    /// manifest swap itself is atomic (callers hold the io write lock).
    fn retain_manifest_locked(&self, safe: &str, raw: &[u8], c: u64) -> Result<()> {
        if self.pins.lock().is_empty() {
            return Ok(());
        }
        let file = Self::manifest_file(safe);
        fs::write(self.dir.join(format::retained_name(&file, c)), raw)?;
        self.retained.lock().push(Retained { file, epoch: c });
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
            let file = Self::segment_file(safe, seg.id);
            match fs::rename(
                self.dir.join(&file),
                self.dir.join(format::retained_name(&file, c)),
            ) {
                Ok(()) => self.retained.lock().push(Retained { file, epoch: c }),
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

    /// Resolves the on-disk path serving `file` for a reader pinned at
    /// `pin`: the oldest retained copy superseding the pinned version,
    /// else the live file. Unpinned readers always get the live file.
    fn path_at(&self, file: &str, pin: Option<u64>) -> PathBuf {
        if let Some(e) = pin {
            if let Some(s) = self
                .retained
                .lock()
                .iter()
                .filter(|r| r.file == file && r.epoch > e)
                .map(|r| r.epoch)
                .min()
            {
                return self.dir.join(format::retained_name(file, s));
            }
        }
        self.dir.join(file)
    }

    /// Loads `name`'s manifest as of `pin` (`None` = the live version),
    /// returning it with its raw bytes. The pinned resolution: the
    /// oldest retained manifest copy superseding the pin, else the live
    /// manifest — unless the table was created after the pin, which
    /// must stay invisible ([`EngineError::UnknownTable`]).
    fn manifest_at(&self, name: &str, safe: &str, pin: Option<u64>) -> Result<(Manifest, Vec<u8>)> {
        if let Some(e) = pin {
            let file = Self::manifest_file(safe);
            let born = self.born.lock().get(safe).copied().unwrap_or(0);
            let candidate = self
                .retained
                .lock()
                .iter()
                .filter(|r| r.file == file && r.epoch > e)
                .map(|r| r.epoch)
                .min();
            match candidate {
                // A retained copy from *before* the table's (re)creation
                // belongs to the incarnation the pin saw; one from after
                // it holds post-pin state and must not resurface.
                Some(s) if born <= e || s <= born => {
                    let raw = fs::read(self.dir.join(format::retained_name(&file, s)))?;
                    return Ok((format::decode_manifest(Bytes::from(raw.clone()))?, raw));
                }
                _ if born > e => {
                    return Err(EngineError::UnknownTable(name.to_string()));
                }
                _ => {}
            }
        }
        self.load_manifest(name)
    }

    /// Raw bytes of one segment as of `pin`, verified (length +
    /// checksum) against the manifest entry. On a primary failure,
    /// every on-disk retained copy of the segment file is tried against
    /// the same entry — checksums make acceptance exact. This is the
    /// crash-recovery and cross-handle-race fallback that replaced the
    /// old `.seg.old` backup scheme.
    fn read_segment_bytes_at(
        &self,
        name: &str,
        safe: &str,
        seg: &SegmentMeta,
        pin: Option<u64>,
    ) -> Result<Vec<u8>> {
        let file = Self::segment_file(safe, seg.id);
        let primary = match fs::read(self.path_at(&file, pin)) {
            Ok(raw) => self.verify_segment(name, seg, raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(EngineError::Corrupt(
                format!("{name}: segment {} missing", seg.id),
            )),
            Err(e) => return Err(e.into()),
        };
        primary.or_else(|err| {
            self.retained_candidates(&file)
                .into_iter()
                .find_map(|path| self.verify_segment(name, seg, fs::read(path).ok()?).ok())
                .ok_or(err)
        })
    }

    /// All on-disk retained copies of `file` — this instance's and any
    /// crashed process's — oldest supersession first.
    fn retained_candidates(&self, file: &str) -> Vec<PathBuf> {
        let mut out: Vec<(u64, PathBuf)> = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let Some(f) = path.file_name().and_then(|f| f.to_str()) else {
                    continue;
                };
                if let Some((base, e)) = format::parse_retained(f) {
                    if base == file {
                        out.push((e, path));
                    }
                }
            }
        }
        out.sort();
        out.into_iter().map(|(_, p)| p).collect()
    }

    /// Reads one segment as of `pin`: the verified bytes, decoded, and
    /// the decoded row count checked against the manifest entry.
    fn read_segment_at(
        &self,
        name: &str,
        safe: &str,
        seg: &SegmentMeta,
        pin: Option<u64>,
    ) -> Result<Table> {
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
        Ok(table)
    }

    /// Removes every segment file of `safe` whose id is not in `keep`
    /// (crash orphans and stale leftovers; callers have just committed
    /// a manifest, so anything unreferenced is dead). Retained-namespace
    /// files are untouched — epoch GC owns those. Failed removals are
    /// counted, not swallowed.
    fn prune_segments(&self, safe: &str, keep: &[u64]) -> Result<()> {
        let prefix = format!("{safe}.");
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            let Some(rest) = file.strip_prefix(&prefix) else {
                continue;
            };
            if let Some(middle) = rest.strip_suffix(".seg") {
                if let Ok(id) = middle.parse::<u64>() {
                    if !keep.contains(&id) {
                        self.remove_counted(&path);
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether a table exists (has a committed manifest).
    pub fn contains(&self, name: &str) -> bool {
        self.manifest_path(&Self::safe_name(name)).exists()
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
        match self.load_manifest(name) {
            Ok((old, raw)) => self.retain_version_locked(safe, &old, &raw, c)?,
            // No committed version to retain (creation, or a corrupt
            // manifest being rewritten over — the recovery path).
            Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => {
                self.born.lock().insert(safe.to_string(), c);
            }
            Err(e) => return Err(e),
        }
        let payload = format::encode(table);
        let seg = SegmentMeta {
            id: 0,
            rows: table.num_rows() as u64,
            bytes: payload.len() as u64,
            checksum: format::segment_checksum(&payload),
        };
        let seg_path = self.segment_path(safe, 0);
        let tmp = seg_path.with_extension("seg.tmp");
        fs::write(&tmp, &payload)?;
        fs::rename(&tmp, &seg_path)?;
        let manifest_len = self.commit_manifest(
            safe,
            &Manifest {
                segments: vec![seg],
            },
        )?;
        self.epoch.store(c, Ordering::SeqCst);
        self.gc_retained_locked(Some(safe));
        self.prune_segments(safe, &[0])?;
        Ok(payload.len() as u64 + manifest_len)
    }

    /// Persists `table` under `name` in the canonical single-segment form,
    /// replacing any previous version and pruning stale segments (an MV
    /// recompute replaces the old contents). Returns bytes written
    /// (segment plus manifest).
    pub fn write_table(&self, name: &str, table: &Table) -> Result<u64> {
        let started = Instant::now();
        let safe = Self::safe_name(name);
        let len = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            self.rewrite_locked(name, &safe, table)?
        };
        if let Some(t) = self.throttle {
            Pacer::pace(
                &self.pacer.write_free,
                started,
                len,
                t.write_bps,
                t.latency_s,
            );
        }
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
        let safe = Self::safe_name(name);
        let len = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            let (mut manifest, raw) = self.load_manifest(name)?;
            // An append leaves every committed segment in place; only
            // the manifest is superseded, so only it needs retaining
            // (and only while pins are live — the swap is atomic).
            let c = self.epoch.load(Ordering::SeqCst) + 1;
            self.retain_manifest_locked(&safe, &raw, c)?;
            let payload = format::encode(rows);
            let id = manifest.next_id();
            let seg_path = self.segment_path(&safe, id);
            let tmp = seg_path.with_extension("seg.tmp");
            fs::write(&tmp, &payload)?;
            fs::rename(&tmp, &seg_path)?;
            manifest.segments.push(SegmentMeta {
                id,
                rows: rows.num_rows() as u64,
                bytes: payload.len() as u64,
                checksum: format::segment_checksum(&payload),
            });
            let manifest_len = self.commit_manifest(&safe, &manifest)?;
            self.epoch.store(c, Ordering::SeqCst);
            self.gc_retained_locked(Some(&safe));
            payload.len() as u64 + manifest_len
        };
        if let Some(t) = self.throttle {
            Pacer::pace(
                &self.pacer.write_free,
                started,
                len,
                t.write_bps,
                t.latency_s,
            );
        }
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
        let safe = Self::safe_name(name);
        let (read_bytes, written) = {
            let _io = self.io.write();
            self.claim_name(&safe, name)?;
            let (manifest, raw) = self.load_manifest(name)?;
            if manifest.segments.len() == 1 && manifest.segments[0].id == 0 {
                return Ok(0);
            }
            let table = self.read_segments(name, &safe, &manifest)?;
            let written = self.rewrite_locked(name, &safe, &table)?;
            (raw.len() as u64 + manifest.total_bytes(), written)
        };
        if let Some(t) = self.throttle {
            Pacer::pace(
                &self.pacer.read_free,
                started,
                read_bytes,
                t.read_bps,
                t.latency_s,
            );
            Pacer::pace(
                &self.pacer.write_free,
                started,
                written,
                t.write_bps,
                t.latency_s,
            );
        }
        Ok(written)
    }

    /// Reads and verifies every segment of `manifest`, concatenated in
    /// manifest order (live versions; callers hold an `io` lock half).
    fn read_segments(&self, name: &str, safe: &str, manifest: &Manifest) -> Result<Table> {
        self.read_segments_at(name, safe, manifest, None)
    }

    /// Reads and verifies every segment of `manifest` as of `pin`,
    /// concatenated in manifest order.
    fn read_segments_at(
        &self,
        name: &str,
        safe: &str,
        manifest: &Manifest,
        pin: Option<u64>,
    ) -> Result<Table> {
        let mut parts = Vec::with_capacity(manifest.segments.len());
        for seg in &manifest.segments {
            parts.push(self.read_segment_at(name, safe, seg, pin)?);
        }
        match parts.len() {
            1 => Ok(parts.pop().expect("one part")),
            _ => Table::concat(&parts.iter().collect::<Vec<_>>()),
        }
    }

    /// Runs `attempt` under the io read lock against the manifest as of
    /// `pin`. Unpinned attempts that fail verification are retried while
    /// the live manifest keeps changing under them (a writer on another
    /// handle), up to the configured retry cap — exhaustion is the typed
    /// [`EngineError::ReadContention`], while a failing attempt over a
    /// *stable* manifest is genuine [`EngineError::Corrupt`]. Pinned
    /// attempts never retry: a pin's files are held on disk for its
    /// lifetime.
    fn with_manifest<T>(
        &self,
        name: &str,
        safe: &str,
        pin: Option<u64>,
        mut attempt: impl FnMut(&Manifest, &[u8]) -> Result<T>,
    ) -> Result<T> {
        let mut attempts = 0u32;
        loop {
            let (result, manifest_raw) = {
                let _io = self.io.read();
                let (manifest, raw) = self.manifest_at(name, safe, pin)?;
                let result = attempt(&manifest, &raw);
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
                        fs::read(self.manifest_path(safe))
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
        let safe = Self::safe_name(name);
        let (table, total_bytes) = self.with_manifest(name, &safe, pin, |manifest, raw| {
            let t = self.read_segments_at(name, &safe, manifest, pin)?;
            Ok((t, raw.len() as u64 + manifest.total_bytes()))
        })?;
        if let Some(t) = self.throttle {
            Pacer::pace(
                &self.pacer.read_free,
                started,
                total_bytes,
                t.read_bps,
                t.latency_s,
            );
        }
        Ok(table)
    }

    /// Size in bytes of the stored table (manifest plus all segments), if
    /// present.
    pub fn size_of(&self, name: &str) -> Result<u64> {
        self.size_of_at(name, None)
    }

    fn size_of_at(&self, name: &str, pin: Option<u64>) -> Result<u64> {
        let safe = Self::safe_name(name);
        self.with_manifest(name, &safe, pin, |m, raw| {
            Ok(raw.len() as u64 + m.total_bytes())
        })
    }

    /// Number of committed segments backing `name` (1 = canonical form).
    pub fn segment_count(&self, name: &str) -> Result<usize> {
        self.segment_count_at(name, None)
    }

    fn segment_count_at(&self, name: &str, pin: Option<u64>) -> Result<usize> {
        let safe = Self::safe_name(name);
        self.with_manifest(name, &safe, pin, |m, _| Ok(m.segments.len()))
    }

    /// Total stored rows of `name`, from the manifest alone (no segment
    /// reads).
    pub fn row_count(&self, name: &str) -> Result<u64> {
        self.row_count_at(name, None)
    }

    fn row_count_at(&self, name: &str, pin: Option<u64>) -> Result<u64> {
        let safe = Self::safe_name(name);
        self.with_manifest(name, &safe, pin, |m, _| Ok(m.total_rows()))
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
        let safe = Self::safe_name(name);
        self.with_manifest(name, &safe, pin, |manifest, raw| {
            let mut out = vec![(Self::manifest_file(&safe), raw.to_vec())];
            for seg in &manifest.segments {
                out.push((
                    Self::segment_file(&safe, seg.id),
                    self.read_segment_bytes_at(name, &safe, seg, pin)?,
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
        let safe = Self::safe_name(name);
        let _io = self.io.write();
        match self.load_manifest(name) {
            Ok((manifest, raw)) if !self.pins.lock().is_empty() => {
                let c = self.epoch.load(Ordering::SeqCst) + 1;
                self.retain_version_locked(&safe, &manifest, &raw, c)?;
                match fs::remove_file(self.manifest_path(&safe)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                self.epoch.store(c, Ordering::SeqCst);
            }
            Ok(_) | Err(EngineError::UnknownTable(_)) | Err(EngineError::Corrupt(_)) => {
                match fs::remove_file(self.manifest_path(&safe)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Err(e) => return Err(e),
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

    /// Names of all stored tables (manifest file stems), sorted.
    pub fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "sctb") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Table names visible to a reader pinned at epoch `pin`, sorted.
    ///
    /// A table is visible iff a manifest for it was committed at or
    /// before the pinned epoch: tables created after the pin are absent,
    /// tables dropped after the pin are still listed (their pinned
    /// version remains readable through the retained namespace). Names
    /// are the logical names registered on this instance's write paths;
    /// tables only ever written by another process list under their
    /// sanitized file stem (identical for already-path-safe names).
    fn list_at(&self, pin: u64) -> Result<Vec<String>> {
        let _io = self.io.read();
        // Candidate stems: live manifests plus retained manifest copies
        // (the only trace a post-pin drop leaves behind).
        let mut stems = std::collections::BTreeSet::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            let live = match format::parse_retained(file) {
                Some((base, _)) => base,
                None => file,
            };
            if let Some(stem) = live.strip_suffix(".sctb") {
                stems.insert(stem.to_string());
            }
        }
        let names = self.names.lock().clone();
        let mut out = Vec::new();
        for stem in stems {
            let name = names.get(&stem).cloned().unwrap_or_else(|| stem.clone());
            match self.manifest_at(&name, &stem, Some(pin)) {
                Ok(_) => out.push(name),
                // Born after the pin (or a retained copy of a later
                // incarnation): invisible, not an error.
                Err(EngineError::UnknownTable(_)) => {}
                Err(e) => return Err(e),
            }
        }
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
/// (epoch GC runs on drop).
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

    /// The catalog this pin reads from.
    pub fn catalog(&self) -> &DiskCatalog {
        self.catalog
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
        self.catalog.list_at(self.epoch)
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.catalog.unpin(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};

    fn sample(range: std::ops::Range<i64>) -> Table {
        let mut t = TableBuilder::new().column("x", DataType::Int64).build();
        for i in range {
            t.push_row(vec![Value::Int64(i)]).unwrap();
        }
        t
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let t = sample(0..100);
        let written = cat.write_table("numbers", &t).unwrap();
        assert!(written > 800);
        assert!(cat.contains("numbers"));
        assert_eq!(cat.read_table("numbers").unwrap(), t);
        assert_eq!(cat.size_of("numbers").unwrap(), written);
        assert_eq!(cat.segment_count("numbers").unwrap(), 1);
        assert_eq!(cat.row_count("numbers").unwrap(), 100);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..10)).unwrap();
        cat.write_table("t", &sample(0..3)).unwrap();
        assert_eq!(cat.read_table("t").unwrap().num_rows(), 3);
        assert_eq!(cat.segment_count("t").unwrap(), 1);
    }

    #[test]
    fn append_accumulates_segments_in_order() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..10)).unwrap();
        let w1 = cat.append_table("t", &sample(10..15)).unwrap();
        assert!(w1 > 0);
        let w2 = cat.append_table("t", &sample(15..17)).unwrap();
        assert!(w2 > 0);
        assert_eq!(cat.segment_count("t").unwrap(), 3);
        assert_eq!(cat.row_count("t").unwrap(), 17);
        assert_eq!(cat.read_table("t").unwrap(), sample(0..17));
        // Zero-row appends are no-ops.
        assert_eq!(cat.append_table("t", &sample(0..0)).unwrap(), 0);
        assert_eq!(cat.segment_count("t").unwrap(), 3);
        // Appending to a missing table is an error, not a create.
        assert!(matches!(
            cat.append_table("nope", &sample(0..1)),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn append_writes_delta_sized_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..10_000)).unwrap();
        let full = cat.size_of("t").unwrap();
        let appended = cat.append_table("t", &sample(10_000..10_010)).unwrap();
        assert!(
            appended * 20 < full,
            "append ({appended} B) must be delta-sized, not MV-sized ({full} B)"
        );
    }

    #[test]
    fn compact_restores_canonical_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        // Rig A: rewrite in one shot. Rig B: seed + two appends + compact.
        cat.write_table("a", &sample(0..17)).unwrap();
        cat.write_table("b", &sample(0..10)).unwrap();
        cat.append_table("b", &sample(10..15)).unwrap();
        cat.append_table("b", &sample(15..17)).unwrap();
        assert!(cat.compact("b").unwrap() > 0);
        assert_eq!(cat.segment_count("b").unwrap(), 1);
        let a = cat.stored_file_bytes("a").unwrap();
        let b = cat.stored_file_bytes("b").unwrap();
        assert_eq!(a.len(), 2, "manifest + one segment");
        for ((_, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
            assert_eq!(bytes_a, bytes_b, "compacted form must be canonical");
        }
        // Compacting a canonical table is a no-op.
        assert_eq!(cat.compact("b").unwrap(), 0);
        // The replaced segment files are pruned.
        assert!(!dir.path().join("b.1.seg").exists());
        assert!(!dir.path().join("b.2.seg").exists());
    }

    #[test]
    fn torn_and_truncated_segments_are_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..50)).unwrap();
        let seg = dir.path().join("t.0.seg");
        let good = fs::read(&seg).unwrap();
        // Truncated: length mismatch vs the manifest.
        fs::write(&seg, &good[..good.len() - 3]).unwrap();
        assert!(matches!(cat.read_table("t"), Err(EngineError::Corrupt(_))));
        // Torn: same length, one flipped byte — the checksum bites.
        let mut torn = good.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0xFF;
        fs::write(&seg, &torn).unwrap();
        assert!(matches!(cat.read_table("t"), Err(EngineError::Corrupt(_))));
        // Missing segment file with a committed manifest is corruption.
        fs::remove_file(&seg).unwrap();
        assert!(matches!(cat.read_table("t"), Err(EngineError::Corrupt(_))));
        // Restoring the bytes restores the table.
        fs::write(&seg, &good).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), sample(0..50));
    }

    #[test]
    fn every_byte_flip_and_length_change_is_rejected() {
        // Exhaustive over one small multi-column segment: whichever
        // position a corruption lands on — SCTB header, a word of one of
        // the four checksum lanes, the words after the last stripe, the
        // final partial word — and whichever length the file is cut or
        // padded to, the read is `Corrupt`, never a wrong table.
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let mut t = TableBuilder::new()
            .column("id", DataType::Int64)
            .column("tag", DataType::Utf8)
            .column("ok", DataType::Bool)
            .column("day", DataType::Date)
            .build();
        for i in 0..9i64 {
            t.push_row(vec![
                Value::Int64(i * 1_000_003),
                Value::Utf8(format!("tag-{i}")),
                Value::Bool(i % 2 == 0),
                Value::Date(19_000 + i as i32),
            ])
            .unwrap();
        }
        cat.write_table("t", &t).unwrap();
        let seg = dir.path().join("t.0.seg");
        let good = fs::read(&seg).unwrap();
        assert!(
            good.len() > 64 && !good.len().is_multiple_of(8),
            "{} bytes must span stripes, whole tail words and a partial word",
            good.len()
        );
        let rejected = |bytes: &[u8], what: &str| {
            fs::write(&seg, bytes).unwrap();
            assert!(
                matches!(cat.read_table("t"), Err(EngineError::Corrupt(_))),
                "{what} was not rejected"
            );
        };
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 1 << (pos % 8);
            rejected(&bad, &format!("bit flip at byte {pos}"));
        }
        for cut in 0..good.len() {
            rejected(&good[..cut], &format!("truncation to {cut} bytes"));
        }
        let mut longer = good.clone();
        for _ in 0..40 {
            longer.push(0);
            rejected(&longer, &format!("extension to {} bytes", longer.len()));
        }
        fs::write(&seg, &good).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), t);
    }

    /// The codec's own rejection is tested in `format.rs`; this covers
    /// what that cannot: the error reaches callers of the catalog
    /// unchanged (not as a segment checksum mismatch), and a rewrite
    /// recovers the table.
    #[test]
    fn version_1_manifest_is_an_unsupported_version_not_a_checksum_failure() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..10)).unwrap();
        let manifest = dir.path().join("t.sctb");
        let mut raw = fs::read(&manifest).unwrap();
        assert_eq!(raw[4..6], [2, 0]);
        raw[4] = 1;
        fs::write(&manifest, &raw).unwrap();
        for result in [cat.read_table("t").map(drop), cat.size_of("t").map(drop)] {
            match result {
                Err(EngineError::Corrupt(msg)) => {
                    assert_eq!(msg, "unsupported manifest version 1")
                }
                other => panic!("expected an unsupported-version error, got {other:?}"),
            }
        }
        // A rewrite replaces it with a current manifest.
        cat.write_table("t", &sample(0..10)).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), sample(0..10));
    }

    #[test]
    fn each_segment_is_hashed_exactly_once_per_read() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..1000)).unwrap();
        cat.append_table("t", &sample(1000..1300)).unwrap();
        cat.append_table("t", &sample(1300..1317)).unwrap();
        let manifest_bytes = fs::read(dir.path().join("t.sctb")).unwrap().len() as u64;
        let segment_bytes = cat.size_of("t").unwrap() - manifest_bytes;
        assert_eq!(cat.segment_count("t").unwrap(), 3);
        fn hashed<T>(cat: &DiskCatalog, read: impl FnOnce() -> T) -> u64 {
            let before = cat.hashed_bytes.load(Ordering::Relaxed);
            let _ = read();
            cat.hashed_bytes.load(Ordering::Relaxed) - before
        }
        // Unpinned, pinned, and pinned through the retained namespace
        // (the rewrite moves the pinned version's segments there).
        assert_eq!(hashed(&cat, || cat.read_table("t").unwrap()), segment_bytes);
        let pin = cat.pin();
        assert_eq!(hashed(&cat, || pin.read_table("t").unwrap()), segment_bytes);
        cat.write_table("t", &sample(0..5)).unwrap();
        assert_eq!(hashed(&cat, || pin.read_table("t").unwrap()), segment_bytes);
        assert_eq!(
            hashed(&cat, || pin.stored_file_bytes("t").unwrap()),
            segment_bytes
        );
        // Metadata reads hash nothing.
        assert_eq!(hashed(&cat, || pin.row_count("t").unwrap()), 0);
    }

    #[test]
    fn uncommitted_segment_is_invisible() {
        // A crash between segment write and manifest commit: the segment
        // file exists, the manifest does not reference it.
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..20)).unwrap();
        let manifest_before = fs::read(dir.path().join("t.sctb")).unwrap();
        cat.append_table("t", &sample(20..30)).unwrap();
        // "Crash": roll the manifest back; the appended segment is now an
        // orphan.
        fs::write(dir.path().join("t.sctb"), &manifest_before).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), sample(0..20));
        assert_eq!(cat.row_count("t").unwrap(), 20);
        // The next rewrite prunes the orphan.
        cat.write_table("t", &sample(0..20)).unwrap();
        assert!(!dir.path().join("t.1.seg").exists());
    }

    #[test]
    fn missing_table_is_unknown() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert!(matches!(
            cat.read_table("nope"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(cat.size_of("nope").is_err());
        assert!(cat.segment_count("nope").is_err());
        assert!(!cat.contains("nope"));
    }

    #[test]
    fn drop_is_idempotent_and_removes_segments() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..5)).unwrap();
        cat.append_table("t", &sample(5..7)).unwrap();
        cat.drop_table("t").unwrap();
        cat.drop_table("t").unwrap();
        assert!(!cat.contains("t"));
        assert!(!dir.path().join("t.0.seg").exists());
        assert!(!dir.path().join("t.1.seg").exists());
    }

    #[test]
    fn list_sorted() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("bbb", &sample(0..1)).unwrap();
        cat.write_table("aaa", &sample(0..1)).unwrap();
        cat.append_table("aaa", &sample(1..2)).unwrap();
        // Segment files never show up as tables.
        assert_eq!(
            cat.list().unwrap(),
            vec!["aaa".to_string(), "bbb".to_string()]
        );
    }

    #[test]
    fn path_sanitization() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("../evil/name", &sample(0..1)).unwrap();
        // Files stay inside the catalog dir.
        assert_eq!(cat.list().unwrap().len(), 1);
        assert!(cat.read_table("../evil/name").is_ok());
    }

    #[test]
    fn similarly_named_tables_do_not_cross_prune() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..5)).unwrap();
        cat.append_table("t", &sample(5..8)).unwrap();
        cat.write_table("t2", &sample(0..3)).unwrap();
        // Rewriting t2 must not prune t's segments.
        cat.write_table("t2", &sample(0..4)).unwrap();
        assert_eq!(cat.segment_count("t").unwrap(), 2);
        assert_eq!(cat.read_table("t").unwrap(), sample(0..8));
    }

    #[test]
    fn throttle_paces_io() {
        let dir = tempfile::tempdir().unwrap();
        // 1 MB/s with 10 ms latency: a ~8 KB write must take ≥ 10 ms.
        let slow = Throttle {
            read_bps: 1e6,
            write_bps: 1e6,
            latency_s: 0.01,
        };
        let cat = DiskCatalog::open_throttled(dir.path(), slow).unwrap();
        let t = sample(0..1000); // ~8 KB
        let started = Instant::now();
        cat.write_table("t", &t).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(10),
            "write not paced: {elapsed:?}"
        );
        let started = Instant::now();
        cat.read_table("t").unwrap();
        assert!(started.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn append_pacing_is_delta_sized() {
        let dir = tempfile::tempdir().unwrap();
        // 1 MB/s, no latency: an 80 KB rewrite costs ~80 ms, a ~100-row
        // (800 B) append must finish an order of magnitude faster.
        let slow = Throttle {
            read_bps: 64e9,
            write_bps: 1e6,
            latency_s: 0.0,
        };
        let cat = DiskCatalog::open_throttled(dir.path(), slow).unwrap();
        cat.write_table("t", &sample(0..10_000)).unwrap();
        let started = Instant::now();
        cat.append_table("t", &sample(10_000..10_100)).unwrap();
        let append_elapsed = started.elapsed();
        let started = Instant::now();
        cat.write_table("t", &cat.read_table("t").unwrap()).unwrap();
        let rewrite_elapsed = started.elapsed();
        assert!(
            append_elapsed * 10 < rewrite_elapsed,
            "append ({append_elapsed:?}) must be paced as O(delta), rewrite took {rewrite_elapsed:?}"
        );
    }

    #[test]
    fn rewrite_crash_windows_keep_a_readable_version() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let v_old = sample(0..20);
        let v_new = sample(100..150);
        cat.write_table("t", &v_old).unwrap();
        let seg = dir.path().join("t.0.seg");
        let manifest_path = dir.path().join("t.sctb");
        let old_seg_bytes = fs::read(&seg).unwrap();
        let old_manifest = fs::read(&manifest_path).unwrap();
        cat.write_table("t", &v_new).unwrap();
        assert_eq!(
            cat.retained_file_count().unwrap(),
            0,
            "a completed unpinned rewrite GCs its retained files"
        );

        // Crash window 2: old segment renamed into the retained
        // namespace and the new segment landed, but the manifest commit
        // was lost — the old manifest plus the retained copy must serve
        // the old version.
        fs::write(&manifest_path, &old_manifest).unwrap();
        fs::write(dir.path().join("t.0.seg~9"), &old_seg_bytes).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), v_old);

        // Crash window 1: old segment already renamed away, new segment
        // never written.
        fs::remove_file(&seg).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), v_old);

        // Recovery: the next rewrite restores normal service and sweeps
        // the retained debris (no pins are live).
        cat.write_table("t", &v_new).unwrap();
        assert_eq!(cat.read_table("t").unwrap(), v_new);
        assert_eq!(cat.retained_file_count().unwrap(), 0);
    }

    #[test]
    fn pinned_readers_hold_their_epoch_across_rewrites() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let (v1, v2, v3) = (sample(0..10), sample(10..30), sample(30..60));
        cat.write_table("t", &v1).unwrap();
        let pin1 = cat.pin();
        cat.write_table("t", &v2).unwrap();
        let pin2 = cat.pin();
        cat.write_table("t", &v3).unwrap();

        // Each pin sees its own version; the live read sees the newest.
        assert_eq!(pin1.read_table("t").unwrap(), v1);
        assert_eq!(pin2.read_table("t").unwrap(), v2);
        assert_eq!(cat.read_table("t").unwrap(), v3);
        assert_eq!(pin1.row_count("t").unwrap(), 10);
        assert_eq!(pin2.row_count("t").unwrap(), 20);
        assert_eq!(pin1.segment_count("t").unwrap(), 1);
        assert!(pin1.size_of("t").unwrap() < pin2.size_of("t").unwrap());
        assert!(cat.retained_file_count().unwrap() > 0);

        // Rereads are byte-identical snapshots, keyed by live file name.
        let b1 = pin1.stored_file_bytes("t").unwrap();
        assert_eq!(b1, pin1.stored_file_bytes("t").unwrap());
        assert_eq!(b1[0].0, "t.sctb");
        assert_ne!(b1, cat.stored_file_bytes("t").unwrap());

        // GC frees v1's files once pin1 drops, v2's once pin2 drops.
        drop(pin1);
        assert_eq!(pin2.read_table("t").unwrap(), v2);
        drop(pin2);
        assert_eq!(cat.retained_file_count().unwrap(), 0);
        assert_eq!(cat.read_table("t").unwrap(), v3);
    }

    #[test]
    fn pin_sees_pre_append_and_pre_drop_state() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..5)).unwrap();
        let pin = cat.pin();
        cat.append_table("t", &sample(5..8)).unwrap();
        assert_eq!(pin.row_count("t").unwrap(), 5);
        assert_eq!(cat.row_count("t").unwrap(), 8);
        // A drop with a live pin retains the committed version.
        cat.drop_table("t").unwrap();
        assert!(!cat.contains("t"));
        assert!(matches!(
            cat.read_table("t"),
            Err(EngineError::UnknownTable(_))
        ));
        assert_eq!(pin.read_table("t").unwrap(), sample(0..5));
        drop(pin);
        assert_eq!(cat.retained_file_count().unwrap(), 0);
    }

    #[test]
    fn table_created_after_pin_is_invisible_to_it() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("old", &sample(0..3)).unwrap();
        let pin = cat.pin();
        cat.write_table("new", &sample(0..4)).unwrap();
        assert!(matches!(
            pin.read_table("new"),
            Err(EngineError::UnknownTable(_))
        ));
        // Even once the young table is rewritten (leaving retained
        // copies), the pin must not see any incarnation of it.
        cat.write_table("new", &sample(0..6)).unwrap();
        assert!(matches!(
            pin.read_table("new"),
            Err(EngineError::UnknownTable(_))
        ));
        assert_eq!(pin.read_table("old").unwrap(), sample(0..3));
        assert_eq!(cat.read_table("new").unwrap(), sample(0..6));
    }

    #[test]
    fn pinned_tables_listing_tracks_the_pinned_epoch() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("alpha", &sample(0..3)).unwrap();
        cat.write_table("beta", &sample(0..3)).unwrap();
        let pin = cat.pin();
        // Registered after the pin: absent from the pinned listing.
        cat.write_table("gamma", &sample(0..2)).unwrap();
        assert_eq!(pin.tables().unwrap(), vec!["alpha", "beta"]);
        // Dropped after the pin: still listed (the retained copy is
        // readable through the pin), while a fresh pin sees the new
        // state.
        cat.drop_table("beta").unwrap();
        assert_eq!(pin.tables().unwrap(), vec!["alpha", "beta"]);
        assert_eq!(pin.read_table("beta").unwrap(), sample(0..3));
        let fresh = cat.pin();
        assert_eq!(fresh.tables().unwrap(), vec!["alpha", "gamma"]);
        drop(fresh);
        drop(pin);
        assert_eq!(cat.retained_file_count().unwrap(), 0);
    }

    #[test]
    fn pinned_tables_listing_uses_logical_names() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("enriched.sales", &sample(0..3)).unwrap();
        let pin = cat.pin();
        assert_eq!(pin.tables().unwrap(), vec!["enriched.sales"]);
        assert_eq!(pin.read_table("enriched.sales").unwrap(), sample(0..3));
    }

    #[test]
    fn colliding_names_are_rejected_on_write_paths() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert_eq!(
            DiskCatalog::file_stem("mv.a"),
            DiskCatalog::file_stem("mv_a")
        );
        cat.write_table("mv.a", &sample(0..3)).unwrap();
        // Same name again: fine. A *different* name on the same stem:
        // typed error on every write path.
        cat.write_table("mv.a", &sample(0..4)).unwrap();
        match cat.write_table("mv_a", &sample(0..1)) {
            Err(EngineError::NameCollision { name, existing }) => {
                assert_eq!(name, "mv_a");
                assert_eq!(existing, "mv.a");
            }
            other => panic!("expected NameCollision, got {other:?}"),
        }
        assert!(matches!(
            cat.append_table("mv_a", &sample(0..1)),
            Err(EngineError::NameCollision { .. })
        ));
        assert!(matches!(
            cat.compact("mv_a"),
            Err(EngineError::NameCollision { .. })
        ));
        // Dropping the claimant releases the stem for reuse.
        cat.drop_table("mv.a").unwrap();
        cat.write_table("mv_a", &sample(0..2)).unwrap();
        assert_eq!(cat.read_table("mv_a").unwrap(), sample(0..2));
    }

    #[test]
    fn failed_gc_deletes_are_counted() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..10)).unwrap();
        let pin = cat.pin();
        cat.write_table("t", &sample(10..30)).unwrap();
        assert_eq!(cat.gc_failed_deletes(), 0);
        // Sabotage: replace a retained file with a *directory*, which
        // fs::remove_file cannot delete.
        let retained = dir.path().join("t.0.seg~2");
        assert!(retained.exists(), "v1's segment must be retained");
        fs::remove_file(&retained).unwrap();
        fs::create_dir(&retained).unwrap();
        drop(pin); // pin-drop GC tries (and fails) to delete it
        assert!(
            cat.gc_failed_deletes() >= 1,
            "failed retained-file deletes must be counted, not swallowed"
        );
        // The table itself stays fully serviceable.
        assert_eq!(cat.read_table("t").unwrap(), sample(10..30));
        fs::remove_dir(&retained).unwrap();
    }

    #[test]
    fn retry_exhaustion_under_churn_is_typed_contention() {
        use std::sync::atomic::AtomicBool;
        let dir = tempfile::tempdir().unwrap();
        let reader = DiskCatalog::open(dir.path())
            .unwrap()
            .with_read_retry_cap(3);
        let writer = DiskCatalog::open(dir.path()).unwrap();
        writer.write_table("t", &sample(0..50)).unwrap();
        // Permanently corrupt segment 0 (same length, flipped byte):
        // every read attempt fails verification...
        let seg = dir.path().join("t.0.seg");
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        // ...while a hot writer keeps committing appends, so the
        // manifest keeps changing under the reader and the retry loop
        // runs to its cap instead of concluding "corrupt".
        let stop = AtomicBool::new(false);
        let contention = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    writer.append_table("t", &sample(0..1)).unwrap();
                }
            });
            // The churn thread commits continuously; retry until the
            // reader observes cap exhaustion (each failed read is Err
            // either way — never a torn table).
            let mut contention = None;
            for _ in 0..50 {
                match reader.read_table("t") {
                    Ok(_) => panic!("corrupt segment must never read Ok"),
                    Err(e @ EngineError::ReadContention { .. }) => {
                        contention = Some(e);
                        break;
                    }
                    Err(EngineError::Corrupt(_)) => continue,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
            stop.store(true, Ordering::Relaxed);
            contention
        });
        match contention {
            Some(EngineError::ReadContention { table, attempts }) => {
                assert_eq!(table, "t");
                assert_eq!(attempts, 4, "cap of 3 retries fails on attempt 4");
            }
            _ => panic!("never saw ReadContention under sustained churn"),
        }
    }

    #[test]
    fn concurrent_reads_survive_rewrites() {
        // A reader racing in-place canonical rewrites (the ingest-vs-
        // refresh pattern) must never see a spurious Corrupt, and every
        // successful read must be one of the committed versions. The
        // writer runs on its OWN handle over the same directory, so the
        // internal I/O lock cannot serialize the race away — this
        // exercises the cross-handle machinery for real: the `.seg.old`
        // fallback during a swap and the manifest-changed read retry.
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let writer_cat = DiskCatalog::open(dir.path()).unwrap();
        cat.write_table("t", &sample(0..100)).unwrap();
        let versions: Vec<Table> = (0..8).map(|v| sample(v..v + 100)).collect();
        std::thread::scope(|scope| {
            let writer_versions = versions.clone();
            scope.spawn(move || {
                for _ in 0..40 {
                    for v in &writer_versions {
                        writer_cat.write_table("t", v).unwrap();
                    }
                }
            });
            for _ in 0..300 {
                let got = cat.read_table("t").unwrap();
                assert!(
                    got == sample(0..100) || versions.contains(&got),
                    "read returned a never-committed state"
                );
            }
        });
    }

    #[test]
    fn paper_disk_constants() {
        let t = Throttle::paper_disk();
        assert!((t.read_bps - 519.8e6).abs() < 1.0);
        assert!((t.write_bps - 358.9e6).abs() < 1.0);
    }

    #[test]
    fn retention_hook_tracks_the_gc_horizon() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        let horizons: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let sink = Arc::clone(&horizons);
        cat.set_retention_hook(move |h| sink.lock().unwrap().push(h));

        // Unpinned commit: the horizon is the new committed epoch.
        cat.write_table("t", &sample(0..10)).unwrap();
        assert_eq!(horizons.lock().unwrap().last(), Some(&1));

        // While a pin is live, commits must not report past it —
        // exactly the bound retained-namespace reclamation honors.
        let pin = cat.pin();
        assert_eq!(pin.epoch(), 1);
        cat.write_table("t", &sample(0..20)).unwrap();
        assert_eq!(cat.current_epoch(), 2);
        assert_eq!(horizons.lock().unwrap().last(), Some(&1));

        // Dropping the pin runs GC and the horizon catches up.
        drop(pin);
        assert_eq!(horizons.lock().unwrap().last(), Some(&2));
        assert_eq!(cat.retained_file_count().unwrap(), 0);

        // Clearing stops notifications.
        let before = horizons.lock().unwrap().len();
        cat.clear_retention_hook();
        cat.write_table("t", &sample(0..30)).unwrap();
        assert_eq!(horizons.lock().unwrap().len(), before);
    }

    #[test]
    fn current_epoch_is_lock_free_and_monotone_under_commits() {
        let dir = tempfile::tempdir().unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert_eq!(cat.current_epoch(), 0);
        cat.write_table("t", &sample(0..10)).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for v in 0..20 {
                    cat.write_table("t", &sample(v..v + 10)).unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
            let mut last = 0;
            while !stop.load(Ordering::Relaxed) {
                let e = cat.current_epoch();
                assert!(e >= last, "epoch went backwards: {e} < {last}");
                last = e;
            }
            writer.join().unwrap();
        });
        assert_eq!(cat.current_epoch(), 21);
    }
}
