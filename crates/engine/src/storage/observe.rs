//! The **observation sidecar**: persisted per-node runtime metrics that
//! feed the adaptive cost model.
//!
//! Every successful refresh run appends one [`Observation`] per executed
//! node, keyed by the node's *stable identity* — its MV name **plus** the
//! [`crate::plan::LogicalPlan::fingerprint`] of its operator tree — so a
//! re-registered MV with a different DAG shape starts cold instead of
//! inheriting another shape's numbers. Per identity the store keeps a
//! bounded ring of the last [`OBSERVATION_RING`] observations and distills
//! them into an [`ObservedNodeCost`] summary on demand.
//!
//! The sidecar file (`observations.scst`) follows the same discipline as
//! SCTB manifests: a magic/version header, an FNV-1a checksum over the
//! whole payload, a strict length check, and a tmp-file + rename commit.
//! A refresh splits that commit in two (`stage` and `commit`): the tmp
//! file is written while the run's background writes drain, and renamed
//! only once the run succeeded.
//! Unlike table data, observations are *advisory*: a missing, truncated,
//! or bit-flipped sidecar is cleanly ignored — [`ObservationStore::load`]
//! starts empty and the planner falls back to its static estimates, which
//! is always a safe decision. It is rebuilt by subsequent runs.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use sc_core::ObservedNodeCost;

use super::format::fnv1a64;
use crate::Result;

/// Observations retained per node identity. Old entries age out so the
/// summary tracks the workload's *current* behavior (data grows, rates
/// drift) instead of averaging over its whole history.
pub const OBSERVATION_RING: usize = 8;

/// Conventional sidecar file name, stored next to the catalog's `.sctb`
/// manifests (the `.scst` extension keeps it invisible to table listing).
pub const SIDECAR_FILE: &str = "observations.scst";

const MAGIC: &[u8; 4] = b"SCST";
const VERSION: u16 = 1;
/// flags byte + 4 × u64 + 3 × f64.
const RECORD_LEN: usize = 1 + 4 * 8 + 3 * 8;

/// One executed node's measurements from one successful refresh run —
/// the [`crate::controller::NodeMetrics`] fields that survive across runs
/// (all sizes on the storage scale the planner prices with).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Whether the node recomputed in full (`false`: incremental).
    pub full: bool,
    /// Output rows after the run.
    pub rows: u64,
    /// Input-delta bytes the run absorbed (0 for full recomputes).
    pub delta_bytes: u64,
    /// Output-delta bytes persisted by the append path (0 otherwise).
    pub appended_bytes: u64,
    /// Stored output bytes after the run.
    pub output_bytes: u64,
    /// Input read seconds.
    pub read_s: f64,
    /// Operator-tree compute seconds.
    pub compute_s: f64,
    /// Blocking write seconds.
    pub write_s: f64,
}

impl Observation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.full as u8);
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.delta_bytes.to_le_bytes());
        out.extend_from_slice(&self.appended_bytes.to_le_bytes());
        out.extend_from_slice(&self.output_bytes.to_le_bytes());
        out.extend_from_slice(&self.read_s.to_le_bytes());
        out.extend_from_slice(&self.compute_s.to_le_bytes());
        out.extend_from_slice(&self.write_s.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Observation> {
        if bytes.len() != RECORD_LEN || bytes[0] > 1 {
            return None;
        }
        let u = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let f = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let obs = Observation {
            full: bytes[0] == 1,
            rows: u(1),
            delta_bytes: u(9),
            appended_bytes: u(17),
            output_bytes: u(25),
            read_s: f(33),
            compute_s: f(41),
            write_s: f(49),
        };
        // Durations are measured wall time: finite and non-negative. A
        // bit flip that survived the checksum cannot be allowed to plant
        // a NaN/negative rate in the cost model.
        let sane = |s: f64| s.is_finite() && s >= 0.0;
        (sane(obs.read_s) && sane(obs.compute_s) && sane(obs.write_s)).then_some(obs)
    }
}

type NodeKey = (String, u64);

/// Appends `obs` to `key`'s ring, evicting the oldest entry beyond
/// [`OBSERVATION_RING`].
fn push(map: &mut BTreeMap<NodeKey, VecDeque<Observation>>, key: NodeKey, obs: Observation) {
    let ring = map.entry(key).or_default();
    ring.push_back(obs);
    while ring.len() > OBSERVATION_RING {
        ring.pop_front();
    }
}

/// A sidecar image written to the tmp file beside the sidecar, waiting
/// for [`ObservationStore::commit`]. Dropping it uncommitted deletes the
/// tmp file, so a run that fails after staging persists nothing.
#[derive(Debug)]
#[must_use = "a staged save persists nothing until it is committed"]
pub(crate) struct StagedSave {
    /// `(name, fingerprint, observation)` entries the image already holds
    /// and the store records on commit.
    batch: Vec<(String, u64, Observation)>,
    path: PathBuf,
    /// The tmp file; taken by the commit.
    tmp: Option<PathBuf>,
    /// Whether writing the tmp file succeeded.
    written: Result<()>,
}

impl Drop for StagedSave {
    fn drop(&mut self) {
        if let Some(tmp) = self.tmp.take() {
            let _ = fs::remove_file(tmp);
        }
    }
}

/// Thread-safe, bounded store of per-node runtime observations, with a
/// checksummed sidecar persistence format (see the module docs).
#[derive(Debug, Default)]
pub struct ObservationStore {
    inner: Mutex<BTreeMap<NodeKey, VecDeque<Observation>>>,
    /// The image the last commit renamed over, held open so that the
    /// rename does not free its blocks (see `release_replaced`).
    replaced: Mutex<Option<fs::File>>,
}

impl ObservationStore {
    /// An empty store.
    pub fn new() -> Self {
        ObservationStore::default()
    }

    /// Loads the sidecar at `path`. A missing, truncated, or corrupt
    /// file yields an **empty** store — observations are advisory, so
    /// "ignore and rebuild" is always safe, and the adaptive layer falls
    /// back to static estimates until fresh runs repopulate it.
    pub fn load(path: impl AsRef<Path>) -> Self {
        let map = fs::read(path)
            .ok()
            .and_then(|bytes| Self::decode(&bytes))
            .unwrap_or_default();
        ObservationStore {
            inner: Mutex::new(map),
            replaced: Mutex::new(None),
        }
    }

    /// Appends one observation to the ring for `(name, fingerprint)`,
    /// evicting the oldest entry beyond [`OBSERVATION_RING`].
    pub fn record(&self, name: &str, fingerprint: u64, obs: Observation) {
        push(&mut self.inner.lock(), (name.to_string(), fingerprint), obs);
    }

    /// Distills the ring for `(name, fingerprint)` into the summary the
    /// cost model consumes. `None` when the identity has never been
    /// observed — a different fingerprint under the same name is a
    /// different identity, so a re-registered MV starts cold.
    pub fn summary(&self, name: &str, fingerprint: u64) -> Option<ObservedNodeCost> {
        let inner = self.inner.lock();
        let ring = inner.get(&(name.to_string(), fingerprint))?;
        if ring.is_empty() {
            return None;
        }
        let mut full_rates = Vec::new();
        let mut inc_rates = Vec::new();
        let mut write_rates = Vec::new();
        let mut ratios = Vec::new();
        for o in ring {
            if o.full {
                if o.output_bytes > 0 && o.compute_s > 0.0 {
                    full_rates.push(o.compute_s / o.output_bytes as f64);
                }
                if o.output_bytes > 0 && o.write_s > 0.0 {
                    write_rates.push(o.write_s / o.output_bytes as f64);
                }
            } else {
                // The incremental path's work scales with its *output*
                // delta: the appended segment when one landed, the input
                // delta otherwise (merge paths absorb without growing).
                let out_delta = if o.appended_bytes > 0 {
                    o.appended_bytes
                } else {
                    o.delta_bytes
                };
                if out_delta > 0 && o.compute_s > 0.0 {
                    inc_rates.push(o.compute_s / out_delta as f64);
                }
                if o.appended_bytes > 0 {
                    if o.write_s > 0.0 {
                        write_rates.push(o.write_s / o.appended_bytes as f64);
                    }
                    if o.delta_bytes > 0 {
                        ratios.push(o.appended_bytes as f64 / o.delta_bytes as f64);
                    }
                }
            }
        }
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        Some(ObservedNodeCost {
            full_compute_s_per_byte: mean(&full_rates),
            inc_compute_s_per_byte: mean(&inc_rates),
            write_s_per_byte: mean(&write_rates),
            output_delta_ratio: mean(&ratios),
            samples: ring.len(),
        })
    }

    /// Number of distinct node identities with at least one observation.
    pub fn node_count(&self) -> usize {
        self.inner.lock().len()
    }

    /// Distinct MV names with at least one observation, sorted. A sidecar
    /// loaded against the wrong workload surfaces here: callers mapping
    /// observations onto a spec can reject names the spec never declared
    /// instead of silently annotating nothing.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner.keys().map(|(n, _)| n.clone()).collect();
        // Keys are sorted (BTreeMap, name-major), so duplicates from
        // multiple fingerprints under one name are consecutive.
        names.dedup();
        names
    }

    /// Whether the store holds no observations at all.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The serialized sidecar image. Deterministic: equal contents encode
    /// to equal bytes (identities are kept sorted, rings in insertion
    /// order), which is what lets tests pin "this run learned nothing"
    /// as byte-identity of the file.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_map(&self.inner.lock())
    }

    fn encode_map(inner: &BTreeMap<NodeKey, VecDeque<Observation>>) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        for ((name, fingerprint), ring) in inner.iter() {
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&fingerprint.to_le_bytes());
            payload.extend_from_slice(&(ring.len() as u32).to_le_bytes());
            for obs in ring {
                obs.encode_into(&mut payload);
            }
        }
        let mut out = Vec::with_capacity(22 + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Commits the sidecar to `path` with the manifest discipline: the
    /// image lands in a tmp file first and is renamed over the old
    /// sidecar, so a crash mid-write leaves either the previous version
    /// or the new one — never a torn file (and a torn file would be
    /// rejected by the checksum anyway).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.commit(self.stage(path.as_ref(), Vec::new()))
    }

    /// The first half of a save: writes the image the store will hold
    /// once `batch` (`(name, fingerprint, observation)` entries) is
    /// recorded to the sidecar's tmp file, leaving the store itself
    /// unchanged. A write error is kept for the commit to return.
    pub(crate) fn stage(&self, path: &Path, batch: Vec<(String, u64, Observation)>) -> StagedSave {
        let mut image = self.inner.lock().clone();
        for (name, fingerprint, obs) in &batch {
            push(&mut image, (name.clone(), *fingerprint), *obs);
        }
        let tmp = path.with_extension("scst.tmp");
        let written = fs::write(&tmp, Self::encode_map(&image)).map_err(Into::into);
        StagedSave {
            batch,
            path: path.to_path_buf(),
            tmp: Some(tmp),
            written,
        }
    }

    /// The second half of a save: records the staged batch, then renames
    /// the staged image over the sidecar. The batch is recorded even when
    /// the image could not be written or renamed — the observations stay
    /// usable in this process — and the error is returned.
    pub(crate) fn commit(&self, mut staged: StagedSave) -> Result<()> {
        {
            let mut inner = self.inner.lock();
            for (name, fingerprint, obs) in staged.batch.drain(..) {
                push(&mut inner, (name, fingerprint), obs);
            }
        }
        let tmp = staged.tmp.take().expect("a staged save commits once");
        std::mem::replace(&mut staged.written, Ok(()))?;
        // A rename that drops its target's last link frees the target's
        // blocks inside the call, which costs about as much again as the
        // rest of the save. An open handle on the old image defers that
        // to `release_replaced`.
        let old = fs::File::open(&staged.path).ok();
        fs::rename(&tmp, &staged.path)?;
        *self.replaced.lock() = old;
        Ok(())
    }

    /// Closes the image the last commit replaced, which frees its blocks.
    /// A refresh calls it on its background materializer before the
    /// first output arrives, where it costs the run nothing.
    pub(crate) fn release_replaced(&self) {
        self.replaced.lock().take();
    }

    /// Strict inverse of [`ObservationStore::encode`]: magic, version,
    /// exact length, and payload checksum must all hold, and every record
    /// must decode to sane values. Any failure yields `None` (⇒ empty
    /// store), never a panic or a partial load.
    fn decode(bytes: &[u8]) -> Option<BTreeMap<NodeKey, VecDeque<Observation>>> {
        if bytes.len() < 22 || &bytes[0..4] != MAGIC {
            return None;
        }
        if u16::from_le_bytes(bytes[4..6].try_into().unwrap()) != VERSION {
            return None;
        }
        let checksum = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[14..22].try_into().unwrap()) as usize;
        let payload = &bytes[22..];
        if payload.len() != payload_len || fnv1a64(payload) != checksum {
            return None;
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = payload.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let entries = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut map = BTreeMap::new();
        for _ in 0..entries {
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
            let fingerprint = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            if count > OBSERVATION_RING {
                return None;
            }
            let mut ring = VecDeque::with_capacity(count);
            for _ in 0..count {
                ring.push_back(Observation::decode(take(&mut pos, RECORD_LEN)?)?);
            }
            map.insert((name, fingerprint), ring);
        }
        // Trailing garbage would mean the length field lied.
        (pos == payload.len()).then_some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(full: bool, output_bytes: u64, compute_s: f64) -> Observation {
        Observation {
            full,
            rows: 10,
            delta_bytes: if full { 0 } else { 64 },
            appended_bytes: if full { 0 } else { 128 },
            output_bytes,
            read_s: 0.01,
            compute_s,
            write_s: 0.002,
        }
    }

    #[test]
    fn a_staged_save_goes_live_only_on_commit() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        let tmp = path.with_extension("scst.tmp");
        let store = ObservationStore::new();
        store.record("mv_a", 7, obs(true, 4096, 0.5));
        store.save(&path).unwrap();
        let before = fs::read(&path).unwrap();
        let batch = || vec![("mv_a".to_string(), 7, obs(false, 4200, 0.01))];

        // Dropped uncommitted: the tmp file goes, and neither the sidecar
        // nor the store learned anything.
        let staged = store.stage(&path, batch());
        assert!(tmp.is_file());
        drop(staged);
        assert!(!tmp.exists());
        assert_eq!(fs::read(&path).unwrap(), before);
        assert_eq!(store.summary("mv_a", 7).unwrap().samples, 1);

        // Committed: the store records the batch, and the sidecar is the
        // image staged for it.
        let staged = store.stage(&path, batch());
        let image = fs::read(&tmp).unwrap();
        store.commit(staged).unwrap();
        assert!(!tmp.exists());
        assert_eq!(store.summary("mv_a", 7).unwrap().samples, 2);
        assert_eq!(fs::read(&path).unwrap(), image);
        assert_eq!(image, store.encode());
    }

    #[test]
    fn roundtrips_through_the_sidecar_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        let store = ObservationStore::new();
        store.record("mv_a", 7, obs(true, 4096, 0.5));
        store.record("mv_a", 7, obs(false, 4200, 0.01));
        store.record("mv_b", 9, obs(true, 1 << 20, 2.0));
        store.save(&path).unwrap();

        let reloaded = ObservationStore::load(&path);
        assert_eq!(reloaded.node_count(), 2);
        assert_eq!(reloaded.encode(), store.encode());
        let s = reloaded.summary("mv_a", 7).unwrap();
        assert_eq!(s.samples, 2);
        assert!((s.full_compute_s_per_byte.unwrap() - 0.5 / 4096.0).abs() < 1e-12);
        assert!((s.inc_compute_s_per_byte.unwrap() - 0.01 / 128.0).abs() < 1e-12);
        assert!((s.output_delta_ratio.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_mismatch_is_a_different_identity() {
        let store = ObservationStore::new();
        store.record("mv_a", 7, obs(true, 4096, 0.5));
        assert!(store.summary("mv_a", 8).is_none());
        assert!(store.summary("mv_x", 7).is_none());
        assert!(store.summary("mv_a", 7).is_some());
    }

    #[test]
    fn ring_is_bounded_and_ages_out() {
        let store = ObservationStore::new();
        for i in 0..(OBSERVATION_RING as u64 + 5) {
            store.record("mv", 1, obs(true, 1000 + i, 1.0));
        }
        let s = store.summary("mv", 1).unwrap();
        assert_eq!(s.samples, OBSERVATION_RING);
        // The oldest entries (output 1000..1004) have aged out: every
        // surviving rate divides by an output ≥ 1005.
        assert!(s.full_compute_s_per_byte.unwrap() <= 1.0 / 1005.0);
    }

    #[test]
    fn missing_truncated_and_corrupt_sidecars_load_empty() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        assert!(ObservationStore::load(&path).is_empty());

        let store = ObservationStore::new();
        store.record("mv", 3, obs(true, 4096, 0.25));
        store.save(&path).unwrap();
        let good = fs::read(&path).unwrap();
        assert!(!ObservationStore::load(&path).is_empty());

        // Truncation at every prefix length: empty, never a panic.
        for cut in [0, 3, 10, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(ObservationStore::load(&path).is_empty(), "cut {cut}");
        }
        // A flipped byte anywhere fails the checksum (or header checks).
        for pos in [0, 5, 9, 20, 30, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(ObservationStore::load(&path).is_empty(), "flip {pos}");
        }
        fs::write(&path, &good).unwrap();
        assert!(!ObservationStore::load(&path).is_empty());
    }

    #[test]
    fn save_is_atomic_over_a_stale_tmp() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        let store = ObservationStore::new();
        store.record("mv", 1, obs(true, 4096, 0.5));
        store.save(&path).unwrap();
        // A crash that left a garbage tmp behind must not affect loads
        // or subsequent commits.
        fs::write(path.with_extension("scst.tmp"), b"garbage").unwrap();
        assert_eq!(ObservationStore::load(&path).node_count(), 1);
        store.record("mv2", 2, obs(true, 64, 0.1));
        store.save(&path).unwrap();
        assert_eq!(ObservationStore::load(&path).node_count(), 2);
    }
}
