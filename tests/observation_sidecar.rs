//! Property suite over the **observation sidecar** (`observations.scst`)
//! itself, independent of the refresh engine above it — the companion of
//! `storage_segments.rs` for the runtime-feedback store.
//!
//! The sidecar is advisory: it refines Auto decisions but must never be
//! able to break one. Three properties hold over random stores:
//!
//! 1. **Determinism** — encoding is a pure function of contents (two
//!    identically-driven stores save byte-identical files; saving twice
//!    changes nothing), which is what makes the engine's "doomed runs
//!    teach nothing" byte-identity contract meaningful.
//! 2. **Integrity** — *any* single-byte corruption and *any* truncation
//!    of the file is rejected at load time: the store comes back empty
//!    (never a panic, never a partially-believed ring).
//! 3. **Decision safety** — a corrupt sidecar yields `summary() == None`
//!    everywhere, so every Auto decision is bit-for-bit the static one;
//!    a crash-window leftover `.scst.tmp` is ignored and overwritten by
//!    the next committed save.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sc_core::CostModel;
use sc_engine::storage::{Observation, ObservationStore, OBSERVATION_RING, SIDECAR_FILE};

/// A random observation with finite, non-negative timings (what the
/// controller can ever record).
fn obs(rng: &mut StdRng) -> Observation {
    let full = rng.gen_bool(0.5);
    Observation {
        full,
        rows: rng.gen_range(0..100_000),
        delta_bytes: rng.gen_range(0..1 << 24),
        appended_bytes: if full { 0 } else { rng.gen_range(0..1 << 20) },
        output_bytes: rng.gen_range(1..1 << 26),
        read_s: rng.gen_range(0..1_000_000) as f64 * 1e-6,
        compute_s: rng.gen_range(0..1_000_000) as f64 * 1e-6,
        write_s: rng.gen_range(0..1_000_000) as f64 * 1e-6,
    }
}

/// Drives `store` through a random history of `record` calls and returns
/// the `(name, fingerprint)` identities touched.
fn populate(rng: &mut StdRng, store: &ObservationStore) -> Vec<(String, u64)> {
    let nodes = rng.gen_range(1..6usize);
    let idents: Vec<(String, u64)> = (0..nodes)
        .map(|i| (format!("mv_{i}"), rng.gen::<u64>()))
        .collect();
    for (name, fp) in &idents {
        // Sometimes overflow the ring so the bound is exercised too.
        for _ in 0..rng.gen_range(1..OBSERVATION_RING + 5) {
            store.record(name, *fp, obs(rng));
        }
    }
    idents
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Determinism: same history ⇒ byte-identical files; re-saving an
    // unchanged store is a no-op byte-wise; a reload round-trips.
    #[test]
    fn sidecar_encoding_is_deterministic_and_roundtrips(seed in 0u64..1_000_000_000) {
        let store_a = ObservationStore::new();
        let store_b = ObservationStore::new();
        let idents = populate(&mut StdRng::seed_from_u64(seed), &store_a);
        populate(&mut StdRng::seed_from_u64(seed), &store_b);
        prop_assert_eq!(store_a.encode(), store_b.encode());

        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        store_a.save(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        store_a.save(&path).unwrap();
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &first, "seed {}: re-save must be byte-stable", seed);

        let reloaded = ObservationStore::load(&path);
        prop_assert_eq!(reloaded.encode(), store_a.encode(), "seed {}: reload must round-trip", seed);
        for (name, fp) in &idents {
            prop_assert_eq!(
                reloaded.summary(name, *fp).is_some(),
                store_a.summary(name, *fp).is_some()
            );
            prop_assert!(reloaded.summary(name, *fp + 1).is_none(), "fingerprint mismatch must miss");
        }
    }

    // Integrity: flipping any single byte anywhere in the file makes the
    // load come back empty — never a panic, never a partial ring — and
    // every decision collapses to the static estimate.
    #[test]
    fn any_single_byte_flip_degrades_to_the_static_model(
        (seed, pos_frac, bit) in (0u64..1_000_000_000, 0.0f64..1.0, 0u32..8)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = ObservationStore::new();
        let idents = populate(&mut rng, &store);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        store.save(&path).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let corrupt = ObservationStore::load(&path);
        prop_assert!(
            corrupt.is_empty(),
            "seed {}: flip at {} bit {} must be rejected wholesale",
            seed, pos, bit
        );
        // Decision safety: with every summary gone, the observed-cost
        // comparison is bit-for-bit the static one.
        let cm = CostModel::paper();
        for (name, fp) in &idents {
            let summary = corrupt.summary(name, *fp);
            prop_assert!(summary.is_none());
            prop_assert_eq!(
                cm.incremental_refresh_wins(1 << 20, 1 << 22, 1 << 12, 0, None, summary.as_ref()),
                cm.incremental_refresh_wins(1 << 20, 1 << 22, 1 << 12, 0, None, None)
            );
        }
    }

    // Integrity: any proper prefix of the file (a torn write) is
    // rejected wholesale at load time.
    #[test]
    fn any_truncation_loads_empty((seed, cut_frac) in (0u64..1_000_000_000, 0.0f64..1.0)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = ObservationStore::new();
        populate(&mut rng, &store);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(SIDECAR_FILE);
        store.save(&path).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            ObservationStore::load(&path).is_empty(),
            "seed {}: truncation to {} of {} bytes must be rejected",
            seed, cut, bytes.len()
        );
    }
}

/// Crash window: a leftover `.scst.tmp` from a save that died before the
/// rename is invisible to `load` and harmlessly replaced by the next
/// committed save.
#[test]
fn crash_window_tmp_leftover_is_ignored_and_replaced() {
    let mut rng = StdRng::seed_from_u64(17);
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join(SIDECAR_FILE);
    let tmp = path.with_extension("scst.tmp");

    // Crash before any commit: garbage tmp, no main file.
    std::fs::write(&tmp, b"torn half-written garbage").unwrap();
    assert!(ObservationStore::load(&path).is_empty());

    // A committed save lands atomically next to (over) the leftover.
    let store = ObservationStore::new();
    populate(&mut rng, &store);
    store.save(&path).unwrap();
    assert!(!tmp.exists(), "commit must consume the tmp file");
    assert_eq!(ObservationStore::load(&path).encode(), store.encode());

    // Crash *after* a commit: stale garbage tmp beside a valid sidecar
    // must not shadow it.
    std::fs::write(&tmp, b"stale crash leftovers").unwrap();
    assert_eq!(ObservationStore::load(&path).encode(), store.encode());
}

/// A sidecar from a foreign file (wrong magic entirely) loads empty: the
/// engine treats any unreadable sidecar as "not yet warmed", never an
/// error surfaced to a refresh.
#[test]
fn foreign_or_missing_files_load_empty() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join(SIDECAR_FILE);
    assert!(ObservationStore::load(&path).is_empty(), "missing file");
    std::fs::write(&path, b"SCTB\x01\x00not an observation sidecar").unwrap();
    assert!(ObservationStore::load(&path).is_empty(), "foreign magic");
    std::fs::write(&path, b"").unwrap();
    assert!(ObservationStore::load(&path).is_empty(), "empty file");
}
