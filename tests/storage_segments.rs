//! Storage-level property/differential suite over the **segmented SCTB**
//! format itself (manifest + ordered row-segment files), independent of
//! the refresh engine above it.
//!
//! Three properties hold over random operation sequences
//! (append/rewrite/compact/reopen):
//!
//! 1. **Row identity** — the stored table always equals the model (the
//!    row-concatenation of everything written), across reopens, however
//!    fragmented the layout is.
//! 2. **Determinism** — two catalogs driven through the same sequence
//!    hold byte-identical files, manifest and segments alike (this is
//!    what makes the engine's cross-rig byte-identity contracts
//!    meaningful).
//! 3. **Integrity** — a crash between segment write and manifest commit
//!    leaves the prior version readable (the orphan segment is
//!    invisible, and the next open deletes it), and *any* single-byte
//!    corruption of any stored file — manifest or segment — is rejected
//!    at read time (the mutation check at the end of every case proves
//!    the length/checksum/row-count verification actually bites).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sc_engine::storage::DiskCatalog;
use sc_engine::{DataType, Table, TableBuilder, Value};

/// Random rows over a fixed (k, s, v) schema — an integer, a
/// variable-width string, and a float, so every encoding path is
/// exercised.
fn rows(rng: &mut StdRng, n: usize) -> Table {
    let mut t = TableBuilder::new()
        .column("k", DataType::Int64)
        .column("s", DataType::Utf8)
        .column("v", DataType::Float64)
        .build();
    for _ in 0..n {
        t.push_row(vec![
            Value::Int64(rng.gen_range(-100..100)),
            Value::Utf8(format!("s{}", rng.gen_range(0..1_000_000))),
            Value::Float64(rng.gen_range(0..8000) as f64 / 8.0),
        ])
        .unwrap();
    }
    t
}

/// One random operation against both catalogs and the row model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Append,
    Rewrite,
    Compact,
    Reopen,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_segment_histories_preserve_rows_and_determinism(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir_a = tempfile::tempdir().unwrap();
        let dir_b = tempfile::tempdir().unwrap();
        let mut cat_a = DiskCatalog::open(dir_a.path()).unwrap();
        let mut cat_b = DiskCatalog::open(dir_b.path()).unwrap();

        let initial_n = rng.gen_range(0..20);
        let initial = rows(&mut rng, initial_n);
        let mut expected = initial.clone();
        cat_a.write_table("t", &initial).unwrap();
        cat_b.write_table("t", &initial).unwrap();
        let mut model_segs = 1usize;

        for _step in 0..rng.gen_range(4..14usize) {
            let op = match rng.gen_range(0..8u32) {
                0..=3 => Op::Append,
                4 => Op::Rewrite,
                5 => Op::Compact,
                _ => Op::Reopen,
            };
            match op {
                Op::Append => {
                    let n = rng.gen_range(0..10);
                    let extra = rows(&mut rng, n);
                    let wa = cat_a.append_table("t", &extra).unwrap();
                    let wb = cat_b.append_table("t", &extra).unwrap();
                    prop_assert_eq!(wa, wb, "seed {}: append sizes differ", seed);
                    if extra.num_rows() > 0 {
                        model_segs += 1;
                        expected = Table::concat(&[&expected, &extra]).unwrap();
                    }
                }
                Op::Rewrite => {
                    let n = rng.gen_range(0..25);
                    let fresh = rows(&mut rng, n);
                    cat_a.write_table("t", &fresh).unwrap();
                    cat_b.write_table("t", &fresh).unwrap();
                    expected = fresh;
                    model_segs = 1;
                }
                Op::Compact => {
                    let wa = cat_a.compact("t").unwrap();
                    let wb = cat_b.compact("t").unwrap();
                    prop_assert_eq!(wa, wb);
                    prop_assert_eq!(wa == 0, model_segs == 1, "compact no-ops iff canonical");
                    model_segs = 1;
                }
                Op::Reopen => {
                    // A directory has one owner: the old handle goes first.
                    drop((cat_a, cat_b));
                    cat_a = DiskCatalog::open(dir_a.path()).unwrap();
                    cat_b = DiskCatalog::open(dir_b.path()).unwrap();
                }
            }
            // Row identity with the model, on both catalogs.
            prop_assert_eq!(&cat_a.read_table("t").unwrap(), &expected, "seed {}", seed);
            prop_assert_eq!(&cat_b.read_table("t").unwrap(), &expected, "seed {}", seed);
            prop_assert_eq!(cat_a.row_count("t").unwrap() as usize, expected.num_rows());
            prop_assert_eq!(cat_a.segment_count("t").unwrap(), model_segs);
            // Determinism: identical histories, identical files.
            prop_assert_eq!(
                cat_a.stored_file_bytes("t").unwrap(),
                cat_b.stored_file_bytes("t").unwrap(),
                "seed {}: histories diverged on disk",
                seed
            );
            // With no epoch pins ever taken, commit-time GC deletes every
            // superseded file immediately: retained debris never outlives
            // the operation that created it.
            prop_assert_eq!(
                cat_a.retained_file_count().unwrap(),
                0,
                "seed {}: retained files leaked without pins",
                seed
            );
        }

        // Crash simulation: an appended segment whose manifest commit
        // never landed must be invisible after a reopen — the prior
        // version stays fully readable, byte for byte — and the reopen
        // deletes the orphan.
        let manifest_path = dir_a.path().join("t.sctb");
        let manifest_before = std::fs::read(&manifest_path).unwrap();
        let orphan_n = rng.gen_range(1..8);
        let orphan_rows = rows(&mut rng, orphan_n);
        cat_a.append_table("t", &orphan_rows).unwrap();
        std::fs::write(&manifest_path, &manifest_before).unwrap();
        drop(cat_a);
        let cat_a = DiskCatalog::open(dir_a.path()).unwrap();
        prop_assert_eq!(
            &cat_a.read_table("t").unwrap(),
            &expected,
            "seed {}: uncommitted segment leaked into the table",
            seed
        );
        prop_assert_eq!(cat_a.segment_count("t").unwrap(), model_segs);
        prop_assert_eq!(
            cat_a.stored_file_bytes("t").unwrap(),
            cat_b.stored_file_bytes("t").unwrap()
        );
        prop_assert_eq!(cat_a.retained_file_count().unwrap(), 0);
        let mut live: Vec<String> = cat_a
            .stored_file_bytes("t")
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        live.push("LOCK".to_string());
        for entry in std::fs::read_dir(dir_a.path()).unwrap() {
            let file = entry.unwrap().file_name().to_string_lossy().into_owned();
            prop_assert!(
                live.contains(&file),
                "seed {}: orphan '{}' survived the reopen",
                seed,
                file
            );
        }

        // Mutation check: flip one random byte of one random stored file
        // (manifest or segment) — the read must fail, proving the
        // torn/truncated/corrupt verification bites; restoring the byte
        // restores the table.
        let files = cat_b.stored_file_bytes("t").unwrap();
        let (victim_name, victim_bytes) = &files[rng.gen_range(0..files.len())];
        if !victim_bytes.is_empty() {
            let pos = rng.gen_range(0..victim_bytes.len());
            let path = dir_b.path().join(victim_name);
            let mut mutated = victim_bytes.clone();
            mutated[pos] ^= 1u8 << rng.gen_range(0..8u32);
            std::fs::write(&path, &mutated).unwrap();
            prop_assert!(
                cat_b.read_table("t").is_err(),
                "seed {}: flipped byte {} of '{}' went undetected",
                seed,
                pos,
                victim_name
            );
            std::fs::write(&path, victim_bytes).unwrap();
            prop_assert_eq!(&cat_b.read_table("t").unwrap(), &expected);
        }
    }
}

/// Truncating a committed segment (a torn write that lost its tail) is
/// rejected by the length check before the checksum even runs.
#[test]
fn truncated_segment_file_is_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &rows(&mut rng, 30)).unwrap();
    cat.append_table("t", &rows(&mut rng, 5)).unwrap();
    let seg = dir.path().join("t.1.seg");
    let good = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        cat.read_table("t"),
        Err(sc_engine::EngineError::Corrupt(_))
    ));
    // The canonical prefix (segment 0) is untouched, so a compact-from-
    // backup style recovery is possible; here just restore and move on.
    std::fs::write(&seg, &good).unwrap();
    assert_eq!(cat.read_table("t").unwrap().num_rows(), 35);
}

/// A manifest whose recorded row count disagrees with the decoded
/// segment is corruption — the metadata row count feeds `row_count()`
/// and the append-path metrics, so it must never drift from the data.
#[test]
fn manifest_row_count_mismatch_is_rejected() {
    let mut rng = StdRng::seed_from_u64(8);
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &rows(&mut rng, 10)).unwrap();
    // Flip the low byte of the manifest's rows field (offset: 4 magic +
    // 2 version + 4 nsegs + 8 id = 18).
    let manifest_path = dir.path().join("t.sctb");
    let mut manifest = std::fs::read(&manifest_path).unwrap();
    manifest[18] ^= 0xFF;
    std::fs::write(&manifest_path, &manifest).unwrap();
    assert!(matches!(
        cat.read_table("t"),
        Err(sc_engine::EngineError::Corrupt(_))
    ));
}
