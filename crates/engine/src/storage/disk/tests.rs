use std::time::Duration;

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

/// Every file in the catalog's directory that is neither its lock nor a
/// live file of a stored table: retained copies, `.tmp` files and
/// unreferenced segments. Planted directories are not files.
fn debris(cat: &DiskCatalog) -> Vec<String> {
    let mut live = vec![naming::LOCK.to_string()];
    for table in cat.list().unwrap() {
        live.extend(
            cat.stored_file_bytes(&table)
                .unwrap()
                .into_iter()
                .map(|(f, _)| f),
        );
    }
    let mut out: Vec<String> = fs::read_dir(cat.dir())
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.metadata().unwrap().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| !live.contains(f))
        .collect();
    out.sort();
    out
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
    // The replaced segment files are gone.
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
    // Open's recovery leaves a stem whose manifest does not decode alone.
    drop(cat);
    let cat = DiskCatalog::open(dir.path()).unwrap();
    assert!(dir.path().join("t.0.seg").exists());
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

/// `rows` rows of one column of every stored type.
fn wide(rows: std::ops::Range<i64>) -> Table {
    let mut t = TableBuilder::new()
        .column("id", DataType::Int64)
        .column("tag", DataType::Utf8)
        .column("price", DataType::Float64)
        .column("ok", DataType::Bool)
        .column("day", DataType::Date)
        .build();
    for i in rows {
        t.push_row(vec![
            Value::Int64(i),
            Value::Utf8(format!("tag-{i}")),
            Value::Float64(i as f64 / 4.0),
            Value::Bool(i % 3 == 0),
            Value::Date(19_000 + i as i32),
        ])
        .unwrap();
    }
    t
}

/// `table`'s columns named in `names`, in the table's order.
fn project(table: &Table, names: &[&str]) -> Table {
    let kept: Vec<usize> = (0..table.num_columns())
        .filter(|&c| names.contains(&table.schema().fields()[c].name.as_str()))
        .collect();
    let fields = kept
        .iter()
        .map(|&c| table.schema().fields()[c].clone())
        .collect();
    let columns = kept.iter().map(|&c| table.column(c).clone()).collect();
    Table::new(Arc::new(Schema::new(fields).unwrap()), columns).unwrap()
}

#[test]
fn a_projected_read_decodes_only_the_named_columns() {
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &wide(0..50)).unwrap();
    cat.append_table("t", &wide(50..80)).unwrap();
    cat.append_table("t", &wide(80..83)).unwrap();
    let full = cat.read_table("t").unwrap();
    assert_eq!(full, wide(0..83));
    // Asked in another order, with a repeat: stored order, each once.
    let cols: Vec<String> = ["day", "tag", "id", "day"].map(String::from).to_vec();
    let got = cat.read_columns("t", &cols).unwrap();
    assert_eq!(got, project(&full, &["id", "tag", "day"]));
    let pin = cat.pin();
    assert_eq!(*pin.projected("t", &cols).unwrap(), got);
    for one in ["price", "ok"] {
        assert_eq!(
            cat.read_columns("t", &[one.to_string()]).unwrap(),
            project(&full, &[one])
        );
    }

    // Every segment is still hashed once, whole.
    let manifest_bytes = fs::read(dir.path().join("t.sctb")).unwrap().len() as u64;
    let before = cat.hashed_bytes.load(Ordering::Relaxed);
    cat.read_columns("t", &cols).unwrap();
    assert_eq!(
        cat.hashed_bytes.load(Ordering::Relaxed) - before,
        cat.size_of("t").unwrap() - manifest_bytes
    );

    // A name the table lacks is a typed error, live or pinned.
    let unknown = vec!["id".to_string(), "nope".to_string()];
    assert!(matches!(
        cat.read_columns("t", &unknown),
        Err(EngineError::UnknownColumn(c)) if c == "nope"
    ));
    assert!(matches!(
        pin.projected("t", &unknown),
        Err(EngineError::UnknownColumn(_))
    ));
}

#[test]
fn a_flipped_byte_in_a_skipped_column_fails_the_projected_read() {
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &wide(0..40)).unwrap();
    let seg = dir.path().join(naming::segment(&naming::stem("t"), 0));
    let good = fs::read(&seg).unwrap();
    // Walk the framing to the `tag` payload (column 1): the header, then
    // `id`'s `[len u64][payload]`, then `tag`'s length.
    let mut rest = Bytes::from(good.clone());
    format::decode_header(&mut rest).unwrap();
    let id_payload = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
    let tag_payload = good.len() - rest.len() + 8 + id_payload + 8;
    let read = |cat: &DiskCatalog| cat.read_columns("t", &["id".into(), "price".into()]);
    assert!(read(&cat).is_ok());
    for offset in [0, 5, 17] {
        let mut bad = good.clone();
        bad[tag_payload + offset] ^= 0x20;
        fs::write(&seg, &bad).unwrap();
        assert!(
            matches!(read(&cat), Err(EngineError::Corrupt(_))),
            "flip at tag payload + {offset} was not rejected"
        );
    }
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
    // "Crash": roll the manifest back (the append's commit was lost,
    // its segment is now an orphan), with a torn `.tmp` beside it.
    fs::write(dir.path().join("t.sctb"), &manifest_before).unwrap();
    fs::write(dir.path().join("t.2.seg.tmp"), b"torn").unwrap();
    drop(cat);
    let cat = DiskCatalog::open(dir.path()).unwrap();
    assert_eq!(cat.read_table("t").unwrap(), sample(0..20));
    assert_eq!(cat.row_count("t").unwrap(), 20);
    // Open deleted the orphan and the `.tmp`.
    assert!(!dir.path().join("t.1.seg").exists());
    assert_eq!(debris(&cat), Vec::<String>::new());
    assert_eq!(cat.retained_file_count().unwrap(), 0);
}

#[test]
fn lost_drop_is_finished_at_open() {
    // A crash inside `drop_table` after the manifest went but before
    // the segments did.
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &sample(0..5)).unwrap();
    cat.append_table("t", &sample(5..7)).unwrap();
    cat.write_table("keep", &sample(0..3)).unwrap();
    fs::remove_file(dir.path().join("t.sctb")).unwrap();
    drop(cat);
    let cat = DiskCatalog::open(dir.path()).unwrap();
    assert_eq!(cat.list().unwrap(), vec!["keep"]);
    assert!(!dir.path().join("t.0.seg").exists());
    assert!(!dir.path().join("t.1.seg").exists());
    assert_eq!(debris(&cat), Vec::<String>::new());
    assert_eq!(cat.retained_file_count().unwrap(), 0);
    assert_eq!(cat.read_table("keep").unwrap(), sample(0..3));
}

#[test]
fn a_directory_has_one_owner_at_a_time() {
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("t", &sample(0..4)).unwrap();
    match DiskCatalog::open(dir.path()) {
        Err(EngineError::CatalogLocked(locked)) => assert_eq!(locked, dir.path()),
        other => panic!("expected CatalogLocked, got {other:?}"),
    }
    assert!(matches!(
        DiskCatalog::open_throttled(dir.path(), Throttle::fast()),
        Err(EngineError::CatalogLocked(_))
    ));
    // The live handle is unaffected; once it drops, the directory
    // reopens in the same process.
    assert_eq!(cat.read_table("t").unwrap(), sample(0..4));
    drop(cat);
    let cat = DiskCatalog::open(dir.path()).unwrap();
    assert_eq!(cat.read_table("t").unwrap(), sample(0..4));
}

#[test]
fn failed_commits_leave_the_prior_version_and_no_debris() {
    // A directory planted where a commit writes its `.tmp` makes that
    // write fail without a crash: first the new segment's, then the
    // manifest's, for a rewrite and for an append, unpinned and with a
    // pin live (which makes the commit retain a manifest copy too).
    let cases = [
        (false, "t.0.seg.tmp"),
        (false, "t.sctb.tmp"),
        (true, "t.2.seg.tmp"),
        (true, "t.sctb.tmp"),
    ];
    for pinned in [false, true] {
        for (append, plant) in cases {
            let case = format!("pinned {pinned}, append {append}, plant {plant}");
            let dir = tempfile::tempdir().unwrap();
            let cat = DiskCatalog::open(dir.path()).unwrap();
            cat.write_table("t", &sample(0..10)).unwrap();
            cat.append_table("t", &sample(10..15)).unwrap();
            let before = cat.stored_file_bytes("t").unwrap();
            let pin = pinned.then(|| cat.pin());
            fs::create_dir(dir.path().join(plant)).unwrap();
            let result = if append {
                cat.append_table("t", &sample(15..20))
            } else {
                cat.write_table("t", &sample(100..120))
            };
            assert!(result.is_err(), "{case}: the commit must fail");
            assert_eq!(cat.stored_file_bytes("t").unwrap(), before, "{case}");
            assert_eq!(cat.read_table("t").unwrap(), sample(0..15), "{case}");
            assert_eq!(cat.retained_file_count().unwrap(), 0, "{case}");
            assert_eq!(debris(&cat), Vec::<String>::new(), "{case}");
            if let Some(pin) = &pin {
                assert_eq!(pin.read_table("t").unwrap(), sample(0..15), "{case}");
            }
            drop(pin);
            // With the plant gone, the next commit succeeds.
            fs::remove_dir(dir.path().join(plant)).unwrap();
            cat.append_table("t", &sample(15..20)).unwrap();
            assert_eq!(cat.read_table("t").unwrap(), sample(0..20), "{case}");
            assert_eq!(debris(&cat), Vec::<String>::new(), "{case}");
        }
    }
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
    let new_seg_bytes = fs::read(&seg).unwrap();
    let reopen = |cat: DiskCatalog| {
        drop(cat);
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert_eq!(cat.retained_file_count().unwrap(), 0);
        assert_eq!(debris(&cat), Vec::<String>::new());
        cat
    };

    // Crash window 2: old segment renamed into the retained
    // namespace and the new segment landed, but the manifest commit
    // was lost — open restores the retained copy the old manifest
    // needs. A torn older copy is tried first and deleted.
    fs::write(&manifest_path, &old_manifest).unwrap();
    fs::write(dir.path().join("t.0.seg~3"), b"torn").unwrap();
    fs::write(dir.path().join("t.0.seg~9"), &old_seg_bytes).unwrap();
    let cat = reopen(cat);
    assert_eq!(cat.read_table("t").unwrap(), v_old);

    // Crash window 1: old segment already renamed away, new segment
    // never written.
    fs::rename(&seg, dir.path().join("t.0.seg~4")).unwrap();
    let cat = reopen(cat);
    assert_eq!(cat.read_table("t").unwrap(), v_old);

    // After the manifest commit: the new version is live, and its
    // superseded copies are debris.
    cat.write_table("t", &v_new).unwrap();
    fs::write(dir.path().join("t.0.seg~5"), &old_seg_bytes).unwrap();
    fs::write(dir.path().join("t.sctb~5"), &old_manifest).unwrap();
    let cat = reopen(cat);
    assert_eq!(cat.read_table("t").unwrap(), v_new);
    assert_eq!(fs::read(&seg).unwrap(), new_seg_bytes);
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
fn live_and_pinned_listings_agree_on_logical_names() {
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("enriched.sales", &sample(0..3)).unwrap();
    cat.write_table("plain", &sample(0..2)).unwrap();
    assert_eq!(cat.list().unwrap(), vec!["enriched.sales", "plain"]);
    assert_eq!(cat.list().unwrap(), cat.pin().tables().unwrap());
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
fn paper_disk_constants() {
    let t = Throttle::paper_disk();
    assert!((t.read_bps - 519.8e6).abs() < 1.0);
    assert!((t.write_bps - 358.9e6).abs() < 1.0);
}

#[test]
fn retention_hook_tracks_the_gc_horizon() {
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    type Sink = Arc<std::sync::Mutex<Vec<u64>>>;
    let subscribe = |sink: &Sink| {
        let sink = Arc::clone(sink);
        cat.subscribe_retention(move |h| sink.lock().unwrap().push(h))
    };
    let (horizons, others): (Sink, Sink) = Default::default();
    let subscription = subscribe(&horizons);
    let other = subscribe(&others);

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

    // Subscriptions stack: the second saw every report the first did.
    assert_eq!(*others.lock().unwrap(), *horizons.lock().unwrap());

    // Dropping a subscription stops its notifications only.
    let before = horizons.lock().unwrap().len();
    drop(subscription);
    cat.write_table("t", &sample(0..30)).unwrap();
    assert_eq!(horizons.lock().unwrap().len(), before);
    assert_eq!(others.lock().unwrap().last(), Some(&3));
    drop(other);
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

#[test]
fn append_checks_a_schema_whose_header_outgrows_the_prefix_read() {
    // Twenty 300-byte column names: a ~6 KB header, past HEADER_PREFIX.
    let names: Vec<String> = (0..20).map(|i| format!("{i:0>300}")).collect();
    let wide = |last: DataType| {
        let mut b = TableBuilder::new();
        for (i, name) in names.iter().enumerate() {
            b = b.column(name.clone(), if i == 19 { last } else { DataType::Int64 });
        }
        let mut t = b.build();
        let row = (0..20)
            .map(|i| match (i, last) {
                (19, DataType::Bool) => Value::Bool(true),
                _ => Value::Int64(i),
            })
            .collect();
        t.push_row(row).unwrap();
        t
    };
    let dir = tempfile::tempdir().unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_table("w", &wide(DataType::Int64)).unwrap();
    assert!(cat.append_table("w", &wide(DataType::Int64)).unwrap() > 0);
    let err = cat.append_table("w", &wide(DataType::Bool)).unwrap_err();
    assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err}");
    assert_eq!(cat.read_table("w").unwrap().num_rows(), 2);
    assert_eq!(cat.segment_count("w").unwrap(), 2);
}
