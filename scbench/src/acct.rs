//! Storage accounting taken from outside the engine, by listing the
//! catalog directory between operations: bytes written (for `write_amp`)
//! and bytes held (for `space_amp`).
//!
//! The engine replaces files by tmp + rename and moves superseded files
//! into the retained namespace (`<file>~<epoch>`) by rename, so a live
//! file whose identity changed since the previous listing was written in
//! between, while a retained file never is a new write. Files created
//! and deleted inside one operation (tmp files, per-run delta spills)
//! are not seen.

use std::collections::HashMap;
use std::io;
use std::os::unix::fs::MetadataExt;
use std::path::Path;

use sc_engine::storage::format::{encoded_size, parse_retained};
use sc_engine::storage::DiskCatalog;

/// One directory entry, as far as accounting cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    pub name: String,
    pub len: u64,
    /// Inode and mtime: together they change whenever the file is
    /// replaced, even by equal-length content.
    pub ino: u64,
    pub mtime_ns: i64,
}

/// Lists the regular files of `dir`, sorted by name.
pub fn list_dir(dir: &Path) -> io::Result<Vec<FileStat>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        // A file can vanish between readdir and stat (epoch GC runs on
        // the server's threads); it then simply is not there.
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        out.push(FileStat {
            name: entry.file_name().to_string_lossy().into_owned(),
            len: meta.len(),
            ino: meta.ino(),
            mtime_ns: meta.mtime() * 1_000_000_000 + meta.mtime_nsec(),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

fn is_retained(name: &str) -> bool {
    parse_retained(name).is_some()
}

fn is_tmp(name: &str) -> bool {
    name.ends_with(".tmp")
}

/// Running count of bytes the engine wrote into one directory.
#[derive(Debug, Default)]
pub struct WriteMeter {
    seen: HashMap<String, (u64, i64, u64)>,
    /// Total bytes of live files written since the baseline listing.
    pub written: u64,
}

impl WriteMeter {
    /// Starts metering from `baseline` (nothing in it counts as written).
    pub fn new(baseline: &[FileStat]) -> Self {
        let mut m = WriteMeter::default();
        m.observe(baseline);
        m.written = 0;
        m
    }

    /// Accounts one new listing; returns the bytes written since the
    /// previous one.
    pub fn observe(&mut self, listing: &[FileStat]) -> u64 {
        let mut delta = 0;
        let mut seen = HashMap::with_capacity(listing.len());
        for f in listing {
            if is_retained(&f.name) || is_tmp(&f.name) {
                continue;
            }
            let id = (f.ino, f.mtime_ns, f.len);
            if self.seen.get(&f.name) != Some(&id) {
                delta += f.len;
            }
            seen.insert(f.name.clone(), id);
        }
        self.seen = seen;
        self.written += delta;
        delta
    }
}

/// What a directory holds at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Space {
    /// Every byte in the directory: live, retained, tmp, sidecar.
    pub total_bytes: u64,
    pub retained_files: u64,
}

pub fn space(listing: &[FileStat]) -> Space {
    let mut s = Space::default();
    for f in listing {
        s.total_bytes += f.len;
        if is_retained(&f.name) {
            s.retained_files += 1;
        }
    }
    s
}

/// The storage books of one run: bytes written against bytes ingested
/// over a fixed window of rounds, and what the directory holds.
#[derive(Debug)]
pub struct Ledger {
    meter: WriteMeter,
    /// In-memory bytes of the change batches ingested so far.
    pub ingested: u64,
    /// Most retained (`~epoch`) files seen in any listing.
    pub retained_files_max: u64,
    /// Total bytes in the directory at the latest listing.
    pub bytes_on_disk: u64,
    /// Written ÷ ingested over the accounting window, once it closed.
    pub write_amp: Option<f64>,
    /// Directory bytes ÷ canonical encoded bytes of the live tables.
    pub space_amp: Option<f64>,
}

impl Ledger {
    /// Opens the books on `disk`'s directory as it stands.
    pub fn open(disk: &DiskCatalog) -> io::Result<Ledger> {
        Ok(Ledger {
            meter: WriteMeter::new(&list_dir(disk.dir())?),
            ingested: 0,
            retained_files_max: 0,
            bytes_on_disk: 0,
            write_amp: None,
            space_amp: None,
        })
    }

    pub fn written(&self) -> u64 {
        self.meter.written
    }

    /// Lists the directory and books what changed since the last listing.
    pub fn observe(&mut self, disk: &DiskCatalog) -> io::Result<()> {
        let listing = list_dir(disk.dir())?;
        self.meter.observe(&listing);
        let held = space(&listing);
        self.retained_files_max = self.retained_files_max.max(held.retained_files);
        self.bytes_on_disk = held.total_bytes;
        Ok(())
    }

    /// Fixes `write_amp` from everything booked so far.
    pub fn close_window(&mut self) {
        self.write_amp = Some(self.meter.written as f64 / self.ingested.max(1) as f64);
    }

    /// Fixes `space_amp`: every byte in the directory, retained files
    /// and segment/manifest overhead included, over what the live tables
    /// would take in canonical single-segment form.
    pub fn measure_space(&mut self, disk: &DiskCatalog) -> sc_engine::Result<()> {
        let held = space(&list_dir(disk.dir())?);
        let mut canonical = 0;
        for name in disk.list()? {
            canonical += encoded_size(&disk.read_table(&name)?);
        }
        self.space_amp = Some(held.total_bytes as f64 / canonical.max(1) as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, len: u64, ino: u64, mtime_ns: i64) -> FileStat {
        FileStat {
            name: name.into(),
            len,
            ino,
            mtime_ns,
        }
    }

    #[test]
    fn rewrites_and_appends_count_retained_renames_do_not() {
        let base = vec![f("t.sctb", 40, 1, 10), f("t.0.seg", 1000, 2, 10)];
        let mut m = WriteMeter::new(&base);
        assert_eq!(m.written, 0);
        assert_eq!(m.observe(&base), 0, "an unchanged listing writes nothing");

        // Append: a new segment plus a recommitted manifest.
        let appended = vec![
            f("t.sctb", 60, 3, 20),
            f("t.0.seg", 1000, 2, 10),
            f("t.1.seg", 50, 4, 20),
        ];
        assert_eq!(m.observe(&appended), 60 + 50);

        // Rewrite while a reader pins the old version: the superseded
        // files move to `~epoch` names (same inodes) and must not count,
        // nor may an in-flight tmp file.
        let rewritten = vec![
            f("t.sctb", 40, 5, 30),
            f("t.0.seg", 1050, 6, 30),
            f("t.sctb~7", 60, 3, 20),
            f("t.0.seg~7", 1000, 2, 10),
            f("t.1.seg~7", 50, 4, 20),
            f("u.sctb.tmp", 999, 9, 30),
        ];
        assert_eq!(m.observe(&rewritten), 40 + 1050);
        assert_eq!(m.written, 110 + 1090);

        // Same length, same name, but replaced (new inode): still a write.
        let replaced = vec![f("t.sctb", 40, 5, 30), f("t.0.seg", 1050, 8, 40)];
        assert_eq!(m.observe(&replaced), 1050);
    }

    #[test]
    fn space_counts_retained_files_too() {
        let listing = vec![
            f("t.sctb", 40, 1, 0),
            f("t.0.seg", 1000, 2, 0),
            f("t.0.seg~12", 900, 3, 0),
            f("t.sctb~12", 40, 4, 0),
            f("observations.scst", 20, 5, 0),
        ];
        assert_eq!(
            space(&listing),
            Space {
                total_bytes: 2000,
                retained_files: 2,
            }
        );
        // `~` followed by a non-number is a live name, not a retained one.
        assert_eq!(space(&[f("odd~name", 5, 1, 0)]).retained_files, 0);
    }
}
