//! The catalog's file-name format, and the one directory scan that
//! parses it.
//!
//! A table name maps to a path-safe **stem** ([`stem`]); its files are
//! the manifest `<stem>.sctb` and the row segments `<stem>.<id>.seg`. A
//! superseded copy kept for pinned readers is `<file>~<epoch>`
//! ([`retained_name`]), and a file being written is `<file>.tmp` until
//! its rename. Stems never contain `.` or `~`, so every name parses
//! unambiguously.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The file whose lock marks the directory as owned by one open
/// catalog.
pub(super) const LOCK: &str = "LOCK";

/// Which file of a table a name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// `<stem>.sctb`.
    Manifest,
    /// `<stem>.<id>.seg`.
    Segment(u64),
    /// A live file's `<file>.tmp`, left behind by a writer that died
    /// before its rename.
    Tmp,
}

/// A parsed catalog file name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct FileName {
    pub stem: String,
    pub kind: Kind,
    /// The supersede epoch of a retained copy; `None` for a live file.
    pub retained: Option<u64>,
}

/// The file stem `name` materializes under: every character outside
/// `[A-Za-z0-9_-]` becomes `_`, which keeps files inside the catalog
/// directory and keeps `.` and `~` free for the separators.
pub(super) fn stem(name: &str) -> String {
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

pub(super) fn manifest(stem: &str) -> String {
    format!("{stem}.sctb")
}

pub(super) fn segment(stem: &str, id: u64) -> String {
    format!("{stem}.{id}.seg")
}

/// Where `file` is written before the rename that publishes it.
pub(super) fn tmp(file: &str) -> String {
    format!("{file}.tmp")
}

/// File name under which a *superseded* copy of `file` is retained for
/// epoch-pinned readers: `<file>~<epoch>`, where `epoch` is the commit
/// that replaced it. `~` never appears in a sanitized table stem, so the
/// live namespace (`<stem>.sctb`, `<stem>.<id>.seg`) and the retained
/// namespace cannot collide, and the manifest/segment *bytes* of the
/// live version never carry an epoch — the byte-identity contracts over
/// canonical form are untouched by retention.
pub fn retained_name(file: &str, epoch: u64) -> String {
    format!("{file}~{epoch}")
}

/// Parses a retained-file name back into `(live file name, supersede
/// epoch)`; `None` for live-namespace files.
pub fn parse_retained(file: &str) -> Option<(&str, u64)> {
    let (base, suffix) = file.rsplit_once('~')?;
    if base.is_empty() {
        return None;
    }
    suffix.parse::<u64>().ok().map(|epoch| (base, epoch))
}

/// Parses one file name; `None` for anything that is not a live,
/// retained or `.tmp` table file (the lock file, the observation
/// sidecar).
pub(super) fn parse(file: &str) -> Option<FileName> {
    if let Some(live) = file.strip_suffix(".tmp") {
        let f = parse(live).filter(|f| f.retained.is_none())?;
        return Some(FileName {
            kind: Kind::Tmp,
            ..f
        });
    }
    let (live, retained) = match parse_retained(file) {
        Some((live, epoch)) => (live, Some(epoch)),
        None => (file, None),
    };
    let (stem, rest) = live.split_once('.')?;
    let kind = match rest {
        "sctb" => Kind::Manifest,
        _ => Kind::Segment(rest.strip_suffix(".seg")?.parse().ok()?),
    };
    Some(FileName {
        stem: stem.to_string(),
        kind,
        retained,
    })
}

/// Every table file in `dir`, parsed, with its path.
pub(super) fn scan(dir: &Path) -> io::Result<Vec<(PathBuf, FileName)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(name) = path.file_name().and_then(|f| f.to_str()).and_then(parse) {
            out.push((path, name));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(stem: &str, kind: Kind, retained: Option<u64>) -> Option<FileName> {
        Some(FileName {
            stem: stem.to_string(),
            kind,
            retained,
        })
    }

    #[test]
    fn parse_inverts_every_generated_name() {
        let s = stem("enriched.sales");
        assert_eq!(s, "enriched_sales");
        assert_eq!(parse(&manifest(&s)), name(&s, Kind::Manifest, None));
        assert_eq!(parse(&segment(&s, 12)), name(&s, Kind::Segment(12), None));
        assert_eq!(
            parse(&retained_name(&segment(&s, 3), 7)),
            name(&s, Kind::Segment(3), Some(7))
        );
        assert_eq!(
            parse(&retained_name(&manifest(&s), 9)),
            name(&s, Kind::Manifest, Some(9))
        );
        assert_eq!(parse(&tmp(&manifest(&s))), name(&s, Kind::Tmp, None));
        assert_eq!(parse(&tmp(&segment(&s, 4))), name(&s, Kind::Tmp, None));
        for other in [
            "LOCK".to_string(),
            "observations.scst".to_string(),
            tmp("observations.scst"),
            "t.x.seg".to_string(),
            "t.sctb~".to_string(),
            "nodot".to_string(),
        ] {
            assert_eq!(parse(&other), None, "{other} is not a table file");
        }
    }
}
