//! The on-disk table format (the role Parquet plays in the paper's
//! implementation): a self-describing little-endian columnar layout, plus
//! the **segment manifest** that stitches a table together from ordered
//! row-segment files.
//!
//! Segment payload (one file per segment, complete and self-describing):
//!
//! ```text
//! [magic "SCTB"] [version u16] [ncols u16] [nrows u64]
//! per column:  [name_len u16][name bytes][dtype u8]
//! per column:  [payload_len u64][payload bytes]
//! ```
//!
//! Fixed-width payloads are raw little-endian arrays; strings are
//! `[len u32][bytes]` sequences; booleans are bit-packed.
//!
//! Manifest (the `.sctb` file a table name resolves to), version 2:
//!
//! ```text
//! [magic "SCTM"] [version u16 = 2] [nsegs u32]
//! per segment: [id u64][rows u64][bytes u64][segment_checksum u64]
//! ```
//!
//! A table's contents are the row-concatenation of its segments in
//! manifest order. The manifest is the *commit point*: a segment file not
//! referenced by the manifest is invisible (see
//! [`crate::storage::DiskCatalog`] for the append/commit/compact
//! protocol), and every referenced segment is verified against its
//! recorded byte length and [`segment_checksum`] at read time — once per
//! segment per read — so torn or truncated segment files are rejected
//! instead of silently read.
//!
//! What the verification guarantees: a segment file whose length differs
//! from the manifest's `bytes` is rejected with certainty (the length is
//! compared exactly before anything is hashed), and so is a same-length
//! file whose corruption is confined to one 8-byte word (see
//! [`segment_checksum`] for why). A corruption that spans words is
//! caught unless the two 64-bit hashes happen to agree: no guarantee,
//! but also no simple pattern — a few flipped bits in neighbouring
//! words — that gets through. Version 1 manifests carried a
//! byte-at-a-time FNV-1a in the same 32-byte entry; they are rejected as
//! an unsupported version rather than read through a second verify path
//! (every catalog is written by the build that reads it).

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::column::{Column, Utf8Column};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::{EngineError, Result};

const MAGIC: &[u8; 4] = b"SCTB";
const VERSION: u16 = 1;

const MANIFEST_MAGIC: &[u8; 4] = b"SCTM";
const MANIFEST_VERSION: u16 = 2;

/// FNV-1a 64-bit hash: the checksum of small metadata (plan
/// fingerprints, the observation sidecar). Segment files use
/// [`segment_checksum`], which reads a word at a time.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The two odd multipliers of every absorb step, and the seeds of the
/// four lanes and the fold (xxHash's primes: odd, with no short bit
/// pattern).
const ABSORB_MUL: [u64; 2] = [0x9E37_79B1_85EB_CA87, 0xC2B2_AE3D_27D4_EB4F];
const LANE_SEEDS: [u64; 4] = [
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];
const FOLD_SEED: u64 = 0x9FB2_1C65_1E98_DF25;
/// Bytes one pass of the lane loop consumes: one word per lane.
const STRIPE: usize = LANE_SEEDS.len() * 8;

/// Absorbs one word into an accumulator. Xor, multiply by an odd
/// constant and rotate are each invertible, which is what
/// [`segment_checksum`]'s one-word guarantee rests on. The second
/// multiply is what keeps two-word corruptions from cancelling: a
/// multiply only carries a difference upwards, so after the first one a
/// flipped top bit of `word` is still a single bit, which the rotate
/// merely moves — and the matching bit of the next word absorbed would
/// xor it away. Multiplying again after the rotate spreads it over the
/// upper half of the state, and the next step over all of it.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word)
        .wrapping_mul(ABSORB_MUL[0])
        .rotate_left(29)
        .wrapping_mul(ABSORB_MUL[1])
}

/// The per-segment checksum recorded in (version 2) manifests.
///
/// The buffer is read as little-endian 64-bit words. Whole 32-byte
/// stripes feed four independent accumulators, one word each, so the
/// four multiply chains overlap and the loop runs near memory speed
/// where a byte-at-a-time hash is bound by one serial multiply per byte.
/// The accumulators are then folded, in lane order, into one state
/// seeded with the buffer length; the up-to-three whole words after the
/// last stripe and the zero-padded final partial word follow, and a
/// bijective avalanche finishes.
///
/// Every step is `state = (((state ^ word) * ODD₁).rotate_left(29)) *
/// ODD₂`: a bijection of `state` for a fixed word, and of the word for a
/// fixed state. So two buffers of equal length that differ only inside
/// one 8-byte word (at an offset that is a multiple of 8) always hash
/// differently: the differing word leaves its accumulator different, and
/// every later step — the same on both sides — maps different states to
/// different states. A corruption that spans words carries no such
/// guarantee — no 64-bit checksum can give one — but there is no cheap
/// pattern that defeats it either: the state difference the next word
/// would have to cancel is dense and depends on the data (every pair of
/// bit flips in a test buffer is checked to change the hash).
pub fn segment_checksum(data: &[u8]) -> u64 {
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    let mut lanes = LANE_SEEDS;
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = absorb(*lane, word(bytes));
        }
    }
    let mut hash = FOLD_SEED ^ data.len() as u64;
    for lane in lanes {
        hash = absorb(hash, lane);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for bytes in &mut words {
        hash = absorb(hash, word(bytes));
    }
    let rest = words.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    hash = absorb(hash, u64::from_le_bytes(last));
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(ABSORB_MUL[1]);
    hash ^ (hash >> 29)
}

/// Manifest entry describing one committed row segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id (also the file name infix); ids are unique per table
    /// and strictly increase with append order.
    pub id: u64,
    /// Rows held by the segment.
    pub rows: u64,
    /// Exact byte length of the segment file.
    pub bytes: u64,
    /// [`segment_checksum`] of the segment file's bytes.
    pub checksum: u64,
}

/// The ordered segment list a table name resolves to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Segments in row order (concatenating them yields the table).
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Total rows across segments.
    pub fn total_rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Total segment-file bytes (excludes the manifest file itself).
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// The id the next appended segment must use.
    pub fn next_id(&self) -> u64 {
        self.segments.iter().map(|s| s.id + 1).max().unwrap_or(0)
    }
}

pub use super::disk::{parse_retained, retained_name};

/// Serializes a manifest.
pub fn encode_manifest(manifest: &Manifest) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + manifest.segments.len() * 32);
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u16_le(MANIFEST_VERSION);
    buf.put_u32_le(manifest.segments.len() as u32);
    for s in &manifest.segments {
        buf.put_u64_le(s.id);
        buf.put_u64_le(s.rows);
        buf.put_u64_le(s.bytes);
        buf.put_u64_le(s.checksum);
    }
    buf.freeze()
}

/// Deserializes a manifest, rejecting bad magic/version/truncation.
pub fn decode_manifest(mut data: Bytes) -> Result<Manifest> {
    if data.remaining() < 10 {
        return Err(EngineError::Corrupt("truncated manifest".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC {
        return Err(EngineError::Corrupt("bad manifest magic".into()));
    }
    let version = data.get_u16_le();
    if version != MANIFEST_VERSION {
        return Err(EngineError::Corrupt(format!(
            "unsupported manifest version {version}"
        )));
    }
    let nsegs = data.get_u32_le() as usize;
    if data.remaining() != nsegs * 32 {
        return Err(EngineError::Corrupt("truncated manifest".into()));
    }
    let mut segments = Vec::with_capacity(nsegs);
    for _ in 0..nsegs {
        segments.push(SegmentMeta {
            id: data.get_u64_le(),
            rows: data.get_u64_le(),
            bytes: data.get_u64_le(),
            checksum: data.get_u64_le(),
        });
    }
    Ok(Manifest { segments })
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(EngineError::Corrupt(format!("unknown dtype tag {other}"))),
    })
}

/// Exact byte length [`encode`] would produce for `table`, computed
/// without materializing the buffer — the append path uses this for its
/// O(delta) metrics so the delta rows are encoded only once, by the
/// write itself.
pub fn encoded_size(table: &Table) -> u64 {
    let mut len = (4 + 2 + 2 + 8) as u64;
    for f in table.schema().fields() {
        len += 2 + f.name.len() as u64 + 1;
    }
    for col in table.columns() {
        len += 8 + column_payload_len(col);
    }
    len
}

fn column_payload_len(col: &Column) -> u64 {
    match col {
        Column::Int64(v) => v.len() as u64 * 8,
        Column::Float64(v) => v.len() as u64 * 8,
        Column::Date(v) => v.len() as u64 * 4,
        Column::Bool(v) => v.len().div_ceil(8) as u64,
        Column::Utf8(v) => (4 * v.len() + v.value_bytes()) as u64,
    }
}

/// Serializes a table into the SCTB format, writing every column's
/// payload straight into one buffer of exactly [`encoded_size`] bytes.
pub fn encode(table: &Table) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(table) as usize);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(table.num_columns() as u16);
    buf.put_u64_le(table.num_rows() as u64);
    for f in table.schema().fields() {
        buf.put_u16_le(f.name.len() as u16);
        buf.put_slice(f.name.as_bytes());
        buf.put_u8(dtype_tag(f.dtype));
    }
    for col in table.columns() {
        buf.put_u64_le(column_payload_len(col));
        encode_column(col, &mut buf);
    }
    debug_assert_eq!(buf.len() as u64, encoded_size(table));
    buf.freeze()
}

fn encode_column(col: &Column, buf: &mut BytesMut) {
    match col {
        Column::Int64(v) => put_le(buf, v, i64::to_le_bytes),
        Column::Float64(v) => put_le(buf, v, f64::to_le_bytes),
        Column::Date(v) => put_le(buf, v, i32::to_le_bytes),
        Column::Bool(v) => {
            for bits in v.chunks(8) {
                let byte = bits
                    .iter()
                    .enumerate()
                    .fold(0u8, |byte, (i, &b)| byte | (b as u8) << i);
                buf.put_u8(byte);
            }
        }
        Column::Utf8(v) => {
            for s in v.iter() {
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Writes `values` little-endian through a stack block, so the buffer is
/// extended once per block rather than once per value.
fn put_le<T: Copy, const W: usize>(buf: &mut BytesMut, values: &[T], le: fn(T) -> [u8; W]) {
    let mut block = [0u8; 1024];
    for chunk in values.chunks(block.len() / W) {
        let used = &mut block[..chunk.len() * W];
        for (dst, &x) in used.chunks_exact_mut(W).zip(chunk) {
            dst.copy_from_slice(&le(x));
        }
        buf.put_slice(used);
    }
}

/// Deserializes a table from SCTB bytes.
///
/// Nothing is reserved from the header's row count until a column's
/// payload is known to hold that many rows, so a forged header fails as
/// `Corrupt` instead of asking for an impossible allocation.
pub fn decode(data: Bytes) -> Result<Table> {
    decode_segments(&[Segment::frame(data)?], None)
}

/// One SCTB segment, framed but not decoded: its schema, its row count,
/// and each column's payload as a view of the segment's bytes. Framing
/// reads every `[payload_len]` and checks that its payload lies inside
/// the segment, so a segment that frames is whole; decoding then touches
/// only the payloads a reader keeps.
pub(crate) struct Segment {
    schema: Schema,
    rows: usize,
    payloads: Vec<Bytes>,
}

impl Segment {
    /// Frames the segment `data`.
    pub(crate) fn frame(mut data: Bytes) -> Result<Segment> {
        let (schema, rows) = decode_header(&mut data)?;
        let mut payloads = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            need(&data, 8)?;
            let payload_len = usize::try_from(data.get_u64_le())
                .map_err(|_| EngineError::Corrupt("truncated file".into()))?;
            need(&data, payload_len)?;
            payloads.push(data.copy_to_bytes(payload_len));
        }
        Ok(Segment {
            schema,
            rows,
            payloads,
        })
    }

    /// The row count its header declares.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }
}

/// Decodes the row-concatenation of `segments` (one table's, in order)
/// in one pass, keeping only the columns named in `columns` (`None`:
/// every column), in stored order. Each kept column is sized once for
/// all segments and filled segment by segment; an unkept column's
/// payload is never read. Fails with [`EngineError::UnknownColumn`] for
/// a name the table lacks, and with a type mismatch when the segments'
/// schemas differ.
pub(crate) fn decode_segments(segments: &[Segment], columns: Option<&[String]>) -> Result<Table> {
    let schema = &segments
        .first()
        .ok_or_else(|| EngineError::InvalidPlan("a table needs at least one segment".into()))?
        .schema;
    if let Some(s) = segments.iter().find(|s| s.schema != *schema) {
        return Err(EngineError::TypeMismatch {
            expected: schema.to_string(),
            got: s.schema.to_string(),
            context: "segments".into(),
        });
    }
    let kept: Vec<usize> = match columns {
        None => (0..schema.len()).collect(),
        Some(names) => {
            let mut keep = vec![false; schema.len()];
            for name in names {
                keep[schema.index_of(name)?] = true;
            }
            (0..schema.len()).filter(|&c| keep[c]).collect()
        }
    };
    let mut fields = Vec::with_capacity(kept.len());
    let mut out = Vec::with_capacity(kept.len());
    for &c in &kept {
        let field = &schema.fields()[c];
        let parts = segments.iter().map(|s| (&s.payloads[c][..], s.rows));
        out.push(match field.dtype {
            DataType::Utf8 => Column::Utf8(decode_utf8(parts)?),
            dtype => {
                // Every payload's size is checked before the column is
                // sized from the headers' row counts.
                let mut rows = 0;
                for (payload, nrows) in parts.clone() {
                    check_fixed(dtype, payload.len(), nrows)?;
                    rows += nrows;
                }
                let mut col = Column::with_capacity(dtype, rows);
                for (payload, nrows) in parts {
                    decode_fixed(&mut col, payload, nrows);
                }
                col
            }
        });
        fields.push(field.clone());
    }
    Table::new(Arc::new(Schema::new(fields)?), out)
}

/// Parses the SCTB header at the front of `data` — magic, version, the
/// schema and the row count — and leaves `data` at the first column
/// payload. [`decode`] and the catalog's append schema check (which
/// reads only a segment's prefix) share it. A `data` cut inside the
/// header is `Corrupt("truncated file")`.
pub(crate) fn decode_header(data: &mut Bytes) -> Result<(Schema, usize)> {
    need(data, 4 + 2 + 2 + 8)?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(EngineError::Corrupt("bad magic".into()));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(EngineError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let ncols = data.get_u16_le() as usize;
    let nrows = usize::try_from(data.get_u64_le())
        .map_err(|_| EngineError::Corrupt("row count exceeds the address space".into()))?;

    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        need(data, 2)?;
        let name_len = data.get_u16_le() as usize;
        need(data, name_len + 1)?;
        let name_bytes = data.copy_to_bytes(name_len);
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| EngineError::Corrupt("non-utf8 column name".into()))?;
        let dtype = tag_dtype(data.get_u8())?;
        fields.push(Field::new(name, dtype));
    }
    Ok((Schema::new(fields)?, nrows))
}

/// Fails as a truncated file unless `data` holds at least `n` more bytes.
fn need(data: &Bytes, n: usize) -> Result<()> {
    if data.remaining() < n {
        Err(EngineError::Corrupt("truncated file".into()))
    } else {
        Ok(())
    }
}

/// Fails as `Corrupt` unless a `dtype` payload of `len` bytes holds
/// exactly `nrows` values.
fn check_fixed(dtype: DataType, len: usize, nrows: usize) -> Result<()> {
    let width = match dtype {
        DataType::Int64 | DataType::Float64 => 8,
        DataType::Date => 4,
        DataType::Bool if len == nrows.div_ceil(8) => return Ok(()),
        DataType::Bool => return Err(EngineError::Corrupt("bool column size mismatch".into())),
        DataType::Utf8 => unreachable!("strings are checked by decode_utf8"),
    };
    if nrows.checked_mul(width) != Some(len) {
        return Err(EngineError::Corrupt(format!(
            "column payload {len} != {nrows} rows × {width}"
        )));
    }
    Ok(())
}

/// Appends the `nrows` values of a fixed-width column's `payload`, whose
/// size [`check_fixed`] has checked, to `col`.
fn decode_fixed(col: &mut Column, payload: &[u8], nrows: usize) {
    match col {
        Column::Int64(v) => v.extend(
            payload
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap())),
        ),
        Column::Float64(v) => v.extend(
            payload
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
        ),
        Column::Date(v) => v.extend(
            payload
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap())),
        ),
        Column::Bool(v) => v.extend((0..nrows).map(|i| payload[i / 8] >> (i % 8) & 1 == 1)),
        Column::Utf8(_) => unreachable!("strings decode through decode_utf8"),
    }
}

/// Decodes `[len u32][bytes]` payloads — each `(payload, rows)` one
/// segment's — into one offsets array and one byte buffer, both sized
/// for every segment first. The buffer is validated as UTF-8 once, as a
/// whole; every offset must then also fall on a character boundary, or a
/// character split across two values would pass.
fn decode_utf8<'a>(parts: impl Iterator<Item = (&'a [u8], usize)> + Clone) -> Result<Utf8Column> {
    let truncated = || EngineError::Corrupt("truncated string column".into());
    let (mut rows, mut value_bytes) = (0usize, 0usize);
    for (payload, nrows) in parts.clone() {
        let prefixes = nrows.checked_mul(4).ok_or_else(truncated)?;
        value_bytes += payload.len().checked_sub(prefixes).ok_or_else(truncated)?;
        rows += nrows;
    }
    let mut offsets = Vec::with_capacity(rows + 1);
    // `SLACK` bytes past the last value let a short value move as one
    // fixed-size copy; the bytes it carries past its end are overwritten
    // by the next value or cut off below.
    const SLACK: usize = 16;
    let mut bytes = vec![0u8; value_bytes + SLACK];
    let mut end = 0;
    offsets.push(0);
    for (payload, nrows) in parts {
        let mut rest = payload;
        for _ in 0..nrows {
            let (len, tail) = rest.split_first_chunk::<4>().ok_or_else(truncated)?;
            let len = u32::from_le_bytes(*len) as usize;
            let (value, after) = tail
                .split_at_checked(len)
                .ok_or_else(|| EngineError::Corrupt("truncated string value".into()))?;
            match tail.first_chunk::<SLACK>() {
                Some(word) if len <= SLACK => bytes[end..end + SLACK].copy_from_slice(word),
                _ => bytes[end..end + len].copy_from_slice(value),
            }
            end += len;
            offsets.push(end);
            rest = after;
        }
        if !rest.is_empty() {
            return Err(EngineError::Corrupt(
                "trailing bytes in string column".into(),
            ));
        }
    }
    bytes.truncate(end);
    let bytes =
        String::from_utf8(bytes).map_err(|_| EngineError::Corrupt("non-utf8 string".into()))?;
    if !offsets.iter().all(|&o| bytes.is_char_boundary(o)) {
        return Err(EngineError::Corrupt("non-utf8 string".into()));
    }
    Ok(Utf8Column::from_parts(offsets, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::Value;

    #[test]
    fn retained_names_roundtrip_and_reject_live_files() {
        assert_eq!(retained_name("t.sctb", 7), "t.sctb~7");
        assert_eq!(parse_retained("t.sctb~7"), Some(("t.sctb", 7)));
        assert_eq!(parse_retained("t.12.seg~3"), Some(("t.12.seg", 3)));
        // Live-namespace files and malformed suffixes never parse.
        assert_eq!(parse_retained("t.sctb"), None);
        assert_eq!(parse_retained("t.0.seg"), None);
        assert_eq!(parse_retained("t.sctb~"), None);
        assert_eq!(parse_retained("t.sctb~x"), None);
        assert_eq!(parse_retained("~3"), None);
        // Nested retention parses on the *last* separator, so retained
        // names stay invertible even if a retained file were re-retained.
        assert_eq!(parse_retained("t.sctb~2~5"), Some(("t.sctb~2", 5)));
    }

    fn full_table() -> Table {
        let mut t = TableBuilder::new()
            .column("i", DataType::Int64)
            .column("f", DataType::Float64)
            .column("s", DataType::Utf8)
            .column("b", DataType::Bool)
            .column("d", DataType::Date)
            .build();
        for i in 0..13i64 {
            t.push_row(vec![
                Value::Int64(i * 7 - 3),
                Value::Float64(i as f64 * 0.5 - 1.0),
                Value::Utf8(format!("row-{i}-αβ")),
                Value::Bool(i % 3 == 0),
                Value::Date(19000 + i as i32),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn roundtrip_all_types() {
        let t = full_table();
        let bytes = encode(&t);
        let back = decode(bytes).unwrap();
        assert_eq!(t, back);
    }

    /// A small table of every type, whose strings cover the empty value,
    /// one byte, multi-byte characters and a value longer than a
    /// checksum stripe.
    fn golden_table() -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("f", DataType::Float64)
            .column("s", DataType::Utf8)
            .column("b", DataType::Bool)
            .column("d", DataType::Date)
            .build();
        for (k, f, s, b, d) in [
            (1, 0.5, "", true, 19000),
            (-2, -1.25, "a", false, -1),
            (3, 0.0, "αβ", true, 0),
            (
                4,
                1e300,
                "a value longer than one 32-byte stripe",
                true,
                20000,
            ),
        ] {
            t.push_row(vec![
                Value::Int64(k),
                Value::Float64(f),
                Value::Utf8(s.into()),
                Value::Bool(b),
                Value::Date(d),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn encode_writes_the_golden_bytes() {
        // The SCTB bytes are the on-disk format: segment checksums, write
        // and space amplification and every byte-identity contract rest on
        // them, so they must not change with the in-memory layout.
        #[rustfmt::skip]
        let golden: &[u8] = &[
            // "SCTB", version 1, 5 columns, 4 rows.
            0x53, 0x43, 0x54, 0x42, 0x01, 0x00, 0x05, 0x00,
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            // "k" Int64, "f" Float64, "s" Utf8, "b" Bool, "d" Date.
            0x01, 0x00, 0x6b, 0x00, 0x01, 0x00, 0x66, 0x01,
            0x01, 0x00, 0x73, 0x02, 0x01, 0x00, 0x62, 0x03,
            0x01, 0x00, 0x64, 0x04,
            // k: 32 payload bytes, then 1, -2, 3, 4.
            0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            // f: 32 payload bytes, then 0.5, -1.25, 0.0, 1e300.
            0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0xbf,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x9c, 0x75, 0x00, 0x88, 0x3c, 0xe4, 0x37, 0x7e,
            // s: 59 payload bytes of [len u32][bytes].
            0x3b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x61,
            0x04, 0x00, 0x00, 0x00, 0xce, 0xb1, 0xce, 0xb2,
            0x26, 0x00, 0x00, 0x00,
            0x61, 0x20, 0x76, 0x61, 0x6c, 0x75, 0x65, 0x20,
            0x6c, 0x6f, 0x6e, 0x67, 0x65, 0x72, 0x20, 0x74,
            0x68, 0x61, 0x6e, 0x20, 0x6f, 0x6e, 0x65, 0x20,
            0x33, 0x32, 0x2d, 0x62, 0x79, 0x74, 0x65, 0x20,
            0x73, 0x74, 0x72, 0x69, 0x70, 0x65,
            // b: 1 payload byte, rows 0, 2 and 3 set.
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x0d,
            // d: 16 payload bytes, then 19000, -1, 0, 20000.
            0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x38, 0x4a, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
            0x00, 0x00, 0x00, 0x00, 0x20, 0x4e, 0x00, 0x00,
        ];
        let t = golden_table();
        assert_eq!(&encode(&t)[..], golden);
        assert_eq!(encoded_size(&t), golden.len() as u64);
        assert_eq!(decode(Bytes::from(golden.to_vec())).unwrap(), t);
    }

    #[test]
    fn roundtrip_empty_table() {
        let t = TableBuilder::new().column("x", DataType::Utf8).build();
        let back = decode(encode(&t)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().field("x").unwrap().dtype, DataType::Utf8);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&full_table()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(EngineError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode(&full_table()).to_vec();
        raw[4] = 99;
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let raw = encode(&full_table()).to_vec();
        // Chop at a spread of byte positions; all must fail cleanly, never
        // panic.
        for cut in [0, 3, 7, 10, 20, raw.len() / 2, raw.len() - 1] {
            let r = decode(Bytes::from(raw[..cut].to_vec()));
            assert!(r.is_err(), "cut at {cut} must error");
        }
    }

    /// An SCTB header for one column of `tag` and `nrows` rows, followed
    /// by an empty payload: 28 bytes.
    fn forged_header(tag: u8, nrows: u64) -> Vec<u8> {
        let mut raw = MAGIC.to_vec();
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&nrows.to_le_bytes());
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(b"c");
        raw.push(tag);
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw
    }

    #[test]
    fn forged_row_count_is_corrupt_for_every_dtype() {
        // A row count the payload cannot hold must fail before anything
        // is reserved from it: 2^40 rows would ask for terabytes, and
        // 2^61 × 8 wraps to the empty payload's length in u64 arithmetic.
        for dtype in [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
            DataType::Date,
        ] {
            for nrows in [1u64 << 40, 1 << 61, 1 << 62, u64::MAX] {
                let raw = forged_header(dtype_tag(dtype), nrows);
                assert_eq!(raw.len(), 28);
                assert!(
                    matches!(decode(Bytes::from(raw)), Err(EngineError::Corrupt(_))),
                    "{dtype} with {nrows} rows"
                );
            }
        }
    }

    /// The SCTB bytes of one Utf8 column `s` holding `values`.
    fn strings(values: Vec<&str>) -> Vec<u8> {
        let mut t = TableBuilder::new().column("s", DataType::Utf8).build();
        for v in values {
            t.push_row(vec![Value::Utf8(v.into())]).unwrap();
        }
        encode(&t).to_vec()
    }

    #[test]
    fn invalid_utf8_inside_a_value_is_corrupt() {
        let mut raw = strings(vec!["ab", "cd"]);
        let at = raw.len() - 7; // "b", ahead of [len u32]["cd"].
        assert_eq!(raw[at], b'b');
        raw[at] = 0xFF;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(EngineError::Corrupt(_))
        ));
    }

    #[test]
    fn a_character_split_across_two_values_is_corrupt() {
        // "α" is 0xCE 0xB1: as two one-byte values the byte buffer is
        // valid UTF-8 as a whole, but neither value is.
        let mut raw = strings(vec!["x", "y"]);
        let n = raw.len();
        assert_eq!((raw[n - 6], raw[n - 1]), (b'x', b'y'));
        raw[n - 6] = 0xCE;
        raw[n - 1] = 0xB1;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(EngineError::Corrupt(_))
        ));
    }

    #[test]
    fn bool_bitpacking_roundtrip() {
        let mut t = TableBuilder::new().column("b", DataType::Bool).build();
        for i in 0..17 {
            t.push_row(vec![Value::Bool(i % 2 == 0)]).unwrap();
        }
        let back = decode(encode(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn encoded_size_matches_encode() {
        for t in [
            full_table(),
            TableBuilder::new().column("x", DataType::Utf8).build(),
        ] {
            assert_eq!(encoded_size(&t), encode(&t).len() as u64);
        }
    }

    #[test]
    fn manifest_roundtrip_and_totals() {
        let m = Manifest {
            segments: vec![
                SegmentMeta {
                    id: 0,
                    rows: 10,
                    bytes: 100,
                    checksum: 7,
                },
                SegmentMeta {
                    id: 3,
                    rows: 5,
                    bytes: 50,
                    checksum: 9,
                },
            ],
        };
        let back = decode_manifest(encode_manifest(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.total_rows(), 15);
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.next_id(), 4);
        assert_eq!(Manifest::default().next_id(), 0);
        assert_eq!(
            decode_manifest(encode_manifest(&Manifest::default())).unwrap(),
            Manifest::default()
        );
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = Manifest {
            segments: vec![SegmentMeta {
                id: 0,
                rows: 1,
                bytes: 2,
                checksum: 3,
            }],
        };
        let raw = encode_manifest(&m).to_vec();
        // Bad magic.
        let mut bad = raw.clone();
        bad[0] = b'X';
        assert!(decode_manifest(Bytes::from(bad)).is_err());
        // Bad version.
        let mut bad = raw.clone();
        bad[4] = 99;
        assert!(decode_manifest(Bytes::from(bad)).is_err());
        // A version 1 manifest (FNV-1a checksums, same layout) is a typed
        // unsupported-version error, not a checksum mismatch later on.
        assert_eq!(raw[4..6], [2, 0], "encode_manifest writes version 2");
        let mut v1 = raw.clone();
        v1[4] = 1;
        match decode_manifest(Bytes::from(v1)) {
            Err(EngineError::Corrupt(msg)) => {
                assert_eq!(msg, "unsupported manifest version 1")
            }
            other => panic!("expected an unsupported-version error, got {other:?}"),
        }
        // Truncation anywhere.
        for cut in [0, 5, 9, 12, raw.len() - 1] {
            assert!(
                decode_manifest(Bytes::from(raw[..cut].to_vec())).is_err(),
                "cut at {cut} must error"
            );
        }
        // Trailing garbage.
        let mut bad = raw.clone();
        bad.push(0);
        assert!(decode_manifest(Bytes::from(bad)).is_err());
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }

    /// Deterministic filler for the checksum tests.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) ^ (i >> 8)) as u8).collect()
    }

    #[test]
    fn segment_checksum_golden_vectors() {
        // The checksum is part of the on-disk format: these values were
        // computed by an independent implementation of the documented
        // algorithm and must never change without a manifest version bump.
        // Lengths straddle the word (8) and stripe (32) boundaries.
        for (len, want) in [
            (0, 0x99ed_afc2_6884_b0ed_u64),
            (1, 0x3b1a_6e23_178b_639f),
            (7, 0x75cb_7d00_8855_76a5),
            (8, 0x2f94_8312_4a15_ffca),
            (31, 0xb689_7207_973c_956a),
            (32, 0x893f_ca67_a4b6_de4c),
            (33, 0xb6fd_a9d4_c082_12b1),
            (64 << 10, 0xe3ac_eaa8_ff81_92be),
        ] {
            assert_eq!(
                segment_checksum(&pattern(len)),
                want,
                "checksum of the {len}-byte pattern drifted"
            );
        }
    }

    #[test]
    fn segment_checksum_sees_every_byte_and_every_length() {
        // 77 bytes: two stripes, one whole tail word, a 5-byte partial
        // word — every kind of position the function treats differently.
        let base = pattern(77);
        let want = segment_checksum(&base);
        for pos in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = base.clone();
                bad[pos] ^= flip;
                assert_ne!(segment_checksum(&bad), want, "flip {flip:#x} at {pos}");
            }
        }
        // Zero padding of the last word must not alias a longer buffer.
        let mut longer = base.clone();
        for _ in 0..40 {
            longer.push(0);
            assert_ne!(segment_checksum(&longer), want, "len {}", longer.len());
        }
        for cut in 0..base.len() {
            assert_ne!(segment_checksum(&base[..cut]), want, "cut at {cut}");
        }
    }

    #[test]
    fn segment_checksum_sees_every_two_bit_corruption() {
        // A bijective absorb step guarantees one-word corruptions; this
        // pins the next-weakest case. A difference one word leaves in its
        // accumulator must be spread over the state before the next word
        // is xored in, or a second flipped bit there cancels it: every
        // pair of bit flips — bit 63 of a word with each bit of the next
        // word of the same accumulator (32 bytes on in the stripes, the
        // adjacent word in the tail) included — must change the hash.
        for seed in [0usize, 1] {
            let base: Vec<u8> = pattern(77 + seed).split_off(seed);
            let want = segment_checksum(&base);
            let bits = base.len() * 8;
            let mut bad = base.clone();
            for a in 0..bits {
                bad[a / 8] ^= 1 << (a % 8);
                for b in a + 1..bits {
                    bad[b / 8] ^= 1 << (b % 8);
                    assert_ne!(segment_checksum(&bad), want, "bits {a} and {b}");
                    bad[b / 8] ^= 1 << (b % 8);
                }
                bad[a / 8] ^= 1 << (a % 8);
            }
        }
    }

    #[test]
    fn encoded_size_is_near_data_size() {
        let mut t = TableBuilder::new().column("i", DataType::Int64).build();
        for i in 0..1000i64 {
            t.push_row(vec![Value::Int64(i)]).unwrap();
        }
        let bytes = encode(&t);
        // 8000 payload bytes + small header.
        assert!(bytes.len() as u64 >= 8000);
        assert!(bytes.len() < 8100);
    }
}
