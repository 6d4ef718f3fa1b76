//! The key kernel behind every hash operator: joins, aggregates, both
//! distincts, the aggregate merge and delta delete matching.
//!
//! Key columns are hashed in place, a column at a time, into one `u64`
//! per row ([`Keys`]), starting from a random seed drawn once per process,
//! so keys that arrive over the wire cannot be chosen to collide and turn
//! a join or group-by quadratic. No output depends on the seed: matches
//! and groups come out in row order. A `Utf8` key hashes as 8-byte
//! little-endian words read straight from the column's one byte buffer,
//! the last word masked to the value's length, so no value is copied and
//! no byte of the next value reaches the hash.
//!
//! The hash only narrows the search: two rows are the same key when every
//! key cell is equal, checked against the source columns, so a hash
//! collision never merges two keys. Cell equality keeps three classes
//! apart:
//!
//! * `Int64`, `Bool` and `Date` compare as one `i64` (an `Int64 ⋈ Date`
//!   join matches `5` with day `5`);
//! * `Float64` compares by bit pattern (`0.0 ≠ -0.0`, `NaN = NaN` when the
//!   bits agree);
//! * `Utf8` compares by bytes;
//!
//! and a cell of one class never equals a cell of another.
//!
//! [`GroupIndex`] is the one index: it gives each distinct key a dense id
//! in first-seen order, over rows of several tables that share one key
//! layout (which is what lets the merge operators resume a stored
//! result). Its hash table is one flat open-addressing array of
//! `(hash, head)` slots, the head being the first of the groups with that
//! hash, chained through `next`. A table's rows are looked up in one
//! batch: every row first takes the head group of its hash (or opens a
//! group), then all those candidates are checked a key column at a time
//! over typed slices, and only a row whose candidate differs — two keys
//! with one 64-bit hash — walks the chain. [`JoinIndex`] is a
//! `GroupIndex` over the build side plus each group's build rows in
//! ascending order, so a probe row's matches come out in build order as
//! one slice.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::column::Column;

/// Marks an empty slot, the end of a chain, and a row without a group.
pub(crate) const NONE: usize = usize::MAX;

/// FxHash's multiplier: one multiply per key cell.
const K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Murmur3's 64-bit finalizer, so the low bits of the row hash (the
/// slot index) depend on every key cell.
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The process's hash seed: one draw from std's randomly keyed hasher.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    #[cfg(test)]
    if let Some(seed) = SEED_OVERRIDE.with(|c| c.get()) {
        return seed;
    }
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// The little-endian word of `buf` at `pos`. Past the buffer's end it
/// reads zeros: only a value ending in the buffer's last 7 bytes gets
/// there, and its mask drops those bytes anyway.
#[inline]
fn word_at(buf: &[u8], pos: usize) -> u64 {
    match buf.get(pos..pos + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8-byte word")),
        None => {
            let mut tail = [0u8; 8];
            tail[..buf.len() - pos].copy_from_slice(&buf[pos..]);
            u64::from_le_bytes(tail)
        }
    }
}

/// Hashes the value `buf[start..end]` on from `seed` (the row's hash so
/// far): its length, then one word per 8 bytes, each masked to the bytes
/// that belong to the value (no branch on where the value ends inside
/// its last word). The length keeps strings that differ only by trailing
/// NULs apart, whatever the seed.
#[inline]
fn hash_value(seed: u64, buf: &[u8], start: usize, end: usize) -> u64 {
    let mut h = seed ^ (end - start) as u64;
    let mut pos = start;
    while pos < end {
        let keep = (end - pos).min(8);
        h = mix(h, word_at(buf, pos) & (u64::MAX >> (64 - 8 * keep)));
        pos += 8;
    }
    h
}

#[cfg(test)]
thread_local! {
    static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    static SEED_OVERRIDE: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with `seed` in place of the process's hash seed.
#[cfg(test)]
pub(crate) fn with_hash_seed<T>(seed: u64, f: impl FnOnce() -> T) -> T {
    struct Reset(Option<u64>);
    impl Drop for Reset {
        fn drop(&mut self) {
            SEED_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(SEED_OVERRIDE.with(|c| c.replace(Some(seed))));
    f()
}

/// Runs `f` with every row hash forced to one value, so every lookup
/// walks a chain of colliding keys and only the equality check tells
/// them apart.
#[cfg(test)]
pub(crate) fn with_constant_hash<T>(f: impl FnOnce() -> T) -> T {
    with_hash_mask(0, f)
}

/// Runs `f` with every row hash cut to its lowest bit: keys collide in
/// two chains, so a batch opens groups both on its first pass and on the
/// chain walk, and the two must interleave in first-seen order.
#[cfg(test)]
pub(crate) fn with_one_bit_hash<T>(f: impl FnOnce() -> T) -> T {
    with_hash_mask(1, f)
}

#[cfg(test)]
fn with_hash_mask<T>(mask: u64, f: impl FnOnce() -> T) -> T {
    struct Reset(u64);
    impl Drop for Reset {
        fn drop(&mut self) {
            HASH_MASK.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(HASH_MASK.with(|c| c.replace(mask)));
    f()
}

/// The key columns of one table and the hash of each of its rows.
///
/// Every hash operator builds one per input and hands it to a
/// [`GroupIndex`] or [`JoinIndex`]; rows of two `Keys` are the same key
/// when their hashes and every key cell agree (see the module docs for
/// the cell classes).
pub(crate) struct Keys<'a> {
    cols: Vec<&'a Column>,
    hashes: Vec<u64>,
}

impl<'a> Keys<'a> {
    /// Hashes `rows` rows of `cols` (no columns: every row is one key).
    pub(crate) fn new(cols: Vec<&'a Column>, rows: usize) -> Self {
        let seed = seed();
        let mut hashes = vec![seed; rows];
        for col in &cols {
            debug_assert_eq!(col.len(), rows);
            match col {
                Column::Int64(v) => fold(&mut hashes, v, |x| x as u64),
                Column::Bool(v) => fold(&mut hashes, v, |x| x as u64),
                Column::Date(v) => fold(&mut hashes, v, |x| x as i64 as u64),
                Column::Float64(v) => fold(&mut hashes, v, f64::to_bits),
                Column::Utf8(v) => {
                    let (offsets, buf) = v.parts();
                    for (h, span) in hashes.iter_mut().zip(offsets.windows(2)) {
                        *h = hash_value(*h, buf, span[0], span[1]);
                    }
                }
            }
        }
        for h in &mut hashes {
            *h = finish(*h);
        }
        #[cfg(test)]
        {
            let mask = HASH_MASK.with(|c| c.get());
            for h in &mut hashes {
                *h &= mask;
            }
        }
        Keys { cols, hashes }
    }

    /// Every column of `table` as the key (full-row equality).
    pub(crate) fn rows(table: &'a crate::Table) -> Self {
        Keys::new(
            table.columns().iter().map(|c| &**c).collect(),
            table.num_rows(),
        )
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The key columns.
    pub(crate) fn columns(&self) -> &[&'a Column] {
        &self.cols
    }

    /// Whether row `i` of `self` and row `j` of `other` are the same key.
    #[inline]
    fn eq(&self, i: usize, other: &Keys<'_>, j: usize) -> bool {
        self.hashes[i] == other.hashes[j]
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| cell_eq(a, i, b, j))
    }
}

fn fold<T: Copy>(hashes: &mut [u64], values: &[T], word: impl Fn(T) -> u64) {
    for (h, &x) in hashes.iter_mut().zip(values) {
        *h = mix(*h, word(x));
    }
}

/// The `i64` an integer-class cell compares as.
#[inline]
fn int_of(c: &Column, i: usize) -> Option<i64> {
    match c {
        Column::Int64(v) => Some(v[i]),
        Column::Bool(v) => Some(v[i] as i64),
        Column::Date(v) => Some(v[i] as i64),
        Column::Float64(_) | Column::Utf8(_) => None,
    }
}

#[inline]
fn cell_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a, b) {
        (Column::Int64(x), Column::Int64(y)) => x[i] == y[j],
        (Column::Float64(x), Column::Float64(y)) => x[i].to_bits() == y[j].to_bits(),
        (Column::Utf8(x), Column::Utf8(y)) => x.bytes_at(i) == y.bytes_at(j),
        _ => matches!((int_of(a, i), int_of(b, j)), (Some(x), Some(y)) if x == y),
    }
}

/// The rows one key column is checked on: every row, or those that
/// passed the columns before it.
enum Rows<'s> {
    All(usize),
    Passed(&'s [usize]),
}

/// Checks one key column: for every row of `rows` with a candidate group
/// `ids[row]` (first seen in `source`, when given), compares its cell of
/// `b` with the cell of `a` at the group's first row. A row that differs
/// goes to `misses`; unless this is the `last` column, the rows that
/// agree are returned for the next one. One type dispatch per column,
/// then a tight loop over the rows.
fn eq_column(
    (a, b): (&Column, &Column),
    rows: Rows<'_>,
    (ids, first): (&[usize], &[(usize, usize)]),
    source: Option<usize>,
    last: bool,
    misses: &mut Vec<usize>,
) -> Vec<usize> {
    #[inline]
    fn run(
        rows: impl Iterator<Item = usize>,
        (ids, first): (&[usize], &[(usize, usize)]),
        source: Option<usize>,
        last: bool,
        misses: &mut Vec<usize>,
        same: impl Fn(usize, usize) -> bool,
    ) -> Vec<usize> {
        let mut passed = Vec::with_capacity(if last { 0 } else { rows.size_hint().0 });
        for row in rows {
            let g = ids[row];
            if g == NONE {
                continue;
            }
            let (s, i) = first[g];
            if source.is_some_and(|src| src != s) {
                continue;
            }
            if !same(i, row) {
                misses.push(row);
            } else if !last {
                passed.push(row);
            }
        }
        passed
    }
    #[inline]
    fn each(
        rows: Rows<'_>,
        index: (&[usize], &[(usize, usize)]),
        source: Option<usize>,
        last: bool,
        misses: &mut Vec<usize>,
        same: impl Fn(usize, usize) -> bool,
    ) -> Vec<usize> {
        match rows {
            Rows::All(n) => run(0..n, index, source, last, misses, same),
            Rows::Passed(rows) => run(rows.iter().copied(), index, source, last, misses, same),
        }
    }
    let index = (ids, first);
    match (a, b) {
        (Column::Int64(x), Column::Int64(y)) => {
            each(rows, index, source, last, misses, |i, j| x[i] == y[j])
        }
        (Column::Date(x), Column::Date(y)) => {
            each(rows, index, source, last, misses, |i, j| x[i] == y[j])
        }
        (Column::Bool(x), Column::Bool(y)) => {
            each(rows, index, source, last, misses, |i, j| x[i] == y[j])
        }
        (Column::Float64(x), Column::Float64(y)) => {
            each(rows, index, source, last, misses, |i, j| {
                x[i].to_bits() == y[j].to_bits()
            })
        }
        (Column::Utf8(x), Column::Utf8(y)) => each(rows, index, source, last, misses, |i, j| {
            x.bytes_at(i) == y.bytes_at(j)
        }),
        _ => each(rows, index, source, last, misses, |i, j| {
            cell_eq(a, i, b, j)
        }),
    }
}

/// A flat open-addressing table from a row hash to the head of its chain:
/// linear probing over a power-of-two array kept at most half full. A
/// slot whose head is [`NONE`] is empty.
struct Slots {
    slots: Vec<(u64, usize)>,
    used: usize,
}

impl Slots {
    /// A table with room for `hashes` hashes before it grows.
    fn with_capacity(hashes: usize) -> Self {
        Slots {
            slots: vec![(0, NONE); (2 * hashes).next_power_of_two().max(16)],
            used: 0,
        }
    }

    /// The head for `hash`, or [`NONE`].
    #[inline]
    fn find(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, head) = self.slots[i];
            if head == NONE || h == hash {
                return head;
            }
            i = (i + 1) & mask;
        }
    }

    /// The head for `hash`, claiming an empty slot (head [`NONE`]) when
    /// the hash is absent; the caller then stores a head in it.
    #[inline]
    fn entry(&mut self, hash: u64) -> &mut usize {
        if 2 * (self.used + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, head) = self.slots[i];
            if head == NONE {
                self.slots[i].0 = hash;
                self.used += 1;
                return &mut self.slots[i].1;
            }
            if h == hash {
                return &mut self.slots[i].1;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(self, Slots::with_capacity(self.slots.len()));
        for (hash, head) in old.slots.into_iter().filter(|s| s.1 != NONE) {
            *self.entry(hash) = head;
        }
    }

    /// Rewrites every head through `map`.
    fn remap(&mut self, map: impl Fn(usize) -> usize) {
        for slot in self.slots.iter_mut().filter(|s| s.1 != NONE) {
            slot.1 = map(slot.1);
        }
    }
}

/// Dense group ids, assigned in first-seen order, over rows drawn from
/// several tables ("sources") that share one key layout.
pub(crate) struct GroupIndex {
    slots: Slots,
    /// Per group: the next group with the same hash.
    next: Vec<usize>,
    /// Per group: `(source, row)` of its first-seen row.
    first: Vec<(usize, usize)>,
    /// Whether groups were first seen in more than one source.
    mixed: bool,
}

impl Default for GroupIndex {
    fn default() -> Self {
        GroupIndex::with_capacity(0)
    }
}

impl GroupIndex {
    /// An index sized for about `groups` groups.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        GroupIndex {
            slots: Slots::with_capacity(groups),
            next: Vec::with_capacity(groups),
            first: Vec::with_capacity(groups),
            mixed: false,
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }

    /// `(source, row)` of each group's first-seen row, by group id.
    pub(crate) fn first_rows(&self) -> &[(usize, usize)] {
        &self.first
    }

    /// Interns every row of `sources[src]` in order, returning each row's
    /// group id; a key not seen before opens the next id.
    pub(crate) fn intern_all(&mut self, sources: &[Keys<'_>], src: usize) -> Vec<usize> {
        let keys = &sources[src];
        let start = self.first.len();
        let mut ids = Vec::with_capacity(keys.len());
        // Groups opened by this batch come from `src`.
        self.mixed |= self.first.first().is_some_and(|&(s, _)| s != src);
        for (row, &h) in keys.hashes.iter().enumerate() {
            let mut g = self.slots.find(h);
            if g == NONE {
                g = self.first.len();
                *self.slots.entry(h) = g;
                self.next.push(NONE);
                self.first.push((src, row));
            }
            ids.push(g);
        }
        let mut opened_late = false;
        for row in self.mismatches(sources, keys, &ids) {
            ids[row] = match self.walk(sources, keys, row, ids[row]) {
                Some(g) => g,
                None => {
                    let g = self.first.len();
                    let head = self.slots.entry(keys.hashes[row]);
                    self.next.push(*head);
                    *head = g;
                    self.first.push((src, row));
                    opened_late = true;
                    g
                }
            };
        }
        if opened_late {
            self.renumber(start, &mut ids);
        }
        ids
    }

    /// The group of every row of `keys` ([`NONE`] for a key not seen),
    /// without opening any.
    pub(crate) fn find_all(&self, sources: &[Keys<'_>], keys: &Keys<'_>) -> Vec<usize> {
        let mut ids: Vec<usize> = keys.hashes.iter().map(|&h| self.slots.find(h)).collect();
        for row in self.mismatches(sources, keys, &ids) {
            ids[row] = self.walk(sources, keys, row, ids[row]).unwrap_or(NONE);
        }
        ids
    }

    /// The rows of `keys` whose candidate group `ids[row]` (the head of
    /// their hash's chain) holds another key, ascending. Candidates are
    /// checked a key column at a time against their group's first row,
    /// each column only on the rows that passed the one before; when
    /// groups were first seen in several sources (the merges), one pass
    /// per source.
    fn mismatches(&self, sources: &[Keys<'_>], keys: &Keys<'_>, ids: &[usize]) -> Vec<usize> {
        let Some(&(first_source, _)) = self.first.first() else {
            return Vec::new();
        };
        debug_assert!(sources.iter().all(|s| s.cols.len() == keys.cols.len()));
        let passes: Vec<Option<usize>> = match self.mixed {
            true => (0..sources.len()).map(Some).collect(),
            false => vec![None],
        };
        let mut misses = Vec::new();
        for source in passes {
            let stored = &sources[source.unwrap_or(first_source)];
            let mut passed = Vec::new();
            for (c, pair) in stored.cols.iter().zip(&keys.cols).enumerate() {
                let rows = match c {
                    0 => Rows::All(ids.len()),
                    _ => Rows::Passed(&passed),
                };
                let last = c + 1 == keys.cols.len();
                passed = eq_column(
                    (pair.0, pair.1),
                    rows,
                    (ids, &self.first),
                    source,
                    last,
                    &mut misses,
                );
            }
        }
        // Each column (and each source) adds its misses in row order.
        misses.sort_unstable();
        misses
    }

    /// The group, other than `skip`, whose key equals row `row` of `keys`:
    /// a walk of the chain of groups sharing its hash.
    fn walk(
        &self,
        sources: &[Keys<'_>],
        keys: &Keys<'_>,
        row: usize,
        skip: usize,
    ) -> Option<usize> {
        let mut g = self.slots.find(keys.hashes[row]);
        while g != NONE {
            let (s, r) = self.first[g];
            if g != skip && sources[s].eq(r, keys, row) {
                return Some(g);
            }
            g = self.next[g];
        }
        None
    }

    /// Restores first-seen order among the groups opened since `start`.
    /// A group opened on the chain walk (a key whose hash another key
    /// already holds) got its id after every group the batch's first pass
    /// opened, so the new groups are renumbered by first row.
    fn renumber(&mut self, start: usize, ids: &mut [usize]) {
        let mut order: Vec<usize> = (start..self.first.len()).collect();
        order.sort_unstable_by_key(|&g| self.first[g].1);
        let mut new_id = vec![0; order.len()];
        for (i, &g) in order.iter().enumerate() {
            new_id[g - start] = start + i;
        }
        let map = |g: usize| {
            if g == NONE || g < start {
                g
            } else {
                new_id[g - start]
            }
        };
        let first: Vec<_> = order.iter().map(|&g| self.first[g]).collect();
        let next: Vec<_> = order.iter().map(|&g| map(self.next[g])).collect();
        self.first.truncate(start);
        self.first.extend(first);
        self.next.truncate(start);
        for n in &mut self.next {
            *n = map(*n);
        }
        self.next.extend(next);
        self.slots.remap(map);
        for id in ids {
            *id = map(*id);
        }
    }
}

/// A hash join's build side: its distinct keys, and each key's build
/// rows in ascending order.
pub(crate) struct JoinIndex<'a> {
    build: [Keys<'a>; 1],
    groups: GroupIndex,
    /// Group `g`'s build rows are `rows[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<usize>,
    rows: Vec<usize>,
}

impl<'a> JoinIndex<'a> {
    /// Indexes every row of `keys`.
    pub(crate) fn build(keys: Keys<'a>) -> Self {
        // Room for twice the build rows: probe rows outnumber build rows,
        // and a table at most a quarter full answers most lookups at the
        // first slot.
        let mut groups = GroupIndex::with_capacity(2 * keys.len());
        let build = [keys];
        let ids = groups.intern_all(&build, 0);
        // A counting sort by group keeps each group's rows ascending.
        let mut bounds = vec![0; groups.len() + 1];
        for &g in &ids {
            bounds[g + 1] += 1;
        }
        for g in 0..groups.len() {
            bounds[g + 1] += bounds[g];
        }
        // Fill each group from its start, which leaves `bounds[g]` at
        // group `g`'s end, i.e. one place left of where it belongs.
        let mut rows = vec![0; ids.len()];
        for (row, &g) in ids.iter().enumerate() {
            rows[bounds[g]] = row;
            bounds[g] += 1;
        }
        bounds.copy_within(..groups.len(), 1);
        bounds[0] = 0;
        JoinIndex {
            build,
            groups,
            bounds,
            rows,
        }
    }

    /// The build key of each row of `probe`, as an id for
    /// [`JoinIndex::rows`] ([`NONE`] where no build row matches).
    pub(crate) fn probe(&self, probe: &Keys<'_>) -> Vec<usize> {
        self.groups.find_all(&self.build, probe)
    }

    /// The build rows of key `key`, ascending.
    #[inline]
    pub(crate) fn rows(&self, key: usize) -> &[usize] {
        &self.rows[self.bounds[key]..self.bounds[key + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &Column, i: usize, b: &Column, j: usize) -> bool {
        let ka = Keys::new(vec![a], a.len());
        let kb = Keys::new(vec![b], b.len());
        ka.eq(i, &kb, j)
    }

    fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
        hash_value(seed, bytes, 0, bytes.len())
    }

    #[test]
    fn keys_are_equal_for_equal_values() {
        let c = Column::Float64(vec![1.5, 1.5, 2.0]);
        assert!(same(&c, 0, &c, 1));
        assert!(!same(&c, 0, &c, 2));
        let d = Column::Date(vec![100, 100]);
        assert!(same(&d, 0, &d, 1));
        let s = Column::Utf8(vec!["x", "x", "y"].into());
        assert!(same(&s, 0, &s, 1));
        assert!(!same(&s, 0, &s, 2));
    }

    #[test]
    fn the_seed_moves_every_row_hash() {
        let hashes = |seed, col: &Column| with_hash_seed(seed, || Keys::new(vec![col], 2).hashes);
        for col in [
            Column::Int64(vec![7, 8]),
            Column::Utf8(vec!["a", "long enough to chunk"].into()),
        ] {
            let (a, b) = (hashes(1, &col), hashes(2, &col));
            assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{col:?}");
        }
        // The string hash itself is seeded, and keeps the length apart.
        assert_ne!(hash_bytes(1, b"abc"), hash_bytes(2, b"abc"));
        assert_ne!(hash_bytes(1, b"a"), hash_bytes(1, b"a\0"));
    }

    #[test]
    fn a_string_hash_reads_only_its_own_bytes() {
        // The same value hashes alike wherever it sits in a buffer: at
        // the start, followed by other bytes, and ending on the buffer's
        // last byte (where the word read runs past the end).
        for len in [0, 1, 7, 8, 9, 16, 17] {
            let value = "v".repeat(len);
            let alone = hash_bytes(3, value.as_bytes());
            let col = Column::Utf8(vec!["xyzzy", &value, "trailing bytes"].into());
            let Column::Utf8(v) = &col else {
                unreachable!()
            };
            let (offsets, buf) = v.parts();
            assert_eq!(hash_value(3, buf, offsets[1], offsets[2]), alone, "{len}");
            let last = Column::Utf8(vec!["xyzzy", &value].into());
            let Column::Utf8(v) = &last else {
                unreachable!()
            };
            let (offsets, buf) = v.parts();
            assert_eq!(offsets[2], buf.len());
            assert_eq!(hash_value(3, buf, offsets[1], offsets[2]), alone, "{len}");
        }
    }

    #[test]
    fn key_classes_match_across_types_only_where_they_should() {
        let int = Column::Int64(vec![5, 1, 0]);
        let date = Column::Date(vec![5]);
        let boolean = Column::Bool(vec![true]);
        let float = Column::Float64(vec![5.0, 0.0, -0.0, f64::NAN]);
        let text = Column::Utf8(vec!["5"].into());
        assert!(same(&int, 0, &date, 0), "Int64 and Date share a class");
        assert!(same(&int, 1, &boolean, 0), "Bool compares as 0/1");
        assert!(!same(&int, 0, &float, 0), "no cross-class equality");
        assert!(!same(&int, 0, &text, 0));
        assert!(!same(&float, 1, &float, 2), "floats compare by bits");
        assert!(same(&float, 3, &float, 3), "NaN equals its own bits");
        for constant in [false, true] {
            let run = || {
                let k = Keys::new(vec![&int], 3);
                let f = Keys::new(vec![&float], 4);
                !k.eq(2, &f, 1) && k.eq(2, &k, 2)
            };
            assert!(if constant {
                with_constant_hash(run)
            } else {
                run()
            });
        }
    }

    #[test]
    fn join_chains_stay_in_build_order_under_collisions() {
        let build = Column::Int64(vec![3, 1, 3, 2, 3]);
        let probe = Column::Int64(vec![3, 4, 2]);
        for constant in [false, true] {
            let run = || {
                let index = JoinIndex::build(Keys::new(vec![&build], 5));
                let p = Keys::new(vec![&probe], 3);
                index
                    .probe(&p)
                    .into_iter()
                    .map(|key| match key {
                        NONE => Vec::new(),
                        key => index.rows(key).to_vec(),
                    })
                    .collect::<Vec<_>>()
            };
            let got = if constant {
                with_constant_hash(run)
            } else {
                run()
            };
            assert_eq!(got, vec![vec![0, 2, 4], vec![], vec![3]]);
        }
    }

    #[test]
    fn group_ids_are_dense_first_seen_and_cross_table() {
        let stored = Column::Utf8(vec!["b", "a"].into());
        let delta = Column::Utf8(vec!["a", "c", "c", "b", "d"].into());
        for constant in [false, true] {
            let run = || {
                let sources = [Keys::new(vec![&stored], 2), Keys::new(vec![&delta], 5)];
                let mut index = GroupIndex::default();
                let stored_ids = index.intern_all(&sources, 0);
                let delta_ids = index.intern_all(&sources, 1);
                let found = index.find_all(&sources, &sources[1]);
                (stored_ids, delta_ids, found, index.first_rows().to_vec())
            };
            let got = if constant {
                with_constant_hash(run)
            } else {
                run()
            };
            assert_eq!(got.0, vec![0, 1]);
            assert_eq!(got.1, vec![1, 2, 2, 0, 3]);
            assert_eq!(got.2, vec![1, 2, 2, 0, 3]);
            assert_eq!(got.3, vec![(0, 0), (0, 1), (1, 1), (1, 4)]);
        }
    }

    #[test]
    fn collisions_keep_first_seen_order_and_find_nothing_unseen() {
        // "b" shares "a"'s hash, so it is opened on the chain walk, after
        // the first pass opened "c"; its id must still be first-seen.
        let col = Column::Utf8(vec!["a", "b", "a", "c", "b"].into());
        let keys = Keys {
            cols: vec![&col],
            hashes: vec![1, 1, 1, 2, 1],
        };
        let sources = [keys];
        let mut index = GroupIndex::default();
        assert_eq!(index.intern_all(&sources, 0), vec![0, 1, 0, 2, 1]);
        assert_eq!(index.first_rows(), [(0, 0), (0, 1), (0, 3)]);
        let probe_col = Column::Utf8(vec!["c", "z", "b", "a"].into());
        let probe = Keys {
            cols: vec![&probe_col],
            hashes: vec![2, 1, 1, 1],
        };
        assert_eq!(index.find_all(&sources, &probe), vec![2, NONE, 1, 0]);
    }

    #[test]
    fn the_slot_table_grows_past_its_first_size() {
        let keys = Column::Int64((0..1000).map(|i| i % 700).collect());
        let sources = [Keys::new(vec![&keys], 1000)];
        let mut index = GroupIndex::default();
        let ids = index.intern_all(&sources, 0);
        assert_eq!(index.len(), 700);
        assert!(ids.iter().enumerate().all(|(row, &g)| g == row % 700));
    }

    #[test]
    fn no_key_columns_make_one_group() {
        let sources = [Keys::new(Vec::new(), 3)];
        let mut index = GroupIndex::default();
        assert_eq!(index.intern_all(&sources, 0), vec![0, 0, 0]);
        assert_eq!(index.len(), 1);
    }
}
