//! The key kernel behind every hash operator: joins, aggregates, both
//! distincts, the aggregate merge and delta delete matching.
//!
//! Key columns are hashed in place, a column at a time, into one `u64`
//! per row ([`Keys`]), starting from a random seed drawn once per process,
//! so keys that arrive over the wire cannot be chosen to collide and turn
//! a join or group-by quadratic. No output depends on the seed: matches
//! and groups come out in row order.
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
//! Two index structures serve every caller. [`JoinIndex`] chains build
//! rows with the same hash in ascending row order, so a probe row's
//! matches come out in build order with no per-key allocation.
//! [`GroupIndex`] gives each distinct key a dense id in first-seen order
//! and can compare rows of different tables, which is what lets the
//! merge operators resume a stored result.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use crate::column::Column;

/// Marks the end of a chain.
const NONE: usize = usize::MAX;

/// FxHash's multiplier: one multiply per key cell.
const K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Murmur3's 64-bit finalizer, so the low and the high bits of the row
/// hash (bucket index and control byte of the map) both depend on every
/// key cell.
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

/// Hashes a string's bytes from `seed`. The length is folded into the
/// start state as well, so strings that differ only by trailing NULs in
/// the zero-padded tail never collide, whatever the seed.
fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h, u64::from_le_bytes(tail))
}

#[cfg(test)]
thread_local! {
    static CONSTANT_HASH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            CONSTANT_HASH.with(|c| c.set(false));
        }
    }
    CONSTANT_HASH.with(|c| c.set(true));
    let _reset = Reset;
    f()
}

/// Passes a row hash through as the map's hash.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 row hashes are keyed")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

type HashHeads = HashMap<u64, usize, BuildHasherDefault<PassThrough>>;

fn heads(capacity: usize) -> HashHeads {
    HashMap::with_capacity_and_hasher(capacity, Default::default())
}

/// The key columns of one table and the hash of each of its rows.
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
                    for (row, h) in hashes.iter_mut().enumerate() {
                        *h = mix(*h, hash_bytes(seed, v.bytes_at(row)));
                    }
                }
            }
        }
        for h in &mut hashes {
            *h = finish(*h);
        }
        #[cfg(test)]
        if CONSTANT_HASH.with(|c| c.get()) {
            hashes.fill(0);
        }
        Keys { cols, hashes }
    }

    /// Every column of `table` as the key (full-row equality).
    pub(crate) fn rows(table: &'a crate::Table) -> Self {
        Keys::new(table.columns().iter().collect(), table.num_rows())
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
    pub(crate) fn eq(&self, i: usize, other: &Keys<'_>, j: usize) -> bool {
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

/// A hash join's build side: rows sharing a hash form a chain in
/// ascending row order.
pub(crate) struct JoinIndex<'a> {
    keys: Keys<'a>,
    head: HashHeads,
    next: Vec<usize>,
}

impl<'a> JoinIndex<'a> {
    /// Indexes every row of `keys`.
    pub(crate) fn build(keys: Keys<'a>) -> Self {
        let mut head = heads(keys.len());
        let mut next = vec![NONE; keys.len()];
        // Inserting from the last row down leaves each chain ascending.
        for row in (0..keys.len()).rev() {
            if let Some(prev) = head.insert(keys.hashes[row], row) {
                next[row] = prev;
            }
        }
        JoinIndex { keys, head, next }
    }

    /// The build rows whose key equals row `row` of `probe`, ascending.
    pub(crate) fn matches<'s>(
        &'s self,
        probe: &'s Keys<'_>,
        row: usize,
    ) -> impl Iterator<Item = usize> + 's {
        let mut cur = self.head.get(&probe.hashes[row]).copied().unwrap_or(NONE);
        std::iter::from_fn(move || {
            while cur != NONE {
                let r = cur;
                cur = self.next[r];
                if self.keys.eq(r, probe, row) {
                    return Some(r);
                }
            }
            None
        })
    }
}

/// Dense group ids, assigned in first-seen order, over rows drawn from
/// several tables ("sources") that share one key layout.
#[derive(Default)]
pub(crate) struct GroupIndex {
    head: HashHeads,
    /// Per group: the next group with the same hash.
    next: Vec<usize>,
    /// Per group: `(source, row)` of its first-seen row.
    first: Vec<(usize, usize)>,
}

impl GroupIndex {
    /// An index sized for about `groups` groups.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        GroupIndex {
            head: heads(groups),
            next: Vec::with_capacity(groups),
            first: Vec::with_capacity(groups),
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

    /// The group of row `row` of `sources[src]`, if it has been seen.
    pub(crate) fn find(&self, sources: &[Keys<'_>], src: usize, row: usize) -> Option<usize> {
        let keys = &sources[src];
        let mut g = self.head.get(&keys.hashes[row]).copied().unwrap_or(NONE);
        while g != NONE {
            let (s, r) = self.first[g];
            if sources[s].eq(r, keys, row) {
                return Some(g);
            }
            g = self.next[g];
        }
        None
    }

    /// The group of row `row` of `sources[src]`, opening a new one (the
    /// next id) if the key is unseen; the flag says whether it is new.
    pub(crate) fn intern(&mut self, sources: &[Keys<'_>], src: usize, row: usize) -> (usize, bool) {
        if let Some(g) = self.find(sources, src, row) {
            return (g, false);
        }
        let g = self.first.len();
        let prev = self.head.insert(sources[src].hashes[row], g);
        self.next.push(prev.unwrap_or(NONE));
        self.first.push((src, row));
        (g, true)
    }

    /// Interns every row of `sources[src]` in order, returning each row's
    /// group id.
    pub(crate) fn intern_all(&mut self, sources: &[Keys<'_>], src: usize) -> Vec<usize> {
        (0..sources[src].len())
            .map(|row| self.intern(sources, src, row).0)
            .collect()
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
        let probe = Column::Int64(vec![3, 4]);
        for constant in [false, true] {
            let run = || {
                let index = JoinIndex::build(Keys::new(vec![&build], 5));
                let p = Keys::new(vec![&probe], 2);
                (
                    index.matches(&p, 0).collect::<Vec<_>>(),
                    index.matches(&p, 1).count(),
                )
            };
            let got = if constant {
                with_constant_hash(run)
            } else {
                run()
            };
            assert_eq!(got, (vec![0, 2, 4], 0));
        }
    }

    #[test]
    fn group_ids_are_dense_first_seen_and_cross_table() {
        let stored = Column::Utf8(vec!["b", "a"].into());
        let delta = Column::Utf8(vec!["a", "c", "c", "b"].into());
        for constant in [false, true] {
            let run = || {
                let sources = [Keys::new(vec![&stored], 2), Keys::new(vec![&delta], 4)];
                let mut index = GroupIndex::default();
                let stored_ids = index.intern_all(&sources, 0);
                let delta_ids = index.intern_all(&sources, 1);
                (stored_ids, delta_ids, index.first_rows().to_vec())
            };
            let got = if constant {
                with_constant_hash(run)
            } else {
                run()
            };
            assert_eq!(got.0, vec![0, 1]);
            assert_eq!(got.1, vec![1, 2, 2, 0]);
            assert_eq!(got.2, vec![(0, 0), (0, 1), (1, 1)]);
        }
    }

    #[test]
    fn no_key_columns_make_one_group() {
        let sources = [Keys::new(Vec::new(), 3)];
        let mut index = GroupIndex::default();
        assert_eq!(index.intern_all(&sources, 0), vec![0, 0, 0]);
        assert_eq!(index.len(), 1);
    }
}
