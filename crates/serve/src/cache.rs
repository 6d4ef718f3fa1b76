//! The shared-snapshot read cache.
//!
//! N concurrent readers of one hot MV should decode and encode its SCTB
//! bytes **once per epoch**, not once per request. The MVCC tier makes
//! that memoization safe by construction: state pinned at an epoch is
//! immutable, so a response body keyed by `(epoch, table)` can never go
//! stale — it can only become *unreachable* once the epoch falls behind
//! every live pin and the committed epoch. [`SnapshotCache`] stores the
//! fully built response frames (header + SCTB chunks, exactly what
//! [`crate::protocol::table_response_frames`] produces), so a hit skips
//! the pin, the segment reads, the decode, the re-encode, and the
//! chunking — it writes the memoized frames straight to the socket.
//!
//! Two eviction forces keep it bounded:
//!
//! * **Epoch eviction** — [`SnapshotCache::evict_below`] drops every
//!   entry below the retention horizon the storage tier reports via
//!   [`sc_engine::storage::DiskCatalog::subscribe_retention`]. The cache
//!   therefore reclaims entries in lockstep with the retained
//!   namespace: an entry never outlives its epoch's retained files by
//!   more than the commit that buried it.
//! * **LRU under a byte budget** — inserts that would exceed
//!   [`SnapshotCache::budget`] evict least-recently-hit entries first.
//!   A single body larger than the whole budget is served uncached.
//!
//! The hit path is read-mostly: a shared (read) lock on the map plus
//! atomic counter updates — concurrent hits never serialize against
//! each other, and never touch the storage tier's io lock at all (which
//! is exactly why cached hot reads stay flat while a refresher's commit
//! holds that lock exclusively).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Response frames shared between the cache and in-flight writers.
pub type SharedFrames = Arc<Vec<Vec<u8>>>;

/// Point-in-time cache counters (all monotonic except `bytes` and
/// `entries`, which are gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that took the full pinned read path.
    pub misses: u64,
    /// Entries evicted (epoch horizon + LRU combined).
    pub evicted: u64,
    /// Bytes currently cached (sum of cached frame payloads).
    pub bytes: u64,
    /// Entries currently cached.
    pub entries: u64,
}

struct Entry {
    frames: SharedFrames,
    bytes: u64,
    /// Logical LRU timestamp, bumped on every hit (atomic so the hit
    /// path stays on the shared lock).
    last_used: AtomicU64,
}

/// A bounded, byte-budgeted map from `(epoch, table)` to the fully
/// encoded table-response frames. See the module docs for the
/// invariants; a budget of `0` disables caching entirely (every lookup
/// is a non-counting miss and inserts are dropped).
#[derive(Default)]
pub struct SnapshotCache {
    budget: u64,
    map: RwLock<HashMap<(u64, String), Entry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    bytes: AtomicU64,
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SnapshotCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

impl SnapshotCache {
    /// A cache bounded to `budget` bytes of frame payloads (0 disables).
    pub fn new(budget: u64) -> SnapshotCache {
        SnapshotCache {
            budget,
            ..SnapshotCache::default()
        }
    }

    /// Whether caching is enabled at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Looks up the memoized response for `table` at `epoch`, counting
    /// a hit or a miss. Hits only take the shared half of the map lock.
    pub fn get(&self, epoch: u64, table: &str) -> Option<SharedFrames> {
        if !self.enabled() {
            return None;
        }
        let map = self.map.read();
        // Tuple keys can't be probed with a borrowed &str half; the
        // short-lived String is noise next to the decode+encode a hit
        // saves.
        match map.get(&(epoch, table.to_string())) {
            Some(entry) => {
                entry.last_used.store(
                    self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.frames))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes `frames` for `(epoch, table)`, evicting
    /// least-recently-hit entries until the byte budget holds. A body
    /// larger than the whole budget is not cached. If another worker
    /// populated the key first, the existing entry wins (the bodies are
    /// byte-identical by the epoch-consistency contract, so which copy
    /// survives is immaterial).
    pub fn insert(&self, epoch: u64, table: &str, frames: SharedFrames) {
        let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        if !self.enabled() || bytes > self.budget {
            return;
        }
        let mut map = self.map.write();
        if map.contains_key(&(epoch, table.to_string())) {
            return;
        }
        while self.bytes.load(Ordering::Relaxed) + bytes > self.budget {
            let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = map.remove(&victim) {
                self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        map.insert(
            (epoch, table.to_string()),
            Entry {
                frames,
                bytes,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            },
        );
    }

    /// Drops every entry whose epoch is below `horizon` — the retention
    /// callback target. Called by the storage tier's epoch GC (under
    /// its io lock), so it must stay cheap: one write-lock sweep.
    pub fn evict_below(&self, horizon: u64) {
        if !self.enabled() {
            return;
        }
        let mut map = self.map.write();
        let before = map.len();
        map.retain(|(epoch, _), e| {
            if *epoch >= horizon {
                return true;
            }
            self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
            false
        });
        let dropped = (before - map.len()) as u64;
        if dropped > 0 {
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.map.read().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(bytes: usize) -> SharedFrames {
        Arc::new(vec![vec![0xAB; bytes]])
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = SnapshotCache::new(1 << 20);
        assert!(c.get(1, "t").is_none());
        c.insert(1, "t", frames(100));
        let got = c.get(1, "t").expect("hit");
        assert_eq!(got[0].len(), 100);
        // Different epoch or table: miss.
        assert!(c.get(2, "t").is_none());
        assert!(c.get(1, "u").is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let c = SnapshotCache::new(250);
        c.insert(1, "a", frames(100));
        c.insert(1, "b", frames(100));
        // Touch `a` so `b` is the LRU victim.
        assert!(c.get(1, "a").is_some());
        c.insert(1, "c", frames(100));
        assert!(c.get(1, "a").is_some(), "recently used entry survives");
        assert!(c.get(1, "b").is_none(), "LRU entry evicted");
        assert!(c.get(1, "c").is_some());
        let s = c.stats();
        assert_eq!(s.evicted, 1);
        assert_eq!(s.bytes, 200);
        assert!(s.bytes <= c.budget());
    }

    #[test]
    fn oversized_bodies_are_served_uncached() {
        let c = SnapshotCache::new(100);
        c.insert(1, "big", frames(101));
        assert!(c.get(1, "big").is_none());
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn epoch_horizon_eviction_is_exact() {
        let c = SnapshotCache::new(1 << 20);
        c.insert(1, "t", frames(10));
        c.insert(2, "t", frames(20));
        c.insert(3, "t", frames(30));
        c.evict_below(3);
        assert!(c.get(1, "t").is_none());
        assert!(c.get(2, "t").is_none());
        assert!(c.get(3, "t").is_some(), "horizon epoch itself survives");
        let s = c.stats();
        assert_eq!(s.evicted, 2);
        assert_eq!(s.bytes, 30);
    }

    #[test]
    fn first_insert_wins_on_a_populate_race() {
        let c = SnapshotCache::new(1 << 20);
        let first = frames(10);
        c.insert(1, "t", Arc::clone(&first));
        c.insert(1, "t", frames(10));
        let got = c.get(1, "t").unwrap();
        assert!(Arc::ptr_eq(&got, &first));
        assert_eq!(c.stats().bytes, 10, "double insert must not double-count");
    }

    #[test]
    fn zero_budget_disables_everything() {
        let c = SnapshotCache::new(0);
        assert!(!c.enabled());
        c.insert(1, "t", frames(10));
        assert!(c.get(1, "t").is_none());
        c.evict_below(10);
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.evicted, s.bytes, s.entries),
            (0, 0, 0, 0, 0)
        );
    }
}
