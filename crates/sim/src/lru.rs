//! The DBMS **LRU cache** baseline of Figure 9: instead of S/C's planned
//! Memory Catalog, the engine's result cache is simply enlarged by the same
//! number of bytes. Intermediate tables enter the cache when written and on
//! (disk) reads; the least-recently-used entries are evicted to make room.
//! All writes remain blocking — an LRU cache cannot parallelize
//! materialization, which is one of the two effects it misses relative to
//! S/C (the other being any notion of scheduling).

use sc_dag::NodeId;

use crate::report::{NodeTimeline, SimReport};
use crate::simulator::Simulator;
use crate::workload::SimWorkload;

/// An LRU set of node outputs with byte capacity.
struct LruCache {
    capacity: u64,
    used: u64,
    /// Most-recent last.
    entries: Vec<(usize, u64)>,
}

impl LruCache {
    fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            entries: Vec::new(),
        }
    }

    fn contains(&self, node: usize) -> bool {
        self.entries.iter().any(|&(n, _)| n == node)
    }

    fn touch(&mut self, node: usize) {
        if let Some(i) = self.entries.iter().position(|&(n, _)| n == node) {
            let e = self.entries.remove(i);
            self.entries.push(e);
        }
    }

    fn insert(&mut self, node: usize, bytes: u64) {
        if bytes > self.capacity {
            return; // too big to ever cache
        }
        if self.contains(node) {
            self.touch(node);
            return;
        }
        while self.used + bytes > self.capacity {
            let (_, evicted) = self.entries.remove(0);
            self.used -= evicted;
        }
        self.entries.push((node, bytes));
        self.used += bytes;
    }

    fn peak_candidate(&self) -> u64 {
        self.used
    }
}

impl Simulator {
    /// Simulates the LRU-cache baseline: sequential execution in `order`,
    /// blocking writes, with a result cache of `cache_bytes` serving
    /// intermediate-table reads at memory speed.
    pub fn run_lru(
        &self,
        workload: &SimWorkload,
        order: &[NodeId],
        cache_bytes: u64,
    ) -> crate::Result<SimReport> {
        let graph = &workload.graph;
        graph.validate_order(order)?;
        let cfg = self.config();
        let mut cache = LruCache::new(cache_bytes);
        let mut now = 0.0f64;
        let mut peak = 0u64;
        let mut timelines = Vec::with_capacity(graph.len());

        for &v in order {
            let node = graph.node(v);
            now += cfg.per_node_overhead_s;
            let start = now;
            let mut read_s = 0.0;
            let mut disk_read_s = 0.0;
            if node.base_read_bytes > 0 {
                let cost = self.lru_disk_read(node.base_read_bytes);
                read_s += cost;
                disk_read_s += cost;
            }
            for &parent in graph.parents(v) {
                let bytes = graph.node(parent).output_bytes;
                if cache.contains(parent.index()) {
                    cache.touch(parent.index());
                    read_s += bytes as f64 / cfg.mem_bps;
                } else {
                    let cost = self.lru_disk_read(bytes);
                    read_s += cost;
                    disk_read_s += cost;
                    cache.insert(parent.index(), bytes);
                    peak = peak.max(cache.peak_candidate());
                }
            }
            let compute_s = node.compute_s * (1.0 + cfg.compute_penalty) / cfg.compute_scale;
            let available = start + read_s + compute_s;
            // Blocking write; the fresh output enters the cache.
            let write_s =
                cfg.disk_latency_s + node.output_bytes as f64 / (cfg.disk_write_bps * cfg.io_scale);
            cache.insert(v.index(), node.output_bytes);
            peak = peak.max(cache.peak_candidate());
            now = available + write_s;

            timelines.push(NodeTimeline {
                name: node.name.clone(),
                mode: sc_core::NodeMode::Full,
                reason: sc_core::ModeReason::FullPolicy,
                start_s: start,
                read_s,
                disk_read_s,
                compute_s,
                write_s,
                available_s: available,
                persisted_s: now,
                flagged: false,
                fell_back: false,
            });
        }
        Ok(SimReport {
            total_s: now,
            nodes: timelines,
            peak_memory_bytes: peak,
        })
    }

    fn lru_disk_read(&self, bytes: u64) -> f64 {
        let cfg = self.config();
        cfg.disk_latency_s + bytes as f64 / (cfg.disk_read_bps * cfg.io_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SimConfig;
    use crate::workload::SimNode;

    const GIB: u64 = 1 << 30;

    fn chain() -> SimWorkload {
        SimWorkload::from_parts(
            [
                SimNode::new("a", 1.0, 2 * GIB, 4 * GIB),
                SimNode::new("b", 1.0, GIB, 0),
                SimNode::new("c", 1.0, GIB, 0),
            ],
            [(0, 1), (0, 2)],
        )
        .unwrap()
    }

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn cache_hits_speed_up_reads() {
        let w = chain();
        let sim = Simulator::new(SimConfig::paper(8 * GIB));
        let cold = sim.run_lru(&w, &ids(&[0, 1, 2]), 0).unwrap();
        let warm = sim.run_lru(&w, &ids(&[0, 1, 2]), 8 * GIB).unwrap();
        assert!(warm.total_s < cold.total_s);
        // With cache: both consumers of `a` read from memory.
        assert_eq!(warm.nodes[1].disk_read_s, 0.0);
        assert_eq!(warm.nodes[2].disk_read_s, 0.0);
    }

    #[test]
    fn lru_is_slower_than_sc_plan() {
        use sc_core::{FlagSet, Plan};
        let w = chain();
        let sim = Simulator::new(SimConfig::paper(8 * GIB));
        let lru = sim.run_lru(&w, &ids(&[0, 1, 2]), 8 * GIB).unwrap();
        let plan = Plan {
            order: ids(&[0, 1, 2]),
            flagged: FlagSet::from_nodes(3, [NodeId(0)]),
        };
        let sc = sim.run(&w, &plan).unwrap();
        // Same memory, but S/C additionally hides a's write.
        assert!(sc.total_s < lru.total_s);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut cache = LruCache::new(100);
        cache.insert(1, 60);
        cache.insert(2, 30);
        cache.insert(3, 30); // evicts 1
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.used, 60);
        // Touch 2, insert big: 3 is now LRU and goes first.
        cache.touch(2);
        cache.insert(4, 70);
        assert!(!cache.contains(3));
        assert!(cache.contains(2));
    }

    #[test]
    fn oversized_entries_never_cached() {
        let mut cache = LruCache::new(10);
        cache.insert(1, 100);
        assert!(!cache.contains(1));
        assert_eq!(cache.used, 0);
    }

    #[test]
    fn zero_cache_behaves_like_no_opt() {
        let w = chain();
        let sim = Simulator::new(SimConfig::paper(GIB));
        let lru = sim.run_lru(&w, &ids(&[0, 1, 2]), 0).unwrap();
        let base = sim.run_unoptimized(&w).unwrap();
        assert!((lru.total_s - base.total_s).abs() < 1e-9);
    }
}
