use serde::{Deserialize, Serialize};

use sc_core::{ModeReason, NodeMode};

/// Simulated timeline of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeTimeline {
    /// Node name.
    pub name: String,
    /// How the node was brought up to date (full recompute, incremental
    /// delta maintenance, or skipped).
    pub mode: NodeMode,
    /// Why mode planning settled on [`NodeTimeline::mode`] — the same
    /// reason the engine reports for the same facts.
    pub reason: ModeReason,
    /// Simulation time at which the node started executing.
    pub start_s: f64,
    /// Seconds spent reading inputs (disk + memory).
    pub read_s: f64,
    /// Seconds of that spent on *external storage* reads only.
    pub disk_read_s: f64,
    /// Seconds of operator compute.
    pub compute_s: f64,
    /// Seconds of blocking write (0 when materialization was backgrounded).
    pub write_s: f64,
    /// Simulation time at which the node's *computation* finished (its
    /// output became available to consumers).
    pub available_s: f64,
    /// Simulation time at which the output was durable on storage.
    pub persisted_s: f64,
    /// Whether the node was kept in the Memory Catalog.
    pub flagged: bool,
    /// Whether a flagged node fell back to a blocking write under memory
    /// pressure.
    pub fell_back: bool,
}

/// Aggregate result of one simulated refresh run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// End-to-end time: all nodes executed *and* all outputs persisted.
    pub total_s: f64,
    /// Per-node timelines in execution order.
    pub nodes: Vec<NodeTimeline>,
    /// Peak simultaneous Memory Catalog usage, bytes.
    pub peak_memory_bytes: u64,
}

impl SimReport {
    /// Total table-read seconds (disk + memory) — the paper's "Table read"
    /// CPU metric in Table IV.
    pub fn total_read_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.read_s).sum()
    }

    /// Total external-storage read seconds.
    pub fn total_disk_read_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.disk_read_s).sum()
    }

    /// Total compute seconds.
    pub fn total_compute_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.compute_s).sum()
    }

    /// Total blocking write seconds.
    pub fn total_write_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.write_s).sum()
    }

    /// Total "query" seconds (read + compute + blocking write) — Table IV's
    /// "Query" row.
    pub fn total_query_s(&self) -> f64 {
        self.total_read_s() + self.total_compute_s() + self.total_write_s()
    }

    /// Number of nodes that fell back to blocking writes.
    pub fn fallbacks(&self) -> usize {
        self.nodes.iter().filter(|n| n.fell_back).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregations() {
        let node = |read, disk, compute, write, fell_back| NodeTimeline {
            name: "n".into(),
            mode: NodeMode::Full,
            reason: ModeReason::FullPolicy,
            start_s: 0.0,
            read_s: read,
            disk_read_s: disk,
            compute_s: compute,
            write_s: write,
            available_s: 0.0,
            persisted_s: 0.0,
            flagged: false,
            fell_back,
        };
        let r = SimReport {
            total_s: 10.0,
            nodes: vec![
                node(1.0, 0.5, 2.0, 3.0, false),
                node(0.5, 0.5, 1.0, 0.0, true),
            ],
            peak_memory_bytes: 42,
        };
        assert_eq!(r.total_read_s(), 1.5);
        assert_eq!(r.total_disk_read_s(), 1.0);
        assert_eq!(r.total_compute_s(), 3.0);
        assert_eq!(r.total_write_s(), 3.0);
        assert_eq!(r.total_query_s(), 7.5);
        assert_eq!(r.fallbacks(), 1);
    }
}
