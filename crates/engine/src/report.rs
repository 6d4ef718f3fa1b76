//! Structured refresh reports: what a managed [`crate::ScSession::refresh`]
//! run did per node, and a human-readable `explain()` of *why*.

use crate::controller::{CostProvenance, NodeMetrics, RunMetrics};
use sc_core::{NodeMode, Plan};

/// Outcome of one managed refresh run ([`crate::ScSession::refresh`]).
///
/// Wraps the engine's raw [`RunMetrics`] (per-node [`NodeMode`],
/// read/compute/write breakdowns, peak Memory Catalog usage) together with
/// the plan that was executed and whether this run was a profiling run.
/// [`RefreshReport::explain`] renders the whole thing — including the
/// [`sc_core::ModeReason`] mode planning recorded for every node — as a table.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// The engine's per-node and end-to-end measurements.
    pub metrics: RunMetrics,
    /// The plan the run executed (the cached optimized plan, or the
    /// unoptimized topological order on a profiling run).
    pub plan: Plan,
    /// Whether this run (re)profiled the workload: the session had no
    /// valid cached plan, so it executed the unoptimized order, derived a
    /// fresh optimized plan from the observed metrics, and cached it for
    /// the next refresh.
    pub profiled: bool,
}

impl RefreshReport {
    /// End-to-end wall time of the run, seconds.
    pub fn total_s(&self) -> f64 {
        self.metrics.total_s
    }

    /// Per-node breakdowns in plan order.
    pub fn nodes(&self) -> &[NodeMetrics] {
        &self.metrics.nodes
    }

    /// The metrics row for `mv`, if the session refreshed it.
    pub fn node(&self, mv: &str) -> Option<&NodeMetrics> {
        self.metrics.nodes.iter().find(|n| n.name == mv)
    }

    /// How `mv` was brought up to date, if the session refreshed it.
    pub fn mode(&self, mv: &str) -> Option<NodeMode> {
        self.node(mv).map(|n| n.mode)
    }

    /// Renders the run as a table: one row per node with its mode, its
    /// Memory Catalog placement, the delta/read/compute/write breakdown,
    /// the full and delta costs an `Auto` decision predicted next to the
    /// node's measured time (read + compute + blocking write), and the
    /// [`sc_core::ModeReason`] explaining why the node was
    /// flagged/skipped/incremental — followed by run totals.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "refresh of {} MVs ({}): {:.3}s end-to-end, peak memory {} of {} bytes\n",
            self.metrics.nodes.len(),
            if self.profiled {
                "profiling run, plan cached for next refresh"
            } else {
                "cached plan"
            },
            self.metrics.total_s,
            self.metrics.peak_memory_bytes,
            self.metrics.memory_budget_bytes,
        ));
        out.push_str(&format!(
            "{:<20} {:<12} {:<6} {:>10} {:>10} {:>4} {:>8} {:>8} {:>8} {:>4} {:>9} {:>9} {:>9}  why\n",
            "mv",
            "mode",
            "where",
            "delta B",
            "app B",
            "segs",
            "read s",
            "cmpt s",
            "write s",
            "obs",
            "full ms",
            "delta ms",
            "took ms"
        ));
        for n in &self.metrics.nodes {
            let mode = match n.mode {
                NodeMode::Full => "full",
                NodeMode::Incremental => "incremental",
                NodeMode::Skipped => "skipped",
            };
            let placement = if n.fell_back {
                "disk*" // flagged, but fell back under memory pressure
            } else if n.flagged {
                "mem"
            } else if n.mode == NodeMode::Skipped {
                "-"
            } else {
                "disk"
            };
            // Cost provenance: whether the mode decision priced with
            // persisted runtime observations, static estimates, or was
            // forced without comparing costs at all.
            let obs = match n.cost {
                CostProvenance::Policy => "-",
                CostProvenance::Estimated => "est",
                CostProvenance::Observed => "obs",
            };
            // What the cost model predicted for each way, beside what the
            // chosen one took.
            let (full, delta) = match n.predicted {
                Some(p) => (
                    format!("{:.3}", p.full_s * 1e3),
                    format!("{:.3}", p.incremental_s * 1e3),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            out.push_str(&format!(
                "{:<20} {:<12} {:<6} {:>10} {:>10} {:>4} {:>8.3} {:>8.3} {:>8.3} {:>4} {:>9} {:>9} {:>9.3}  {}\n",
                n.name,
                mode,
                placement,
                n.delta_bytes,
                n.appended_bytes,
                n.segments,
                n.read_s,
                n.compute_s,
                n.write_s,
                obs,
                full,
                delta,
                (n.read_s + n.compute_s + n.write_s) * 1e3,
                n.reason.describe(),
            ));
        }
        let appended: u64 = self.metrics.nodes.iter().map(|n| n.appended_bytes).sum();
        if appended > 0 {
            out.push_str(&format!(
                "({appended} B persisted by appending delta-sized segments instead of rewriting MVs)\n"
            ));
        }
        if self.metrics.nodes.iter().any(|n| n.fell_back) {
            out.push_str("(* flagged for the Memory Catalog but fell back to a blocking disk write under memory pressure)\n");
        }
        out.push_str(&format!(
            "totals: read {:.3}s, compute {:.3}s, blocking write {:.3}s, final drain {:.3}s\n",
            self.metrics.total_read_s(),
            self.metrics.total_compute_s(),
            self.metrics.total_write_s(),
            self.metrics.final_drain_s,
        ));
        if self.metrics.gc_failed_deletes > 0 {
            out.push_str(&format!(
                "WARNING: {} retained-file delete(s) failed during epoch GC; superseded segments are leaking on disk\n",
                self.metrics.gc_failed_deletes,
            ));
        }
        if let Some(e) = &self.metrics.observation_save_error {
            out.push_str(&format!(
                "WARNING: runtime observations were not saved ({e}); a reopened session will not see them\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{FlagSet, ModeReason, RefreshCosts};

    fn metrics_row(name: &str, mode: NodeMode, reason: ModeReason, flagged: bool) -> NodeMetrics {
        NodeMetrics {
            name: name.into(),
            mode,
            reason,
            delta_bytes: 42,
            appended_bytes: if mode == NodeMode::Incremental { 42 } else { 0 },
            segments: if mode == NodeMode::Incremental { 3 } else { 1 },
            read_s: 0.1,
            compute_s: 0.2,
            write_s: 0.3,
            output_bytes: 1024,
            rows: 10,
            flagged,
            fell_back: false,
            memory_reads: 0,
            disk_reads: 1,
            cost: if mode == NodeMode::Skipped {
                CostProvenance::Policy
            } else {
                CostProvenance::Estimated
            },
            predicted: (mode != NodeMode::Skipped).then_some(RefreshCosts {
                full_s: 0.0125,
                incremental_s: if mode == NodeMode::Full { 0.5 } else { 0.0007 },
            }),
        }
    }

    #[test]
    fn explain_renders_every_node_with_its_reason() {
        let report = RefreshReport {
            metrics: RunMetrics {
                total_s: 1.5,
                nodes: vec![
                    metrics_row("hub", NodeMode::Incremental, ModeReason::DeltaApplied, true),
                    metrics_row("agg", NodeMode::Full, ModeReason::CostModel, false),
                    NodeMetrics::skipped("quiet"),
                ],
                peak_memory_bytes: 2048,
                memory_budget_bytes: 4096,
                final_drain_s: 0.0,
                gc_failed_deletes: 0,
                observation_save_error: None,
            },
            plan: Plan {
                order: (0..3).map(sc_dag::NodeId).collect(),
                flagged: FlagSet::none(3),
            },
            profiled: true,
        };
        let text = report.explain();
        assert!(text.contains("profiling run"));
        assert!(text.contains("hub"));
        assert!(text.contains("applied the propagated delta"));
        assert!(text.contains("cost model"));
        assert!(text.contains("no pending change reaches it"));
        assert!(text.contains("peak memory 2048 of 4096 bytes"));
        // Each Auto decision shows both predictions beside the measured
        // time: here the cost model priced agg's delta path at 500 ms
        // while its full path took 600.
        let agg = text.lines().find(|l| l.starts_with("agg")).unwrap();
        assert!(
            agg.contains("12.500") && agg.contains("500.000") && agg.contains("600.000"),
            "{agg}"
        );
        let quiet = text.lines().find(|l| l.starts_with("quiet")).unwrap();
        assert!(!quiet.contains("12.500"), "{quiet}");
        assert!(
            text.contains("42 B persisted by appending"),
            "append totals surface: {text}"
        );
        assert_eq!(report.mode("quiet"), Some(NodeMode::Skipped));
        assert_eq!(report.mode("missing"), None);
        assert_eq!(report.total_s(), 1.5);

        // GC debt is silent at zero, loud when a run leaked.
        assert!(!text.contains("WARNING"));
        let mut leaky = report.clone();
        leaky.metrics.gc_failed_deletes = 2;
        let text = leaky.explain();
        assert!(
            text.contains("WARNING: 2 retained-file delete(s) failed"),
            "gc debt warning missing: {text}"
        );
        let mut unsaved = report.clone();
        unsaved.metrics.observation_save_error = Some("disk full".into());
        let text = unsaved.explain();
        assert!(
            text.contains("WARNING: runtime observations were not saved (disk full)"),
            "sidecar warning missing: {text}"
        );
    }
}
