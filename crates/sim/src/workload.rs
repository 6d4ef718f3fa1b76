use serde::{Deserialize, Serialize};

use sc_core::{MvMeta, Problem};
use sc_dag::Dag;

use crate::simulator::SimConfig;

/// One simulated MV update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimNode {
    /// Name (for reports).
    pub name: String,
    /// Pure operator time on one worker, seconds (excludes all I/O).
    pub compute_s: f64,
    /// Output (intermediate table) size in bytes — the optimizer's `si`.
    pub output_bytes: u64,
    /// Bytes read from *base tables* (external storage that is never a
    /// candidate for the Memory Catalog). Parent MV outputs are read in
    /// addition to this.
    pub base_read_bytes: u64,
    /// Size of the node's output delta under the churn scenario being
    /// simulated. `None` disables delta tracking for this node (it is
    /// always recomputed, the pre-incremental behavior); `Some(0)` means
    /// nothing reaching the node changed, so it can be skipped.
    pub delta_bytes: Option<u64>,
    /// Whether the node's operators support incremental maintenance
    /// (mirrors the engine's `LogicalPlan::incremental_support`). Only
    /// consulted when `delta_bytes` is set.
    pub delta_supported: bool,
    /// Whether the node publishes an output delta its consumers can
    /// maintain from. Row-wise chains publish; aggregate-merge nodes
    /// absorb their input delta but publish nothing, so their consumers
    /// recompute (mirror with [`SimNode::merge_only`]).
    pub delta_publishes: bool,
    /// Names of parent nodes feeding the *build* side of a delta-join
    /// spine (mirrors the engine's `IncrementalSupport::static_tables`):
    /// the node can maintain incrementally only while these parents are
    /// Skipped — a changed build side interleaves new join pairs into
    /// existing match groups, which no append-only delta reproduces, so
    /// the engine recomputes. Empty for join-free nodes.
    pub build_inputs: Vec<String>,
    /// Bytes of build-side inputs (dimension tables and static parents)
    /// the incremental path still reads in full to probe the propagated
    /// delta. A subset of the node's total input bytes; 0 for join-free
    /// nodes. Charged as disk read time on the incremental path and fed
    /// to `CostModel::incremental_refresh_wins` under `Auto`.
    pub build_read_bytes: u64,
    /// Whether the node's delta can be persisted as an **appended
    /// segment** on the engine's segmented storage (an insert-only,
    /// delta-publishing shape): the incremental path then skips the
    /// own-contents re-read and writes `delta_bytes` instead of
    /// `output_bytes`. Mirrors `publishes ∧ ¬deletes` in the engine's
    /// delta planner; fed to the cost model under `Auto`.
    pub delta_appendable: bool,
    /// Observed runtime-cost summary for this node's identity, mirroring
    /// the engine's observation sidecar (`ObservationStore::summary` on a
    /// fingerprint match). When set, `Auto` decisions consult it via
    /// [`sc_core::CostModel::incremental_refresh_wins`] exactly
    /// as the engine does; `None` falls back to the static size-based
    /// estimates.
    pub observed_cost: Option<sc_core::ObservedNodeCost>,
}

impl SimNode {
    /// Creates a node (no delta tracking; see [`SimNode::with_delta`]).
    pub fn new(
        name: impl Into<String>,
        compute_s: f64,
        output_bytes: u64,
        base_read_bytes: u64,
    ) -> Self {
        SimNode {
            name: name.into(),
            compute_s,
            output_bytes,
            base_read_bytes,
            delta_bytes: None,
            delta_supported: true,
            delta_publishes: true,
            build_inputs: Vec::new(),
            build_read_bytes: 0,
            delta_appendable: false,
            observed_cost: None,
        }
    }

    /// Annotates the node with its output-delta size for a churn scenario.
    pub fn with_delta(mut self, delta_bytes: u64) -> Self {
        self.delta_bytes = Some(delta_bytes);
        self
    }

    /// Marks the node's delta as appendable on segmented storage (an
    /// insert-only, delta-publishing shape).
    pub fn appendable(mut self) -> Self {
        self.delta_appendable = true;
        self
    }

    /// Marks the node as a delta-join spine reading `read_bytes` of static
    /// build-side inputs, with `parents` naming any build-side *parent
    /// nodes* (base-table build inputs contribute bytes only — their
    /// staleness is folded into the node's own `delta_supported` flag by
    /// whoever builds the scenario).
    pub fn with_build_side(
        mut self,
        parents: impl IntoIterator<Item = impl Into<String>>,
        read_bytes: u64,
    ) -> Self {
        self.build_inputs = parents.into_iter().map(Into::into).collect();
        self.build_read_bytes = read_bytes;
        self
    }

    /// Marks the node's operators as not delta-maintainable (joins,
    /// sorts, …): it is recomputed in full whenever anything reaches it.
    pub fn full_only(mut self) -> Self {
        self.delta_supported = false;
        self
    }

    /// Marks the node as maintaining incrementally without publishing a
    /// delta (the engine's merge-aggregate shape): its consumers must
    /// recompute.
    pub fn merge_only(mut self) -> Self {
        self.delta_publishes = false;
        self
    }

    /// Attaches an observed runtime-cost summary (see
    /// [`SimNode::observed_cost`]).
    pub fn with_observed_cost(mut self, observed: sc_core::ObservedNodeCost) -> Self {
        self.observed_cost = Some(observed);
        self
    }
}

/// A simulated workload: a DAG of [`SimNode`]s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimWorkload {
    /// Dependency graph (edge `a -> b` means `b` reads `a`'s output).
    pub graph: Dag<SimNode>,
}

impl SimWorkload {
    /// Builds a workload from nodes and dependency edges.
    pub fn from_parts(
        nodes: impl IntoIterator<Item = SimNode>,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> sc_dag::Result<Self> {
        Ok(SimWorkload {
            graph: Dag::from_parts(nodes, edges)?,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Derives the S/C Opt instance for this workload under `config`:
    /// node sizes are output sizes, speedup scores follow §IV's formula
    /// with the config's bandwidths.
    pub fn problem(&self, config: &SimConfig) -> sc_core::Result<Problem> {
        let cost = config.cost_model();
        let annotated = self.graph.map(|v, n| {
            MvMeta::new(
                n.name.clone(),
                n.output_bytes,
                cost.speedup_score(n.output_bytes, self.graph.out_degree(v), None),
            )
        });
        Problem::new(annotated, config.memory_budget)
    }

    /// Total bytes read from external storage by the unoptimized run
    /// (base reads plus every parent-output read).
    pub fn total_disk_read_bytes(&self) -> u64 {
        self.graph
            .node_ids()
            .map(|v| {
                let n = self.graph.node(v);
                let parent_bytes: u64 = self
                    .graph
                    .parents(v)
                    .iter()
                    .map(|&p| self.graph.node(p).output_bytes)
                    .sum();
                n.base_read_bytes + parent_bytes
            })
            .sum()
    }

    /// Total bytes written (every node's output).
    pub fn total_write_bytes(&self) -> u64 {
        self.graph.payloads().iter().map(|n| n.output_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> SimWorkload {
        SimWorkload::from_parts(
            [
                SimNode::new("a", 1.0, 100, 1000),
                SimNode::new("b", 2.0, 50, 0),
                SimNode::new("c", 3.0, 25, 200),
            ],
            [(0, 1), (0, 2), (1, 2)],
        )
        .unwrap()
    }

    #[test]
    fn byte_totals() {
        let w = w();
        // Reads: a: 1000; b: 100 (from a); c: 200 + 100 + 50.
        assert_eq!(w.total_disk_read_bytes(), 1000 + 100 + 350);
        assert_eq!(w.total_write_bytes(), 175);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn problem_derivation_scores_by_fanout() {
        let w = w();
        let config = SimConfig::paper(1 << 30);
        let p = w.problem(&config).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.size(sc_dag::NodeId(0)), 100);
        // a has 2 children, b has 1, c has 0: scores ordered accordingly
        // when sizes are comparable (a is also largest).
        assert!(p.score(sc_dag::NodeId(0)) > p.score(sc_dag::NodeId(1)));
        assert!(p.score(sc_dag::NodeId(1)) > 0.0);
    }

    #[test]
    fn cycle_rejected() {
        let r = SimWorkload::from_parts(
            [SimNode::new("a", 1.0, 1, 0), SimNode::new("b", 1.0, 1, 0)],
            [(0, 1), (1, 0)],
        );
        assert!(r.is_err());
    }
}
