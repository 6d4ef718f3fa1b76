use serde::{Deserialize, Serialize};

use sc_core::{NodeFacts, Problem};
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
    /// The node's annotation for the churn scenario being simulated.
    /// `None` everywhere disables delta tracking (every node recomputes,
    /// the pre-incremental behavior).
    pub churn: Option<SimChurn>,
}

/// What a churn scenario says about one node: the facts the shared mode
/// kernel ([`sc_core::modes::plan`]) decides from, exactly as the engine
/// hands them over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimChurn {
    /// The kernel's facts. Their `parents` are derived by the simulator
    /// from the workload graph and [`SimChurn::build_inputs`];
    /// `static_bytes` is also the build-side read the incremental path
    /// pays.
    pub facts: NodeFacts,
    /// Names of parent nodes feeding the *build* side of a delta-join
    /// spine: the node maintains incrementally only while they are
    /// skipped. Empty for join-free nodes.
    pub build_inputs: Vec<String>,
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
            churn: None,
        }
    }

    /// The churn annotation, created on first use: an existing,
    /// maintainable, delta-publishing node priced at its own sizes, on
    /// the rewrite path, with nothing stated about its delta yet.
    fn churn_mut(&mut self) -> &mut SimChurn {
        let (base_bytes, mv_bytes) = (self.base_read_bytes, self.output_bytes);
        self.churn.get_or_insert_with(|| SimChurn {
            facts: NodeFacts {
                exists: true,
                maintainable: true,
                maintainable_with_deletes: true,
                publishes: true,
                base_bytes,
                mv_bytes,
                ..NodeFacts::default()
            },
            build_inputs: Vec::new(),
        })
    }

    /// Annotates the node with its output-delta size for a churn scenario
    /// (`0`: nothing reaching the node changed, so it can be skipped).
    pub fn with_delta(mut self, delta_bytes: u64) -> Self {
        self.churn_mut().facts.stated_delta = Some(delta_bytes);
        self
    }

    /// Marks the node as a delta-join spine reading `read_bytes` of
    /// build-side inputs in full, with `parents` naming any build-side
    /// *parent nodes* (base-table build inputs contribute bytes only).
    pub fn with_build_side(
        mut self,
        parents: impl IntoIterator<Item = impl Into<String>>,
        read_bytes: u64,
    ) -> Self {
        let churn = self.churn_mut();
        churn.build_inputs = parents.into_iter().map(Into::into).collect();
        churn.facts.static_bytes = read_bytes;
        self
    }

    /// Marks the node's operators as not delta-maintainable (joins,
    /// sorts, …): it is recomputed in full whenever anything reaches it.
    pub fn full_only(mut self) -> Self {
        let facts = &mut self.churn_mut().facts;
        facts.maintainable = false;
        facts.maintainable_with_deletes = false;
        self
    }

    /// Marks the node as maintaining incrementally without publishing a
    /// delta (the engine's merge-aggregate shape): its consumers must
    /// recompute.
    pub fn merge_only(mut self) -> Self {
        self.churn_mut().facts.publishes = false;
        self
    }

    /// Attaches an observed runtime-cost summary, which `Auto` decisions
    /// consult exactly as the engine does with its observation sidecar.
    pub fn with_observed_cost(mut self, observed: sc_core::ObservedNodeCost) -> Self {
        self.churn_mut().facts.observed = Some(observed);
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
        let sizes = self.graph.map(|_, n| (n.name.clone(), n.output_bytes));
        config
            .cost_model()
            .build_problem(&sizes, config.memory_budget, |_| None)
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
