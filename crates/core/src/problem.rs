//! Problem instances for S/C Opt: the annotated workload DAG plus the
//! Memory Catalog budget.

use serde::{Deserialize, Serialize};

use sc_dag::{Dag, NodeId};

use crate::plan::FlagSet;
use crate::{OptError, Result};

/// Per-MV metadata consumed by the optimizer: the node's name, the size of
/// its output table (`si`) and its speedup score (`ti`, §IV).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvMeta {
    /// Human-readable identifier of the MV update (e.g. `"mv_daily_sales"`).
    pub name: String,
    /// Size in bytes of the intermediate table this node produces (`si`).
    pub size: u64,
    /// Estimated end-to-end time saving, in seconds, of keeping this node's
    /// output in the Memory Catalog (`ti`).
    pub score: f64,
}

impl MvMeta {
    /// Creates metadata for one MV update.
    pub fn new(name: impl Into<String>, size: u64, score: f64) -> Self {
        MvMeta {
            name: name.into(),
            size,
            score,
        }
    }
}

/// An instance of **S/C Opt** (Problem 1): the dependency graph `G`, node
/// sizes `S`, speedup scores `T`, and the Memory Catalog size `M`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Problem {
    graph: Dag<MvMeta>,
    budget: u64,
}

impl Problem {
    /// Builds a problem instance, validating scores.
    ///
    /// Scores must be finite and non-negative (a node whose caching would
    /// *slow down* the run should simply get score 0; the paper's exclusion
    /// rule `ti = 0` then removes it from the knapsack).
    pub fn new(graph: Dag<MvMeta>, budget: u64) -> Result<Self> {
        if budget == 0 {
            return Err(OptError::ZeroBudget);
        }
        for v in graph.node_ids() {
            let score = graph.node(v).score;
            if !score.is_finite() || score < 0.0 {
                return Err(OptError::InvalidScore { node: v, score });
            }
        }
        Ok(Problem { graph, budget })
    }

    /// Test constructor from parallel arrays.
    #[cfg(test)]
    pub(crate) fn from_arrays(
        names: &[&str],
        sizes: &[u64],
        scores: &[f64],
        edges: impl IntoIterator<Item = (usize, usize)>,
        budget: u64,
    ) -> Result<Self> {
        assert_eq!(names.len(), sizes.len());
        assert_eq!(names.len(), scores.len());
        let graph = Dag::from_parts(
            names
                .iter()
                .zip(sizes)
                .zip(scores)
                .map(|((n, &s), &t)| MvMeta::new(*n, s, t)),
            edges,
        )?;
        Problem::new(graph, budget)
    }

    /// The dependency graph.
    #[inline]
    pub fn graph(&self) -> &Dag<MvMeta> {
        &self.graph
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the instance has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Memory Catalog size `M`, in bytes.
    #[inline]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Returns a copy of this problem with a different budget.
    pub fn with_budget(&self, budget: u64) -> Result<Self> {
        Problem::new(self.graph.clone(), budget)
    }

    /// `si` for node `v`.
    #[inline]
    pub fn size(&self, v: NodeId) -> u64 {
        self.graph.node(v).size
    }

    /// `ti` for node `v`.
    #[inline]
    pub fn score(&self, v: NodeId) -> f64 {
        self.graph.node(v).score
    }

    /// All sizes indexed by node id.
    pub fn sizes(&self) -> Vec<u64> {
        self.graph.payloads().iter().map(|m| m.size).collect()
    }

    /// All scores indexed by node id.
    pub fn scores(&self) -> Vec<f64> {
        self.graph.payloads().iter().map(|m| m.score).collect()
    }

    /// Total speedup score of a flag set — the S/C Opt objective.
    pub fn total_score(&self, flags: &FlagSet) -> f64 {
        flags.iter().map(|v| self.score(v)).sum()
    }

    /// Total size of a flag set (used by Algorithm 2's convergence check).
    pub fn total_size(&self, flags: &FlagSet) -> u64 {
        flags.iter().map(|v| self.size(v)).sum()
    }

    /// Whether flagging `flags` under `order` keeps peak co-resident memory
    /// within the budget (the S/C Opt constraint).
    pub fn is_feasible(&self, order: &[NodeId], flags: &FlagSet) -> Result<bool> {
        let peak = crate::memory::peak_memory_usage(self, order, flags)?;
        Ok(peak <= self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Problem {
        Problem::from_arrays(
            &["a", "b", "c"],
            &[100, 50, 25],
            &[10.0, 5.0, 0.0],
            [(0, 1), (1, 2)],
            120,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let p = small();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.budget(), 120);
        assert_eq!(p.size(NodeId(0)), 100);
        assert_eq!(p.score(NodeId(1)), 5.0);
        assert_eq!(p.sizes(), vec![100, 50, 25]);
        assert_eq!(p.scores(), vec![10.0, 5.0, 0.0]);
    }

    #[test]
    fn rejects_zero_budget() {
        let g = Dag::from_parts([MvMeta::new("a", 1, 1.0)], std::iter::empty()).unwrap();
        assert_eq!(Problem::new(g, 0).unwrap_err(), OptError::ZeroBudget);
    }

    #[test]
    fn rejects_negative_or_nan_scores() {
        let g = Dag::from_parts([MvMeta::new("a", 1, -1.0)], std::iter::empty()).unwrap();
        assert!(matches!(
            Problem::new(g, 10),
            Err(OptError::InvalidScore { .. })
        ));
        let g = Dag::from_parts([MvMeta::new("a", 1, f64::NAN)], std::iter::empty()).unwrap();
        assert!(matches!(
            Problem::new(g, 10),
            Err(OptError::InvalidScore { .. })
        ));
    }

    #[test]
    fn totals_over_flag_sets() {
        let p = small();
        let mut flags = FlagSet::none(p.len());
        flags.set(NodeId(0), true);
        flags.set(NodeId(2), true);
        assert_eq!(p.total_score(&flags), 10.0);
        assert_eq!(p.total_size(&flags), 125);
    }

    #[test]
    fn with_budget_copies() {
        let p = small().with_budget(999).unwrap();
        assert_eq!(p.budget(), 999);
        assert_eq!(p.len(), 3);
    }
}
