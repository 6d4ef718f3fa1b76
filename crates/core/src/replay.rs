//! Plan-order Memory Catalog accounting — the one admission logic of the
//! refresh executor (engine) and its discrete-event mirror (simulator), so
//! their admit-or-fallback decisions can never drift apart.
//!
//! The accounting walks `plan.order`: at each flagged node with consumers
//! it admits the output if it fits the remaining budget (otherwise the
//! node falls back to a blocking write), then releases every parent whose
//! consumers have all executed. [`AdmissionReplay`] performs that walk
//! incrementally — the engine applies its [`CatalogStep`]s to the real
//! catalog as output sizes arrive, whatever order the lanes finish in,
//! while the simulator (which knows all sizes upfront) advances it in one
//! call.

use sc_dag::NodeId;

use crate::plan::FlagSet;

/// One Memory Catalog action of the plan-order accounting, in the order
/// the executor must apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogStep {
    /// A flagged node with consumers reached its turn: admit its payload
    /// (`admit`) or fall back to a blocking write. `used` is the bytes
    /// resident just before the decision.
    Decide {
        /// Node index.
        node: usize,
        /// Whether the payload fits the remaining budget.
        admit: bool,
        /// Bytes resident before this decision.
        used: u64,
    },
    /// Every consumer of the resident `node` has executed: release its
    /// entry.
    Release {
        /// Node index.
        node: usize,
    },
}

/// Incremental replayer for plan-order flag-admission decisions.
#[derive(Debug, Clone)]
pub struct AdmissionReplay {
    order: Vec<usize>,
    parents: Vec<Vec<usize>>,
    budget: u64,
    used: u64,
    peak: u64,
    /// First plan position not yet replayed.
    pos: usize,
    resident: Vec<bool>,
    remaining_children: Vec<usize>,
    flagged_with_children: Vec<bool>,
}

impl AdmissionReplay {
    /// Builds a replayer for the execution `order` and `flagged` set over
    /// a DAG given as per-node parent lists (indices into the node set).
    /// `budget` is the Memory Catalog size `M`.
    pub fn new(order: &[NodeId], flagged: &FlagSet, parents: &[Vec<usize>], budget: u64) -> Self {
        let n = parents.len();
        let mut remaining_children = vec![0usize; n];
        for ps in parents {
            for &p in ps {
                remaining_children[p] += 1;
            }
        }
        let flagged_with_children = (0..n)
            .map(|i| flagged.contains(NodeId(i)) && remaining_children[i] > 0)
            .collect();
        AdmissionReplay {
            order: order.iter().map(|v| v.index()).collect(),
            parents: parents.to_vec(),
            budget,
            used: 0,
            peak: 0,
            pos: 0,
            resident: vec![false; n],
            remaining_children,
            flagged_with_children,
        }
    }

    /// Replays plan positions whose nodes have computed (`computed` and
    /// `sizes` are indexed by node id; a computed node's size must be
    /// final) and returns the catalog actions they imply, in order. Stops
    /// at the first uncomputed position. Safe to call repeatedly as more
    /// nodes compute.
    pub fn advance(&mut self, computed: &[bool], sizes: &[u64]) -> Vec<CatalogStep> {
        let mut steps = Vec::new();
        while self.pos < self.order.len() {
            let v = self.order[self.pos];
            if !computed[v] {
                break;
            }
            if self.flagged_with_children[v] {
                let admit = self.used + sizes[v] <= self.budget;
                steps.push(CatalogStep::Decide {
                    node: v,
                    admit,
                    used: self.used,
                });
                if admit {
                    self.resident[v] = true;
                    self.used += sizes[v];
                    self.peak = self.peak.max(self.used);
                }
            }
            // The node consumed its parents: release entries whose
            // consumers have now all executed.
            for &p in &self.parents[v] {
                self.remaining_children[p] -= 1;
                if self.remaining_children[p] == 0 && self.resident[p] {
                    self.resident[p] = false;
                    self.used -= sizes[p];
                    steps.push(CatalogStep::Release { node: p });
                }
            }
            self.pos += 1;
        }
        steps
    }

    /// First plan position not yet replayed (the computed plan-order
    /// prefix length).
    pub fn prefix(&self) -> usize {
        self.pos
    }

    /// Model bytes resident after the replayed prefix.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Highest model residency reached over the replayed prefix.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;

    /// base-less diamond: 0 -> {1, 2} -> 3, all flagged.
    fn diamond_plan(n: usize, flagged: &[usize]) -> (Plan, Vec<Vec<usize>>) {
        let order: Vec<NodeId> = (0..n).map(NodeId).collect();
        let plan = Plan {
            order,
            flagged: FlagSet::from_nodes(n, flagged.iter().map(|&i| NodeId(i))),
        };
        let parents = vec![vec![], vec![0], vec![0], vec![1, 2]];
        (plan, parents)
    }

    #[test]
    fn admits_within_budget_and_releases_on_last_consumer() {
        let (plan, parents) = diamond_plan(4, &[0, 1, 2]);
        let sizes = vec![100, 60, 60, 10];
        // Budget fits 0 and one of {1,2} at a time only after 0 releases.
        let mut r = AdmissionReplay::new(&plan.order, &plan.flagged, &parents, 160);
        let steps = r.advance(&[true; 4], &sizes);
        assert_eq!(r.prefix(), 4);
        // After 3 consumed 1 and 2, everything is released.
        assert_eq!(r.used(), 0);
        assert_eq!(r.peak(), 160);
        // Admit-then-release, in plan order. 1 is decided while 0 is still
        // resident: 100 + 60 = 160 fits exactly. 0 is released only after
        // 2 — its last consumer — has executed, so at 2's turn 160 + 60
        // overflows and 2 falls back. 3 is a leaf: no decision.
        use CatalogStep::{Decide, Release};
        assert_eq!(
            steps,
            vec![
                Decide {
                    node: 0,
                    admit: true,
                    used: 0
                },
                Decide {
                    node: 1,
                    admit: true,
                    used: 100
                },
                Decide {
                    node: 2,
                    admit: false,
                    used: 160
                },
                Release { node: 0 },
                Release { node: 1 },
            ]
        );
    }

    #[test]
    fn incremental_advance_matches_upfront() {
        let (plan, parents) = diamond_plan(4, &[0, 1, 2]);
        let sizes = vec![100, 60, 60, 10];
        let mut upfront = AdmissionReplay::new(&plan.order, &plan.flagged, &parents, 160);
        let want = upfront.advance(&[true; 4], &sizes);

        let mut incremental = AdmissionReplay::new(&plan.order, &plan.flagged, &parents, 160);
        let mut computed = vec![false; 4];
        let mut got = Vec::new();
        // Nodes compute out of order; the steps must still come out the
        // same, in plan order.
        for &done in &[2usize, 0, 3, 1] {
            computed[done] = true;
            got.extend(incremental.advance(&computed, &sizes));
        }
        assert_eq!(got, want);
        assert_eq!(incremental.prefix(), 4);
    }
}
