use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Dag, DagError, NodeId, Result};

impl<N> Dag<N> {
    /// Kahn's algorithm with smallest-id tie-breaking.
    ///
    /// Deterministic: among ready nodes the one with the smallest id is
    /// scheduled first. This is the `GetTopologicalOrder` subroutine used to
    /// seed Algorithm 2 in the paper.
    pub fn kahn_order(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.node_ids().map(|v| self.in_degree(v)).collect();
        let mut heap: BinaryHeap<Reverse<NodeId>> = self
            .node_ids()
            .filter(|&v| indeg[v.index()] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(Reverse(v)) = heap.pop() {
            order.push(v);
            for &c in self.children(v) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    heap.push(Reverse(c));
                }
            }
        }
        debug_assert_eq!(order.len(), self.len(), "graph must be acyclic");
        order
    }

    /// DFS-based topological order (reverse postorder), visiting children in
    /// adjacency order. This mirrors "off-the-shelf DFS-based sorts" the
    /// paper contrasts MA-DFS against.
    pub fn dfs_postorder_topo(&self) -> Vec<NodeId> {
        let mut state = vec![0u8; self.len()]; // 0 = unseen, 1 = on stack, 2 = done
        let mut post = Vec::with_capacity(self.len());
        for root in self.node_ids() {
            if state[root.index()] != 0 {
                continue;
            }
            // Iterative DFS keeping an explicit child cursor per frame.
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            state[root.index()] = 1;
            while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
                if *cursor < self.children(v).len() {
                    let c = self.children(v)[*cursor];
                    *cursor += 1;
                    if state[c.index()] == 0 {
                        state[c.index()] = 1;
                        stack.push((c, 0));
                    }
                } else {
                    state[v.index()] = 2;
                    post.push(v);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post
    }

    /// Checks that `order` is a permutation of the node set that schedules
    /// every node after all of its parents.
    pub fn is_topological_order(&self, order: &[NodeId]) -> bool {
        self.validate_order(order).is_ok()
    }

    /// Like [`Dag::is_topological_order`] but reports *why* an order is
    /// invalid.
    pub fn validate_order(&self, order: &[NodeId]) -> Result<()> {
        if order.len() != self.len() {
            return Err(DagError::InvalidPermutation {
                expected: self.len(),
                got: order.len(),
            });
        }
        let mut pos = vec![usize::MAX; self.len()];
        for (i, &v) in order.iter().enumerate() {
            self.check_node(v)?;
            if pos[v.index()] != usize::MAX {
                return Err(DagError::InvalidPermutation {
                    expected: self.len(),
                    got: order.len(),
                });
            }
            pos[v.index()] = i;
        }
        for (from, to) in self.edges() {
            if pos[from.index()] > pos[to.index()] {
                return Err(DagError::NotTopological { from, to });
            }
        }
        Ok(())
    }

    /// Positions of nodes in `order`: `position[v] = i` iff `order[i] = v`.
    ///
    /// This is the `τ` mapping of the paper (`τ(i)` = execution position of
    /// node `vi`, here 0-based).
    pub fn order_positions(&self, order: &[NodeId]) -> Result<Vec<usize>> {
        self.validate_order(order)?;
        let mut pos = vec![0usize; self.len()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        Ok(pos)
    }
}

/// Incremental builder for custom topological orders.
///
/// Schedulers (MA-DFS, simulated annealing repair, separator ordering) use
/// this to emit nodes one by one while the builder tracks which nodes are
/// *ready* (all parents already emitted). Emitting a non-ready node is an
/// error, so any order produced through the builder is topological by
/// construction.
pub struct TopoBuilder<'a, N> {
    dag: &'a Dag<N>,
    remaining_parents: Vec<usize>,
    emitted: Vec<bool>,
    order: Vec<NodeId>,
}

impl<'a, N> TopoBuilder<'a, N> {
    /// Starts an empty order over `dag`.
    pub fn new(dag: &'a Dag<N>) -> Self {
        let remaining_parents = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        TopoBuilder {
            dag,
            remaining_parents,
            emitted: vec![false; dag.len()],
            order: Vec::with_capacity(dag.len()),
        }
    }

    /// Whether `v` can be scheduled next.
    pub fn is_ready(&self, v: NodeId) -> bool {
        !self.emitted[v.index()] && self.remaining_parents[v.index()] == 0
    }

    /// All currently ready nodes, in id order.
    pub fn ready_nodes(&self) -> Vec<NodeId> {
        self.dag.node_ids().filter(|&v| self.is_ready(v)).collect()
    }

    /// Schedules `v` next. Returns the children that became ready.
    pub fn emit(&mut self, v: NodeId) -> Result<Vec<NodeId>> {
        self.dag.check_node(v)?;
        if !self.is_ready(v) {
            // Emitting an already-emitted node is a permutation error;
            // emitting one with pending parents violates a dependency.
            if self.emitted[v.index()] {
                return Err(DagError::InvalidPermutation {
                    expected: self.dag.len(),
                    got: self.order.len() + 1,
                });
            }
            let blocking = self
                .dag
                .parents(v)
                .iter()
                .copied()
                .find(|p| !self.emitted[p.index()])
                .expect("non-ready node must have a pending parent");
            return Err(DagError::NotTopological {
                from: blocking,
                to: v,
            });
        }
        self.emitted[v.index()] = true;
        self.order.push(v);
        let mut newly_ready = Vec::new();
        for &c in self.dag.children(v) {
            self.remaining_parents[c.index()] -= 1;
            if self.remaining_parents[c.index()] == 0 {
                newly_ready.push(c);
            }
        }
        Ok(newly_ready)
    }

    /// Whether every node has been scheduled.
    pub fn is_complete(&self) -> bool {
        self.order.len() == self.dag.len()
    }

    /// Finishes the order; panics in debug builds if incomplete.
    pub fn finish(self) -> Vec<NodeId> {
        debug_assert!(
            self.is_complete(),
            "order incomplete: {}/{}",
            self.order.len(),
            self.dag.len()
        );
        self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7() -> Dag<&'static str> {
        // The Figure 7 toy example: v1..v6 (ids 0..5).
        // v1 -> v2 -> v4 ; v1 -> v4 ; v3 -> v5 ; v3 -> v6 ; v4 -> v6 (shape
        // chosen to exercise multi-parent release logic).
        Dag::from_parts(
            ["v1", "v2", "v3", "v4", "v5", "v6"],
            [(0, 1), (1, 3), (0, 3), (2, 4), (2, 5), (3, 5)],
        )
        .unwrap()
    }

    #[test]
    fn kahn_is_topological_and_deterministic() {
        let g = fig7();
        let o1 = g.kahn_order();
        let o2 = g.kahn_order();
        assert_eq!(o1, o2);
        assert!(g.is_topological_order(&o1));
        // Smallest-id tie-breaking: v1 (id 0) before v3 (id 2).
        assert_eq!(o1[0], NodeId(0));
    }

    #[test]
    fn dfs_topo_is_topological() {
        let g = fig7();
        let o = g.dfs_postorder_topo();
        assert!(g.is_topological_order(&o));
        assert_eq!(o.len(), g.len());
    }

    #[test]
    fn validate_order_rejects_wrong_length() {
        let g = fig7();
        assert!(matches!(
            g.validate_order(&[NodeId(0)]),
            Err(DagError::InvalidPermutation { .. })
        ));
    }

    #[test]
    fn validate_order_rejects_duplicates() {
        let g = fig7();
        let order = vec![NodeId(0); 6];
        assert!(matches!(
            g.validate_order(&order),
            Err(DagError::InvalidPermutation { .. })
        ));
    }

    #[test]
    fn validate_order_rejects_dependency_violation() {
        let g = fig7();
        let order = vec![
            NodeId(1),
            NodeId(0),
            NodeId(2),
            NodeId(3),
            NodeId(4),
            NodeId(5),
        ];
        assert_eq!(
            g.validate_order(&order),
            Err(DagError::NotTopological {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
    }

    #[test]
    fn order_positions_inverts_order() {
        let g = fig7();
        let order = g.kahn_order();
        let pos = g.order_positions(&order).unwrap();
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(pos[v.index()], i);
        }
    }

    #[test]
    fn topo_builder_tracks_ready_set() {
        let g = fig7();
        let mut b = TopoBuilder::new(&g);
        assert_eq!(b.ready_nodes(), vec![NodeId(0), NodeId(2)]);
        assert!(!b.is_ready(NodeId(1)));
        let newly = b.emit(NodeId(0)).unwrap();
        assert_eq!(newly, vec![NodeId(1)]);
        assert!(b.is_ready(NodeId(1)));
    }

    #[test]
    fn topo_builder_rejects_premature_emit() {
        let g = fig7();
        let mut b = TopoBuilder::new(&g);
        assert_eq!(
            b.emit(NodeId(1)),
            Err(DagError::NotTopological {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
    }

    #[test]
    fn topo_builder_rejects_double_emit() {
        let g = fig7();
        let mut b = TopoBuilder::new(&g);
        b.emit(NodeId(0)).unwrap();
        assert!(matches!(
            b.emit(NodeId(0)),
            Err(DagError::InvalidPermutation { .. })
        ));
    }

    #[test]
    fn topo_builder_full_run_is_topological() {
        let g = fig7();
        let mut b = TopoBuilder::new(&g);
        while !b.is_complete() {
            let v = b.ready_nodes()[0];
            b.emit(v).unwrap();
        }
        let order = b.finish();
        assert!(g.is_topological_order(&order));
    }

    #[test]
    fn single_node_graph() {
        let mut g: Dag<u8> = Dag::new();
        let v = g.add_node(1);
        assert_eq!(g.kahn_order(), vec![v]);
        assert_eq!(g.dfs_postorder_topo(), vec![v]);
    }
}
