use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DagError, Result};

/// Identifier of a node inside a [`Dag`].
///
/// Ids are dense indices assigned in insertion order, which lets the
/// optimizer use plain `Vec`s indexed by node id instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// An append-only directed acyclic graph with a payload per node.
///
/// Both forward (`children`) and reverse (`parents`) adjacency lists are
/// maintained so that the scheduler can walk dependencies in either
/// direction in O(degree). Edge insertion performs a reachability check and
/// rejects edges that would introduce a cycle, so a `Dag` is acyclic by
/// construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dag<N> {
    nodes: Vec<N>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N> Default for Dag<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> Dag<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dag {
            nodes: Vec::new(),
            children: Vec::new(),
            parents: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Dag {
            nodes: Vec::with_capacity(n),
            children: Vec::with_capacity(n),
            parents: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Number of nodes (`|V|` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges (`|E|` = `m` in the paper).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds a node carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(payload);
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Adds the dependency edge `from -> to` ("`to` consumes the output of
    /// `from`").
    ///
    /// Fails with [`DagError::WouldCycle`] when `to` can already reach
    /// `from`, keeping the graph acyclic by construction.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(DagError::SelfLoop { node: from });
        }
        if self.children[from.0].contains(&to) {
            return Err(DagError::DuplicateEdge { from, to });
        }
        if self.reaches(to, from) {
            return Err(DagError::WouldCycle { from, to });
        }
        self.children[from.0].push(to);
        self.parents[to.0].push(from);
        self.edge_count += 1;
        Ok(())
    }

    /// Builds a graph from payloads plus `(from, to)` index pairs.
    pub fn from_parts(
        payloads: impl IntoIterator<Item = N>,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self> {
        let mut g = Dag::new();
        for p in payloads {
            g.add_node(p);
        }
        for (a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b))?;
        }
        Ok(g)
    }

    /// The payload of `node`.
    #[inline]
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.0]
    }

    /// All node payloads, indexed by `NodeId`.
    #[inline]
    pub fn payloads(&self) -> &[N] {
        &self.nodes
    }

    /// Direct consumers of `node` (its children in the dependency graph).
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.0]
    }

    /// Direct dependencies of `node` (its parents).
    #[inline]
    pub fn parents(&self, node: NodeId) -> &[NodeId] {
        &self.parents[node.0]
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.children[node.0].len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.parents[node.0].len()
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> EdgeIter<'_, N> {
        EdgeIter {
            dag: self,
            from: 0,
            child: 0,
        }
    }

    /// Nodes with no parents (base-table readers in an MV workload).
    pub fn roots(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.parents[v.0].is_empty())
            .collect()
    }

    /// Nodes with no children (the final MVs nobody else consumes).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.children[v.0].is_empty())
            .collect()
    }

    /// Whether `from` can reach `to` through directed edges.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.0] = true;
        while let Some(v) = stack.pop() {
            for &c in &self.children[v.0] {
                if c == to {
                    return true;
                }
                if !seen[c.0] {
                    seen[c.0] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Maps payloads, preserving structure.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> Dag<M> {
        Dag {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| f(NodeId(i), n))
                .collect(),
            children: self.children.clone(),
            parents: self.parents.clone(),
            edge_count: self.edge_count,
        }
    }

    pub(crate) fn check_node(&self, node: NodeId) -> Result<()> {
        if node.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(DagError::NodeOutOfBounds {
                node,
                len: self.nodes.len(),
            })
        }
    }
}

/// Iterator over the edges of a [`Dag`]; see [`Dag::edges`].
pub struct EdgeIter<'a, N> {
    dag: &'a Dag<N>,
    from: usize,
    child: usize,
}

impl<N> Iterator for EdgeIter<'_, N> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.from < self.dag.nodes.len() {
            let kids = &self.dag.children[self.from];
            if self.child < kids.len() {
                let e = (NodeId(self.from), kids[self.child]);
                self.child += 1;
                return Some(e);
            }
            self.from += 1;
            self.child = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag<u32> {
        // 0 -> {1, 2} -> 3
        Dag::from_parts([10, 11, 12, 13], [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.parents(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(*g.node(NodeId(2)), 12);
        assert_eq!(g.roots(), vec![NodeId(0)]);
        assert_eq!(g.leaves(), vec![NodeId(3)]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = diamond();
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(1)),
            Err(DagError::SelfLoop { node: NodeId(1) })
        );
    }

    #[test]
    fn rejects_cycle() {
        let mut g = diamond();
        assert_eq!(
            g.add_edge(NodeId(3), NodeId(0)),
            Err(DagError::WouldCycle {
                from: NodeId(3),
                to: NodeId(0)
            })
        );
        // Graph unchanged after the failed insert.
        assert_eq!(g.edge_count(), 4);
        assert!(g.parents(NodeId(0)).is_empty());
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = diamond();
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(1)),
            Err(DagError::DuplicateEdge {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut g = diamond();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(9)),
            Err(DagError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.reaches(NodeId(0), NodeId(3)));
        assert!(g.reaches(NodeId(1), NodeId(3)));
        assert!(!g.reaches(NodeId(1), NodeId(2)));
        assert!(!g.reaches(NodeId(3), NodeId(0)));
        assert!(g.reaches(NodeId(2), NodeId(2)));
    }

    #[test]
    fn edge_iterator_yields_all_edges() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn map_preserves_structure() {
        let g = diamond();
        let h = g.map(|id, &n| (id.index(), n * 2));
        assert_eq!(h.len(), 4);
        assert_eq!(*h.node(NodeId(3)), (3, 26));
        assert_eq!(h.children(NodeId(0)), g.children(NodeId(0)));
    }

    #[test]
    fn empty_graph() {
        let g: Dag<()> = Dag::new();
        assert!(g.is_empty());
        assert!(g.roots().is_empty());
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn node_id_display_and_conversion() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(NodeId::from(3).index(), 3);
    }
}
