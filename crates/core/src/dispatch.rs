//! The start rule of the refresh executor (engine) and its discrete-event
//! mirror (simulator): which node a free lane computes next.
//!
//! A node may start once every parent's output is readable (published) and
//! it lies within [`run_ahead_window`] plan positions of the *computed
//! prefix* — the leading run of `plan.order` that has finished computing.
//! Ready nodes start in plan order. [`Dispatch`] is that rule as a small
//! state machine both executors drive; blocking writes stay with the
//! executors.

use std::collections::BTreeSet;

use sc_dag::NodeId;

/// Bounded run-ahead window of the refresh executor and its simulator
/// mirror: a node may only start once every node more than this many plan
/// positions before it has computed, which caps the computed-but-
/// unpublished outputs held outside the Memory Catalog's accounting. One
/// lane gets no run-ahead at all — it dispatches strictly in `plan.order`,
/// the order S/C Opt's feasibility argument assumes; more lanes get enough
/// slack to stay busy.
pub fn run_ahead_window(lanes: usize) -> usize {
    if lanes > 1 {
        (4 * lanes).max(8)
    } else {
        0
    }
}

/// The start rule's state over one run: readiness per node, the computed
/// prefix, and the ready nodes not yet started.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Node at each plan position.
    order: Vec<usize>,
    /// Plan position of each node.
    pos: Vec<usize>,
    children: Vec<Vec<usize>>,
    /// Unpublished parents per node.
    pending: Vec<usize>,
    /// Plan positions of ready nodes that have not started.
    ready: BTreeSet<usize>,
    computed: Vec<bool>,
    /// First plan position not yet computed.
    prefix: usize,
    window: usize,
}

impl Dispatch {
    /// The rule for one run of `order` over a DAG given as per-node parent
    /// lists, on `lanes` lanes. Nodes without parents start out ready.
    pub fn new(order: &[NodeId], parents: &[Vec<usize>], lanes: usize) -> Self {
        let n = parents.len();
        let mut pos = vec![0; n];
        for (p, v) in order.iter().enumerate() {
            pos[v.index()] = p;
        }
        let mut children = vec![Vec::new(); n];
        for (c, ps) in parents.iter().enumerate() {
            for &p in ps {
                children[p].push(c);
            }
        }
        Dispatch {
            order: order.iter().map(|v| v.index()).collect(),
            ready: (0..n)
                .filter(|&i| parents[i].is_empty())
                .map(|i| pos[i])
                .collect(),
            pos,
            children,
            pending: parents.iter().map(Vec::len).collect(),
            computed: vec![false; n],
            prefix: 0,
            window: run_ahead_window(lanes),
        }
    }

    /// `node`'s output became readable: its children lose a pending
    /// parent.
    pub fn published(&mut self, node: usize) {
        for &c in &self.children[node] {
            self.pending[c] -= 1;
            if self.pending[c] == 0 {
                self.ready.insert(self.pos[c]);
            }
        }
    }

    /// `node` finished computing: the computed prefix may advance.
    pub fn computed(&mut self, node: usize) {
        self.computed[node] = true;
        while self.prefix < self.order.len() && self.computed[self.order[self.prefix]] {
            self.prefix += 1;
        }
    }

    /// First plan position not yet computed (the computed prefix length).
    pub fn prefix(&self) -> usize {
        self.prefix
    }
}

/// Yields the nodes that may start now, in plan order, each marked as
/// started. Not fused: `None` means nothing may start *yet* — a later
/// [`Dispatch::published`] or [`Dispatch::computed`] can let more in.
impl Iterator for Dispatch {
    type Item = usize;

    /// The earliest ready node in plan order, if it lies inside the
    /// run-ahead window.
    fn next(&mut self) -> Option<usize> {
        let &p = self.ready.first()?;
        if p > self.prefix + self.window {
            return None;
        }
        self.ready.remove(&p);
        Some(self.order[p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` independent nodes and a sink reading the first two, in the
    /// plan order sink-last, odd nodes descending, then even ascending.
    fn fan(count: usize) -> (Vec<NodeId>, Vec<Vec<usize>>) {
        let mut parents = vec![Vec::new(); count];
        parents.push(vec![0, 1]);
        let order = (0..count)
            .rev()
            .filter(|i| i % 2 == 1)
            .chain((0..count).filter(|i| i % 2 == 0))
            .chain([count])
            .map(NodeId)
            .collect();
        (order, parents)
    }

    /// Runs the rule to completion, starting at most `lanes` nodes at a
    /// time and finishing them oldest first; returns `(position, prefix)`
    /// per start.
    fn drive(order: &[NodeId], parents: &[Vec<usize>], lanes: usize) -> Vec<(usize, usize)> {
        let mut d = Dispatch::new(order, parents, lanes);
        let pos = |i: usize| order.iter().position(|v| v.index() == i).unwrap();
        let mut running = std::collections::VecDeque::new();
        let mut starts = Vec::new();
        loop {
            while running.len() < lanes {
                let Some(i) = d.next() else { break };
                starts.push((pos(i), d.prefix()));
                running.push_back(i);
            }
            let Some(done) = running.pop_front() else {
                break;
            };
            d.computed(done);
            d.published(done);
        }
        starts
    }

    #[test]
    fn window_floor_and_scaling() {
        assert_eq!(run_ahead_window(1), 0, "one lane walks plan.order");
        assert_eq!(run_ahead_window(2), 8);
        assert_eq!(run_ahead_window(3), 12);
        assert_eq!(run_ahead_window(4), 16);
    }

    #[test]
    fn one_lane_starts_strictly_in_plan_order() {
        let (order, parents) = fan(9);
        let starts = drive(&order, &parents, 1);
        let expected: Vec<(usize, usize)> = (0..order.len()).map(|p| (p, p)).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn three_lanes_run_ahead_within_the_window() {
        let (order, parents) = fan(20);
        let window = run_ahead_window(3);
        let starts = drive(&order, &parents, 3);
        assert_eq!(starts.len(), order.len(), "every node starts once");
        assert!(starts.iter().all(|&(p, prefix)| p <= prefix + window));
        // Ready nodes start in plan order.
        let positions: Vec<usize> = starts.iter().map(|&(p, _)| p).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));

        // Nothing computed yet: exactly the window's worth is startable,
        // and computing the prefix's head admits one more.
        let mut d = Dispatch::new(&order, &parents, 3);
        let burst: Vec<usize> = d.by_ref().collect();
        assert_eq!(burst.len(), window + 1);
        assert_eq!(
            burst,
            order[..=window]
                .iter()
                .map(|v| v.index())
                .collect::<Vec<_>>()
        );
        d.computed(burst[1]);
        assert_eq!(d.next(), None, "position 0 still holds the prefix");
        d.computed(burst[0]);
        assert_eq!(d.prefix(), 2);
        assert_eq!(d.next(), Some(order[window + 1].index()));
    }

    #[test]
    fn a_node_waits_for_every_parent_to_publish() {
        let (order, parents) = fan(4);
        let sink = 4;
        let mut d = Dispatch::new(&order, &parents, 3);
        d.by_ref().for_each(drop);
        for i in 0..4 {
            d.computed(i);
        }
        d.published(0);
        assert_eq!(d.next(), None, "the sink still waits for node 1");
        d.published(1);
        assert_eq!(d.next(), Some(sink));
        assert_eq!(d.next(), None, "started once");
    }
}
