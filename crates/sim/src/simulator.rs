use serde::{Deserialize, Serialize};

use sc_core::{CostModel, Dispatch, Feed, NodeFacts, NodeMode, Plan, Policy, RefreshMode};

use crate::error::{Result, SimError};
use crate::report::{NodeTimeline, SimReport};
use crate::workload::SimWorkload;

/// Simulation parameters.
///
/// Bandwidths default to the paper's measured environment (§VI-A). The
/// scaling knobs model the §VI-G cluster experiments
/// (`compute_scale`/`io_scale`) and the §VI-D "Memory Catalog from query
/// memory" variant (`compute_penalty`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// External-storage read bandwidth, bytes/s.
    pub disk_read_bps: f64,
    /// External-storage write bandwidth, bytes/s.
    pub disk_write_bps: f64,
    /// Memory Catalog bandwidth, bytes/s.
    pub mem_bps: f64,
    /// Fixed storage access latency, seconds.
    pub disk_latency_s: f64,
    /// Memory Catalog size `M`, bytes.
    pub memory_budget: u64,
    /// Node compute times are divided by this (cluster speedup).
    pub compute_scale: f64,
    /// Storage bandwidths are multiplied by this (cluster has more disks).
    pub io_scale: f64,
    /// Fixed serial overhead added per node (query launch, coordination);
    /// does not shrink with cluster size.
    pub per_node_overhead_s: f64,
    /// Relative compute slowdown from shrinking DBMS query memory to make
    /// room for the Memory Catalog (0.0 when using spare memory).
    pub compute_penalty: f64,
    /// Number of compute lanes executing DAG nodes concurrently, started
    /// by the engine's rule ([`sc_core::Dispatch`]): all dependencies
    /// readable, a lane free, and the node within
    /// [`sc_core::run_ahead_window`] of the computed prefix; catalog
    /// actions follow plan order. `1` is the paper's sequential
    /// controller.
    pub lanes: usize,
    /// Mirror of the engine's `ControllerConfig::fallback_on_memory_pressure`:
    /// when false, a flagged node that does not fit the Memory Catalog
    /// fails the run ([`SimError::MemoryBudgetExceeded`]) instead of
    /// falling back to a blocking write.
    pub fallback_on_memory_pressure: bool,
    /// Full-vs-incremental maintenance policy, consulted when nodes carry
    /// a [`crate::SimNode::churn`] annotation (mirrors
    /// `RefreshConfig::refresh_mode` in the engine).
    pub refresh_mode: RefreshMode,
    /// Disk-read bandwidth consumed by concurrent snapshot readers
    /// (bytes/s) — the serving tier's epoch-pinned scans share the read
    /// channel with the refresh run, so maintenance reads see the
    /// residual bandwidth (floored at 10% of the channel; readers are
    /// throttled before maintenance stalls). The engine's snapshot reads
    /// are lock-free, so contention is purely a bandwidth effect — and
    /// deliberately invisible to [`SimConfig::cost_model`], which prices
    /// the quiet-system plan the optimizer sees.
    #[serde(default)]
    pub reader_read_bps: f64,
}

impl SimConfig {
    /// The paper's single-node environment with Memory Catalog `budget`.
    pub fn paper(budget: u64) -> Self {
        SimConfig {
            disk_read_bps: 519.8e6,
            disk_write_bps: 358.9e6,
            mem_bps: 8.0 * (1u64 << 30) as f64,
            disk_latency_s: 175e-6,
            memory_budget: budget,
            compute_scale: 1.0,
            io_scale: 1.0,
            per_node_overhead_s: 0.15,
            compute_penalty: 0.0,
            lanes: 1,
            fallback_on_memory_pressure: true,
            refresh_mode: RefreshMode::Auto,
            reader_read_bps: 0.0,
        }
    }

    /// Adds a concurrent snapshot-reader load of `bps` bytes/s on the
    /// disk-read channel (see [`SimConfig::reader_read_bps`]).
    pub fn with_reader_load(mut self, bps: f64) -> Self {
        self.reader_read_bps = bps.max(0.0);
        self
    }

    /// The same environment with `lanes` compute lanes.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Overrides the memory-pressure fallback policy.
    pub fn with_fallback_on_memory_pressure(mut self, fallback: bool) -> Self {
        self.fallback_on_memory_pressure = fallback;
        self
    }

    /// Overrides the maintenance policy.
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.refresh_mode = mode;
        self
    }

    /// The cost model the optimizer should use under this configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            disk_read_bps: self.disk_read_bps * self.io_scale,
            disk_write_bps: self.disk_write_bps * self.io_scale,
            mem_bps: self.mem_bps,
            disk_latency_s: self.disk_latency_s,
        }
    }

    fn disk_read_time(&self, bytes: u64) -> f64 {
        let channel = self.disk_read_bps * self.io_scale;
        let effective = (channel - self.reader_read_bps).max(channel * 0.1);
        self.disk_latency_s + bytes as f64 / effective
    }

    fn disk_write_time(&self, bytes: u64) -> f64 {
        self.disk_latency_s + bytes as f64 / (self.disk_write_bps * self.io_scale)
    }

    fn mem_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bps
    }

    fn compute_time(&self, seconds: f64) -> f64 {
        seconds * (1.0 + self.compute_penalty) / self.compute_scale
    }
}

/// Deterministic discrete-event refresh-run simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates the sequential, nothing-flagged baseline ("No
    /// optimization" in Figure 9) using a deterministic topological order.
    pub fn run_unoptimized(&self, workload: &SimWorkload) -> Result<SimReport> {
        let order = workload.graph.kahn_order();
        self.run(workload, &Plan::unoptimized(order))
    }

    /// The mode kernel's view of `workload`: each annotated node's facts
    /// with its parents tagged from the graph. `None` — no delta tracking
    /// — when no node carries a churn annotation. An unannotated node in a
    /// churn scenario has no stored contents to maintain, so it plans as a
    /// first materialization.
    fn mode_facts(workload: &SimWorkload) -> Option<Vec<NodeFacts>> {
        let graph = &workload.graph;
        if graph.payloads().iter().all(|n| n.churn.is_none()) {
            return None;
        }
        let facts = graph.node_ids().map(|v| {
            let Some(churn) = &graph.node(v).churn else {
                return NodeFacts::default();
            };
            let parents = graph.parents(v).iter().map(|&p| {
                let build = churn.build_inputs.contains(&graph.node(p).name);
                (p.index(), if build { Feed::Build } else { Feed::Spine })
            });
            NodeFacts {
                parents: parents.collect(),
                ..churn.facts.clone()
            }
        });
        Some(facts.collect())
    }

    /// Simulates a refresh run under `plan` — the discrete-event mirror of
    /// the engine's executor, driving the engine's own rules: node modes
    /// and reasons from [`sc_core::modes::plan`], and up to `config.lanes`
    /// nodes running concurrently as [`sc_core::Dispatch`] lets them start
    /// (every dependency readable, inside the run-ahead window of the
    /// computed plan-order prefix, in plan order; with one lane the window
    /// is zero, so the run is the paper's sequential walk of
    /// `plan.order`). The Memory Catalog follows the same plan-order
    /// accounting as the engine ([`sc_core::AdmissionReplay`]): sizes are
    /// static here, so every admit-or-fallback outcome and the peak usage
    /// are fixed upfront, and an admission takes effect once every node
    /// earlier in the plan has computed. Background materializations share
    /// one FIFO write channel with blocking writes — which, memory-pressure
    /// fallbacks included, also occupy a lane.
    pub fn run(&self, workload: &SimWorkload, plan: &Plan) -> Result<SimReport> {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, VecDeque};

        workload.graph.validate_order(&plan.order)?;
        let pos = workload.graph.order_positions(&plan.order)?;
        let graph = &workload.graph;
        let n = graph.len();
        let cfg = &self.config;
        let lanes = cfg.lanes.clamp(1, n.max(1));
        let facts = Self::mode_facts(workload);
        let policy = Policy {
            mode: cfg.refresh_mode,
            tracking: facts.is_some(),
            poisoned: false,
        };
        let dp = sc_core::modes::plan(
            facts.as_deref().unwrap_or_default(),
            plan,
            policy,
            &cfg.cost_model(),
        );

        /// Heap entries ordered by time then insertion sequence, so the
        /// simulation is fully deterministic.
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Key(f64, u64);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }

        #[derive(Debug, Clone, Copy)]
        enum Event {
            /// A node finished read+compute.
            ComputeEnd(usize),
            /// A flagged node's in-memory creation finished; it may now be
            /// admitted (in plan order, once the prefix reaches it).
            AdmitReady(usize),
            /// A node's output became readable by consumers.
            Publish(usize),
            /// A write finished on a worker lane (fallback writes).
            LaneWriteEnd(usize),
            /// A compute lane became free.
            LaneFree,
        }

        /// Heap element: ordered by key alone (the sequence number makes
        /// keys unique, so this is a total order).
        #[derive(Debug, Clone, Copy)]
        struct Entry(Key, Event);
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }

        /// A unit of lane work.
        #[derive(Debug, Clone, Copy)]
        enum Job {
            Compute(usize),
            /// Blocking materialization of a fallback node's output.
            Write(usize),
        }

        let flagged = |i: usize| dp.flagged.contains(sc_dag::NodeId(i));
        let occupies = |i: usize| graph.out_degree(sc_dag::NodeId(i)) > 0;
        let delta_of = |i: usize| dp.delta_out[i];
        // Catalog payload if admitted: the delta when every consumer
        // maintains incrementally, the output otherwise; and the bytes a
        // node's persistence writes: the delta on the append path.
        let output_of = |i: usize| graph.node(sc_dag::NodeId(i)).output_bytes;
        let payload: Vec<u64> = (0..n)
            .map(|i| {
                if dp.delta_payload[i] {
                    delta_of(i)
                } else {
                    output_of(i)
                }
            })
            .collect();
        let write_bytes: Vec<u64> = (0..n)
            .map(|i| {
                if dp.append[i] {
                    delta_of(i)
                } else {
                    output_of(i)
                }
            })
            .collect();

        // The plan-order catalog accounting, against the *effective* flags
        // (skipped nodes never enter the catalog) and each node's catalog
        // *payload* — delta-sized when every consumer maintains
        // incrementally. An admitted node stays resident until its last
        // consumer has computed, so for every read of it `admitted` is
        // also "resident".
        let parents_of: Vec<Vec<usize>> = graph
            .node_ids()
            .map(|v| graph.parents(v).iter().map(|p| p.index()).collect())
            .collect();
        let mut replay =
            sc_core::AdmissionReplay::new(&plan.order, &dp.flagged, &parents_of, cfg.memory_budget);
        let steps = replay.advance(&vec![true; n], &payload);
        let peak_memory_bytes = replay.peak();
        let mut admitted = vec![false; n];
        for step in steps {
            if let sc_core::CatalogStep::Decide { node, admit, used } = step {
                admitted[node] = admit;
                if !admit && !cfg.fallback_on_memory_pressure {
                    // Strict-failure mode: the first modeled fallback
                    // aborts the run, as in the engine.
                    return Err(SimError::MemoryBudgetExceeded {
                        requested: payload[node],
                        used,
                        budget: cfg.memory_budget,
                    });
                }
            }
        }
        let admission_order: Vec<usize> = plan
            .order
            .iter()
            .map(|v| v.index())
            .filter(|&i| flagged(i) && occupies(i))
            .collect();

        let mut events: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |events: &mut BinaryHeap<Reverse<Entry>>, t: f64, e: Event| {
            events.push(Reverse(Entry(Key(t, seq), e)));
            seq += 1;
        };

        let mut dispatch = Dispatch::new(&plan.order, &parents_of, lanes);
        // Fallback writes waiting for a lane. They always precede ready
        // computes in plan order (a fallback is decided only once the
        // computed prefix has passed it), so a free lane takes them first.
        let mut writes: VecDeque<usize> = VecDeque::new();
        let mut lanes_available = lanes;
        let mut created_done = vec![false; n];
        let mut next_admit = 0usize;
        let mut bg_free_at = 0.0f64; // shared storage write channel
        let mut read_free_at = 0.0f64; // shared storage read channel
        let mut fell_back = vec![false; n];
        let mut start_s = vec![0.0f64; n];
        let mut read_s = vec![0.0f64; n];
        let mut disk_read_s = vec![0.0f64; n];
        let mut compute_s = vec![0.0f64; n];
        let mut write_s = vec![0.0f64; n];
        let mut available_s = vec![0.0f64; n];
        let mut persisted_s = vec![f64::INFINITY; n];
        let mut end_time = 0.0f64;

        macro_rules! dispatch {
            ($clock:expr) => {
                while lanes_available > 0 {
                    let job = match writes.pop_front() {
                        Some(i) => Job::Write(i),
                        None => match dispatch.next() {
                            Some(i) => Job::Compute(i),
                            None => break,
                        },
                    };
                    lanes_available -= 1;
                    match job {
                        Job::Compute(i) if dp.modes[i] == NodeMode::Skipped => {
                            // Stored contents already current: no
                            // statement is even issued.
                            start_s[i] = $clock;
                            push(&mut events, $clock, Event::ComputeEnd(i));
                        }
                        Job::Compute(i) => {
                            let v = sc_dag::NodeId(i);
                            let node = graph.node(v);
                            let incremental = dp.modes[i] == NodeMode::Incremental;
                            let mut r = 0.0;
                            let mut dr = 0.0;
                            let mut read = |bytes: u64, in_memory: bool| {
                                if in_memory {
                                    r += cfg.mem_time(bytes);
                                } else {
                                    let t = cfg.disk_read_time(bytes);
                                    r += t;
                                    dr += t;
                                }
                            };
                            if incremental {
                                // Re-read own stored contents to apply the
                                // delta — unless the append path skips
                                // straight to a delta-sized segment.
                                if !dp.append[i] {
                                    read(node.output_bytes, false);
                                }
                                // Static build sides of a join spine: the
                                // propagated delta probes them, so the
                                // incremental path reads them in full.
                                let build = node.churn.as_ref().map_or(0, |c| c.facts.static_bytes);
                                if build > 0 {
                                    read(build, false);
                                }
                            } else if node.base_read_bytes > 0 {
                                // Full recompute: base tables always come
                                // from storage.
                                read(node.base_read_bytes, false);
                            }
                            // Parents: their output (full recompute) or
                            // published delta (incremental; the pending
                            // base-table delta itself is an in-memory
                            // log: free) — from the catalog when resident
                            // there in that form, from storage otherwise.
                            for &parent in graph.parents(v) {
                                let pi = parent.index();
                                if !incremental {
                                    read(graph.node(parent).output_bytes, admitted[pi]);
                                } else if dp.modes[pi] != NodeMode::Skipped {
                                    read(delta_of(pi), admitted[pi] && dp.delta_payload[pi]);
                                }
                            }
                            compute_s[i] = cfg.compute_time(node.compute_s);
                            if incremental {
                                // Operator work scales with the delta
                                // fraction.
                                compute_s[i] *= (delta_of(i) as f64
                                    / (node.output_bytes.max(1)) as f64)
                                    .min(1.0);
                            }
                            read_s[i] = r;
                            disk_read_s[i] = dr;
                            start_s[i] = $clock + cfg.per_node_overhead_s;
                            // Disk reads reserve a slot on the shared read
                            // channel (one device, as in the engine's
                            // throttle); memory reads and compute don't.
                            let mut begin = start_s[i];
                            if dr > 0.0 {
                                begin = begin.max(read_free_at);
                                read_free_at = begin + dr;
                            }
                            let mut done = begin + r + compute_s[i];
                            if dp.spill[i] {
                                // Published delta spilled to storage
                                // during compute (before the node becomes
                                // readable): a blocking, delta-sized write
                                // on the shared channel.
                                let wstart = done.max(bg_free_at);
                                let spill_done = wstart + cfg.disk_write_time(delta_of(i));
                                bg_free_at = spill_done;
                                write_s[i] += spill_done - done;
                                done = spill_done;
                            }
                            push(&mut events, done, Event::ComputeEnd(i));
                        }
                        Job::Write(i) => {
                            // Fallback write: occupies this lane AND the
                            // shared write channel, like the engine's
                            // Write task hitting the throttled disk. A
                            // fallen-back delta payload spills its delta
                            // first.
                            let spill = if dp.delta_payload[i] {
                                cfg.disk_write_time(delta_of(i))
                            } else {
                                0.0
                            };
                            let wstart = ($clock).max(bg_free_at);
                            let done = wstart + spill + cfg.disk_write_time(write_bytes[i]);
                            bg_free_at = done;
                            write_s[i] += done - $clock;
                            persisted_s[i] = done;
                            push(&mut events, done, Event::LaneWriteEnd(i));
                        }
                    }
                }
            };
        }

        macro_rules! process_admissions {
            ($clock:expr) => {
                while next_admit < admission_order.len() {
                    let cand = admission_order[next_admit];
                    // Mirror the engine: the catalog acts on a node only
                    // when its output exists and every node earlier in the
                    // plan has computed.
                    if !created_done[cand] || dispatch.prefix() <= pos[cand] {
                        break;
                    }
                    if admitted[cand] {
                        let wstart = ($clock).max(bg_free_at);
                        let done = wstart + cfg.disk_write_time(write_bytes[cand]);
                        bg_free_at = done;
                        persisted_s[cand] = done;
                        push(&mut events, $clock, Event::Publish(cand));
                    } else {
                        // Memory pressure: blocking write on a worker lane,
                        // exactly like the engine's fallback Write task.
                        fell_back[cand] = true;
                        writes.push_back(cand);
                    }
                    next_admit += 1;
                }
            };
        }

        dispatch!(0.0f64);

        while let Some(Reverse(Entry(Key(clock, _), event))) = events.pop() {
            end_time = end_time.max(clock);
            match event {
                Event::ComputeEnd(i) => {
                    dispatch.computed(i);
                    if dp.modes[i] == NodeMode::Skipped {
                        // Already persisted from the previous run: free
                        // the lane and let consumers proceed.
                        available_s[i] = clock;
                        persisted_s[i] = clock;
                        push(&mut events, clock, Event::LaneFree);
                        push(&mut events, clock, Event::Publish(i));
                    } else if flagged(i) && !occupies(i) {
                        // Childless flagged node: created in memory only to
                        // background its write; never occupies the catalog
                        // (it is outside every Vi in the optimizer's model).
                        let created = clock + cfg.mem_time(write_bytes[i]);
                        available_s[i] = created;
                        let wstart = created.max(bg_free_at);
                        let done = wstart + cfg.disk_write_time(write_bytes[i]);
                        bg_free_at = done;
                        persisted_s[i] = done;
                        push(&mut events, created, Event::LaneFree);
                        push(&mut events, created, Event::Publish(i));
                    } else if flagged(i) && admitted[i] {
                        // Create the catalog payload in memory on this
                        // lane (delta-sized for delta payloads), then wait
                        // for the plan-order admission.
                        let created = clock + cfg.mem_time(payload[i]);
                        available_s[i] = created;
                        push(&mut events, created, Event::LaneFree);
                        push(&mut events, created, Event::AdmitReady(i));
                    } else if flagged(i) {
                        // Will not fit: nothing is created in memory; the
                        // lane is free until the plan-order turn queues
                        // the blocking write (ahead of any later compute).
                        available_s[i] = clock;
                        created_done[i] = true;
                        lanes_available += 1;
                    } else {
                        // Blocking write on this lane, through the shared
                        // write channel (one storage device).
                        available_s[i] = clock;
                        let wstart = clock.max(bg_free_at);
                        let done = wstart + cfg.disk_write_time(write_bytes[i]);
                        bg_free_at = done;
                        write_s[i] += done - clock;
                        persisted_s[i] = done;
                        push(&mut events, done, Event::LaneFree);
                        push(&mut events, done, Event::Publish(i));
                    }
                    process_admissions!(clock);
                    dispatch!(clock);
                }
                Event::AdmitReady(i) => {
                    created_done[i] = true;
                    process_admissions!(clock);
                    dispatch!(clock);
                }
                Event::LaneWriteEnd(i) => {
                    lanes_available += 1;
                    push(&mut events, clock, Event::Publish(i));
                    dispatch!(clock);
                }
                Event::Publish(i) => {
                    dispatch.published(i);
                    dispatch!(clock);
                }
                Event::LaneFree => {
                    lanes_available += 1;
                    dispatch!(clock);
                }
            }
        }

        let total_s = end_time.max(bg_free_at);
        let timelines = plan
            .order
            .iter()
            .map(|&v| {
                let i = v.index();
                NodeTimeline {
                    name: graph.node(v).name.clone(),
                    mode: dp.modes[i],
                    reason: dp.reasons[i],
                    start_s: start_s[i],
                    read_s: read_s[i],
                    disk_read_s: disk_read_s[i],
                    compute_s: compute_s[i],
                    write_s: write_s[i],
                    available_s: available_s[i],
                    persisted_s: persisted_s[i],
                    flagged: flagged(i) && !fell_back[i],
                    fell_back: fell_back[i],
                }
            })
            .collect();
        Ok(SimReport {
            total_s,
            nodes: timelines,
            peak_memory_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimNode;
    use sc_core::FlagSet;
    use sc_dag::NodeId;

    const GIB: u64 = 1 << 30;

    /// Figure 4 workload: mv1 (8 GiB from 16 GiB of base data) feeds mv2
    /// and mv3.
    fn fig4() -> SimWorkload {
        SimWorkload::from_parts(
            [
                SimNode::new("mv1", 5.0, 8 * GIB, 16 * GIB),
                SimNode::new("mv2", 3.0, GIB, 0),
                SimNode::new("mv3", 3.0, GIB, 0),
            ],
            [(0, 1), (0, 2)],
        )
        .unwrap()
    }

    fn plan(order: &[usize], flagged: &[usize], n: usize) -> Plan {
        Plan {
            order: order.iter().map(|&i| NodeId(i)).collect(),
            flagged: FlagSet::from_nodes(n, flagged.iter().map(|&i| NodeId(i))),
        }
    }

    #[test]
    fn baseline_time_decomposes() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(10 * GIB));
        let r = sim.run_unoptimized(&w).unwrap();
        let cfg = sim.config();
        let expected: f64 = 3.0 * cfg.per_node_overhead_s
            + cfg.disk_read_time(16 * GIB)
            + cfg.compute_time(5.0)
            + cfg.disk_write_time(8 * GIB)
            + 2.0
                * (cfg.disk_read_time(8 * GIB) + cfg.compute_time(3.0) + cfg.disk_write_time(GIB));
        assert!(
            (r.total_s - expected).abs() < 1e-6,
            "got {}, want {}",
            r.total_s,
            expected
        );
        assert_eq!(r.peak_memory_bytes, 0);
        assert_eq!(r.fallbacks(), 0);
    }

    #[test]
    fn reader_load_slows_refresh_reads_but_not_decisions() {
        let w = fig4();
        let quiet_cfg = SimConfig::paper(10 * GIB);
        // Readers eat half the read channel.
        let busy_cfg = quiet_cfg
            .clone()
            .with_reader_load(quiet_cfg.disk_read_bps / 2.0);
        let quiet = Simulator::new(quiet_cfg.clone());
        let busy = Simulator::new(busy_cfg.clone());
        let p = plan(&[0, 1, 2], &[0], 3);
        let q = quiet.run(&w, &p).unwrap();
        let b = busy.run(&w, &p).unwrap();
        assert!(
            b.total_s > q.total_s,
            "reader load must slow maintenance reads: {} vs {}",
            b.total_s,
            q.total_s
        );
        // Disk reads roughly double; writes and compute are untouched.
        assert!(b.nodes[0].disk_read_s > q.nodes[0].disk_read_s * 1.9);
        assert_eq!(b.nodes[0].write_s, q.nodes[0].write_s);
        // The cost model stays the quiet-system one: reader load is a
        // runtime effect the optimizer does not price.
        assert_eq!(busy_cfg.cost_model(), quiet_cfg.cost_model());
        // Even absurd reader load is floored at 10% of the channel.
        let floored = SimConfig::paper(10 * GIB).with_reader_load(f64::MAX);
        assert!(floored.disk_read_time(GIB).is_finite());
    }

    #[test]
    fn flagging_hides_write_and_reads() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(10 * GIB));
        let base = sim.run_unoptimized(&w).unwrap();
        let sc = sim.run(&w, &plan(&[0, 1, 2], &[0], 3)).unwrap();
        assert!(sc.total_s < base.total_s);
        // mv1's write is backgrounded.
        assert_eq!(sc.nodes[0].write_s, 0.0);
        assert!(sc.nodes[0].flagged);
        // Consumers read from memory: their disk read time is 0.
        assert_eq!(sc.nodes[1].disk_read_s, 0.0);
        assert_eq!(sc.nodes[2].disk_read_s, 0.0);
        // Peak memory equals mv1's size.
        assert_eq!(sc.peak_memory_bytes, 8 * GIB);
        // Everything still persisted by the end.
        assert!(sc.nodes.iter().all(|n| n.persisted_s <= sc.total_s + 1e-9));
    }

    #[test]
    fn speedup_magnitude_matches_hand_computation() {
        // Long downstream computes so the background write never blocks a
        // later blocking write (no channel contention to reason about).
        let w = SimWorkload::from_parts(
            [
                SimNode::new("mv1", 5.0, 8 * GIB, 16 * GIB),
                SimNode::new("mv2", 30.0, GIB, 0),
                SimNode::new("mv3", 30.0, GIB, 0),
            ],
            [(0, 1), (0, 2)],
        )
        .unwrap();
        let cfg = SimConfig::paper(10 * GIB);
        let sim = Simulator::new(cfg.clone());
        let base = sim.run_unoptimized(&w).unwrap();
        let sc = sim.run(&w, &plan(&[0, 1, 2], &[0], 3)).unwrap();
        // Savings = write(8 GiB) hidden + 2 disk reads of 8 GiB replaced by
        // memory reads, minus the cost of creating mv1 in memory.
        let saving = cfg.disk_write_time(8 * GIB)
            + 2.0 * (cfg.disk_read_time(8 * GIB) - cfg.mem_time(8 * GIB))
            - cfg.mem_time(8 * GIB);
        assert!(
            ((base.total_s - sc.total_s) - saving).abs() < 1e-6,
            "measured saving {} vs expected {}",
            base.total_s - sc.total_s,
            saving
        );
    }

    #[test]
    fn memory_pressure_falls_back() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(GIB)); // mv1 won't fit
        let sc = sim.run(&w, &plan(&[0, 1, 2], &[0], 3)).unwrap();
        assert_eq!(sc.fallbacks(), 1);
        assert!(!sc.nodes[0].flagged);
        assert!(sc.nodes[0].write_s > 0.0);
        // Equivalent to baseline since nothing stayed in memory.
        let base = sim.run_unoptimized(&w).unwrap();
        assert!((sc.total_s - base.total_s).abs() < 1e-9);
    }

    #[test]
    fn release_frees_budget_for_later_flags() {
        // Chain a -> b -> c with budget for one intermediate at a time.
        let w = SimWorkload::from_parts(
            [
                SimNode::new("a", 1.0, 4 * GIB, 8 * GIB),
                SimNode::new("b", 1.0, 4 * GIB, 0),
                SimNode::new("c", 1.0, GIB, 0),
            ],
            [(0, 1), (1, 2)],
        )
        .unwrap();
        let sim = Simulator::new(SimConfig::paper(4 * GIB));
        let r = sim.run(&w, &plan(&[0, 1, 2], &[0, 1], 3)).unwrap();
        // Both fit sequentially: a is released once b (its only consumer)
        // has run and a's background write finished — before c needs room…
        // b's creation happens *while* a is still resident, so b must fall
        // back; a alone fits.
        assert!(r.nodes[0].flagged);
        assert!(r.nodes[1].fell_back);
        assert_eq!(r.peak_memory_bytes, 4 * GIB);
    }

    #[test]
    fn background_writes_queue_fifo() {
        // Two flagged nodes in a row: the second's background write waits
        // for the first's.
        let w = SimWorkload::from_parts(
            [
                SimNode::new("a", 1.0, 4 * GIB, GIB),
                SimNode::new("b", 1.0, 4 * GIB, GIB),
                SimNode::new("consumer", 0.1, 1024, 0),
            ],
            [(0, 2), (1, 2)],
        )
        .unwrap();
        let sim = Simulator::new(SimConfig::paper(16 * GIB));
        let r = sim.run(&w, &plan(&[0, 1, 2], &[0, 1], 3)).unwrap();
        let cfg = sim.config();
        let w1_done = r.nodes[0].persisted_s;
        let w2_done = r.nodes[1].persisted_s;
        assert!(w2_done >= w1_done + cfg.disk_write_time(4 * GIB) - 1e-9);
        // End-to-end is bounded by the write channel draining.
        assert!((r.total_s - w2_done.max(r.nodes[2].persisted_s)).abs() < 1e-9);
    }

    #[test]
    fn cluster_scaling_shrinks_runtime() {
        let w = fig4();
        let mut cfg = SimConfig::paper(10 * GIB);
        let t1 = Simulator::new(cfg.clone())
            .run_unoptimized(&w)
            .unwrap()
            .total_s;
        cfg.compute_scale = 4.0;
        cfg.io_scale = 4.0;
        let t4 = Simulator::new(cfg).run_unoptimized(&w).unwrap().total_s;
        assert!(t4 < t1 / 2.0, "4-way scaling must at least halve runtime");
        // …but not by the full 4× because per-node overhead is serial.
        assert!(t4 > t1 / 4.0);
    }

    #[test]
    fn query_memory_penalty_slows_compute_only() {
        let w = fig4();
        let mut cfg = SimConfig::paper(10 * GIB);
        let plain = Simulator::new(cfg.clone())
            .run(&w, &plan(&[0, 1, 2], &[0], 3))
            .unwrap();
        cfg.compute_penalty = 0.1;
        let taxed = Simulator::new(cfg)
            .run(&w, &plan(&[0, 1, 2], &[0], 3))
            .unwrap();
        assert!(taxed.total_s > plain.total_s);
        assert!((taxed.total_compute_s() - plain.total_compute_s() * 1.1).abs() < 1e-9);
        assert_eq!(taxed.total_disk_read_s(), plain.total_disk_read_s());
    }

    #[test]
    fn invalid_order_rejected() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(GIB));
        assert!(sim.run(&w, &plan(&[1, 0, 2], &[], 3)).is_err());
    }

    /// A pure chain admits no parallelism: the run must be identical
    /// across lane counts.
    #[test]
    fn four_lane_chain_matches_one_lane() {
        let w = SimWorkload::from_parts(
            [
                SimNode::new("a", 2.0, 4 * GIB, 8 * GIB),
                SimNode::new("b", 1.0, 2 * GIB, 0),
                SimNode::new("c", 1.0, GIB, 0),
            ],
            [(0, 1), (1, 2)],
        )
        .unwrap();
        for flags in [vec![], vec![0usize], vec![0, 1]] {
            let p = plan(&[0, 1, 2], &flags, 3);
            let one = Simulator::new(SimConfig::paper(16 * GIB))
                .run(&w, &p)
                .unwrap();
            let four = Simulator::new(SimConfig::paper(16 * GIB).with_lanes(4))
                .run(&w, &p)
                .unwrap();
            assert_eq!(one, four, "flags {flags:?}");
        }
    }

    /// Independent heavy nodes: four lanes must cut the wall clock well
    /// below the one-lane run.
    #[test]
    fn four_lanes_speed_up_wide_workload() {
        let nodes: Vec<SimNode> = (0..8)
            .map(|i| SimNode::new(format!("mv{i}"), 10.0, GIB, 2 * GIB))
            .collect();
        let w = SimWorkload::from_parts(nodes, []).unwrap();
        let p = plan(&[0, 1, 2, 3, 4, 5, 6, 7], &[], 8);
        let one = Simulator::new(SimConfig::paper(GIB)).run(&w, &p).unwrap();
        let four = Simulator::new(SimConfig::paper(GIB).with_lanes(4))
            .run(&w, &p)
            .unwrap();
        assert!(
            four.total_s < one.total_s / 2.0,
            "4 lanes ({:.2}s) must at least halve 1 lane ({:.2}s)",
            four.total_s,
            one.total_s
        );
        // All outputs still persisted.
        assert!(four
            .nodes
            .iter()
            .all(|n| n.persisted_s <= four.total_s + 1e-9));
    }

    /// The run is a deterministic simulation: identical inputs give
    /// identical reports.
    #[test]
    fn three_lane_run_is_deterministic() {
        let w = fig4();
        let p = plan(&[0, 1, 2], &[0], 3);
        let sim = Simulator::new(SimConfig::paper(10 * GIB).with_lanes(3));
        assert_eq!(sim.run(&w, &p).unwrap(), sim.run(&w, &p).unwrap());
    }

    /// Memory pressure falls back at two lanes too, and the budget is
    /// never exceeded.
    #[test]
    fn two_lane_memory_pressure_falls_back() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(GIB).with_lanes(2)); // mv1 won't fit
        let r = sim.run(&w, &plan(&[0, 1, 2], &[0], 3)).unwrap();
        assert_eq!(r.fallbacks(), 1);
        assert!(!r.nodes[0].flagged);
        assert!(r.peak_memory_bytes <= GIB);
    }

    /// Churn-annotated Figure 4: 5% delta on the hub propagating to one
    /// consumer, nothing reaching the other.
    fn churned_fig4() -> SimWorkload {
        SimWorkload::from_parts(
            [
                SimNode::new("mv1", 5.0, 8 * GIB, 16 * GIB).with_delta(GIB / 4),
                SimNode::new("mv2", 3.0, GIB, 0).with_delta(GIB / 32),
                SimNode::new("mv3", 3.0, GIB, 0).with_delta(0),
            ],
            [(0, 1), (0, 2)],
        )
        .unwrap()
    }

    #[test]
    fn incremental_run_beats_full_and_skips_untouched() {
        let w = churned_fig4();
        let p = plan(&[0, 1, 2], &[], 3);
        for lanes in [1usize, 3] {
            let cfg = SimConfig::paper(10 * GIB).with_lanes(lanes);
            let full = Simulator::new(cfg.clone().with_refresh_mode(RefreshMode::AlwaysFull))
                .run(&w, &p)
                .unwrap();
            let inc = Simulator::new(cfg.with_refresh_mode(RefreshMode::AlwaysIncremental))
                .run(&w, &p)
                .unwrap();
            assert!(
                inc.total_s < full.total_s / 2.0,
                "lanes={lanes}: incremental ({:.2}s) must crush full ({:.2}s)",
                inc.total_s,
                full.total_s
            );
            assert_eq!(inc.nodes[0].mode, NodeMode::Incremental);
            assert_eq!(inc.nodes[1].mode, NodeMode::Incremental);
            assert_eq!(inc.nodes[2].mode, NodeMode::Skipped, "lanes={lanes}");
            assert_eq!(inc.nodes[2].read_s, 0.0);
            assert!(full.nodes.iter().all(|n| n.mode == NodeMode::Full));
        }
    }

    #[test]
    fn auto_mode_uses_cost_model() {
        // mv1's contents are half its input: re-reading them + the delta
        // beats re-reading the input, so Auto goes incremental; a node
        // whose output equals its input stays full.
        let w = SimWorkload::from_parts(
            [
                SimNode::new("halved", 2.0, 4 * GIB, 8 * GIB).with_delta(GIB / 8),
                SimNode::new("copy", 2.0, 8 * GIB, 8 * GIB).with_delta(GIB / 8),
            ],
            [],
        )
        .unwrap();
        let r = Simulator::new(SimConfig::paper(GIB))
            .run(&w, &plan(&[0, 1], &[], 2))
            .unwrap();
        assert_eq!(r.nodes[0].mode, NodeMode::Incremental);
        assert_eq!(r.nodes[1].mode, NodeMode::Full);
    }

    #[test]
    fn unsupported_nodes_and_their_consumers_stay_full() {
        // A join-like node (full_only) breaks the delta chain for its
        // consumer even though both are annotated.
        let w = SimWorkload::from_parts(
            [
                SimNode::new("join", 2.0, GIB, 8 * GIB)
                    .with_delta(GIB / 16)
                    .full_only(),
                SimNode::new("agg", 1.0, GIB / 64, 0).with_delta(GIB / 128),
            ],
            [(0, 1)],
        )
        .unwrap();
        let r =
            Simulator::new(SimConfig::paper(GIB).with_refresh_mode(RefreshMode::AlwaysIncremental))
                .run(&w, &plan(&[0, 1], &[], 2))
                .unwrap();
        assert_eq!(r.nodes[0].mode, NodeMode::Full);
        assert_eq!(r.nodes[1].mode, NodeMode::Full);
    }

    #[test]
    fn merge_only_nodes_do_not_feed_consumers() {
        // An aggregate-merge-shaped node maintains incrementally but
        // publishes no delta: its annotated consumer must recompute, as in
        // the engine.
        let w = SimWorkload::from_parts(
            [
                SimNode::new("agg", 2.0, GIB / 64, 8 * GIB)
                    .with_delta(GIB / 256)
                    .merge_only(),
                SimNode::new("child", 1.0, GIB / 128, 0).with_delta(GIB / 512),
            ],
            [(0, 1)],
        )
        .unwrap();
        let r =
            Simulator::new(SimConfig::paper(GIB).with_refresh_mode(RefreshMode::AlwaysIncremental))
                .run(&w, &plan(&[0, 1], &[], 2))
                .unwrap();
        assert_eq!(r.nodes[0].mode, NodeMode::Incremental);
        assert_eq!(r.nodes[1].mode, NodeMode::Full);
    }

    /// A join-hub node maintains incrementally only while its build-side
    /// parent is skipped: a changed build side forces a recompute (mirror
    /// of the engine's static-table rule).
    #[test]
    fn delta_join_spine_requires_skipped_build_parents() {
        let make = |dim_delta: u64| {
            SimWorkload::from_parts(
                [
                    SimNode::new("dim", 1.0, GIB / 8, GIB / 4).with_delta(dim_delta),
                    SimNode::new("fact_hub", 5.0, 4 * GIB, 8 * GIB)
                        .with_delta(GIB / 8)
                        .with_build_side(["dim"], GIB / 8),
                ],
                [(0, 1)],
            )
            .unwrap()
        };
        let p = plan(&[0, 1], &[], 2);
        let cfg = SimConfig::paper(GIB).with_refresh_mode(RefreshMode::AlwaysIncremental);
        for lanes in [1usize, 2] {
            let sim = Simulator::new(cfg.clone().with_lanes(lanes));
            let quiet = sim.run(&make(0), &p).unwrap();
            assert_eq!(quiet.nodes[0].mode, NodeMode::Skipped, "lanes={lanes}");
            assert_eq!(quiet.nodes[1].mode, NodeMode::Incremental);
            let churned_dim = sim.run(&make(GIB / 64), &p).unwrap();
            assert_eq!(churned_dim.nodes[0].mode, NodeMode::Incremental);
            assert_eq!(
                churned_dim.nodes[1].mode,
                NodeMode::Full,
                "lanes={lanes}: a changed build side forces a recompute"
            );
            // The delta-joining hub pays its build-side read on top of its
            // own stored contents.
            let hub = &quiet.nodes[1];
            let expected = cfg.disk_read_time(4 * GIB) + cfg.disk_read_time(GIB / 8);
            assert!(
                (hub.disk_read_s - expected).abs() < 1e-9,
                "lanes={lanes}: got {}, want {expected}",
                hub.disk_read_s
            );
        }
    }

    /// Under `Auto` the build-side read is charged against the delta-join
    /// win: a small dimension keeps incremental worthwhile, a build side
    /// as large as the whole input erases it.
    #[test]
    fn auto_mode_charges_build_side_reads() {
        let hub = |build_bytes: u64| {
            SimWorkload::from_parts(
                [SimNode::new("hub", 5.0, GIB / 2, 8 * GIB)
                    .with_delta(GIB / 64)
                    .with_build_side(Vec::<String>::new(), build_bytes)],
                [],
            )
            .unwrap()
        };
        let p = plan(&[0], &[], 1);
        let sim = Simulator::new(SimConfig::paper(GIB));
        let small = sim.run(&hub(GIB / 8), &p).unwrap();
        assert_eq!(small.nodes[0].mode, NodeMode::Incremental);
        let huge = sim.run(&hub(8 * GIB), &p).unwrap();
        assert_eq!(huge.nodes[0].mode, NodeMode::Full);
    }

    #[test]
    fn delta_payload_reserves_delta_sized_memory() {
        let w = churned_fig4();
        // Flag the hub; its consumers both maintain incrementally… mv3 is
        // skipped, so not *all* children are incremental? mv2 incremental,
        // mv3 skipped -> mixed children keep the full payload. Give mv3
        // churn too so both consume the delta.
        let w2 = {
            let mut nodes: Vec<SimNode> = w.graph.payloads().to_vec();
            nodes[2] = SimNode::new("mv3", 3.0, GIB, 0).with_delta(GIB / 32);
            SimWorkload::from_parts(nodes, [(0, 1), (0, 2)]).unwrap()
        };
        let p = plan(&[0, 1, 2], &[0], 3);
        let cfg = SimConfig::paper(10 * GIB).with_refresh_mode(RefreshMode::AlwaysIncremental);
        let r = Simulator::new(cfg.clone()).run(&w2, &p).unwrap();
        assert!(r.nodes[0].flagged);
        assert_eq!(
            r.peak_memory_bytes,
            GIB / 4,
            "catalog holds the hub's delta, not its 8 GiB table"
        );
        // The full run must reserve the whole 8 GiB table instead.
        let full = Simulator::new(cfg.with_refresh_mode(RefreshMode::AlwaysFull))
            .run(&w2, &p)
            .unwrap();
        assert_eq!(full.peak_memory_bytes, 8 * GIB);
        // Consumers pay only a delta-sized memory read on top of their own
        // stored contents — far less than re-reading the 8 GiB hub.
        assert!(r.nodes[1].read_s < cfg_read_time_check());
    }

    /// Disk-read time of the 8 GiB hub under the paper config — the read
    /// an incremental consumer avoids.
    fn cfg_read_time_check() -> f64 {
        SimConfig::paper(GIB).disk_read_time(8 * GIB)
    }

    #[test]
    fn strict_failure_mode_errors_instead_of_falling_back() {
        let w = fig4();
        let p = plan(&[0, 1, 2], &[0], 3);
        for lanes in [1usize, 2] {
            let cfg = SimConfig::paper(GIB) // mv1 won't fit
                .with_lanes(lanes)
                .with_fallback_on_memory_pressure(false);
            match Simulator::new(cfg).run(&w, &p) {
                Err(crate::SimError::MemoryBudgetExceeded {
                    requested, budget, ..
                }) => {
                    assert_eq!(requested, 8 * GIB);
                    assert_eq!(budget, GIB);
                }
                other => panic!("lanes={lanes}: expected budget error, got {other:?}"),
            }
            // Default still falls back.
            let ok = Simulator::new(SimConfig::paper(GIB).with_lanes(lanes))
                .run(&w, &p)
                .unwrap();
            assert_eq!(ok.fallbacks(), 1);
        }
    }

    /// One lane is the paper's sequential walk: nodes occupy the lane one
    /// after another, in plan order, each from its start to the end of its
    /// blocking work — even over independent nodes a wider pool would
    /// overlap, and with memory-pressure fallbacks in the mix.
    #[test]
    fn one_lane_timelines_do_not_overlap_and_follow_plan_order() {
        let mut nodes: Vec<SimNode> = (0..6)
            .map(|i| SimNode::new(format!("mv{i}"), 1.0 + i as f64, GIB, 2 * GIB))
            .collect();
        nodes.push(SimNode::new("sink", 0.5, GIB / 4, 0));
        let w = SimWorkload::from_parts(nodes, [(0, 6), (3, 6), (4, 6)]).unwrap();
        // A shuffled valid order; 0, 3 and 4 flagged, but only two fit.
        let p = plan(&[3, 1, 4, 0, 5, 2, 6], &[0, 3, 4], 7);
        let cfg = SimConfig::paper(2 * GIB);
        let r = Simulator::new(cfg.clone()).run(&w, &p).unwrap();
        assert_eq!(r.fallbacks(), 1);
        let names: Vec<&str> = r.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["mv3", "mv1", "mv4", "mv0", "mv5", "mv2", "sink"]);
        let mut lane_free = 0.0f64;
        for t in &r.nodes {
            assert!(
                t.start_s >= lane_free + cfg.per_node_overhead_s - 1e-9,
                "{} started at {} while the lane was busy until {lane_free}",
                t.name,
                t.start_s
            );
            // Read, compute, in-memory creation, then any blocking write.
            lane_free = t
                .available_s
                .max(t.start_s + t.read_s + t.compute_s + t.write_s);
        }
        // Four lanes overlap the independent nodes instead.
        let four = Simulator::new(cfg.with_lanes(4)).run(&w, &p).unwrap();
        assert!(four.nodes[1].start_s < four.nodes[0].available_s);
        assert_eq!(four.peak_memory_bytes, r.peak_memory_bytes);
        assert_eq!(four.fallbacks(), 1);
    }

    /// Flagging still helps under lanes: consumers read the hub from
    /// memory and the hub's write is backgrounded.
    #[test]
    fn two_lane_flagging_still_wins() {
        let w = fig4();
        let sim = Simulator::new(SimConfig::paper(10 * GIB).with_lanes(2));
        let base = sim.run(&w, &plan(&[0, 1, 2], &[], 3)).unwrap();
        let sc = sim.run(&w, &plan(&[0, 1, 2], &[0], 3)).unwrap();
        assert!(sc.total_s < base.total_s);
        assert_eq!(sc.nodes[1].disk_read_s, 0.0);
        assert_eq!(sc.nodes[2].disk_read_s, 0.0);
        assert_eq!(sc.peak_memory_bytes, 8 * GIB);
    }
}
