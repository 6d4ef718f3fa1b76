//! The S/C **Controller** (§III): executes an MV refresh run according to
//! the optimizer's plan. It is crate-private: [`crate::ScSession`] builds
//! one per run, so the session is the only writer on the refresh path.
//!
//! For each node in the plan's execution order the controller runs the
//! node's logical plan, reading inputs from the Memory Catalog when present
//! and from external storage otherwise. Flagged nodes are created directly
//! in memory and handed to a *background materializer* thread that persists
//! them in parallel with downstream computation (Figure 6); a flagged entry
//! is released as soon as (a) all of its consumers have executed and (b)
//! its materialization has finished, so every MV is always fully persisted
//! by the end of the run — S/C never weakens the SLA.
//!
//! The Memory Catalog is the run's own: a map of resident entries that
//! lives exactly as long as the run, into which only the
//! [`sc_core::CatalogStep`]s of [`sc_core::AdmissionReplay`] put or take
//! entries. The replay is the one budget accounting — it decides every
//! admit and fallback and reports the run's peak — so the map can never
//! disagree with it, and nothing admitted can outlive its run.
//!
//! ## Execution lanes
//!
//! One executor runs every refresh: `lanes` lanes ([`RefreshConfig`]) —
//! the calling thread plus `lanes - 1` workers. A free lane takes a
//! queued blocking write first, else the next node [`sc_core::Dispatch`]
//! lets start: one whose dependencies' outputs are all *readable*
//! (resident in the Memory Catalog for flagged parents, persisted for
//! unflagged ones) and which lies within [`sc_core::run_ahead_window`]
//! plan positions of the computed prefix, earliest in plan order first.
//! The paper issues MV statements sequentially on one compute lane; that
//! is `lanes = 1`, whose window is zero: nodes start and write strictly
//! in `plan.order`.
//!
//! Catalog actions follow `plan.order` at every lane count: the replay
//! decides a flagged node — admit, or fall back to a blocking write if it
//! would overflow the budget — when the computed plan-order prefix
//! reaches it, and releases an entry when the prefix passes its last
//! consumer (admit first, then release), even when compute finishes out
//! of order. MV contents are a pure function of their inputs, so runs at
//! any lane count produce byte-identical tables, flag outcomes and peak
//! catalog usage.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use sc_core::{
    CostModel, Dispatch, Feed, ModePlan, ModeReason, NodeFacts, NodeMode, Plan, Policy,
    RefreshCosts, RefreshMode,
};
use sc_dag::NodeId;

use crate::exec::TableDelta;
use crate::plan::{DeltaSource, LogicalPlan, TableSource};
use crate::storage::{
    DeltaStore, DiskCatalog, Observation, ObservationStore, StagedSave, TableStat,
};
use crate::table::Table;
use crate::{EngineError, Result};

/// One MV update: a name and the query producing its contents.
#[derive(Debug, Clone)]
pub struct MvDefinition {
    /// Output table name (other MVs reference it by this name).
    pub name: String,
    /// The query computing the MV.
    pub plan: LogicalPlan,
}

impl MvDefinition {
    /// Creates a definition.
    pub fn new(name: impl Into<String>, plan: LogicalPlan) -> Self {
        MvDefinition {
            name: name.into(),
            plan,
        }
    }
}

/// Parallelism and maintenance settings for a refresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Number of compute lanes (worker threads) executing DAG nodes.
    /// `1` is the paper's sequential controller: strict `plan.order`.
    pub lanes: usize,
    /// Full-vs-incremental maintenance policy, effective when changes
    /// pend in the delta log (over an empty log every MV recomputes).
    pub refresh_mode: RefreshMode,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            lanes: 1,
            refresh_mode: RefreshMode::Auto,
        }
    }
}

impl RefreshConfig {
    /// Config running on `lanes` compute lanes (clamped to at least 1).
    pub fn with_lanes(lanes: usize) -> Self {
        RefreshConfig {
            lanes: lanes.max(1),
            ..RefreshConfig::default()
        }
    }

    /// Overrides the maintenance policy.
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.refresh_mode = mode;
        self
    }
}

pub use sc_core::CostProvenance;

/// Timing breakdown for one executed node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// MV name.
    pub name: String,
    /// How the node was brought up to date (full recompute, incremental
    /// delta maintenance, or skipped because nothing changed).
    pub mode: NodeMode,
    /// Why mode planning settled on [`NodeMetrics::mode`] for this node.
    pub reason: ModeReason,
    /// Size of the node's propagated delta (0 under full recompute).
    pub delta_bytes: u64,
    /// Bytes persisted by the append path: the encoded delta-sized
    /// segment an insert-only incremental refresh appends instead of
    /// rewriting the MV. 0 when the node rewrote (full or
    /// delta-rewrite/merge) or was skipped.
    pub appended_bytes: u64,
    /// Number of storage segments backing the MV after the run (1 =
    /// canonical single-segment form; grows by one per appended delta
    /// until a recompute or [`crate::storage::DiskCatalog::compact`]
    /// collapses it).
    pub segments: usize,
    /// Seconds spent reading inputs from external storage.
    pub read_s: f64,
    /// Seconds spent in operators (total node time minus storage reads).
    pub compute_s: f64,
    /// Seconds of *blocking* write (0 for flagged nodes — their write is
    /// backgrounded).
    pub write_s: f64,
    /// Output size in bytes.
    pub output_bytes: u64,
    /// Output row count.
    pub rows: usize,
    /// Whether this node was kept in the Memory Catalog.
    pub flagged: bool,
    /// Whether a flagged node fell back to disk (memory pressure).
    pub fell_back: bool,
    /// How many inputs were served from the Memory Catalog.
    pub memory_reads: usize,
    /// How many inputs were read from external storage.
    pub disk_reads: usize,
    /// Whether the mode decision was forced, estimated, or observed.
    pub cost: CostProvenance,
    /// The predicted full and delta costs the decision compared (`None`
    /// when the mode was forced without comparing costs).
    pub predicted: Option<RefreshCosts>,
}

impl NodeMetrics {
    /// Metrics for a node the run skipped outright (no delta reached it):
    /// no I/O, no compute, nothing flagged.
    pub fn skipped(name: impl Into<String>) -> Self {
        NodeMetrics {
            name: name.into(),
            mode: NodeMode::Skipped,
            reason: ModeReason::NoChurn,
            delta_bytes: 0,
            appended_bytes: 0,
            segments: 0,
            read_s: 0.0,
            compute_s: 0.0,
            write_s: 0.0,
            output_bytes: 0,
            rows: 0,
            flagged: false,
            fell_back: false,
            memory_reads: 0,
            disk_reads: 0,
            cost: CostProvenance::Policy,
            predicted: None,
        }
    }
}

/// Outcome of a refresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// End-to-end wall time: from run start until every MV (including
    /// background materializations) is persisted.
    pub total_s: f64,
    /// Per-node breakdowns, in plan-order (regardless of the wall-clock
    /// completion order under parallel execution).
    pub nodes: Vec<NodeMetrics>,
    /// Peak Memory Catalog usage during the run (the admission replay's
    /// peak).
    pub peak_memory_bytes: u64,
    /// The Memory Catalog budget `M` the run was held to.
    pub memory_budget_bytes: u64,
    /// Seconds spent at the end of the run waiting for the background
    /// materializer to drain.
    pub final_drain_s: f64,
    /// Retained-file deletes that failed during this run's epoch GC —
    /// observable GC debt (see `DiskCatalog::gc_failed_deletes`).
    pub gc_failed_deletes: u64,
    /// Why persisting the run's runtime observations to the sidecar
    /// failed. The refresh itself succeeded; only the learned costs were
    /// not kept on disk.
    pub observation_save_error: Option<String>,
}

impl RunMetrics {
    /// Total blocking read seconds across nodes.
    pub fn total_read_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.read_s).sum()
    }

    /// Total compute seconds across nodes.
    pub fn total_compute_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.compute_s).sum()
    }

    /// Total blocking write seconds across nodes.
    pub fn total_write_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.write_s).sum()
    }
}

/// Executes MV refresh runs against a disk catalog, each run with its own
/// Memory Catalog of `budget` bytes. Crate-private: the session is the
/// only caller.
pub(crate) struct Controller<'a> {
    disk: &'a DiskCatalog,
    budget: u64,
    cost_model: CostModel,
    refresh: RefreshConfig,
    deltas: &'a DeltaStore,
    /// The observation store and its sidecar path.
    observations: Option<(&'a ObservationStore, &'a Path)>,
    /// Test probe: `(plan position, computed prefix)` of every compute
    /// task, in dispatch order.
    #[cfg(test)]
    dispatch_log: Option<&'a Mutex<Vec<(usize, usize)>>>,
}

/// Catalog/storage name under which a node's *output delta* travels (the
/// `#` cannot appear in a scanned table name's path form, and spilled
/// delta files are removed at the end of every run).
fn delta_entry_name(mv: &str) -> String {
    format!("{mv}#delta")
}

/// Batches a run's point-in-time snapshot holds for `table`.
fn snapshot_batches(snapshot: &HashMap<String, TableDelta>, table: &str) -> usize {
    snapshot.get(table).map_or(0, |d| d.batches().len())
}

/// A run's Memory Catalog: resident entries by catalog name.
type Resident = HashMap<String, Arc<Table>>;

/// Locks `m`. Every update of a run's shared state leaves it valid for
/// what a poisoned run still does with it: record the error and wind
/// down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Table resolver that prefers the run's Memory Catalog and accounts read
/// time. A resident entry is handed out whole; a disk read decodes only
/// the columns a projected scan asks for.
struct RunSource<'a> {
    resident: &'a Mutex<Resident>,
    disk: &'a DiskCatalog,
    read_s: Cell<f64>,
    memory_reads: Cell<usize>,
    disk_reads: Cell<usize>,
    // Cache of disk reads within a single node execution so a plan that
    // scans the same table twice doesn't pay twice (engines buffer this).
    // Each entry records whether it holds every column.
    node_cache: RefCell<HashMap<String, (Arc<Table>, bool)>>,
}

impl<'a> RunSource<'a> {
    fn new(resident: &'a Mutex<Resident>, disk: &'a DiskCatalog) -> Self {
        RunSource {
            resident,
            disk,
            read_s: Cell::new(0.0),
            memory_reads: Cell::new(0),
            disk_reads: Cell::new(0),
            node_cache: RefCell::new(HashMap::new()),
        }
    }

    /// `name` from the Memory Catalog, else from this node's earlier disk
    /// reads, else from disk — `columns` of it, or every column.
    fn lookup(&self, name: &str, columns: Option<&[String]>) -> Result<Arc<Table>> {
        let resident = lock(self.resident).get(name).cloned();
        if let Some(t) = resident {
            self.memory_reads.set(self.memory_reads.get() + 1);
            return Ok(t);
        }
        if let Some((t, whole)) = self.node_cache.borrow().get(name) {
            let has = |c: &String| t.schema().index_of(c).is_ok();
            if *whole || columns.is_some_and(|cols| cols.iter().all(has)) {
                return Ok(t.clone());
            }
        }
        let started = Instant::now();
        let t = Arc::new(match columns {
            Some(cols) => self.disk.read_columns(name, cols)?,
            None => self.disk.read_table(name)?,
        });
        self.read_s
            .set(self.read_s.get() + started.elapsed().as_secs_f64());
        self.disk_reads.set(self.disk_reads.get() + 1);
        self.node_cache
            .borrow_mut()
            .insert(name.to_string(), (t.clone(), columns.is_none()));
        Ok(t)
    }
}

impl TableSource for RunSource<'_> {
    fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.lookup(name, None)
    }

    fn projected(&self, name: &str, columns: &[String]) -> Result<Arc<Table>> {
        self.lookup(name, Some(columns))
    }
}

/// Resolves input deltas for one node: base-table deltas come from the
/// run's point-in-time snapshot of the delta log (so batches ingested
/// mid-run are invisible to every node alike), parent-MV deltas from the
/// parent's published `#delta` entry via the regular table source (Memory
/// Catalog first, spilled storage file second) — so delta reads are
/// delta-sized I/O on the same channels as everything else.
struct RunDeltaSource<'a, 'b> {
    pending: &'b HashMap<String, TableDelta>,
    /// MV name -> node index for MVs in the current run.
    index: &'b HashMap<&'b str, usize>,
    source: &'b RunSource<'a>,
}

impl DeltaSource for RunDeltaSource<'_, '_> {
    fn delta(&self, name: &str) -> Result<TableDelta> {
        if self.index.contains_key(name) {
            let encoded = self.source.table(&delta_entry_name(name))?;
            return TableDelta::from_table(&encoded);
        }
        self.pending
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(format!("{name} (pending delta)")))
    }
}

/// Result of maintaining one node incrementally.
struct IncrementalOutput {
    /// The node's new contents (old contents + applied delta) — or, on
    /// the append path, just the rows to append as a new segment (the
    /// caller knows which via its own `ModePlan::append` entry).
    output: Table,
    /// The node's output delta, for row-wise plans (aggregate merges do
    /// not publish one).
    delta: Option<TableDelta>,
    /// Size of the propagated delta.
    delta_bytes: u64,
}

/// Maintains `mv` incrementally: delta-spine plans propagate the input
/// delta (probing any join's unchanged build side, read in full via
/// `source`) and apply it to the stored contents; an aggregate root merges
/// its input's delta into the stored result. With `append` set (an
/// insert-only row-wise shape), the stored contents are **not read at
/// all**: the propagated delta's insert rows become a new storage segment,
/// making the whole node O(delta + build sides) instead of O(MV).
fn execute_incremental(
    mv: &MvDefinition,
    source: &RunSource<'_>,
    deltas: &RunDeltaSource<'_, '_>,
    append: bool,
) -> Result<IncrementalOutput> {
    if append {
        let delta_out = mv.plan.execute_delta(deltas, source)?;
        let output = delta_out.insert_rows_table()?;
        return Ok(IncrementalOutput {
            output,
            delta_bytes: delta_out.byte_size(),
            delta: Some(delta_out),
        });
    }
    if let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = &mv.plan
    {
        let delta_in = input.execute_delta(deltas, source)?;
        let current = source.table(&mv.name)?;
        let triples: Vec<_> = aggs
            .iter()
            .map(|a| (a.func, a.column.clone(), a.alias.clone()))
            .collect();
        let output = crate::exec::merge_aggregate(&current, &delta_in, group_by, &triples)?;
        return Ok(IncrementalOutput {
            output,
            delta: None,
            delta_bytes: delta_in.byte_size(),
        });
    }
    if let LogicalPlan::Distinct { input } = &mv.plan {
        // Like the aggregate merge: absorb the spine's delta into the
        // stored output without publishing one (whether a delta row
        // survives the dedup is unknowable to consumers).
        let delta_in = input.execute_delta(deltas, source)?;
        let current = source.table(&mv.name)?;
        let output = crate::exec::merge_distinct(&current, &delta_in)?;
        return Ok(IncrementalOutput {
            output,
            delta: None,
            delta_bytes: delta_in.byte_size(),
        });
    }
    let delta_out = mv.plan.execute_delta(deltas, source)?;
    let current = source.table(&mv.name)?;
    let output = delta_out.apply(&current)?;
    Ok(IncrementalOutput {
        output,
        delta_bytes: delta_out.byte_size(),
        delta: Some(delta_out),
    })
}

/// Output metrics for one computed node: the in-memory output size —
/// or, on the append path (where the full output is never materialized),
/// the stored size after the append commits: the pre-run stored size plus
/// the encoded segment.
fn stored_output_metrics(pre: &TableStat, output: &Table, append: bool) -> (u64, usize, u64) {
    if !append {
        return (output.byte_size(), output.num_rows(), 0);
    }
    if output.num_rows() == 0 {
        return (pre.bytes, pre.rows as usize, 0);
    }
    let seg_bytes = crate::storage::format::encoded_size(output);
    (
        pre.bytes + seg_bytes,
        pre.rows as usize + output.num_rows(),
        seg_bytes,
    )
}

/// What a lane measured while computing one node — the plain numbers
/// that become its [`NodeMetrics`].
#[derive(Default)]
struct ComputedStats {
    /// Stored-output size for metrics: the in-memory output size, or (on
    /// the append path, where the full output is never materialized) the
    /// stored bytes after the append commits.
    output_bytes: u64,
    /// Output row count on the same basis as `output_bytes`.
    rows: usize,
    /// Encoded appended-segment bytes (0 off the append path).
    appended_bytes: u64,
    delta_bytes: u64,
    read_s: f64,
    compute_s: f64,
    /// Blocking delta-spill write performed during compute.
    spill_write_s: f64,
    memory_reads: usize,
    disk_reads: usize,
}

/// A computed node: its output travels with whichever task or catalog
/// entry still needs it, so nothing outlives its last use.
struct ComputedNode {
    /// Full output — or, on the append path (`ModePlan::append`), just
    /// the rows to append.
    output: Arc<Table>,
    /// Encoded output delta, when the node publishes one that the catalog
    /// or a fallback spill may need.
    delta_table: Option<Arc<Table>>,
    stats: ComputedStats,
}

impl ComputedNode {
    /// What the Memory Catalog holds for this node: its encoded delta
    /// when every consumer maintains incrementally (`delta_payload`), its
    /// full output otherwise.
    fn payload(&self, delta_payload: bool) -> &Arc<Table> {
        match &self.delta_table {
            Some(delta) if delta_payload => delta,
            _ => &self.output,
        }
    }
}

/// Blocking materialization of a computed output waiting for a lane
/// (unflagged nodes and memory-pressure fallbacks).
struct BlockingWrite {
    idx: usize,
    node: ComputedNode,
    fell_back: bool,
}

/// What a lane does next.
enum LaneTask {
    /// Execute the node's logical plan.
    Compute(usize),
    /// Perform a queued blocking write.
    Write(BlockingWrite),
}

/// The mutable half of a run: scheduling and catalog accounting, which
/// every lane updates — under [`Run::state`]'s lock — with the outcome of
/// the task it just finished.
struct RunState {
    /// Blocking writes waiting for a lane, first in first out; a free
    /// lane takes them before starting another node.
    writes: VecDeque<BlockingWrite>,
    /// The start rule: which node a free lane computes next.
    dispatch: Dispatch,
    /// The plan-order catalog accounting, against the *effective* flags
    /// (skipped nodes never enter the catalog): the only decider of what
    /// [`Run::resident`] holds.
    replay: sc_core::AdmissionReplay,
    computed: Vec<bool>,
    /// Catalog payload size per computed node.
    sizes: Vec<u64>,
    /// Flagged outputs computed ahead of their plan-order turn.
    awaiting_admission: Vec<Option<ComputedNode>>,
    metrics: Vec<Option<NodeMetrics>>,
    /// Nodes whose output is readable and whose metrics are final.
    finalized: usize,
    /// The background materializer's queue (closed by taking it) and the
    /// writes it still owes.
    bg_tx: Option<mpsc::Sender<(usize, Arc<Table>)>>,
    bg_pending: usize,
    /// The first failure; it ends the run.
    error: Option<EngineError>,
}

/// One refresh run, shared by its lanes and its background materializer.
struct Run<'r> {
    ctrl: &'r Controller<'r>,
    mvs: &'r [MvDefinition],
    #[cfg(test)]
    plan: &'r Plan,
    dp: &'r ModePlan,
    /// The stored MVs before the run, for appended and skipped nodes
    /// (zero for the rest, and when absent).
    pre: &'r [TableStat],
    snapshot: &'r HashMap<String, TableDelta>,
    /// MV name -> node index.
    index: HashMap<&'r str, usize>,
    children: Vec<Vec<usize>>,
    state: Mutex<RunState>,
    /// The run's Memory Catalog. Lanes read it while computing, outside
    /// `state`'s lock; only `replay`'s steps write it.
    resident: Mutex<Resident>,
    /// Signalled whenever `state` changed: lanes wait on it for tasks,
    /// the caller for the materializer to drain.
    wake: Condvar,
}

impl Run<'_> {
    fn lock(&self) -> MutexGuard<'_, RunState> {
        lock(&self.state)
    }

    /// Records `error` (the first one wins) and wakes everyone to wind
    /// down.
    fn fail(&self, error: EngineError) {
        self.lock().error.get_or_insert(error);
        self.wake.notify_all();
    }

    /// Catalog entry of a resident node: a delta-payload node's entry is
    /// its published delta, not its table.
    fn entry_name(&self, i: usize) -> String {
        if self.dp.delta_payload[i] {
            delta_entry_name(&self.mvs[i].name)
        } else {
            self.mvs[i].name.clone()
        }
    }

    /// `idx`'s output became readable (admitted or persisted) and its
    /// metrics final: its consumers lose a pending dependency.
    fn publish(&self, st: &mut RunState, idx: usize, metrics: NodeMetrics) {
        st.metrics[idx] = Some(metrics);
        st.finalized += 1;
        st.dispatch.published(idx);
    }

    /// Assembles the final [`NodeMetrics`] for a computed node
    /// (`flagged`: kept in memory with its write backgrounded).
    fn node_metrics(
        &self,
        idx: usize,
        stats: &ComputedStats,
        write_s: f64,
        flagged: bool,
    ) -> NodeMetrics {
        let dp = self.dp;
        NodeMetrics {
            name: self.mvs[idx].name.clone(),
            mode: dp.modes[idx],
            reason: dp.reasons[idx],
            delta_bytes: stats.delta_bytes,
            appended_bytes: stats.appended_bytes,
            segments: if dp.append[idx] {
                self.pre[idx].segments + usize::from(stats.appended_bytes > 0)
            } else {
                1
            },
            read_s: stats.read_s,
            compute_s: stats.compute_s,
            write_s: write_s + stats.spill_write_s,
            output_bytes: stats.output_bytes,
            rows: stats.rows,
            flagged,
            fell_back: false,
            memory_reads: stats.memory_reads,
            disk_reads: stats.disk_reads,
            cost: dp.cost[idx],
            predicted: dp.predicted[idx],
        }
    }

    /// Hands a flagged output to the background materializer.
    fn background(&self, st: &mut RunState, idx: usize, output: Arc<Table>) -> Result<()> {
        st.bg_pending += 1;
        let bg_tx = st.bg_tx.as_ref().expect("open until the run winds down");
        bg_tx
            .send((idx, output))
            .map_err(|e| EngineError::Materialize(e.to_string()))
    }

    /// A lane computed `idx`: route its output, then apply the plan-order
    /// catalog actions the newly computed prefix implies.
    fn on_computed(&self, st: &mut RunState, idx: usize, node: ComputedNode) -> Result<()> {
        let (mvs, dp) = (self.mvs, self.dp);
        st.computed[idx] = true;
        st.dispatch.computed(idx);
        st.sizes[idx] = node.payload(dp.delta_payload[idx]).byte_size();
        let steps = st.replay.advance(&st.computed, &st.sizes);

        let is_flagged = dp.flagged.contains(NodeId(idx));
        if dp.modes[idx] == NodeMode::Skipped {
            // Stored contents already current: nothing to write or admit,
            // readable immediately.
            let mut skipped = NodeMetrics::skipped(&mvs[idx].name);
            skipped.segments = self.pre[idx].segments;
            self.publish(st, idx, skipped);
        } else if is_flagged && self.children[idx].is_empty() {
            // No consumers: skip the catalog (the node is outside every
            // Vi), just background the write.
            self.background(st, idx, node.output)?;
            let metrics = self.node_metrics(idx, &node.stats, 0.0, true);
            self.publish(st, idx, metrics);
        } else if is_flagged {
            st.awaiting_admission[idx] = Some(node);
        } else {
            st.writes.push_back(BlockingWrite {
                idx,
                node,
                fell_back: false,
            });
        }

        for step in steps {
            let (cand, admit) = match step {
                sc_core::CatalogStep::Release { node } => {
                    lock(&self.resident).remove(&self.entry_name(node));
                    continue;
                }
                sc_core::CatalogStep::Decide { node, admit, .. } => (node, admit),
            };
            let node = st.awaiting_admission[cand]
                .take()
                .expect("a decision only fixes after the node computed");
            if admit {
                let payload = Arc::clone(node.payload(dp.delta_payload[cand]));
                lock(&self.resident).insert(self.entry_name(cand), payload);
                self.background(st, cand, node.output)?;
                let metrics = self.node_metrics(cand, &node.stats, 0.0, true);
                self.publish(st, cand, metrics);
            } else {
                // The optimizer plans from *estimated* sizes, so an output
                // that turns out not to fit falls back to a blocking write
                // instead of failing the run.
                st.writes.push_back(BlockingWrite {
                    idx: cand,
                    node,
                    fell_back: true,
                });
            }
        }
        Ok(())
    }

    /// Blocking materialization of a computed output. A delta-payload
    /// node only gets here by falling back, and then also lands its
    /// encoded delta on storage first — its incremental consumers now
    /// read the spill.
    fn write(&self, idx: usize, node: &ComputedNode) -> Result<f64> {
        let name = &self.mvs[idx].name;
        let w = Instant::now();
        if let Some(d) = node
            .delta_table
            .as_ref()
            .filter(|_| self.dp.delta_payload[idx])
        {
            self.ctrl.disk.write_table(&delta_entry_name(name), d)?;
        }
        self.ctrl
            .disk
            .persist_table(name, &node.output, self.dp.append[idx])?;
        Ok(w.elapsed().as_secs_f64())
    }

    /// Computes one node on a lane: runs the node's plan — full or
    /// incremental per the fixed delta plan — and spills the published
    /// delta to storage when some incremental consumer must read it from
    /// there. Skipped nodes return an empty placeholder so the readiness
    /// machinery stays uniform.
    fn compute(&self, idx: usize) -> Result<ComputedNode> {
        let (dp, disk) = (self.dp, self.ctrl.disk);
        let mut stats = ComputedStats::default();
        if dp.modes[idx] == NodeMode::Skipped {
            return Ok(ComputedNode {
                output: Arc::new(Table::empty(crate::schema::Schema::empty())),
                delta_table: None,
                stats,
            });
        }
        let mv = &self.mvs[idx];
        let source = RunSource::new(&self.resident, disk);
        let started = Instant::now();
        let (output, delta) = if dp.modes[idx] == NodeMode::Incremental {
            let deltas = RunDeltaSource {
                pending: self.snapshot,
                index: &self.index,
                source: &source,
            };
            let inc = execute_incremental(mv, &source, &deltas, dp.append[idx])?;
            stats.delta_bytes = inc.delta_bytes;
            (Arc::new(inc.output), inc.delta)
        } else {
            (Arc::new(mv.plan.execute(&source)?), None)
        };
        let elapsed = started.elapsed().as_secs_f64();
        stats.read_s = source.read_s.get();
        stats.compute_s = (elapsed - stats.read_s).max(0.0);
        stats.memory_reads = source.memory_reads.get();
        stats.disk_reads = source.disk_reads.get();
        // Encode the published delta once for spill and/or catalog.
        let delta_table = match &delta {
            Some(d) if dp.spill[idx] || dp.delta_payload[idx] => Some(Arc::new(d.to_table()?)),
            _ => None,
        };
        if dp.spill[idx] {
            let w = Instant::now();
            disk.write_table(
                &delta_entry_name(&mv.name),
                delta_table.as_ref().expect("spill implies published delta"),
            )?;
            stats.spill_write_s = w.elapsed().as_secs_f64();
        }
        (stats.output_bytes, stats.rows, stats.appended_bytes) =
            stored_output_metrics(&self.pre[idx], &output, dp.append[idx]);
        Ok(ComputedNode {
            output,
            delta_table,
            stats,
        })
    }

    /// The next task for a free lane: a queued blocking write, else the
    /// next node the start rule lets compute.
    fn next_task(&self, st: &mut RunState) -> Option<LaneTask> {
        if let Some(write) = st.writes.pop_front() {
            return Some(LaneTask::Write(write));
        }
        let idx = st.dispatch.next()?;
        #[cfg(test)]
        if let Some(log) = self.ctrl.dispatch_log {
            let pos = self.plan.order.iter().position(|v| v.index() == idx);
            log.lock()
                .unwrap()
                .push((pos.unwrap(), st.dispatch.prefix()));
        }
        Some(LaneTask::Compute(idx))
    }

    /// One lane: takes tasks, runs them outside the lock, and folds each
    /// outcome back into the shared state — until every node is final or
    /// the run failed.
    fn lane(&self) {
        // A lane that unwinds would leave the others waiting for its
        // result forever: fail the run instead.
        struct FailOnPanic<'r, 'q>(&'q Run<'r>);
        impl Drop for FailOnPanic<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    let error = EngineError::Materialize("a refresh lane panicked".to_string());
                    self.0.fail(error);
                }
            }
        }
        let _fail = FailOnPanic(self);
        loop {
            let task = {
                let mut st = self.lock();
                loop {
                    if st.error.is_some() || st.finalized == self.mvs.len() {
                        return;
                    }
                    if let Some(task) = self.next_task(&mut st) {
                        break task;
                    }
                    st = self.wake.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            };
            let outcome = match task {
                LaneTask::Compute(idx) => self
                    .compute(idx)
                    .and_then(|node| self.on_computed(&mut self.lock(), idx, node)),
                LaneTask::Write(BlockingWrite {
                    idx,
                    node,
                    fell_back,
                }) => self.write(idx, &node).map(|write_s| {
                    let mut m = self.node_metrics(idx, &node.stats, write_s, false);
                    m.fell_back = fell_back;
                    // Free the output before taking the lock.
                    drop(node);
                    self.publish(&mut self.lock(), idx, m);
                }),
            };
            match outcome {
                Ok(()) => self.wake.notify_all(),
                Err(e) => self.fail(e),
            }
        }
    }

    /// The background materializer: persists flagged outputs off the
    /// critical path until its queue is closed.
    fn materialize(&self, bg_rx: mpsc::Receiver<(usize, Arc<Table>)>) {
        for (idx, table) in bg_rx {
            let name = &self.mvs[idx].name;
            let written = self
                .ctrl
                .disk
                .persist_table(name, &table, self.dp.append[idx]);
            drop(table);
            self.lock().bg_pending -= 1;
            match written {
                Ok(_) => self.wake.notify_all(),
                Err(e) => self.fail(EngineError::Materialize(format!("{name}: {e}"))),
            }
        }
    }
}

impl<'a> Controller<'a> {
    /// Creates a controller over `disk` whose runs each hold a Memory
    /// Catalog of `budget` bytes (the paper's `M`) and maintain MVs from
    /// the pending changes in `deltas` (per
    /// [`RefreshConfig::refresh_mode`]). A successful refresh consumes
    /// the log; over an empty log every MV recomputes.
    pub(crate) fn new(disk: &'a DiskCatalog, budget: u64, deltas: &'a DeltaStore) -> Self {
        Controller {
            disk,
            budget,
            cost_model: CostModel::paper(),
            refresh: RefreshConfig::default(),
            deltas,
            observations: None,
            #[cfg(test)]
            dispatch_log: None,
        }
    }

    /// Attaches a runtime-observation store and its sidecar file:
    /// [`RefreshMode::Auto`] decisions consult its per-identity summaries
    /// (falling back to the static estimates on a fingerprint miss), and
    /// every *successful* refresh appends the run's representative node
    /// metrics to it and saves it to `sidecar`. A failed run records and
    /// saves nothing — its numbers would poison the feedback map — and
    /// fallback-mode nodes (poisoned-log or unsupported-shape full
    /// recomputes) are never recorded, since their costs do not represent
    /// the node's steady-state behavior.
    pub(crate) fn with_observations(
        mut self,
        observations: &'a ObservationStore,
        sidecar: &'a Path,
    ) -> Self {
        self.observations = Some((observations, sidecar));
        self
    }

    /// Overrides the cost model [`RefreshMode::Auto`] consults when
    /// deciding whether a node is maintained incrementally or recomputed
    /// ([`CostModel::incremental_refresh_wins`]); the paper's by default.
    pub(crate) fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Overrides the parallelism settings.
    pub(crate) fn with_refresh_config(mut self, refresh: RefreshConfig) -> Self {
        self.refresh = refresh;
        self
    }

    /// Checks that the plan covers exactly the MV set and that its order
    /// respects every derived dependency; returns the edge list.
    fn validate(&self, mvs: &[MvDefinition], plan: &Plan) -> Result<Vec<(usize, usize)>> {
        let n = mvs.len();
        if plan.order.len() != n || plan.flagged.len() != n {
            return Err(EngineError::InvalidPlan(format!(
                "plan covers {} nodes, workload has {n}",
                plan.order.len()
            )));
        }
        let mut seen = vec![false; n];
        for &v in &plan.order {
            if v.index() >= n || seen[v.index()] {
                return Err(EngineError::InvalidPlan(format!(
                    "order is not a permutation: {v}"
                )));
            }
            seen[v.index()] = true;
        }
        let edges = dependencies(mvs);
        let mut pos = vec![0usize; n];
        for (p, &v) in plan.order.iter().enumerate() {
            pos[v.index()] = p;
        }
        for &(i, j) in &edges {
            if pos[i] > pos[j] {
                return Err(EngineError::InvalidPlan(format!(
                    "order executes '{}' before its dependency '{}'",
                    mvs[j].name, mvs[i].name
                )));
            }
        }
        Ok(edges)
    }

    /// Performs the refresh run described by `plan` over `mvs`.
    pub(crate) fn refresh(&self, mvs: &[MvDefinition], plan: &Plan) -> Result<RunMetrics> {
        let edges = self.validate(mvs, plan)?;
        let gc_debt_before = self.disk.gc_failed_deletes();
        // Work from a point-in-time snapshot of the delta log: every node
        // sees the same pending batches even if ingestion continues while
        // the run executes, and only the snapshotted prefix is consumed.
        let snapshot = self.deltas.snapshot();
        // Mode planning, fixed before execution so lane timing cannot
        // change what a refresh computes.
        let mode = self.refresh.refresh_mode;
        let facts = match mode {
            RefreshMode::AlwaysFull => None,
            _ => {
                let observations = self
                    .observations
                    .filter(|_| mode == RefreshMode::Auto)
                    .map(|(store, _)| store);
                mode_facts(mvs, self.disk, &snapshot, observations)
            }
        };
        let policy = Policy {
            mode,
            tracking: facts.is_some(),
            poisoned: self.deltas.is_poisoned(),
        };
        let dp = sc_core::modes::plan(
            facts.as_deref().unwrap_or_default(),
            plan,
            policy,
            &self.cost_model,
        );
        // What appended and skipped nodes report builds on the stored
        // table. It is read here, before a background write can hold the
        // catalog's io lock against a lane.
        let pre: Vec<TableStat> = mvs
            .iter()
            .enumerate()
            .map(|(i, mv)| {
                if dp.append[i] || dp.modes[i] == NodeMode::Skipped {
                    self.disk.stat(&mv.name).unwrap_or_default()
                } else {
                    TableStat::default()
                }
            })
            .collect();
        let (mut result, staged) = match self.execute(mvs, plan, &edges, &dp, &pre, &snapshot) {
            Ok((run, staged)) => (Ok(run), staged),
            Err(e) => (Err(e), None),
        };
        // Spilled delta files are transient, scoped to one run: a stale
        // one would be mistaken for a parent delta by the next refresh.
        // Every MV's is checked, not only this run's publishers', so a
        // spill left by a process that died mid-run is reclaimed too.
        for mv in mvs {
            let spill = delta_entry_name(&mv.name);
            if self.disk.contains(&spill) {
                let _ = self.disk.drop_table(&spill);
            }
        }
        if let Ok(run) = &mut result {
            run.gc_failed_deletes = self.disk.gc_failed_deletes() - gc_debt_before;
        }
        let store = self.deltas;
        match &result {
            // Every MV is now current: retire the consumed prefix. But
            // executions read *live* bases — a batch ingested after the
            // snapshot may already be baked into an MV this run
            // recomputed in full (or probed through a delta-join's build
            // side), and it still pends; applying it again next run would
            // double-count it, so poison the log and let the next run
            // recompute the delta-reached MVs instead.
            Ok(_) => {
                let contaminated = self.concurrent_ingest_contaminates(mvs, &dp, &snapshot, store);
                store.consume(&snapshot);
                if contaminated {
                    store.mark_poisoned();
                }
            }
            // Some MVs may already hold applied deltas while the log still
            // pends: force full recomputes until it drains. A failed run
            // is also conservatively poisoned when batches arrived mid-run
            // (unknown which nodes executed first).
            Err(_)
                if snapshot.values().any(|d| !d.is_empty())
                    || store
                        .tables()
                        .iter()
                        .any(|t| store.pending_batches(t) > snapshot_batches(&snapshot, t)) =>
            {
                store.mark_poisoned()
            }
            Err(_) => {}
        }
        // Feedback commit point: only a run that reached here with Ok —
        // catalogs written, delta log consumed — may teach the adaptive
        // layer. A doomed run (or the poisoned-log retry recomputing
        // after one) drops its staged save, so the sidecar stays
        // byte-identical to a never-failed history.
        if let (Ok(run), Some(staged), Some((store, sidecar))) =
            (&mut result, staged, self.observations)
        {
            if let Err(e) = store.commit(staged) {
                run.observation_save_error = Some(format!("{}: {e}", sidecar.display()));
            }
        }
        result
    }

    /// The run's *representative* node metrics as observation-store
    /// entries. Non-representative nodes are excluded: skipped nodes did
    /// no work, fallen-back flagged nodes paid an unplanned blocking
    /// write, and full recomputes forced by a poisoned log or an
    /// unsupported delta shape say nothing about how the node behaves
    /// when the planner actually gets to choose.
    fn observation_batch<'m>(
        mvs: &[MvDefinition],
        nodes: impl Iterator<Item = &'m NodeMetrics>,
    ) -> Vec<(String, u64, Observation)> {
        let fingerprints: HashMap<&str, u64> = mvs
            .iter()
            .map(|m| (m.name.as_str(), m.plan.fingerprint()))
            .collect();
        nodes
            .filter(|node| {
                node.mode != NodeMode::Skipped
                    && !node.fell_back
                    && !matches!(
                        node.reason,
                        ModeReason::PoisonedLog | ModeReason::UnsupportedShape
                    )
            })
            .filter_map(|node| {
                let fp = *fingerprints.get(node.name.as_str())?;
                let obs = Observation {
                    full: node.mode == NodeMode::Full,
                    rows: node.rows as u64,
                    delta_bytes: node.delta_bytes,
                    appended_bytes: node.appended_bytes,
                    output_bytes: node.output_bytes,
                    read_s: node.read_s,
                    compute_s: node.compute_s,
                    write_s: node.write_s,
                };
                Some((node.name.clone(), fp, obs))
            })
            .collect()
    }

    /// Whether a batch ingested *during* the run (after its snapshot)
    /// could already be baked into an MV this run wrote: nodes executed
    /// in full read every input from live storage, and delta-joined nodes
    /// read their static build-side tables from live storage. (Skipped
    /// nodes read nothing; other incremental reads come from the
    /// snapshot, published parent deltas, or the node's own stored
    /// contents — none of which a concurrent ingest touches.)
    fn concurrent_ingest_contaminates(
        &self,
        mvs: &[MvDefinition],
        dp: &ModePlan,
        snapshot: &HashMap<String, TableDelta>,
        store: &DeltaStore,
    ) -> bool {
        let grown: Vec<String> = store
            .tables()
            .into_iter()
            .filter(|t| store.pending_batches(t) > snapshot_batches(snapshot, t))
            .collect();
        if grown.is_empty() {
            return false;
        }
        mvs.iter().enumerate().any(|(i, mv)| match dp.modes[i] {
            NodeMode::Full => mv.plan.input_tables().iter().any(|t| grown.contains(t)),
            NodeMode::Incremental => mv
                .plan
                .incremental_support()
                .static_tables()
                .iter()
                .any(|t| grown.contains(t)),
            NodeMode::Skipped => false,
        })
    }

    /// The refresh executor (§III-C): `lanes` lanes — the calling thread
    /// plus `lanes - 1` scoped workers — take queued blocking writes and
    /// the nodes [`sc_core::Dispatch`] lets start, and one background
    /// materializer persists flagged outputs off the critical path. There
    /// is no scheduler thread: a lane that finishes a task folds the
    /// outcome into the shared [`RunState`] itself.
    ///
    /// A node starts once every dependency is readable (admitted to the
    /// Memory Catalog or persisted) and it lies within
    /// [`sc_core::run_ahead_window`] plan positions of the computed
    /// plan-order prefix, earliest in plan order first. With one lane
    /// that window is zero, so the calling thread computes — and, taking
    /// each node's blocking write before the next node, writes — the
    /// nodes strictly in `plan.order`: the paper's sequential controller
    /// is this executor with a pool of one.
    ///
    /// The run's Memory Catalog is driven by [`sc_core::AdmissionReplay`]
    /// alone: a flagged node is admitted (or falls back to a blocking
    /// write) when the computed prefix reaches it, and an entry is
    /// released when the prefix passes its last consumer — admit first,
    /// then release, in plan order. Catalog contents therefore depend only
    /// on the plan and the output sizes, never on which lane finished
    /// first: flag outcomes and `peak_memory_bytes` (the replay's peak)
    /// are the same at every lane count.
    fn execute(
        &self,
        mvs: &[MvDefinition],
        plan: &Plan,
        edges: &[(usize, usize)],
        dp: &ModePlan,
        pre: &[TableStat],
        snapshot: &HashMap<String, TableDelta>,
    ) -> Result<(RunMetrics, Option<StagedSave>)> {
        let n = mvs.len();
        let lanes = self.refresh.lanes.clamp(1, n.max(1));
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in edges {
            children[i].push(j);
            parents[j].push(i);
        }
        let (bg_tx, bg_rx) = mpsc::channel();
        let run = Run {
            ctrl: self,
            mvs,
            #[cfg(test)]
            plan,
            dp,
            pre,
            snapshot,
            index: mvs
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.as_str(), i))
                .collect(),
            children,
            state: Mutex::new(RunState {
                writes: VecDeque::new(),
                dispatch: Dispatch::new(&plan.order, &parents, lanes),
                replay: sc_core::AdmissionReplay::new(
                    &plan.order,
                    &dp.flagged,
                    &parents,
                    self.budget,
                ),
                computed: vec![false; n],
                sizes: vec![0; n],
                awaiting_admission: (0..n).map(|_| None).collect(),
                metrics: (0..n).map(|_| None).collect(),
                finalized: 0,
                bg_tx: Some(bg_tx),
                bg_pending: 0,
                error: None,
            }),
            resident: Mutex::new(HashMap::new()),
            wake: Condvar::new(),
        };

        let run_started = Instant::now();
        let (final_drain_s, staged) = std::thread::scope(|scope| {
            scope.spawn(|| {
                if let Some((store, _)) = self.observations {
                    store.release_replaced();
                }
                run.materialize(bg_rx)
            });
            for _ in 1..lanes {
                scope.spawn(|| run.lane());
            }
            run.lane();

            // All nodes executed; wait for outstanding materializations,
            // then close the materializer's queue so it exits. Every
            // node's metrics are final by now, so the observation sidecar
            // is staged while the materializer writes; the run commits it
            // only if it succeeds.
            let staged = self.observations.and_then(|(store, sidecar)| {
                let batch = {
                    let st = run.lock();
                    if st.error.is_some() {
                        return None;
                    }
                    Self::observation_batch(mvs, st.metrics.iter().flatten())
                };
                Some(store.stage(sidecar, batch))
            });
            let drain_started = Instant::now();
            let mut st = run.lock();
            while st.bg_pending > 0 && st.error.is_none() {
                st = run.wake.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.bg_tx = None;
            (drain_started.elapsed().as_secs_f64(), staged)
        });

        let mut st = run.state.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Some(error) = st.error {
            return Err(error);
        }
        let nodes = plan
            .order
            .iter()
            .map(|v| st.metrics[v.index()].take().expect("every node finalized"))
            .collect();
        let metrics = RunMetrics {
            total_s: run_started.elapsed().as_secs_f64(),
            nodes,
            peak_memory_bytes: st.replay.peak(),
            memory_budget_bytes: self.budget,
            final_drain_s,
            gc_failed_deletes: 0,
            observation_save_error: None,
        };
        Ok((metrics, staged))
    }
}

/// Derives the dependency edges among `mvs` (an edge `i -> j` when MV
/// `j` scans MV `i`'s output).
pub fn dependencies(mvs: &[MvDefinition]) -> Vec<(usize, usize)> {
    let index: HashMap<&str, usize> = mvs
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.as_str(), i))
        .collect();
    let mut edges = Vec::new();
    for (j, mv) in mvs.iter().enumerate() {
        for input in mv.plan.input_tables() {
            if let Some(&i) = index.get(input.as_str()) {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// The facts [`sc_core::modes::plan`] decides from for `mvs`, read from
/// `disk` (existence and stored sizes, one `size_of` per distinct table),
/// the pending-log snapshot `pending`, and `observations` (the summary
/// for each MV's name + plan fingerprint). `None` when nothing pends: an
/// empty log means no delta tracking, so the run recomputes every MV —
/// profiling runs stay meaningful — while the snapshot machinery stays
/// active, so a batch ingested *during* that run still poisons the log
/// instead of being applied twice.
///
/// The controller and the scenario mirror both call this, so the
/// simulator decides from exactly what the engine reads.
pub fn mode_facts(
    mvs: &[MvDefinition],
    disk: &DiskCatalog,
    pending: &HashMap<String, TableDelta>,
    observations: Option<&ObservationStore>,
) -> Option<Vec<NodeFacts>> {
    if pending.values().all(TableDelta::is_empty) {
        return None;
    }
    let index: HashMap<&str, usize> = mvs
        .iter()
        .enumerate()
        .map(|(i, m)| (m.name.as_str(), i))
        .collect();
    // One manifest read per table; `None` when it is not stored (or its
    // manifest does not decode, which only a recompute repairs).
    let mut sizes: HashMap<String, Option<u64>> = HashMap::new();
    let mut stored = |table: &str| {
        *sizes
            .entry(table.to_string())
            .or_insert_with(|| disk.size_of(table).ok())
    };
    let facts = mvs
        .iter()
        .map(|mv| {
            let support = mv.plan.incremental_support();
            let statics = support.static_tables();
            let mv_bytes = stored(&mv.name);
            let mut f = NodeFacts {
                exists: mv_bytes.is_some(),
                maintainable: support.maintainable(false),
                maintainable_with_deletes: support.maintainable(true),
                publishes: support.publishes_delta(),
                // Segmented storage appends any insert-only delta.
                appendable: true,
                mv_bytes: mv_bytes.unwrap_or(0),
                observed: observations.and_then(|o| o.summary(&mv.name, mv.plan.fingerprint())),
                ..NodeFacts::default()
            };
            for input in mv.plan.input_tables() {
                let is_static = statics.contains(&input);
                let bytes = stored(&input).unwrap_or(0);
                if is_static {
                    f.static_bytes += bytes;
                }
                if let Some(&p) = index.get(input.as_str()) {
                    let feed = if is_static { Feed::Build } else { Feed::Spine };
                    f.parents.push((p, feed));
                    continue;
                }
                f.base_bytes += bytes;
                match pending.get(&input).filter(|d| !d.is_empty()) {
                    Some(_) if is_static => f.churn.build = true,
                    Some(d) => {
                        f.churn.spine = true;
                        f.churn.bytes += d.byte_size();
                        f.churn.deletes |= d.has_deletes();
                    }
                    None => {}
                }
            }
            f
        })
        .collect();
    Some(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggExpr;
    use crate::storage::Throttle;
    use crate::table::TableBuilder;
    use crate::types::{DataType, Value};
    use sc_core::FlagSet;

    /// Base table with `n` rows of (k, v).
    fn base_table(n: i64) -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        for i in 0..n {
            t.push_row(vec![Value::Int64(i % 10), Value::Float64(i as f64)])
                .unwrap();
        }
        t
    }

    /// A 3-node workload like Figure 4: base -> mv1 -> {mv2, mv3}.
    fn fig4_workload() -> Vec<MvDefinition> {
        vec![
            MvDefinition::new(
                "mv1",
                LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(10.0f64))),
            ),
            MvDefinition::new(
                "mv2",
                LogicalPlan::scan("mv1").aggregate(
                    vec!["k".into()],
                    vec![AggExpr::new(crate::exec::AggFunc::Sum, "v", "sum_v")],
                ),
            ),
            MvDefinition::new(
                "mv3",
                LogicalPlan::scan("mv1").filter(Expr::col("k").eq(Expr::lit(3i64))),
            ),
        ]
    }

    /// A wide workload: base -> {w1..w4} -> sink.
    fn wide_workload() -> Vec<MvDefinition> {
        let mut mvs: Vec<MvDefinition> = (0..4)
            .map(|i| {
                MvDefinition::new(
                    format!("w{i}"),
                    LogicalPlan::scan("base").filter(Expr::col("k").eq(Expr::lit(i as i64))),
                )
            })
            .collect();
        let union = LogicalPlan::scan("w0")
            .union(LogicalPlan::scan("w1"))
            .union(LogicalPlan::scan("w2"))
            .union(LogicalPlan::scan("w3"));
        mvs.push(MvDefinition::new("sink", union));
        mvs
    }

    fn setup() -> (tempfile::TempDir, DiskCatalog) {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("base", &base_table(500)).unwrap();
        (dir, disk)
    }

    fn plan_for(mvs: &[MvDefinition], flagged: &[usize]) -> Plan {
        let order: Vec<NodeId> = (0..mvs.len()).map(NodeId).collect();
        Plan {
            order,
            flagged: FlagSet::from_nodes(mvs.len(), flagged.iter().map(|&i| NodeId(i))),
        }
    }

    /// The fastest `total_s` of three runs of each side, alternating
    /// which side runs first. Host load only ever adds time to a run, so
    /// the minimum is the estimate of a side's unloaded wall time.
    fn min_of_three(a: impl Fn() -> RunMetrics, b: impl Fn() -> RunMetrics) -> (f64, f64) {
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        for round in 0..3 {
            let (ta, tb) = if round % 2 == 0 {
                let ta = a().total_s;
                (ta, b().total_s)
            } else {
                let tb = b().total_s;
                (a().total_s, tb)
            };
            best_a = best_a.min(ta);
            best_b = best_b.min(tb);
        }
        (best_a, best_b)
    }

    #[test]
    fn unflagged_run_materializes_everything() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[]);
        let metrics = Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();
        assert_eq!(metrics.nodes.len(), 3);
        for mv in &mvs {
            assert!(disk.contains(&mv.name), "{} must be persisted", mv.name);
        }
        assert_eq!(metrics.peak_memory_bytes, 0);
        // Unflagged nodes pay blocking writes.
        assert!(metrics.nodes.iter().all(|n| n.write_s >= 0.0 && !n.flagged));
        // mv2/mv3 read mv1 from disk.
        assert!(metrics.nodes[1].disk_reads >= 1);
    }

    #[test]
    fn flagged_run_produces_identical_tables() {
        let (_dir1, disk1) = setup();
        let (_dir2, disk2) = setup();
        let mvs = fig4_workload();

        Controller::new(&disk1, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan_for(&mvs, &[]))
            .unwrap();
        Controller::new(&disk2, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan_for(&mvs, &[0]))
            .unwrap();

        for mv in &mvs {
            assert_eq!(
                disk1.read_table(&mv.name).unwrap(),
                disk2.read_table(&mv.name).unwrap(),
                "flagging must not change {}'s contents",
                mv.name
            );
        }
    }

    #[test]
    fn flagged_node_served_from_memory_and_released() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[0]);
        let metrics = Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();
        // mv1 flagged: no blocking write, consumers read from memory.
        assert!(metrics.nodes[0].flagged);
        assert_eq!(metrics.nodes[0].write_s, 0.0);
        assert_eq!(metrics.nodes[1].memory_reads, 1);
        assert_eq!(metrics.nodes[1].disk_reads, 0);
        assert_eq!(metrics.nodes[2].memory_reads, 1);
        // Released at the end; still persisted.
        assert!(disk.contains("mv1"));
        assert!(metrics.peak_memory_bytes > 0);
    }

    #[test]
    fn memory_pressure_falls_back_to_disk() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[0]);
        // A comically small budget.
        let metrics = Controller::new(&disk, 16, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(metrics.nodes[0].fell_back);
        assert!(!metrics.nodes[0].flagged);
        assert!(disk.contains("mv1"));
        // Consumers read from disk instead.
        assert_eq!(metrics.nodes[1].memory_reads, 0);
    }

    #[test]
    fn rejects_invalid_plans() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let deltas = DeltaStore::new();
        let c = Controller::new(&disk, 1 << 20, &deltas);
        // Wrong length.
        let bad = Plan {
            order: vec![NodeId(0)],
            flagged: FlagSet::none(1),
        };
        assert!(matches!(
            c.refresh(&mvs, &bad),
            Err(EngineError::InvalidPlan(_))
        ));
        // Not a permutation.
        let bad = Plan {
            order: vec![NodeId(0), NodeId(0), NodeId(1)],
            flagged: FlagSet::none(3),
        };
        assert!(matches!(
            c.refresh(&mvs, &bad),
            Err(EngineError::InvalidPlan(_))
        ));
        // Dependency violation: mv2 before mv1.
        let bad = Plan {
            order: vec![NodeId(1), NodeId(0), NodeId(2)],
            flagged: FlagSet::none(3),
        };
        assert!(matches!(
            c.refresh(&mvs, &bad),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn dependencies_derived_from_scans() {
        let mvs = fig4_workload();
        let deps = dependencies(&mvs);
        assert_eq!(deps, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn missing_base_table_fails_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[]);
        assert!(matches!(
            Controller::new(&disk, 1 << 20, &DeltaStore::new()).refresh(&mvs, &plan),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn failed_run_drains_catalog_and_allows_retry() {
        // mv1 is flagged and admitted, then mv_bad fails on a missing
        // table. The admitted entry dies with its run, so a retry on the
        // same directory gets the whole budget: it flags the same nodes
        // and peaks at the same bytes as a first run on a fresh one.
        let good = fig4_workload();
        let good_plan = plan_for(&good, &[0]);
        let (_fresh_dir, fresh) = setup();
        let first = Controller::new(&fresh, 1 << 20, &DeltaStore::new())
            .refresh(&good, &good_plan)
            .unwrap();
        assert!(first.nodes[0].flagged && first.peak_memory_bytes > 0);

        let (_dir, disk) = setup();
        let mut mvs = fig4_workload();
        mvs.push(MvDefinition::new(
            "mv_bad",
            LogicalPlan::scan("mv1").union(LogicalPlan::scan("no_such_table")),
        ));
        let bad_plan = plan_for(&mvs, &[0]);
        for lanes in [1usize, 4] {
            let deltas = DeltaStore::new();
            let c = Controller::new(&disk, 1 << 20, &deltas)
                .with_refresh_config(RefreshConfig::with_lanes(lanes));
            assert!(matches!(
                c.refresh(&mvs, &bad_plan),
                Err(EngineError::UnknownTable(_))
            ));
        }
        let retry = Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&good, &good_plan)
            .unwrap();
        let flags = |m: &RunMetrics| m.nodes.iter().map(|n| n.flagged).collect::<Vec<_>>();
        assert_eq!(flags(&retry), flags(&first));
        assert_eq!(retry.peak_memory_bytes, first.peak_memory_bytes);
    }

    #[test]
    fn every_run_reclaims_a_stale_delta_spill() {
        // A process that died between a delta spill and the end of its
        // run leaves `mv1#delta` committed. mv1 then runs Full — it
        // publishes no delta — and the run still drops the spill.
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let stale = delta_entry_name("mv1");
        disk.write_table(&stale, &base_table(3)).unwrap();
        let m = Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan_for(&mvs, &[0]))
            .unwrap();
        assert_eq!(m.nodes[0].mode, NodeMode::Full);
        assert!(!disk.contains(&stale), "stale spill reclaimed");
    }

    #[test]
    fn throttled_flagged_run_is_faster_than_unflagged() {
        // With a slow disk, flagging mv1 must cut end-to-end time: its
        // write overlaps downstream compute and its two consumers skip
        // disk reads. This is Figure 1 in miniature.
        let dir = tempfile::tempdir().unwrap();
        let slow = Throttle {
            read_bps: 4e6,
            write_bps: 3e6,
            latency_s: 0.002,
        };
        let disk = DiskCatalog::open_throttled(dir.path(), slow).unwrap();
        disk.write_table("base", &base_table(4000)).unwrap();
        let mvs = fig4_workload();

        let run = |flags: &[usize]| {
            Controller::new(&disk, 1 << 22, &DeltaStore::new())
                .refresh(&mvs, &plan_for(&mvs, flags))
                .unwrap()
        };
        let (base, sc) = min_of_three(|| run(&[]), || run(&[0]));
        assert!(
            sc < base,
            "S/C run ({sc:.3}s) must beat baseline ({base:.3}s)"
        );
    }

    #[test]
    fn run_metrics_sums() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let m = Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan_for(&mvs, &[]))
            .unwrap();
        assert!(m.total_read_s() >= 0.0);
        assert!(m.total_compute_s() >= 0.0);
        assert!(m.total_write_s() >= 0.0);
        assert!(m.total_s >= m.total_write_s());
    }

    #[test]
    fn four_lanes_match_one_lane_outputs() {
        for flags in [vec![], vec![0usize]] {
            let (_dir1, disk1) = setup();
            let (_dir2, disk2) = setup();
            let mvs = fig4_workload();
            let plan = plan_for(&mvs, &flags);

            let one = Controller::new(&disk1, 1 << 20, &DeltaStore::new())
                .refresh(&mvs, &plan)
                .unwrap();
            let four = Controller::new(&disk2, 1 << 20, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(4))
                .refresh(&mvs, &plan)
                .unwrap();

            assert_eq!(one.nodes.len(), four.nodes.len());
            assert_eq!(one.peak_memory_bytes, four.peak_memory_bytes);
            for (a, b) in one.nodes.iter().zip(&four.nodes) {
                assert_eq!(a.name, b.name, "metrics stay in plan order");
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.output_bytes, b.output_bytes);
                assert_eq!(a.flagged, b.flagged);
            }
            for mv in &mvs {
                assert_eq!(
                    disk1.read_table(&mv.name).unwrap(),
                    disk2.read_table(&mv.name).unwrap(),
                    "lane count must not change {}'s contents",
                    mv.name
                );
            }
        }
    }

    #[test]
    fn three_lane_wide_workload_all_flag_patterns() {
        for flags in [vec![], vec![0usize, 1, 2, 3], vec![0, 2]] {
            let (_dir, disk) = setup();
            let mvs = wide_workload();
            let plan = plan_for(&mvs, &flags);
            let m = Controller::new(&disk, 4 << 20, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(3))
                .refresh(&mvs, &plan)
                .unwrap();
            assert_eq!(m.nodes.len(), 5);
            for mv in &mvs {
                assert!(disk.contains(&mv.name), "{} must be persisted", mv.name);
            }
            // The sink consumed every wi; row conservation holds.
            let sink = m.nodes.iter().find(|n| n.name == "sink").unwrap();
            let parts: usize = m
                .nodes
                .iter()
                .filter(|n| n.name.starts_with('w'))
                .map(|n| n.rows)
                .sum();
            assert_eq!(sink.rows, parts);
        }
    }

    #[test]
    fn two_lanes_respect_memory_pressure_fallback() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[0]);
        let m = Controller::new(&disk, 16, &DeltaStore::new())
            .with_refresh_config(RefreshConfig::with_lanes(2))
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(m.nodes[0].fell_back);
        assert!(!m.nodes[0].flagged);
        assert!(disk.contains("mv1"));
    }

    #[test]
    fn four_lanes_reject_invalid_plans_too() {
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let deltas = DeltaStore::new();
        let c = Controller::new(&disk, 1 << 20, &deltas)
            .with_refresh_config(RefreshConfig::with_lanes(4));
        let bad = Plan {
            order: vec![NodeId(1), NodeId(0), NodeId(2)],
            flagged: FlagSet::none(3),
        };
        assert!(matches!(
            c.refresh(&mvs, &bad),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn two_lane_missing_base_table_fails_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[]);
        assert!(matches!(
            Controller::new(&disk, 1 << 20, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(2))
                .refresh(&mvs, &plan),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn four_lanes_pipeline_throttled_reads_against_writes() {
        // Four independent full-copy MVs over a shared-device throttle:
        // the read channel and the write channel are separate resources,
        // so with lanes the write of MV i overlaps the read of MV i+1
        // (one lane pays read+write serially per node). This is the
        // lane win that survives an honest single-device bandwidth model —
        // and a single-CPU host, since it overlaps I/O pacing, not
        // compute. Expected ratio ≈ (4r + w) / (4r + 4w) ≈ 0.65.
        let dir = tempfile::tempdir().unwrap();
        let slow = Throttle {
            read_bps: 6e6,
            write_bps: 5e6,
            latency_s: 0.002,
        };
        let disk = DiskCatalog::open_throttled(dir.path(), slow).unwrap();
        disk.write_table("base", &base_table(4000)).unwrap();
        let mvs: Vec<MvDefinition> = (0..4)
            .map(|i| {
                MvDefinition::new(
                    format!("copy{i}"),
                    LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(i as f64))),
                )
            })
            .collect();
        let plan = plan_for(&mvs, &[]);

        let run = |lanes: usize| {
            Controller::new(&disk, 1 << 22, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(lanes))
                .refresh(&mvs, &plan)
                .unwrap()
        };
        let (one, four) = min_of_three(|| run(1), || run(4));
        assert!(
            four < one * 0.8,
            "4 lanes ({four:.3}s) must clearly beat 1 lane ({one:.3}s)"
        );
    }

    #[test]
    fn four_lane_admission_matches_one_lane_under_tight_budget() {
        // Two flagged hubs whose outputs only fit one-at-a-time: the
        // 1-lane run admits P, releases it when C consumes it, then
        // admits X. A timing-driven executor would try to admit X while P
        // is still resident (C still running) and fall back; the plan-
        // order accounting must reproduce the 1-lane outcome every time,
        // regardless of thread timing.
        let mvs = vec![
            MvDefinition::new(
                "hub_p",
                LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(0.0f64))),
            ),
            MvDefinition::new(
                "consumer_c",
                LogicalPlan::scan("hub_p").aggregate(
                    vec!["k".into()],
                    vec![AggExpr::new(crate::exec::AggFunc::Sum, "v", "sum_v")],
                ),
            ),
            MvDefinition::new(
                "hub_x",
                LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(1.0f64))),
            ),
            MvDefinition::new(
                "consumer_y",
                LogicalPlan::scan("hub_x").aggregate(
                    vec!["k".into()],
                    vec![AggExpr::new(crate::exec::AggFunc::Max, "v", "max_v")],
                ),
            ),
        ];
        let plan = plan_for(&mvs, &[0, 2]);

        // Measure hub_p's output size with a roomy budget first.
        let (_dir0, disk0) = setup();
        let probe = Controller::new(&disk0, 64 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();
        let hub_bytes = probe.nodes[0].output_bytes;
        let tight = hub_bytes + hub_bytes / 4; // fits one hub, not two

        let (_dir1, disk1) = setup();
        let one = Controller::new(&disk1, tight, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(
            one.nodes[0].flagged && one.nodes[2].flagged,
            "one lane admits both in turn"
        );

        for _ in 0..10 {
            let (_dir2, disk2) = setup();
            let four = Controller::new(&disk2, tight, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(4))
                .refresh(&mvs, &plan)
                .unwrap();
            assert_eq!(one.peak_memory_bytes, four.peak_memory_bytes);
            for (a, b) in one.nodes.iter().zip(&four.nodes) {
                assert_eq!(
                    a.flagged, b.flagged,
                    "{}: flag outcome must be deterministic",
                    a.name
                );
                assert_eq!(
                    a.fell_back, b.fell_back,
                    "{}: fallback must be deterministic",
                    a.name
                );
            }
        }
    }

    #[test]
    fn refresh_config_defaults_and_clamping() {
        assert_eq!(RefreshConfig::default().lanes, 1);
        assert_eq!(RefreshConfig::with_lanes(0).lanes, 1);
        assert_eq!(RefreshConfig::with_lanes(8).lanes, 8);
        assert_eq!(RefreshConfig::default().refresh_mode, RefreshMode::Auto);
        let c = RefreshConfig::with_lanes(2).with_refresh_mode(RefreshMode::AlwaysIncremental);
        assert_eq!(c.refresh_mode, RefreshMode::AlwaysIncremental);
    }

    /// `count` independent MVs over `base` followed by one sink scanning
    /// the first two, in a shuffled (but valid) plan order.
    fn fan_workload(count: usize) -> (Vec<MvDefinition>, Plan) {
        let mut mvs: Vec<MvDefinition> = (0..count)
            .map(|i| {
                MvDefinition::new(
                    format!("f{i}"),
                    LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(i as f64))),
                )
            })
            .collect();
        mvs.push(MvDefinition::new(
            "sink",
            LogicalPlan::scan("f0").union(LogicalPlan::scan("f1")),
        ));
        // Odd nodes descending, then even nodes ascending, then the sink.
        let order: Vec<NodeId> = (0..count)
            .rev()
            .filter(|i| i % 2 == 1)
            .chain((0..count).filter(|i| i % 2 == 0))
            .chain([count])
            .map(NodeId)
            .collect();
        let flagged = FlagSet::from_nodes(count + 1, [NodeId(0), NodeId(1), NodeId(2)]);
        (mvs, Plan { order, flagged })
    }

    #[test]
    fn one_lane_starts_nodes_strictly_in_plan_order() {
        let (_dir, disk) = setup();
        let (mvs, plan) = fan_workload(9);
        let log = Mutex::new(Vec::new());
        let deltas = DeltaStore::new();
        let mut c = Controller::new(&disk, 4 << 20, &deltas);
        c.dispatch_log = Some(&log);
        c.refresh(&mvs, &plan).unwrap();
        // Every node started exactly when all earlier plan positions had
        // computed: position p at prefix p, for p = 0, 1, 2, …
        let expected: Vec<(usize, usize)> = (0..mvs.len()).map(|p| (p, p)).collect();
        assert_eq!(*log.lock().unwrap(), expected);
    }

    #[test]
    fn run_ahead_is_bounded_by_the_derived_window() {
        let (_dir, disk) = setup();
        let (mvs, plan) = fan_workload(20);
        let window = sc_core::run_ahead_window(3);
        assert!(
            window < mvs.len() - 1,
            "the workload must outrun the window"
        );
        let log = Mutex::new(Vec::new());
        let deltas = DeltaStore::new();
        let mut c = Controller::new(&disk, 4 << 20, &deltas)
            .with_refresh_config(RefreshConfig::with_lanes(3));
        c.dispatch_log = Some(&log);
        let m = c.refresh(&mvs, &plan).unwrap();
        assert_eq!(m.nodes.len(), mvs.len());
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), mvs.len(), "every node dispatched once");
        for &(pos, prefix) in &log {
            assert!(
                pos <= prefix + window,
                "position {pos} started at prefix {prefix}, beyond the window of {window}"
            );
        }
        // Ready nodes start in plan order. (How far a free lane may run
        // ahead of a slow prefix is pinned exactly, without timing, by
        // `sc_core::dispatch`'s own tests.)
        assert!(log.windows(2).all(|w| w[0].0 < w[1].0), "{log:?}");
    }

    #[test]
    fn catalog_usage_follows_the_plan_at_every_lane_count() {
        // Three flagged hubs with consumers at the very end of the plan:
        // peak usage is fixed by the plan-order accounting (admit, then
        // release on the last consumer), not by which lane finishes first.
        let (mvs, plan) = fan_workload(9);
        let parents: Vec<Vec<usize>> = {
            let mut p = vec![Vec::new(); mvs.len()];
            for (i, j) in dependencies(&mvs) {
                p[j].push(i);
            }
            p
        };
        let mut peaks = Vec::new();
        for lanes in [1usize, 2, 4] {
            let (_dir, disk) = setup();
            let m = Controller::new(&disk, 4 << 20, &DeltaStore::new())
                .with_refresh_config(RefreshConfig::with_lanes(lanes))
                .refresh(&mvs, &plan)
                .unwrap();
            // The model, replayed from the run's own output sizes.
            let mut sizes = vec![0u64; mvs.len()];
            for (v, node) in plan.order.iter().zip(&m.nodes) {
                sizes[v.index()] = node.output_bytes;
            }
            let mut replay =
                sc_core::AdmissionReplay::new(&plan.order, &plan.flagged, &parents, 4 << 20);
            replay.advance(&vec![true; mvs.len()], &sizes);
            assert_eq!(m.peak_memory_bytes, replay.peak(), "lanes={lanes}");
            peaks.push(m.peak_memory_bytes);
        }
        assert!(peaks[0] > 0);
        assert!(peaks.iter().all(|&p| p == peaks[0]), "{peaks:?}");
    }

    /// Incremental-refresh workload: a filtered slice and an aggregate
    /// over one base table, plus an untouched independent branch.
    fn delta_workload() -> Vec<MvDefinition> {
        vec![
            MvDefinition::new(
                "big_rows",
                LogicalPlan::scan("base").filter(Expr::col("v").ge(Expr::lit(100.0f64))),
            ),
            MvDefinition::new(
                "by_k",
                LogicalPlan::scan("big_rows").aggregate(
                    vec!["k".into()],
                    vec![
                        AggExpr::new(crate::exec::AggFunc::Sum, "v", "sum_v"),
                        AggExpr::new(crate::exec::AggFunc::Count, "v", "n"),
                    ],
                ),
            ),
            MvDefinition::new(
                "other_branch",
                LogicalPlan::scan("side").filter(Expr::col("k").eq(Expr::lit(1i64))),
            ),
        ]
    }

    fn delta_rows(range: std::ops::Range<i64>) -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        for i in range {
            t.push_row(vec![Value::Int64(i % 7), Value::Float64(i as f64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn incremental_refresh_matches_full_and_skips_untouched() {
        for lanes in [1usize, 4] {
            let dir_a = tempfile::tempdir().unwrap();
            let dir_b = tempfile::tempdir().unwrap();
            let mvs = delta_workload();
            let plan = plan_for(&mvs, &[0]);
            let mut disks = Vec::new();
            for dir in [&dir_a, &dir_b] {
                let disk = DiskCatalog::open(dir.path()).unwrap();
                disk.write_table("base", &delta_rows(0..400)).unwrap();
                disk.write_table("side", &delta_rows(0..50)).unwrap();
                Controller::new(&disk, 8 << 20, &DeltaStore::new())
                    .with_refresh_config(RefreshConfig::with_lanes(lanes))
                    .refresh(&mvs, &plan)
                    .unwrap();
                disks.push(disk);
            }

            // Same churn on both systems; one refreshes incrementally.
            let full_store = DeltaStore::new();
            let inc_store = DeltaStore::new();
            for (disk, store) in disks.iter().zip([&full_store, &inc_store]) {
                store
                    .ingest(
                        disk,
                        "base",
                        crate::exec::TableDelta::insert_only(delta_rows(400..440)),
                    )
                    .unwrap();
            }

            let disk_full = &disks[0];
            let full = Controller::new(disk_full, 8 << 20, &full_store)
                .with_refresh_config(
                    RefreshConfig::with_lanes(lanes).with_refresh_mode(RefreshMode::AlwaysFull),
                )
                .refresh(&mvs, &plan)
                .unwrap();
            let disk_inc = &disks[1];
            let inc = Controller::new(disk_inc, 8 << 20, &inc_store)
                .with_refresh_config(
                    RefreshConfig::with_lanes(lanes)
                        .with_refresh_mode(RefreshMode::AlwaysIncremental),
                )
                .refresh(&mvs, &plan)
                .unwrap();

            for mv in &mvs {
                assert_eq!(
                    disk_full.read_table(&mv.name).unwrap(),
                    disk_inc.read_table(&mv.name).unwrap(),
                    "lanes={lanes}: incremental must match full for {}",
                    mv.name
                );
            }
            assert!(full.nodes.iter().all(|n| n.mode == NodeMode::Full));
            let by_name =
                |m: &RunMetrics, n: &str| m.nodes.iter().find(|x| x.name == n).cloned().unwrap();
            assert_eq!(
                by_name(&inc, "big_rows").mode,
                NodeMode::Incremental,
                "lanes={lanes}"
            );
            assert_eq!(by_name(&inc, "by_k").mode, NodeMode::Incremental);
            assert_eq!(
                by_name(&inc, "other_branch").mode,
                NodeMode::Skipped,
                "untouched branch must be skipped"
            );
            assert!(by_name(&inc, "big_rows").delta_bytes > 0);
            assert!(inc_store.is_empty(), "successful refresh consumes the log");
            // Spilled delta files must not survive the run.
            assert!(!disk_inc.contains(&delta_entry_name("big_rows")));
        }
    }

    #[test]
    fn empty_delta_log_recomputes_instead_of_skipping() {
        // An attached-but-empty log means "no delta tracking", not "skip
        // everything": profiling runs must observe real work, and the
        // active snapshot still catches batches ingested mid-run.
        let (_dir, disk) = setup();
        let mvs = fig4_workload();
        let plan = plan_for(&mvs, &[]);
        Controller::new(&disk, 1 << 20, &DeltaStore::new())
            .refresh(&mvs, &plan)
            .unwrap();

        let store = DeltaStore::new();
        let m = Controller::new(&disk, 1 << 20, &store)
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(
            m.nodes.iter().all(|n| n.mode == NodeMode::Full),
            "empty log must recompute, not skip: {:?}",
            m.nodes
                .iter()
                .map(|n| (&n.name, n.mode))
                .collect::<Vec<_>>()
        );
        assert!(!store.is_poisoned(), "no mid-run ingest, no poison");
    }

    #[test]
    fn delta_payload_reserves_delta_sized_flags() {
        // big_rows is flagged and its only consumer (by_k) maintains
        // incrementally: the catalog must hold the delta, not the table.
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("base", &delta_rows(0..400)).unwrap();
        disk.write_table("side", &delta_rows(0..50)).unwrap();
        let mvs = delta_workload();
        let plan = plan_for(&mvs, &[0]);
        let deltas = DeltaStore::new();
        let c = Controller::new(&disk, 8 << 20, &deltas);
        let probe = c.refresh(&mvs, &plan).unwrap();
        let full_flag_peak = probe.peak_memory_bytes;
        assert!(full_flag_peak > 0);

        let store = DeltaStore::new();
        store
            .ingest(
                &disk,
                "base",
                crate::exec::TableDelta::insert_only(delta_rows(400..420)),
            )
            .unwrap();
        let inc = Controller::new(&disk, 8 << 20, &store)
            .with_refresh_config(
                RefreshConfig::default().with_refresh_mode(RefreshMode::AlwaysIncremental),
            )
            .refresh(&mvs, &plan)
            .unwrap();
        assert!(
            inc.nodes[0].flagged,
            "delta payload still counts as flagged"
        );
        assert!(
            inc.peak_memory_bytes < full_flag_peak / 4,
            "delta-sized reservation ({}) must be far below the full table ({full_flag_peak})",
            inc.peak_memory_bytes
        );
    }

    #[test]
    fn failed_run_poisons_the_log_and_retry_recomputes_correctly() {
        // An incremental node persists its applied delta, then a later
        // node fails: the log must be poisoned so the retry recomputes
        // from the (authoritative) bases instead of applying the delta a
        // second time — incremental application is not idempotent.
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("base", &delta_rows(0..400)).unwrap();
        disk.write_table("side", &delta_rows(0..50)).unwrap();
        let good = delta_workload();
        let good_plan = plan_for(&good, &[]);
        Controller::new(&disk, 8 << 20, &DeltaStore::new())
            .refresh(&good, &good_plan)
            .unwrap();

        let store = DeltaStore::new();
        store
            .ingest(
                &disk,
                "base",
                crate::exec::TableDelta::insert_only(delta_rows(400..430)),
            )
            .unwrap();

        // A doomed run: the good nodes first, then one scanning a missing
        // table.
        let mut doomed = delta_workload();
        doomed.push(MvDefinition::new("boom", LogicalPlan::scan("no_such")));
        let doomed_plan = plan_for(&doomed, &[]);
        let err = Controller::new(&disk, 8 << 20, &store)
            .with_refresh_config(
                RefreshConfig::default().with_refresh_mode(RefreshMode::AlwaysIncremental),
            )
            .refresh(&doomed, &doomed_plan);
        assert!(matches!(err, Err(EngineError::UnknownTable(_))));
        assert!(store.is_poisoned(), "failed run must poison the log");
        assert!(!store.is_empty(), "failed run must keep the log");

        // Retry on the good set: every delta-reached node recomputes in
        // full; results match a system that never failed.
        let retry = Controller::new(&disk, 8 << 20, &store)
            .refresh(&good, &good_plan)
            .unwrap();
        assert!(retry.nodes.iter().all(|n| n.mode != NodeMode::Incremental));
        assert!(store.is_empty() && !store.is_poisoned());

        // Control rig: same base + same churn, one clean full refresh.
        let dir2 = tempfile::tempdir().unwrap();
        let disk2 = DiskCatalog::open(dir2.path()).unwrap();
        disk2.write_table("base", &delta_rows(0..400)).unwrap();
        disk2.write_table("side", &delta_rows(0..50)).unwrap();
        Controller::new(&disk2, 8 << 20, &DeltaStore::new())
            .refresh(&good, &good_plan)
            .unwrap();
        let base2 = disk2.read_table("base").unwrap();
        let delta = crate::exec::TableDelta::insert_only(delta_rows(400..430));
        disk2
            .write_table("base", &delta.apply(&base2).unwrap())
            .unwrap();
        Controller::new(&disk2, 8 << 20, &DeltaStore::new())
            .refresh(&good, &good_plan)
            .unwrap();
        for mv in &good {
            assert_eq!(
                disk.read_table(&mv.name).unwrap(),
                disk2.read_table(&mv.name).unwrap(),
                "recovered {} must match a never-failed system",
                mv.name
            );
        }
    }

    #[test]
    fn auto_mode_appends_insert_only_chains_and_merges_aggregates() {
        // Insert-only churn: big_rows (MV nearly as large as its input)
        // used to lose under Auto because the incremental path re-read and
        // rewrote the whole MV; with segmented storage it appends a
        // delta-sized segment instead, so Auto now picks it — and by_k
        // merges the published delta.
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        disk.write_table("base", &delta_rows(0..2000)).unwrap();
        disk.write_table("side", &delta_rows(0..50)).unwrap();
        let mvs = delta_workload();
        let plan = plan_for(&mvs, &[]);
        let deltas = DeltaStore::new();
        let c = Controller::new(&disk, 8 << 20, &deltas);
        c.refresh(&mvs, &plan).unwrap();

        let store = DeltaStore::new();
        store
            .ingest(
                &disk,
                "base",
                crate::exec::TableDelta::insert_only(delta_rows(2000..2040)),
            )
            .unwrap();
        let auto = Controller::new(&disk, 8 << 20, &store)
            .refresh(&mvs, &plan)
            .unwrap();
        assert_eq!(auto.nodes[0].mode, NodeMode::Incremental);
        assert!(
            auto.nodes[0].appended_bytes > 0,
            "big_rows persists via the append path"
        );
        assert_eq!(auto.nodes[0].segments, 2, "one appended segment");
        // by_k's 7-group output is so small that the merge path's three
        // paced storage accesses (delta spill, own contents, rewrite)
        // cost more than one recompute — Auto stays conservative there.
        assert_eq!(auto.nodes[1].mode, NodeMode::Full);
        assert_eq!(auto.nodes[1].reason, ModeReason::CostModel);
        assert_eq!(auto.nodes[2].mode, NodeMode::Skipped);
        assert_eq!(disk.segment_count("big_rows").unwrap(), 2);

        // Delete-carrying churn: the filter chain stays maintainable but
        // loses its append path, and re-reading + rewriting an MV almost
        // as large as its input loses under Auto — the rewrite-path
        // conservatism is preserved, and it composes transitively to
        // by_k.
        let mut deletes = crate::table::TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        deletes
            .push_row(vec![Value::Int64(3), Value::Float64(3.0)])
            .unwrap();
        store
            .ingest(
                &disk,
                "base",
                crate::exec::TableDelta::from_batch(crate::exec::DeltaBatch {
                    deletes,
                    inserts: delta_rows(0..0),
                })
                .unwrap(),
            )
            .unwrap();
        let auto = Controller::new(&disk, 8 << 20, &store)
            .refresh(&mvs, &plan)
            .unwrap();
        assert_eq!(auto.nodes[0].mode, NodeMode::Full);
        assert_eq!(auto.nodes[1].mode, NodeMode::Full);
        assert_eq!(
            auto.nodes[0].segments, 1,
            "the recompute collapses big_rows back to canonical form"
        );
    }
}
