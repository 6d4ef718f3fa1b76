//! The high-level S/C session: catalogs + controller + optimizer in one
//! long-lived, `Arc`-shareable object, mirroring Figure 5's architecture
//! (Controller, Optimizer, Memory Catalog, DBMS).
//!
//! The paper's system is a *service* living inside a DBMS, not a batch
//! job: base tables keep changing while refreshes run, and the optimizer's
//! plan is an internal detail callers never touch. [`ScSession`] models
//! that shape. It is built once via [`ScSessionBuilder`] (one typed config
//! for storage, throttle, memory budget, cost model, lanes, and refresh
//! mode), shared behind an `Arc` (every method takes `&self`;
//! [`ScSession::ingest_delta`] is safe to call concurrently with a running
//! refresh thanks to the delta log's point-in-time snapshot semantics),
//! and refreshed with the plan-managing [`ScSession::refresh`]: the first
//! call profiles the workload and caches an optimized [`Plan`]; later
//! calls reuse it until MV registration or observed size drift invalidates
//! the cache.
//!
//! The paper's explicit three-call flow ([`ScSession::baseline_refresh`] →
//! [`ScSession::optimize_from`] → [`ScSession::refresh_with_plan`])
//! remains available for callers that want to hold the plan themselves.
//!
//! The session is the engine's only writer on the maintenance path: the
//! refresh controller and the delta log's mutators are crate-private, so
//! every refresh runs through one of the calls above and every change
//! batch enters through [`ScSession::ingest_delta`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use sc_core::{CostModel, NodeMode, Plan, ScOptimizer};
use sc_dag::{Dag, NodeId};

use crate::controller::{dependencies, Controller, MvDefinition, RefreshConfig, RunMetrics};
use crate::exec::TableDelta;
use crate::plan::LogicalPlan;
use crate::report::RefreshReport;
use crate::storage::{DeltaStore, DiskCatalog, EpochPin, ObservationStore, Throttle, SIDECAR_FILE};
use crate::{EngineError, Result, Table};

/// Typed configuration for an [`ScSession`], built with
/// [`ScSession::builder`].
///
/// Defaults: 64 MiB Memory Catalog, unthrottled storage, the paper's cost
/// model, one compute lane, [`sc_core::RefreshMode::Auto`] maintenance,
/// and runtime feedback enabled (the `observations.scst` sidecar). Only
/// the storage directory is mandatory.
#[derive(Debug, Clone)]
pub struct ScSessionBuilder {
    dir: Option<PathBuf>,
    memory_budget: u64,
    throttle: Option<Throttle>,
    cost: CostModel,
    refresh: RefreshConfig,
    runtime_feedback: bool,
}

impl Default for ScSessionBuilder {
    fn default() -> Self {
        ScSessionBuilder {
            dir: None,
            memory_budget: 64 << 20,
            throttle: None,
            cost: CostModel::paper(),
            refresh: RefreshConfig::default(),
            runtime_feedback: true,
        }
    }
}

impl ScSessionBuilder {
    /// Directory for external storage (base tables and materialized MVs).
    /// Mandatory.
    pub fn storage_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Memory Catalog budget `M`, bytes.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Paces external storage at `throttle` (useful for demonstrating
    /// paper-like I/O ratios on fast hardware).
    pub fn throttle(mut self, throttle: Throttle) -> Self {
        self.throttle = Some(throttle);
        self
    }

    /// Cost model for speedup-score estimation and `Auto`
    /// full-vs-incremental decisions.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Refresh parallelism and maintenance settings.
    pub fn refresh_config(mut self, refresh: RefreshConfig) -> Self {
        self.refresh = refresh;
        self
    }

    /// Number of compute lanes (shorthand for a [`RefreshConfig`] field).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.refresh.lanes = lanes.max(1);
        self
    }

    /// Full-vs-incremental maintenance policy (shorthand for a
    /// [`RefreshConfig`] field).
    pub fn refresh_mode(mut self, mode: sc_core::RefreshMode) -> Self {
        self.refresh.refresh_mode = mode;
        self
    }

    /// Whether the session persists runtime observations
    /// (`observations.scst` next to the catalog) and lets
    /// [`sc_core::RefreshMode::Auto`] consult them (default: on). Turn
    /// off for deterministic tests whose pinned decisions must not shift
    /// with measured timings.
    pub fn runtime_feedback(mut self, enabled: bool) -> Self {
        self.runtime_feedback = enabled;
        self
    }

    /// Opens the session.
    pub fn build(self) -> Result<ScSession> {
        let dir = self.dir.ok_or(EngineError::MissingStorageDir)?;
        let disk = match self.throttle {
            Some(t) => DiskCatalog::open_throttled(dir, t)?,
            None => DiskCatalog::open(dir)?,
        };
        // A corrupt or missing sidecar silently starts empty: observations
        // are advisory and get rebuilt by subsequent runs.
        let observations = self.runtime_feedback.then(|| {
            let path = disk.dir().join(SIDECAR_FILE);
            (ObservationStore::load(&path), path)
        });
        Ok(ScSession {
            disk,
            memory_budget: self.memory_budget,
            cost: self.cost,
            refresh: self.refresh,
            deltas: DeltaStore::new(),
            mvs: RwLock::new(Vec::new()),
            epoch: AtomicU64::new(0),
            planner: Mutex::new(Planner { cached: None }),
            observations,
        })
    }
}

/// The optimized plan a session holds between refreshes, plus what it
/// needs to know when to throw it away.
struct CachedPlan {
    plan: Plan,
    /// MV-registry epoch the plan was derived under; a registration bumps
    /// the session epoch, orphaning the plan.
    epoch: u64,
    /// *Stored* sizes of every MV right after the profiling run, by MV
    /// index (`None` for MVs not on storage) — the baseline the drift
    /// check compares later runs against. Storage scale deliberately:
    /// full rewrites, delta merges, and the append path all land on the
    /// same scale there, so a long streak of append rounds growing an MV
    /// counts toward drift just like a recompute would.
    profiled_sizes: Vec<Option<u64>>,
}

/// Plan-lifecycle state. The mutex around it doubles as the refresh run
/// lock: concurrent refresh runs serialize (each run holds a Memory
/// Catalog of the whole budget `M`, so two at once would hold twice that,
/// and each stages the observation sidecar it commits), while ingestion
/// and reads proceed concurrently.
struct Planner {
    cached: Option<CachedPlan>,
}

/// The S/C session: a disk catalog (external storage), the Memory Catalog
/// budget each refresh run is held to, a delta log, the registered MV
/// definitions, and a managed optimizer plan — all behind interior
/// mutability, so the session can be shared across threads as an
/// `Arc<ScSession>`.
pub struct ScSession {
    disk: DiskCatalog,
    memory_budget: u64,
    cost: CostModel,
    refresh: RefreshConfig,
    deltas: DeltaStore,
    mvs: RwLock<Vec<MvDefinition>>,
    /// Bumped on every registration; cached plans record the epoch they
    /// were derived under and die when it moves.
    epoch: AtomicU64,
    planner: Mutex<Planner>,
    /// Runtime-feedback sidecar (store + its on-disk path), present when
    /// the builder left [`ScSessionBuilder::runtime_feedback`] on.
    observations: Option<(ObservationStore, PathBuf)>,
}

impl ScSession {
    /// Relative stored-size drift that invalidates the cached plan: after
    /// a refresh on the cached plan, any MV whose stored size left
    /// `profiled * (1 ± SIZE_DRIFT_THRESHOLD)` triggers a re-profile on
    /// the next [`ScSession::refresh`]. The profile's flag choices are
    /// only as good as its size estimates, so drifted sizes mean a stale
    /// plan.
    pub const SIZE_DRIFT_THRESHOLD: f64 = 0.5;

    /// Starts building a session. See [`ScSessionBuilder`] for the knobs
    /// and their defaults.
    pub fn builder() -> ScSessionBuilder {
        ScSessionBuilder::default()
    }

    /// The refresh parallelism settings in effect.
    pub fn refresh_config(&self) -> RefreshConfig {
        self.refresh
    }

    /// External storage catalog (for ingesting base tables and inspecting
    /// materialized MVs).
    pub fn disk(&self) -> &DiskCatalog {
        &self.disk
    }

    /// The Memory Catalog budget `M`, in bytes, that every refresh run
    /// is held to.
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// A snapshot of the registered MV definitions, in registration
    /// order.
    pub fn mvs(&self) -> Vec<MvDefinition> {
        self.mvs.read().clone()
    }

    /// Number of registered MVs.
    pub fn mv_count(&self) -> usize {
        self.mvs.read().len()
    }

    /// Registers an MV definition and returns its node id. Dependencies
    /// on other MVs are inferred from the tables its plan scans.
    ///
    /// Fails with [`EngineError::DuplicateMv`] when the name is already
    /// registered — two MVs materializing to the same storage name would
    /// silently overwrite each other — and with [`EngineError::NameCollision`]
    /// when a *distinct* name sanitizes to the same on-disk file stem as a
    /// registered one, which would alias their stored state just as
    /// silently. Registration invalidates any cached plan (the next
    /// [`ScSession::refresh`] re-profiles).
    pub fn register_mv(&self, mv: MvDefinition) -> Result<NodeId> {
        let mut mvs = self.mvs.write();
        if mvs.iter().any(|m| m.name == mv.name) {
            return Err(EngineError::DuplicateMv(mv.name));
        }
        let stem = DiskCatalog::file_stem(&mv.name);
        if let Some(clash) = mvs.iter().find(|m| DiskCatalog::file_stem(&m.name) == stem) {
            return Err(EngineError::NameCollision {
                name: mv.name,
                existing: clash.name.clone(),
            });
        }
        let id = NodeId(mvs.len());
        mvs.push(mv);
        // Bumped while the write lock is still held. A refreshing thread
        // reads the epoch *before* taking its registry snapshot, so a
        // snapshot missing this MV always pairs with the pre-bump epoch —
        // any plan cached from it is invalidated by the bump. (The other
        // interleaving — epoch read before the bump, snapshot after —
        // merely caches a plan that covers the MV under a stale epoch and
        // re-profiles once, which is conservative, not incorrect.)
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(id)
    }

    /// The inferred dependency graph over registered MVs (payload = MV
    /// name), i.e. the "workload specification" of §III-A.
    pub fn dependency_graph(&self) -> Result<Dag<String>> {
        Self::graph_of(&self.mvs.read())
    }

    fn graph_of(mvs: &[MvDefinition]) -> Result<Dag<String>> {
        let mut g = Dag::with_capacity(mvs.len());
        for mv in mvs {
            g.add_node(mv.name.clone());
        }
        for (a, b) in dependencies(mvs) {
            g.add_edge(NodeId(a), NodeId(b))?;
        }
        Ok(g)
    }

    /// Refreshes all MVs in plain topological order with nothing flagged —
    /// the unoptimized baseline, which doubles as the profiling run that
    /// collects execution metadata for the optimizer.
    pub fn baseline_refresh(&self) -> Result<RunMetrics> {
        let _run_lock = self.planner.lock();
        let mvs = self.mvs();
        let order = Self::graph_of(&mvs)?.kahn_order();
        self.run_plan(&mvs, &Plan::unoptimized(order))
    }

    /// Runs the optimizer on metadata from a previous refresh.
    ///
    /// Fails with [`EngineError::InvalidPlan`] when `metrics` do not cover
    /// the registered MVs — e.g. they come from a run made before the
    /// latest [`ScSession::register_mv`].
    pub fn optimize_from(&self, metrics: &RunMetrics) -> Result<Plan> {
        self.plan_from(&self.mvs(), metrics)
    }

    /// The S/C-optimized plan for `mvs` from the paper's "Execution
    /// Metadata": the dependency graph with each MV's observed output
    /// size from `metrics`, scored by the session's cost model. A node
    /// the run skipped (no pending change reached it) observed nothing,
    /// so it is sized by its stored file instead: at zero bytes its flag
    /// would look free and be chosen under any budget, while the stored
    /// size is the right order of magnitude.
    fn plan_from(&self, mvs: &[MvDefinition], metrics: &RunMetrics) -> Result<Plan> {
        let sizes: HashMap<&str, u64> = metrics
            .nodes
            .iter()
            .map(|n| {
                let bytes = match n.mode {
                    NodeMode::Skipped => self.disk.size_of(&n.name).unwrap_or(0),
                    _ => n.output_bytes,
                };
                (n.name.as_str(), bytes)
            })
            .collect();
        if let Some(missing) = mvs.iter().find(|mv| !sizes.contains_key(mv.name.as_str())) {
            return Err(EngineError::InvalidPlan(format!(
                "metrics have no node '{}': they predate its registration",
                missing.name
            )));
        }
        let graph = Self::graph_of(mvs)?.map(|_, name| (name.clone(), sizes[name.as_str()]));
        let problem = self
            .cost
            .build_problem(&graph, self.memory_budget, |_| None)?;
        Ok(ScOptimizer::default().optimize(&problem)?)
    }

    /// The pending delta log (changes ingested since the last refresh).
    pub fn delta_store(&self) -> &DeltaStore {
        &self.deltas
    }

    /// Collapses every registered MV back to the canonical single-segment
    /// storage form (base tables are rewritten canonically at ingest time
    /// and never fragment). Insert-only incremental refreshes *append*
    /// delta-sized segments, so a long-running session's MVs accumulate
    /// segments until a recompute — or this call — compacts them; after
    /// compaction the stored files are byte-identical to what a full
    /// recomputation of the same rows would produce. Returns total bytes
    /// rewritten (0 for already-canonical MVs).
    pub fn compact_mvs(&self) -> Result<u64> {
        // Holding the planner mutex — the refresh-run lock — serializes
        // compaction with any concurrent `refresh`: a compact racing a
        // refresh's committed append could otherwise rewrite the MV from
        // a pre-append read and silently drop the delta the (already
        // consumed) log just applied. Ingestion stays concurrent: it
        // touches base tables only, never MVs.
        let _run_lock = self.planner.lock();
        let mut total = 0;
        for mv in self.mvs() {
            if self.disk.contains(&mv.name) {
                total += self.disk.compact(&mv.name)?;
            }
        }
        Ok(total)
    }

    /// Ingests a change batch against base table `table`: the stored table
    /// is updated immediately (the DBMS's data is always current) and the
    /// change is logged so the next refresh can maintain affected MVs
    /// incrementally instead of recomputing them.
    ///
    /// Safe to call while a refresh is running: the refresh works from a
    /// point-in-time snapshot of the log, so a batch ingested mid-run is
    /// never split across nodes or lost — it pends for the next refresh
    /// (and if the running refresh may already have baked it into a
    /// recomputed MV, the log is poisoned so that refresh recomputes the
    /// affected MVs instead of double-applying).
    pub fn ingest_delta(&self, table: &str, delta: TableDelta) -> Result<()> {
        self.deltas.ingest(&self.disk, table, delta)
    }

    /// Executes one refresh run of `mvs` under `plan`; the caller holds
    /// the run lock (the planner mutex).
    fn run_plan(&self, mvs: &[MvDefinition], plan: &Plan) -> Result<RunMetrics> {
        // The session's cost model drives Auto full-vs-incremental
        // decisions too, not just speedup scores.
        let mut controller = Controller::new(&self.disk, self.memory_budget, &self.deltas)
            .with_cost_model(self.cost.clone())
            .with_refresh_config(self.refresh);
        // The controller records into the store and saves the sidecar
        // only on success. A failed save does not fail the refresh — the
        // sidecar is advisory, and losing it only costs a warm-up run —
        // but the run reports it.
        if let Some((store, path)) = &self.observations {
            controller = controller.with_observations(store, path);
        }
        controller.refresh(mvs, plan)
    }

    /// Executes a refresh run under an explicitly-held `plan` (the
    /// paper's three-call flow; managed sessions use
    /// [`ScSession::refresh`] instead).
    ///
    /// When deltas have been ingested since the last refresh, the
    /// controller consults them (per [`RefreshConfig::refresh_mode`]):
    /// untouched MVs are skipped and supported MVs absorb just their
    /// delta. With an empty log the run recomputes everything, exactly as
    /// before delta tracking existed — so profiling runs stay meaningful.
    pub fn refresh_with_plan(&self, plan: &Plan) -> Result<RunMetrics> {
        let _run_lock = self.planner.lock();
        self.run_plan(&self.mvs(), plan)
    }

    /// Brings every registered MV up to date, managing the optimizer plan
    /// internally.
    ///
    /// The first call (and any call after the cached plan is invalidated)
    /// is a **profiling run**: it refreshes in unoptimized topological
    /// order, derives an optimized plan from the observed metrics, and
    /// caches it. Subsequent calls execute the cached plan directly — no
    /// per-call re-profiling.
    ///
    /// The cache is invalidated by (a) [`ScSession::register_mv`] — the
    /// plan no longer covers the workload — or (b) observed output-size
    /// drift beyond [`ScSession::SIZE_DRIFT_THRESHOLD`], since the plan's
    /// flag choices were derived from the profiled sizes.
    ///
    /// Concurrent `refresh` calls serialize; [`ScSession::ingest_delta`]
    /// stays concurrent. Returns a [`RefreshReport`] whose
    /// [`RefreshReport::explain`] renders why each node was
    /// flagged/skipped/incremental.
    pub fn refresh(&self) -> Result<RefreshReport> {
        let mut planner = self.planner.lock();
        // Epoch *before* the registry snapshot: a registration landing
        // between the two loads makes the snapshot a superset of the
        // epoch's registry, so the cached plan is (conservatively)
        // invalidated next refresh instead of silently missing an MV.
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mvs = self.mvs();

        let cached_plan = planner
            .cached
            .as_ref()
            .filter(|c| c.epoch == epoch)
            .map(|c| c.plan.clone());
        match cached_plan {
            None => {
                // Profiling run: unoptimized order, everything observed.
                let order = Self::graph_of(&mvs)?.kahn_order();
                let plan = Plan::unoptimized(order);
                let metrics = self.run_plan(&mvs, &plan)?;
                let optimized = self.plan_from(&mvs, &metrics)?;
                planner.cached = Some(CachedPlan {
                    plan: optimized,
                    epoch,
                    profiled_sizes: self.stored_sizes(&mvs),
                });
                Ok(RefreshReport {
                    metrics,
                    plan,
                    profiled: true,
                })
            }
            Some(plan) => {
                let metrics = self.run_plan(&mvs, &plan)?;
                if self.sizes_drifted(&mvs, &planner) {
                    // Stale profile: the next refresh re-profiles.
                    planner.cached = None;
                }
                Ok(RefreshReport {
                    metrics,
                    plan,
                    profiled: false,
                })
            }
        }
    }

    /// Pins the current committed storage epoch and returns a consistent
    /// read view over every stored table (base tables and materialized
    /// MVs alike).
    ///
    /// The snapshot is **lock-free with respect to maintenance**: while
    /// it is held, [`ScSession::refresh`], [`ScSession::ingest_delta`],
    /// and [`ScSession::compact_mvs`] all proceed concurrently, and every
    /// read through the snapshot keeps returning the exact bytes that
    /// were committed at pin time — superseded files are retained on disk
    /// until the last snapshot pinning them drops, then epoch GC reclaims
    /// them (see `DiskCatalog`'s module docs).
    ///
    /// Tables created after the pin are invisible; tables dropped after
    /// the pin remain readable.
    pub fn snapshot(&self) -> ScSnapshot<'_> {
        ScSnapshot {
            pin: self.disk.pin(),
        }
    }

    /// Executes an ad-hoc [`LogicalPlan`] against a snapshot of the
    /// current committed state — the serving path. Equivalent to
    /// `self.snapshot().query(plan)`: the whole query reads one pinned
    /// epoch, so a refresh committing mid-execution can never show it a
    /// mix of old and new MV versions.
    pub fn query(&self, plan: &LogicalPlan) -> Result<Table> {
        self.snapshot().query(plan)
    }

    /// Whether a managed plan is currently cached (false right after
    /// construction, registration, or a drift invalidation).
    pub fn has_cached_plan(&self) -> bool {
        let planner = self.planner.lock();
        planner
            .cached
            .as_ref()
            .is_some_and(|c| c.epoch == self.epoch.load(Ordering::SeqCst))
    }

    /// Per-MV *stored* sizes, captured right after a run while the
    /// planner lock is held. Storage scale gives every maintenance mode —
    /// full rewrite, delta merge, append — a comparable number, unlike
    /// the in-memory output sizes a run reports only for Full nodes
    /// (which let append streaks grow an MV unboundedly without ever
    /// registering as drift). `None` for MVs not on storage.
    fn stored_sizes(&self, mvs: &[MvDefinition]) -> Vec<Option<u64>> {
        mvs.iter()
            .map(|mv| self.disk.size_of(&mv.name).ok())
            .collect()
    }

    /// Whether any MV's stored size left the profiled tolerance band.
    /// MVs without a baseline pass (they were absent at profile time —
    /// registration already invalidates via the epoch).
    fn sizes_drifted(&self, mvs: &[MvDefinition], planner: &Planner) -> bool {
        let Some(cached) = planner.cached.as_ref() else {
            return false;
        };
        let t = Self::SIZE_DRIFT_THRESHOLD;
        let stored = self.stored_sizes(mvs);
        stored
            .iter()
            .zip(&cached.profiled_sizes)
            .any(|(&obs, &prof)| match (obs, prof) {
                (None, _) | (_, None) => false,
                (Some(obs), Some(0)) => obs > 0,
                (Some(obs), Some(prof)) => {
                    let lo = prof as f64 * (1.0 - t);
                    let hi = prof as f64 * (1.0 + t);
                    (obs as f64) < lo || (obs as f64) > hi
                }
            })
    }
}

/// A consistent read view returned by [`ScSession::snapshot`]: every read
/// resolves against the manifest epoch that was committed when the
/// snapshot was taken, byte-identically, no matter how many refreshes,
/// ingests, or compactions commit while it is held.
///
/// Dropping the snapshot releases its epoch pin; once the oldest pin
/// drops, epoch GC deletes the superseded files it was holding alive.
///
/// Reads — `read_table`, `size_of`, `row_count`, `segment_count`,
/// `stored_file_bytes`, `tables`, `epoch` — are the pin's own
/// ([`EpochPin`], through `Deref`); a table created after the pin is
/// [`EngineError::UnknownTable`] even if it exists *now*.
pub struct ScSnapshot<'a> {
    pin: EpochPin<'a>,
}

impl<'a> std::ops::Deref for ScSnapshot<'a> {
    type Target = EpochPin<'a>;

    fn deref(&self) -> &EpochPin<'a> {
        &self.pin
    }
}

impl ScSnapshot<'_> {
    /// Executes an ad-hoc [`LogicalPlan`] whose scans all resolve at this
    /// snapshot's epoch — one query never observes two different commits.
    pub fn query(&self, plan: &LogicalPlan) -> Result<Table> {
        plan.execute(&self.pin)
    }
}
