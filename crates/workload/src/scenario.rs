//! Unified **scenario specifications**: one value describing base tables,
//! the MV DAG, a churn schedule, and the engine/sim configuration — the
//! single source of truth from which both the real engine
//! ([`ScenarioSpec::open`]) and the simulator construct their rigs.
//!
//! Before this module, engine/sim parity was held only by tests: `sc-sim`
//! re-declared lane counts, refresh modes, budgets, and per-node churn
//! annotations by hand, and any drift between the two declarations showed
//! up as a confusing test failure rather than a type error. A
//! [`ScenarioSpec`] makes the parity hold *by construction*: the engine
//! side loads the spec's tables and registers its MV definitions, and the
//! sim side derives its [`sc_sim::SimConfig`] and (after a profiling run)
//! its annotated [`sc_sim::SimWorkload`] from the very same value.

use std::collections::HashSet;
use std::path::Path;

use sc_core::RefreshMode;
use sc_engine::controller::{MvDefinition, RefreshConfig, RunMetrics};
use sc_engine::storage::{DiskCatalog, ObservationStore, Throttle};
use sc_engine::{DataType, ScSession, Table, TableBuilder, Value};
use sc_sim::{SimConfig, SimWorkload};

use crate::corpus::ScenarioError;
use crate::tpcds::TinyTpcds;
use crate::tpch_shaped::TpchSpec;
use crate::updates::{generate_delta, mirror_workload, UpdateStreamSpec};

/// A literal base table spelled out row by row — the corpus's tool for
/// pinning exact byte-level behavior (a specific join-null fill, a
/// duplicate that `distinct` must collapse) where a generated dataset
/// would bury the interesting rows.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineTable {
    /// Table name.
    pub name: String,
    /// Columns as `(name, type)` pairs, in order.
    pub columns: Vec<(String, DataType)>,
    /// Row values, one `Vec` per row, matching `columns`.
    pub rows: Vec<Vec<Value>>,
}

impl InlineTable {
    /// Materializes the literal rows into a [`Table`].
    pub fn build(&self) -> sc_engine::Result<Table> {
        let mut b = TableBuilder::new();
        for (name, dtype) in &self.columns {
            b = b.column(name, *dtype);
        }
        let mut t = b.build();
        for row in &self.rows {
            t.push_row(row.clone())?;
        }
        Ok(t)
    }
}

/// How a scenario's base tables are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSpec {
    /// The bundled TPC-DS-style generator ([`TinyTpcds::generate`]).
    TinyTpcds {
        /// Scale factor (1.0 ≈ a few MB of base data).
        scale: f64,
        /// Generator seed; equal seeds produce byte-identical tables.
        seed: u64,
    },
    /// The TPC-H-shaped star/snowflake generator
    /// ([`TpchSpec::generate`]), with Zipf-skewed fact keys.
    TpchShaped(TpchSpec),
    /// Literal tables spelled out in the scenario itself.
    Inline(Vec<InlineTable>),
}

impl TableSpec {
    /// Generates the tables and writes them into `disk` (the "data
    /// ingestion" step preceding the first refresh).
    pub fn load_into(&self, disk: &DiskCatalog) -> sc_engine::Result<()> {
        match self {
            TableSpec::TinyTpcds { scale, seed } => {
                TinyTpcds::generate(*scale, *seed).load_into(disk)
            }
            TableSpec::TpchShaped(spec) => spec.load_into(disk),
            TableSpec::Inline(tables) => {
                for t in tables {
                    disk.write_table(&t.name, &t.build()?)?;
                }
                Ok(())
            }
        }
    }

    /// Names of every table this spec produces (sorted for the generator
    /// variants, declaration order for inline tables) — what scenario
    /// validation resolves MV and churn references against.
    pub fn table_names(&self) -> Vec<String> {
        match self {
            TableSpec::TinyTpcds { .. } => [
                "catalog_sales",
                "customer",
                "date_dim",
                "item",
                "store",
                "store_sales",
                "web_sales",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            TableSpec::TpchShaped(spec) => spec.table_names(),
            TableSpec::Inline(tables) => tables.iter().map(|t| t.name.clone()).collect(),
        }
    }
}

/// One round of a scenario's churn schedule: a seeded update stream
/// against a set of base tables.
///
/// Rounds are deterministic per `(round, stored state)`: generating a
/// round against two catalogs holding identical bases yields identical
/// deltas, which is what lets a concurrent rig and a sequential reference
/// rig ingest "the same" churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRound {
    /// Base tables receiving the stream this round.
    pub tables: Vec<String>,
    /// Insert/update/delete mix, as fractions of each table's current
    /// rows.
    pub stream: UpdateStreamSpec,
    /// Stream seed (offset per table so tables don't see clone streams).
    pub seed: u64,
}

impl ChurnRound {
    /// An insert-only round against `tables` at `fraction` of current
    /// rows — the append-mostly shape of real fact streams.
    pub fn inserts(
        tables: impl IntoIterator<Item = impl Into<String>>,
        fraction: f64,
        seed: u64,
    ) -> Self {
        ChurnRound {
            tables: tables.into_iter().map(Into::into).collect(),
            stream: UpdateStreamSpec::inserts(fraction),
            seed,
        }
    }

    /// Generates this round's delta per table from the table's *current*
    /// stored contents and ingests it through `session` (base updated +
    /// delta logged).
    pub fn ingest_into(&self, session: &ScSession) -> sc_engine::Result<()> {
        for (i, table) in self.tables.iter().enumerate() {
            let base = session.disk().read_table(table)?;
            let delta = generate_delta(&base, &self.stream, self.seed.wrapping_add(i as u64));
            session.ingest_delta(table, delta)?;
        }
        Ok(())
    }
}

/// The configuration half of a scenario, shared verbatim by the engine
/// (as a [`RefreshConfig`] plus catalog budget/throttle) and the
/// simulator (as a [`SimConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Memory Catalog budget `M`, bytes.
    pub memory_budget: u64,
    /// Compute lanes executing DAG nodes (1 = the paper's sequential
    /// controller).
    pub lanes: usize,
    /// Full-vs-incremental maintenance policy.
    pub refresh_mode: RefreshMode,
    /// Optional storage pacing for the engine side; when set, the sim's
    /// disk bandwidths are taken from it too, so both sides model the
    /// same device.
    pub throttle: Option<Throttle>,
    /// Compact every MV back to canonical single-segment form after every
    /// N-th churn round (`None` = never): experiments poll
    /// [`ScenarioSpec::compact_due`] after each round they refresh, so
    /// the same spec can exercise both fragmented (append-path segments
    /// accumulating) and compacted storage states.
    pub compact_every: Option<usize>,
    /// Whether the engine side persists runtime observations and lets
    /// `Auto` consult them (the `observations.scst` sidecar). On by
    /// default; differential experiments pinning exact decisions turn it
    /// off so measured timings cannot shift a mode choice mid-suite.
    pub runtime_feedback: bool,
}

impl ScenarioConfig {
    /// Sequential, Auto-mode configuration with `memory_budget` bytes and
    /// unthrottled storage.
    pub fn new(memory_budget: u64) -> Self {
        ScenarioConfig {
            memory_budget,
            lanes: 1,
            refresh_mode: RefreshMode::Auto,
            throttle: None,
            compact_every: None,
            runtime_feedback: true,
        }
    }
}

/// A complete scenario: base tables, the MV DAG, a churn schedule, and
/// one shared configuration.
///
/// Consumers:
///
/// * the engine — [`ScenarioSpec::open`] opens a session, loads
///   [`ScenarioSpec::tables`], registers [`ScenarioSpec::mvs`], and
///   applies the config;
/// * churn — [`ScenarioSpec::ingest_round`] replays the schedule against
///   the session's catalogs;
/// * the simulator — [`ScenarioSpec::sim_config`] and
///   [`ScenarioSpec::mirror`] derive the simulation rig from the same
///   value, so `tests/sim_engine_parity.rs` cannot drift.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario label (reports and error messages).
    pub name: String,
    /// How base tables are produced.
    pub tables: TableSpec,
    /// The MV DAG, in registration order (dependencies are inferred from
    /// each plan's scans, exactly as `ScSession::register_mv` does).
    pub mvs: Vec<MvDefinition>,
    /// Churn schedule; rounds are applied explicitly via
    /// [`ScenarioSpec::ingest_round`], interleaved with refreshes however
    /// the experiment demands.
    pub churn: Vec<ChurnRound>,
    /// Shared engine/sim configuration.
    pub config: ScenarioConfig,
}

impl ScenarioSpec {
    /// A scenario over generated TPC-DS-style tables with an empty churn
    /// schedule and a sequential Auto-mode config.
    pub fn new(
        name: impl Into<String>,
        tables: TableSpec,
        mvs: Vec<MvDefinition>,
        memory_budget: u64,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            tables,
            mvs,
            churn: Vec::new(),
            config: ScenarioConfig::new(memory_budget),
        }
    }

    /// The `sales_pipeline` workload over TinyTpcds at `scale` — the
    /// nine-MV join-hub pipeline used across the examples and
    /// integration tests.
    pub fn sales_pipeline(scale: f64, seed: u64, memory_budget: u64) -> Self {
        ScenarioSpec::new(
            "sales_pipeline",
            TableSpec::TinyTpcds { scale, seed },
            crate::engine_mvs::sales_pipeline(),
            memory_budget,
        )
    }

    /// Appends a churn round to the schedule.
    pub fn with_churn(mut self, round: ChurnRound) -> Self {
        self.churn.push(round);
        self
    }

    /// Overrides the lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.config.lanes = lanes.max(1);
        self
    }

    /// Overrides the maintenance policy.
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.config.refresh_mode = mode;
        self
    }

    /// Paces the engine's storage (and the sim's modeled disk) with
    /// `throttle`.
    pub fn with_throttle(mut self, throttle: Throttle) -> Self {
        self.config.throttle = Some(throttle);
        self
    }

    /// Compacts every MV after each `rounds`-th churn round (see
    /// [`ScenarioConfig::compact_every`]).
    pub fn with_compact_every(mut self, rounds: usize) -> Self {
        self.config.compact_every = Some(rounds.max(1));
        self
    }

    /// Toggles runtime feedback (see
    /// [`ScenarioConfig::runtime_feedback`]).
    pub fn with_runtime_feedback(mut self, enabled: bool) -> Self {
        self.config.runtime_feedback = enabled;
        self
    }

    /// Whether the schedule calls for a compaction after (0-based) churn
    /// round `round` was refreshed.
    pub fn compact_due(&self, round: usize) -> bool {
        match self.config.compact_every {
            Some(n) => (round + 1).is_multiple_of(n),
            None => false,
        }
    }

    /// The engine-side refresh configuration this spec describes.
    pub fn refresh_config(&self) -> RefreshConfig {
        RefreshConfig::with_lanes(self.config.lanes).with_refresh_mode(self.config.refresh_mode)
    }

    /// The sim-side configuration this spec describes: same budget,
    /// lanes, and refresh mode; disk bandwidths from the spec's
    /// throttle when one is set (both sides then model the same device),
    /// the paper's measured disk otherwise.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper(self.config.memory_budget)
            .with_lanes(self.config.lanes)
            .with_refresh_mode(self.config.refresh_mode);
        if let Some(t) = self.config.throttle {
            cfg.disk_read_bps = t.read_bps;
            cfg.disk_write_bps = t.write_bps;
            cfg.disk_latency_s = t.latency_s;
        }
        cfg
    }

    /// Opens a session from this spec: storage under `dir`, the spec's
    /// budget/lanes/mode/throttle applied, its base tables loaded, and its
    /// MV DAG registered. The same spec value drives the simulator
    /// ([`ScenarioSpec::sim_config`] / [`ScenarioSpec::mirror`]), so an
    /// engine rig and its simulation twin cannot drift apart.
    pub fn open(&self, dir: impl AsRef<Path>) -> sc_engine::Result<ScSession> {
        let mut builder = ScSession::builder()
            .storage_dir(dir)
            .memory_budget(self.config.memory_budget)
            .refresh_config(self.refresh_config())
            .runtime_feedback(self.config.runtime_feedback);
        if let Some(t) = self.config.throttle {
            builder = builder.throttle(t);
        }
        let session = builder.build()?;
        self.tables.load_into(session.disk())?;
        for mv in &self.mvs {
            session.register_mv(mv.clone())?;
        }
        Ok(session)
    }

    /// Applies churn round `round` (0-based index into
    /// [`ScenarioSpec::churn`]) through `session`.
    pub fn ingest_round(&self, round: usize, session: &ScSession) -> sc_engine::Result<()> {
        let r = self.churn.get(round).ok_or_else(|| {
            sc_engine::EngineError::InvalidPlan(format!(
                "scenario '{}' has {} churn rounds, round {round} requested",
                self.name,
                self.churn.len()
            ))
        })?;
        r.ingest_into(session)
    }

    /// Mirrors this scenario's engine state into an annotated
    /// [`SimWorkload`] ([`mirror_workload`]): `metrics` must come from a
    /// full profiling refresh of the spec's MVs in `session`, whose delta
    /// log holds the pending churn the next refresh will see. Combined with
    /// [`ScenarioSpec::sim_config`], this is the entire simulator rig —
    /// derived, not re-declared.
    ///
    /// Runtime feedback: pass the store the engine's `Auto` decisions
    /// consult — for a session with runtime feedback on, its persisted
    /// sidecar (`ObservationStore::load` of `observations.scst`) — and
    /// each mirrored node carries that store's summary for its identity
    /// (MV name + plan-shape fingerprint), so the adaptive layer stays in
    /// parity by construction. Identities without observations (and every
    /// node under `None`) mirror with the static estimates, exactly like
    /// the engine's fingerprint-miss fallback.
    ///
    /// A sidecar naming an MV this spec does not declare is rejected with
    /// [`ScenarioError::StaleObservation`]: it was recorded against a
    /// different (or older) workload, and silently annotating nothing
    /// would let a mismatched sidecar pass for an empty one.
    pub fn mirror(
        &self,
        session: &ScSession,
        metrics: &RunMetrics,
        observations: Option<&ObservationStore>,
    ) -> Result<SimWorkload, ScenarioError> {
        let known: HashSet<&str> = self.mvs.iter().map(|m| m.name.as_str()).collect();
        if let Some(unknown) = observations
            .map(|o| o.names())
            .unwrap_or_default()
            .into_iter()
            .find(|n| !known.contains(n.as_str()))
        {
            return Err(ScenarioError::StaleObservation {
                scenario: self.name.clone(),
                mv: unknown,
            });
        }
        Ok(mirror_workload(
            &self.mvs,
            metrics,
            session.disk(),
            &session.delta_store().snapshot(),
            observations,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::sales_pipeline(0.2, 42, 8 << 20).with_churn(ChurnRound::inserts(
            ["store_sales"],
            0.05,
            3,
        ))
    }

    #[test]
    fn loads_tables_and_replays_churn() {
        let s = spec();
        let dir = tempfile::tempdir().unwrap();
        let session = s.open(dir.path()).unwrap();
        let disk = session.disk();
        assert!(disk.contains("store_sales"));
        assert_eq!(session.mv_count(), s.mvs.len());
        let before = disk.read_table("store_sales").unwrap().num_rows();

        s.ingest_round(0, &session).unwrap();
        assert!(!session.delta_store().is_empty());
        let after = disk.read_table("store_sales").unwrap().num_rows();
        assert_eq!(after, before + (before as f64 * 0.05).round() as usize);
        // Out-of-range rounds error instead of silently doing nothing.
        assert!(s.ingest_round(1, &session).is_err());
    }

    #[test]
    fn compact_schedule_is_derived_from_the_toggle() {
        let s = spec();
        assert!(!s.compact_due(0) && !s.compact_due(1));
        let s = s.with_compact_every(2);
        assert!(!s.compact_due(0));
        assert!(s.compact_due(1));
        assert!(!s.compact_due(2));
        assert!(s.compact_due(3));
        // A zero interval clamps to 1 (compact after every round).
        let every = spec().with_compact_every(0);
        assert!(every.compact_due(0) && every.compact_due(1));
    }

    #[test]
    fn configs_are_derived_not_redeclared() {
        let s = spec()
            .with_lanes(4)
            .with_refresh_mode(RefreshMode::AlwaysIncremental)
            .with_throttle(Throttle {
                read_bps: 1e6,
                write_bps: 2e6,
                latency_s: 0.5,
            });
        let rc = s.refresh_config();
        assert_eq!(rc.lanes, 4);
        assert_eq!(rc.refresh_mode, RefreshMode::AlwaysIncremental);
        let sim = s.sim_config();
        assert_eq!(sim.lanes, 4);
        assert_eq!(sim.refresh_mode, RefreshMode::AlwaysIncremental);
        assert_eq!(sim.memory_budget, 8 << 20);
        assert_eq!(sim.disk_read_bps, 1e6);
        assert_eq!(sim.disk_write_bps, 2e6);
        assert_eq!(sim.disk_latency_s, 0.5);
    }

    #[test]
    fn table_names_cover_every_variant() {
        assert!(spec()
            .tables
            .table_names()
            .contains(&"store_sales".to_string()));
        let tpch = TableSpec::TpchShaped(crate::tpch_shaped::TpchSpec::default());
        assert!(tpch.table_names().contains(&"lineitem".to_string()));
        let inline = TableSpec::Inline(vec![InlineTable {
            name: "t".into(),
            columns: vec![("a".into(), sc_engine::DataType::Int64)],
            rows: vec![vec![sc_engine::Value::Int64(1)]],
        }]);
        assert_eq!(inline.table_names(), vec!["t".to_string()]);
        // Inline tables round-trip through storage.
        let dir = tempfile::tempdir().unwrap();
        let disk = DiskCatalog::open(dir.path()).unwrap();
        inline.load_into(&disk).unwrap();
        assert_eq!(disk.read_table("t").unwrap().num_rows(), 1);
    }

    #[test]
    fn mirror_rejects_a_stale_sidecar() {
        let s = spec().with_runtime_feedback(false);
        let dir = tempfile::tempdir().unwrap();
        let session = s.open(dir.path()).unwrap();
        let metrics = session.baseline_refresh().unwrap();

        // A sidecar recorded against some other workload: its node names
        // don't exist in this spec, so mirroring must refuse it.
        let stale = ObservationStore::new();
        stale.record(
            "mv_from_another_life",
            7,
            sc_engine::storage::Observation {
                full: true,
                rows: 10,
                delta_bytes: 0,
                appended_bytes: 0,
                output_bytes: 100,
                read_s: 0.1,
                compute_s: 0.1,
                write_s: 0.1,
            },
        );
        match s.mirror(&session, &metrics, Some(&stale)) {
            Err(crate::corpus::ScenarioError::StaleObservation { scenario, mv }) => {
                assert_eq!(scenario, "sales_pipeline");
                assert_eq!(mv, "mv_from_another_life");
            }
            other => panic!("expected StaleObservation, got {other:?}"),
        }
        // An empty sidecar (and one naming only spec MVs) is fine.
        assert!(s
            .mirror(&session, &metrics, Some(&ObservationStore::new()))
            .is_ok());
    }

    #[test]
    fn mirror_matches_manual_mirror() {
        let s = spec().with_runtime_feedback(false);
        let dir = tempfile::tempdir().unwrap();
        let session = s.open(dir.path()).unwrap();
        let metrics = session.baseline_refresh().unwrap();
        s.ingest_round(0, &session).unwrap();

        let w = s.mirror(&session, &metrics, None).unwrap();
        assert_eq!(w.len(), s.mvs.len());
        let pending = session.delta_store().snapshot();
        let manual = mirror_workload(&s.mvs, &metrics, session.disk(), &pending, None).unwrap();
        for (a, b) in w
            .graph
            .node_ids()
            .map(|v| w.graph.node(v))
            .zip(manual.graph.node_ids().map(|v| manual.graph.node(v)))
        {
            assert_eq!(a, b);
        }
    }
}
