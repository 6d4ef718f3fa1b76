//! Seeded **update-stream generators**: churn against base tables (for the
//! engine's delta log) and churn annotations for simulated workloads — so
//! benchmarks and the simulator can exercise incremental refresh under
//! realistic insert/update/delete mixes.
//!
//! Engine-side, a stream is a sequence of [`sc_engine::exec::TableDelta`]
//! batches derived from a table's current contents: inserts clone existing
//! rows with perturbed measures (foreign keys stay resolvable), updates
//! pair an existing row's removal with a perturbed re-insert, deletes
//! remove sampled rows. Sim-side, [`churned`] states every node's output
//! delta from a global delta fraction, and [`mirror_workload`] carries an
//! engine scenario's own decision facts into the simulator.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sc_core::Feed;
use sc_engine::controller::{dependencies, mode_facts, MvDefinition, RunMetrics};
use sc_engine::exec::{DeltaBatch, TableDelta};
use sc_engine::storage::{DiskCatalog, ObservationStore};
use sc_engine::{Table, Value};
use sc_sim::{SimChurn, SimNode, SimWorkload};

/// Churn mix for one generated batch, as fractions of the table's current
/// row count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStreamSpec {
    /// Fraction of rows appended (cloned from existing rows with perturbed
    /// numeric values, keeping join keys resolvable).
    pub insert_fraction: f64,
    /// Fraction of rows updated (delete old version + insert perturbed
    /// version).
    pub update_fraction: f64,
    /// Fraction of rows deleted.
    pub delete_fraction: f64,
}

impl UpdateStreamSpec {
    /// Insert-only churn at `fraction` — the append-mostly shape of real
    /// fact streams, and the only shape every delta operator supports.
    pub fn inserts(fraction: f64) -> Self {
        UpdateStreamSpec {
            insert_fraction: fraction,
            update_fraction: 0.0,
            delete_fraction: 0.0,
        }
    }

    /// A mixed stream with updates and deletes alongside inserts.
    pub fn mixed(insert: f64, update: f64, delete: f64) -> Self {
        UpdateStreamSpec {
            insert_fraction: insert,
            update_fraction: update,
            delete_fraction: delete,
        }
    }
}

/// Generates one churn batch against `table`'s current contents,
/// deterministic per `(spec, seed)`.
pub fn generate_delta(table: &Table, spec: &UpdateStreamSpec, seed: u64) -> TableDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = table.num_rows();
    let schema = table.schema().clone();
    let mut deletes = Table::empty(schema.clone());
    let mut inserts = Table::empty(schema);
    if n == 0 {
        return TableDelta::from_batch(DeltaBatch { deletes, inserts }).expect("schemas match");
    }

    let count = |fraction: f64| ((n as f64 * fraction).round() as usize).min(n);
    let row_values = |row: usize| -> Vec<Value> {
        (0..table.num_columns())
            .map(|c| table.value(row, c))
            .collect()
    };

    // Deletes and updates sample disjoint rows so one batch never touches
    // the same row twice.
    let mut sampled = vec![false; n];
    let mut sample = |rng: &mut StdRng, k: usize| -> Vec<usize> {
        let mut rows = Vec::with_capacity(k);
        let mut attempts = 0;
        while rows.len() < k && attempts < 20 * k + 100 {
            let r = rng.gen_range(0..n);
            if !sampled[r] {
                sampled[r] = true;
                rows.push(r);
            }
            attempts += 1;
        }
        rows
    };

    for row in sample(&mut rng, count(spec.delete_fraction)) {
        deletes.push_row(row_values(row)).expect("same schema");
    }
    for row in sample(&mut rng, count(spec.update_fraction)) {
        deletes.push_row(row_values(row)).expect("same schema");
        inserts
            .push_row(perturb(row_values(row), &mut rng))
            .expect("same schema");
    }
    for _ in 0..count(spec.insert_fraction) {
        let row = rng.gen_range(0..n);
        inserts
            .push_row(perturb(row_values(row), &mut rng))
            .expect("same schema");
    }
    TableDelta::from_batch(DeltaBatch { deletes, inserts }).expect("schemas match")
}

/// Perturbs a row's numeric measures (keys and strings are preserved, so
/// foreign keys stay resolvable): floats are scaled, the last integer
/// column is nudged.
fn perturb(mut values: Vec<Value>, rng: &mut StdRng) -> Vec<Value> {
    let last_int = values
        .iter()
        .rposition(|v| matches!(v, Value::Int64(_)))
        .unwrap_or(usize::MAX);
    for (i, v) in values.iter_mut().enumerate() {
        match v {
            Value::Float64(f) => *f = (*f * rng.gen_range(90..110) as f64 / 100.0).max(0.01),
            Value::Int64(x) if i == last_int => *x = (*x + rng.gen_range(0..3i64)).max(1),
            _ => {}
        }
    }
    values
}

/// Mirrors an engine MV workload into a [`SimWorkload`], so the simulator
/// predicts the same per-node refresh decisions (mode and reason) as the
/// engine's controller.
///
/// `metrics` must come from a **full** refresh of `mvs` (every node
/// executed, so output sizes and compute times are real); they drive the
/// simulated timing, with base-table reads at their stored sizes. The
/// decisions need no mirroring of their own: each node carries the
/// engine's [`sc_engine::controller::mode_facts`] — read from the same
/// catalog, the same pending log (`pending`, a snapshot of it) and the
/// same observation store — so both sides hand one kernel
/// ([`sc_core::modes::plan`]) the same facts. With nothing pending the
/// engine tracks no deltas, and the mirrored nodes carry no annotation.
pub fn mirror_workload(
    mvs: &[MvDefinition],
    metrics: &RunMetrics,
    disk: &DiskCatalog,
    pending: &HashMap<String, TableDelta>,
    observations: Option<&ObservationStore>,
) -> sc_dag::Result<SimWorkload> {
    let by_name: HashMap<&str, &sc_engine::NodeMetrics> =
        metrics.nodes.iter().map(|n| (n.name.as_str(), n)).collect();
    let is_mv = |t: &str| mvs.iter().any(|m| m.name == t);
    let mut facts = mode_facts(mvs, disk, pending, observations).map(Vec::into_iter);
    let nodes = mvs.iter().map(|mv| {
        let m = by_name
            .get(mv.name.as_str())
            .unwrap_or_else(|| panic!("no metrics for MV '{}'", mv.name));
        let base_read = mv
            .plan
            .input_tables()
            .iter()
            .filter(|t| !is_mv(t))
            .map(|t| disk.size_of(t).unwrap_or(0))
            .sum();
        let mut node = SimNode::new(mv.name.clone(), m.compute_s, m.output_bytes, base_read);
        node.churn = facts.as_mut().and_then(Iterator::next).map(|f| SimChurn {
            build_inputs: f
                .parents
                .iter()
                .filter(|(_, feed)| *feed == Feed::Build)
                .map(|&(p, _)| mvs[p].name.clone())
                .collect(),
            facts: f,
        });
        node
    });
    SimWorkload::from_parts(nodes.collect::<Vec<_>>(), dependencies(mvs))
}

/// Annotates every node of a simulated workload with churn at a global
/// `delta_fraction` of its output (seeded jitter of ±50% per node), for
/// churn-heavy sim scenarios. Nodes keep their other annotations.
pub fn churned(workload: &SimWorkload, delta_fraction: f64, seed: u64) -> SimWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = workload.graph.map(|_, node| {
        let jitter = rng.gen_range(50..150) as f64 / 100.0;
        let delta = (node.output_bytes as f64 * delta_fraction * jitter) as u64;
        node.clone().with_delta(delta.min(node.output_bytes))
    });
    SimWorkload { graph }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcds::TinyTpcds;
    use crate::ChurnRound;
    use sc_core::RefreshMode;
    use sc_engine::ScSession;
    use sc_sim::{SimConfig, SimNode, Simulator};

    #[test]
    fn insert_only_stream_is_seeded_and_sized() {
        let ds = TinyTpcds::generate(0.3, 7);
        let sales = ds.table("store_sales").unwrap();
        let spec = UpdateStreamSpec::inserts(0.05);
        let a = generate_delta(sales, &spec, 1);
        let b = generate_delta(sales, &spec, 1);
        let c = generate_delta(sales, &spec, 2);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
        assert!(!a.has_deletes());
        let expected = (sales.num_rows() as f64 * 0.05).round() as usize;
        assert_eq!(a.insert_rows(), expected);
    }

    #[test]
    fn mixed_stream_has_all_three_shapes() {
        let ds = TinyTpcds::generate(0.3, 7);
        let sales = ds.table("store_sales").unwrap();
        let spec = UpdateStreamSpec::mixed(0.02, 0.03, 0.01);
        let d = generate_delta(sales, &spec, 9);
        assert!(d.has_deletes());
        let n = sales.num_rows() as f64;
        // updates contribute to both sides.
        assert_eq!(
            d.delete_rows(),
            (n * 0.01).round() as usize + (n * 0.03).round() as usize
        );
        assert_eq!(
            d.insert_rows(),
            (n * 0.02).round() as usize + (n * 0.03).round() as usize
        );
        // Applying the delta keeps the row count consistent.
        let applied = d.apply(sales).unwrap();
        assert_eq!(
            applied.num_rows(),
            sales.num_rows() + d.insert_rows() - d.delete_rows()
        );
    }

    #[test]
    fn perturbation_preserves_keys() {
        let ds = TinyTpcds::generate(0.2, 3);
        let sales = ds.table("store_sales").unwrap();
        let items = ds.table("item").unwrap().num_rows() as i64;
        let d = generate_delta(sales, &UpdateStreamSpec::inserts(0.1), 4);
        let ins = &d.batches()[0].inserts;
        let col = ins.column_by_name("ss_item_sk").unwrap();
        for r in 0..ins.num_rows() {
            match col.value(r) {
                Value::Int64(sk) => assert!(sk >= 0 && sk < items, "key stays resolvable"),
                other => panic!("bad key {other:?}"),
            }
        }
    }

    #[test]
    fn empty_table_yields_empty_delta() {
        let empty = sc_engine::TableBuilder::new()
            .column("x", sc_engine::DataType::Int64)
            .build();
        let d = generate_delta(&empty, &UpdateStreamSpec::mixed(0.5, 0.5, 0.5), 1);
        assert!(d.is_empty());
    }

    /// A session over TinyTpcds at scale 0.3 with `sales_pipeline`
    /// registered and runtime feedback off.
    fn session(dir: &std::path::Path) -> ScSession {
        let session = ScSession::builder()
            .storage_dir(dir)
            .runtime_feedback(false)
            .build()
            .unwrap();
        TinyTpcds::generate(0.3, 7)
            .load_into(session.disk())
            .unwrap();
        for mv in crate::engine_mvs::sales_pipeline() {
            session.register_mv(mv).unwrap();
        }
        session
    }

    #[test]
    fn join_hub_churn_is_deterministic_across_rigs() {
        let (d1, d2) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
        let (s1, s2) = (session(d1.path()), session(d2.path()));
        for round in 0..2u64 {
            let churn = ChurnRound::inserts(["store_sales"], 0.05, round);
            churn.ingest_into(&s1).unwrap();
            churn.ingest_into(&s2).unwrap();
        }
        let (log1, log2) = (s1.delta_store(), s2.delta_store());
        assert_eq!(
            log1.pending("store_sales").unwrap(),
            log2.pending("store_sales").unwrap()
        );
        assert_eq!(log1.pending("store_sales").unwrap().batches().len(), 2);
        assert!(!log1.pending("store_sales").unwrap().has_deletes());
        assert_eq!(
            s1.disk().read_table("store_sales").unwrap(),
            s2.disk().read_table("store_sales").unwrap()
        );
        // Dimensions stay untouched.
        assert!(log1.pending("item").is_none());
    }

    #[test]
    fn mirror_workload_annotates_join_hub_shapes() {
        let dir = tempfile::tempdir().unwrap();
        let session = session(dir.path());
        let disk = session.disk();
        let mvs = session.mvs();
        let metrics = session.baseline_refresh().unwrap();
        let mirror = || {
            let pending = session.delta_store().snapshot();
            mirror_workload(&mvs, &metrics, disk, &pending, None).unwrap()
        };
        let facts = |w: &SimWorkload, name: &str| {
            w.graph
                .payloads()
                .iter()
                .find(|n| n.name == name)
                .and_then(|n| n.churn.clone())
                .unwrap()
                .facts
        };

        // An empty log: the engine tracks no deltas, so nothing is
        // annotated.
        assert!(mirror().graph.payloads().iter().all(|n| n.churn.is_none()));

        ChurnRound::inserts(["store_sales"], 0.05, 1)
            .ingest_into(&session)
            .unwrap();
        let w = mirror();
        // The join hub: churn reaches its spine, the dimensions are its
        // static build side (base tables, so bytes only — no build
        // parents).
        let hub = facts(&w, "enriched_sales");
        assert_eq!(
            hub.churn.bytes,
            session.delta_store().pending_bytes("store_sales")
        );
        assert!(hub.churn.spine && !hub.churn.build);
        assert!(hub.maintainable && hub.publishes && hub.exists);
        assert!(hub.parents.is_empty());
        assert!(hub.static_bytes > 0);
        // Aggregates over the hub merge without publishing.
        let agg = facts(&w, "rev_by_category");
        assert!(agg.maintainable && !agg.publishes);
        assert_eq!(agg.parents, vec![(0, Feed::Spine)]);
        // Untouched channels carry no churn of their own; the union
        // report cannot maintain at all.
        assert_eq!(facts(&w, "web_by_item").churn, Default::default());
        assert!(!facts(&w, "cross_channel").maintainable);

        // A churned *dimension* is churn on the hub's build side (the
        // refresh first drains the fact churn).
        session.baseline_refresh().unwrap();
        ChurnRound::inserts(["item"], 0.05, 2)
            .ingest_into(&session)
            .unwrap();
        let hub = facts(&mirror(), "enriched_sales");
        assert!(hub.churn.build && !hub.churn.spine);
    }

    #[test]
    fn churned_sim_workload_runs_incrementally() {
        const GIB: u64 = 1 << 30;
        let w = SimWorkload::from_parts(
            [
                SimNode::new("hub", 5.0, 4 * GIB, 8 * GIB),
                SimNode::new("agg", 2.0, GIB / 16, 0),
            ],
            [(0, 1)],
        )
        .unwrap();
        let churny = churned(&w, 0.05, 11);
        for v in churny.graph.node_ids() {
            let n = churny.graph.node(v);
            let d = n.churn.as_ref().and_then(|c| c.facts.stated_delta);
            let d = d.expect("annotated");
            assert!(d > 0 && d <= n.output_bytes);
        }
        let plan = sc_core::Plan::unoptimized(churny.graph.kahn_order());
        let cfg = SimConfig::paper(GIB);
        let full = Simulator::new(cfg.clone().with_refresh_mode(RefreshMode::AlwaysFull))
            .run(&churny, &plan)
            .unwrap();
        let inc = Simulator::new(cfg.with_refresh_mode(RefreshMode::AlwaysIncremental))
            .run(&churny, &plan)
            .unwrap();
        assert!(inc.total_s < full.total_s);
    }
}
