//! The corpus sweep: every committed `.scn` scenario under `tests/corpus/`
//! runs through three differential lenses, so one runner pins correctness
//! for the whole operator surface instead of one hand-built rig per shape.
//!
//! * **Byte identity** — an incremental rig (the spec as written) against
//!   an `AlwaysFull` reference rig; every MV's logical contents must match
//!   after every refresh round, and its stored files must be byte-identical
//!   after both rigs compact.
//! * **Mode parity + pinned expectations** — the simulator's predicted
//!   per-node mode *and* [`sc_core::ModeReason`] must match the engine's
//!   on every case, `Auto` included, and every `expect` line in the case
//!   must hold against both — the engine's report (including the reason's
//!   visibility in the rendered `explain()` row) and the simulator's.
//! * **Fragmented vs compacted** — a rig that never compacts against one
//!   compacted back to a single segment per MV after every round; their
//!   logical MV contents must agree at every step.
//!
//! `SC_CORPUS_FILTER=<substring>` restricts a run to matching case files
//! (skipped cases are printed). `SC_CORPUS_REGEN=1` rewrites the
//! generator-owned `gen_tpch_*.scn` files from
//! [`sc_workload::tpch_shaped::generated_corpus`]. A separate floor test
//! fails if the committed corpus ever shrinks below 25 cases.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use sc::{RefreshReport, ScSession};
use sc_core::{ModeReason, NodeMode, Plan, RefreshMode};
use sc_dag::NodeId;
use sc_engine::storage::{ObservationStore, SIDECAR_FILE};
use sc_engine::Table;
use sc_sim::Simulator;
use sc_workload::corpus::{load_dir, CorpusCase};
use sc_workload::tpch_shaped::generated_corpus;
use sc_workload::ScenarioSpec;

/// The committed corpus directory (resolved from the workspace root, so
/// the sweep finds it regardless of the test binary's cwd).
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// Loads the corpus and applies `SC_CORPUS_FILTER` (a substring of the
/// case file name). Filtered-out cases are logged per lens — the sweep
/// never drops work silently.
fn corpus(lens: &str) -> Vec<CorpusCase> {
    let all = load_dir(corpus_dir()).expect("every committed corpus case must parse");
    let filter = std::env::var("SC_CORPUS_FILTER").unwrap_or_default();
    if filter.is_empty() {
        return all;
    }
    let (keep, skipped): (Vec<_>, Vec<_>) = all.into_iter().partition(|c| c.file.contains(&filter));
    for c in &skipped {
        println!("{lens}: skipped {} (SC_CORPUS_FILTER={filter})", c.file);
    }
    assert!(
        !keep.is_empty(),
        "SC_CORPUS_FILTER='{filter}' matched no corpus case"
    );
    keep
}

fn rig(spec: &ScenarioSpec) -> (tempfile::TempDir, ScSession) {
    let dir = tempfile::tempdir().unwrap();
    let session = spec
        .open(dir.path())
        .unwrap_or_else(|e| panic!("scenario '{}' failed to open: {e}", spec.name));
    (dir, session)
}

/// The unoptimized full-DAG plan (registration order), as the parity rig
/// uses — mode decisions come from the delta planner, not plan pruning.
fn full_plan(spec: &ScenarioSpec) -> Plan {
    Plan::unoptimized((0..spec.mvs.len()).map(NodeId).collect())
}

/// Logical contents of every MV, read back through the segment-merging
/// storage path (so fragmented and compacted rigs compare fairly).
fn mv_tables(session: &ScSession, spec: &ScenarioSpec) -> Vec<(String, Table)> {
    spec.mvs
        .iter()
        .map(|mv| {
            let t = session.disk().read_table(&mv.name).unwrap();
            (mv.name.clone(), t)
        })
        .collect()
}

fn assert_same_tables(case: &str, when: &str, a: &[(String, Table)], b: &[(String, Table)]) {
    for ((name_a, t_a), (name_b, t_b)) in a.iter().zip(b) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            t_a, t_b,
            "{case}: {when}: MV '{name_a}' diverged between the two rigs"
        );
    }
}

/// Lens 1: the incremental rig must be indistinguishable from an
/// `AlwaysFull` reference — logically after every round, byte-for-byte
/// once both compact to canonical form.
#[test]
fn lens_byte_identity_incremental_vs_full() {
    let cases = corpus("byte-identity");
    for case in &cases {
        let spec = &case.spec;
        let reference = spec.clone().with_refresh_mode(RefreshMode::AlwaysFull);
        let (_da, inc) = rig(spec);
        let (_db, refr) = rig(&reference);
        inc.baseline_refresh().unwrap();
        refr.baseline_refresh().unwrap();
        let plan = full_plan(spec);
        for round in 0..spec.churn.len() {
            // Both rigs' base tables are identical here, so the seeded
            // generator derives the same delta batches for each.
            spec.ingest_round(round, &inc).unwrap();
            reference.ingest_round(round, &refr).unwrap();
            inc.refresh_with_plan(&plan).unwrap();
            refr.refresh_with_plan(&plan).unwrap();
            if spec.compact_due(round) {
                inc.compact_mvs().unwrap();
                refr.compact_mvs().unwrap();
            }
            assert_same_tables(
                &case.file,
                &format!("after round {round}"),
                &mv_tables(&inc, spec),
                &mv_tables(&refr, spec),
            );
        }
        // Canonical byte equality: segment layouts legitimately differ
        // (append path vs rewrites), the compacted form must not.
        inc.compact_mvs().unwrap();
        refr.compact_mvs().unwrap();
        for mv in &spec.mvs {
            assert_eq!(
                inc.disk().stored_file_bytes(&mv.name).unwrap(),
                refr.disk().stored_file_bytes(&mv.name).unwrap(),
                "{}: MV '{}' not byte-identical to the AlwaysFull reference after compaction",
                case.file,
                mv.name
            );
        }
    }
    println!("lens byte-identity: {} cases green", cases.len());
}

/// Lens 2: sim/engine decision parity plus every `expect` line in the
/// case — mode, provenance, and the provenance's visibility in
/// `explain()`.
#[test]
fn lens_mode_parity_and_pinned_expectations() {
    let cases = corpus("mode-parity");
    let mut pins = 0usize;
    for case in &cases {
        let spec = &case.spec;
        let (_d, session) = rig(spec);
        let baseline = session.baseline_refresh().unwrap();
        for round in 0..spec.churn.len() {
            spec.ingest_round(round, &session).unwrap();
        }
        let plan = full_plan(spec);

        // Mirror and predict *before* the engine refresh drains the log,
        // from the observation sidecar the engine's Auto consults.
        let sidecar = ObservationStore::load(session.disk().dir().join(SIDECAR_FILE));
        let mirrored = spec.mirror(&session, &baseline, Some(&sidecar)).unwrap();
        let sim: HashMap<String, (NodeMode, ModeReason)> = Simulator::new(spec.sim_config())
            .run(&mirrored, &plan)
            .unwrap()
            .nodes
            .into_iter()
            .map(|n| (n.name, (n.mode, n.reason)))
            .collect();

        let metrics = session.refresh_with_plan(&plan).unwrap();
        for n in &metrics.nodes {
            assert_eq!(
                sim[&n.name],
                (n.mode, n.reason),
                "{}: sim and engine disagree on '{}'",
                case.file,
                n.name
            );
        }

        let report = RefreshReport {
            metrics: metrics.clone(),
            plan,
            profiled: false,
        };
        let explain = report.explain();
        for e in &case.expectations {
            let node = metrics
                .nodes
                .iter()
                .find(|n| n.name == e.mv)
                .unwrap_or_else(|| {
                    panic!(
                        "{}:{}: expect targets '{}' but the run has no such node",
                        case.file, e.line, e.mv
                    )
                });
            assert_eq!(
                node.mode, e.mode,
                "{}:{}: '{}' ran {:?} (reason {:?}), expected {:?}",
                case.file, e.line, e.mv, node.mode, node.reason, e.mode
            );
            if let Some(reason) = e.reason {
                assert_eq!(
                    node.reason, reason,
                    "{}:{}: '{}' provenance mismatch",
                    case.file, e.line, e.mv
                );
                assert_eq!(
                    sim[&e.mv],
                    (e.mode, reason),
                    "{}:{}: the simulator must predict the pin for '{}'",
                    case.file,
                    e.line,
                    e.mv
                );
                // The pinned decision must be *visible*: the explain()
                // row for this MV carries the reason's description.
                let row = explain
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(e.mv.as_str()))
                    .unwrap_or_else(|| {
                        panic!("{}: explain() has no row for '{}'", case.file, e.mv)
                    });
                assert!(
                    row.contains(reason.describe()),
                    "{}:{}: explain() row for '{}' must say \"{}\", got: {row}",
                    case.file,
                    e.line,
                    e.mv,
                    reason.describe()
                );
            }
            pins += 1;
        }
    }
    println!(
        "lens mode-parity: {} cases sim-parity checked, {pins} pinned expectations held",
        cases.len()
    );
}

/// Lens 3: storage fragmentation is invisible to readers — a rig that
/// never compacts agrees with one compacted to a single segment per MV
/// after every round.
#[test]
fn lens_fragmented_vs_compacted() {
    let cases = corpus("fragmentation");
    for case in &cases {
        let spec = &case.spec;
        let (_df, frag) = rig(spec);
        let (_dc, comp) = rig(spec);
        frag.baseline_refresh().unwrap();
        comp.baseline_refresh().unwrap();
        let plan = full_plan(spec);
        for round in 0..spec.churn.len() {
            spec.ingest_round(round, &frag).unwrap();
            spec.ingest_round(round, &comp).unwrap();
            frag.refresh_with_plan(&plan).unwrap();
            comp.refresh_with_plan(&plan).unwrap();
            comp.compact_mvs().unwrap();
            for mv in &spec.mvs {
                assert_eq!(
                    comp.disk().segment_count(&mv.name).unwrap(),
                    1,
                    "{}: '{}' must be single-segment after compaction",
                    case.file,
                    mv.name
                );
            }
            assert_same_tables(
                &case.file,
                &format!("after round {round}"),
                &mv_tables(&frag, spec),
                &mv_tables(&comp, spec),
            );
        }
    }
    println!("lens fragmentation: {} cases green", cases.len());
}

/// The corpus floor: CI fails if the committed corpus shrinks below 25
/// cases. Deliberately ignores `SC_CORPUS_FILTER` — the floor is about
/// what is committed, not what this run swept.
#[test]
fn corpus_floor_holds() {
    let cases = load_dir(corpus_dir()).expect("every committed corpus case must parse");
    println!("corpus: {} committed cases", cases.len());
    assert!(
        cases.len() >= 25,
        "committed corpus shrank below the 25-case floor: {} cases",
        cases.len()
    );
}

/// The generator-owned half of the corpus stays reviewable *and* provably
/// in sync: the committed `gen_tpch_*.scn` files must match
/// [`generated_corpus`] byte for byte. Regenerate with
/// `SC_CORPUS_REGEN=1 cargo test --test corpus_sweep generated`.
#[test]
fn generated_cases_match_their_generator() {
    let dir = corpus_dir();
    let regen = std::env::var("SC_CORPUS_REGEN")
        .map(|v| v == "1")
        .unwrap_or(false);
    for (name, text) in generated_corpus() {
        let path = dir.join(&name);
        if regen {
            std::fs::write(&path, &text).unwrap();
            println!("regenerated {name}");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{name}: {e}; regenerate with SC_CORPUS_REGEN=1 cargo test --test corpus_sweep generated")
        });
        assert_eq!(
            committed, text,
            "{name} drifted from its generator; regenerate with SC_CORPUS_REGEN=1"
        );
    }
}
