//! Refresh-mode planning — the one decision kernel of the refresh executor
//! (engine) and its discrete-event mirror (simulator).
//!
//! Before a run executes, every node is fixed to a [`NodeMode`]: skipped
//! (nothing reached it), maintained incrementally from its input deltas,
//! or recomputed in full — together with the [`ModeReason`] behind the
//! choice and the catalog consequences of it (which nodes publish an
//! output delta, keep only that delta in the Memory Catalog, spill it, or
//! persist by appending it as a segment). [`plan`] makes those decisions
//! from plain [`NodeFacts`]: the engine gathers them from storage, the
//! delta log and the observation store; the simulator derives them from
//! its workload annotations; the scenario mirror fills them from the very
//! catalog the engine reads. One copy of the rules means the two
//! executors cannot decide differently on the same facts.

use serde::{Deserialize, Serialize};

use crate::plan::{FlagSet, Plan};
use crate::score::{CostModel, ObservedNodeCost, RefreshCosts};

/// Policy for choosing between full recomputation and incremental (delta)
/// maintenance of each MV during a refresh run.
///
/// The engine's controller and the simulator both consume this knob (via
/// `RefreshConfig` and `SimConfig` respectively), so a policy choice can be
/// evaluated analytically before it is deployed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshMode {
    /// Choose per node: skip unchanged MVs, maintain incrementally when the
    /// operators support it *and* the cost model predicts a win
    /// ([`crate::CostModel::incremental_refresh_wins`]), recompute otherwise.
    #[default]
    Auto,
    /// Recompute every MV from its (already-updated) inputs — the paper's
    /// original behavior, and the baseline incremental refresh is judged
    /// against.
    AlwaysFull,
    /// Maintain incrementally whenever the operators support it, regardless
    /// of the cost model (unchanged MVs are still skipped). Useful for
    /// benchmarking the incremental path itself.
    AlwaysIncremental,
}

/// Per-node outcome of refresh-mode planning: how one MV will be brought
/// up to date by the current refresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeMode {
    /// Recompute the MV from its inputs and rewrite it.
    Full,
    /// Apply the propagated delta to the previous MV contents.
    Incremental,
    /// No pending delta reaches this MV: its stored contents are already
    /// current and the node performs no work at all.
    Skipped,
}

/// Why refresh-mode planning settled on a node's [`NodeMode`] — the
/// machine-readable half of a refresh report's `explain()` rendering.
///
/// [`plan`] records one reason per node, so callers can see not just
/// *what* the run did (recompute / apply delta / skip) but *why* the
/// cheaper options were unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeReason {
    /// No delta log was attached, or the run's policy is
    /// [`RefreshMode::AlwaysFull`]: every node recomputes by policy.
    FullPolicy,
    /// The MV does not exist on storage yet, so its first materialization
    /// is necessarily a full computation.
    FirstMaterialization,
    /// A previous refresh failed (or a mid-run ingest contaminated a
    /// recomputed MV), so the delta log is poisoned: only a full recompute
    /// is idempotent.
    PoisonedLog,
    /// Some input's delta is unknown — a parent MV recomputed in full
    /// without publishing a delta — so the node cannot maintain
    /// incrementally and recomputes.
    ParentRecomputed,
    /// A static (join build-side) input churned; its new rows would
    /// interleave into existing match groups, which no append-only delta
    /// reproduces, so the node recomputes.
    StaticChurn,
    /// The operator tree cannot maintain the delta's shape (unsupported
    /// operator, or a delete-carrying delta over delete-blind operators).
    UnsupportedShape,
    /// The cost model predicted recomputing is cheaper than the
    /// incremental path ([`crate::CostModel::incremental_refresh_wins`]).
    CostModel,
    /// No pending change reaches the node: its stored contents are
    /// already current, so it performs no work.
    NoChurn,
    /// The propagated delta was applied to the stored contents.
    DeltaApplied,
}

impl ModeReason {
    /// One-line human rendering used by refresh reports.
    pub fn describe(self) -> &'static str {
        match self {
            ModeReason::FullPolicy => "full recompute (policy: no delta log or AlwaysFull)",
            ModeReason::FirstMaterialization => "full recompute (first materialization)",
            ModeReason::PoisonedLog => "full recompute (delta log poisoned by a failed run)",
            ModeReason::ParentRecomputed => {
                "full recompute (a parent recomputed, so its delta is unknown)"
            }
            ModeReason::StaticChurn => "full recompute (a join build side churned)",
            ModeReason::UnsupportedShape => {
                "full recompute (operators cannot maintain this delta shape)"
            }
            ModeReason::CostModel => "full recompute (cost model: cheaper than the delta path)",
            ModeReason::NoChurn => "skipped (no pending change reaches it)",
            ModeReason::DeltaApplied => "incremental (applied the propagated delta)",
        }
    }
}

/// Where a node's mode decision got its cost numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostProvenance {
    /// The mode was forced — by policy, shape, or catalog state — without
    /// comparing costs at all.
    Policy,
    /// [`RefreshMode::Auto`] compared the static size-based estimates.
    Estimated,
    /// [`RefreshMode::Auto`] consulted an observed runtime-cost summary
    /// for this node's identity ([`NodeFacts::observed`]).
    Observed,
}

/// How a node reads one of its MV parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feed {
    /// On the node's delta spine: the parent's published delta propagates
    /// through the node.
    Spine,
    /// A join build side: the delta-join probes the parent's stored
    /// contents, so the parent must be unchanged (skipped) this run.
    Build,
}

/// Pending change on a node's non-MV (base-table) inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaseChurn {
    /// Some spine input has a pending change.
    pub spine: bool,
    /// Some build-side input has a pending change.
    pub build: bool,
    /// Pending delta bytes across the spine inputs.
    pub bytes: u64,
    /// Whether a spine input's pending delta removes rows.
    pub deletes: bool,
}

/// Everything [`plan`] needs to know about one node. Sizes are on one
/// stated scale — **stored bytes**, what the engine's catalog reports —
/// except delta sizes, which are the in-memory size of the pending
/// change sets.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeFacts {
    /// Whether the MV exists on storage (a first materialization is
    /// necessarily full).
    pub exists: bool,
    /// Whether the operator tree maintains an insert-only delta.
    pub maintainable: bool,
    /// Whether the operator tree maintains a delta that removes rows.
    pub maintainable_with_deletes: bool,
    /// Whether the node publishes its output delta to consumers (row-wise
    /// shapes do; aggregate and distinct merges absorb theirs).
    pub publishes: bool,
    /// Whether storage can persist an insert-only output delta by
    /// appending it as a segment instead of rewriting the MV.
    pub appendable: bool,
    /// MV parents (node indices) and how each feeds the node.
    pub parents: Vec<(usize, Feed)>,
    /// Pending change on the non-MV inputs.
    pub churn: BaseChurn,
    /// Stored bytes of the non-MV inputs; the planner adds each MV parent
    /// at its post-update size.
    pub base_bytes: u64,
    /// Stored bytes of the build-side inputs (MV parents included) the
    /// incremental path still reads in full.
    pub static_bytes: u64,
    /// Stored bytes of the MV itself.
    pub mv_bytes: u64,
    /// Observed runtime-cost summary for the node's identity, consulted
    /// under [`RefreshMode::Auto`] only.
    pub observed: Option<ObservedNodeCost>,
    /// The node's output delta when the scenario states it outright (a
    /// simulated churn annotation): it replaces both the input-delta sum
    /// and the output estimate, and zero means no change reaches the node.
    /// `None` derives both from the inputs, as the engine does.
    pub stated_delta: Option<u64>,
}

/// The run-wide inputs of [`plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// The maintenance policy.
    pub mode: RefreshMode,
    /// Whether delta tracking is on. Off — the engine has no pending log
    /// to consult — every node recomputes by policy.
    pub tracking: bool,
    /// Whether a failed run left the delta log poisoned: a reached node
    /// then recomputes, the only idempotent choice.
    pub poisoned: bool,
}

/// Per-node mode decisions and their consequences, fixed before a run so
/// execution timing cannot change what a refresh computes. Every vector is
/// indexed by node.
#[derive(Debug, Clone, PartialEq)]
pub struct ModePlan {
    /// How each node is brought up to date.
    pub modes: Vec<NodeMode>,
    /// Why each node ended up in its mode.
    pub reasons: Vec<ModeReason>,
    /// Where each node's decision got its cost numbers.
    pub cost: Vec<CostProvenance>,
    /// The predicted full and delta costs each [`RefreshMode::Auto`]
    /// decision compared (`None` where no costs were compared).
    pub predicted: Vec<Option<RefreshCosts>>,
    /// Nodes whose output delta is computed (row-wise incremental).
    pub publishes: Vec<bool>,
    /// Publishers whose Memory Catalog payload is their delta rather than
    /// their full output: every consumer maintains incrementally, so only
    /// delta-sized budget is reserved. Such a node enters the catalog
    /// (it is in [`ModePlan::flagged`]) whether or not the plan flagged
    /// it; if its delta does not fit, it falls back to a blocking write
    /// that spills the delta first.
    pub delta_payload: Vec<bool>,
    /// Nodes that must spill their delta to storage because some
    /// consumer recomputes, so the catalog cannot hold the delta for the
    /// incremental ones.
    pub spill: Vec<bool>,
    /// Nodes persisted by appending their insert-only delta as a segment:
    /// no consumer needs the full output in the Memory Catalog.
    pub append: Vec<bool>,
    /// Estimated output-delta bytes of each incremental node (0 otherwise):
    /// the observed amplification ratio when one is known, else the join
    /// fan-out (MV over spine-input size) when the node probes build
    /// sides, else the sum of its input deltas.
    pub delta_out: Vec<u64>,
    /// Effective flags: the plan's flags minus skipped nodes, plus every
    /// delta-payload node.
    pub flagged: FlagSet,
}

/// Fixes every node's maintenance mode, walking `plan.order` (a
/// topological order). `facts` is indexed by node and may be empty when
/// `policy.tracking` is off.
///
/// A node can be maintained incrementally only when the delta of *every*
/// input is known — base tables always are (the pending log), spine
/// parents when they are skipped or publish a delta, build-side parents
/// only when they are skipped. A node nothing reached is skipped outright.
/// Otherwise the MV must exist, the log must be clean, no build-side base
/// table may have churned, the operator tree must support the delta's
/// shape, and — under [`RefreshMode::Auto`] —
/// [`CostModel::refresh_costs`] must predict a win, pricing each
/// incremental parent at its post-update size.
///
/// A publisher whose every consumer maintains incrementally enters the
/// run's Memory Catalog with its delta as payload, flagged or not; the
/// admission replay still decides whether that delta fits.
pub fn plan(facts: &[NodeFacts], plan: &Plan, policy: Policy, cost: &CostModel) -> ModePlan {
    let n = plan.order.len();
    let mut mp = ModePlan {
        modes: vec![NodeMode::Full; n],
        reasons: vec![ModeReason::FullPolicy; n],
        cost: vec![CostProvenance::Policy; n],
        predicted: vec![None; n],
        publishes: vec![false; n],
        delta_payload: vec![false; n],
        spill: vec![false; n],
        append: vec![false; n],
        delta_out: vec![0; n],
        flagged: plan.flagged.clone(),
    };
    if !policy.tracking || policy.mode == RefreshMode::AlwaysFull {
        return mp;
    }
    // Whether each incremental node's output delta removes rows.
    let mut deletes = vec![false; n];
    for &v in &plan.order {
        let i = v.index();
        let f = &facts[i];
        if !f.exists {
            mp.reasons[i] = ModeReason::FirstMaterialization;
            continue;
        }
        let mut reached = f.churn.spine || f.churn.build;
        let mut delta = f.churn.bytes;
        let mut has_deletes = f.churn.deletes;
        let mut input = f.base_bytes;
        let mut known = true;
        for &(p, feed) in &f.parents {
            input += facts[p].mv_bytes;
            match mp.modes[p] {
                NodeMode::Skipped => {}
                NodeMode::Incremental if feed == Feed::Spine && mp.publishes[p] => {
                    delta += mp.delta_out[p];
                    has_deletes |= deletes[p];
                    reached = true;
                    // By the time this node runs the parent has grown by
                    // its applied delta, so the full path re-reads the
                    // post-update size: pricing the stale one understates
                    // recomputation.
                    input += mp.delta_out[p];
                }
                _ => {
                    known = false;
                    break;
                }
            }
        }
        if let Some(stated) = f.stated_delta {
            reached = stated > 0;
            delta = stated;
        }
        mp.reasons[i] = if !known {
            ModeReason::ParentRecomputed
        } else if !reached {
            // Safe even after a failed run: the contents were never
            // touched.
            mp.modes[i] = NodeMode::Skipped;
            ModeReason::NoChurn
        } else if policy.poisoned {
            ModeReason::PoisonedLog
        } else if f.churn.build {
            ModeReason::StaticChurn
        } else if !(if has_deletes {
            f.maintainable_with_deletes
        } else {
            f.maintainable
        }) {
            ModeReason::UnsupportedShape
        } else {
            let observed = f
                .observed
                .as_ref()
                .filter(|_| policy.mode == RefreshMode::Auto);
            let estimate = f.stated_delta.unwrap_or_else(|| {
                if let Some(ratio) = observed.and_then(|o| o.output_delta_ratio) {
                    (delta as f64 * ratio).max(1.0) as u64
                } else if f.static_bytes > 0 {
                    // A join fans the spine delta out against its build
                    // sides: amplify by the stored output per spine byte.
                    let spine = input.saturating_sub(f.static_bytes).max(1);
                    (delta as f64 * (f.mv_bytes as f64 / spine as f64).max(1.0)) as u64
                } else {
                    delta
                }
            });
            let incremental = match policy.mode {
                RefreshMode::AlwaysIncremental => true,
                RefreshMode::Auto => {
                    mp.cost[i] = if observed.is_some() {
                        CostProvenance::Observed
                    } else {
                        CostProvenance::Estimated
                    };
                    let costs = cost.refresh_costs(
                        input,
                        f.mv_bytes,
                        delta,
                        f.static_bytes,
                        (f.publishes && f.appendable && !has_deletes).then_some(estimate),
                        observed,
                    );
                    mp.predicted[i] = Some(costs);
                    costs.incremental_wins()
                }
                RefreshMode::AlwaysFull => unreachable!("returned above"),
            };
            if incremental {
                mp.modes[i] = NodeMode::Incremental;
                mp.publishes[i] = f.publishes;
                mp.delta_out[i] = estimate;
                deletes[i] = has_deletes;
                ModeReason::DeltaApplied
            } else {
                ModeReason::CostModel
            }
        };
    }

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, f) in facts.iter().enumerate() {
        for &(p, _) in &f.parents {
            children[p].push(i);
        }
    }
    mp.flagged = (0..n)
        .map(|i| plan.flagged.contains(sc_dag::NodeId(i)) && mp.modes[i] != NodeMode::Skipped)
        .collect();
    for (i, kids) in children.iter().enumerate() {
        let flagged = mp.flagged.contains(sc_dag::NodeId(i));
        let incremental_kids = kids
            .iter()
            .filter(|&&c| mp.modes[c] == NodeMode::Incremental)
            .count();
        // A delta every consumer reads belongs in the catalog, flagged or
        // not: it is delta-sized, and spilling it costs a write, reads and
        // a drop on the critical path.
        mp.delta_payload[i] = mp.publishes[i] && !kids.is_empty() && incremental_kids == kids.len();
        if mp.delta_payload[i] {
            mp.flagged.set(sc_dag::NodeId(i), true);
        }
        mp.spill[i] = mp.publishes[i] && incremental_kids > 0 && !mp.delta_payload[i];
        // The full output is never materialized on the append path, so no
        // consumer may expect it in the Memory Catalog.
        mp.append[i] = mp.publishes[i]
            && facts[i].appendable
            && !deletes[i]
            && !(flagged && !kids.is_empty() && !mp.delta_payload[i]);
    }
    mp
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dag::NodeId;

    const MIB: u64 = 1 << 20;

    /// An existing, fully maintainable, appendable row-wise node.
    fn node(parents: &[(usize, Feed)]) -> NodeFacts {
        NodeFacts {
            exists: true,
            maintainable: true,
            maintainable_with_deletes: true,
            publishes: true,
            appendable: true,
            parents: parents.to_vec(),
            base_bytes: 64 * MIB,
            mv_bytes: 32 * MIB,
            ..NodeFacts::default()
        }
    }

    fn churn(bytes: u64) -> BaseChurn {
        BaseChurn {
            spine: true,
            bytes,
            ..BaseChurn::default()
        }
    }

    fn policy(mode: RefreshMode) -> Policy {
        Policy {
            mode,
            tracking: true,
            poisoned: false,
        }
    }

    fn run(facts: &[NodeFacts], flagged: &[usize], policy: Policy) -> ModePlan {
        let n = facts.len();
        let p = Plan {
            order: (0..n).map(NodeId).collect(),
            flagged: FlagSet::from_nodes(n, flagged.iter().map(|&i| NodeId(i))),
        };
        super::plan(facts, &p, policy, &CostModel::paper())
    }

    /// One case per reason: the facts of node 1 (node 0, when present, is
    /// a parent with churn of its own), the policy, and the outcome.
    #[test]
    fn every_reason_has_its_rule() {
        let churned = NodeFacts {
            churn: churn(MIB),
            ..node(&[])
        };
        let full_parent = NodeFacts {
            maintainable: false,
            maintainable_with_deletes: false,
            ..churned.clone()
        };
        let inc = policy(RefreshMode::AlwaysIncremental);
        let cases: Vec<(&str, Vec<NodeFacts>, Policy, NodeMode, ModeReason)> = vec![
            (
                "always full",
                vec![churned.clone()],
                policy(RefreshMode::AlwaysFull),
                NodeMode::Full,
                ModeReason::FullPolicy,
            ),
            (
                "no tracking",
                vec![churned.clone()],
                Policy {
                    tracking: false,
                    ..inc
                },
                NodeMode::Full,
                ModeReason::FullPolicy,
            ),
            (
                "first materialization",
                vec![NodeFacts {
                    exists: false,
                    ..churned.clone()
                }],
                inc,
                NodeMode::Full,
                ModeReason::FirstMaterialization,
            ),
            (
                "poisoned",
                vec![churned.clone()],
                Policy {
                    poisoned: true,
                    ..inc
                },
                NodeMode::Full,
                ModeReason::PoisonedLog,
            ),
            (
                "parent recomputed",
                vec![full_parent.clone(), node(&[(0, Feed::Spine)])],
                inc,
                NodeMode::Full,
                ModeReason::ParentRecomputed,
            ),
            (
                "changed build parent",
                vec![churned.clone(), node(&[(0, Feed::Build)])],
                inc,
                NodeMode::Full,
                ModeReason::ParentRecomputed,
            ),
            (
                "static churn",
                vec![NodeFacts {
                    churn: BaseChurn {
                        build: true,
                        ..churn(MIB)
                    },
                    ..node(&[])
                }],
                inc,
                NodeMode::Full,
                ModeReason::StaticChurn,
            ),
            (
                "unsupported shape",
                vec![full_parent.clone()],
                inc,
                NodeMode::Full,
                ModeReason::UnsupportedShape,
            ),
            (
                "deletes over a delete-blind shape",
                vec![NodeFacts {
                    maintainable_with_deletes: false,
                    churn: BaseChurn {
                        deletes: true,
                        ..churn(MIB)
                    },
                    ..node(&[])
                }],
                inc,
                NodeMode::Full,
                ModeReason::UnsupportedShape,
            ),
            (
                "cost model",
                vec![NodeFacts {
                    publishes: false,
                    churn: churn(64 * MIB),
                    mv_bytes: 64 * MIB,
                    ..node(&[])
                }],
                policy(RefreshMode::Auto),
                NodeMode::Full,
                ModeReason::CostModel,
            ),
            (
                "no churn",
                vec![node(&[])],
                inc,
                NodeMode::Skipped,
                ModeReason::NoChurn,
            ),
            (
                "stated zero delta",
                vec![churned.clone(), {
                    let mut f = node(&[(0, Feed::Spine)]);
                    f.stated_delta = Some(0);
                    f
                }],
                inc,
                NodeMode::Skipped,
                ModeReason::NoChurn,
            ),
            (
                "delta applied",
                vec![churned.clone(), node(&[(0, Feed::Spine)])],
                inc,
                NodeMode::Incremental,
                ModeReason::DeltaApplied,
            ),
            (
                "auto win",
                vec![churned.clone()],
                policy(RefreshMode::Auto),
                NodeMode::Incremental,
                ModeReason::DeltaApplied,
            ),
        ];
        let mut seen = std::collections::HashSet::new();
        for (name, facts, policy, mode, reason) in cases {
            let last = facts.len() - 1;
            let mp = run(&facts, &[], policy);
            assert_eq!((mp.modes[last], mp.reasons[last]), (mode, reason), "{name}");
            seen.insert(format!("{reason:?}"));
        }
        assert_eq!(seen.len(), 9, "every ModeReason variant is covered");
    }

    #[test]
    fn cost_provenance_says_where_the_numbers_came_from() {
        let facts = vec![NodeFacts {
            churn: churn(MIB),
            ..node(&[])
        }];
        let estimated = run(&facts, &[], policy(RefreshMode::Auto));
        assert_eq!(estimated.cost[0], CostProvenance::Estimated);
        let forced = run(&facts, &[], policy(RefreshMode::AlwaysIncremental));
        assert_eq!(forced.cost[0], CostProvenance::Policy);
        let observed = ObservedNodeCost {
            full_compute_s_per_byte: None,
            inc_compute_s_per_byte: None,
            write_s_per_byte: None,
            output_delta_ratio: None,
            samples: 1,
        };
        let warm = vec![NodeFacts {
            observed: Some(observed),
            ..facts[0].clone()
        }];
        assert_eq!(
            run(&warm, &[], policy(RefreshMode::Auto)).cost[0],
            CostProvenance::Observed
        );
        // Observations are an Auto input only.
        assert_eq!(
            run(&warm, &[], policy(RefreshMode::AlwaysIncremental)).cost[0],
            CostProvenance::Policy
        );
    }

    #[test]
    fn output_delta_estimate_has_three_sources() {
        let inc = policy(RefreshMode::AlwaysIncremental);
        // The input sum: a join-free node passes its delta through.
        let plain = NodeFacts {
            churn: churn(MIB),
            ..node(&[])
        };
        assert_eq!(
            run(std::slice::from_ref(&plain), &[], inc).delta_out[0],
            MIB
        );
        // Join amplification: the stored MV over the spine-input size.
        let join = NodeFacts {
            base_bytes: 48 * MIB,
            static_bytes: 16 * MIB,
            mv_bytes: 128 * MIB,
            ..plain.clone()
        };
        assert_eq!(
            run(std::slice::from_ref(&join), &[], inc).delta_out[0],
            4 * MIB
        );
        // An observed ratio beats the guess — under Auto, which is the
        // only policy that consults observations.
        let observed = NodeFacts {
            observed: Some(ObservedNodeCost {
                full_compute_s_per_byte: None,
                inc_compute_s_per_byte: None,
                write_s_per_byte: None,
                output_delta_ratio: Some(2.5),
                samples: 1,
            }),
            ..join
        };
        let auto = run(
            std::slice::from_ref(&observed),
            &[],
            policy(RefreshMode::Auto),
        );
        assert_eq!(auto.modes[0], NodeMode::Incremental);
        assert_eq!(auto.delta_out[0], MIB * 5 / 2);
        assert_eq!(run(&[observed], &[], inc).delta_out[0], 4 * MIB);
        // A stated delta replaces every estimate.
        let stated = NodeFacts {
            stated_delta: Some(3 * MIB),
            ..plain
        };
        assert_eq!(run(&[stated], &[], inc).delta_out[0], 3 * MIB);
    }

    #[test]
    fn deltas_propagate_along_the_spine() {
        let facts = vec![
            NodeFacts {
                churn: BaseChurn {
                    deletes: true,
                    ..churn(MIB)
                },
                ..node(&[])
            },
            NodeFacts {
                churn: churn(MIB / 2),
                ..node(&[(0, Feed::Spine)])
            },
        ];
        let mp = run(&facts, &[], policy(RefreshMode::AlwaysIncremental));
        assert_eq!(mp.modes, vec![NodeMode::Incremental; 2]);
        assert_eq!(mp.delta_out[1], MIB + MIB / 2, "parent delta + own churn");
        // The parent's deletes reach the child and rule out its append.
        assert!(!mp.append[0] && !mp.append[1]);
    }

    #[test]
    fn a_child_prices_its_parents_post_update_size() {
        // Incremental costs 3δ here (delta read, catalog read, appended
        // write); the full path reads the parent and rewrites the child.
        // With P + C ≤ 3δ < P + δ + C, only the grown parent tips the
        // child to incremental.
        let cm = CostModel {
            disk_read_bps: 100e6,
            disk_write_bps: 100e6,
            mem_bps: 100e6,
            disk_latency_s: 0.0,
        };
        let (parent, child, delta) = (4 * MIB, 2 * MIB, 5 * MIB / 2);
        assert!(!cm.incremental_refresh_wins(parent, child, delta, 0, Some(delta), None));
        assert!(cm.incremental_refresh_wins(parent + delta, child, delta, 0, Some(delta), None));
        let facts = vec![
            NodeFacts {
                churn: churn(delta),
                base_bytes: 64 * MIB,
                mv_bytes: parent,
                ..node(&[])
            },
            NodeFacts {
                base_bytes: 0,
                mv_bytes: child,
                ..node(&[(0, Feed::Spine)])
            },
        ];
        let p = Plan::unoptimized(vec![NodeId(0), NodeId(1)]);
        let mp = super::plan(&facts, &p, policy(RefreshMode::Auto), &cm);
        assert_eq!(mp.modes, vec![NodeMode::Incremental; 2]);
    }

    #[test]
    fn payload_spill_and_append_follow_the_consumers() {
        // 0 feeds an incremental 1 and a recomputing 2; 3 feeds only an
        // incremental 4.
        let churned = NodeFacts {
            churn: churn(MIB),
            ..node(&[])
        };
        let blind = NodeFacts {
            maintainable: false,
            maintainable_with_deletes: false,
            ..node(&[(0, Feed::Spine)])
        };
        let facts = vec![
            churned.clone(),
            node(&[(0, Feed::Spine)]),
            blind,
            churned,
            node(&[(3, Feed::Spine)]),
        ];
        let inc = policy(RefreshMode::AlwaysIncremental);
        let unflagged = run(&facts, &[], inc);
        // 3's consumers all maintain incrementally: its delta enters the
        // catalog although the plan did not flag it, so nothing spills.
        // 0 has a recomputing consumer, so its delta spills for 1. Every
        // insert-only publisher appends.
        assert_eq!(unflagged.spill, vec![true, false, false, false, false]);
        assert_eq!(
            unflagged.delta_payload,
            vec![false, false, false, true, false]
        );
        assert_eq!(
            unflagged.flagged.iter().collect::<Vec<_>>(),
            vec![NodeId(3)]
        );
        assert_eq!(
            unflagged.append,
            vec![true, true, false, true, true],
            "2 recomputes"
        );

        // The catalog still decides: under a budget smaller than 3's
        // delta the replay refuses it, and the executor's fallback write
        // spills the delta for 4 to read.
        let parents: Vec<Vec<usize>> = facts
            .iter()
            .map(|f| f.parents.iter().map(|&(p, _)| p).collect())
            .collect();
        let order: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut tight = crate::AdmissionReplay::new(&order, &unflagged.flagged, &parents, MIB - 1);
        let steps = tight.advance(&[true; 5], &unflagged.delta_out);
        assert_eq!(
            steps,
            vec![crate::CatalogStep::Decide {
                node: 3,
                admit: false,
                used: 0
            }]
        );

        let flagged = run(&facts, &[0, 3], inc);
        // Flagging 3 changes nothing: its payload is the delta, nothing
        // spills, and it still appends.
        assert!(flagged.delta_payload[3] && !flagged.spill[3] && flagged.append[3]);
        // 0 has a recomputing consumer, which needs the full output in
        // the catalog: no delta payload, so the delta spills and the node
        // takes the rewrite path.
        assert!(!flagged.delta_payload[0] && flagged.spill[0] && !flagged.append[0]);

        // Effective flags drop skipped nodes; an unappendable shape never
        // appends.
        let mut quiet = facts.clone();
        quiet[3].churn = BaseChurn::default();
        quiet[0].appendable = false;
        let mp = run(&quiet, &[0, 3], inc);
        assert_eq!(mp.modes[3], NodeMode::Skipped);
        assert!(!mp.flagged.contains(NodeId(3)) && mp.flagged.contains(NodeId(0)));
        assert!(!mp.append[0]);
    }
}
