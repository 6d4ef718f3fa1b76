//! The speedup-score estimation model (§IV, "Speedup Scores").
//!
//! The score of flagging node `vi` relative to the fully-sequential baseline
//! is
//!
//! ```text
//! ti = Σ_{(vi,vj)∈E} [ read(vj | vi on disk) − read(vj | vi in memory) ]
//!    + [ time(create vi on disk) − time(create vi in memory) ]
//! ```
//!
//! Every downstream consumer reads `vi` from memory instead of storage, and
//! `vi`'s own materialization is moved off the critical path (it proceeds in
//! parallel with downstream computation, §III-C).
//!
//! The model is parameterized by storage/memory bandwidths, defaulting to
//! the paper's measured environment: 519.8 MB/s disk read, 358.9 MB/s disk
//! write, 175 µs read latency.

use serde::{Deserialize, Serialize};

use sc_dag::Dag;

use crate::problem::MvMeta;
use crate::{Problem, Result};

/// Number of bytes in a mebibyte/gibibyte, used by the defaults below.
pub const MIB: u64 = 1 << 20;
/// Bytes per gibibyte.
pub const GIB: u64 = 1 << 30;

/// Runtime-observed per-node cost summary, distilled from persisted
/// refresh observations (the engine's observation sidecar) or a
/// simulator annotation mirroring it.
///
/// The static [`CostModel`] is a pure I/O model — it admits in its own
/// docs that compute is not modeled. This summary carries the terms real
/// runs expose: per-byte compute throughput under full recomputation and
/// under incremental maintenance, the measured write rate of the node's
/// materialization, and the observed output-delta amplification of its
/// append path. Every field is optional: a summary only contributes the
/// terms it has actually seen, and decisions fall back to the static
/// estimates for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservedNodeCost {
    /// Compute seconds per *output* byte measured on representative
    /// full recomputations. Output bytes (not input) because that is the
    /// one size every observation records on the same storage scale the
    /// planner prices with; for a stable shape the ratio is a constant of
    /// the operator tree either way.
    pub full_compute_s_per_byte: Option<f64>,
    /// Compute seconds per output-delta byte measured on representative
    /// incremental refreshes. `None` prices the delta path at the share of
    /// the full path's compute its input delta is of the full path's
    /// input (see [`CostModel::refresh_costs`]).
    pub inc_compute_s_per_byte: Option<f64>,
    /// Blocking-write seconds per byte actually persisted, from runs
    /// whose write landed on the critical path.
    pub write_s_per_byte: Option<f64>,
    /// Observed output-delta / input-delta amplification from append-path
    /// refreshes — the measured replacement for the stored-size /
    /// spine-size ratio the planner otherwise guesses with.
    pub output_delta_ratio: Option<f64>,
    /// Representative observations backing the summary.
    pub samples: usize,
}

impl ObservedNodeCost {
    /// Whether the summary carries any compute signal at all; without
    /// one the adaptive decision is identical to the static one, so
    /// callers may skip the observed path entirely.
    pub fn has_compute(&self) -> bool {
        self.full_compute_s_per_byte.is_some() || self.inc_compute_s_per_byte.is_some()
    }
}

/// The two predicted costs [`RefreshMode::Auto`](crate::RefreshMode)
/// compares for one node ([`CostModel::refresh_costs`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshCosts {
    /// Predicted seconds of recomputing the node in full.
    pub full_s: f64,
    /// Predicted seconds of maintaining it from its input deltas.
    pub incremental_s: f64,
}

impl RefreshCosts {
    /// Whether the delta path is predicted strictly cheaper.
    pub fn incremental_wins(&self) -> bool {
        self.incremental_s < self.full_s
    }
}

/// A linear I/O cost model: `time(bytes) = latency + bytes / bandwidth`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// External-storage read bandwidth, bytes/second.
    pub disk_read_bps: f64,
    /// External-storage write bandwidth, bytes/second.
    pub disk_write_bps: f64,
    /// Memory-catalog effective bandwidth, bytes/second (covers the cost of
    /// handing in-memory tables to the execution engine).
    pub mem_bps: f64,
    /// Fixed per-access storage latency, seconds.
    pub disk_latency_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

impl CostModel {
    /// The environment measured in §VI-A of the paper: 519.8 MB/s read,
    /// 358.9 MB/s write, 175 µs latency; memory at 8 GiB/s effective.
    pub fn paper() -> Self {
        CostModel {
            disk_read_bps: 519.8 * 1e6,
            disk_write_bps: 358.9 * 1e6,
            mem_bps: 8.0 * GIB as f64,
            disk_latency_s: 175e-6,
        }
    }

    /// Time to read `bytes` from external storage.
    pub fn disk_read_time(&self, bytes: u64) -> f64 {
        self.disk_latency_s + bytes as f64 / self.disk_read_bps
    }

    /// Time to write `bytes` to external storage.
    pub fn disk_write_time(&self, bytes: u64) -> f64 {
        self.disk_latency_s + bytes as f64 / self.disk_write_bps
    }

    /// Time to read `bytes` from the Memory Catalog.
    pub fn mem_read_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bps
    }

    /// Time to create `bytes` in the Memory Catalog.
    pub fn mem_write_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bps
    }

    /// Predicted seconds of both ways to bring an MV up to date, given
    /// `input_bytes` of (already-updated) inputs the full path would
    /// re-read, `output_bytes` of current MV contents, `delta_bytes` of
    /// pending changes, `static_bytes` of inputs the incremental path
    /// *still* reads in full (the build sides of a delta-join: the
    /// unchanged tables probed by the propagated delta; 0 for pure
    /// row-wise chains and aggregate merges), and — when the delta can be
    /// **appended** as a segment (an insert-only, delta-publishing shape on
    /// segmented storage) — `append_bytes`, the estimated size of the
    /// *output* delta the append would persist. A join spine fans its
    /// input delta out against the build sides, so the output delta can be
    /// much larger than `delta_bytes`; callers must pass the amplified
    /// estimate, not the input size. `None` means the rewrite path
    /// (deletes in the stream, or an aggregate merge).
    ///
    /// Reads: the full path scans every input from external storage; the
    /// incremental path reads the static build sides plus delta-sized
    /// change sets (charged once at storage speed for a possible spilled
    /// delta file and once at memory speed for the in-memory log), and —
    /// only on the rewrite path — the old MV contents it applies the
    /// delta to.
    ///
    /// Writes: the full path rewrites the MV (`output_bytes`); an
    /// appendable incremental refresh writes an `append_bytes`-sized
    /// segment, while a non-appendable one re-reads and rewrites the MV
    /// too. This write term is what lets `Auto`
    /// pick delta maintenance for wide join hubs whose contents out-size
    /// their churning input: the avoided O(MV) read *and* write both
    /// scale with MV size, the delta terms do not.
    ///
    /// Compute is not modeled statically — the delta operators' work is
    /// proportional to `delta_bytes` and therefore dominated by the terms
    /// already present.
    ///
    /// Runtime feedback: when `observed` carries a compute-throughput
    /// sample for this node shape, both sides gain the compute term the
    /// static model cannot see. The full path is charged the observed
    /// per-output-byte rate over its whole output. The incremental path
    /// is charged its own measured rate over its output delta; until an
    /// incremental run has been measured, it is charged the share of the
    /// full path's compute that its input delta is of the full path's
    /// input (`delta_bytes / input_bytes`). The full-path rate is per
    /// *output* byte, so applying it to a delta would price an aggregate
    /// (tiny output, huge input) as if every delta byte cost what an
    /// output byte does. Without a sample (`None`, or a summary with no
    /// compute signal) the prediction is bit-for-bit the static one, so a
    /// missing / corrupt / not-yet-warm observation sidecar can never flip
    /// a decision the wrong way — it merely leaves the static estimate in
    /// place.
    pub fn refresh_costs(
        &self,
        input_bytes: u64,
        output_bytes: u64,
        delta_bytes: u64,
        static_bytes: u64,
        append_bytes: Option<u64>,
        observed: Option<&ObservedNodeCost>,
    ) -> RefreshCosts {
        // Zero-byte accesses never happen (a join-free spine reads no
        // static table), so they must not be charged the fixed latency —
        // at small scales those phantom latencies would drown the real
        // byte terms and flip latency-bound decisions.
        let rd = |bytes: u64| {
            if bytes == 0 {
                0.0
            } else {
                self.disk_read_time(bytes)
            }
        };
        let wr = |bytes: u64| {
            if bytes == 0 {
                0.0
            } else {
                self.disk_write_time(bytes)
            }
        };
        let mut full = rd(input_bytes) + wr(output_bytes);
        let mut incremental = rd(static_bytes) + rd(delta_bytes) + self.mem_read_time(delta_bytes);
        incremental += match append_bytes {
            Some(out_delta) => wr(out_delta),
            None => rd(output_bytes) + wr(output_bytes),
        };
        if let Some(obs) = observed.filter(|o| o.has_compute()) {
            let full_compute = obs.full_compute_s_per_byte.unwrap_or(0.0) * output_bytes as f64;
            full += full_compute;
            incremental += match obs.inc_compute_s_per_byte {
                Some(rate) => rate * append_bytes.unwrap_or(delta_bytes) as f64,
                None => full_compute * (delta_bytes as f64 / input_bytes.max(1) as f64),
            };
        }
        RefreshCosts {
            full_s: full,
            incremental_s: incremental,
        }
    }

    /// Whether maintaining an MV incrementally is predicted to beat a full
    /// recomputation: [`CostModel::refresh_costs`] with the same
    /// arguments, compared.
    pub fn incremental_refresh_wins(
        &self,
        input_bytes: u64,
        output_bytes: u64,
        delta_bytes: u64,
        static_bytes: u64,
        append_bytes: Option<u64>,
        observed: Option<&ObservedNodeCost>,
    ) -> bool {
        self.refresh_costs(
            input_bytes,
            output_bytes,
            delta_bytes,
            static_bytes,
            append_bytes,
            observed,
        )
        .incremental_wins()
    }

    /// The paper's speedup score `ti` for a node of output size `size` with
    /// `num_children` downstream consumers.
    ///
    /// Runtime feedback: when `observed` carries a measured write rate
    /// for this node shape, the "create `vi` off the critical path" saving
    /// is priced at the rate the node's materializations have actually
    /// achieved instead of the model's global write bandwidth. (The
    /// per-consumer read saving stays modeled: a consumer's observed read
    /// time covers *all* its inputs and cannot be attributed to one
    /// parent.) Without a sample the score is the static one.
    pub fn speedup_score(
        &self,
        size: u64,
        num_children: usize,
        observed: Option<&ObservedNodeCost>,
    ) -> f64 {
        let disk_write = match observed.and_then(|o| o.write_s_per_byte) {
            Some(rate) => rate * size as f64,
            None => self.disk_write_time(size),
        };
        let read_saving = self.disk_read_time(size) - self.mem_read_time(size);
        let write_saving = disk_write - self.mem_write_time(size);
        (num_children as f64 * read_saving + write_saving).max(0.0)
    }

    /// Annotates a dependency graph of `(name, output size)` pairs with
    /// speedup scores, producing an S/C Opt instance. `observed` resolves
    /// a node name to its [`ObservedNodeCost`] summary (when a shape
    /// fingerprint matched; `|_| None` scores every node statically).
    pub fn build_problem(
        &self,
        graph: &Dag<(String, u64)>,
        budget: u64,
        observed: impl Fn(&str) -> Option<ObservedNodeCost>,
    ) -> Result<Problem> {
        let annotated = graph.map(|v, (name, size)| {
            MvMeta::new(
                name.clone(),
                *size,
                self.speedup_score(*size, graph.out_degree(v), observed(name).as_ref()),
            )
        });
        Problem::new(annotated, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_sane() {
        let m = CostModel::paper();
        // Reading 1 GiB: ~2.07 s at 519.8 MB/s.
        let t = m.disk_read_time(GIB);
        assert!((t - (GIB as f64 / (519.8e6) + 175e-6)).abs() < 1e-9);
        assert!(m.disk_write_time(GIB) > m.disk_read_time(GIB));
        assert!(m.mem_read_time(GIB) < m.disk_read_time(GIB) / 10.0);
    }

    #[test]
    fn score_grows_with_fanout_and_size() {
        let m = CostModel::paper();
        let s1 = m.speedup_score(GIB, 1, None);
        let s2 = m.speedup_score(GIB, 2, None);
        let s_big = m.speedup_score(4 * GIB, 1, None);
        assert!(s2 > s1);
        assert!(s_big > s1);
        // Zero children still saves the write.
        assert!(m.speedup_score(GIB, 0, None) > 0.0);
        // A zero-byte table only saves the fixed access latency.
        assert!((m.speedup_score(0, 0, None) - m.disk_latency_s).abs() < 1e-12);
    }

    #[test]
    fn score_is_never_negative() {
        // A model where memory is slower than disk (degenerate) must clamp.
        let m = CostModel {
            disk_read_bps: 1e9,
            disk_write_bps: 1e9,
            mem_bps: 1e6,
            disk_latency_s: 0.0,
        };
        assert_eq!(m.speedup_score(GIB, 3, None), 0.0);
    }

    #[test]
    fn incremental_wins_for_small_outputs_and_deltas() {
        let m = CostModel::paper();
        // Aggregate-shaped node: huge input, tiny MV, tiny delta (merge
        // path: not appendable).
        assert!(m.incremental_refresh_wins(GIB, MIB, MIB / 10, 0, None, None));
        // Full-copy-shaped node on the rewrite path: the old MV is as big
        // as the input, so re-reading and rewriting it buys nothing.
        assert!(!m.incremental_refresh_wins(GIB, GIB, MIB, 0, None, None));
        // A delta as large as the input cannot win either way.
        assert!(!m.incremental_refresh_wins(GIB, MIB, 2 * GIB, 0, None, None));
        assert!(!m.incremental_refresh_wins(GIB, MIB, 2 * GIB, 0, Some(2 * GIB), None));
        // Join-hub-shaped node: a small static dimension the delta still
        // probes barely dents the win over re-scanning the huge fact side…
        assert!(m.incremental_refresh_wins(GIB, 64 * MIB, MIB, 32 * MIB, None, None));
        // …but a build side as large as the whole input erases it.
        assert!(!m.incremental_refresh_wins(GIB, 64 * MIB, MIB, GIB, None, None));
    }

    #[test]
    fn append_write_term_flips_wide_hub_decisions() {
        let m = CostModel::paper();
        // The ROADMAP gap: a wide hub MV whose contents out-size its
        // churning input. The rewrite path loses (O(MV) read + write)…
        assert!(!m.incremental_refresh_wins(GIB, 2 * GIB, MIB, 64 * MIB, None, None));
        // …but the append path skips the old-MV read and writes a
        // delta-sized segment, so the same node now wins under Auto —
        // even priced at a 4x join-fan-out-amplified output delta.
        assert!(m.incremental_refresh_wins(GIB, 2 * GIB, MIB, 64 * MIB, Some(4 * MIB), None));
        // The append win grows with MV size at fixed delta: once it wins,
        // a larger MV only widens the avoided-write gap.
        assert!(m.incremental_refresh_wins(GIB, 8 * GIB, MIB, 64 * MIB, Some(4 * MIB), None));
        // An output delta amplified to the size of the MV itself erases
        // the append advantage…
        assert!(!m.incremental_refresh_wins(GIB, 2 * GIB, MIB, 64 * MIB, Some(3 * GIB), None));
        // …as do static build sides out-weighing the full path's whole
        // read+write bill.
        assert!(!m.incremental_refresh_wins(GIB, MIB, MIB, 4 * GIB, Some(MIB), None));
    }

    /// A summary with only the given full-path compute rate.
    fn full_rate(rate: f64) -> ObservedNodeCost {
        ObservedNodeCost {
            full_compute_s_per_byte: Some(rate),
            inc_compute_s_per_byte: None,
            write_s_per_byte: None,
            output_delta_ratio: None,
            samples: 1,
        }
    }

    #[test]
    fn observed_compute_flips_latency_bound_merge_decisions() {
        let m = CostModel::paper();
        // The compute-bound blind spot: a wide aggregate whose output is
        // as large as its input over small files. The merge path re-reads
        // and rewrites the MV, so on I/O alone recomputation looks
        // cheaper (one access fewer)…
        let (input, output, delta) = (MIB, MIB, 16 * 1024);
        assert!(!m.incremental_refresh_wins(input, output, delta, 0, None, None));
        // …and an empty summary changes nothing, bit for bit.
        let cold = ObservedNodeCost {
            full_compute_s_per_byte: None,
            inc_compute_s_per_byte: None,
            write_s_per_byte: None,
            output_delta_ratio: None,
            samples: 0,
        };
        assert!(!m.incremental_refresh_wins(input, output, delta, 0, None, Some(&cold)));
        // A measured full recomputation at 50 ms/MiB dwarfs the phantom
        // I/O edge: the delta path only pays that rate over its delta.
        let obs = full_rate(0.05 / MIB as f64);
        assert!(m.incremental_refresh_wins(input, output, delta, 0, None, Some(&obs)));
        // The observed layer is symmetric: a *cheap* measured compute
        // leaves the static I/O decision in charge.
        let tiny = full_rate(1e-12);
        assert!(!m.incremental_refresh_wins(input, output, delta, 0, None, Some(&tiny)));
    }

    #[test]
    fn full_path_sample_prices_an_aggregate_delta_by_its_input_share() {
        let m = CostModel::paper();
        // An aggregate over a join hub: 6 MiB in, 100 B out, 1 % churn on
        // the merge path. Only a full recomputation has been measured:
        // 2 ms, i.e. 20 µs per *output* byte.
        let (input, output) = (6 * MIB, 100);
        let delta = input / 100;
        let obs = full_rate(0.002 / output as f64);
        assert!(m.incremental_refresh_wins(input, output, delta, 0, None, None));
        let costs = m.refresh_costs(input, output, delta, 0, None, Some(&obs));
        assert!(costs.incremental_wins(), "{costs:?}");
        // The delta path is charged 1 % of the full path's 2 ms, not the
        // per-output-byte rate times 61 KiB of delta (≈ 1.3 s).
        let stat = m.refresh_costs(input, output, delta, 0, None, None);
        assert!((costs.full_s - stat.full_s - 0.002).abs() < 1e-12);
        assert!((costs.incremental_s - stat.incremental_s - 0.002 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn observed_incremental_rate_overrides_the_full_fallback() {
        let m = CostModel::paper();
        let (input, output, delta) = (MIB, MIB, 16 * 1024);
        // A measured incremental rate *worse* than the full-path rate
        // (a merge that rebuilds the whole group table) can veto the win
        // the full-rate fallback would have granted.
        let mut obs = full_rate(0.05 / MIB as f64);
        obs.inc_compute_s_per_byte = Some(100.0 * 0.05 / MIB as f64);
        assert!(!m.incremental_refresh_wins(input, output, delta, 0, None, Some(&obs)));
    }

    #[test]
    fn observed_write_rate_reprices_the_flag_score() {
        let m = CostModel::paper();
        // A summary without a write sample scores exactly like no summary.
        assert_eq!(
            m.speedup_score(GIB, 2, Some(&full_rate(1e-9))),
            m.speedup_score(GIB, 2, None)
        );
        // A node whose materialization runs at half the modeled bandwidth
        // is worth *more* off the critical path…
        let slow = ObservedNodeCost {
            full_compute_s_per_byte: None,
            inc_compute_s_per_byte: None,
            write_s_per_byte: Some(2.0 / m.disk_write_bps),
            output_delta_ratio: None,
            samples: 3,
        };
        assert!(m.speedup_score(GIB, 2, Some(&slow)) > m.speedup_score(GIB, 2, None));
        // …and a degenerate fast one still clamps at zero.
        let fast = ObservedNodeCost {
            write_s_per_byte: Some(0.0),
            ..slow
        };
        assert!(m.speedup_score(0, 0, Some(&fast)) >= 0.0);
    }

    #[test]
    fn build_problem_annotates_scores() {
        let g: Dag<(String, u64)> = Dag::from_parts(
            [("a".to_string(), GIB), ("b".to_string(), MIB)],
            [(0usize, 1usize)],
        )
        .unwrap();
        let m = CostModel::paper();
        let p = m.build_problem(&g, GIB, |_| None).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.score(sc_dag::NodeId(0)) - m.speedup_score(GIB, 1, None)).abs() < 1e-12);
        assert!((p.score(sc_dag::NodeId(1)) - m.speedup_score(MIB, 0, None)).abs() < 1e-12);
        assert_eq!(p.graph().node(sc_dag::NodeId(0)).name, "a");
    }
}
