//! The benchmark's metric tables — the same names, units, directions and
//! bounds as `BENCHMARK.json` — and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", 0.25),
    e2e("refresh_p50_ms", "ms", 0.25),
    e2e("refresh_p90_ms", "ms", 0.25),
    e2e("freshness_p50_ms", "ms", 0.25),
    e2e("ingest_p50_ms", "ms", 0.25),
    e2e("write_amp", "B/B", 0.05),
    e2e("space_amp", "B/B", 0.05),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("read_big_p50_ms", "ms", 0.25),
    e2e("query_p50_us", "us", 0.25),
];

use Better::{Higher, Lower};

/// Single-layer measurements, reported by the traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Spec] = &[
    // set-up
    layer("workload.generate_s", "s", Lower),
    layer("workload.load_s", "s", Lower),
    layer("session.profile_refresh_ms", "ms", Lower),
    layer("core.optimize_ms", "ms", Lower),
    layer("core.flagged_nodes", "count", Higher),
    // one refresh, as the controller reports it (means per refresh)
    layer("controller.read_s", "s", Lower),
    layer("controller.compute_s", "s", Lower),
    layer("controller.write_s", "s", Lower),
    layer("controller.drain_s", "s", Lower),
    layer("session.overhead_ms", "ms", Lower),
    layer("controller.nodes_full", "count", Lower),
    layer("controller.nodes_incremental", "count", Higher),
    layer("controller.nodes_skipped", "count", Higher),
    layer("controller.appended_bytes", "B", Higher),
    layer("controller.lanes2_ratio", "ratio", Lower),
    layer("memory.peak_bytes", "B", Lower),
    layer("memory.fallbacks", "count", Lower),
    layer("memory.disk_reads", "count", Lower),
    // storage reads
    layer("disk.read_table_ms", "ms", Lower),
    layer("disk.read_mb_s", "MB/s", Higher),
    layer("disk.pin_read_ms", "ms", Lower),
    layer("format.decode_mb_s", "MB/s", Higher),
    layer("format.fnv1a64_mb_s", "MB/s", Higher),
    layer("format.checksum_share", "share", Lower),
    // storage writes
    layer("disk.write_table_ms", "ms", Lower),
    layer("disk.write_mb_s", "MB/s", Higher),
    layer("format.encode_mb_s", "MB/s", Higher),
    layer("disk.append_table_ms", "ms", Lower),
    layer("disk.compact_ms", "ms", Lower),
    layer("disk.compact_bytes", "B", Lower),
    layer("disk.segments_max", "count", Lower),
    layer("disk.bytes_written", "B", Lower),
    layer("disk.bytes_on_disk", "B", Lower),
    layer("disk.retained_files", "count", Lower),
    layer("disk.gc_failed_deletes", "count", Lower),
    // operators
    layer("exec.join_mrows_s", "Mrows/s", Higher),
    layer("exec.aggregate_mrows_s", "Mrows/s", Higher),
    layer("exec.filter_mrows_s", "Mrows/s", Higher),
    layer("exec.scan_clone_ms", "ms", Lower),
    layer("exec.delta_join_ms", "ms", Lower),
    layer("exec.merge_aggregate_ms", "ms", Lower),
    layer("delta.ingest_ms", "ms", Lower),
    layer("delta.pending_bytes", "B", Lower),
    // the hot read: microseconds of work in-process, and over the wire
    // three thread wake-ups on two shared vCPUs — neither its median nor
    // its tail repeats within a quarter from one batch of runs to the next
    layer("read_hot_p50_us", "us", Lower),
    layer("read_hot_p90_us", "us", Lower),
    layer("session.snapshot_read_ms", "ms", Lower),
    layer("session.query_ms", "ms", Lower),
    // serving
    layer("protocol.encode_request_us", "us", Lower),
    layer("protocol.decode_request_us", "us", Lower),
    layer("server.side_p50_us", "us", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("cache.hit_ratio", "share", Higher),
    layer("cache.evicted", "count", Lower),
    layer("cache.bytes", "B", Lower),
    layer("server.read_hot_p99_us", "us", Lower),
    layer("server.read_hot_p999_us", "us", Lower),
    layer("server.read_big_p90_ms", "ms", Lower),
    layer("server.query_p99_us", "us", Lower),
    layer("server.freshness_p90_ms", "ms", Lower),
    layer("server.rejected_overloaded", "count", Lower),
    layer("server.rejected_deadline", "count", Lower),
    layer("server.bytes_out_mb_s", "MB/s", Higher),
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.achieved_rate", "1/s", Higher),
    // outcome shares (0 on a healthy run, so not end-to-end metrics)
    layer("slo_miss_share", "share", Lower),
    layer("failed_share", "share", Lower),
    // the traced run itself
    layer("trace.walk_over_e2e", "ratio", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics, for the human report.
    pub samples: BTreeMap<&'static str, usize>,
    /// Free-form lines for the human report (failed checks, regime notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the report readable if something fails every round.
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Adds the checks another thread of the same run counted.
    pub fn absorb(&mut self, part: Outcome) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.notes.extend(part.notes);
    }

    /// The metrics of `table`, in table order. A `required` metric must
    /// be present, finite and non-zero; an optional one (a layer this
    /// workload does not exercise) may be absent and then reads 0.
    /// Anything else reads 0 and counts as a failed check.
    pub fn collect(&mut self, table: &[Spec], required: bool) -> Vec<(Spec, f64)> {
        let mut out = Vec::with_capacity(table.len());
        for spec in table {
            let value = match self.values.get(spec.name).copied() {
                Some(v) if v.is_finite() && !(required && v == 0.0) => v,
                None if !required => 0.0,
                other => {
                    let name = spec.name;
                    self.check(false, || format!("metric {name} unusable: {other:?}"));
                    0.0
                }
            };
            out.push((*spec, value));
        }
        out
    }
}

/// The one-line JSON result the driver reads from the last stdout line.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(Spec, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, (spec, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            spec.name, v, spec.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("setup_s", 0.8127);
        let line = result_json(o.attempted, o.failed, &[(END_TO_END[0], 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut o = Outcome::default();
        o.set("setup_s", f64::NAN);
        let got = o.collect(&END_TO_END[..2], true);
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0.0, 0.0]
        );
        assert_eq!(o.failed, 2);
        // An unexercised layer reads 0 without failing.
        let mut o = Outcome::default();
        o.collect(&PER_LAYER[..3], false);
        assert_eq!(o.failed, 0);
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\"",
                    spec.name, spec.unit
                )),
                "{} [{}] is not in BENCHMARK.json",
                spec.name,
                spec.unit
            );
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(
            names,
            crate::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for spec in END_TO_END {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                    spec.name, spec.unit, spec.bound
                )),
                "bound of {} differs from BENCHMARK.json",
                spec.name
            );
        }
    }
}
