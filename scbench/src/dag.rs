//! The three in-process DAG workloads. Each round is what a warehouse
//! does between two reports: ingest a change batch into the fact table,
//! `refresh()` the nine MVs, prove through a fresh snapshot that the
//! batch is visible, then let a reader fetch a hot MV, run an ad-hoc
//! aggregate and pull the join hub. The workloads differ only in the
//! session they run on:
//!
//! * `dag_full_fit`   — `AlwaysFull`, a Memory Catalog every flagged output fits;
//! * `dag_full_tight` — `AlwaysFull`, a budget the join hub cannot enter;
//! * `dag_churn`      — `Auto` on the tight budget: skip, delta-apply, append.

use std::time::Instant;

use sc::{RefreshReport, ScSession};
use sc_core::{NodeMode, RefreshMode};
use sc_engine::exec::{AggFunc, TableDelta};
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::Value;

use crate::acct::Ledger;
use crate::layers;
use crate::metrics::Outcome;
use crate::rig::{
    build_rig, compacts_after, ms, peak_rss_mb, reset_peak_rss, us, Churn, Res, Rig, Scratch,
    SessionCfg, Sizing, COMPACT_EVERY, FACT, HOT, HUB, MID,
};
use crate::stats::{median_of, Samples};
use crate::trace::{spanned, Lane, Tracer};
use crate::walk::Shadow;
use crate::RunArgs;

#[derive(Debug, Clone, Copy)]
pub struct DagWorkload {
    pub name: &'static str,
    mode: RefreshMode,
    tight: bool,
}

pub const DAG_WORKLOADS: [DagWorkload; 3] = [
    DagWorkload {
        name: "dag_full_fit",
        mode: RefreshMode::AlwaysFull,
        tight: false,
    },
    DagWorkload {
        name: "dag_full_tight",
        mode: RefreshMode::AlwaysFull,
        tight: true,
    },
    DagWorkload {
        name: "dag_churn",
        mode: RefreshMode::Auto,
        tight: true,
    },
];

/// Hot reads per round. Only the first after a refresh finds the file
/// cold; at one in sixteen those stay beyond `read_hot_p90_us`.
const HOT_READS: usize = 16;

impl DagWorkload {
    pub fn session_cfg(&self, sizing: &Sizing, lanes: usize) -> SessionCfg {
        // The hub takes ~0.9 MB of memory per unit of scale; 0.4 MiB per
        // unit keeps it out while the mid-size MVs still fit.
        let tight = (sizing.dag_scale * 0.4 * (1 << 20) as f64) as u64;
        SessionCfg {
            scale: sizing.dag_scale,
            memory_budget: if self.tight { tight } else { 64 << 20 },
            mode: self.mode,
            lanes,
        }
    }
}

/// The reader's ad-hoc query: revenue per category over the mid-size MV.
pub fn reader_query() -> LogicalPlan {
    LogicalPlan::scan(MID).aggregate(
        vec!["i_category".into()],
        vec![AggExpr::new(AggFunc::Sum, "ss_sales_price", "revenue")],
    )
}

#[derive(Default)]
pub struct Timings {
    pub ingest_ms: Samples,
    pub refresh_ms: Samples,
    pub freshness_ms: Samples,
    pub read_hot_us: Samples,
    pub read_big_ms: Samples,
    pub query_us: Samples,
    /// Peak resident set reached within each round.
    pub peak_rss_mb: Samples,
}

/// Sums over the refreshes of a phase, from their `RefreshReport`s.
#[derive(Default)]
pub struct ReportTotals {
    refreshes: f64,
    read_s: f64,
    compute_s: f64,
    write_s: f64,
    drain_s: f64,
    overhead_ms: f64,
    full: f64,
    incremental: f64,
    skipped: f64,
    appended_bytes: f64,
    fallbacks: f64,
    disk_reads: f64,
    peak_memory: u64,
    segments_max: usize,
    gc_failed_deletes: u64,
    pending_bytes_max: u64,
}

impl ReportTotals {
    pub fn add(&mut self, report: &RefreshReport, wall_ms: f64) {
        let m = &report.metrics;
        let parts = m.total_read_s() + m.total_compute_s() + m.total_write_s() + m.final_drain_s;
        self.refreshes += 1.0;
        self.read_s += m.total_read_s();
        self.compute_s += m.total_compute_s();
        self.write_s += m.total_write_s();
        self.drain_s += m.final_drain_s;
        self.overhead_ms += wall_ms - parts * 1e3;
        for n in &m.nodes {
            match n.mode {
                NodeMode::Full => self.full += 1.0,
                NodeMode::Incremental => self.incremental += 1.0,
                NodeMode::Skipped => self.skipped += 1.0,
            }
            self.appended_bytes += n.appended_bytes as f64;
            self.fallbacks += f64::from(u8::from(n.fell_back));
            self.disk_reads += n.disk_reads as f64;
            self.segments_max = self.segments_max.max(n.segments);
        }
        self.peak_memory = self.peak_memory.max(m.peak_memory_bytes);
        self.gc_failed_deletes += m.gc_failed_deletes;
    }

    /// Per-refresh means (counts stay exact: the round pattern is fixed).
    pub fn publish(&self, o: &mut Outcome) {
        let n = self.refreshes.max(1.0);
        o.set("controller.read_s", self.read_s / n);
        o.set("controller.compute_s", self.compute_s / n);
        o.set("controller.write_s", self.write_s / n);
        o.set("controller.drain_s", self.drain_s / n);
        o.set("session.overhead_ms", self.overhead_ms / n);
        o.set("controller.nodes_full", self.full / n);
        o.set("controller.nodes_incremental", self.incremental / n);
        o.set("controller.nodes_skipped", self.skipped / n);
        o.set("controller.appended_bytes", self.appended_bytes / n);
        o.set("memory.peak_bytes", self.peak_memory as f64);
        o.set("memory.fallbacks", self.fallbacks / n);
        o.set("memory.disk_reads", self.disk_reads / n);
        o.set("disk.segments_max", self.segments_max as f64);
        o.set("disk.gc_failed_deletes", self.gc_failed_deletes as f64);
        o.set("delta.pending_bytes", self.pending_bytes_max as f64);
    }
}

/// One session being driven through rounds.
pub struct Driver<'a> {
    w: DagWorkload,
    session: &'a ScSession,
    sizing: Sizing,
    churn: Churn,
    pub ledger: Ledger,
    pub t: Timings,
    pub totals: ReportTotals,
    pub round: usize,
    query: LogicalPlan,
}

impl<'a> Driver<'a> {
    pub fn new(w: DagWorkload, rig: &'a Rig, args: &RunArgs) -> Res<Self> {
        Ok(Driver {
            w,
            session: &rig.session,
            sizing: args.sizing,
            churn: Churn::new(&rig.fact, args.seed),
            ledger: Ledger::open(rig.session.disk())?,
            t: Timings::default(),
            totals: ReportTotals::default(),
            round: 0,
            query: reader_query(),
        })
    }

    /// Ingest → refresh → visibility proof, timed; returns the batch and
    /// the report for the walk. `tr` records the benchmark's own spans.
    pub fn write_side(
        &mut self,
        o: &mut Outcome,
        mut tr: Option<&mut Tracer>,
    ) -> Res<(TableDelta, RefreshReport)> {
        let round = self.round;
        let delta = self.churn.next(round)?;
        let batch = delta.clone();
        let in_window = round < self.sizing.account_rounds;
        if in_window {
            self.ledger.ingested += delta.byte_size();
        }
        let epoch_before = self.session.disk().current_epoch();

        let t_ingest = Instant::now();
        spanned(tr.as_deref_mut(), "session", "ingest_delta", || {
            self.session.ingest_delta(FACT, batch)
        })?;
        self.t.ingest_ms.push(ms(t_ingest));
        let pending = self.session.delta_store().pending_bytes(FACT);
        self.totals.pending_bytes_max = self.totals.pending_bytes_max.max(pending);

        let t_refresh = Instant::now();
        let report = spanned(tr.as_deref_mut(), "session", "refresh", || {
            self.session.refresh()
        })?;
        let refresh_ms = ms(t_refresh);
        self.t.refresh_ms.push(refresh_ms);
        self.totals.add(&report, refresh_ms);

        // Fresh means a reader can see it: a new snapshot, at a later
        // epoch, whose leaf aggregate counts every row of the fact table.
        let (epoch, counted, fact_rows) = spanned(tr, "session", "snapshot_read", || {
            let snap = self.session.snapshot();
            let leaf = snap.read_table(HOT)?;
            let n_sales = leaf.column_by_name("n_sales")?;
            let counted: i64 = (0..leaf.num_rows())
                .map(|r| match n_sales.value(r) {
                    Value::Int64(n) => n,
                    _ => 0,
                })
                .sum();
            Ok::<_, sc::ScError>((snap.epoch(), counted, snap.row_count(FACT)?))
        })?;
        self.t.freshness_ms.push(ms(t_ingest));
        let expected = self.churn.expected_rows() as u64;
        o.check(
            epoch > epoch_before && counted as u64 == expected && fact_rows == expected,
            || format!("round {round}: batch not visible (epoch {epoch_before}->{epoch}, {HOT} counts {counted}, {FACT} holds {fact_rows}, expected {expected})"),
        );
        self.check_modes(o, &report, round);
        if in_window {
            self.ledger.observe(self.session.disk())?;
        }
        Ok((delta, report))
    }

    fn check_modes(&self, o: &mut Outcome, report: &RefreshReport, round: usize) {
        let count = |mode| report.nodes().iter().filter(|n| n.mode == mode).count();
        let (ok, want) = match self.w.mode {
            RefreshMode::AlwaysFull => (count(NodeMode::Full) == 9, "all nine nodes Full"),
            // Only the store-sales branch churns; on an insert-only round
            // its hub must take the delta path, not a recompute.
            _ if Churn::is_mixed(round) => (count(NodeMode::Skipped) == 4, "four nodes Skipped"),
            _ => (
                count(NodeMode::Skipped) == 4 && report.mode(HUB) == Some(NodeMode::Incremental),
                "four nodes Skipped and the hub Incremental",
            ),
        };
        o.check(ok, || {
            format!("round {round}: expected {want}\n{}", report.explain())
        });
    }

    /// The reader's visit after a refresh.
    pub fn read_side(&mut self, o: &mut Outcome) -> Res<()> {
        let round = self.round;
        for _ in 0..HOT_READS {
            let t = Instant::now();
            let hot = self.session.snapshot().read_table(HOT)?;
            self.t.read_hot_us.push(us(t));
            o.check(hot.num_rows() > 0, || {
                format!("round {round}: {HOT} is empty")
            });
        }
        let t = Instant::now();
        let answer = self.session.query(&self.query)?;
        self.t.query_us.push(us(t));
        o.check(answer.num_rows() > 0, || {
            format!("round {round}: query returned nothing")
        });

        let t = Instant::now();
        let snap = self.session.snapshot();
        let hub = snap.read_table(HUB)?;
        self.t.read_big_ms.push(ms(t));
        // Every fact row joins, so the hub is as long as the fact table.
        let fact_rows = snap.row_count(FACT)?;
        o.check(hub.num_rows() as u64 == fact_rows, || {
            format!(
                "round {round}: {HUB} has {} rows, {FACT} {fact_rows}",
                hub.num_rows()
            )
        });
        Ok(())
    }

    /// Compaction on its schedule, and the closing of the storage books.
    pub fn housekeeping(&mut self) -> Res<()> {
        let round = self.round;
        let window = self.sizing.account_rounds;
        if compacts_after(round) {
            // Space is taken where it peaks: before the window's last
            // compaction, with the hub at its most fragmented.
            if round < window && round + COMPACT_EVERY >= window {
                self.ledger.measure_space(self.session.disk())?;
            }
            self.session.compact_mvs()?;
            if round < window {
                self.ledger.observe(self.session.disk())?;
            }
        }
        if round + 1 == window {
            self.ledger.close_window();
        }
        Ok(())
    }

    pub fn full_round(&mut self, o: &mut Outcome) -> Res<()> {
        reset_peak_rss();
        self.write_side(o, None)?;
        self.read_side(o)?;
        self.t.peak_rss_mb.push(peak_rss_mb());
        self.housekeeping()?;
        self.round += 1;
        Ok(())
    }
}

/// Builds the rig `setups` times; the last one is kept, `setup_s` is the
/// median over all of them.
fn timed_setups(w: &DagWorkload, args: &RunArgs) -> Res<(Rig, f64)> {
    let cfg = w.session_cfg(&args.sizing, 1);
    let mut times = Vec::new();
    let mut rig = build_rig(&args.out, w.name, args.seed, cfg)?;
    times.push(rig.times.total_s);
    for _ in 1..args.sizing.setups {
        drop(rig);
        rig = build_rig(&args.out, w.name, args.seed, cfg)?;
        times.push(rig.times.total_s);
    }
    Ok((rig, median_of(&times)))
}

/// After the last round: every MV, compacted, must be byte-identical to
/// what a fresh `AlwaysFull` session computes from the same bases.
pub fn verify_against_recompute(session: &ScSession, args: &RunArgs, o: &mut Outcome) -> Res<()> {
    session.compact_mvs()?;
    let dir = Scratch::new(&args.out, "verify")?;
    let fresh = ScSession::builder()
        .storage_dir(dir.path())
        .refresh_mode(RefreshMode::AlwaysFull)
        .runtime_feedback(false)
        .build()?;
    let mvs = session.mvs();
    for name in session.disk().list()? {
        if !mvs.iter().any(|mv| mv.name == name) {
            fresh
                .disk()
                .write_table(&name, &session.disk().read_table(&name)?)?;
        }
    }
    for mv in &mvs {
        fresh.register_mv(mv.clone())?;
    }
    fresh.refresh()?;
    let (ours, theirs) = (session.snapshot(), fresh.snapshot());
    for mv in &mvs {
        let same = ours.stored_file_bytes(&mv.name)? == theirs.stored_file_bytes(&mv.name)?;
        o.check(same, || {
            format!(
                "{} differs from a full recompute of the same bases",
                mv.name
            )
        });
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(w: DagWorkload, args: &RunArgs) -> Res<Outcome> {
    let mut o = Outcome::default();
    let (rig, setup_s) = timed_setups(&w, args)?;
    o.set("setup_s", setup_s);

    let mut d = Driver::new(w, &rig, args)?;
    let started = Instant::now();
    while d.round < args.sizing.min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        if let Err(e) = d.full_round(&mut o) {
            o.check(false, || format!("round {} aborted the run: {e}", d.round));
            break;
        }
    }
    publish_timings(&mut o, &d.t, !args.smoke);
    o.set("write_amp", d.ledger.write_amp.unwrap_or(0.0));
    o.set("space_amp", d.ledger.space_amp.unwrap_or(0.0));
    o.samples.insert("rounds", d.round);
    verify_against_recompute(&rig.session, args, &mut o)?;
    Ok(o)
}

/// The end-to-end timing metrics every workload reports.
pub fn publish_timings(o: &mut Outcome, t: &Timings, enforce_tail_support: bool) {
    o.set("refresh_p50_ms", t.refresh_ms.median());
    o.set("refresh_p90_ms", t.refresh_ms.percentile(0.9));
    o.set("freshness_p50_ms", t.freshness_ms.median());
    o.set("ingest_p50_ms", t.ingest_ms.median());
    o.set("read_big_p50_ms", t.read_big_ms.median());
    o.set("query_p50_us", t.query_us.median());
    o.set("peak_rss_mb", t.peak_rss_mb.median());
    for (name, s, p) in [
        ("refresh_ms", &t.refresh_ms, 0.9),
        ("freshness_ms", &t.freshness_ms, 0.5),
        ("ingest_ms", &t.ingest_ms, 0.5),
        ("read_hot_us", &t.read_hot_us, 0.5),
        ("read_big_ms", &t.read_big_ms, 0.5),
        ("query_us", &t.query_us, 0.5),
    ] {
        o.samples.insert(name, s.len());
        if enforce_tail_support {
            o.check(s.supports(p), || {
                format!("{name}: {} samples do not support p{}", s.len(), p * 100.0)
            });
        }
    }
}

/// The traced run: an untraced phase for the reference median, a phase
/// of the same length with spans and the layer walk, then layer probes.
pub fn run_traced(w: DagWorkload, args: &RunArgs) -> Res<Outcome> {
    let mut o = Outcome::default();
    let rig = build_rig(&args.out, w.name, args.seed, w.session_cfg(&args.sizing, 1))?;
    layers::publish_setup(&mut o, &rig)?;

    let rounds = args.sizing.trace_rounds;
    let mut d = Driver::new(w, &rig, args)?;
    // The walk needs its books open for the whole run, not a window.
    d.sizing.account_rounds = usize::MAX;
    for _ in 0..rounds {
        d.full_round(&mut o)?;
    }
    let untraced_ms = d.t.refresh_ms.median();
    o.set("delta.ingest_ms", d.t.ingest_ms.median());
    o.set("read_hot_p50_us", d.t.read_hot_us.median());
    o.set("read_hot_p90_us", d.t.read_hot_us.percentile(0.9));
    o.set("session.snapshot_read_ms", d.t.read_big_ms.median());
    o.set("session.query_ms", d.t.query_us.median() / 1e3);

    let shadow = Shadow::clone_of(&rig.session, &args.out)?;
    let mut tr = Tracer::new(Instant::now(), 0);
    for _ in 0..rounds {
        tr.set_round(d.round as u32);
        tr.span("bench", "round", Lane::Critical, |tr| -> Res<()> {
            let (delta, report) = d.write_side(&mut o, Some(tr))?;
            shadow.ingest(tr, &delta)?;
            shadow.refresh(tr, &report, &delta)
        })?;
        d.housekeeping()?;
        if compacts_after(d.round) {
            for mv in rig.session.mvs() {
                shadow.disk.compact(&mv.name)?;
            }
        }
        d.round += 1;
    }
    d.totals.publish(&mut o);

    // The walk must have rebuilt what the engine built …
    for mv in rig.session.mvs() {
        let same = shadow.disk.read_table(&mv.name)? == rig.session.disk().read_table(&mv.name)?;
        o.check(same, || {
            format!("walk diverged from the engine on {}", mv.name)
        });
    }
    // … in about the time the engine took for the same round (paired,
    // so that a host that speeds up mid-run moves both sides alike).
    let refreshes = tr.named("refresh");
    let ratios: Vec<f64> = tr
        .named("walk_refresh")
        .into_iter()
        .zip(&refreshes)
        .map(|(walk, &real)| tr.critical_us(walk) / tr.spans()[real].dur_us())
        .collect();
    check_reconciles(&mut o, args, "the layer walk", median_of(&ratios));
    let traced: Vec<f64> = refreshes
        .iter()
        .map(|&id| tr.spans()[id].dur_us() / 1e3)
        .collect();
    o.set(
        "trace.overhead_pct",
        (median_of(&traced) / untraced_ms - 1.0) * 100.0,
    );
    o.samples.insert("rounds", d.round);

    d.ledger.observe(rig.session.disk())?;
    o.set("disk.bytes_written", d.ledger.written() as f64);
    o.set("disk.bytes_on_disk", d.ledger.bytes_on_disk as f64);
    o.set("disk.retained_files", d.ledger.retained_files_max as f64);
    layers::probe(&mut o, &rig.session, &args.out, &rig.fact)?;
    o.set("controller.lanes2_ratio", lanes2_ratio(&w, args)?);
    o.set("failed_share", o.failed as f64 / o.attempted.max(1) as f64);
    report_layers(&mut o, &tr);
    tr.write_chrome(&args.out.join(format!("trace_{}.json", w.name)))?;
    Ok(o)
}

/// Publishes `trace.walk_over_e2e`, the median over operations of the
/// time the walk's spans account for ÷ the end-to-end time of the same
/// operation; outside 0.8–1.25 the trace does not explain what it traces
/// and the run fails. (Not at smoke scale: there per-call overheads the
/// walk cannot see are a fifth of a refresh.)
pub fn check_reconciles(o: &mut Outcome, args: &RunArgs, what: &str, ratio: f64) {
    o.set("trace.walk_over_e2e", ratio);
    if !args.smoke {
        o.check((0.8..=1.25).contains(&ratio), || {
            format!(
                "{what} accounts for {ratio:.3} of the end-to-end time; it must reconcile within 0.8-1.25"
            )
        });
    }
}

/// Ten full refreshes on two compute lanes over ten on one, medians.
/// A ratio only: with two vCPUs the lanes share cores with the
/// background materializer.
fn lanes2_ratio(w: &DagWorkload, args: &RunArgs) -> Res<f64> {
    let mut medians = Vec::new();
    for lanes in [2, 1] {
        let rig = build_rig(
            &args.out,
            "lanes",
            args.seed,
            w.session_cfg(&args.sizing, lanes),
        )?;
        let mut t = Samples::default();
        for _ in 0..10 {
            let started = Instant::now();
            rig.session.refresh()?;
            t.push(ms(started));
        }
        medians.push(t.median());
    }
    Ok(medians[0] / medians[1])
}

/// Self time per layer over the walk's critical path, for the report.
fn report_layers(o: &mut Outcome, tr: &Tracer) {
    let walked = tr.named("walk_refresh").len().max(1) as f64;
    let per_layer = tr.layer_self_us(|s| {
        !matches!(s.lane, Lane::Background | Lane::Rerun)
            && s.layer != "bench"
            && s.layer != "session"
    });
    let line = per_layer
        .iter()
        .map(|(layer, us)| format!("{layer} {:.2}", us / 1e3 / walked))
        .collect::<Vec<_>>()
        .join(", ");
    o.notes
        .push(format!("walk self time per round, ms: {line}"));
}
