//! Set-up shared by every workload: scratch directories inside the
//! checkout, the seeded dataset, a raw (unthrottled) session over the
//! `sales_pipeline` DAG, and the seeded churn stream.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sc::{RefreshReport, ScSession};
use sc_core::RefreshMode;
use sc_engine::exec::TableDelta;
use sc_engine::Table;
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;
use sc_workload::updates::{generate_delta, UpdateStreamSpec};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The base table every workload churns.
pub const FACT: &str = "store_sales";
/// The join hub: the largest MV, read by three consumers.
pub const HUB: &str = "enriched_sales";
/// A six-row aggregate: the hot, cacheable read.
pub const HOT: &str = "rev_by_category";
/// A mid-size MV (the >400 price slice of the hub) the ad-hoc query scans.
pub const MID: &str = "premium_sales";

/// A directory under `<out>/work`, removed when dropped. Everything the
/// benchmark writes at run time lives in one of these or in `<out>`.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU32 = AtomicU32::new(0);

impl Scratch {
    pub fn new(out: &Path, tag: &str) -> std::io::Result<Scratch> {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out
            .join("work")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        // A stale directory of a recycled pid would leak tables into the run.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Fixed sizes of a run. Nothing here adapts to what the run observes.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// TinyTpcds scale of the dag workloads / of the served session.
    pub dag_scale: f64,
    pub serve_scale: f64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Rounds every run completes however long they take, so `p90` has
    /// its ten samples beyond it.
    pub min_rounds: usize,
    /// Storage accounting (`write_amp`, `space_amp`) covers exactly the
    /// first this-many rounds, so it repeats exactly for a seed whatever
    /// the run length. A multiple of [`COMPACT_EVERY`].
    pub account_rounds: usize,
    /// Rounds of each phase of a traced run.
    pub trace_rounds: usize,
}

pub const FULL: Sizing = Sizing {
    dag_scale: 10.0,
    serve_scale: 2.0,
    setups: 5,
    min_rounds: 100,
    account_rounds: 96,
    trace_rounds: 24,
};

pub const SMOKE: Sizing = Sizing {
    dag_scale: 1.0,
    serve_scale: 1.0,
    setups: 1,
    min_rounds: 16,
    account_rounds: 16,
    trace_rounds: 16,
};

/// `compact_mvs()` runs after every this-many-th round, on the third
/// append of a churn cycle, when the hub has its most segments.
pub const COMPACT_EVERY: usize = 16;

pub fn compacts_after(round: usize) -> bool {
    round % COMPACT_EVERY == COMPACT_EVERY - 2
}

#[derive(Debug, Clone, Copy)]
pub struct SessionCfg {
    pub scale: f64,
    pub memory_budget: u64,
    pub mode: RefreshMode,
    pub lanes: usize,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub profile_refresh_ms: f64,
    pub total_s: f64,
}

/// A refreshed, plan-cached session over freshly generated data.
pub struct Rig {
    pub session: Arc<ScSession>,
    /// The fact table as generated (the churn stream's starting point).
    pub fact: Arc<Table>,
    pub times: SetupTimes,
    /// The first cached-plan refresh (the optimized plan, all nodes full).
    pub warm: RefreshReport,
    // Declared last: the session must close before its directory goes.
    _dir: Scratch,
}

/// Generates the dataset, opens a raw session, loads, registers the DAG,
/// profiles and runs the first cached-plan refresh — everything a user
/// pays before the first steady-state operation.
pub fn build_rig(out: &Path, tag: &str, seed: u64, cfg: SessionCfg) -> Res<Rig> {
    let started = Instant::now();
    let data = TinyTpcds::generate(cfg.scale, seed);
    let generate_s = started.elapsed().as_secs_f64();

    let dir = Scratch::new(out, tag)?;
    let session = ScSession::builder()
        .storage_dir(dir.path())
        .memory_budget(cfg.memory_budget)
        .lanes(cfg.lanes)
        .refresh_mode(cfg.mode)
        .build()?;
    let t = Instant::now();
    data.load_into(session.disk())?;
    let load_s = t.elapsed().as_secs_f64();
    for mv in sales_pipeline() {
        session.register_mv(mv)?;
    }
    let t = Instant::now();
    let profile = session.refresh()?;
    let profile_refresh_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm = session.refresh()?;
    if !profile.profiled || warm.profiled {
        return Err("set-up expected one profiling run, then a cached plan".into());
    }
    let fact = Arc::clone(data.table(FACT).ok_or("generator lost the fact table")?);
    Ok(Rig {
        session: Arc::new(session),
        fact,
        times: SetupTimes {
            generate_s,
            load_s,
            profile_refresh_ms,
            total_s: started.elapsed().as_secs_f64(),
        },
        warm,
        _dir: dir,
    })
}

/// The seeded churn stream against the fact table: three insert-only
/// rounds of a fixed 0.5 %-of-initial rows, then one mixed round (insert,
/// update, delete) that removes what the three added, so table sizes — and
/// with them every timing — are stationary over a run of any length.
pub struct Churn {
    /// What the stored fact table holds now; deletes are sampled from it
    /// so that every delete hits a row.
    mirror: Table,
    step: usize,
    seed: u64,
}

impl Churn {
    pub fn new(fact: &Table, seed: u64) -> Self {
        Churn {
            step: ((fact.num_rows() as f64 * 0.005).round() as usize).max(2),
            mirror: fact.clone(),
            seed,
        }
    }

    pub fn is_mixed(round: usize) -> bool {
        round % 4 == 3
    }

    /// The batch of `round` (rounds must be requested in order).
    pub fn next(&mut self, round: usize) -> Res<TableDelta> {
        let n = self.mirror.num_rows() as f64;
        let rows = |k: f64| k * self.step as f64 / n;
        let spec = if Self::is_mixed(round) {
            UpdateStreamSpec::mixed(rows(0.5), rows(0.5), rows(3.5))
        } else {
            UpdateStreamSpec::inserts(rows(1.0))
        };
        let delta = generate_delta(&self.mirror, &spec, self.seed ^ (round as u64) << 20);
        self.mirror = delta.apply(&self.mirror)?;
        Ok(delta)
    }

    /// Rows the stored fact table must hold once every batch so far is in.
    pub fn expected_rows(&self) -> usize {
        self.mirror.num_rows()
    }
}

/// Restarts the kernel's high-water mark of this process's resident set,
/// so that the next [`peak_rss_mb`] is the peak since now. Where that is
/// not possible the mark keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}
