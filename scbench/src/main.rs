//! `scbench` — the repo's benchmark: raw (unthrottled) refresh,
//! freshness and serving over the `sales_pipeline` DAG, four workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `README.md` next to this crate.
//!
//! ```text
//! scbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the JSON result
//! scbench [--seed N] [--smoke] [--agree]                   the suite, one process per workload
//! ```

mod acct;
mod dag;
mod layers;
mod metrics;
mod rig;
mod sched;
mod serve;
mod stats;
mod suite;
mod trace;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{result_json, Outcome, END_TO_END, PER_LAYER};
use rig::{Res, Sizing};

pub const WORKLOADS: [&str; 4] = ["dag_full_fit", "dag_full_tight", "dag_churn", serve::NAME];

/// How long one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;
pub const DEFAULT_SEED: u64 = 42;

/// Storage is raw: no `Throttle`, and nothing below is ever fsynced.
const FLUSH_POLICY: &str =
    "flush policy: raw DiskCatalog, no fsync anywhere; reads come from the OS page cache";

/// One run's inputs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
    pub sizing: Sizing,
    pub smoke: bool,
}

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    agree: bool,
    out: PathBuf,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        agree: false,
        out: PathBuf::from("scbench/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--smoke" => cli.smoke = true,
            "--agree" => cli.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its report.
fn run_one(workload: &str, trace: bool, args: &RunArgs) -> Res<()> {
    let dag = dag::DAG_WORKLOADS.iter().find(|w| w.name == workload);
    let mut o: Outcome = match (dag, trace) {
        (Some(w), false) => dag::run(*w, args)?,
        (Some(w), true) => dag::run_traced(*w, args)?,
        (None, false) => serve::run(args)?,
        (None, true) => serve::run_traced(args)?,
    };
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = o.collect(table, !trace);

    println!(
        "workload {workload} seed {} trace {}",
        args.seed,
        u8::from(trace)
    );
    println!("{FLUSH_POLICY}");
    for (spec, value) in &metrics {
        println!("metric {} {} {}", spec.name, spec.unit, value);
    }
    for (what, n) in &o.samples {
        println!("samples {what} {n}");
    }
    for note in &o.notes {
        println!("note {note}");
    }
    println!("checks {} attempted, {} failed", o.attempted, o.failed);
    println!("{}", result_json(o.attempted, o.failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("scbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.workload {
        Some(workload) => {
            let args = RunArgs {
                seed: cli.seed,
                seconds: cli
                    .seconds
                    .unwrap_or(if cli.smoke { 0.0 } else { RUN_SECONDS }),
                out: cli.out.clone(),
                sizing: if cli.smoke { rig::SMOKE } else { rig::FULL },
                smoke: cli.smoke,
            };
            // A failed check is reported in the result line (`correct:
            // false`), not by the exit code: the run itself completed.
            run_one(workload, cli.trace, &args).map(|()| true)
        }
        None => suite::run(cli.seed, cli.smoke, cli.agree, &cli.out),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_invocation_parses() {
        let c = cli(&[
            "--out",
            "o",
            "--workload",
            "dag_churn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("dag_churn"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(20.0), true));
        assert_eq!(c.out, PathBuf::from("o"));
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        let suite = cli(&["--smoke", "--agree"]).unwrap();
        assert!(suite.workload.is_none() && suite.smoke && suite.agree);
    }
}
