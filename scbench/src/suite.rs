//! The whole suite: every workload, untraced then traced, each run in a
//! process of its own so that `peak_rss_mb` belongs to one workload.
//! `--agree` runs the suite twice on the same build and holds the two
//! sets of end-to-end numbers against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::metrics::{Better, Spec, END_TO_END, PER_LAYER};
use crate::rig::Res;
use crate::{RUN_SECONDS, WORKLOADS};

/// What one child run printed.
#[derive(Debug, Default, Clone, PartialEq)]
struct Report {
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
}

/// Reads the `metric` / `samples` / `checks` lines of a run's output.
fn parse_report(stdout: &str) -> Report {
    let mut r = Report::default();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, _unit, value] => {
                if let Ok(v) = value.parse() {
                    r.metrics.insert(name.to_string(), v);
                }
            }
            ["samples", what, n] => {
                if let Ok(n) = n.parse() {
                    r.samples.insert(what.to_string(), n);
                }
            }
            ["checks", attempted, "attempted,", failed, "failed"] => {
                r.attempted = attempted.parse().unwrap_or(0);
                r.failed = failed.parse().unwrap_or(u64::MAX);
            }
            _ => {}
        }
    }
    r
}

fn run_child(workload: &str, trace: bool, seed: u64, smoke: bool, out: &Path) -> Res<Report> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--out").arg(out);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the machine-readable last line.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    println!();
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        )
        .into());
    }
    let report = parse_report(&stdout);
    if report.attempted == 0 {
        return Err(format!("{workload} (trace {}) printed no result", u8::from(trace)).into());
    }
    Ok(report)
}

/// One pass over the suite: `(workload, traced?) -> report`.
type Pass = BTreeMap<(String, bool), Report>;

fn run_pass(seed: u64, smoke: bool, out: &Path) -> Res<Pass> {
    let mut pass = Pass::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            pass.insert(
                (workload.to_string(), trace),
                run_child(workload, trace, seed, smoke, out)?,
            );
        }
    }
    Ok(pass)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(spec: &Spec, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Prints both values and their gap per (metric, workload); false when an
/// end-to-end pair is further apart, either way, than the metric's bound.
fn compare(first: &Pass, second: &Pass) -> bool {
    let mut agree = true;
    println!("agreement of two suite runs on the same build (end-to-end metrics are gated)");
    for (key, a) in first {
        let (workload, traced) = key;
        let table = if *traced { PER_LAYER } else { END_TO_END };
        for spec in table {
            let (Some(&x), Some(&y)) =
                (a.metrics.get(spec.name), second[key].metrics.get(spec.name))
            else {
                continue;
            };
            let gap = worsening(spec, x, y).abs();
            let verdict = if *traced {
                "-"
            } else if gap <= spec.bound {
                "ok"
            } else {
                agree = false;
                "DISAGREE"
            };
            println!(
                "agree {workload} {} {} {x} {y} gap {:.2}% bound {:.0}% {verdict}",
                spec.name,
                spec.unit,
                gap * 100.0,
                spec.bound * 100.0
            );
        }
    }
    agree
}

fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(dirty)) if dirty.is_empty() => rev,
        (Some(rev), _) => format!("{rev}-dirty"),
        _ => "unknown".into(),
    }
}

/// The committed baseline: both values of every metric of an `--agree`
/// pair, with what is needed to tell whether a later run is comparable.
fn baseline_json(first: &Pass, second: &Pass, seed: u64, cpus: usize) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(s, "  \"host_cpus\": {cpus},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(
        s,
        "  \"storage\": \"raw DiskCatalog, no fsync, OS page cache\","
    );
    s.push_str("  \"runs\": [\n");
    let mut runs = Vec::new();
    for (key, a) in first {
        let (workload, traced) = key;
        let b = &second[key];
        let mut r = format!(
            "    {{\"workload\": \"{workload}\", \"trace\": {}, \"attempted\": [{}, {}], \"failed\": [{}, {}],\n",
            u8::from(*traced), a.attempted, b.attempted, a.failed, b.failed
        );
        let samples: Vec<String> = a
            .samples
            .iter()
            .map(|(k, n)| format!("\"{k}\": [{n}, {}]", b.samples.get(k).copied().unwrap_or(0)))
            .collect();
        let _ = writeln!(r, "     \"samples\": {{{}}},", samples.join(", "));
        let table = if *traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .filter_map(|spec| {
                let (x, y) = (a.metrics.get(spec.name)?, b.metrics.get(spec.name)?);
                Some(format!(
                    "       \"{}\": {{\"unit\": \"{}\", \"values\": [{x}, {y}]}}",
                    spec.name, spec.unit
                ))
            })
            .collect();
        let _ = write!(
            r,
            "     \"metrics\": {{\n{}\n     }}}}",
            metrics.join(",\n")
        );
        runs.push(r);
    }
    s.push_str(&runs.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

pub fn run(seed: u64, smoke: bool, agree: bool, out: &Path) -> Res<bool> {
    let first = run_pass(seed, smoke, out)?;
    let mut ok = first.values().all(|r| r.failed == 0);
    if agree {
        let second = run_pass(seed, smoke, out)?;
        ok &= second.values().all(|r| r.failed == 0);
        ok &= compare(&first, &second);
        // A smoke pair is too short to be anyone's baseline.
        if !smoke {
            let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
            let dir = out.parent().unwrap_or(Path::new(".")).join("baseline");
            std::fs::create_dir_all(&dir)?;
            let path = dir.join(format!("cpus-{cpus}.json"));
            std::fs::write(&path, baseline_json(&first, &second, seed, cpus))?;
            println!("baseline written to {}", path.display());
        }
    }
    println!("suite {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_round_trips_through_the_parser() {
        let out = "workload dag_churn seed 42 trace 0\n\
                   metric refresh_p50_ms ms 81.25\n\
                   metric write_amp B/B 97.5\n\
                   samples rounds 112\n\
                   note something odd happened\n\
                   checks 1300 attempted, 2 failed\n\
                   {\"correct\": false}\n";
        let r = parse_report(out);
        assert_eq!(r.metrics["refresh_p50_ms"], 81.25);
        assert_eq!(r.metrics["write_amp"], 97.5);
        assert_eq!(r.samples["rounds"], 112);
        assert_eq!((r.attempted, r.failed), (1300, 2));
    }

    #[test]
    fn worsening_respects_direction() {
        let lower = END_TO_END[1];
        assert!((worsening(&lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worsening(&lower, 100.0, 90.0) < 0.0);
        let higher = Spec {
            better: Better::Higher,
            ..lower
        };
        assert!((worsening(&higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }
}
