//! Running workloads in processes of their own: the all-workloads run and
//! the `--aa` self-check.
//!
//! Each workload runs in a child process of this same executable, so
//! `peak_rss_mib` is the workload's own and nothing warm carries over.
//! `--aa` runs every selected workload four times in alternation — A, B,
//! A, B, so slow drift of the box lands on both sets alike — and compares
//! the two sets metric by metric against the metric's own bound: the same
//! code measured twice must agree with itself before a bound means
//! anything.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use fedval_serve::json::{parse, Json};

use crate::schema::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

/// One child run: its exit status and the metrics of its result line.
struct ChildRun {
    succeeded: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process, echoing its output, and read the
/// result object off its last line.
fn run_child(args: &Args, name: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = child.stdout.take().ok_or("child stdout was not piped")?;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {name}: {e}"))?;
        // The result object is for machines; people get the table above it.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait {name}: {e}"))?;
    let metrics = parse_result_line(&last).unwrap_or_default();
    Ok(ChildRun {
        succeeded: status.success() && !metrics.is_empty(),
        metrics,
    })
}

/// The metrics of a result line, by name; `None` when the line is not a
/// result object.
fn parse_result_line(line: &str) -> Option<BTreeMap<String, f64>> {
    let doc = parse(line).ok()?;
    let Json::Obj(entries) = doc.get("metrics")? else {
        return None;
    };
    entries
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Relative gap between two sets of runs of the same code, as a share of
/// set A (each set is represented by the mean of its runs).
fn relative_gap(a: &[f64], b: &[f64]) -> f64 {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (a, b) = (mean(a), mean(b));
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

/// One row of the A/A table; returns whether the metric breached.
fn aa_row(def: &MetricDef, runs: &[ChildRun]) -> bool {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.get(def.name).copied())
        .collect();
    if values.len() != 4 {
        println!("  {:<44} missing from a run", def.name);
        return true;
    }
    let (a, b) = ([values[0], values[2]], [values[1], values[3]]);
    let gap = relative_gap(&a, &b);
    let breach = def.bound.is_some_and(|bound| gap > bound);
    println!(
        "  {:<44} A {:>12.5} {:>12.5}   B {:>12.5} {:>12.5}   gap {:>6.2}%  bound {:>6}  {}",
        def.name,
        a[0],
        a[1],
        b[0],
        b[1],
        gap * 100.0,
        def.bound
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
        if breach { "BREACH" } else { "ok" },
    );
    breach
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let runs_per_workload = if args.aa { 4 } else { 1 };
    let mut all_ok = true;
    let mut summary: Vec<(&str, Vec<ChildRun>)> = Vec::new();
    for name in names {
        let mut runs = Vec::with_capacity(runs_per_workload);
        for k in 0..runs_per_workload {
            if args.aa {
                println!("== {name}: run {} of set {}", k / 2 + 1, ["A", "B"][k % 2]);
            } else {
                println!("== {name}");
            }
            let run = run_child(args, name)?;
            all_ok &= run.succeeded;
            runs.push(run);
        }
        summary.push((name, runs));
    }
    if args.aa {
        println!(
            "== A/A self-check (seed {}): same code, two alternating sets",
            args.seed
        );
        for (name, runs) in &summary {
            println!("{name}");
            for def in defs {
                all_ok &= !aa_row(def, runs);
            }
        }
    }
    println!(
        "== {}",
        if all_ok {
            "all workloads correct"
        } else if args.aa {
            "FAILED: a workload failed or a metric breached its bound"
        } else {
            "FAILED: a workload failed"
        }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{result_line, Metrics};
    use crate::stats::Measured;

    #[test]
    fn result_line_round_trips_through_the_child_parser() {
        let metrics: Metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, Measured::single(0.25 + i as f64)))
            .collect();
        let line = result_line(&END_TO_END, &metrics, 10, 0).encode();
        let parsed = parse_result_line(&line).expect("a result line");
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed["setup_s"], 0.25);
        assert_eq!(parse_result_line("wrote target/benchmark/x.json"), None);
        assert_eq!(parse_result_line("{\"metrics\": 3}"), None);
    }

    #[test]
    fn relative_gap_is_symmetric_in_sign_and_zero_for_equal_sets() {
        assert_eq!(relative_gap(&[64.0, 64.0], &[64.0, 64.0]), 0.0);
        assert!((relative_gap(&[1.0, 1.0], &[1.05, 1.05]) - 0.05).abs() < 1e-12);
        assert!((relative_gap(&[1.0, 1.0], &[0.95, 0.95]) - 0.05).abs() < 1e-12);
        assert!((relative_gap(&[0.9, 1.1], &[1.2, 1.0]) - 0.1).abs() < 1e-12);
    }
}
