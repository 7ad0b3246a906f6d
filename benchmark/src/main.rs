//! `fedval-benchmark`: the performance ledger's single command.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--aa] [--list]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is the result object (`correct`, `attempted`,
//! `failed`, `metrics`). Without it every workload runs in a process of
//! its own, so `peak_rss_mib` is per workload; `--aa` runs each selected
//! workload four times (A, B, A, B) and checks that the two sets agree
//! within the metrics' own bounds. See `benchmark/README.md`.

mod cold;
mod layers;
mod orchestrate;
mod problems;
mod schema;
mod stats;
mod trace;
mod traced;
mod wire;
mod workload;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use fedval_serve::json::{Json, Num};

use schema::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, UNREACHED, WORKLOADS};
use workload::Report;

/// Environment variables that would silently change what is measured.
/// The benchmark pins backend, threads and caches through the API and
/// refuses to run when the process environment says otherwise.
const REFUSED_ENV: [&str; 3] = ["FEDVAL_BACKEND", "FEDVAL_TRAJCACHE", "RAYON_NUM_THREADS"];
const REFUSED_ENV_PREFIX: &str = "FEDVAL_FLUSH_";

/// Default `--seed`.
const DEFAULT_SEED: u64 = 42;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: bool,
    pub list: bool,
    pub benchmark_json: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: false,
        list: false,
        benchmark_json: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}` (see --list)"));
        }
    }
    Ok(args)
}

fn refuse_environment() -> Result<(), String> {
    let offending: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_ENV_PREFIX))
        .collect();
    if offending.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins backend, threads and caches itself",
            offending.join(", ")
        ))
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    let print = |title: &str, defs: &[MetricDef]| {
        println!("{title}:");
        for d in defs {
            let bound = d
                .bound
                .map(|b| format!("  bound {:.1}%", b * 100.0))
                .unwrap_or_default();
            println!(
                "  {:<44} {:<8} {} is better{bound}",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
    };
    print("end-to-end metrics (--trace 0)", &END_TO_END);
    print("per-layer metrics (--trace 1)", &PER_LAYER);
}

/// The environment block of the result file, filled at run time.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(Num::U64(nproc as u64))),
        (
            "rustc",
            Json::str(std::env::var("FEDVAL_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        ("backend", Json::str(fedval_nn::Backend::Reference.name())),
        ("threads", Json::Num(Num::U64(problems::THREADS as u64))),
        ("trajcache", Json::Bool(true)),
        ("fixture_seed", Json::Num(Num::U64(problems::FIXTURE_SEED))),
    ])
}

fn fmt_value(v: f64) -> String {
    if v == UNREACHED {
        "unreached".to_string()
    } else if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn print_report(name: &str, defs: &[MetricDef], report: &Report) {
    println!(
        "{:<44} {:>12} {:<8} {:<7} {:>3}  {:>12} {:>12} {:>12} {:>12}",
        name, "best", "unit", "better", "R", "median", "q1", "q3", "worst"
    );
    for d in defs {
        let Some(m) = report.metrics.get(d.name) else {
            continue;
        };
        println!(
            "{:<44} {:>12} {:<8} {:<7} {:>3}  {:>12} {:>12} {:>12} {:>12}",
            d.name,
            fmt_value(m.value),
            d.unit,
            d.better.as_str(),
            m.reps,
            fmt_value(m.median),
            fmt_value(m.q1),
            fmt_value(m.q3),
            fmt_value(m.worst),
        );
    }
    println!(
        "operations: {} attempted, {} failed",
        report.gate.attempted, report.gate.failed
    );
    for failure in &report.gate.failures {
        println!("  FAILED {failure}");
    }
}

/// The result file: the contract object plus what a person wants beside
/// it — environment, workload parameters, and the diagnostics of every
/// metric.
fn result_file(args: &Args, name: &str, defs: &[MetricDef], report: &Report, line: &Json) -> Json {
    let diagnostics: Vec<(String, Json)> = defs
        .iter()
        .filter_map(|d| report.metrics.get(d.name).map(|m| (d, m)))
        .map(|(d, m)| {
            (
                d.name.to_string(),
                Json::obj([
                    ("best", Json::f64(m.value)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.as_str())),
                    ("repetitions", Json::Num(Num::U64(m.reps as u64))),
                    ("median", Json::f64(m.median)),
                    ("q1", Json::f64(m.q1)),
                    ("q3", Json::f64(m.q3)),
                    ("worst", Json::f64(m.worst)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(Num::U64(args.seed))),
        ("seconds", Json::f64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("environment", environment()),
        (
            "parameters",
            Json::Obj(
                report
                    .notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("result", line.clone()),
        ("diagnostics", Json::Obj(diagnostics)),
        (
            "failures",
            Json::Arr(report.gate.failures.iter().map(Json::str).collect()),
        ),
    ])
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let report = workloads::run(name, args.seed, args.seconds, args.trace, &args.out_dir)?;
    print_report(name, defs, &report);
    let line = schema::result_line(
        defs,
        &report.metrics,
        report.gate.attempted,
        report.gate.failed,
    );
    let kind = if args.trace { "layers" } else { "result" };
    let path = args.out_dir.join(format!("{kind}-{name}.json"));
    let doc = result_file(args, name, defs, &report, &line);
    std::fs::write(&path, schema::pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    // The contract: the result object is the last line of standard output.
    println!("{}", line.encode());
    Ok(if report.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.list {
        list();
        return Ok(ExitCode::SUCCESS);
    }
    if args.benchmark_json {
        print!("{}", schema::pretty(&schema::benchmark_json()));
        return Ok(ExitCode::SUCCESS);
    }
    refuse_environment()?;
    match (&args.workload, args.aa) {
        (Some(name), false) => run_one(&args, name),
        _ => orchestrate::run(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fedval-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "wire_warm_mix",
            "--seed",
            "7",
            "--seconds",
            "16",
            "--trace",
            "0",
        ])
        .expect("the driver's argument form");
        assert_eq!(args.workload.as_deref(), Some("wire_warm_mix"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 16.0, false));
        assert!(parse(&["--trace", "1"]).expect("trace on").trace);
        assert!(parse(&["--trace"]).expect("bare flag").trace);
        let mixed = parse(&["--trace", "--aa"]).expect("bare flag before another");
        assert!(mixed.trace && mixed.aa);
        let defaults = parse(&[]).expect("no arguments");
        assert_eq!(
            (defaults.seed, defaults.seconds),
            (DEFAULT_SEED, RUN_SECONDS as f64)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
