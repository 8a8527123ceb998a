//! The benchmark harness for the pimsim stack. See `README.md`.
//!
//! ```text
//! bench-harness [--workload W] [--seed N] [--seconds T] [--trace [0|1]]
//!                  [--selftest] [--bless]
//! bench-harness compare --parent P1.json .. --change C1.json ..
//! bench-harness aa-check [--seed N] [--seconds T]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of stdout is the driver's result object. Without it every workload
//! runs in a child process of its own and stdout is one report.

mod calib;
mod compare;
mod digest;
mod layers;
mod pin;
mod rng;
mod rss;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Map, Value};

use layers::CallRow;
use run::{Env, RunOpts};
use spec::GATES;

const USAGE: &str = "usage:
  benchmark/run.sh [--workload W] [--seed N] [--seconds T] [--trace [0|1]] [--selftest] [--bless]
  benchmark/run.sh compare --parent P1.json P2.json .. --change C1.json C2.json ..
  benchmark/run.sh aa-check [--seed N] [--seconds T]";

/// Parsed command line of the run modes.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
    bless: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        selftest: false,
        bless: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds}: want 0 to 600"));
                }
                cli.seconds = seconds;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selftest" => cli.selftest = true,
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(name) = &cli.workload {
        if workloads::by_name(name).is_none() {
            let names: Vec<_> = workloads::all().iter().map(|w| w.name()).collect();
            return Err(format!("unknown workload `{name}`: {}", names.join(", ")));
        }
    }
    if cli.bless && cli.seed != spec::DEFAULT_SEED {
        return Err(format!(
            "--bless pins the default seed {}",
            spec::DEFAULT_SEED
        ));
    }
    Ok(cli)
}

/// `benchmark/` is where this crate was built from; `pimsim` sits next to
/// this binary because `run.sh` builds both into one target directory.
fn env() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(Env {
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        pimsim_bin: exe.with_file_name("pimsim"),
    })
}

/// Host facts echoed with every report; `run.sh` fills the two it can
/// only learn from the toolchain and the checkout.
fn host_facts() -> Map {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut m = Map::new();
    m.insert("nproc", Value::from(nproc));
    m.insert("threads", Value::from(workloads::THREADS));
    m.insert("git_commit", Value::from(var("PIMSIM_BENCH_GIT_COMMIT")));
    m.insert("rustc", Value::from(var("PIMSIM_BENCH_RUSTC")));
    m.insert("model_validation", Value::from(spec::MODEL_VALIDATION));
    m
}

fn with_host_facts(mut doc: Value) -> Value {
    if let Value::Object(map) = &mut doc {
        for (k, v) in host_facts().iter() {
            map.insert(k.as_str(), v.clone());
        }
    }
    doc
}

/// Writes the report to stdout in one piece. A reader that closed the
/// pipe early (`| head -1`) is not an error worth a panic.
fn emit(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("report serialization cannot fail")
}

/// One workload in this process: the detailed report, then the driver's
/// result object as the last line.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        selftest: cli.selftest,
        bless: cli.bless,
    };
    let report = run::run_workload(&opts, &env()?)?;
    let detail = with_host_facts(report.detail());
    if cli.trace {
        let rows: Vec<CallRow> = detail["trace"]["calls"]
            .as_array()
            .map(|a| a.iter().filter_map(CallRow::from_value).collect())
            .unwrap_or_default();
        let gap = layers::layer_gap(&[(workload, rows)]);
        if !gap.is_empty() {
            eprint!("{}", layers::render_gap(&gap));
        }
    }
    for failure in detail["failures"].as_array().into_iter().flatten() {
        eprintln!("{workload}: FAILED {}", failure.as_str().unwrap_or("?"));
    }
    emit(&format!(
        "{}\n{}\n",
        to_line(&detail),
        report.contract_line()
    ))?;
    Ok(if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Runs `workload` in a child process of its own and returns its
/// detailed report.
fn spawn_one(cli: &Cli, workload: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.selftest {
        cmd.arg("--selftest");
    }
    if cli.bless {
        cmd.arg("--bless");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| v.get("workload").is_some());
    match detail {
        Some(detail) => Ok(detail),
        None => Err(format!(
            "{workload}: exited with {} and no report",
            out.status
        )),
    }
}

fn summary_line(detail: &Value) -> String {
    let m = |name: &str| {
        detail["metrics"][name]["value"]
            .as_f64()
            .unwrap_or(f64::NAN)
    };
    let tail = match (
        detail["metrics"]["wall_s"]["tail_percentile"].as_f64(),
        detail["metrics"]["wall_s"]["tail_value"].as_f64(),
    ) {
        (Some(p), Some(v)) => format!("p{p} {v:.4} s"),
        _ => "no tail".to_string(),
    };
    format!(
        "{:<16} wall_s {:>8.4} ({tail}, R={})  setup_s {:>8.4}  peak_rss_mb {:>8.1}  ops {}/{} failed",
        detail["workload"].as_str().unwrap_or("?"),
        m("wall_s"),
        detail["R"].as_u64().unwrap_or(0),
        m("setup_s"),
        m("peak_rss_mb"),
        detail["ops_failed"].as_u64().unwrap_or(0),
        detail["ops_attempted"].as_u64().unwrap_or(0),
    )
}

/// Every workload, each in its own child process, as one report.
fn run_set(cli: &Cli) -> Result<Value, String> {
    let mut details = Vec::new();
    for w in workloads::all() {
        let detail = spawn_one(cli, w.name())?;
        eprintln!("{}", summary_line(&detail));
        if cli.trace {
            for metric in spec::LAYER_METRICS {
                let v = &detail["trace"]["per_layer"][metric.name]["value"];
                if metric.home == w.name() || metric.home == "every workload" {
                    eprintln!(
                        "    {:<30} {:>16.4} {:<6} -> {}",
                        metric.name,
                        v.as_f64().unwrap_or(f64::NAN),
                        metric.unit,
                        metric.moves
                    );
                }
            }
        }
        details.push(detail);
    }
    let mut doc = host_facts();
    doc.insert("seed", Value::from(cli.seed));
    doc.insert("seconds", Value::from(cli.seconds));
    doc.insert("selftest", Value::from(cli.selftest));
    if cli.trace {
        let sources: Vec<(&str, Vec<CallRow>)> = details
            .iter()
            .map(|d| {
                let rows = d["trace"]["calls"].as_array().into_iter().flatten();
                (
                    d["workload"].as_str().unwrap_or(""),
                    rows.filter_map(CallRow::from_value).collect(),
                )
            })
            .collect();
        let gap = layers::layer_gap(&sources);
        eprint!("{}", layers::render_gap(&gap));
        doc.insert(
            "layer_gap",
            Value::Array(gap.iter().map(layers::GapRow::to_value).collect()),
        );
    }
    doc.insert("workloads", Value::Array(details));
    Ok(Value::Object(doc))
}

fn failed_ops(set: &Value) -> u64 {
    set["workloads"]
        .as_array()
        .into_iter()
        .flatten()
        .map(|d| d["ops_failed"].as_u64().unwrap_or(0))
        .sum()
}

/// `--bless`: records the default-seed digests of the full and the
/// self-test job lists in `expected.json`.
fn bless(cli: &Cli) -> Result<ExitCode, String> {
    let mut workloads = Map::new();
    for selftest in [false, true] {
        let set = run_set(&Cli {
            selftest,
            ..cli.clone()
        })?;
        if failed_ops(&set) > 0 {
            return Err("refusing to bless: an operation failed".to_string());
        }
        for detail in set["workloads"].as_array().into_iter().flatten() {
            let slot = workloads.entry_or_null(detail["workload"].as_str().unwrap_or("?"));
            if *slot == Value::Null {
                *slot = json!({});
            }
            for (job, digest) in detail["digests"]
                .as_object()
                .into_iter()
                .flat_map(Map::iter)
            {
                slot[job.as_str()] = digest.clone();
            }
        }
    }
    let doc = json!({
        "seed": (spec::DEFAULT_SEED),
        "note": "simulated-statistics digests per job at the default seed; written by `benchmark/run.sh --bless`, checked on every run at that seed",
        "workloads": (Value::Object(workloads)),
    });
    let path = env()?.bench_dir.join("expected.json");
    let text = serde_json::to_string_pretty(&doc).expect("serializes") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// `aa-check`: two full sets of the same build must agree on every gated
/// metric within the metric's own bound.
fn aa_check(cli: &Cli) -> Result<ExitCode, String> {
    let (a, b) = (run_set(cli)?, run_set(cli)?);
    let mut agree = failed_ops(&a) + failed_ops(&b) == 0;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "B/A - 1", "bound"
    );
    let sets = a["workloads"].as_array().into_iter().flatten();
    for (da, db) in sets.zip(b["workloads"].as_array().into_iter().flatten()) {
        for gate in GATES {
            let value = |d: &Value| {
                d["metrics"][gate.name]["value"]
                    .as_f64()
                    .unwrap_or(f64::NAN)
            };
            let (va, vb) = (value(da), value(db));
            let off = vb / va - 1.0;
            // NaN (a missing metric) must count as disagreement.
            let ok = off.abs() <= gate.bound;
            agree &= ok;
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {}",
                da["workload"].as_str().unwrap_or("?"),
                gate.name,
                va,
                vb,
                off * 100.0,
                gate.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `compare --parent P.. --change C..`.
fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parents),
            "--change" => side = Some(&mut changes),
            path => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let parsed = compare::parse_result(&text).map_err(|e| format!("{path}: {e}"))?;
                side.as_mut()
                    .ok_or_else(|| format!("{path}: name a side first\n{USAGE}"))?
                    .push(parsed);
            }
        }
    }
    let comparison = compare::compare(&parents, &changes)?;
    print!("{}", comparison.render());
    Ok(if comparison.rejects() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("aa-check") => aa_check(&parse_cli(&args[1..])?),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let cli = parse_cli(args)?;
            if let Some(workload) = &cli.workload {
                return run_one(&cli, workload);
            }
            if cli.bless {
                return bless(&cli);
            }
            let set = run_set(&cli)?;
            emit(&(to_line(&set) + "\n"))?;
            Ok(if failed_ops(&set) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-harness: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_developer_spellings_of_trace_both_parse() {
        let driver = cli(&[
            "--workload",
            "zoo-sim",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("zoo-sim"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.trace),
            (7, 10.0, false)
        );
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        assert!(cli(&["--trace"]).unwrap().trace);
        let mixed = cli(&["--trace", "--seed", "3"]).unwrap();
        assert!(mixed.trace && mixed.seed == 3);
        let defaults = cli(&[]).unwrap();
        assert_eq!(defaults.seed, spec::DEFAULT_SEED);
        assert!(!defaults.trace && !defaults.selftest);
    }

    #[test]
    fn bad_arguments_are_rejected_with_a_reason() {
        assert!(cli(&["--workload", "nope"])
            .unwrap_err()
            .contains("zoo-sim"));
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--bless", "--seed", "2"]).is_err());
    }
}
