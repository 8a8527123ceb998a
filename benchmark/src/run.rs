//! One benchmark run of one workload, in this process.
//!
//! `S` fresh set-ups (generate the inputs from the seed, prepare what the
//! timed region takes as given, one cold pass on the fresh state), then
//! timed passes on warm state until `--seconds` have passed and at least
//! `R >= 5` were taken. A traced run times fewer untraced passes, then
//! takes one more pass with spans on and runs the workload's probes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::{Stopwatch, Timed};
use serde_json::{json, Map, Value};

use crate::layers::{self, CallRow};
use crate::rss;
use crate::spec::{self, GATES, LAYER_METRICS};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, Job, Size, THREADS};

/// Where the harness finds its files and the binary under test.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `benchmark/` directory (holds `expected.json` and `out/`).
    pub bench_dir: PathBuf,
    /// The release `pimsim` binary.
    pub pimsim_bin: PathBuf,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Take the traced pass and report per-layer metrics.
    pub trace: bool,
    /// One set-up, one pass, smallest inputs.
    pub selftest: bool,
    /// Record digests instead of checking them against `expected.json`.
    pub bless: bool,
}

/// Tracks operations attempted and failed, and the digests behind both
/// the determinism check and `--bless`.
#[derive(Debug, Default)]
struct Checker {
    /// Digests `expected.json` pins for this workload; `None` off the
    /// default seed or under `--bless`.
    expected: Option<BTreeMap<String, String>>,
    /// The first digest each job produced in this process.
    first: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
    /// The first few failure messages, for the report.
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Counts each job and fails it when the call errored, an invariant
    /// broke, its digest differs from the first run of the same job, or —
    /// at the default seed — from the committed one.
    fn record(&mut self, jobs: Vec<Job>) {
        for job in jobs {
            self.attempted += 1;
            let digest = match job.result {
                Ok(digest) => digest,
                Err(why) => {
                    self.fail(format!("{}: {why}", job.name));
                    continue;
                }
            };
            match self.first.get(&job.name) {
                Some(first) if *first != digest => {
                    self.fail(format!(
                        "{}: not deterministic, {digest} after {first}",
                        job.name
                    ));
                    continue;
                }
                Some(_) => continue,
                None => {}
            }
            if let Some(expected) = &self.expected {
                match expected.get(&job.name) {
                    Some(want) if *want == digest => {}
                    Some(want) => self.fail(format!(
                        "{}: digest {digest}, expected.json has {want}",
                        job.name
                    )),
                    None => self.fail(format!("{}: no digest in expected.json", job.name)),
                }
            }
            self.first.insert(job.name, digest);
        }
    }
}

/// The digests `expected.json` holds for `workload`.
fn load_expected(bench_dir: &Path, workload: &str) -> Result<BTreeMap<String, String>, String> {
    let path = bench_dir.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let jobs = doc["workloads"][workload]
        .as_object()
        .ok_or_else(|| format!("{}: no digests for {workload}", path.display()))?;
    Ok(jobs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect())
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    opts: RunOpts,
    why: &'static str,
    setups: Vec<Timed>,
    walls: Vec<Timed>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: BTreeMap<String, String>,
    traced: Option<Traced>,
}

#[derive(Debug)]
struct Traced {
    metrics: BTreeMap<&'static str, f64>,
    calls: Vec<CallRow>,
    layer_self_s: BTreeMap<&'static str, f64>,
    pass_s: f64,
    file: PathBuf,
}

/// Runs `opts.workload` once under the protocol above.
pub fn run_workload(opts: &RunOpts, env: &Env) -> Result<RunReport, String> {
    let workload = workloads::by_name(&opts.workload)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let out_dir = env.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        seed: opts.seed,
        size: if opts.selftest {
            Size::Selftest
        } else {
            Size::Full
        },
        out_dir: out_dir.clone(),
        pimsim_bin: env.pimsim_bin.clone(),
    };
    let mut checker = Checker::default();
    if opts.seed == spec::DEFAULT_SEED && !opts.bless {
        checker.expected = Some(load_expected(&env.bench_dir, workload.name())?);
    }
    let (setups, min_passes, seconds) = match (opts.selftest || opts.bless, opts.trace) {
        (true, _) => (1, 1, 0.0),
        (false, true) => (1, spec::MIN_PASSES_TRACED, opts.seconds / 2.0),
        (false, false) => (spec::SETUPS, spec::MIN_PASSES, opts.seconds),
    };

    // The traced run's single set-up is taken with spans on; every other
    // set-up, every cold pass and every timed pass runs with them off.
    let mut tracer = if opts.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut watch = Stopwatch::default();
    let mut setup_times = Vec::with_capacity(setups);
    let mut state = None;
    for _ in 0..setups {
        // Free the previous set-up first: two live copies would double
        // the peak resident set this run reports.
        drop(state.take());
        let (outcome, time) = watch.time(|| {
            let mut fresh = tracer.span("harness.setup", "", |t| workload.setup(&ctx, t))?;
            tracer.set_on(false);
            let cold = fresh.pass(&mut tracer);
            Ok::<_, String>((fresh, cold))
        });
        let (fresh, cold) = outcome?;
        setup_times.push(time);
        checker.record(cold);
        state = Some(fresh);
    }
    let mut state = state.expect("at least one set-up ran");

    // Peak resident memory is taken per timed pass (the high-water mark
    // is reset before each) and reported as the median over passes: the
    // process-wide mark is a maximum over every pass, and hash seeds and
    // thread interleavings move a maximum far more than a median.
    let mut walls = Vec::new();
    let mut pass_peaks_mb = Vec::new();
    let timed = Instant::now();
    while walls.len() < min_passes || timed.elapsed().as_secs_f64() < seconds {
        let reset = rss::reset_own_peak();
        let (jobs, time) = watch.time(|| state.pass(&mut tracer));
        if reset.is_ok() {
            pass_peaks_mb.push(rss::own_peak_mb()?);
        }
        walls.push(time);
        checker.record(jobs);
    }
    checker.record(state.verify());
    watch.reset();
    // Spans up to here are the traced set-up's.
    let traced_from = tracer.spans().len();

    let traced = if opts.trace {
        // Traced passes are timed like untraced ones; the overhead is
        // median against median, so one pass that straddles a clock-state
        // change does not decide it. Only the last one's spans are kept.
        tracer.set_on(true);
        let mut traced_times = Vec::with_capacity(spec::TRACED_PASSES);
        for _ in 0..spec::TRACED_PASSES {
            tracer.truncate(traced_from);
            let (jobs, time) = watch.time(|| tracer.span("harness.pass", "", |t| state.pass(t)));
            traced_times.push(time);
            checker.record(jobs);
        }
        let time = *traced_times.last().expect("at least one traced pass");
        let ((), probes) = watch.time(|| tracer.span("harness.probes", "", |t| state.probes(t)));
        let file = out_dir.join(format!("trace-{}.json", workload.name()));
        std::fs::write(&file, tracer.to_chrome_json(workload.name()))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        // Per-layer numbers come from clock-compensated spans, each phase
        // by the slowdown measured around it; the file above stays raw.
        let root = |name: &str, time: Timed| {
            let index = tracer.find(name, "").expect("root span was recorded");
            (index, time.raw_s / time.compensated_s)
        };
        let roots = [
            root("harness.setup", setup_times[0]),
            root("harness.pass", time),
            root("harness.probes", probes),
        ];
        let compensated = tracer.compensated(&roots);
        Some(Traced {
            metrics: layers::metrics(
                &compensated,
                workload.dominant(),
                median_compensated(&traced_times) / median_compensated(&walls),
            ),
            calls: CallRow::from_tracer(&compensated),
            layer_self_s: compensated
                .by_layer(Some(roots[1].0))
                .into_iter()
                .map(|(layer, totals)| (layer, totals.self_s()))
                .collect(),
            pass_s: median_compensated(&traced_times),
            file,
        })
    } else {
        None
    };

    let peak_rss_mb = match state.peak_rss_mb() {
        Some(mb) => mb,
        None if pass_peaks_mb.is_empty() => rss::own_peak_mb()?,
        None => stats::median(&pass_peaks_mb),
    };
    Ok(RunReport {
        opts: opts.clone(),
        why: workload.why(),
        setups: setup_times,
        walls,
        peak_rss_mb,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        digests: checker.first,
        traced,
    })
}

fn compensated(times: &[Timed]) -> Vec<f64> {
    times.iter().map(|t| t.compensated_s).collect()
}

fn raw(times: &[Timed]) -> Vec<f64> {
    times.iter().map(|t| t.raw_s).collect()
}

fn median_compensated(times: &[Timed]) -> f64 {
    stats::median(&compensated(times))
}

fn median_raw(times: &[Timed]) -> f64 {
    stats::median(&raw(times))
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

impl RunReport {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The three gated metrics, in [`GATES`] order.
    fn gated(&self) -> [f64; 3] {
        [
            median_compensated(&self.walls),
            median_compensated(&self.setups),
            self.peak_rss_mb,
        ]
    }

    /// The line the driver reads: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics of an untraced run or the per-layer metrics of
    /// a traced one.
    pub fn contract_line(&self) -> String {
        let mut metrics = Map::new();
        match &self.traced {
            Some(traced) => {
                for m in LAYER_METRICS {
                    metrics.insert(m.name, metric(traced.metrics[m.name], m.unit));
                }
            }
            None => {
                for (gate, value) in GATES.iter().zip(self.gated()) {
                    metrics.insert(gate.name, metric(value, gate.unit));
                }
            }
        }
        let line = json!({
            "correct": (self.failed == 0),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": (Value::Object(metrics)),
        });
        serde_json::to_string(&line).expect("report serialization cannot fail")
    }

    /// Everything the run measured, as one JSON object.
    pub fn detail(&self) -> Value {
        let mut metrics = Map::new();
        for (gate, value) in GATES.iter().zip(self.gated()) {
            let mut m = Map::new();
            m.insert("value", Value::from(value));
            m.insert("unit", Value::from(gate.unit));
            m.insert("better", Value::from("lower"));
            m.insert("bound", Value::from(gate.bound));
            // Both timings are compensated to the reference clock state
            // (see `calib`); the raw median sits next to each.
            let times = match gate.name {
                "wall_s" => Some(&self.walls),
                "setup_s" => Some(&self.setups),
                _ => None,
            };
            if let Some(times) = times {
                m.insert("raw_value", Value::from(median_raw(times)));
                m.insert("samples", Value::from(times.len()));
                if let Some((p, v)) = stats::tail(&compensated(times)) {
                    m.insert("tail_percentile", Value::from(p));
                    m.insert("tail_value", Value::from(v));
                }
            }
            metrics.insert(gate.name, Value::Object(m));
        }
        let mut digests = Map::new();
        for (job, digest) in &self.digests {
            digests.insert(job.as_str(), Value::from(digest.as_str()));
        }
        let mut doc = Map::new();
        doc.insert("workload", Value::from(self.opts.workload.as_str()));
        doc.insert("why", Value::from(self.why));
        doc.insert("loop", Value::from("closed, one client"));
        doc.insert("seed", Value::from(self.opts.seed));
        doc.insert("seconds", Value::from(self.opts.seconds));
        doc.insert("selftest", Value::from(self.opts.selftest));
        doc.insert("threads", Value::from(THREADS));
        doc.insert("R", Value::from(self.walls.len()));
        doc.insert("S", Value::from(self.setups.len()));
        doc.insert("ops_attempted", Value::from(self.attempted));
        doc.insert("ops_failed", Value::from(self.failed));
        doc.insert(
            "failures",
            Value::from(self.failures.iter().map(String::as_str).collect::<Vec<_>>()),
        );
        doc.insert("metrics", Value::Object(metrics));
        doc.insert("wall_samples_s", Value::from(compensated(&self.walls)));
        doc.insert("wall_raw_samples_s", Value::from(raw(&self.walls)));
        doc.insert("setup_raw_samples_s", Value::from(raw(&self.setups)));
        doc.insert(
            "clock_slowdown",
            Value::from(median_raw(&self.walls) / median_compensated(&self.walls)),
        );
        doc.insert("digests", Value::Object(digests));
        if let Some(traced) = &self.traced {
            let mut per_layer = Map::new();
            for m in LAYER_METRICS {
                per_layer.insert(m.name, metric(traced.metrics[m.name], m.unit));
            }
            let mut self_s = Map::new();
            for (layer, s) in &traced.layer_self_s {
                self_s.insert(*layer, Value::from(*s));
            }
            doc.insert(
                "trace",
                json!({
                    "file": (traced.file.display().to_string()),
                    "traced_pass_s": (traced.pass_s),
                    "per_layer": (Value::Object(per_layer)),
                    "pass_self_s_by_layer": (Value::Object(self_s)),
                    "calls": (Value::Array(traced.calls.iter().map(CallRow::to_value).collect())),
                }),
            );
        }
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(name: &str, digest: &str) -> Job {
        Job::done(name, digest.to_string(), Ok(()))
    }

    #[test]
    fn checker_counts_errors_broken_invariants_and_digest_drift() {
        let mut c = Checker::default();
        c.record(vec![ok("a", "1"), ok("b", "2")]);
        c.record(vec![ok("a", "1"), ok("b", "3")]);
        c.record(vec![
            Job::failed("c", "boom"),
            Job::done(
                "d",
                "4".to_string(),
                Err("bound above simulated".to_string()),
            ),
        ]);
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert!(c.failures[0].contains("not deterministic"));
        assert!(c.failures[1].contains("boom"));
        assert!(c.failures[2].contains("bound above simulated"));
        assert_eq!(c.first.len(), 2);
    }

    #[test]
    fn checker_compares_the_first_run_of_a_job_to_expected_json() {
        let mut c = Checker {
            expected: Some(
                [("a", "1"), ("b", "2")]
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .into(),
            ),
            ..Checker::default()
        };
        c.record(vec![ok("a", "1"), ok("b", "9"), ok("new", "5")]);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.failures[0].contains("expected.json has 2"));
        assert!(c.failures[1].contains("no digest in expected.json"));
    }
}
