//! Per-layer metrics, computed from the traced run's spans and the work
//! counts taken at the same boundaries.
//!
//! Every metric aggregates over the whole traced run — the traced set-up,
//! the traced pass and the probes — except the two shares, which are of
//! the traced pass alone. A metric whose spans the workload never opens
//! is 0. The caller passes a tracer whose spans are already
//! clock-compensated (`Tracer::compensated`), like the end-to-end timings.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::spec::LAYER_METRICS;
use crate::trace::{Totals, Tracer};
use crate::workloads::{Dominant, THREADS};

/// `num / den`, or 0 when the layer was not exercised.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total_s(t: &Totals) -> f64 {
    t.total_ns as f64 / 1e9
}

fn ns_per(t: &Totals, count: &str) -> f64 {
    ratio(t.total_ns as f64, t.count(count) as f64)
}

fn per_s(t: &Totals, count: &str) -> f64 {
    ratio(t.count(count) as f64, total_s(t))
}

/// Library time of the in-process replays: the direct children of the
/// `harness.replay` spans that are calls into a layer, keyed by layer.
fn replay_library_ns(t: &Tracer) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in t.spans() {
        let under_replay = span
            .parent
            .is_some_and(|p| t.spans()[p].name == "harness.replay");
        if under_replay && span.layer() != "harness" {
            *out.entry(span.layer()).or_default() += span.dur_ns();
        }
    }
    out
}

/// The share of the traced pass spent where the workload says its work is.
fn dominant_share(t: &Tracer, dominant: Dominant, pass: usize) -> f64 {
    let pass_ns = t.spans()[pass].dur_ns() as f64;
    match dominant {
        // Child wall clock splits into replayed library time per layer
        // plus process overhead; isa and the overhead are the claim.
        Dominant::IsaAndProcessOverhead => {
            let children = t.by_name_within("cli.process", pass).total_ns as f64;
            let library = replay_library_ns(t);
            let all: u64 = library.values().sum();
            let isa = library.get("isa").copied().unwrap_or(0);
            ratio(children - all as f64 + isa as f64, children)
        }
        Dominant::ServeReplay => {
            let serve = t.by_name_within("serve.serve", pass).total_ns as f64;
            let warm = t.by_name("serve.warm").total_ns as f64;
            ratio(serve - warm, pass_ns)
        }
        Dominant::Layer(layer) => {
            let layers = t.by_layer(Some(pass));
            ratio(layers.get(layer).map_or(0.0, |l| l.self_ns as f64), pass_ns)
        }
    }
}

/// The value of every [`LAYER_METRICS`] entry for this traced run.
///
/// `traced_over_untraced` is the median traced pass over the median
/// untraced pass of the same process, both clock-compensated.
pub fn metrics(
    t: &Tracer,
    dominant: Dominant,
    traced_over_untraced: f64,
) -> BTreeMap<&'static str, f64> {
    let pass = t.find("harness.pass", "").expect("traced run has a pass");
    let layers = t.by_layer(None);
    let layer_self_s = |l: &str| layers.get(l).map_or(0.0, Totals::self_s);

    let chain = t.by_name("event.chain");
    let sim = t.by_name("core.simulate");
    let rob1 = t.by_name("core.simulate_rob1");
    let noc = t.by_name("core.noc_drive");
    let compile = t.by_name("compiler.compile");
    let check = t.by_name("analyze.check");
    let bounds = t.by_name("analyze.bounds");
    let to_json = t.by_name("isa.to_json");
    let from_json = t.by_name("isa.from_json");
    let assemble = t.by_name("isa.assemble");
    let disassemble = t.by_name("isa.disassemble");
    let children = t.by_name_within("cli.process", pass);
    let library: u64 = replay_library_ns(t).values().sum();
    let grid = t.by_name_within("sweep.run_scenarios", pass);
    let serial = t.by_name("sweep.execute");
    let serve = t.by_name_within("serve.serve", pass);
    let warm = t.by_name("serve.warm");
    let replay_s = (total_s(&serve) - total_s(&warm)).max(0.0);

    let mb_per_s = |t: &Totals| per_s(t, "bytes") / 1e6;
    let values: [(&'static str, f64); LAYER_METRICS.len()] = [
        ("event.ns_per_event", ns_per(&chain, "events")),
        ("core.self_s", sim.self_s()),
        ("core.events", sim.count("events") as f64),
        ("core.instructions", sim.count("instructions") as f64),
        ("core.ns_per_event", ns_per(&sim, "events")),
        ("core.ns_per_event_rob1", ns_per(&rob1, "events")),
        ("core.instr_per_s", per_s(&sim, "instructions")),
        ("core.noc_ns_per_msg", ns_per(&noc, "msgs")),
        ("core.msgs_per_s", per_s(&sim, "msgs")),
        ("compiler.compile_s", total_s(&compile)),
        (
            "compiler.instructions",
            compile.count("instructions") as f64,
        ),
        ("analyze.check_s", total_s(&check)),
        ("analyze.bounds_s", total_s(&bounds)),
        (
            "analyze.bounds_ns_per_instr",
            ns_per(&bounds, "instructions"),
        ),
        ("isa.json_write_mb_per_s", mb_per_s(&to_json)),
        ("isa.json_read_mb_per_s", mb_per_s(&from_json)),
        (
            "isa.asm_parse_instr_per_s",
            per_s(&assemble, "instructions"),
        ),
        (
            "isa.disasm_instr_per_s",
            per_s(&disassemble, "instructions"),
        ),
        ("isa.program_bytes", to_json.count("bytes") as f64),
        (
            "cli.process_overhead_s",
            if children.calls > 0 {
                (children.total_ns as f64 - library as f64) / 1e9
            } else {
                0.0
            },
        ),
        ("sweep.points_per_s", per_s(&grid, "points")),
        (
            "sweep.parallel_efficiency",
            ratio(total_s(&serial), THREADS as f64 * total_s(&grid)),
        ),
        ("serve.warm_s", total_s(&warm)),
        (
            "serve.replay_s",
            if serve.calls > 0 { replay_s } else { 0.0 },
        ),
        (
            "serve.requests_per_s",
            ratio(serve.count("requests") as f64, replay_s),
        ),
        ("nn.self_s", layer_self_s("nn")),
        ("arch.self_s", layer_self_s("arch")),
        ("baseline.self_s", layer_self_s("baseline")),
        (
            "dominant_share_pct",
            100.0 * dominant_share(t, dominant, pass),
        ),
        ("trace_overhead_pct", 100.0 * (traced_over_untraced - 1.0)),
    ];
    values.into_iter().collect()
}

/// One `(span name, detail)` row of the traced run: the per-network and
/// per-config numbers behind the flat metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRow {
    /// `layer.function`.
    pub span: String,
    /// Network, config or command.
    pub detail: String,
    /// Spans summed.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed work counts.
    pub counts: BTreeMap<String, u64>,
}

impl CallRow {
    /// Every `(span, detail)` pair of the traced run, harness spans left out.
    pub fn from_tracer(t: &Tracer) -> Vec<CallRow> {
        t.by_call()
            .into_iter()
            .filter(|((name, _), _)| !name.starts_with("harness."))
            .map(|((name, detail), totals)| CallRow {
                span: name.to_string(),
                detail,
                calls: totals.calls,
                total_s: total_s(&totals),
                self_s: totals.self_s(),
                counts: totals
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
            })
            .collect()
    }

    /// JSON form.
    pub fn to_value(&self) -> Value {
        let mut counts = Map::new();
        for (k, v) in &self.counts {
            counts.insert(k.as_str(), Value::from(*v));
        }
        json!({
            "span": (self.span.as_str()),
            "detail": (self.detail.as_str()),
            "calls": (self.calls),
            "total_s": (self.total_s),
            "self_s": (self.self_s),
            "counts": (Value::Object(counts)),
        })
    }

    /// Parses the JSON form back (the parent process reads its children's).
    pub fn from_value(v: &Value) -> Option<CallRow> {
        Some(CallRow {
            span: v["span"].as_str()?.to_string(),
            detail: v["detail"].as_str()?.to_string(),
            calls: v["calls"].as_u64()?,
            total_s: v["total_s"].as_f64()?,
            self_s: v["self_s"].as_f64()?,
            counts: v["counts"]
                .as_object()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
        })
    }

    fn ns_per_event(&self) -> Option<f64> {
        let events = *self.counts.get("events")?;
        (events > 0).then(|| self.total_s * 1e9 / events as f64)
    }
}

/// One network's row of the layer-gap table: host nanoseconds per kernel
/// event, from the bare kernel up to a whole `pimsim run` process.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// Zoo network.
    pub network: String,
    /// Bare typed kernel (the same figure on every row).
    pub kernel: Option<f64>,
    /// Machine model at `rob = 1`.
    pub machine_rob1: Option<f64>,
    /// Machine model at the paper-default arch.
    pub machine_default: Option<f64>,
    /// `pimsim run --network N --json`, process start to last byte out.
    pub process: Option<f64>,
}

impl GapRow {
    /// JSON form; a rung no traced workload measured is `null`.
    pub fn to_value(&self) -> Value {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::from);
        json!({
            "network": (self.network.as_str()),
            "kernel_ns_per_event": (opt(self.kernel)),
            "machine_rob1_ns_per_event": (opt(self.machine_rob1)),
            "machine_default_ns_per_event": (opt(self.machine_default)),
            "process_ns_per_event": (opt(self.process)),
        })
    }
}

/// The layer-gap table from the call rows of traced workloads, given as
/// `(workload, rows)`: `zoo-sim` supplies the kernel and the two machine
/// rungs, `cli-pipeline` the process level for the networks it runs.
/// Other workloads' rows are not rungs of this ladder and are ignored.
pub fn layer_gap(sources: &[(&str, Vec<CallRow>)]) -> Vec<GapRow> {
    type Rung = fn(&mut GapRow) -> &mut Option<f64>;
    let kernel = sources
        .iter()
        .flat_map(|(_, rows)| rows)
        .find(|r| r.span == "event.chain")
        .and_then(CallRow::ns_per_event);
    let mut table: BTreeMap<String, GapRow> = BTreeMap::new();
    for (workload, rows) in sources {
        for row in rows {
            let (network, rung): (&str, Rung) = match (*workload, row.span.as_str()) {
                ("zoo-sim", "core.simulate_rob1") => (&row.detail, |g| &mut g.machine_rob1),
                ("zoo-sim", "core.simulate") => (&row.detail, |g| &mut g.machine_default),
                ("cli-pipeline", "cli.process") => match row.detail.strip_prefix("run:") {
                    Some(network) => (network, |g| &mut g.process),
                    None => continue,
                },
                _ => continue,
            };
            let entry = table.entry(network.to_string()).or_insert_with(|| GapRow {
                network: network.to_string(),
                kernel,
                machine_rob1: None,
                machine_default: None,
                process: None,
            });
            *rung(entry) = row.ns_per_event();
        }
    }
    table.into_values().collect()
}

/// The gap table as aligned text.
pub fn render_gap(rows: &[GapRow]) -> String {
    let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
    let mut out = format!(
        "{:<12} {:>10} {:>14} {:>16} {:>14}   (host ns per kernel event)\n",
        "network", "kernel", "machine rob=1", "machine default", "pimsim run"
    );
    for r in rows {
        out += &format!(
            "{:<12} {:>10} {:>14} {:>16} {:>14}\n",
            r.network,
            cell(r.kernel),
            cell(r.machine_rob1),
            cell(r.machine_default),
            cell(r.process)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(span: &str, detail: &str, total_s: f64, events: u64) -> CallRow {
        CallRow {
            span: span.to_string(),
            detail: detail.to_string(),
            calls: 1,
            total_s,
            self_s: total_s,
            counts: [("events".to_string(), events)].into_iter().collect(),
        }
    }

    #[test]
    fn gap_table_joins_kernel_machine_and_process_rungs_per_network() {
        let zoo = vec![
            row("event.chain", "typed-kernel", 0.02, 1_000_000),
            row("core.simulate", "lenet", 0.015, 30_000),
            row("core.simulate_rob1", "lenet", 0.006, 30_000),
            row("core.simulate", "vgg8", 0.03, 60_000),
        ];
        let cli = vec![
            row("cli.process", "run:lenet", 0.03, 30_000),
            row("cli.process", "disasm:lenet", 0.2, 0),
            // The in-process replay is not the machine rung.
            row("core.simulate", "lenet", 0.5, 30_000),
        ];
        // Jobs of other workloads are not zoo networks.
        let mesh = vec![row("core.simulate", "perm.m100/xy/vc1", 0.01, 100)];
        let rows = zoo.clone();
        let table = layer_gap(&[
            ("zoo-sim", zoo),
            ("cli-pipeline", cli),
            ("mesh-traffic", mesh),
        ]);
        assert_eq!(table.len(), 2);
        let lenet = &table[0];
        assert_eq!(lenet.network, "lenet");
        assert_eq!(lenet.kernel, Some(20.0));
        assert_eq!(lenet.machine_rob1, Some(200.0));
        assert_eq!(lenet.machine_default, Some(500.0));
        assert_eq!(lenet.process, Some(1000.0));
        assert_eq!(table[1].network, "vgg8");
        assert_eq!(table[1].process, None);
        assert!(render_gap(&table).contains("lenet"));
        let back = CallRow::from_value(&rows[1].to_value()).unwrap();
        assert_eq!(back, rows[1]);
    }

    #[test]
    fn metrics_cover_exactly_the_declared_names_and_are_zero_when_unexercised() {
        let mut t = Tracer::enabled();
        t.span("harness.pass", "", |t| {
            t.span_counted("analyze.bounds", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ((), vec![("instructions", 1000)])
            });
        });
        let m = metrics(&t, Dominant::Layer("analyze"), 1.02);
        let names: Vec<_> = LAYER_METRICS.iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), sorted);
        assert!(m["analyze.bounds_s"] >= 0.002);
        assert!(m["analyze.bounds_ns_per_instr"] >= 2000.0);
        assert!(m["dominant_share_pct"] > 90.0 && m["dominant_share_pct"] <= 100.0);
        assert!((m["trace_overhead_pct"] - 2.0).abs() < 1e-9);
        // At half the reference clock every time halves and no share moves.
        let slow = metrics(
            &t.compensated(&[(0, 2.0)]),
            Dominant::Layer("analyze"),
            1.02,
        );
        assert!((slow["analyze.bounds_s"] * 2.0 - m["analyze.bounds_s"]).abs() < 1e-8);
        assert!((slow["dominant_share_pct"] - m["dominant_share_pct"]).abs() < 1e-3);
        for zero in [
            "core.ns_per_event",
            "serve.replay_s",
            "cli.process_overhead_s",
        ] {
            assert_eq!(m[zero], 0.0, "{zero}");
        }
    }
}
