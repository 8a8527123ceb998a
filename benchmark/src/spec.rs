//! The benchmark's fixed vocabulary: protocol constants, the gated
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics with the end-to-end number each is expected to move.
//!
//! `BENCHMARK.json` at the repository root states the same names, units,
//! directions and bounds for the driver; a unit test keeps the two equal.

/// The seed `expected.json` pins digests for.
pub const DEFAULT_SEED: u64 = 1;
/// Seconds of timed passes per run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Fresh set-ups per run (`S`); `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed passes per run (`R >= 5`), however long a pass takes.
pub const MIN_PASSES: usize = 5;
/// Fewest untraced passes a traced run times for its overhead baseline.
pub const MIN_PASSES_TRACED: usize = 3;
/// Passes a traced run takes with spans on; the last one's spans are kept.
pub const TRACED_PASSES: usize = 3;

/// The repository holds paper trends but no reference measurements, so no
/// error figure can be given for the simulated numbers.
pub const MODEL_VALIDATION: &str = "the simulated model is unvalidated against hardware or a more detailed model: the repository holds paper trends, no reference measurements, so no error figure is given";

/// A gated end-to-end metric. All are host-side and lower is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports.
pub const GATES: [Gate; 3] = [
    Gate {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    Gate {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    Gate {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.20,
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The workload whose traced run measures it (0 elsewhere).
    pub home: &'static str,
    /// The end-to-end number it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    home: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        home,
        moves,
    }
}

/// Every per-layer metric, in reporting order. A traced run of any
/// workload prints all of them; one the workload does not exercise is 0.
pub const LAYER_METRICS: [LayerMetric; 30] = [
    layer(
        "event.ns_per_event",
        "ns",
        "lower",
        "zoo-sim",
        "wall_s on zoo-sim, mesh-traffic",
    ),
    layer(
        "core.self_s",
        "s",
        "lower",
        "zoo-sim",
        "wall_s on zoo-sim, mesh-traffic",
    ),
    layer(
        "core.events",
        "count",
        "lower",
        "zoo-sim",
        "exact count; wall_s on zoo-sim",
    ),
    layer(
        "core.instructions",
        "count",
        "lower",
        "zoo-sim",
        "exact count; wall_s on zoo-sim",
    ),
    layer(
        "core.ns_per_event",
        "ns",
        "lower",
        "zoo-sim",
        "wall_s on zoo-sim",
    ),
    layer(
        "core.ns_per_event_rob1",
        "ns",
        "lower",
        "zoo-sim",
        "wall_s on zoo-sim (gap to core.ns_per_event is the ROB's share)",
    ),
    layer(
        "core.instr_per_s",
        "1/s",
        "higher",
        "zoo-sim",
        "wall_s on zoo-sim",
    ),
    layer(
        "core.noc_ns_per_msg",
        "ns",
        "lower",
        "mesh-traffic",
        "wall_s on mesh-traffic",
    ),
    layer(
        "core.msgs_per_s",
        "1/s",
        "higher",
        "mesh-traffic",
        "wall_s on mesh-traffic",
    ),
    layer(
        "compiler.compile_s",
        "s",
        "lower",
        "zoo-sim",
        "setup_s on zoo-sim, static-analysis; wall_s on dse-sweep, cli-pipeline",
    ),
    layer(
        "compiler.instructions",
        "count",
        "lower",
        "zoo-sim",
        "exact count; setup_s on zoo-sim",
    ),
    layer(
        "analyze.check_s",
        "s",
        "lower",
        "static-analysis",
        "wall_s on static-analysis",
    ),
    layer(
        "analyze.bounds_s",
        "s",
        "lower",
        "static-analysis",
        "wall_s on static-analysis",
    ),
    layer(
        "analyze.bounds_ns_per_instr",
        "ns",
        "lower",
        "static-analysis",
        "wall_s on static-analysis",
    ),
    layer(
        "isa.json_write_mb_per_s",
        "MB/s",
        "higher",
        "cli-pipeline",
        "wall_s and peak_rss_mb on cli-pipeline",
    ),
    layer(
        "isa.json_read_mb_per_s",
        "MB/s",
        "higher",
        "cli-pipeline",
        "wall_s and peak_rss_mb on cli-pipeline",
    ),
    layer(
        "isa.asm_parse_instr_per_s",
        "1/s",
        "higher",
        "cli-pipeline",
        "wall_s on cli-pipeline; setup_s on mesh-traffic",
    ),
    layer(
        "isa.disasm_instr_per_s",
        "1/s",
        "higher",
        "cli-pipeline",
        "wall_s on cli-pipeline",
    ),
    layer(
        "isa.program_bytes",
        "B",
        "lower",
        "cli-pipeline",
        "wall_s and peak_rss_mb on cli-pipeline",
    ),
    layer(
        "cli.process_overhead_s",
        "s",
        "lower",
        "cli-pipeline",
        "wall_s on cli-pipeline",
    ),
    layer(
        "sweep.points_per_s",
        "1/s",
        "higher",
        "dse-sweep",
        "wall_s on dse-sweep",
    ),
    layer(
        "sweep.parallel_efficiency",
        "ratio",
        "higher",
        "dse-sweep",
        "wall_s on dse-sweep",
    ),
    layer(
        "serve.warm_s",
        "s",
        "lower",
        "serve-replay",
        "setup_s on serve-replay",
    ),
    layer(
        "serve.replay_s",
        "s",
        "lower",
        "serve-replay",
        "wall_s on serve-replay",
    ),
    layer(
        "serve.requests_per_s",
        "1/s",
        "higher",
        "serve-replay",
        "wall_s on serve-replay",
    ),
    layer(
        "nn.self_s",
        "s",
        "lower",
        "zoo-sim",
        "none: recorded so `under 1 % of any pass` stays a checked fact",
    ),
    layer(
        "arch.self_s",
        "s",
        "lower",
        "zoo-sim",
        "none: recorded so `under 1 % of any pass` stays a checked fact",
    ),
    layer(
        "baseline.self_s",
        "s",
        "lower",
        "zoo-sim",
        "none: recorded so `under 1 % of any pass` stays a checked fact",
    ),
    layer(
        "dominant_share_pct",
        "%",
        "higher",
        "every workload",
        "none: shows from the trace that the workload stresses the layer it names",
    ),
    layer(
        "trace_overhead_pct",
        "%",
        "lower",
        "every workload",
        "none: traced pass over the untraced wall_s median, minus one",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    #[test]
    fn benchmark_json_states_the_same_gates_and_layer_metrics() {
        let doc = benchmark_json();
        let e2e = doc["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), GATES.len());
        for (entry, gate) in e2e.iter().zip(GATES) {
            assert_eq!(entry["name"].as_str(), Some(gate.name));
            assert_eq!(entry["unit"].as_str(), Some(gate.unit));
            assert_eq!(entry["better"].as_str(), Some("lower"));
            assert_eq!(entry["bound"].as_f64(), Some(gate.bound));
        }
        let layers = doc["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), LAYER_METRICS.len());
        for (entry, m) in layers.iter().zip(LAYER_METRICS) {
            assert_eq!(entry["name"].as_str(), Some(m.name));
            assert_eq!(entry["unit"].as_str(), Some(m.unit));
            assert_eq!(entry["better"].as_str(), Some(m.better));
        }
        assert_eq!(
            doc["run_seconds"].as_f64(),
            Some(DEFAULT_SECONDS),
            "run_seconds"
        );
    }

    #[test]
    fn benchmark_json_lists_every_workload_with_its_reason() {
        let doc = benchmark_json();
        let listed = doc["workloads"].as_array().unwrap();
        let all = crate::workloads::all();
        assert_eq!(listed.len(), all.len());
        for (entry, w) in listed.iter().zip(&all) {
            assert_eq!(entry["name"].as_str(), Some(w.name()));
            let why = entry["why"].as_str().unwrap();
            assert_eq!(why, w.why());
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in GATES
            .iter()
            .map(|g| (g.name, g.unit))
            .chain(LAYER_METRICS.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in crate::workloads::all() {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
        }
        assert!(GATES.iter().all(|g| g.bound <= 0.25));
    }
}
