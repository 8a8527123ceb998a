//! The worker pool that fans a campaign out across OS threads and the
//! result rows it collects.

use serde::{Serialize, Sink};

use pimsim_arch::Energy;
use pimsim_baseline::BaselineSimulator;
use pimsim_compiler::Compiler;
use pimsim_core::Simulator;
use pimsim_event::{par_map_indexed, SimTime};
use pimsim_nn::zoo;

use crate::grid::{Scenario, SimulatorKind, SweepGrid};
use crate::SweepError;

/// The serving metrics of a serving-mode row ([`Scenario::serve`] set):
/// what the open-loop front-end adds on top of the core columns.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ServeSummary {
    /// Achieved goodput, requests per second.
    pub throughput_rps: f64,
    /// Requests generated by the arrival process.
    pub generated: u64,
    /// Requests served to completion.
    pub finished: u64,
    /// Requests dropped at the full queue.
    pub dropped: u64,
    /// Requests still queued when the run stopped.
    pub in_queue: u64,
    /// Median request latency (arrival → completion), nanoseconds.
    pub p50_latency_ns: f64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_latency_ns: f64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: f64,
    /// The deepest the queue ever got.
    pub max_queue_depth: u64,
}

/// One evaluated grid point: the scenario plus a summary of its
/// simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Position in the expanded grid (rows are returned in this order).
    pub index: usize,
    /// The scenario that produced this row.
    pub scenario: Scenario,
    /// End-to-end latency in picoseconds (exact).
    pub latency_ps: u64,
    /// Latency per inference (latency / batch), picoseconds.
    pub latency_per_image_ps: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// Dynamic instruction count (0 for the behaviour-level baseline).
    pub instructions: u64,
    /// Kernel events processed (0 for the behaviour-level baseline).
    pub events: u64,
    /// Cores with work assigned (0 for the behaviour-level baseline).
    pub cores_used: usize,
    /// Network node (layer) names, in node order.
    pub node_names: Vec<String>,
    /// Communication-latency ratio per node, aligned with `node_names`.
    pub comm_ratios: Vec<f64>,
    /// Serving metrics (serving-mode rows only). On these rows the core
    /// latency columns are repurposed: `latency_ps` carries the p99 and
    /// `latency_per_image_ps` the p50 request latency, so rate×arch grids
    /// plot tails through the same columns one-shot campaigns use.
    pub serve: Option<ServeSummary>,
}

impl SweepRow {
    /// End-to-end latency.
    pub fn latency(&self) -> SimTime {
        SimTime::from_ps(self.latency_ps)
    }

    /// Latency per inference.
    pub fn latency_per_image(&self) -> SimTime {
        SimTime::from_ps(self.latency_per_image_ps)
    }

    /// Total energy.
    pub fn energy(&self) -> Energy {
        Energy::from_pj(self.energy_pj)
    }

    /// The communication ratio of the node at `index`, 0.0 when absent.
    pub fn comm_ratio(&self, index: usize) -> f64 {
        self.comm_ratios.get(index).copied().unwrap_or(0.0)
    }
}

impl Serialize for SweepRow {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_map();
        sink.field("index", &self.index);
        sink.field("scenario", &self.scenario);
        sink.field("latency_ps", &self.latency_ps);
        sink.field("latency_ns", &(self.latency_ps as f64 / 1e3));
        sink.field(
            "latency_per_image_ns",
            &(self.latency_per_image_ps as f64 / 1e3),
        );
        sink.field("energy_pj", &self.energy_pj);
        sink.field("power_w", &self.power_w);
        sink.field("instructions", &self.instructions);
        sink.field("events", &self.events);
        sink.field("cores_used", &self.cores_used);
        sink.field("node_names", &self.node_names);
        sink.field("comm_ratios", &self.comm_ratios);
        // Present only on serving rows, so one-shot campaign output stays
        // byte-identical with pre-serving releases.
        if let Some(serve) = &self.serve {
            sink.field("serve", serve);
        }
        sink.end_map();
    }
}

impl Scenario {
    /// Compiles and simulates this scenario, single-threaded.
    ///
    /// This is exactly what the worker pool runs per grid point, exposed
    /// so a row can be cross-checked against a direct run.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`SweepError`] when the architecture,
    /// compile, or simulation fails.
    pub fn execute(&self, index: usize) -> Result<SweepRow, SweepError> {
        self.arch.validate()?;
        if let Some(sp) = &self.serve {
            return self.execute_serve(index, sp);
        }
        let net = zoo::by_name(&self.network, self.resolution)
            .ok_or_else(|| SweepError::UnknownNetwork(self.network.clone()))?;
        // A degenerate resolution (a pooling window larger than its input,
        // say) is this scenario's error.
        net.validate().map_err(|_| {
            SweepError::Config(format!(
                "network `{}` cannot be built at resolution {}",
                self.network, self.resolution
            ))
        })?;
        match self.simulator {
            SimulatorKind::Cycle => {
                let compiled = Compiler::new(&self.arch)
                    .mapping(self.mapping)
                    .batch(self.batch)
                    .compile(&net)
                    .map_err(|e| SweepError::Compile(format!("{}: {e}", self.display_label())))?;
                let report = Simulator::new(&self.arch)
                    .run(&compiled.program)
                    .map_err(|e| SweepError::Sim(format!("{}: {e}", self.display_label())))?;
                let comm_ratios = (0..compiled.node_names.len())
                    .map(|i| report.comm_ratio(i as u16))
                    .collect();
                Ok(SweepRow {
                    index,
                    scenario: self.clone(),
                    latency_ps: report.latency.as_ps(),
                    latency_per_image_ps: (report.latency / self.batch.max(1) as u64).as_ps(),
                    energy_pj: report.energy.total().as_pj(),
                    power_w: report.avg_power_w(),
                    instructions: report.instructions,
                    events: report.events,
                    cores_used: compiled.placement.cores_used,
                    node_names: compiled.node_names.clone(),
                    comm_ratios,
                    serve: None,
                })
            }
            SimulatorKind::Baseline => {
                let report = BaselineSimulator::new(&self.arch)
                    .run(&net)
                    .map_err(|e| SweepError::Sim(format!("{}: {e}", self.display_label())))?;
                Ok(SweepRow {
                    index,
                    scenario: self.clone(),
                    latency_ps: report.latency.as_ps(),
                    latency_per_image_ps: report.latency.as_ps(),
                    energy_pj: report.energy.as_pj(),
                    power_w: report.avg_power_w(),
                    instructions: 0,
                    events: 0,
                    cores_used: 0,
                    node_names: report.per_layer.iter().map(|l| l.name.clone()).collect(),
                    comm_ratios: report.per_layer.iter().map(|l| l.comm_ratio()).collect(),
                    serve: None,
                })
            }
        }
    }

    /// Evaluates a serving-mode grid point: the open-loop front-end at
    /// this scenario's rate and batch policy, on this scenario's
    /// architecture and mapping. Single-threaded — the worker pool's
    /// parallelism lives at the scenario level, and the serve report is
    /// thread-count-independent anyway.
    fn execute_serve(
        &self,
        index: usize,
        sp: &crate::grid::ServePoint,
    ) -> Result<SweepRow, SweepError> {
        let mut config =
            pimsim_serve::ServeConfig::new(vec![(self.network.clone(), self.resolution)]);
        config.arch = self.arch.clone();
        config.mapping = self.mapping;
        config.rate_rps = sp.rate_rps;
        config.batch = sp.policy;
        config.duration = sp.duration;
        config.seed = sp.seed;
        let report = pimsim_serve::serve(&config, 1)
            .map_err(|e| SweepError::Sim(format!("{}: {e}", self.display_label())))?;
        let net = &report.per_network[0];
        Ok(SweepRow {
            index,
            scenario: self.clone(),
            latency_ps: (net.p99_latency_ns * 1e3).round() as u64,
            latency_per_image_ps: (net.p50_latency_ns * 1e3).round() as u64,
            energy_pj: report.energy_pj,
            power_w: report.avg_power_w,
            instructions: 0,
            events: 0,
            cores_used: 0,
            node_names: Vec::new(),
            comm_ratios: Vec::new(),
            serve: Some(ServeSummary {
                throughput_rps: report.throughput_rps,
                generated: report.generated,
                finished: report.finished,
                dropped: report.dropped,
                in_queue: report.in_queue,
                p50_latency_ns: net.p50_latency_ns,
                p95_latency_ns: net.p95_latency_ns,
                p99_latency_ns: net.p99_latency_ns,
                max_queue_depth: report.max_queue_depth,
            }),
        })
    }
}

/// The default worker-thread count for a campaign: every core the host
/// offers. The campaign output is deterministic regardless of the count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Expands `grid` and runs every scenario on a pool of `threads` OS
/// threads. Equivalent to `run_scenarios(grid.scenarios()?, threads)`.
///
/// # Errors
///
/// Returns the expansion error, or the failing scenario's error with the
/// smallest grid index (deterministic regardless of thread interleaving).
pub fn run_grid(grid: &SweepGrid, threads: usize) -> Result<Vec<SweepRow>, SweepError> {
    run_scenarios(grid.scenarios()?, threads)
}

/// Runs an explicit scenario list on a pool of `threads` OS threads
/// ([`par_map_indexed`]): the returned rows are ordered by scenario index
/// and the campaign output is independent of thread interleaving.
///
/// # Errors
///
/// Returns [`SweepError::EmptyGrid`] for an empty list; otherwise the
/// error of the failing scenario with the smallest index, if any —
/// scenarios above a failure are cancelled, everything below it still
/// runs.
pub fn run_scenarios(
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Result<Vec<SweepRow>, SweepError> {
    if scenarios.is_empty() {
        return Err(SweepError::EmptyGrid);
    }
    par_map_indexed(scenarios.len(), threads, |i| scenarios[i].execute(i))
}

/// Renders campaign results as pretty JSON: `{"points": N, "rows": [...]}`.
///
/// The rendering is fully determined by the rows, so equal campaigns
/// produce byte-identical text whatever thread count computed them.
pub fn results_to_json(rows: &[SweepRow]) -> String {
    struct Results<'a>(&'a [SweepRow]);

    impl Serialize for Results<'_> {
        fn serialize<S: Sink>(&self, sink: &mut S) {
            sink.begin_map();
            sink.field("points", &self.0.len());
            sink.field("rows", self.0);
            sink.end_map();
        }
    }

    serde_json::to_string_pretty(&Results(rows)).expect("row serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;
    use pimsim_compiler::MappingPolicy;

    fn tiny_grid() -> SweepGrid {
        let mut grid = SweepGrid::over_networks(["tiny_mlp", "tiny_cnn"]);
        grid.base = Some(ArchConfig::small_test());
        grid.rob_sizes = vec![1, 4];
        grid
    }

    #[test]
    fn rows_come_back_in_grid_order() {
        let rows = run_grid(&tiny_grid(), 3).unwrap();
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(row.latency_ps > 0);
            assert!(row.energy_pj > 0.0);
        }
        assert_eq!(rows[0].scenario.network, "tiny_mlp");
        assert_eq!(rows[3].scenario.network, "tiny_cnn");
    }

    #[test]
    fn baseline_scenarios_run() {
        let row = Scenario::baseline("tiny_mlp", 64, ArchConfig::small_test())
            .execute(0)
            .unwrap();
        assert!(row.latency_ps > 0);
        assert_eq!(row.instructions, 0);
        assert_eq!(row.node_names.len(), row.comm_ratios.len());
        assert!(!row.node_names.is_empty());
    }

    #[test]
    fn degenerate_resolution_is_an_error_not_a_panic() {
        // Regression: the zoo builders panic on impossible resolutions;
        // that must surface as the scenario's error, not abort the pool.
        let s = Scenario::cycle(
            "vgg8",
            1,
            MappingPolicy::PerformanceFirst,
            1,
            ArchConfig::small_test(),
        );
        let err = run_scenarios(vec![s], 2).unwrap_err();
        assert!(
            matches!(err, SweepError::Config(_)),
            "expected a config error, got {err:?}"
        );
    }

    #[test]
    fn errors_surface_deterministically() {
        assert_eq!(
            run_scenarios(Vec::new(), 4).unwrap_err(),
            SweepError::EmptyGrid
        );
        let good = Scenario::cycle(
            "tiny_mlp",
            64,
            MappingPolicy::PerformanceFirst,
            1,
            ArchConfig::small_test(),
        );
        let mut bad_arch = ArchConfig::small_test();
        bad_arch.resources.rob_size = 0;
        let bad = Scenario::cycle("tiny_mlp", 64, MappingPolicy::PerformanceFirst, 1, bad_arch);
        let err = run_scenarios(vec![good, bad.clone(), bad], 2).unwrap_err();
        assert!(matches!(err, SweepError::Arch(_)));
    }

    #[test]
    fn json_rendering_is_stable() {
        let rows = run_grid(&tiny_grid(), 2).unwrap();
        let a = results_to_json(&rows);
        let b = results_to_json(&rows);
        assert_eq!(a, b);
        assert!(a.contains("\"points\": 4"));
        assert!(a.contains("\"network\": \"tiny_cnn\""));
        // Non-serving rows never grow a `serve` key.
        assert!(!a.contains("\"serve\""));
    }

    #[test]
    fn serving_grids_execute_and_summarize() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.base = Some(ArchConfig::small_test());
        grid.arrival_rates = vec![100_000.0];
        grid.batch_policies = vec!["2/20us".into()];
        grid.serve_duration = Some("200us".into());
        let rows = run_grid(&grid, 2).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        let serve = row.serve.as_ref().expect("serving row carries a summary");
        assert_eq!(
            serve.generated,
            serve.finished + serve.dropped + serve.in_queue
        );
        assert!(serve.throughput_rps > 0.0);
        assert!(serve.p50_latency_ns > 0.0);
        assert!(serve.p99_latency_ns >= serve.p95_latency_ns);
        assert!(serve.p95_latency_ns >= serve.p50_latency_ns);
        // Serving rows repurpose the latency columns as p99 / p50.
        assert_eq!(row.latency_ps, (serve.p99_latency_ns * 1e3).round() as u64);
        assert_eq!(
            row.latency_per_image_ps,
            (serve.p50_latency_ns * 1e3).round() as u64
        );
        let json = results_to_json(&rows);
        assert!(json.contains("\"serve\""));
        assert!(json.contains("\"throughput_rps\""));
        // Thread count never changes serving results either.
        let again = run_grid(&grid, 4).unwrap();
        assert_eq!(results_to_json(&again), json);
    }
}
