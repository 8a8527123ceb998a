//! The worker pool that fans a campaign out across OS threads and the
//! result rows it collects.

use serde::{Serialize, Sink};

use pimsim_arch::Energy;
use pimsim_compiler::Compiler;
use pimsim_core::Simulator;
use pimsim_event::{par_map_indexed, SimTime};

use crate::grid::{zoo_network, Scenario, SweepGrid};
use crate::SweepError;

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
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Cores with work assigned.
    pub cores_used: usize,
    /// Network node (layer) names, in node order.
    pub node_names: Vec<String>,
    /// Communication-latency ratio per node, aligned with `node_names`.
    pub comm_ratios: Vec<f64>,
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
    /// Returns the corresponding [`SweepError`] when the architecture is
    /// invalid, the network is unknown or cannot be built at its
    /// resolution, or the compile or simulation fails.
    pub fn execute(&self, index: usize) -> Result<SweepRow, SweepError> {
        self.arch.validate()?;
        let net = zoo_network(&self.network, self.resolution)?;
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
            node_names: compiled.node_names,
            comm_ratios,
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
        assert_eq!(
            err,
            SweepError::BadResolution {
                network: "vgg8".to_string(),
                resolution: 1
            }
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
    }
}
