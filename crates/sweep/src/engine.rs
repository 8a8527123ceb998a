//! The worker pool that fans a campaign out across OS threads and the
//! result rows it collects.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Serialize, Sink};

use pimsim_arch::{ArchConfig, Energy};
use pimsim_compiler::{Compiled, Compiler};
use pimsim_core::Simulator;
use pimsim_event::{par_map_visiting, SimTime};

use crate::grid::{zoo_network, Scenario, SweepGrid};
use crate::{SweepError, ARCH_KNOBS};

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
    /// Compiles and simulates this scenario, single-threaded: the
    /// single-point path, and the oracle [`run_scenarios`]' shared
    /// compiles are held to.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`SweepError`] when the architecture is
    /// invalid, the network is unknown or cannot be built at its
    /// resolution, or the compile or simulation fails.
    pub fn execute(&self, index: usize) -> Result<SweepRow, SweepError> {
        self.arch.validate()?;
        let compiled = self.compile().map_err(|e| self.labelled(e))?;
        self.simulate(index, &compiled)
    }

    /// Builds the network and compiles it for this scenario's
    /// architecture, which the caller has validated. A compiler error does
    /// not name the scenario yet: scenarios sharing one compile each word
    /// it with their own label ([`Scenario::labelled`]).
    fn compile(&self) -> Result<Compiled, SweepError> {
        let net = zoo_network(&self.network, self.resolution)?;
        Compiler::new(&self.arch)
            .mapping(self.mapping)
            .batch(self.batch)
            .compile(&net)
            .map_err(|e| SweepError::Compile(e.to_string()))
    }

    /// Words a [`Scenario::compile`] error for this scenario: a compiler
    /// error gains its label, a network error is already complete.
    fn labelled(&self, e: SweepError) -> SweepError {
        match e {
            SweepError::Compile(e) => SweepError::Compile(format!("{}: {e}", self.display_label())),
            e => e,
        }
    }

    /// Simulates `compiled` on this scenario's architecture, which the
    /// caller has validated, and summarizes the report as row `index`.
    fn simulate(&self, index: usize, compiled: &Compiled) -> Result<SweepRow, SweepError> {
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
/// ([`par_map_visiting`], one point per call): the returned rows are
/// ordered by scenario index and the campaign output is independent of
/// thread interleaving.
///
/// Scenarios that compile to the same program — the same network,
/// resolution, mapping and batch on architectures that differ only in
/// [`ARCH_KNOBS`], none of which the compiler reads — form a group and
/// share one compile: the first member to need it compiles, the others
/// wait for it, and the last member to finish drops it. The pool visits
/// the points group by group, so only the programs of the groups in
/// flight are alive, whatever order the list comes in. Every row equals
/// [`Scenario::execute`]'s.
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
    let groups = program_groups(&scenarios);
    let mut group_of = vec![0; scenarios.len()];
    for (g, members) in groups.iter().enumerate() {
        for &index in members {
            group_of[index] = g;
        }
    }
    let programs: Vec<SharedProgram> = groups.iter().map(|m| SharedProgram::new(m.len())).collect();
    let order = groups.concat();
    par_map_visiting(
        scenarios.len(),
        threads,
        |p| order[p],
        |index| {
            let s = &scenarios[index];
            let program = &programs[group_of[index]];
            let row = s.arch.validate().map_err(SweepError::from).and_then(|()| {
                let compiled = program.get_or_compile(s).map_err(|e| s.labelled(e))?;
                s.simulate(index, &compiled)
            });
            program.finish();
            row
        },
    )
}

/// Partitions scenario indices into groups that compile to one program:
/// equal network, resolution, mapping, batch and architecture once every
/// [`ARCH_KNOBS`] row is reset to the paper chip's value. Groups come in
/// order of first appearance, members in index order.
fn program_groups(scenarios: &[Scenario]) -> Vec<Vec<usize>> {
    let reference = ArchConfig::paper_default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // Per (network, resolution, mapping, batch): each group's key
    // architecture and position.
    let mut keyed: HashMap<_, Vec<(ArchConfig, usize)>> = HashMap::new();
    for (index, s) in scenarios.iter().enumerate() {
        let mut arch = s.arch.clone();
        for knob in ARCH_KNOBS {
            (knob.set)(&mut arch, (knob.get)(&reference));
        }
        let bucket = keyed
            .entry((s.network.as_str(), s.resolution, s.mapping, s.batch))
            .or_default();
        match bucket.iter().find(|(key, _)| *key == arch) {
            Some(&(_, g)) => groups[g].push(index),
            None => {
                bucket.push((arch, groups.len()));
                groups.push(vec![index]);
            }
        }
    }
    groups
}

/// One program group's compile, shared by its members: made by the first
/// member that needs it and dropped when the last member finishes, so a
/// campaign holds only the programs of the groups in flight.
struct SharedProgram {
    /// The compile's outcome, with a compiler error not yet worded with a
    /// member's label; `None` before the first member and after the last.
    slot: Mutex<Option<Result<Arc<Compiled>, SweepError>>>,
    /// Members that have not finished.
    pending: AtomicUsize,
}

impl SharedProgram {
    fn new(members: usize) -> Self {
        SharedProgram {
            slot: Mutex::new(None),
            pending: AtomicUsize::new(members),
        }
    }

    /// The group's program, compiled for `s` if no member has compiled it
    /// yet. The lock is held over the compile, so members that need the
    /// program meanwhile wait for that one compile.
    fn get_or_compile(&self, s: &Scenario) -> Result<Arc<Compiled>, SweepError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert_with(|| s.compile().map(Arc::new))
            .clone()
    }

    /// Records that one member has finished; the last drops the program.
    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
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

    /// The benchmark's `dse-sweep` grid: 64 points, 16 programs, each
    /// shared by the four ROB depths.
    #[test]
    fn dse_sweep_grid_forms_sixteen_program_groups() -> Result<(), SweepError> {
        let grid = SweepGrid::from_json(
            r#"{
                "networks": ["alexnet", "squeezenet", "resnet18", "vgg8"],
                "rob_sizes": [1, 4, 8, 16],
                "mappings": ["performance-first", "utilization-first"],
                "batches": [1, 2]
            }"#,
        )?;
        let scenarios = grid.scenarios()?;
        assert_eq!(scenarios.len(), 64);
        let groups = program_groups(&scenarios);
        assert_eq!(groups.len(), 16);
        for (g, members) in groups.iter().enumerate() {
            assert_eq!(*members, (4 * g..4 * g + 4).collect::<Vec<_>>());
        }
        Ok(())
    }

    #[test]
    fn a_shared_program_is_compiled_once_and_dropped_by_its_last_member() -> Result<(), SweepError>
    {
        let at = |rob, batch| {
            Scenario::cycle(
                "tiny_mlp",
                64,
                MappingPolicy::PerformanceFirst,
                batch,
                ArchConfig::small_test().with_rob(rob),
            )
        };
        let shared = SharedProgram::new(2);
        let first = shared.get_or_compile(&at(4, 1))?;
        let second = shared.get_or_compile(&at(8, 1))?;
        assert!(Arc::ptr_eq(&first, &second));
        let alive = |shared: &SharedProgram| shared.slot.lock().is_ok_and(|s| s.is_some());
        shared.finish();
        assert!(alive(&shared));
        shared.finish();
        assert!(!alive(&shared));

        // A batch too large for global memory: the member that compiled
        // (rob=3) is not the one that reports (rob=1), whose label alone
        // the error carries.
        let failing = SharedProgram::new(2);
        let _ = failing.get_or_compile(&at(3, 1_000_000));
        let reporter = at(1, 1_000_000);
        let Err(SweepError::Compile(text)) = failing
            .get_or_compile(&reporter)
            .map_err(|e| reporter.labelled(e))
        else {
            panic!("a batch of a million cannot fit the small test chip");
        };
        assert!(text.starts_with(&reporter.display_label()), "{text}");
        assert!(!text.contains("rob=3"), "{text}");
        Ok(())
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
