//! Fig. 3 — comparison of mapping algorithms (normalized latency and
//! energy, utilization-first vs performance-first, ROB = 1).
//!
//! ```sh
//! cargo run -p pimsim-bench --release --bin fig3
//! ```

use pimsim_arch::ArchConfig;
use pimsim_bench::{header, row, BATCH, FIG34_NETWORKS, FIG34_RESOLUTION};
use pimsim_compiler::MappingPolicy;
use pimsim_sweep::{default_threads, run_grid, SweepGrid, SweepRow};

fn main() {
    let mut grid = SweepGrid::over_networks(FIG34_NETWORKS.iter().copied());
    grid.base = Some(ArchConfig::paper_default().with_rob(1));
    grid.resolutions = vec![FIG34_RESOLUTION];
    grid.batches = vec![BATCH];
    grid.mappings = vec![
        "utilization-first".to_string(),
        "performance-first".to_string(),
    ];
    let rows = run_grid(&grid, default_threads()).expect("fig3 sweep");
    let find = |name: &str, policy: MappingPolicy| -> &SweepRow {
        rows.iter()
            .find(|r| r.scenario.network == name && r.scenario.mapping == policy)
            .expect("grid covers every (network, policy) point")
    };

    println!("# Fig. 3 — mapping algorithms (64 cores, 512 xbars/core, 128x128, ROB=1)");
    println!("# inputs {FIG34_RESOLUTION}x{FIG34_RESOLUTION}, batch {BATCH}; values normalized to utilization-first\n");

    println!("## (a) normalized latency");
    header(&["network", "utilization-first", "performance-first"]);
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    for name in FIG34_NETWORKS {
        let util = find(name, MappingPolicy::UtilizationFirst);
        let perf = find(name, MappingPolicy::PerformanceFirst);
        let ul = util.latency_per_image().as_ns_f64();
        let pl = perf.latency_per_image().as_ns_f64();
        row(&[name.to_string(), "1.000".into(), format!("{:.3}", pl / ul)]);
        speedups.push(ul / pl);
        energies.push((util.energy_pj, perf.energy_pj));
    }

    println!("\n## (b) normalized energy");
    header(&["network", "utilization-first", "performance-first"]);
    for (name, (ue, pe)) in FIG34_NETWORKS.iter().zip(&energies) {
        row(&[name.to_string(), "1.000".into(), format!("{:.3}", pe / ue)]);
    }

    let mean = speedups
        .iter()
        .product::<f64>()
        .powf(1.0 / speedups.len() as f64);
    println!("\nmean latency improvement of performance-first: {mean:.2}x");
    println!("paper: performance-first wins on every network, ~2x improvement on average");
}
