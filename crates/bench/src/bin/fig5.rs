//! Fig. 5 — latency comparison with the MNSIM2.0-like baseline, plus the
//! per-layer communication-ratio analysis of §IV-B.
//!
//! ```sh
//! cargo run -p pimsim-bench --release --bin fig5
//! ```

use pimsim_arch::ArchConfig;
use pimsim_baseline::BaselineSimulator;
use pimsim_bench::{header, row, FIG5_NETWORKS, FIG5_RESOLUTION};
use pimsim_nn::zoo;
use pimsim_sweep::{default_threads, run_grid, SweepGrid};

fn main() {
    let arch = ArchConfig::paper_default().with_rob(16);
    let mut grid = SweepGrid::over_networks(FIG5_NETWORKS.iter().copied());
    grid.base = Some(arch.clone());
    grid.resolutions = vec![FIG5_RESOLUTION];
    let rows = run_grid(&grid, default_threads()).expect("fig5 sweep");

    println!("# Fig. 5 — latency normalized to the MNSIM2.0-like baseline");
    println!("# same crossbar configuration for both simulators; inputs {FIG5_RESOLUTION}x{FIG5_RESOLUTION}\n");
    header(&[
        "network",
        "MNSIM2.0-like",
        "ours",
        "conv2 comm (base)",
        "conv2 comm (ours)",
    ]);

    // The grid has one point per network, in `FIG5_NETWORKS` order.
    for (name, ours) in FIG5_NETWORKS.iter().zip(&rows) {
        let net = zoo::by_name(name, FIG5_RESOLUTION).expect("Fig. 5 network");
        let base = BaselineSimulator::new(&arch)
            .run(&net)
            .expect("fig5 baseline");

        let conv2 = ours
            .node_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.contains("conv"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap_or(1);
        let base_comm = base.per_layer.get(conv2).map_or(0.0, |l| l.comm_ratio());
        row(&[
            name.to_string(),
            "1.000".into(),
            format!(
                "{:.3}",
                ours.latency().as_ns_f64() / base.latency.as_ns_f64()
            ),
            format!("{:.0}%", 100.0 * base_comm),
            format!("{:.0}%", 100.0 * ours.comm_ratio(conv2)),
        ]);
    }
    println!("\npaper: ours ~1.1x on the VGGs and 1.53x on resnet-18; conv2 communication");
    println!("ratio 18% under idealistic async comm vs 77% under synchronized transfers.");
    println!("(see docs/divergence.md for where and why this reproduction diverges)");
}
