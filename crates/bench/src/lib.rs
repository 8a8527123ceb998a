//! Shared helpers for the figure-regeneration harnesses.
//!
//! Each paper figure has a binary in `src/bin` that prints the same series
//! the paper reports (normalized, as in the paper):
//!
//! * `fig3` — mapping-algorithm comparison (latency + energy)
//! * `fig4` — ROB-size sweep
//! * `fig5` — comparison with the MNSIM2.0-like baseline
//!
//! The binaries declare their grids as `pimsim_sweep::SweepGrid`s and run
//! on the campaign engine (`fig5`'s baseline column calls
//! `pimsim_baseline` directly); this crate only carries the shared
//! constants and table-printing helpers. Run them with
//! `cargo run -p pimsim-bench --release --bin fig3` etc. Host performance
//! of the simulator itself is measured by the `benchmark/` harness.

/// The four networks of Fig. 3 / Fig. 4.
pub const FIG34_NETWORKS: &[&str] = &["alexnet", "googlenet", "resnet18", "squeezenet"];
/// The three MNSIM2.0-source networks of Fig. 5.
pub const FIG5_NETWORKS: &[&str] = &["vgg8", "vgg16", "resnet18"];

/// Input resolution used by the harnesses. The paper's figures are
/// normalized, so shape — not absolute scale — is what must hold; 64×64
/// (32×32 for the CIFAR-scale Fig. 5 set) keeps a full sweep under a few
/// minutes on a laptop. See EXPERIMENTS.md.
pub const FIG34_RESOLUTION: u32 = 64;
/// Fig. 5 resolution (the MNSIM2.0 example networks are CIFAR-scale).
pub const FIG5_RESOLUTION: u32 = 32;
/// Back-to-back inferences for the pipelined Fig. 3/4 runs.
pub const BATCH: u32 = 4;

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;
    use pimsim_nn::zoo;
    use pimsim_sweep::{run_grid, SweepGrid};

    #[test]
    fn harness_grid_runs_on_the_engine() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.base = Some(ArchConfig::small_test());
        let rows = run_grid(&grid, 1).expect("harness grid");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].latency_ps > 0);
    }

    #[test]
    fn constants_are_consistent() {
        for n in FIG34_NETWORKS {
            assert!(zoo::by_name(n, FIG34_RESOLUTION).is_some());
        }
        for n in FIG5_NETWORKS {
            assert!(zoo::by_name(n, FIG5_RESOLUTION).is_some());
        }
    }
}
