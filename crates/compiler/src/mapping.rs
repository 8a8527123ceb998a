//! Weight-to-core mapping: the paper's two algorithms (§III-A).
//!
//! A weight matrix of `R × C` logical weights is tiled into row-blocks of
//! `xbar_rows` rows; each row-block needs `ceil(C / logical_cols_per_xbar)`
//! crossbars. Matrices are split across cores **by columns first** (each
//! core then holds complete input rows for its output-channel range, so no
//! cross-core partial-sum reduction is needed); only when a core cannot hold
//! even one full column block does the mapper fall back to a **row split**,
//! whose partial sums the code generator reduces on the layer's home core.
//!
//! * [`MappingPolicy::UtilizationFirst`] packs layers onto cores one after
//!   another with no gaps: one core may hold several layers' weights and a
//!   layer may continue onto the next core mid-matrix.
//! * [`MappingPolicy::PerformanceFirst`] gives every layer fresh cores and
//!   never lets two layers share one ("each core only stores one layer's
//!   weights").

use std::fmt;

use serde::{Deserialize, Serialize};

use pimsim_arch::ArchConfig;
use pimsim_nn::{NodeId, PortRef};

use crate::error::CompileError;
use crate::lower::{resolve_alias, LoweredKind, LoweredNode};

/// The paper's two mapping algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Pack weights tightly; cores may hold several layers (paper: may
    /// reduce parallelism and add intra-layer communication).
    UtilizationFirst,
    /// One layer per core, layers on unmapped cores (paper: ≈2× better
    /// latency/energy on the evaluation networks).
    PerformanceFirst,
}

impl fmt::Display for MappingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingPolicy::UtilizationFirst => f.write_str("utilization-first"),
            MappingPolicy::PerformanceFirst => f.write_str("performance-first"),
        }
    }
}

/// A rectangular slice of one layer's weight matrix assigned to one core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    /// The weight layer.
    pub node: NodeId,
    /// The core holding this slice.
    pub core: u16,
    /// First logical weight row (always a multiple of `xbar_rows`).
    pub row_start: u32,
    /// Logical weight rows covered.
    pub rows: u32,
    /// First logical weight column.
    pub col_start: u32,
    /// Logical weight columns covered.
    pub cols: u32,
    /// Physical crossbars consumed.
    pub xbars: u32,
}

impl Slice {
    /// `true` when the slice spans every weight row (no partial sums leave
    /// this core).
    pub fn covers_all_rows(&self, total_rows: u32) -> bool {
        self.row_start == 0 && self.rows == total_rows
    }
}

/// The placement of a whole network onto the chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Every weight slice, in allocation order.
    pub slices: Vec<Slice>,
    /// Per node: indices into `slices` (empty for non-matrix nodes).
    pub node_slices: Vec<Vec<usize>>,
    /// Per node: the *home* core that assembles and forwards its output.
    pub home: Vec<u16>,
    /// Per core: crossbars in use.
    pub xbars_used: Vec<u32>,
    /// Number of cores with any work.
    pub cores_used: usize,
}

impl Placement {
    /// A node's weight slices, in allocation order (none for non-matrix
    /// nodes).
    pub fn slices_of(&self, node: NodeId) -> impl Iterator<Item = &Slice> + '_ {
        self.node_slices[node.as_usize()]
            .iter()
            .map(|&si| &self.slices[si])
    }

    /// The distinct compute cores of a node (home first).
    pub fn compute_cores(&self, node: NodeId) -> Vec<u16> {
        let mut cores = vec![self.home[node.as_usize()]];
        for s in self.slices_of(node) {
            if !cores.contains(&s.core) {
                cores.push(s.core);
            }
        }
        cores
    }

    /// `true` if any two distinct nodes share a core for weights.
    pub fn cores_shared_between_layers(&self) -> bool {
        use std::collections::BTreeMap;
        let mut owner: BTreeMap<u16, NodeId> = BTreeMap::new();
        for s in &self.slices {
            if let Some(prev) = owner.insert(s.core, s.node) {
                if prev != s.node {
                    return true;
                }
            }
        }
        false
    }
}

/// Runs the selected mapping algorithm.
///
/// # Errors
///
/// Returns [`CompileError::Unmappable`] if the chip runs out of cores.
pub fn place(
    lowered: &[LoweredNode],
    arch: &ArchConfig,
    policy: MappingPolicy,
) -> Result<Placement, CompileError> {
    let r = &arch.resources;
    let cap = r.xbars_per_core;
    let lcpx = r.logical_cols_per_xbar().max(1);
    let n_cores = r.cores() as usize;

    let mut used = vec![0u32; n_cores];
    let mut slices: Vec<Slice> = Vec::new();
    let mut node_slices: Vec<Vec<usize>> = vec![Vec::new(); lowered.len()];
    // Cursor for utilization-first; performance-first always opens fresh cores.
    let mut cursor: usize = 0;
    // First never-touched core (for performance-first).
    let mut next_fresh: usize = 0;

    for node in lowered {
        let Some(m) = node.matrix() else { continue };
        let rb_total = m.rows.div_ceil(r.xbar_rows);
        let mut cur = match policy {
            MappingPolicy::UtilizationFirst => cursor,
            MappingPolicy::PerformanceFirst => next_fresh,
        };
        let need_core = |cur: usize| -> Result<(), CompileError> {
            if cur >= n_cores {
                Err(CompileError::Unmappable {
                    resource: "cores",
                    needed: cur as u64 + 1,
                    available: n_cores as u64,
                    context: format!("placing weights of {}", node.name),
                })
            } else {
                Ok(())
            }
        };

        let mut cols_done = 0u32;
        while cols_done < m.cols {
            need_core(cur)?;
            let avail = cap - used[cur];
            if avail == 0 {
                cur += 1;
                continue;
            }
            let colblocks_left = (m.cols - cols_done).div_ceil(lcpx);
            let fit = avail / rb_total;
            if fit >= 1 {
                // Whole column blocks: full rows, no partial sums.
                let take = fit.min(colblocks_left);
                let cols_take = (take * lcpx).min(m.cols - cols_done);
                slices.push(Slice {
                    node: node.id,
                    core: cur as u16,
                    row_start: 0,
                    rows: m.rows,
                    col_start: cols_done,
                    cols: cols_take,
                    xbars: rb_total * take,
                });
                node_slices[node.id.as_usize()].push(slices.len() - 1);
                used[cur] += rb_total * take;
                cols_done += cols_take;
            } else {
                // Row-split fallback: spread one column block's row-blocks
                // over as many cores as needed.
                let cols_take = lcpx.min(m.cols - cols_done);
                let xbars_per_rb = 1; // one column block = one xbar per row-block
                let mut rb_done = 0u32;
                while rb_done < rb_total {
                    need_core(cur)?;
                    let avail = cap - used[cur];
                    if avail == 0 {
                        cur += 1;
                        continue;
                    }
                    let take_rb = (avail / xbars_per_rb).min(rb_total - rb_done);
                    let row_start = rb_done * r.xbar_rows;
                    let rows = (take_rb * r.xbar_rows).min(m.rows - row_start);
                    slices.push(Slice {
                        node: node.id,
                        core: cur as u16,
                        row_start,
                        rows,
                        col_start: cols_done,
                        cols: cols_take,
                        xbars: take_rb * xbars_per_rb,
                    });
                    node_slices[node.id.as_usize()].push(slices.len() - 1);
                    used[cur] += take_rb * xbars_per_rb;
                    rb_done += take_rb;
                }
                cols_done += cols_take;
            }
        }
        match policy {
            MappingPolicy::UtilizationFirst => cursor = cur,
            MappingPolicy::PerformanceFirst => next_fresh = cur + 1,
        }
    }

    // Home cores: matrix nodes -> first slice's core; others -> home of the
    // first effective producer; pure-input consumers -> core 0.
    let mut home = vec![0u16; lowered.len()];
    for node in lowered {
        let idx = node.id.as_usize();
        home[idx] = match &node.kind {
            LoweredKind::Matrix(_) => {
                let first = node_slices[idx].first().ok_or_else(|| {
                    CompileError::Internal(format!("{} has no slices", node.name))
                })?;
                slices[*first].core
            }
            _ => {
                let mut h = 0u16;
                for p in &node.inputs {
                    match resolve_alias(lowered, *p) {
                        PortRef::Node(src) => {
                            h = home[src.as_usize()];
                            break;
                        }
                        PortRef::Input => {}
                    }
                }
                h
            }
        };
    }

    let cores_used = used
        .iter()
        .filter(|&&u| u > 0)
        .count()
        .max(home.iter().map(|&h| h as usize + 1).max().unwrap_or(1));
    Ok(Placement {
        slices,
        node_slices,
        home,
        xbars_used: used,
        cores_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use pimsim_arch::ArchConfig;
    use pimsim_nn::zoo;

    fn place_net(net: &pimsim_nn::Network, arch: &ArchConfig, policy: MappingPolicy) -> Placement {
        let lowered = lower(net).unwrap();
        place(&lowered, arch, policy).unwrap()
    }

    /// Every weight element is covered exactly once by the slices.
    fn assert_full_coverage(net: &pimsim_nn::Network, p: &Placement) {
        let lowered = lower(net).unwrap();
        for node in &lowered {
            let Some(m) = node.matrix() else { continue };
            let area: u64 = p
                .slices_of(node.id)
                .map(|s| s.rows as u64 * s.cols as u64)
                .sum();
            assert_eq!(
                area,
                m.rows as u64 * m.cols as u64,
                "slice coverage of {}",
                node.name
            );
        }
    }

    #[test]
    fn performance_first_never_shares_cores() {
        let arch = ArchConfig::paper_default();
        for name in ["alexnet", "resnet18", "squeezenet"] {
            let net = zoo::by_name(name, 64).unwrap();
            let p = place_net(&net, &arch, MappingPolicy::PerformanceFirst);
            assert!(!p.cores_shared_between_layers(), "{name} shares cores");
            assert_full_coverage(&net, &p);
        }
    }

    #[test]
    fn utilization_first_packs_tightly() {
        let arch = ArchConfig::paper_default();
        let net = zoo::resnet18(64);
        let p = place_net(&net, &arch, MappingPolicy::UtilizationFirst);
        assert!(
            p.cores_shared_between_layers(),
            "packing should share cores"
        );
        assert_full_coverage(&net, &p);
        // All but the last used weight core are completely full.
        let last_used = p.xbars_used.iter().rposition(|&u| u > 0).unwrap();
        for (c, &u) in p.xbars_used.iter().enumerate().take(last_used) {
            assert_eq!(
                u, arch.resources.xbars_per_core,
                "core {c} should be full under utilization-first"
            );
        }
    }

    #[test]
    fn utilization_uses_fewer_cores_than_performance() {
        let arch = ArchConfig::paper_default();
        let net = zoo::googlenet(64);
        let lowered = lower(&net).unwrap();
        let util = place(&lowered, &arch, MappingPolicy::UtilizationFirst).unwrap();
        let perf = place(&lowered, &arch, MappingPolicy::PerformanceFirst).unwrap();
        let util_cores = util.xbars_used.iter().filter(|&&u| u > 0).count();
        let perf_cores = perf.xbars_used.iter().filter(|&&u| u > 0).count();
        assert!(
            util_cores < perf_cores,
            "utilization-first ({util_cores}) should use fewer weight cores than performance-first ({perf_cores})"
        );
    }

    #[test]
    fn row_split_happens_on_tiny_cores() {
        // A core with fewer crossbars than one column block's row-blocks.
        let mut arch = ArchConfig::small_test();
        arch.resources.core_rows = 4;
        arch.resources.core_cols = 4;
        arch.resources.xbars_per_core = 2;
        arch.resources.xbar_rows = 16;
        arch.resources.xbar_cols = 16;
        let net = zoo::tiny_mlp(); // fc1: 64x32 -> 4 row blocks > 2 xbars
        let lowered = lower(&net).unwrap();
        let p = place(&lowered, &arch, MappingPolicy::PerformanceFirst).unwrap();
        let fc1 = &p.node_slices[0];
        assert!(fc1.len() >= 2, "fc1 should be split");
        assert!(
            fc1.iter().any(|&si| p.slices[si].row_start > 0),
            "fc1 should be row-split"
        );
        assert_full_coverage(&net, &p);
    }

    #[test]
    fn unmappable_network_errors() {
        let mut arch = ArchConfig::small_test();
        arch.resources.core_rows = 1;
        arch.resources.core_cols = 1;
        arch.resources.xbars_per_core = 1;
        let net = zoo::vgg8(32);
        let lowered = lower(&net).unwrap();
        let e = place(&lowered, &arch, MappingPolicy::UtilizationFirst).unwrap_err();
        assert!(matches!(e, CompileError::Unmappable { .. }), "got {e}");
    }

    #[test]
    fn homes_follow_producers() {
        let arch = ArchConfig::paper_default();
        let net = zoo::tiny_cnn();
        let lowered = lower(&net).unwrap();
        let p = place(&lowered, &arch, MappingPolicy::PerformanceFirst).unwrap();
        for node in &lowered {
            match &node.kind {
                LoweredKind::Matrix(_) => {
                    let si = p.node_slices[node.id.as_usize()][0];
                    assert_eq!(p.home[node.id.as_usize()], p.slices[si].core);
                }
                LoweredKind::Pool { .. } | LoweredKind::Activation(_) => {
                    // Single-input vector ops live on their producer's home.
                    if let PortRef::Node(src) = resolve_alias(&lowered, node.inputs[0]) {
                        assert_eq!(p.home[node.id.as_usize()], p.home[src.as_usize()]);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(
            MappingPolicy::UtilizationFirst.to_string(),
            "utilization-first"
        );
        assert_eq!(
            MappingPolicy::PerformanceFirst.to_string(),
            "performance-first"
        );
    }
}
