//! Simulation reports: latency, energy, power and per-layer attribution.

use pimsim_arch::Energy;
use pimsim_event::SimTime;

use crate::exec::Memory;

/// Energy by component, picojoule-backed [`Energy`] values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Crossbar arrays + DACs + ADCs.
    pub matrix: Energy,
    /// Vector execution units (incl. their local-memory traffic).
    pub vector: Energy,
    /// NoC wires/routers and global memory.
    pub transfer: Energy,
    /// Scalar ALUs.
    pub scalar: Energy,
    /// Instruction fetch/decode overhead.
    pub frontend: Energy,
    /// Static (leakage + clocking) energy over the whole run.
    pub static_energy: Energy,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.matrix + self.vector + self.transfer + self.scalar + self.frontend + self.static_energy
    }
}

/// Per-core activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions dispatched (all classes).
    pub dispatched: u64,
    /// Summed occupancy of the matrix unit (concurrent MVMs both count).
    pub matrix_busy: SimTime,
    /// Summed occupancy of the vector unit.
    pub vector_busy: SimTime,
    /// Summed occupancy of the transfer unit (rendezvous waits included).
    pub transfer_busy: SimTime,
}

/// Per-network-node (layer) attribution, keyed by the program's
/// instruction tags. This backs the paper's Fig. 5 *communication latency
/// ratio* analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Instructions executed for this node.
    pub instructions: u64,
    /// Matrix-unit time attributed to this node.
    pub matrix_time: SimTime,
    /// Vector-unit time attributed to this node.
    pub vector_time: SimTime,
    /// Transfer time attributed to this node — from issue to completion,
    /// so synchronization waiting is included (the cost the paper argues
    /// MNSIM2.0's idealistic model hides).
    pub comm_time: SimTime,
    /// Dynamic energy attributed to this node (matrix + vector + transfer).
    pub energy: Energy,
}

impl NodeStats {
    /// Fraction of this node's attributed time spent communicating.
    pub fn comm_ratio(&self) -> f64 {
        let total = self.matrix_time + self.vector_time + self.comm_time;
        if total.is_zero() {
            0.0
        } else {
            self.comm_time.as_ps() as f64 / total.as_ps() as f64
        }
    }
}

/// One entry of the optional instruction trace (`sim.trace = true`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Completion (retirement-eligible) time of the instruction.
    pub time: SimTime,
    /// Core that executed it.
    pub core: u16,
    /// The instruction, rendered in canonical assembly.
    pub instr: String,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end inference latency.
    pub latency: SimTime,
    /// Energy by component.
    pub energy: EnergyBreakdown,
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Dynamic counts by class `[matrix, vector, transfer, scalar]`.
    pub class_counts: [u64; 4],
    /// Per-core activity.
    pub per_core: Vec<CoreStats>,
    /// Per-node (tag) attribution; index = tag value.
    pub per_node: Vec<NodeStats>,
    /// Discrete events processed by the kernel.
    pub events: u64,
    /// Instruction completion trace (only with `sim.trace = true`; capped
    /// at [`TRACE_CAP`] entries).
    pub trace: Vec<TraceEntry>,
    /// Final memories (functional runs only).
    pub(crate) gmem: Option<Memory>,
    pub(crate) locals: Option<Vec<Memory>>,
}

/// Upper bound on recorded trace entries (protects memory on long runs).
pub const TRACE_CAP: usize = 200_000;

impl SimReport {
    /// Average power over the run, in watts.
    pub fn avg_power_w(&self) -> f64 {
        self.energy.total().power_over(self.latency)
    }

    /// Reads final global memory (zeros when not simulated functionally).
    pub fn read_global(&self, addr: u64, len: u32) -> Vec<i32> {
        match &self.gmem {
            Some(m) => (0..len as u64).map(|i| m.get(addr + i)).collect(),
            None => vec![0; len as usize],
        }
    }

    /// Reads a core's final local memory (zeros when not functional).
    pub fn read_local(&self, core: u16, addr: u32, len: u32) -> Vec<i32> {
        match &self.locals {
            Some(ms) => ms
                .get(core as usize)
                .map(|m| m.read(addr, len))
                .unwrap_or_else(|| vec![0; len as usize]),
            None => vec![0; len as usize],
        }
    }

    /// Communication-latency ratio of node `tag` (0.0 if never seen).
    pub fn comm_ratio(&self, tag: u16) -> f64 {
        self.per_node
            .get(tag as usize)
            .map(NodeStats::comm_ratio)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = EnergyBreakdown {
            matrix: Energy::from_pj(1.0),
            vector: Energy::from_pj(2.0),
            transfer: Energy::from_pj(3.0),
            scalar: Energy::from_pj(4.0),
            frontend: Energy::from_pj(5.0),
            static_energy: Energy::from_pj(6.0),
        };
        assert!((b.total().as_pj() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn comm_ratio_bounds() {
        let mut n = NodeStats::default();
        assert_eq!(n.comm_ratio(), 0.0);
        n.comm_time = SimTime::from_ns(30);
        n.matrix_time = SimTime::from_ns(50);
        n.vector_time = SimTime::from_ns(20);
        assert!((n.comm_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn report_reads_default_to_zero() {
        let r = SimReport {
            latency: SimTime::from_ns(10),
            energy: EnergyBreakdown::default(),
            instructions: 0,
            class_counts: [0; 4],
            per_core: vec![],
            per_node: vec![],
            events: 0,
            trace: vec![],
            gmem: None,
            locals: None,
        };
        assert_eq!(r.read_global(5, 3), vec![0, 0, 0]);
        assert_eq!(r.read_local(0, 5, 2), vec![0, 0]);
        assert_eq!(r.avg_power_w(), 0.0);
        assert_eq!(r.comm_ratio(9), 0.0);
    }
}
