//! The hardware cost model: latency and energy for every operation class.
//!
//! All formulas are documented here once and shared by the cycle-accurate
//! simulator and the MNSIM2.0-like baseline, so the two disagree only in
//! *how operations are scheduled*, never in per-operation costs — the exact
//! property the paper's Fig. 5 comparison isolates.
//!
//! ## Matrix-vector multiplication (crossbar group)
//!
//! Inputs stream bit-serially over `phases = ceil(input_bits / dac_bits)`
//! phases. In each phase every crossbar of the group performs one analog
//! read (`xbar_read_ns`, all crossbars in parallel) and then its ADC
//! digitizes the active bit-line columns. A logical weight spans
//! `cells_per_weight = ceil(weight_bits / cell_bits)` physical columns, so a
//! group producing `output_len` values converts `output_len *
//! cells_per_weight` columns, spread over its crossbars; the slowest
//! crossbar (most active columns) bounds the phase:
//!
//! ```text
//! t_mvm = phases * (xbar_read_ns + ceil(worst_cols / adcs_per_xbar) * adc_sample_ns)
//! ```
//!
//! Energy counts active cells, DAC row drivers, and ADC conversions.
//!
//! ## Vector operations
//!
//! `t = startup + ceil(len / lanes) * cycles_per_batch` core cycles; energy
//! is per element plus local-memory traffic (`reads + writes` streams).
//!
//! ## Transfers
//!
//! A message of `n` 32-bit elements becomes `1 + ceil(4n / flit_bytes)`
//! flits (one header flit). A head flit pays `hop_cycles *
//! router_pipeline_depth` NoC cycles per router; a link forwards
//! `link_flits_per_cycle`, so serialization is `flits /
//! link_flits_per_cycle` NoC cycles. Contention on shared links is modeled
//! by the simulator's NoC, which walks each message link by link and
//! prices every step with these methods.

use pimsim_event::{Clock, SimTime};

use crate::config::ArchConfig;
use crate::energy::Energy;

/// A latency/energy pair for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Time the operation occupies its execution resource.
    pub time: SimTime,
    /// Energy consumed by the operation.
    pub energy: Energy,
}

/// The shared hardware cost model derived from an [`ArchConfig`].
///
/// ```rust
/// use pimsim_arch::{model::CostModel, ArchConfig};
/// let arch = ArchConfig::paper_default();
/// let m = CostModel::new(&arch);
/// // A full 128-input, 128-output MVM on a 4-crossbar group:
/// let c = m.mvm_cost(128, 128, 4);
/// assert!(c.time.as_ns_f64() > 0.0 && c.energy.as_pj() > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    cfg: &'a ArchConfig,
    core_clock: Clock,
    noc_clock: Clock,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model over `cfg`, deriving both clocks once.
    ///
    /// # Panics
    ///
    /// Panics when a clock frequency is not finite and positive, which
    /// [`ArchConfig::validate`] rules out: build models from validated
    /// configurations only.
    pub fn new(cfg: &'a ArchConfig) -> Self {
        CostModel {
            cfg,
            core_clock: Clock::from_ghz(cfg.timing.core_freq_ghz),
            noc_clock: Clock::from_ghz(cfg.noc.freq_ghz),
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &'a ArchConfig {
        self.cfg
    }

    /// The core clock.
    pub fn core_clock(&self) -> Clock {
        self.core_clock
    }

    /// The NoC clock.
    pub fn noc_clock(&self) -> Clock {
        self.noc_clock
    }

    /// Minimum spacing between successive dispatches on one core.
    ///
    /// Rounds *up* when the width does not divide the period: truncation
    /// (1000 ps at width 3 -> 333 ps) would admit slightly more than
    /// `dispatch_width` dispatches per cycle, drifting ahead of the
    /// hardware without bound. Ceiling errs on the conservative side.
    #[inline]
    pub fn dispatch_interval(&self) -> SimTime {
        let period = self.core_clock().period().as_ps();
        SimTime::from_ps(period.div_ceil(self.cfg.timing.dispatch_width.max(1) as u64))
    }

    /// Time before a core's first dispatch (fetch + decode pipeline fill).
    #[inline]
    pub fn decode_offset(&self) -> SimTime {
        self.core_clock()
            .cycles_to_time(self.cfg.timing.decode_cycles as u64)
    }

    /// Worst per-crossbar active physical columns for a group with
    /// `output_len` logical outputs over `xbar_count` crossbars.
    fn worst_cols(&self, output_len: u32, xbar_count: u32) -> u32 {
        let phys = output_len * self.cfg.resources.cells_per_weight();
        phys.div_ceil(xbar_count.max(1))
            .min(self.cfg.resources.xbar_cols)
    }

    /// Cost of one `MVM` on a group with `input_len` inputs, `output_len`
    /// outputs, spread over `xbar_count` crossbars.
    pub fn mvm_cost(&self, input_len: u32, output_len: u32, xbar_count: u32) -> Cost {
        let r = &self.cfg.resources;
        let t = &self.cfg.timing;
        let e = &self.cfg.energy;
        let phases = r.mvm_phases() as f64;
        let worst = self.worst_cols(output_len, xbar_count);
        let adc_serial = worst.div_ceil(r.adcs_per_xbar) as f64 * t.adc_sample_ns;
        let time_ns = phases * (t.xbar_read_ns + adc_serial);

        let phys_cols = (output_len * r.cells_per_weight()) as f64;
        let active_cells = input_len as f64 * phys_cols;
        let dac_drives = input_len as f64 * xbar_count as f64;
        let conversions = phys_cols;
        let energy_pj = phases
            * (active_cells * e.xbar_pj_per_cell
                + dac_drives * e.dac_pj_per_input
                + conversions * e.adc_pj_per_sample)
            // Read inputs from and write outputs to the local scratchpad once.
            + (input_len + output_len) as f64 * e.local_mem_pj_per_elem;
        Cost {
            time: SimTime::from_ns_f64(time_ns),
            energy: Energy::from_pj(energy_pj),
        }
    }

    /// Cost of a vector operation over `len` elements with `reads` source
    /// streams and `writes` destination streams.
    pub fn vector_cost(&self, len: u32, reads: u32, writes: u32) -> Cost {
        let r = &self.cfg.resources;
        let t = &self.cfg.timing;
        let e = &self.cfg.energy;
        let batches = (len as u64).div_ceil(r.vector_lanes as u64);
        let cycles = t.vector_startup_cycles as u64
            + batches * t.vector_cycles_per_batch as u64
            + t.local_mem_access_cycles as u64;
        let energy_pj = len as f64 * e.vector_pj_per_elem
            + (len as f64 * (reads + writes) as f64) * e.local_mem_pj_per_elem;
        Cost {
            time: self.core_clock().cycles_to_time(cycles),
            energy: Energy::from_pj(energy_pj),
        }
    }

    /// Cost of one scalar ALU operation.
    pub fn scalar_cost(&self) -> Cost {
        Cost {
            time: self
                .core_clock()
                .cycles_to_time(self.cfg.timing.scalar_op_cycles as u64),
            energy: Energy::from_pj(self.cfg.energy.scalar_pj_per_op),
        }
    }

    /// Frontend (fetch + decode) energy charged per executed instruction.
    pub fn frontend_energy(&self) -> Energy {
        Energy::from_pj(self.cfg.energy.frontend_pj_per_instr)
    }

    /// Flits needed to carry `elems` 32-bit elements (plus a header flit).
    pub fn flits_for_elems(&self, elems: u32) -> u64 {
        1 + (elems as u64 * 4).div_ceil(self.cfg.noc.flit_bytes as u64)
    }

    /// Pure pipe latency for a packet crossing `hops` mesh hops (no
    /// serialization, no contention).
    pub fn noc_hop_latency(&self, hops: u32) -> SimTime {
        self.noc_clock()
            .cycles_to_time(hops as u64 * self.cfg.noc.hop_cycles as u64)
    }

    /// Head-flit latency of one full router traversal: `hop_cycles *
    /// router_pipeline_depth` NoC cycles. Every hop of a message walk pays
    /// this; at depth 1 it is [`CostModel::noc_hop_latency`]`(1)`.
    pub fn router_latency(&self) -> SimTime {
        self.noc_hop_latency(1) * self.cfg.noc.router_pipeline_depth as u64
    }

    /// Time for one link to forward `flits` flits.
    pub fn link_serialization(&self, flits: u64) -> SimTime {
        let cycles = (flits as f64 / self.cfg.noc.link_flits_per_cycle).ceil() as u64;
        self.noc_clock().cycles_to_time(cycles)
    }

    /// NoC energy for `flits` flits crossing `hops` hops.
    pub fn noc_energy(&self, flits: u64, hops: u32) -> Energy {
        Energy::from_pj(flits as f64 * hops as f64 * self.cfg.energy.noc_pj_per_flit_hop)
    }

    /// Dynamic energy of a core-to-core message of `elems` elements: NoC
    /// wire/router energy along a minimal route, or the local scratchpad-copy
    /// energy when `from == to` (the timing-side counterpart lives in the
    /// simulator's `Noc::message`, which charges `local_copy_cost` time
    /// for the same case).
    pub fn message_energy(&self, from: u16, to: u16, elems: u32) -> Energy {
        if from == to {
            self.local_copy_cost(elems).energy
        } else {
            let hops = self.cfg.resources.mesh_hops(from, to);
            self.noc_energy(self.flits_for_elems(elems), hops)
        }
    }

    /// Uncontended end-to-end message cost over `hops` hops: pipe latency +
    /// serialization + wire energy. The cycle-accurate simulator instead
    /// walks the packet through per-link occupancy; this closed form is used
    /// by the baseline and for quick estimates.
    pub fn noc_message_cost(&self, elems: u32, hops: u32) -> Cost {
        let flits = self.flits_for_elems(elems);
        Cost {
            time: self.noc_hop_latency(hops) + self.link_serialization(flits),
            energy: self.noc_energy(flits, hops),
        }
    }

    /// Cost of a same-core "transfer": a local scratchpad copy of `elems`
    /// elements. A message whose destination is its own core never touches
    /// the mesh; it streams through the scratchpad port at one element per
    /// core cycle after the usual access latency, and pays one read plus
    /// one write per element.
    pub fn local_copy_cost(&self, elems: u32) -> Cost {
        let t = &self.cfg.timing;
        let cycles = t.local_mem_access_cycles as u64 + elems as u64;
        Cost {
            time: self.core_clock().cycles_to_time(cycles),
            energy: Energy::from_pj(2.0 * elems as f64 * self.cfg.energy.local_mem_pj_per_elem),
        }
    }

    /// Cost of a global-memory access of `elems` elements (latency +
    /// bandwidth serialization at the controller; NoC cost is separate).
    pub fn global_mem_cost(&self, elems: u32) -> Cost {
        let t = &self.cfg.timing;
        let time_ns = t.global_mem_latency_ns + elems as f64 / t.global_mem_bw_elems_per_ns;
        Cost {
            time: SimTime::from_ns_f64(time_ns),
            energy: Energy::from_pj(elems as f64 * self.cfg.energy.global_mem_pj_per_elem),
        }
    }

    /// Dynamic energy of a `gload`/`gstore` of `elems` elements from
    /// `core`: NoC energy to the controller at core 0 (one extra hop
    /// through the memory port) plus the global-memory access energy.
    pub fn memory_access_energy(&self, core: u16, elems: u32) -> Energy {
        let hops = self.cfg.resources.mesh_hops(core, 0) + 1;
        self.noc_energy(self.flits_for_elems(elems), hops) + self.global_mem_cost(elems).energy
    }

    /// Total static power of the chip in watts.
    pub fn static_power_w(&self) -> f64 {
        let e = &self.cfg.energy;
        (e.core_static_mw * self.cfg.resources.cores() as f64 + e.chip_static_mw) / 1e3
    }

    /// Static energy burned over `duration`.
    pub fn static_energy(&self, duration: SimTime) -> Energy {
        Energy::from_pj(self.static_power_w() * duration.as_secs_f64() * 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;

    fn model(cfg: &ArchConfig) -> CostModel<'_> {
        CostModel::new(cfg)
    }

    #[test]
    fn mvm_time_matches_formula() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        // 128 inputs, 128 outputs over 4 crossbars: phys cols = 512, worst
        // per xbar = 128, phases = 8.
        let c = m.mvm_cost(128, 128, 4);
        let expect_ns = 8.0 * (100.0 + 128.0 * 1.0);
        assert!((c.time.as_ns_f64() - expect_ns).abs() < 1e-6);
    }

    #[test]
    fn mvm_more_adcs_is_faster() {
        let mut cfg = ArchConfig::paper_default();
        let slow = model(&cfg).mvm_cost(128, 128, 4).time;
        cfg.resources.adcs_per_xbar = 4;
        let fast = model(&cfg).mvm_cost(128, 128, 4).time;
        assert!(fast < slow);
    }

    #[test]
    fn mvm_worst_cols_capped_by_xbar_width() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        // One crossbar cannot have more than 128 active columns even if the
        // logical output would need more.
        let c1 = m.mvm_cost(128, 32, 1); // 32*4 = 128 phys cols on one xbar
        let c2 = m.mvm_cost(128, 64, 1); // would be 256, capped at 128
        assert_eq!(c1.time, c2.time);
    }

    #[test]
    fn mvm_energy_scales_with_work() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        let small = m.mvm_cost(64, 64, 2).energy;
        let large = m.mvm_cost(128, 128, 4).energy;
        assert!(large > small);
    }

    #[test]
    fn vector_cost_scales_in_batches() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        let c32 = m.vector_cost(32, 2, 1); // one batch of 32 lanes
        let c33 = m.vector_cost(33, 2, 1); // two batches
        assert!(c33.time > c32.time);
        assert_eq!(
            m.vector_cost(1, 2, 1).time,
            m.vector_cost(32, 2, 1).time,
            "within one batch, time is flat"
        );
    }

    #[test]
    fn flit_math() {
        let cfg = ArchConfig::paper_default(); // 32-byte flits
        let m = model(&cfg);
        assert_eq!(m.flits_for_elems(0), 1); // header only
        assert_eq!(m.flits_for_elems(8), 2); // 32 bytes payload
        assert_eq!(m.flits_for_elems(9), 3);
    }

    #[test]
    fn noc_cost_monotone_in_distance_and_size() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        assert!(m.noc_message_cost(64, 4).time > m.noc_message_cost(64, 1).time);
        assert!(m.noc_message_cost(256, 2).time > m.noc_message_cost(64, 2).time);
        assert!(m.noc_energy(10, 3) > m.noc_energy(10, 1));
    }

    #[test]
    fn local_copy_scales_with_length() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        let short = m.local_copy_cost(8);
        let long = m.local_copy_cost(800);
        assert!(long.time > short.time);
        assert!(long.energy > short.energy);
        // 1 cycle access + 8 cycles streaming at 1 GHz.
        assert_eq!(short.time, SimTime::from_ns(9));
        // Read + write per element.
        assert!((short.energy.as_pj() - 2.0 * 8.0 * cfg.energy.local_mem_pj_per_elem).abs() < 1e-9);
    }

    #[test]
    fn message_energy_selects_wire_or_copy() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        let remote = m.message_energy(0, 9, 64);
        assert_eq!(remote, m.noc_energy(m.flits_for_elems(64), 2));
        let local = m.message_energy(5, 5, 64);
        assert_eq!(local, m.local_copy_cost(64).energy);
        assert!(local.as_pj() > 0.0);
    }

    #[test]
    fn memory_access_energy_adds_the_memory_port_hop() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        // Core 9 is two hops from core 0, plus the memory port.
        let wire = m.noc_energy(m.flits_for_elems(64), 3);
        assert_eq!(
            m.memory_access_energy(9, 64),
            wire + m.global_mem_cost(64).energy
        );
    }

    #[test]
    fn global_mem_includes_bandwidth_term() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        let small = m.global_mem_cost(8).time;
        let big = m.global_mem_cost(8000).time;
        assert!(big > small);
    }

    #[test]
    fn static_power_and_energy() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        // 64 cores * 5 mW + 50 mW = 370 mW
        assert!((m.static_power_w() - 0.37).abs() < 1e-9);
        let e = m.static_energy(SimTime::from_us(1));
        assert!((e.as_uj() - 0.37).abs() < 1e-9);
    }

    #[test]
    fn dispatch_interval_divides_the_core_period() {
        let mut cfg = ArchConfig::paper_default();
        cfg.timing.dispatch_width = 2;
        let m = model(&cfg);
        let period = m.core_clock().period();
        assert_eq!(m.dispatch_interval(), SimTime::from_ps(period.as_ps() / 2));
        assert_eq!(m.decode_offset(), m.core_clock().cycles_to_time(1));
    }

    #[test]
    fn dispatch_interval_never_exceeds_the_width() {
        // Regression: 1000 ps at width 3 used to truncate to 333 ps —
        // 3.003 dispatches per cycle, i.e. a 3-wide core dispatching
        // *faster* than 3 per cycle with unbounded drift. The interval
        // must round up so `width * interval >= period` always holds.
        let mut cfg = ArchConfig::paper_default();
        cfg.timing.dispatch_width = 3;
        assert_eq!(model(&cfg).dispatch_interval(), SimTime::from_ps(334));
        for width in 1u32..=9 {
            cfg.timing.dispatch_width = width;
            let interval = model(&cfg).dispatch_interval().as_ps();
            let period = model(&cfg).core_clock().period().as_ps();
            assert!(
                interval * width as u64 >= period,
                "width {width}: {width} dispatches take {} ps < one {period} ps cycle",
                interval * width as u64
            );
            assert!(
                (interval - 1) * width as u64 <= period,
                "width {width}: interval {interval} ps is more than rounding"
            );
        }
    }

    #[test]
    fn scalar_cost_is_one_cycle_at_default() {
        let cfg = ArchConfig::paper_default();
        let m = model(&cfg);
        assert_eq!(m.scalar_cost().time, SimTime::from_ns(1));
    }
}
