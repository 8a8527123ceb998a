//! The architecture configuration file model.
//!
//! Mirrors the paper's configuration file sections (Fig. 1):
//! [`Resources`] (architectural resources), [`TimingParams`] +
//! [`EnergyParams`] (hardware performance parameters), [`SimSettings`]
//! (simulator settings) and [`NocParams`] (interconnection parameters).

use std::path::Path;

use pimsim_isa::ProgramLimits;
use serde::{Deserialize, Serialize};

use crate::error::ArchError;

/// Architectural resources: what hardware exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Resources {
    /// Mesh rows of cores.
    pub core_rows: u16,
    /// Mesh columns of cores.
    pub core_cols: u16,
    /// Crossbars per core's matrix execution unit.
    pub xbars_per_core: u32,
    /// Crossbar rows (word lines / inputs).
    pub xbar_rows: u32,
    /// Crossbar columns (bit lines / outputs).
    pub xbar_cols: u32,
    /// ADCs per crossbar. The paper's evaluation shares one ADC across a
    /// crossbar's columns (`1`); larger values reduce ADC serialization.
    pub adcs_per_xbar: u32,
    /// Weight precision in bits.
    pub weight_bits: u32,
    /// Bits stored per memristor cell; a weight occupies
    /// `ceil(weight_bits / cell_bits)` adjacent physical columns.
    pub cell_bits: u32,
    /// Activation precision in bits.
    pub input_bits: u32,
    /// DAC resolution; inputs stream over `ceil(input_bits / dac_bits)`
    /// bit-serial phases.
    pub dac_bits: u32,
    /// Re-order buffer capacity (in-flight instructions per core). The
    /// paper sweeps 1–16 in Fig. 4.
    pub rob_size: u32,
    /// SIMD lanes of the vector execution unit.
    pub vector_lanes: u32,
    /// Local (per-core) scratchpad capacity in KiB. Sized generously: it
    /// abstracts a double-buffered streaming scratchpad, because this
    /// reproduction keeps whole feature maps resident.
    pub local_mem_kb: u32,
    /// Global memory capacity in MiB.
    pub global_mem_mb: u32,
}

impl Resources {
    /// Total core count (`core_rows * core_cols`).
    pub fn cores(&self) -> u16 {
        self.core_rows * self.core_cols
    }

    /// Local memory capacity in 32-bit elements.
    pub fn local_mem_elems(&self) -> u32 {
        self.local_mem_kb * 1024 / 4
    }

    /// Global memory capacity in 32-bit elements.
    pub fn global_mem_elems(&self) -> u64 {
        self.global_mem_mb as u64 * 1024 * 1024 / 4
    }

    /// Physical columns one logical weight occupies.
    pub fn cells_per_weight(&self) -> u32 {
        self.weight_bits.div_ceil(self.cell_bits)
    }

    /// Bit-serial input phases per MVM.
    pub fn mvm_phases(&self) -> u32 {
        self.input_bits.div_ceil(self.dac_bits)
    }

    /// Logical weight columns one crossbar can hold.
    pub fn logical_cols_per_xbar(&self) -> u32 {
        self.xbar_cols / self.cells_per_weight()
    }

    /// Mesh position (row, col) of a core id (row-major).
    pub fn core_position(&self, core: u16) -> (u16, u16) {
        (core / self.core_cols, core % self.core_cols)
    }

    /// Manhattan hop distance between two cores on the mesh.
    pub fn mesh_hops(&self, a: u16, b: u16) -> u32 {
        let (ar, ac) = self.core_position(a);
        let (br, bc) = self.core_position(b);
        (ar.abs_diff(br) + ac.abs_diff(bc)) as u32
    }
}

/// Hardware performance parameters: how fast everything is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TimingParams {
    /// Core clock frequency in GHz.
    pub core_freq_ghz: f64,
    /// One analog crossbar read phase (DAC settle + array read), ns.
    pub xbar_read_ns: f64,
    /// One ADC conversion, ns.
    pub adc_sample_ns: f64,
    /// Vector-unit pipeline fill, cycles.
    pub vector_startup_cycles: u32,
    /// Cycles per vector lane-batch (usually 1).
    pub vector_cycles_per_batch: u32,
    /// Scalar ALU latency, cycles.
    pub scalar_op_cycles: u32,
    /// Decode stage latency, cycles.
    pub decode_cycles: u32,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched to execution units per cycle.
    pub dispatch_width: u32,
    /// Local scratchpad random-access latency, cycles.
    pub local_mem_access_cycles: u32,
    /// Global memory access latency, ns.
    pub global_mem_latency_ns: f64,
    /// Global memory streaming bandwidth, elements (32-bit) per ns.
    pub global_mem_bw_elems_per_ns: f64,
}

/// Mesh routing policy for the NoC.
///
/// The paper's chip routes dimension-ordered X-then-Y (§III-B); the other
/// policies open a design-space axis over the same mesh (O1TURN-style
/// per-message alternation balances load across the two dimension orders;
/// `adaptive` picks the less-congested minimal direction at each hop from
/// live link occupancy). All are minimal, deterministic and deadlock-free
/// on a mesh; the simulator's NoC matches on this enum to pick each hop,
/// so a further policy is one more variant and one more match arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum RoutingPolicy {
    /// Dimension-order routing, X (columns) first — the paper's default.
    #[default]
    Xy,
    /// Dimension-order routing, Y (rows) first.
    Yx,
    /// O1TURN-style: alternate XY / YX dimension order per message.
    XyYxAlternate,
    /// Congestion-aware minimal routing: at each hop, step into the
    /// minimal direction whose outgoing link frees earliest (ties broken
    /// deterministically by the message's injection number).
    Adaptive,
}

impl RoutingPolicy {
    /// Every selectable policy, in canonical order.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::Xy,
        RoutingPolicy::Yx,
        RoutingPolicy::XyYxAlternate,
        RoutingPolicy::Adaptive,
    ];

    /// The canonical configuration-file / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::Xy => "xy",
            RoutingPolicy::Yx => "yx",
            RoutingPolicy::XyYxAlternate => "xy-yx",
            RoutingPolicy::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<RoutingPolicy, String> {
        match s {
            "xy" => Ok(RoutingPolicy::Xy),
            "yx" => Ok(RoutingPolicy::Yx),
            "xy-yx" | "o1turn" | "alternate" => Ok(RoutingPolicy::XyYxAlternate),
            "adaptive" => Ok(RoutingPolicy::Adaptive),
            other => Err(format!(
                "unknown routing policy `{other}` (want xy, yx, xy-yx or adaptive)"
            )),
        }
    }
}

impl TryFrom<String> for RoutingPolicy {
    type Error = String;

    fn try_from(s: String) -> Result<RoutingPolicy, String> {
        s.parse()
    }
}

impl From<RoutingPolicy> for String {
    fn from(r: RoutingPolicy) -> String {
        r.name().to_string()
    }
}

/// Interconnection (NoC) parameters. The chip uses a 2-D mesh with XY
/// routing (paper §III-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NocParams {
    /// NoC clock frequency in GHz.
    pub freq_ghz: f64,
    /// Flit width in bytes.
    pub flit_bytes: u32,
    /// Per-hop router + link traversal latency, NoC cycles.
    pub hop_cycles: u32,
    /// Link bandwidth in flits per NoC cycle (usually 1).
    pub link_flits_per_cycle: f64,
    /// Credit-based flow control: how many undelivered messages one
    /// `(sender, receiver, tag)` channel may hold in the receiver's queue.
    /// Transfers stay *synchronized* (a send completes only once the
    /// payload sits at the receiver), but a small hardware queue decouples
    /// sender and receiver enough to avoid rendezvous deadlocks.
    pub channel_credits: u32,
    /// Mesh routing policy (`xy`, `yx`, `xy-yx`, or `adaptive`). Defaults
    /// to `xy` — the paper's dimension-order routing — so configurations
    /// written before this knob existed keep their exact behaviour.
    #[serde(default)]
    pub routing: RoutingPolicy,
    /// Virtual channels per rendezvous channel: each `(sender, receiver,
    /// tag)` flow is split round-robin over this many VCs, each with its
    /// own `channel_credits` credit pool. Defaults to `1` — a single VC is
    /// exactly the pre-VC credit model, so older configurations keep their
    /// exact behaviour.
    #[serde(default = "default_virtual_channels")]
    pub virtual_channels: u32,
    /// Router pipeline stages a head flit traverses per hop: per-hop head
    /// latency is `hop_cycles * router_pipeline_depth` NoC cycles, while
    /// link throughput (serialization) is unchanged — pipelining deepens
    /// latency, not bandwidth. Defaults to `1` — the pre-pipeline flat hop
    /// cost, so older configurations keep their exact behaviour.
    #[serde(default = "default_router_pipeline_depth")]
    pub router_pipeline_depth: u32,
}

/// Largest [`NocParams::virtual_channels`] [`ArchConfig::validate`]
/// accepts.
const MAX_VIRTUAL_CHANNELS: u32 = 64;

/// Serde default for [`NocParams::virtual_channels`]: one VC, the
/// pre-virtual-channel credit model.
fn default_virtual_channels() -> u32 {
    1
}

/// Serde default for [`NocParams::router_pipeline_depth`]: one stage, the
/// pre-pipeline flat hop cost.
fn default_router_pipeline_depth() -> u32 {
    1
}

/// Per-operation energies, picojoules. Defaults are ISAAC/PUMA-class
/// figures; the paper's results are normalized, so only relative costs
/// shape the curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EnergyParams {
    /// Per active memristor cell per read phase.
    pub xbar_pj_per_cell: f64,
    /// Per ADC conversion.
    pub adc_pj_per_sample: f64,
    /// Per DAC-driven input row per phase.
    pub dac_pj_per_input: f64,
    /// Per vector-unit element processed.
    pub vector_pj_per_elem: f64,
    /// Per scalar ALU operation.
    pub scalar_pj_per_op: f64,
    /// Per local-memory element read or written.
    pub local_mem_pj_per_elem: f64,
    /// Per global-memory element transferred.
    pub global_mem_pj_per_elem: f64,
    /// Per flit per mesh hop.
    pub noc_pj_per_flit_hop: f64,
    /// Fetch + decode overhead per instruction.
    pub frontend_pj_per_instr: f64,
    /// Static power per core, milliwatts.
    pub core_static_mw: f64,
    /// Chip-level static power (global memory, clocking), milliwatts.
    pub chip_static_mw: f64,
}

/// Simulator settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimSettings {
    /// Execute data movement and arithmetic (functional simulation) in
    /// addition to timing. Scalar registers are always functional; this
    /// flag controls vector/matrix/transfer payloads.
    pub functional: bool,
    /// Safety stop: abort after this many core cycles (deadlock guard).
    pub max_cycles: u64,
    /// Record a per-instruction trace (slow; for debugging).
    pub trace: bool,
    /// Model the crossbar *structure hazard* (back-to-back `MVM`s on the
    /// same crossbars serialize). Disable only for ablation studies; real
    /// hardware cannot reuse a crossbar mid-computation.
    pub structure_hazard: bool,
}

/// The complete architecture configuration — the paper's "architecture
/// configuration file".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ArchConfig {
    /// Architectural resources.
    pub resources: Resources,
    /// Hardware performance parameters.
    pub timing: TimingParams,
    /// Per-operation energies.
    pub energy: EnergyParams,
    /// Interconnection parameters.
    pub noc: NocParams,
    /// Simulator settings.
    pub sim: SimSettings,
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::paper_default()
    }
}

impl ArchConfig {
    /// The paper's evaluation chip (§IV-A): 64 cores in an 8×8 mesh, 512
    /// crossbars per core, 128×128 crossbars, one shared ADC per crossbar.
    pub fn paper_default() -> ArchConfig {
        ArchConfig {
            resources: Resources {
                core_rows: 8,
                core_cols: 8,
                xbars_per_core: 512,
                xbar_rows: 128,
                xbar_cols: 128,
                adcs_per_xbar: 1,
                weight_bits: 8,
                cell_bits: 2,
                input_bits: 8,
                dac_bits: 1,
                rob_size: 8,
                vector_lanes: 32,
                local_mem_kb: 16 * 1024,
                global_mem_mb: 1024,
            },
            timing: TimingParams {
                core_freq_ghz: 1.0,
                xbar_read_ns: 100.0,
                adc_sample_ns: 1.0,
                vector_startup_cycles: 2,
                vector_cycles_per_batch: 1,
                scalar_op_cycles: 1,
                decode_cycles: 1,
                fetch_width: 2,
                dispatch_width: 2,
                local_mem_access_cycles: 1,
                global_mem_latency_ns: 100.0,
                global_mem_bw_elems_per_ns: 8.0,
            },
            energy: EnergyParams {
                xbar_pj_per_cell: 0.002,
                adc_pj_per_sample: 2.0,
                dac_pj_per_input: 0.1,
                vector_pj_per_elem: 0.2,
                scalar_pj_per_op: 1.0,
                local_mem_pj_per_elem: 0.5,
                global_mem_pj_per_elem: 20.0,
                noc_pj_per_flit_hop: 1.5,
                frontend_pj_per_instr: 2.0,
                core_static_mw: 5.0,
                chip_static_mw: 50.0,
            },
            noc: NocParams {
                freq_ghz: 1.0,
                flit_bytes: 32,
                hop_cycles: 2,
                link_flits_per_cycle: 1.0,
                channel_credits: 2,
                routing: RoutingPolicy::Xy,
                virtual_channels: 1,
                router_pipeline_depth: 1,
            },
            sim: SimSettings {
                functional: false,
                max_cycles: 50_000_000_000,
                trace: false,
                structure_hazard: true,
            },
        }
    }

    /// A tiny chip for unit/integration tests: 3×3 cores, 8 crossbars of
    /// 16×16 per core, 8 vector lanes, functional simulation enabled.
    pub fn small_test() -> ArchConfig {
        let mut cfg = ArchConfig::paper_default();
        cfg.resources.core_rows = 3;
        cfg.resources.core_cols = 3;
        cfg.resources.xbars_per_core = 8;
        cfg.resources.xbar_rows = 16;
        cfg.resources.xbar_cols = 16;
        cfg.resources.cell_bits = 8; // one cell per weight: keeps tiles tiny
        cfg.resources.vector_lanes = 8;
        cfg.resources.local_mem_kb = 256;
        cfg.resources.global_mem_mb = 16;
        cfg.resources.rob_size = 4;
        cfg.sim.functional = true;
        cfg.sim.max_cycles = 100_000_000;
        cfg
    }

    /// Returns a copy with a different ROB capacity (Fig. 4 sweeps this).
    pub fn with_rob(mut self, rob_size: u32) -> ArchConfig {
        self.resources.rob_size = rob_size;
        self
    }

    /// Returns a copy with functional simulation switched on or off.
    pub fn with_functional(mut self, functional: bool) -> ArchConfig {
        self.sim.functional = functional;
        self
    }

    /// Returns a copy with a different mesh routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> ArchConfig {
        self.noc.routing = routing;
        self
    }

    /// Returns a copy with a different virtual-channel count.
    pub fn with_virtual_channels(mut self, vcs: u32) -> ArchConfig {
        self.noc.virtual_channels = vcs;
        self
    }

    /// Returns a copy with a different router pipeline depth.
    pub fn with_router_pipeline_depth(mut self, depth: u32) -> ArchConfig {
        self.noc.router_pipeline_depth = depth;
        self
    }

    /// The structural limits a program must respect on this chip: what
    /// [`Program::validate`](pimsim_isa::Program::validate) checks against.
    pub fn program_limits(&self) -> ProgramLimits {
        ProgramLimits {
            cores: self.resources.cores(),
            xbars_per_core: self.resources.xbars_per_core,
            local_mem_elems: self.resources.local_mem_elems(),
            global_mem_elems: self.resources.global_mem_elems(),
        }
    }

    /// Serializes to pretty JSON (the on-disk configuration format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialization cannot fail")
    }

    /// Parses a configuration from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Parse`] on malformed JSON or unknown fields.
    pub fn from_json(text: &str) -> Result<ArchConfig, ArchError> {
        serde_json::from_str(text).map_err(|e| ArchError::Parse(e.to_string()))
    }

    /// Loads a configuration file.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Io`] if the file cannot be read or
    /// [`ArchError::Parse`] if it is malformed.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ArchConfig, ArchError> {
        let text = std::fs::read_to_string(path)?;
        ArchConfig::from_json(&text)
    }

    /// Writes the configuration to a file as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Io`] if the file cannot be written.
    pub fn to_file(&self, path: impl AsRef<Path>) -> Result<(), ArchError> {
        Ok(std::fs::write(path, self.to_json())?)
    }

    /// Checks internal consistency (positive sizes, divisibility rules,
    /// sane frequencies).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Invalid`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ArchError> {
        fn bad(field: &'static str, msg: impl Into<String>) -> Result<(), ArchError> {
            Err(ArchError::Invalid {
                field,
                msg: msg.into(),
            })
        }
        let r = &self.resources;
        if r.core_rows == 0 || r.core_cols == 0 {
            return bad("resources.core_rows", "mesh must have at least one core");
        }
        // Core ids are `u16`, and the NoC reserves `u16::MAX` for its
        // memory node.
        let cores = r.core_rows as u32 * r.core_cols as u32;
        if cores > u16::MAX as u32 {
            let msg = format!("{cores} cores exceed the 65535 a 16-bit core id addresses");
            return bad("resources.core_rows", msg);
        }
        if r.xbars_per_core == 0 {
            return bad("resources.xbars_per_core", "need at least one crossbar");
        }
        if r.xbar_rows == 0 || r.xbar_cols == 0 {
            return bad(
                "resources.xbar_rows",
                "crossbar dimensions must be positive",
            );
        }
        if r.adcs_per_xbar == 0 {
            return bad("resources.adcs_per_xbar", "need at least one ADC");
        }
        if r.cell_bits == 0 || r.weight_bits == 0 || r.input_bits == 0 || r.dac_bits == 0 {
            return bad("resources.weight_bits", "bit widths must be positive");
        }
        if r.cell_bits > r.weight_bits {
            return bad(
                "resources.cell_bits",
                format!(
                    "cell_bits {} exceeds weight_bits {}",
                    r.cell_bits, r.weight_bits
                ),
            );
        }
        if r.xbar_cols < r.cells_per_weight() {
            return bad(
                "resources.xbar_cols",
                "crossbar narrower than one logical weight",
            );
        }
        if r.rob_size == 0 {
            return bad("resources.rob_size", "ROB needs at least one slot");
        }
        if r.vector_lanes == 0 {
            return bad("resources.vector_lanes", "need at least one vector lane");
        }
        if r.local_mem_kb == 0 {
            return bad("resources.local_mem_kb", "local memory must be positive");
        }
        // `local_mem_elems` counts through the byte count in `u32`.
        if r.local_mem_kb as u64 * 1024 > u32::MAX as u64 {
            let msg = format!("{} KiB overflow the 32-bit memory size", r.local_mem_kb);
            return bad("resources.local_mem_kb", msg);
        }
        let t = &self.timing;
        if !(t.core_freq_ghz.is_finite() && t.core_freq_ghz > 0.0) {
            return bad("timing.core_freq_ghz", "frequency must be positive");
        }
        if !(t.xbar_read_ns.is_finite() && t.xbar_read_ns > 0.0) {
            return bad("timing.xbar_read_ns", "latency must be positive");
        }
        if !(t.adc_sample_ns.is_finite() && t.adc_sample_ns > 0.0) {
            return bad("timing.adc_sample_ns", "latency must be positive");
        }
        if t.fetch_width == 0 || t.dispatch_width == 0 {
            return bad("timing.fetch_width", "pipeline widths must be positive");
        }
        if !(t.global_mem_bw_elems_per_ns.is_finite() && t.global_mem_bw_elems_per_ns > 0.0) {
            return bad(
                "timing.global_mem_bw_elems_per_ns",
                "bandwidth must be positive",
            );
        }
        let n = &self.noc;
        if !(n.freq_ghz.is_finite() && n.freq_ghz > 0.0) {
            return bad("noc.freq_ghz", "frequency must be positive");
        }
        if n.flit_bytes == 0 {
            return bad("noc.flit_bytes", "flit size must be positive");
        }
        if !(n.link_flits_per_cycle.is_finite() && n.link_flits_per_cycle > 0.0) {
            return bad("noc.link_flits_per_cycle", "bandwidth must be positive");
        }
        if n.channel_credits == 0 {
            return bad("noc.channel_credits", "need at least one credit");
        }
        if n.virtual_channels == 0 {
            return bad("noc.virtual_channels", "need at least one virtual channel");
        }
        // The simulator and the analyzer keep one credit counter per VC
        // on every channel: an unbounded count is an unbounded allocation.
        if n.virtual_channels > MAX_VIRTUAL_CHANNELS {
            return bad(
                "noc.virtual_channels",
                format!(
                    "{} virtual channels exceed the supported {MAX_VIRTUAL_CHANNELS}",
                    n.virtual_channels
                ),
            );
        }
        if n.router_pipeline_depth == 0 {
            return bad(
                "noc.router_pipeline_depth",
                "router pipeline needs at least one stage",
            );
        }
        let e = &self.energy;
        for (field, v) in [
            ("energy.xbar_pj_per_cell", e.xbar_pj_per_cell),
            ("energy.adc_pj_per_sample", e.adc_pj_per_sample),
            ("energy.dac_pj_per_input", e.dac_pj_per_input),
            ("energy.vector_pj_per_elem", e.vector_pj_per_elem),
            ("energy.scalar_pj_per_op", e.scalar_pj_per_op),
            ("energy.local_mem_pj_per_elem", e.local_mem_pj_per_elem),
            ("energy.global_mem_pj_per_elem", e.global_mem_pj_per_elem),
            ("energy.noc_pj_per_flit_hop", e.noc_pj_per_flit_hop),
            ("energy.frontend_pj_per_instr", e.frontend_pj_per_instr),
            ("energy.core_static_mw", e.core_static_mw),
            ("energy.chip_static_mw", e.chip_static_mw),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ArchError::Invalid {
                    field,
                    msg: "energies must be finite and non-negative".into(),
                });
            }
        }
        if self.sim.max_cycles == 0 {
            return bad("sim.max_cycles", "safety stop must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_paper() {
        let cfg = ArchConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.resources.cores(), 64);
        assert_eq!(cfg.resources.xbars_per_core, 512);
        assert_eq!(cfg.resources.xbar_rows, 128);
        assert_eq!(cfg.resources.xbar_cols, 128);
        assert_eq!(cfg.resources.adcs_per_xbar, 1);
    }

    #[test]
    fn small_test_is_valid() {
        ArchConfig::small_test().validate().unwrap();
    }

    #[test]
    fn derived_quantities() {
        let r = ArchConfig::paper_default().resources;
        assert_eq!(r.cells_per_weight(), 4); // 8-bit weights, 2-bit cells
        assert_eq!(r.mvm_phases(), 8); // 8-bit inputs, 1-bit DAC
        assert_eq!(r.logical_cols_per_xbar(), 32); // 128 / 4
        assert_eq!(r.local_mem_elems(), 16 * 1024 * 1024 / 4);
    }

    #[test]
    fn mesh_geometry() {
        let r = ArchConfig::paper_default().resources;
        assert_eq!(r.core_position(0), (0, 0));
        assert_eq!(r.core_position(9), (1, 1));
        assert_eq!(r.mesh_hops(0, 9), 2);
        assert_eq!(r.mesh_hops(0, 63), 14);
        assert_eq!(r.mesh_hops(5, 5), 0);
    }

    #[test]
    fn json_roundtrip() {
        let cfg = ArchConfig::paper_default();
        let text = cfg.to_json();
        assert_eq!(ArchConfig::from_json(&text).unwrap(), cfg);
    }

    #[test]
    fn unknown_fields_rejected() {
        let mut v: serde_json::Value =
            serde_json::from_str(&ArchConfig::paper_default().to_json()).unwrap();
        v["resources"]["warp_drive"] = serde_json::json!(9000);
        let text = serde_json::to_string(&v).unwrap();
        assert!(matches!(
            ArchConfig::from_json(&text),
            Err(ArchError::Parse(_))
        ));
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut cfg = ArchConfig::paper_default();
        cfg.resources.xbars_per_core = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ArchConfig::paper_default();
        cfg.resources.cell_bits = 16;
        assert!(cfg.validate().is_err());

        let mut cfg = ArchConfig::paper_default();
        cfg.timing.core_freq_ghz = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ArchConfig::paper_default();
        cfg.energy.adc_pj_per_sample = f64::NAN;
        assert!(cfg.validate().is_err());

        let mut cfg = ArchConfig::paper_default();
        cfg.resources.rob_size = 0;
        assert!(cfg.validate().is_err());

        // Sizes whose `u16` core count or `u32` memory size would wrap,
        // and the largest that fit.
        for (rows, cols, kb, field) in [
            (256, 256, 64, Some("resources.core_rows")),
            (300, 300, 64, Some("resources.core_rows")),
            (8, 8, 4_194_304, Some("resources.local_mem_kb")),
            (255, 257, 4_194_303, None),
        ] {
            let mut cfg = ArchConfig::paper_default();
            (cfg.resources.core_rows, cfg.resources.core_cols) = (rows, cols);
            cfg.resources.local_mem_kb = kb;
            let got = cfg.validate().err().map(|e| match e {
                ArchError::Invalid { field, .. } => field,
                other => panic!("expected Invalid, got {other:?}"),
            });
            assert_eq!(got, field, "{rows}x{cols}, {kb} KiB");
        }
    }

    #[test]
    fn zero_virtual_channels_rejected_with_field_path() {
        let mut cfg = ArchConfig::paper_default();
        cfg.noc.virtual_channels = 0;
        match cfg.validate().unwrap_err() {
            ArchError::Invalid { field, .. } => assert_eq!(field, "noc.virtual_channels"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn too_many_virtual_channels_rejected_with_field_path() {
        let cfg = ArchConfig::paper_default().with_virtual_channels(MAX_VIRTUAL_CHANNELS);
        assert!(cfg.validate().is_ok(), "the cap itself is accepted");
        for vcs in [MAX_VIRTUAL_CHANNELS + 1, 4_000_000_000] {
            let cfg = ArchConfig::paper_default().with_virtual_channels(vcs);
            match cfg.validate().unwrap_err() {
                ArchError::Invalid { field, msg } => {
                    assert_eq!(field, "noc.virtual_channels");
                    assert!(msg.contains(&vcs.to_string()), "{msg}");
                }
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_router_pipeline_depth_rejected_with_field_path() {
        let mut cfg = ArchConfig::paper_default();
        cfg.noc.router_pipeline_depth = 0;
        match cfg.validate().unwrap_err() {
            ArchError::Invalid { field, .. } => assert_eq!(field, "noc.router_pipeline_depth"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Same field-path error style as the existing credit check.
        let mut cfg = ArchConfig::paper_default();
        cfg.noc.channel_credits = 0;
        match cfg.validate().unwrap_err() {
            ArchError::Invalid { field, .. } => assert_eq!(field, "noc.channel_credits"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn builders() {
        let cfg = ArchConfig::paper_default()
            .with_rob(16)
            .with_functional(true)
            .with_routing(RoutingPolicy::Yx);
        assert_eq!(cfg.resources.rob_size, 16);
        assert!(cfg.sim.functional);
        assert_eq!(cfg.noc.routing, RoutingPolicy::Yx);
    }

    #[test]
    fn routing_policy_names_roundtrip() {
        for policy in RoutingPolicy::ALL {
            assert_eq!(policy.name().parse::<RoutingPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!(
            "o1turn".parse::<RoutingPolicy>().unwrap(),
            RoutingPolicy::XyYxAlternate
        );
        assert_eq!(
            "adaptive".parse::<RoutingPolicy>().unwrap(),
            RoutingPolicy::Adaptive
        );
        assert!("zigzag".parse::<RoutingPolicy>().is_err());
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::Xy);
    }

    #[test]
    fn router_model_knobs_default_and_roundtrip() {
        // Configurations written before the knobs existed stay loadable
        // and mean 1 VC / depth 1 — exactly what they simulated as before.
        let text = ArchConfig::paper_default().to_json();
        let legacy = text
            .replace(",\n    \"virtual_channels\": 1", "")
            .replace(",\n    \"router_pipeline_depth\": 1", "");
        assert_ne!(legacy, text, "the default config serializes both knobs");
        let cfg = ArchConfig::from_json(&legacy).unwrap();
        assert_eq!(cfg.noc.virtual_channels, 1);
        assert_eq!(cfg.noc.router_pipeline_depth, 1);
        // Non-default values survive a JSON roundtrip.
        let cfg = ArchConfig::paper_default()
            .with_virtual_channels(4)
            .with_router_pipeline_depth(3);
        let back = ArchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.noc.virtual_channels, 4);
        assert_eq!(back.noc.router_pipeline_depth, 3);
        cfg.validate().unwrap();
    }

    #[test]
    fn routing_field_defaults_and_roundtrips() {
        // Configurations written before the knob existed stay loadable
        // (and mean XY, exactly what they simulated as before).
        let text = ArchConfig::paper_default().to_json();
        let legacy = text.replace(",\n    \"routing\": \"xy\"", "");
        assert_ne!(legacy, text, "the default config serializes the knob");
        let cfg = ArchConfig::from_json(&legacy).unwrap();
        assert_eq!(cfg.noc.routing, RoutingPolicy::Xy);
        // Non-default values survive a JSON roundtrip.
        let cfg = ArchConfig::paper_default().with_routing(RoutingPolicy::XyYxAlternate);
        let back = ArchConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.noc.routing, RoutingPolicy::XyYxAlternate);
        // A bad name is a parse error, not a silent default.
        let bad = cfg.to_json().replace("xy-yx", "zigzag");
        assert!(matches!(
            ArchConfig::from_json(&bad),
            Err(ArchError::Parse(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pimsim-arch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arch.json");
        let cfg = ArchConfig::small_test();
        cfg.to_file(&path).unwrap();
        assert_eq!(ArchConfig::from_file(&path).unwrap(), cfg);
        assert!(ArchConfig::from_file(dir.join("missing.json")).is_err());
    }
}
