//! The simulation machine, decomposed into a component pipeline.
//!
//! The monolithic machine has been split along the hardware's own seams;
//! each stage owns one concern and one module:
//!
//! * [`frontend`] — fetch/decode/dispatch pacing and scalar execution,
//! * [`rob`] — per-core re-order buffer: in-flight entries, admit-time
//!   hazard resolution, the ready set, in-order retirement,
//! * [`units`] — matrix/vector execution units: issue, occupancy,
//!   completion,
//! * [`transfer`] — the rendezvous transfer fabric: flow-controlled
//!   channels, credit bookkeeping, global-memory traffic,
//! * [`timing`] — the [`TimingModel`] seam between dispatch and cost
//!   lookup (swap in alternative unit timings without touching the run
//!   loop),
//! * [`run`] — the [`Simulator`] entry point: world construction, the
//!   event loop, deadlock detection, report assembly,
//! * [`error`] — the [`SimError`] taxonomy.
//!
//! The [`Machine`] defined here is the [`World`] driven by the typed
//! event kernel: all cross-component choreography happens through the
//! three [`MachineEvent`]s, so the timing behaviour of a run is exactly
//! the event schedule those variants produce.

pub(crate) mod engine;
pub(crate) mod error;
pub(crate) mod frontend;
pub(crate) mod rob;
pub(crate) mod run;
pub(crate) mod timing;
pub(crate) mod transfer;
pub(crate) mod units;

use pimsim_arch::{ArchConfig, Energy};
use pimsim_event::{EventCtx, SimTime, World};

use crate::exec::Memory;
use crate::noc::{Noc, NocCosts};
use crate::resolve::Resolved;
use crate::stats::{EnergyBreakdown, NodeStats, TraceEntry, TRACE_CAP};

pub use engine::{Engine, EngineInput, EngineKind, EngineOutput, EventEngine};
pub use error::SimError;
pub use run::Simulator;
pub use timing::{DefaultTiming, TimingModel};

use rob::Core;
use transfer::{Pending, TransferFabric};

/// Which run-wide energy accumulator a recorded delta targets. The
/// transfer accumulator is absent on purpose: transfers delimit compiled
/// regions, so the recording pass can never observe one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnergyField {
    Frontend,
    Scalar,
    Vector,
    Matrix,
}

/// Which per-node time accumulator a recorded delta targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeTimeField {
    Matrix,
    Vector,
}

/// One telemetry mutation, recorded in execution order by the compiled
/// engine's placement pass and re-applied verbatim at replay. Energy is
/// `f64`-backed, so byte-identical replay requires the *original addends
/// in their original order* — never a before/after difference, which
/// rounds differently.
#[derive(Debug, Clone)]
pub(crate) enum Delta {
    /// `telemetry.energy.<field> += v`.
    Energy(EnergyField, Energy),
    /// `telemetry.node(tag).energy += v`.
    NodeEnergy(u16, Energy),
    /// `telemetry.node(tag).<field>_time += v`.
    NodeTime(u16, NodeTimeField, SimTime),
    /// One dispatched instruction attributed to `tag`.
    Dispatch(u16),
    /// `telemetry.class_counts[i] += 1`.
    Class(usize),
    /// A completed functional payload (applied to the replaying core's
    /// local memory only when the run is functional).
    Payload(Resolved),
}

/// Run-wide counters and the optional instruction trace, collected by
/// every pipeline stage and folded into the final `SimReport`.
#[derive(Debug)]
pub(crate) struct Telemetry {
    pub(crate) energy: EnergyBreakdown,
    /// Dynamic counts by class `[matrix, vector, transfer, scalar]`.
    pub(crate) class_counts: [u64; 4],
    pub(crate) instructions: u64,
    /// Per-node (tag) attribution; index = tag value.
    pub(crate) per_node: Vec<NodeStats>,
    pub(crate) trace_on: bool,
    pub(crate) trace: Vec<TraceEntry>,
    /// Ordered mutation log, present only while the compiled engine's
    /// placement pass records a region on a scratch machine.
    pub(crate) recorder: Option<Vec<Delta>>,
}

impl Telemetry {
    pub(crate) fn new(trace_on: bool) -> Telemetry {
        Telemetry {
            energy: EnergyBreakdown::default(),
            class_counts: [0; 4],
            instructions: 0,
            per_node: Vec::new(),
            trace_on,
            trace: Vec::new(),
            recorder: None,
        }
    }

    /// `telemetry.energy.<field> += v`, logged when recording.
    pub(crate) fn add_energy(&mut self, field: EnergyField, v: Energy) {
        match field {
            EnergyField::Frontend => self.energy.frontend += v,
            EnergyField::Scalar => self.energy.scalar += v,
            EnergyField::Vector => self.energy.vector += v,
            EnergyField::Matrix => self.energy.matrix += v,
        }
        if let Some(log) = &mut self.recorder {
            log.push(Delta::Energy(field, v));
        }
    }

    /// `node(tag).energy += v`, logged when recording.
    pub(crate) fn add_node_energy(&mut self, tag: u16, v: Energy) {
        self.node(tag).energy += v;
        if let Some(log) = &mut self.recorder {
            log.push(Delta::NodeEnergy(tag, v));
        }
    }

    /// `node(tag).<field>_time += v`, logged when recording.
    pub(crate) fn add_node_time(&mut self, tag: u16, field: NodeTimeField, v: SimTime) {
        match field {
            NodeTimeField::Matrix => self.node(tag).matrix_time += v,
            NodeTimeField::Vector => self.node(tag).vector_time += v,
        }
        if let Some(log) = &mut self.recorder {
            log.push(Delta::NodeTime(tag, field, v));
        }
    }

    /// Counts one dispatched instruction against `tag`, logged when
    /// recording.
    pub(crate) fn count_dispatch(&mut self, tag: u16) {
        self.instructions += 1;
        self.node(tag).instructions += 1;
        if let Some(log) = &mut self.recorder {
            log.push(Delta::Dispatch(tag));
        }
    }

    /// `class_counts[i] += 1`, logged when recording.
    pub(crate) fn count_class(&mut self, i: usize) {
        self.class_counts[i] += 1;
        if let Some(log) = &mut self.recorder {
            log.push(Delta::Class(i));
        }
    }

    /// Logs a completed functional payload while recording (the scratch
    /// machine never runs functionally; replay applies the payload to the
    /// live core when the real run does).
    pub(crate) fn log_payload(&mut self, res: &Resolved) {
        if let Some(log) = &mut self.recorder {
            log.push(Delta::Payload(*res));
        }
    }

    /// Drains the mutations recorded since the last call.
    pub(crate) fn take_recorded(&mut self) -> Vec<Delta> {
        match &mut self.recorder {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Re-applies one recorded mutation to this telemetry sink.
    pub(crate) fn apply(&mut self, d: &Delta) {
        match d {
            Delta::Energy(field, v) => self.add_energy(*field, *v),
            Delta::NodeEnergy(tag, v) => self.add_node_energy(*tag, *v),
            Delta::NodeTime(tag, field, v) => self.add_node_time(*tag, *field, *v),
            Delta::Dispatch(tag) => self.count_dispatch(*tag),
            Delta::Class(i) => self.count_class(*i),
            Delta::Payload(_) => unreachable!("payloads are applied by the replay core"),
        }
    }

    /// The stats bucket for node `tag`, growing the table as needed.
    pub(crate) fn node(&mut self, tag: u16) -> &mut NodeStats {
        let idx = tag as usize;
        if self.per_node.len() <= idx {
            self.per_node.resize(idx + 1, NodeStats::default());
        }
        &mut self.per_node[idx]
    }

    /// `true` while the trace wants more entries. Checked *before*
    /// rendering instruction text: once the cap is hit the trace can never
    /// grow again, so skipping the formatting is observationally free.
    pub(crate) fn trace_live(&self) -> bool {
        self.trace_on && self.trace.len() < TRACE_CAP
    }

    /// Appends a trace entry unless the cap has been reached.
    pub(crate) fn record_trace(&mut self, time: SimTime, core: u16, instr: String) {
        if self.trace.len() < TRACE_CAP {
            self.trace.push(TraceEntry { time, core, instr });
        }
    }
}

/// The events that drive the machine. Everything the pipeline does at a
/// later simulated time is one of these three wake-ups.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MachineEvent {
    /// The frontend of `core` may try to dispatch again (pacing timer).
    Advance { core: usize },
    /// The execution-unit occupancy of ROB entry `seq` on `core` ends.
    Complete { core: usize, seq: u64 },
    /// A message's tail flit arrives at the receiving end of channel
    /// `chan` (the payload length travels inside `send`).
    Deposit { chan: u32, send: Pending },
    /// A pre-placed schedule slot for `core` fires (compiled engine
    /// only). The event engine treats one reaching it as an invariant
    /// break, never a no-op.
    Slot { core: usize },
}

/// Scheduling context alias used throughout the machine modules.
pub(crate) type Ctx = EventCtx<MachineEvent>;

/// The complete simulated chip: per-core frontends and ROBs, the
/// execution units, the NoC, the transfer fabric, and the telemetry
/// sink — the [`World`] the event kernel drives.
pub(crate) struct Machine<'a> {
    pub(crate) cfg: &'a ArchConfig,
    pub(crate) timing: &'a dyn TimingModel,
    pub(crate) cores: Vec<Core>,
    pub(crate) noc: Noc,
    /// Per-message cost constants, derived once from `cfg` so the
    /// transfer hot path never rebuilds a cost model.
    pub(crate) costs: NocCosts,
    pub(crate) gmem: Memory,
    pub(crate) fabric: TransferFabric,
    pub(crate) functional: bool,
    pub(crate) dispatch_interval: SimTime,
    pub(crate) telemetry: Telemetry,
    pub(crate) error: Option<SimError>,
    /// Timestamp of the last real activity (the kernel clock advances to
    /// the horizon when the queue drains; latency must not).
    pub(crate) finish_time: SimTime,
    /// True when a hybrid (compiled-engine) world drives this machine.
    /// Lets `complete` hand its trailing dispatch back to the driver so a
    /// compiled region can start right after a completion drains the ROB
    /// — the re-dispatch site that never surfaces as an `Advance` event.
    pub(crate) hybrid: bool,
    /// Core whose post-completion dispatch was deferred to the hybrid
    /// driver. Only set while `hybrid`; drained before the event returns.
    pub(crate) deferred_advance: Option<usize>,
}

impl Machine<'_> {
    /// Records the first error and stops the kernel.
    pub(crate) fn fail(&mut self, err: SimError, ctx: &mut Ctx) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        ctx.stop();
    }

    /// True when `core` is in the state a compiled region can start from:
    /// quiescent ROB, dispatch not throttled, and no pacing `Advance`
    /// outstanding (which would fire mid-replay against stale state).
    pub(crate) fn entry_ready(&self, c: usize, now: SimTime) -> bool {
        let core = &self.cores[c];
        self.error.is_none()
            && !core.halted
            && !core.advance_pending
            && core.rob_is_empty()
            && core.next_dispatch <= now
    }
}

impl World for Machine<'_> {
    type Event = MachineEvent;

    fn handle(&mut self, ev: MachineEvent, ctx: &mut Ctx) {
        match ev {
            MachineEvent::Advance { core } => {
                self.cores[core].advance_pending = false;
                self.try_advance(core, ctx);
            }
            MachineEvent::Complete { core, seq } => self.complete(core, seq, ctx),
            MachineEvent::Deposit { chan, send } => self.deposit(chan, send, ctx),
            MachineEvent::Slot { core } => {
                // A schedule slot with no replay state behind it is a stale
                // schedule — silently ignoring it would desynchronize the
                // compiled timeline from the machine.
                let detail = format!("schedule slot for core{core} reached the event engine");
                self.fail(SimError::Internal { detail }, ctx);
            }
        }
    }
}
