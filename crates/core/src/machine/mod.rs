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
//! * [`run`] — the [`Simulator`] entry point: world construction, the
//!   event loop, deadlock detection, report assembly,
//! * [`error`] — the [`SimError`] taxonomy.
//!
//! The [`Machine`] defined here is the [`World`] driven by the typed
//! event kernel: all cross-component choreography happens through the
//! three 16-byte [`MachineEvent`]s, so the timing behaviour of a run is
//! exactly the event schedule those variants produce. Every wake-up
//! dispatches, then makes one issue pass, then schedules its pacing
//! `Advance` ([`Machine::try_advance`]); that starts what issuing after
//! every admit and at every completion would, in the same order, and a
//! test holds the two cadences to byte-identical traced reports.

pub(crate) mod error;
pub(crate) mod frontend;
pub(crate) mod rob;
pub(crate) mod run;
pub(crate) mod transfer;
pub(crate) mod units;

use pimsim_arch::model::CostModel;
use pimsim_arch::{ArchConfig, Energy};
use pimsim_event::{EventCtx, SimTime, World};
use pimsim_isa::ProgramLimits;

use crate::exec::Memory;
use crate::noc::Noc;
use crate::stats::{EnergyBreakdown, NodeStats, TRACE_CAP};

pub use error::SimError;
pub use run::Simulator;

use rob::Core;
use transfer::TransferFabric;

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
    /// `(completion time, core, pc)` per traced instruction; the report
    /// renders each pc as assembly.
    pub(crate) trace: Vec<(SimTime, u16, u32)>,
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
        }
    }

    /// Counts one dispatched instruction against `tag`.
    pub(crate) fn count_dispatch(&mut self, tag: u16) {
        self.instructions += 1;
        self.node(tag).instructions += 1;
    }

    /// The stats bucket for node `tag`, growing the table as needed.
    pub(crate) fn node(&mut self, tag: u16) -> &mut NodeStats {
        let idx = tag as usize;
        if self.per_node.len() <= idx {
            self.per_node.resize(idx + 1, NodeStats::default());
        }
        &mut self.per_node[idx]
    }

    /// Appends a trace entry when tracing, unless the cap has been
    /// reached.
    pub(crate) fn record_trace(&mut self, time: SimTime, core: u16, pc: u32) {
        if self.trace_on && self.trace.len() < TRACE_CAP {
            self.trace.push((time, core, pc));
        }
    }
}

/// The events that drive the machine. Everything the pipeline does at a
/// later simulated time is one of these three wake-ups. Each is 16 bytes:
/// a core index fits a `u16` (meshes are capped at 65,535 cores), and a
/// message on the wire stays in the fabric, named by its slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MachineEvent {
    /// The frontend of `core` may try to dispatch again (pacing timer).
    Advance { core: u16 },
    /// The execution-unit occupancy of ROB entry `seq` on `core` ends.
    Complete { core: u16, seq: u64 },
    /// A message's tail flit arrives at the receiving end of channel
    /// `chan`; the send it completes sits in the fabric's wire slot `slot`.
    Deposit { chan: u32, slot: u32 },
}

impl MachineEvent {
    /// The end of ROB entry `seq`'s unit occupancy on core `c`.
    pub(crate) fn complete(c: usize, seq: u64) -> MachineEvent {
        MachineEvent::Complete {
            core: c as u16,
            seq,
        }
    }
}

/// Scheduling context alias used throughout the machine modules.
pub(crate) type Ctx = EventCtx<MachineEvent>;

/// The complete simulated chip: per-core frontends and ROBs, the
/// execution units, the NoC, the transfer fabric, and the telemetry
/// sink — the [`World`] the event kernel drives.
pub(crate) struct Machine<'a> {
    pub(crate) cfg: &'a ArchConfig,
    /// The chip's memory capacities, which every operand's extent is
    /// checked against at dispatch.
    pub(crate) limits: ProgramLimits,
    /// Unit, transfer and static prices: the shared cost tables over
    /// `cfg`, with both clocks derived once per run.
    pub(crate) model: CostModel<'a>,
    pub(crate) cores: Vec<Core<'a>>,
    pub(crate) noc: Noc,
    pub(crate) gmem: Memory,
    pub(crate) fabric: TransferFabric,
    pub(crate) functional: bool,
    pub(crate) dispatch_interval: SimTime,
    /// Fetch/decode energy of one dispatch, priced once per run.
    pub(crate) frontend_energy: Energy,
    /// Energy of one scalar operation, priced once per run.
    pub(crate) scalar_energy: Energy,
    pub(crate) telemetry: Telemetry,
    pub(crate) error: Option<SimError>,
    /// Timestamp of the last real activity (the kernel clock advances to
    /// the horizon when the queue drains; latency must not).
    pub(crate) finish_time: SimTime,
    /// Issue after every admit and at every completion, the cadence the
    /// machine had before it issued once per wake-up: the oracle the
    /// cadence differential holds the machine to.
    #[cfg(test)]
    pub(crate) eager_issue: bool,
}

impl Machine<'_> {
    /// Records the first error and stops the kernel.
    pub(crate) fn fail(&mut self, err: SimError, ctx: &mut Ctx) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        ctx.stop();
    }

    /// `true` when running the replaced issue cadence (tests only).
    fn eager_issue(&self) -> bool {
        #[cfg(test)]
        return self.eager_issue;
        #[cfg(not(test))]
        false
    }
}

impl World for Machine<'_> {
    type Event = MachineEvent;

    fn handle(&mut self, ev: MachineEvent, ctx: &mut Ctx) {
        match ev {
            MachineEvent::Advance { core } => {
                self.cores[core as usize].advance_pending = false;
                self.try_advance(core as usize, ctx);
            }
            MachineEvent::Complete { core, seq } => self.complete(core as usize, seq, ctx),
            MachineEvent::Deposit { chan, slot } => {
                let send = self.fabric.take_off_wire(slot);
                self.deposit(chan, send, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::MachineEvent;

    #[test]
    fn a_machine_event_is_sixteen_bytes() {
        // The kernel queues `Option<MachineEvent>` beside a 16-byte key.
        assert_eq!(std::mem::size_of::<MachineEvent>(), 16);
        assert_eq!(std::mem::size_of::<Option<MachineEvent>>(), 16);
    }
}

/// xorshift64*: the machine's differential tests' only source of
/// randomness.
#[cfg(test)]
pub(crate) mod test_rng {
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }
}
