//! The run loop: world construction, the event loop, deadlock detection,
//! and report assembly.

use std::collections::BTreeMap;

use pimsim_arch::model::CostModel;
use pimsim_arch::ArchConfig;
use pimsim_event::{Kernel, RunResult, SimTime};
use pimsim_isa::{CoreProgram, Program};

use super::rob::Core;
use super::transfer::TransferFabric;
use super::{error::SimError, Machine, MachineEvent, Telemetry};
use crate::exec::Memory;
use crate::noc::Noc;
use crate::stats::{SimReport, TraceEntry};

/// What a mesh slot the program leaves out runs: nothing.
static IDLE_CORE: CoreProgram = CoreProgram {
    instrs: Vec::new(),
    groups: Vec::new(),
    local_init: Vec::new(),
    labels: BTreeMap::new(),
    instr_tags: Vec::new(),
};

/// Runs compiled [`Program`]s on a configured chip.
///
/// See the crate docs for the machine model. Unit latencies and energies
/// come from the paper's shared [`CostModel`] tables.
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'a> {
    arch: &'a ArchConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `arch`.
    pub fn new(arch: &'a ArchConfig) -> Self {
        Simulator { arch }
    }

    /// Runs `program` to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidProgram`] / [`SimError::Arch`] for malformed inputs,
    /// * [`SimError::Deadlock`] when transfers can never match,
    /// * [`SimError::Timeout`] at the `sim.max_cycles` horizon,
    /// * [`SimError::TagMismatch`] for inconsistent payload lengths,
    /// * [`SimError::MemoryFault`] for an operand outside its memory.
    pub fn run(&self, program: &Program) -> Result<SimReport, SimError> {
        self.arch.validate()?;
        program.validate(&self.arch.program_limits())?;
        let machine = self.build_machine(program);
        self.execute(machine)
    }

    /// Runs a built machine to quiescence and assembles its report.
    pub(super) fn execute(&self, machine: Machine<'_>) -> Result<SimReport, SimError> {
        let functional = machine.functional;
        let clock = machine.model.core_clock();
        let horizon = clock.cycles_to_time(self.arch.sim.max_cycles);
        let mut kernel = Kernel::new(machine);
        for c in 0..kernel.world().cores.len() {
            if !kernel.world().cores[c].halted {
                let core = c as u16;
                kernel.schedule_at(SimTime::ZERO, MachineEvent::Advance { core });
            }
        }
        let result = kernel.run_until(horizon);
        let events = kernel.stats().executed;
        let mut machine = kernel.into_world();
        let now = machine.finish_time;

        if let Some(err) = machine.error.take() {
            return Err(err);
        }
        match result {
            RunResult::Horizon => {
                return Err(SimError::Timeout {
                    max_cycles: self.arch.sim.max_cycles,
                })
            }
            RunResult::Stopped => unreachable!("stop implies a recorded error"),
            RunResult::Exhausted => {}
        }
        self.check_quiescent(&machine, now)?;

        let latency = now;
        machine.telemetry.energy.static_energy = machine.model.static_energy(latency);
        let per_core = machine.cores.iter().map(|c| c.stats).collect();
        Ok(SimReport {
            latency,
            energy: machine.telemetry.energy,
            instructions: machine.telemetry.instructions,
            class_counts: machine.telemetry.class_counts,
            per_core,
            per_node: machine.telemetry.per_node,
            events,
            trace: (machine.telemetry.trace.iter())
                .map(|&(time, core, pc)| TraceEntry {
                    time,
                    core,
                    instr: machine.cores[core as usize].instrs[pc as usize].to_string(),
                })
                .collect(),
            gmem: functional.then_some(machine.gmem),
            locals: functional.then(|| machine.cores.into_iter().map(|c| c.mem).collect()),
        })
    }

    /// Assembles the machine: one core per mesh slot with its program
    /// slice, the NoC, global memory, and the transfer fabric with the
    /// program's channels interned.
    pub(super) fn build_machine<'p>(&self, program: &'p Program) -> Machine<'p>
    where
        'a: 'p,
    {
        let functional = self.arch.sim.functional;
        let model = CostModel::new(self.arch);
        let decode_offset = model.decode_offset();

        let n_cores = self.arch.resources.cores() as usize;
        let mut cores = Vec::with_capacity(n_cores);
        for cid in 0..n_cores {
            let cp = program.cores.get(cid).unwrap_or(&IDLE_CORE);
            let mut mem = Memory::default();
            if functional {
                for (start, values) in &cp.local_init {
                    mem.write(*start, values);
                }
            }
            cores.push(Core::new(
                &cp.instrs,
                &cp.groups,
                &cp.instr_tags,
                mem,
                self.arch.resources.rob_size as usize,
                decode_offset,
                &model,
            ));
        }
        let mut gmem = Memory::default();
        if functional {
            for (start, values) in &program.global_init {
                for (i, v) in values.iter().enumerate() {
                    gmem.set(start + i as u64, *v);
                }
            }
        }

        let fabric = TransferFabric::for_cores(&mut cores, self.arch.noc.virtual_channels);
        Machine {
            cfg: self.arch,
            limits: self.arch.program_limits(),
            model,
            noc: Noc::for_arch(self.arch),
            gmem,
            cores,
            fabric,
            functional,
            dispatch_interval: model.dispatch_interval(),
            frontend_energy: model.frontend_energy(),
            scalar_energy: model.scalar_cost().energy,
            telemetry: Telemetry::new(self.arch.sim.trace),
            error: None,
            finish_time: SimTime::ZERO,
            #[cfg(test)]
            eager_issue: false,
        }
    }

    /// Everything drained: all cores must be halted with empty ROBs,
    /// otherwise some rendezvous never matched — report a deadlock with
    /// per-core and per-channel diagnostics.
    fn check_quiescent(&self, machine: &Machine<'_>, now: SimTime) -> Result<(), SimError> {
        let stuck: Vec<String> = machine
            .cores
            .iter()
            .enumerate()
            .filter(|(_, core)| !core.halted || !core.rob_is_empty())
            .map(|(i, core)| {
                let rob: Vec<String> = core
                    .in_flight()
                    .map(|e| format!("{:?}/{:?}/{}", e.instr.class(), e.state, e.instr))
                    .collect();
                format!(
                    "core{i}: pc={} halted={} pending={} next_dispatch={} next_instr={:?} rob=[{}]",
                    core.pc,
                    core.halted,
                    core.advance_pending,
                    core.next_dispatch,
                    core.instrs.get(core.pc as usize).map(|x| x.to_string()),
                    rob.join(" | ")
                )
            })
            .collect();
        if stuck.is_empty() {
            // Cores all halted cleanly — but a send whose message was
            // deposited and never received would leave the run looking
            // successful while data silently rotted in the fabric.
            let leaked = machine.fabric.unmatched_sites();
            if leaked.is_empty() {
                return Ok(());
            }
            return Err(SimError::Deadlock {
                time: now,
                detail: format!(
                    "all cores halted, but sent message(s) were never received:\n{}\n\
                     hint: `pimsim check` reports unmatched transfers statically, \
                     with per-site core/pc",
                    leaked.join("\n")
                ),
            });
        }
        let chans = machine.fabric.congestion_report();
        let mut detail = format!("{}\n{}", stuck.join("; "), chans.join("\n"));
        let unmatched = machine.fabric.unmatched_sites();
        if !unmatched.is_empty() {
            detail.push_str("\nunmatched rendezvous site(s):\n");
            detail.push_str(&unmatched.join("\n"));
        }
        detail.push_str(
            "\nhint: `pimsim check` diagnoses unmatched transfers and \
             crossed send/recv orderings statically, with per-site core/pc",
        );
        Err(SimError::Deadlock { time: now, detail })
    }
}
