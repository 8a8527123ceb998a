//! The per-core frontend: fetch/decode/dispatch pacing and at-dispatch
//! scalar execution.
//!
//! Instructions dispatch in order, at most one per
//! [`CostModel::dispatch_interval`](pimsim_arch::model::CostModel::dispatch_interval).
//! Scalar instructions (ALU, branches, jumps) execute right here, with the
//! ISA's own semantics ([`Instruction::exec_scalar`]) — loops and address
//! arithmetic never enter the ROB. Memory-class instructions have their
//! operands ([`Instruction::for_each_extent`]) bounds-checked and their
//! addresses taken against the register file, in timing and functional
//! runs alike, and are handed to the ROB with those addresses, after
//! which the issue logic in [`super::units`] takes over.

use pimsim_isa::{Footprint, InstrClass, Instruction, ProgramLimits};

use super::error::SimError;
use super::rob::Core;
use super::{Ctx, Machine, MachineEvent};

/// How a wake-up's dispatch loop ended.
struct Dispatched {
    /// It stopped on pacing: the next dispatch lies in the future.
    paced: bool,
    /// The scalar instruction it executed, if any. The dispatch interval
    /// is at least a picosecond, so a wake-up dispatches at most one.
    scalar_pc: Option<u32>,
}

impl Machine<'_> {
    /// Dispatches as many instructions as the frontend rules allow at the
    /// current time, then issues what can start, then schedules a pacing
    /// wake-up when throttled. This is the wake-up's one issue pass, and
    /// it starts what issuing after every admit and at every completion
    /// would: issue is age-ordered, and admit treats `Waiting` and
    /// `Executing` entries alike. The follow-ups are buffered in the same
    /// order too, the starts' `Complete`s before the pacing `Advance`, and
    /// a scalar's trace entry goes after the transfers the pass finishes
    /// at once, where the earlier issue would have put them.
    pub(crate) fn try_advance(&mut self, c: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        self.finish_time = self.finish_time.max(now);
        let Dispatched { paced, scalar_pc } = self.dispatch(c, ctx);
        if !self.eager_issue() {
            self.try_issue(c, ctx);
        }
        if let Some(pc) = scalar_pc {
            self.telemetry.record_trace(now, c as u16, pc);
        }
        let core = &mut self.cores[c];
        // A transfer the issue pass finished may have run this core's
        // wake-up already, and scheduled the `Advance` there.
        if paced && self.error.is_none() && !core.advance_pending {
            core.advance_pending = true;
            let at = core.next_dispatch;
            ctx.schedule_at(at, MachineEvent::Advance { core: c as u16 });
        }
    }

    /// The frontend's in-order dispatch loop at the current time.
    fn dispatch(&mut self, c: usize, ctx: &mut Ctx) -> Dispatched {
        let now = ctx.now();
        let mut scalar_pc = None;
        let paced = loop {
            if self.error.is_some() || self.cores[c].halted {
                break false;
            }
            {
                let core = &mut self.cores[c];
                if core.rob_is_full() {
                    break false; // a completion will re-trigger us
                }
                if core.next_dispatch > now {
                    break true;
                }
            }
            let pc = self.cores[c].pc as usize;
            let Some(&instr) = self.cores[c].instrs.get(pc) else {
                self.cores[c].halted = true;
                break false;
            };
            let tag = self.cores[c].tags.get(pc).copied().unwrap_or(0);
            self.cores[c].next_dispatch = now + self.dispatch_interval;
            self.cores[c].stats.dispatched += 1;
            self.telemetry.count_dispatch(tag);
            self.telemetry.energy.frontend += self.frontend_energy;

            if instr.class() == InstrClass::Scalar {
                // Execute at dispatch.
                self.telemetry.class_counts[3] += 1;
                self.telemetry.energy.scalar += self.scalar_energy;
                scalar_pc = Some(pc as u32);
                let core = &mut self.cores[c];
                match instr.exec_scalar(&mut core.regs, core.pc) {
                    Some(next) => core.pc = next,
                    None => core.halted = true,
                }
            } else {
                if let Err(fault) = self.enter_rob(c, tag, instr) {
                    self.fail(fault, ctx);
                    break false;
                }
                if self.eager_issue() {
                    self.try_issue(c, ctx);
                }
            }
        };
        Dispatched { paced, scalar_pc }
    }

    /// Bounds-checks the operands' extents and takes their addresses,
    /// then allocates the ROB entry with them and their footprint and
    /// advances the program counter past it.
    fn enter_rob(&mut self, c: usize, tag: u16, instr: Instruction) -> Result<(), SimError> {
        let (core, limits) = (&self.cores[c], &self.limits);
        let mut outside = false;
        let (mut at, mut k) = ([0u32; 3], 0);
        instr.for_each_extent(core.groups, |e| {
            outside |= e.outside(&core.regs, limits.capacity(e.space)).is_some();
            // Exact for every non-empty operand once the check passes.
            at[k] = e.base.effective(&core.regs) as u32;
            k += 1;
        });
        if outside {
            return Err(memory_fault(c, core, &instr, limits));
        }
        let footprint = Footprint::of(&instr, core.groups, &core.regs);
        let slot = match instr.class() {
            InstrClass::Matrix => 0,
            InstrClass::Vector => 1,
            InstrClass::Transfer => 2,
            InstrClass::Scalar => unreachable!("scalar instructions never enter the ROB"),
        };
        self.telemetry.class_counts[slot] += 1;
        let core = &mut self.cores[c];
        let chan = core.chans[core.pc as usize];
        core.admit(tag, instr, at, footprint, chan, core.pc);
        core.pc += 1;
        Ok(())
    }
}

/// The fault of the first operand of `instr`, on core `c`, outside its
/// memory.
#[cold]
fn memory_fault(c: usize, core: &Core, instr: &Instruction, limits: &ProgramLimits) -> SimError {
    let mut detail = String::new();
    instr.for_each_extent(core.groups, |e| {
        let capacity = limits.capacity(e.space);
        match e.outside(&core.regs, capacity) {
            Some((start, end)) if detail.is_empty() => {
                let (pc, space) = (core.pc, e.space.name());
                detail = format!(
                    "pc {pc} ({instr}) accesses [{start}, {end}), outside the \
                     {capacity}-element {space} memory"
                );
            }
            _ => {}
        }
    });
    let core = c as u16;
    SimError::MemoryFault { core, detail }
}
