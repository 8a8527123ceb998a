//! The per-core frontend: fetch/decode/dispatch pacing and at-dispatch
//! scalar execution.
//!
//! Instructions dispatch in order, at most one per
//! [`CostModel::dispatch_interval`](pimsim_arch::model::CostModel::dispatch_interval).
//! Scalar instructions (ALU, branches, jumps) execute right here, with the
//! ISA's own semantics ([`Instruction::exec_scalar`]) — loops and address
//! arithmetic never enter the ROB. Memory-class instructions get their
//! operands resolved against the register file ([`resolve`]) and are
//! handed to the ROB, after which the issue logic in [`super::units`]
//! takes over.

use pimsim_isa::{resolve, InstrClass, Instruction, Resolved};

use super::{Ctx, Machine, MachineEvent};

impl Machine<'_> {
    /// Dispatches as many instructions as the frontend rules allow at the
    /// current time, scheduling a pacing wake-up when throttled.
    pub(crate) fn try_advance(&mut self, c: usize, ctx: &mut Ctx) {
        self.finish_time = self.finish_time.max(ctx.now());
        loop {
            if self.error.is_some() || self.cores[c].halted {
                return;
            }
            let now = ctx.now();
            {
                let core = &mut self.cores[c];
                if core.rob_is_full() {
                    return; // a completion will re-trigger us
                }
                if core.next_dispatch > now {
                    if !core.advance_pending {
                        core.advance_pending = true;
                        let at = core.next_dispatch;
                        ctx.schedule_at(at, MachineEvent::Advance { core: c });
                    }
                    return;
                }
            }
            let pc = self.cores[c].pc as usize;
            let Some(&instr) = self.cores[c].instrs.get(pc) else {
                self.cores[c].halted = true;
                return;
            };
            let tag = self.cores[c].tags.get(pc).copied().unwrap_or(0);
            let dispatch_at = self.cores[c].next_dispatch.max(now);
            self.cores[c].next_dispatch = dispatch_at + self.dispatch_interval;
            self.cores[c].stats.dispatched += 1;
            self.telemetry.count_dispatch(tag);
            self.telemetry.energy.frontend += self.frontend_energy;

            match resolve(&instr, &self.cores[c].regs) {
                None => {
                    // Scalar class: execute at dispatch.
                    self.telemetry.class_counts[3] += 1;
                    self.telemetry.energy.scalar += self.scalar_energy;
                    self.telemetry
                        .record_trace(dispatch_at, c as u16, pc as u32);
                    let core = &mut self.cores[c];
                    match instr.exec_scalar(&mut core.regs, core.pc) {
                        Some(next) => core.pc = next,
                        None => core.halted = true,
                    }
                }
                Some(res) => {
                    self.enter_rob(c, tag, &instr, res);
                    self.try_issue(c, ctx);
                    continue;
                }
            }
        }
    }

    /// Classifies a resolved instruction, allocates its ROB entry, and
    /// advances the program counter past it.
    fn enter_rob(&mut self, c: usize, tag: u16, instr: &Instruction, res: Resolved) {
        let class = instr.class();
        let slot = match class {
            InstrClass::Matrix => 0,
            InstrClass::Vector => 1,
            InstrClass::Transfer => 2,
            InstrClass::Scalar => unreachable!("resolved scalar"),
        };
        self.telemetry.class_counts[slot] += 1;
        let core = &mut self.cores[c];
        let chan = core.chans[core.pc as usize];
        core.admit(tag, class, res, chan, core.pc);
        core.pc += 1;
    }
}
