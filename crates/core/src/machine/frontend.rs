//! The per-core frontend: fetch/decode/dispatch pacing and at-dispatch
//! scalar execution.
//!
//! Instructions dispatch in order, at most one per
//! [`TimingModel::dispatch_interval`](super::TimingModel::dispatch_interval).
//! Scalar instructions (ALU, branches, jumps) execute right here — loops
//! and address arithmetic never enter the ROB. Memory-class instructions
//! get their operands resolved against the register file and are handed
//! to the ROB, after which the issue logic in [`super::units`] takes over.

use pimsim_isa::{BranchCond, InstrClass, Instruction, SBinOp, SImmOp};

use super::{Ctx, Machine, MachineEvent};
use crate::resolve::{resolve, Resolved};

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
                    if self.telemetry.trace_live() {
                        self.telemetry
                            .record_trace(dispatch_at, c as u16, instr.to_string());
                    }
                    self.exec_scalar(c, &instr);
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
        let text = self.telemetry.trace_live().then(|| instr.to_string());
        let core = &mut self.cores[c];
        let chan = core.chans[core.pc as usize];
        core.admit(tag, class, res, chan, text);
        core.pc += 1;
    }

    /// Executes a scalar instruction against the register file, updating
    /// the program counter (branches and jumps set it directly).
    pub(crate) fn exec_scalar(&mut self, c: usize, instr: &Instruction) {
        let core = &mut self.cores[c];
        let rd_write = |regs: &mut [i32; 32], rd: pimsim_isa::Reg, v: i32| {
            if !rd.is_zero() {
                regs[rd.index() as usize] = v;
            }
        };
        match instr {
            Instruction::SBin { op, rd, rs1, rs2 } => {
                let a = core.regs[rs1.index() as usize];
                let b = core.regs[rs2.index() as usize];
                let v = match op {
                    SBinOp::Add => a.wrapping_add(b),
                    SBinOp::Sub => a.wrapping_sub(b),
                    SBinOp::Mul => a.wrapping_mul(b),
                    SBinOp::And => a & b,
                    SBinOp::Or => a | b,
                    SBinOp::Xor => a ^ b,
                    SBinOp::Slt => (a < b) as i32,
                    SBinOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
                    SBinOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
                };
                rd_write(&mut core.regs, *rd, v);
                core.pc += 1;
            }
            Instruction::SImm { op, rd, rs1, imm } => {
                let a = core.regs[rs1.index() as usize];
                let v = match op {
                    SImmOp::Add => a.wrapping_add(*imm),
                    SImmOp::Mul => a.wrapping_mul(*imm),
                    SImmOp::Sll => ((a as u32) << (*imm as u32 & 31)) as i32,
                    SImmOp::Srl => ((a as u32) >> (*imm as u32 & 31)) as i32,
                    SImmOp::And => a & *imm,
                    SImmOp::Or => a | *imm,
                    SImmOp::Slt => (a < *imm) as i32,
                };
                rd_write(&mut core.regs, *rd, v);
                core.pc += 1;
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = core.regs[rs1.index() as usize];
                let b = core.regs[rs2.index() as usize];
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => a < b,
                    BranchCond::Ge => a >= b,
                };
                core.pc = if taken { *target } else { core.pc + 1 };
            }
            Instruction::Jump { target } => core.pc = *target,
            Instruction::Halt => core.halted = true,
            Instruction::Nop => core.pc += 1,
            _ => unreachable!("memory-class instruction in exec_scalar"),
        }
    }
}
