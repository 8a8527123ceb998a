//! Intra-core register dataflow: definite assignment (def-before-use),
//! liveness (dead writes), and a conservative interval analysis over the
//! scalar registers that flags statically-provable out-of-bounds memory
//! operands, by the extents the machine checks ([`Instruction::for_each_extent`]).
//!
//! All three passes are classic worklist fixpoints over the reachable
//! part of the [`Cfg`]. Soundness direction: the interval of a register
//! over-approximates the values it can hold at runtime (the entry state
//! is `[0, 0]` everywhere — the machine powers on with a zeroed register
//! file), so an access is reported as out of bounds only when *every*
//! value in the interval faults. Single-valued operands fold through the
//! ISA's own scalar semantics ([`SBinOp::apply`], [`SImmOp::apply`]);
//! otherwise the interval arithmetic widens to the full `i32` range
//! whenever a result could wrap.

use pimsim_isa::{GroupConfig, Instruction, ProgramLimits, Reg, SBinOp, SImmOp};

use crate::cfg::Cfg;
use crate::diag::{DiagKind, Diagnostic};

// ---------------------------------------------------------------- intervals

/// An inclusive value interval `[lo, hi]` in `i64` (always within `i32`
/// range; `i64` keeps the arithmetic overflow-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

const TOP: Interval = Interval {
    lo: i32::MIN as i64,
    hi: i32::MAX as i64,
};

impl Interval {
    fn exact(v: i32) -> Interval {
        Interval {
            lo: v as i64,
            hi: v as i64,
        }
    }

    fn single(self) -> Option<i32> {
        (self.lo == self.hi).then_some(self.lo as i32)
    }

    /// Union hull of two intervals.
    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps to `i32` range, widening to [`TOP`] when the bounds could
    /// only have been produced by a wrap.
    fn fit(lo: i64, hi: i64) -> Interval {
        if lo < i32::MIN as i64 || hi > i32::MAX as i64 {
            TOP
        } else {
            Interval { lo, hi }
        }
    }
}

type Regs = [Interval; 32];

/// Evaluates one scalar instruction over the interval state: exactly
/// [`Instruction::exec_scalar`] on single values, a sound hull otherwise.
fn eval(regs: &mut Regs, instr: &Instruction) {
    let get = |regs: &Regs, r: Reg| regs[r.index() as usize];
    let set = |regs: &mut Regs, r: Reg, v: Interval| {
        if !r.is_zero() {
            regs[r.index() as usize] = v;
        }
    };
    match instr {
        Instruction::SBin { op, rd, rs1, rs2 } => {
            let a = get(regs, *rs1);
            let b = get(regs, *rs2);
            let v = match (a.single(), b.single()) {
                // Both single-valued: fold exactly with machine semantics.
                (Some(x), Some(y)) => Interval::exact(op.apply(x, y)),
                _ => match op {
                    SBinOp::Add => Interval::fit(a.lo + b.lo, a.hi + b.hi),
                    SBinOp::Sub => Interval::fit(a.lo - b.hi, a.hi - b.lo),
                    SBinOp::Mul => {
                        let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                        Interval::fit(
                            c.iter().copied().min().expect("nonempty"),
                            c.iter().copied().max().expect("nonempty"),
                        )
                    }
                    SBinOp::Slt => Interval { lo: 0, hi: 1 },
                    SBinOp::And | SBinOp::Or | SBinOp::Xor | SBinOp::Sll | SBinOp::Srl => TOP,
                },
            };
            set(regs, *rd, v);
        }
        Instruction::SImm { op, rd, rs1, imm } => {
            let a = get(regs, *rs1);
            let v = match a.single() {
                Some(x) => Interval::exact(op.apply(x, *imm)),
                None => match op {
                    SImmOp::Add => Interval::fit(a.lo + *imm as i64, a.hi + *imm as i64),
                    SImmOp::Mul => {
                        let c = [a.lo * *imm as i64, a.hi * *imm as i64];
                        Interval::fit(c[0].min(c[1]), c[0].max(c[1]))
                    }
                    SImmOp::Slt => Interval { lo: 0, hi: 1 },
                    SImmOp::Sll | SImmOp::Srl | SImmOp::And | SImmOp::Or => TOP,
                },
            };
            set(regs, *rd, v);
        }
        // Memory-class and control instructions never write registers.
        _ => {}
    }
}

// ------------------------------------------------------------ the passes

/// Runs every dataflow pass over one core and appends its diagnostics;
/// the out-of-bounds check runs against `limits`' memory capacities, with
/// each `MVM`'s output length from the core's `groups`.
pub fn check_core(
    core: u16,
    instrs: &[Instruction],
    groups: &[GroupConfig],
    cfg: &Cfg,
    limits: &ProgramLimits,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.blocks.is_empty() {
        return;
    }
    let preds = predecessors(cfg);
    def_before_use(core, instrs, cfg, &preds, out);
    dead_writes(core, instrs, cfg, out);
    out_of_bounds(core, instrs, groups, cfg, &preds, limits, out);
}

/// Predecessor lists, restricted to reachable blocks.
fn predecessors(cfg: &Cfg) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); cfg.blocks.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        for &s in &blk.succs {
            preds[s].push(b);
        }
    }
    preds
}

/// Round-robin iteration to a fixpoint: each sweep visits the reachable
/// blocks in `order` and sets block `b`'s state to `step(b, states,
/// sweep)` (sweeps count from 1); a sweep that changes no state ends it.
fn fixpoint<S: PartialEq>(
    cfg: &Cfg,
    order: impl Iterator<Item = usize> + Clone,
    states: &mut [S],
    mut step: impl FnMut(usize, &[S], usize) -> S,
) {
    for sweep in 1.. {
        let mut changed = false;
        for b in order.clone().filter(|&b| cfg.reachable[b]) {
            let state = step(b, states, sweep);
            if state != states[b] {
                states[b] = state;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Runs a pass's per-instruction `effect` over `pcs` from `state`, and
/// returns the state after the last one. `visit` sees each instruction
/// with the state just before its effect: a block transfer ignores it,
/// a report walk checks it.
fn walk<S>(
    instrs: &[Instruction],
    pcs: impl Iterator<Item = u32>,
    mut state: S,
    effect: impl Fn(&mut S, &Instruction),
    mut visit: impl FnMut(u32, &Instruction, &S),
) -> S {
    for pc in pcs {
        let instr = &instrs[pc as usize];
        visit(pc, instr, &state);
        effect(&mut state, instr);
    }
    state
}

/// The register `instr` writes, as a one-bit set (empty if none).
fn def_bit(instr: &Instruction) -> u32 {
    instr.def_reg().map_or(0, |rd| 1 << rd.index())
}

/// Forward definite-assignment: warn when a register can be read before
/// any instruction writes it (it reads as `0`, the power-on value).
fn def_before_use(
    core: u16,
    instrs: &[Instruction],
    cfg: &Cfg,
    preds: &[Vec<usize>],
    out: &mut Vec<Diagnostic>,
) {
    // Bit r set = register r definitely assigned. r0 is always
    // "assigned": every state holds bit 0, so it is never reported.
    let assign = |mask: &mut u32, instr: &Instruction| *mask |= def_bit(instr);
    let nb = cfg.blocks.len();
    let mut inb = vec![u32::MAX; nb];
    inb[0] = 1;
    fixpoint(cfg, 0..nb, &mut inb, |b, inb, _| {
        if b == 0 {
            // The entry meets with the power-on state: nothing but r0
            // is definitely assigned at pc 0 on the first entry, and
            // intersection with any loop-back edge can't add to that.
            return inb[0];
        }
        // Meet (intersection) over predecessors' OUT sets.
        preds[b].iter().fold(u32::MAX, |acc, &p| {
            let blk = &cfg.blocks[p];
            acc & walk(instrs, blk.start..blk.end, inb[p], assign, |_, _, _| {})
        })
    });
    let mut report = |pc, instr: &Instruction, mask: &u32| {
        // Only the set bits, lowest register first (`Reg::all()` order).
        let mut unassigned = instr.uses_regs() & !mask;
        while unassigned != 0 {
            let index = unassigned.trailing_zeros() as u8;
            unassigned &= unassigned - 1;
            let Ok(r) = Reg::new(index) else { break };
            let message = format!("{r} may be read before any write (reads as 0)");
            out.push(Diagnostic::at(
                DiagKind::DefBeforeUse,
                core,
                pc,
                instr,
                message,
            ));
        }
    };
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if cfg.reachable[b] {
            walk(instrs, blk.start..blk.end, inb[b], assign, &mut report);
        }
    }
}

/// Backward liveness: warn about register writes no path can observe,
/// including writes to the hardwired-zero register.
fn dead_writes(core: u16, instrs: &[Instruction], cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    // Bit r set = register r live (read before next write on some path).
    let unkill = |live: &mut u32, instr: &Instruction| {
        *live = *live & !def_bit(instr) | instr.uses_regs();
    };
    let live_out = |b: usize, live_in: &[u32]| {
        let succs = cfg.blocks[b].succs.iter();
        succs.fold(0u32, |acc, &s| acc | live_in[s])
    };
    let nb = cfg.blocks.len();
    let mut live_in = vec![0u32; nb];
    fixpoint(cfg, (0..nb).rev(), &mut live_in, |b, live_in, _| {
        let blk = &cfg.blocks[b];
        let pcs = (blk.start..blk.end).rev();
        walk(instrs, pcs, live_out(b, live_in), unkill, |_, _, _| {})
    });
    // Walk backward so the visited state is the live-after set at each
    // pc. Report order doesn't matter: the caller sorts all diagnostics.
    let mut report = |pc, instr: &Instruction, live: &u32| {
        let message = match instr.def_reg() {
            Some(rd) if rd.is_zero() => "write to r0 is discarded (hardwired zero)".into(),
            Some(rd) if live >> rd.index() & 1 == 0 => {
                format!("value written to {rd} is never read")
            }
            _ => return,
        };
        out.push(Diagnostic::at(
            DiagKind::DeadWrite,
            core,
            pc,
            instr,
            message,
        ));
    };
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if cfg.reachable[b] {
            let pcs = (blk.start..blk.end).rev();
            walk(instrs, pcs, live_out(b, &live_in), unkill, &mut report);
        }
    }
}

/// Forward interval analysis + provable out-of-bounds memory operands.
fn out_of_bounds(
    core: u16,
    instrs: &[Instruction],
    groups: &[GroupConfig],
    cfg: &Cfg,
    preds: &[Vec<usize>],
    limits: &ProgramLimits,
    out: &mut Vec<Diagnostic>,
) {
    let entry: Regs = [Interval::exact(0); 32];
    let hull = |a: Regs, b: Regs| -> Regs { std::array::from_fn(|r| a[r].join(b[r])) };
    let nb = cfg.blocks.len();
    let mut inb: Vec<Option<Regs>> = vec![None; nb]; // None = not yet seen
    inb[0] = Some(entry);
    // Widening after a few sweeps: interval joins only ever grow, and
    // widening snaps growing bounds to TOP, so this terminates quickly.
    fixpoint(cfg, 0..nb, &mut inb, |b, inb, sweep| {
        let mut joined = (b == 0).then_some(entry);
        for &p in &preds[b] {
            let Some(pi) = inb[p] else { continue };
            let blk = &cfg.blocks[p];
            let po = walk(instrs, blk.start..blk.end, pi, eval, |_, _, _| {});
            joined = Some(joined.map_or(po, |j| hull(j, po)));
        }
        let (Some(mut j), Some(old)) = (joined, inb[b]) else {
            return joined.or(inb[b]);
        };
        if sweep > 3 {
            // Widen: any bound still moving goes straight to TOP.
            for r in 0..32 {
                if j[r] != old[r] {
                    j[r] = TOP;
                }
            }
        }
        Some(hull(j, old))
    });
    // Report pass: evaluate each reachable block from its converged entry
    // state and check memory operands.
    let mut report = |pc, instr: &Instruction, regs: &Regs| {
        check_operands(core, pc, instr, groups, regs, limits, out);
    };
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if let Some(regs) = inb[b].filter(|_| cfg.reachable[b]) {
            walk(instrs, blk.start..blk.end, regs, eval, &mut report);
        }
    }
}

/// Checks every memory operand of `instr`: its extent, over its base
/// register's interval, against the capacity of its space.
fn check_operands(
    core: u16,
    pc: u32,
    instr: &Instruction,
    groups: &[GroupConfig],
    regs: &Regs,
    limits: &ProgramLimits,
    out: &mut Vec<Diagnostic>,
) {
    instr.for_each_extent(groups, |e| {
        let capacity = limits.capacity(e.space).min(i64::MAX as u64) as i64;
        let (what, base) = (e.space.name(), eff(e.base, regs));
        check_span(core, pc, instr, what, base, e.lo, e.hi, capacity, out);
    });
}

/// The effective-address interval of a memory operand: base register
/// interval plus the static offset (the machine computes `reg + offset`
/// in `i64`).
fn eff(addr: pimsim_isa::Addr, regs: &Regs) -> Interval {
    let base = regs[addr.base().index() as usize];
    Interval {
        lo: base.lo + addr.offset() as i64,
        hi: base.hi + addr.offset() as i64,
    }
}

/// Checks one access with relative span `[rel_lo, rel_hi)` around an
/// effective base interval against a memory of `capacity` elements.
/// Reports only when the access faults (starts below 0 or ends past
/// `capacity`) for *every* value in the interval: below 0 even from the
/// highest base, or past the end even from the lowest base that starts in
/// memory.
#[allow(clippy::too_many_arguments)]
#[inline]
fn check_span(
    core: u16,
    pc: u32,
    instr: &Instruction,
    what: &str,
    base: Interval,
    rel_lo: i64,
    rel_hi: i64,
    capacity: i64,
    out: &mut Vec<Diagnostic>,
) {
    if rel_hi > rel_lo && (base.hi + rel_lo < 0 || base.lo.max(-rel_lo) + rel_hi > capacity) {
        let span = (rel_lo, rel_hi);
        out.push(out_of_bounds_at(
            core, pc, instr, what, base, span, capacity,
        ));
    }
}

/// The diagnostic of an access [`check_span`] found out of bounds.
#[cold]
fn out_of_bounds_at(
    core: u16,
    pc: u32,
    instr: &Instruction,
    what: &str,
    base: Interval,
    (rel_lo, rel_hi): (i64, i64),
    capacity: i64,
) -> Diagnostic {
    let lowest = base.hi + rel_lo;
    let message = if lowest < 0 {
        format!("{what} address is provably negative (lowest element at {lowest})")
    } else {
        let lo = base.lo.max(-rel_lo);
        let (start, end) = (lo + rel_lo, lo + rel_hi);
        format!(
            "{what} access [{start}, {end}) provably exceeds {what} memory of {capacity} elements"
        )
    };
    Diagnostic::at(DiagKind::OutOfBounds, core, pc, instr, message)
}

/// The out-of-bounds pass before it read the extents, kept as the
/// reference: per-instruction spans for `recv`/`recv2d` destinations and
/// `gload`/`gstore` local and global operands only.
#[cfg(test)]
fn check_instr_bounds(
    core: u16,
    pc: u32,
    instr: &Instruction,
    regs: &Regs,
    limits: &ProgramLimits,
    out: &mut Vec<Diagnostic>,
) {
    let local = limits.local_mem_elems as i64;
    let global = limits.global_mem_elems.min(i64::MAX as u64) as i64;
    match instr {
        Instruction::Recv { dst, len, .. } => {
            check_span(
                core,
                pc,
                instr,
                "local",
                eff(*dst, regs),
                0,
                *len as i64,
                local,
                out,
            );
        }
        Instruction::Recv2d {
            dst,
            block_len,
            blocks,
            dst_stride,
            ..
        } => {
            if *blocks == 0 || *block_len == 0 {
                return;
            }
            let reach = (*blocks as i64 - 1) * *dst_stride as i64;
            let rel_lo = reach.min(0);
            let rel_hi = reach.max(0) + *block_len as i64;
            check_span(
                core,
                pc,
                instr,
                "local",
                eff(*dst, regs),
                rel_lo,
                rel_hi,
                local,
                out,
            );
        }
        Instruction::GLoad { dst, gaddr, len } => {
            check_span(
                core,
                pc,
                instr,
                "local",
                eff(*dst, regs),
                0,
                *len as i64,
                local,
                out,
            );
            check_span(
                core,
                pc,
                instr,
                "global",
                eff(*gaddr, regs),
                0,
                *len as i64,
                global,
                out,
            );
        }
        Instruction::GStore { gaddr, src, len } => {
            check_span(
                core,
                pc,
                instr,
                "local",
                eff(*src, regs),
                0,
                *len as i64,
                local,
                out,
            );
            check_span(
                core,
                pc,
                instr,
                "global",
                eff(*gaddr, regs),
                0,
                *len as i64,
                global,
                out,
            );
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::{Addr, CoreId, Reg};
    use proptest::prelude::*;

    const LIMITS: ProgramLimits = ProgramLimits {
        cores: 1,
        xbars_per_core: 1,
        local_mem_elems: 1024,
        global_mem_elems: 1 << 20,
    };

    fn addr(base: Reg, off: i32) -> Addr {
        Addr::new(base, off).unwrap()
    }

    fn li(rd: Reg, v: i32) -> Instruction {
        Instruction::SImm {
            op: SImmOp::Add,
            rd,
            rs1: Reg::R0,
            imm: v,
        }
    }

    fn run(instrs: &[Instruction]) -> Vec<Diagnostic> {
        let cfg = Cfg::build(instrs);
        let mut out = Vec::new();
        check_core(0, instrs, &[], &cfg, &LIMITS, &mut out);
        out
    }

    /// `(kind, pc)` pairs sorted by pc — `check_core` leaves the global
    /// sort to the caller.
    fn kinds(diags: &[Diagnostic]) -> Vec<(DiagKind, u32)> {
        let mut v: Vec<(DiagKind, u32)> = diags.iter().map(|d| (d.kind, d.pc.unwrap())).collect();
        v.sort_by_key(|&(_, pc)| pc);
        v
    }

    #[test]
    fn clean_program_is_clean() {
        let instrs = vec![
            li(Reg::R1, 64),
            Instruction::Recv {
                peer: CoreId(1),
                dst: addr(Reg::R1, 0),
                len: 32,
                tag: 1,
            },
            Instruction::Send {
                peer: CoreId(1),
                src: addr(Reg::R1, 0),
                len: 32,
                tag: 2,
            },
            Instruction::Halt,
        ];
        assert_eq!(run(&instrs), vec![]);
    }

    #[test]
    fn def_before_use_flagged_once_per_site() {
        // r5 is never written; the recv base reads as 0.
        let instrs = vec![
            Instruction::Recv {
                peer: CoreId(1),
                dst: addr(Reg::R5, 0),
                len: 8,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert_eq!(kinds(&diags), vec![(DiagKind::DefBeforeUse, 0)]);
        assert!(diags[0].message.contains("r5"), "{}", diags[0].message);
    }

    #[test]
    fn def_before_use_reports_registers_in_index_order() {
        let instrs = vec![
            Instruction::SBin {
                op: SBinOp::Add,
                rd: Reg::R1,
                rs1: Reg::R8,
                rs2: Reg::R3,
            },
            Instruction::SBin {
                op: SBinOp::Add,
                rd: Reg::R2,
                rs1: Reg::R1,
                rs2: Reg::R1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        let messages: Vec<&str> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::DefBeforeUse)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            messages,
            [
                "r3 may be read before any write (reads as 0)",
                "r8 may be read before any write (reads as 0)",
            ]
        );
    }

    #[test]
    fn def_on_every_path_suppresses_warning() {
        // 0: beq->2 ; 1: li r1 ; 2: li r1 ... both paths write r1? No —
        // path 0->2 skips pc 1. Write on one path only: still a warning.
        let instrs = vec![
            Instruction::Branch {
                cond: pimsim_isa::BranchCond::Eq,
                rs1: Reg::R0,
                rs2: Reg::R0,
                target: 2,
            },
            li(Reg::R1, 4),
            Instruction::Send {
                peer: CoreId(1),
                src: addr(Reg::R1, 0),
                len: 4,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagKind::DefBeforeUse && d.pc == Some(2)),
            "{diags:?}"
        );
        // Writing before the branch on the shared prefix clears it.
        let instrs2 = vec![
            li(Reg::R1, 4),
            Instruction::Branch {
                cond: pimsim_isa::BranchCond::Eq,
                rs1: Reg::R0,
                rs2: Reg::R0,
                target: 3,
            },
            Instruction::Nop,
            Instruction::Send {
                peer: CoreId(1),
                src: addr(Reg::R1, 0),
                len: 4,
                tag: 1,
            },
            Instruction::Halt,
        ];
        assert!(
            run(&instrs2)
                .iter()
                .all(|d| d.kind != DiagKind::DefBeforeUse),
            "{:?}",
            run(&instrs2)
        );
    }

    #[test]
    fn dead_write_flagged() {
        let instrs = vec![li(Reg::R1, 4), li(Reg::R1, 8), Instruction::Halt];
        let diags = run(&instrs);
        // pc 0's value is overwritten unread; pc 1's is never read.
        assert_eq!(
            kinds(&diags),
            vec![(DiagKind::DeadWrite, 0), (DiagKind::DeadWrite, 1)]
        );
    }

    #[test]
    fn write_to_r0_is_dead() {
        let instrs = vec![li(Reg::R0, 4), Instruction::Halt];
        let diags = run(&instrs);
        assert_eq!(kinds(&diags), vec![(DiagKind::DeadWrite, 0)]);
        assert!(
            diags[0].message.contains("hardwired"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn live_through_loop_is_not_dead() {
        // r1 counts down a loop: written at 0, read+written at 1, read by
        // the branch at 2.
        let instrs = vec![
            li(Reg::R1, 4),
            Instruction::SImm {
                op: SImmOp::Add,
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: -1,
            },
            Instruction::Branch {
                cond: pimsim_isa::BranchCond::Ne,
                rs1: Reg::R1,
                rs2: Reg::R0,
                target: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert!(
            diags.iter().all(|d| d.kind != DiagKind::DeadWrite),
            "{diags:?}"
        );
    }

    #[test]
    fn provable_oob_recv_flagged() {
        let instrs = vec![
            li(Reg::R1, 1020),
            Instruction::Recv {
                peer: CoreId(1),
                dst: addr(Reg::R1, 0),
                len: 8,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert_eq!(kinds(&diags), vec![(DiagKind::OutOfBounds, 1)]);
        assert!(
            diags[0].message.contains("[1020, 1028)"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn unknown_base_is_not_flagged() {
        // r1's value depends on a branch: [0, 1020] hull — some values in
        // bounds, so nothing is provable.
        let instrs = vec![
            Instruction::Branch {
                cond: pimsim_isa::BranchCond::Eq,
                rs1: Reg::R0,
                rs2: Reg::R0,
                target: 2,
            },
            li(Reg::R1, 1020),
            Instruction::Recv {
                peer: CoreId(1),
                dst: addr(Reg::R1, 0),
                len: 8,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert!(
            diags.iter().all(|d| d.kind != DiagKind::OutOfBounds),
            "{diags:?}"
        );
    }

    #[test]
    fn negative_address_flagged() {
        let instrs = vec![
            li(Reg::R1, -100),
            Instruction::GLoad {
                dst: addr(Reg::R1, 0),
                gaddr: addr(Reg::R0, 0),
                len: 4,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert_eq!(kinds(&diags), vec![(DiagKind::OutOfBounds, 1)]);
        assert!(
            diags[0].message.contains("negative"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn strided_recv2d_span_checked() {
        // 2 blocks of 4, stride 1020: reaches [0, 1024) from base 0 — ok;
        // from base 8 the last block ends at 1032 — provably out.
        let ok = vec![
            Instruction::Recv2d {
                peer: CoreId(1),
                dst: addr(Reg::R0, 0),
                block_len: 4,
                blocks: 2,
                dst_stride: 1020,
                tag: 1,
            },
            Instruction::Halt,
        ];
        assert!(run(&ok).iter().all(|d| d.kind != DiagKind::OutOfBounds));
        let bad = vec![
            Instruction::Recv2d {
                peer: CoreId(1),
                dst: addr(Reg::R0, 8),
                block_len: 4,
                blocks: 2,
                dst_stride: 1020,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&bad);
        assert_eq!(kinds(&diags), vec![(DiagKind::OutOfBounds, 0)]);
    }

    #[test]
    fn gstore_global_bounds_checked() {
        let instrs = vec![
            li(Reg::R1, 1 << 20),
            Instruction::GStore {
                gaddr: addr(Reg::R1, 0),
                src: addr(Reg::R0, 0),
                len: 4,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert_eq!(kinds(&diags), vec![(DiagKind::OutOfBounds, 1)]);
        assert!(diags[0].message.contains("global"), "{}", diags[0].message);
    }

    #[test]
    fn wrapping_add_widens_not_misjudges() {
        // r1 = i32::MAX, r1 = r1 + 1 wraps to MIN at runtime; the exact
        // fold is the runtime's own `SImmOp::apply`, so the access is
        // provably negative.
        let instrs = vec![
            li(Reg::R1, i32::MAX),
            Instruction::SImm {
                op: SImmOp::Add,
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: 1,
            },
            Instruction::Recv {
                peer: CoreId(1),
                dst: addr(Reg::R1, 0),
                len: 4,
                tag: 1,
            },
            Instruction::Halt,
        ];
        let diags = run(&instrs);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagKind::OutOfBounds && d.message.contains("negative")),
            "{diags:?}"
        );
    }

    #[test]
    fn every_memory_operand_is_checked() {
        // Operands the transfer-only pass never looked at: a vector
        // destination below 0, a send source and an MVM output past the
        // end (the output length comes from the group table).
        let groups = [pimsim_isa::GroupConfig::new(0.into(), 8, 64, vec![0])];
        let instrs = vec![
            Instruction::VFill {
                dst: addr(Reg::R0, -4),
                value: 7,
                len: 4,
            },
            Instruction::Send {
                peer: CoreId(1),
                src: addr(Reg::R0, 1020),
                len: 8,
                tag: 1,
            },
            Instruction::Mvm {
                group: 0.into(),
                dst: addr(Reg::R0, 1000),
                src: addr(Reg::R0, 0),
                len: 8,
            },
            Instruction::Halt,
        ];
        let cfg = Cfg::build(&instrs);
        let mut diags = Vec::new();
        check_core(0, &instrs, &groups, &cfg, &LIMITS, &mut diags);
        assert_eq!(
            kinds(&diags),
            vec![
                (DiagKind::OutOfBounds, 0),
                (DiagKind::OutOfBounds, 1),
                (DiagKind::OutOfBounds, 2)
            ]
        );
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "local address is provably negative (lowest element at -4)",
                "local access [1020, 1028) provably exceeds local memory of 1024 elements",
                "local access [1000, 1064) provably exceeds local memory of 1024 elements",
            ]
        );
    }

    /// A transfer of one of the four kinds the old pass covered, on base
    /// registers `r0`-`r3`, around the test memories' edges.
    fn transfer_strategy() -> impl Strategy<Value = Instruction> {
        let base = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];
        let a = move || (0usize..4, -1_200i32..1_200).prop_map(move |(r, o)| addr(base[r], o));
        let len = || 0u32..40;
        prop_oneof![
            (a(), len()).prop_map(|(dst, len)| Instruction::Recv {
                peer: CoreId(1),
                dst,
                len,
                tag: 0
            }),
            (a(), 0u32..20, 0u32..6, -300i32..300).prop_map(
                |(dst, block_len, blocks, dst_stride)| Instruction::Recv2d {
                    peer: CoreId(1),
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                    tag: 0,
                }
            ),
            (a(), a(), len()).prop_map(|(dst, gaddr, len)| Instruction::GLoad { dst, gaddr, len }),
            (a(), a(), len()).prop_map(|(gaddr, src, len)| Instruction::GStore { gaddr, src, len }),
        ]
    }

    /// Intervals for `r1`-`r3` (`r0` is 0) reaching below 0 and past both
    /// memories' ends: some exact, some wide.
    fn intervals_strategy() -> impl Strategy<Value = Regs> {
        let one = || {
            (-1_500i64..(1 << 20) + 1_500, 0i64..3_000, any::<bool>()).prop_map(
                |(lo, width, exact)| Interval {
                    lo,
                    hi: if exact { lo } else { lo + width },
                },
            )
        };
        (one(), one(), one()).prop_map(|(a, b, c)| {
            let mut regs = [Interval::exact(0); 32];
            regs[1..4].copy_from_slice(&[a, b, c]);
            regs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 2_000,
            ..ProptestConfig::default()
        })]

        #[test]
        fn extent_pass_reports_what_the_transfer_pass_did(
            instr in transfer_strategy(),
            regs in intervals_strategy(),
        ) {
            let (mut new, mut old) = (Vec::new(), Vec::new());
            check_operands(3, 7, &instr, &[], &regs, &LIMITS, &mut new);
            check_instr_bounds(3, 7, &instr, &regs, &LIMITS, &mut old);
            new.sort_by_key(|d| d.sort_key());
            old.sort_by_key(|d| d.sort_key());
            prop_assert_eq!(new, old, "{}", instr);
        }
    }
}
