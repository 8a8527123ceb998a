//! The disassembler as it stood before its digit-writing writer: one
//! `write!` per instruction through the operands' `Display` impls, and a
//! `String` per `.group`/`.init` value. Shared by the differential tests
//! of `src/asm.rs`, which include this file by path, and the workspace's
//! `tests/asm_text.rs`; `crate::` names the ISA types in both.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Instruction, Program};

/// What `Instruction`'s `Display` printed.
pub fn display(instr: &Instruction) -> String {
    let mut out = String::new();
    let _ = instruction(&mut out, instr);
    out
}

fn instruction(out: &mut String, instr: &Instruction) -> std::fmt::Result {
    use Instruction::*;
    match instr {
        Mvm {
            group,
            dst,
            src,
            len,
        } => write!(out, "mvm {group}, {dst}, {src}, {len}"),
        VBin {
            op,
            dst,
            a,
            b,
            len,
        } => write!(out, "{} {dst}, {a}, {b}, {len}", op.mnemonic()),
        VImm {
            op,
            dst,
            src,
            imm,
            len,
        } => write!(out, "{} {dst}, {src}, {imm}, {len}", op.mnemonic()),
        VUn { op, dst, src, len } => write!(out, "{} {dst}, {src}, {len}", op.mnemonic()),
        VFill { dst, value, len } => write!(out, "vfill {dst}, {value}, {len}"),
        VCopy2d {
            dst,
            src,
            block_len,
            blocks,
            src_stride,
            dst_stride,
        } => write!(
            out,
            "vcopy2d {dst}, {src}, block={block_len}, blocks={blocks}, sstride={src_stride}, dstride={dst_stride}"
        ),
        VPool {
            op,
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride,
        } => write!(
            out,
            "{} {dst}, {src}, ch={channels}, win={win_w}x{win_h}, rstride={row_stride}",
            op.mnemonic()
        ),
        Send {
            peer,
            src,
            len,
            tag,
        } => write!(out, "send {peer}, {src}, {len}, tag={tag}"),
        Recv {
            peer,
            dst,
            len,
            tag,
        } => write!(out, "recv {peer}, {dst}, {len}, tag={tag}"),
        Recv2d {
            peer,
            dst,
            block_len,
            blocks,
            dst_stride,
            tag,
        } => write!(
            out,
            "recv2d {peer}, {dst}, block={block_len}, blocks={blocks}, dstride={dst_stride}, tag={tag}"
        ),
        GLoad { dst, gaddr, len } => write!(out, "gload {dst}, g{gaddr}, {len}"),
        GStore { gaddr, src, len } => write!(out, "gstore g{gaddr}, {src}, {len}"),
        SBin { op, rd, rs1, rs2 } => write!(out, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
        SImm { op, rd, rs1, imm } => write!(out, "{} {rd}, {rs1}, {imm}", op.mnemonic()),
        Branch {
            cond,
            rs1,
            rs2,
            target,
        } => write!(out, "{} {rs1}, {rs2}, {target}", cond.mnemonic()),
        Jump { target } => write!(out, "jmp {target}"),
        Halt => write!(out, "halt"),
        Nop => write!(out, "nop"),
    }
}

/// What `asm::disassemble` printed.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    if !program.meta.name.is_empty() {
        let _ = writeln!(out, "; program: {}", program.meta.name);
    }
    if !program.meta.mapping.is_empty() {
        let _ = writeln!(out, "; mapping: {}", program.meta.mapping);
    }
    for (cid, core) in program.cores.iter().enumerate() {
        if core.is_empty() && core.groups.is_empty() && core.local_init.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n.core {cid}");
        for g in &core.groups {
            let xbars: Vec<String> = g.xbar_ids.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(
                out,
                ".group {} in={} out={} xbars={}{}",
                g.id.0,
                g.input_len,
                g.output_len,
                xbars.join(","),
                if g.weights.is_some() {
                    " ; weights elided"
                } else {
                    ""
                }
            );
        }
        for (start, values) in &core.local_init {
            let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, ".init {start} {}", vals.join(","));
        }
        // Invert labels: pc -> names.
        let mut by_pc: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &pc) in &core.labels {
            by_pc.entry(pc).or_default().push(name);
        }
        for (pc, instr) in core.instrs.iter().enumerate() {
            if let Some(names) = by_pc.get(&(pc as u32)) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "    {}", display(instr));
        }
        if let Some(names) = by_pc.get(&(core.instrs.len() as u32)) {
            for n in names {
                let _ = writeln!(out, "{n}:");
            }
        }
    }
    out
}
