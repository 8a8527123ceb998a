//! The assembly text of every zoo program: `disassemble`, its streaming
//! form `write_disassembly` and `Display` print what the `write!`
//! formatter printed, and re-assembly keeps what the text form carries and
//! drops exactly what it does not.

use std::error::Error;

use pimsim::isa::asm;
use pimsim::isa::{Instruction, Program, ProgramMeta};
use pimsim::nn::zoo;
use pimsim::prelude::*;
use pimsim::sweep::default_resolution;

#[path = "../crates/isa/tests/support/disasm_oracle.rs"]
mod disasm_oracle;

const POLICIES: [MappingPolicy; 2] = [
    MappingPolicy::UtilizationFirst,
    MappingPolicy::PerformanceFirst,
];

fn compile(
    name: &str,
    policy: MappingPolicy,
    batch: u32,
    functional: bool,
) -> Result<Program, Box<dyn Error>> {
    let net = zoo::by_name(name, default_resolution(name)).ok_or("a zoo network")?;
    let compiled = Compiler::new(&ArchConfig::paper_default())
        .mapping(policy)
        .batch(batch)
        .functional(functional)
        .compile(&net)?;
    Ok(compiled.program)
}

fn assert_prints_as_the_oracle(what: &str, program: &Program) -> Result<(), String> {
    for core in &program.cores {
        for instr in &core.instrs {
            assert_eq!(instr.to_string(), disasm_oracle::display(instr), "{what}");
        }
    }
    let text = asm::disassemble(program);
    assert!(
        text == disasm_oracle::disassemble(program),
        "{what}: disassembly differs from the write! oracle"
    );
    let mut streamed = Vec::new();
    asm::write_disassembly(program, &mut streamed).map_err(|e| e.to_string())?;
    assert!(streamed == text.as_bytes(), "{what}: streamed bytes differ");
    Ok(())
}

#[test]
fn every_zoo_program_disassembles_as_the_write_oracle() -> Result<(), Box<dyn Error>> {
    for name in zoo::NAMES {
        for policy in POLICIES {
            let timing = compile(name, policy, 1, false)?;
            assert_prints_as_the_oracle(&format!("{name}/{policy}"), &timing)?;
            // Batch 2, functional: `.init` preloads and weight notes.
            let functional = compile(name, policy, 2, true)?;
            assert!(functional.cores.iter().any(|c| !c.local_init.is_empty()));
            assert_prints_as_the_oracle(&format!("{name}/{policy} functional"), &functional)?;
        }
    }
    Ok(())
}

/// `program` without what its text form does not carry: `meta` reads as
/// `assemble` names it, no instruction tags, no global init segments, no
/// group weights, and no idle cores past the last one the text names.
fn text_form(program: &Program) -> Program {
    let mut kept = program.clone();
    kept.meta = ProgramMeta {
        name: "assembled".into(),
        mapping: String::new(),
        notes: String::new(),
    };
    kept.global_init.clear();
    for core in &mut kept.cores {
        core.instr_tags.clear();
        for group in &mut core.groups {
            group.weights = None;
        }
    }
    while kept
        .cores
        .last()
        .is_some_and(|c| c.instrs.is_empty() && c.groups.is_empty() && c.local_init.is_empty())
    {
        kept.cores.pop();
    }
    kept
}

#[test]
fn reassembly_keeps_the_text_form_and_drops_exactly_the_rest() -> Result<(), Box<dyn Error>> {
    for name in zoo::NAMES {
        for policy in POLICIES {
            let program = compile(name, policy, 1, true)?;
            let what = format!("{name}/{policy} functional");
            let again = asm::assemble(&asm::disassemble(&program))?;
            // Kept: instructions, groups without weights, preloads, labels.
            assert!(again == text_form(&program), "{what}: re-assembly");
            // Dropped: each of the four is there to drop.
            assert!(!program.global_init.is_empty(), "{what}: global init");
            assert!(program.meta.name == *name, "{what}: meta");
            let tags = |p: &Program| p.cores.iter().map(|c| c.instr_tags.len()).sum::<usize>();
            let weights = |p: &Program| {
                let groups = p.cores.iter().flat_map(|c| &c.groups);
                groups.filter(|g| g.weights.is_some()).count()
            };
            assert!(tags(&program) > 0 && weights(&program) > 0, "{what}");
            assert_eq!((tags(&again), weights(&again)), (0, 0), "{what}");
        }
    }
    Ok(())
}

#[test]
fn a_listed_instruction_prints_as_its_line() -> Result<(), Box<dyn Error>> {
    let program = compile("tiny_cnn", MappingPolicy::PerformanceFirst, 1, false)?;
    let text = asm::disassemble(&program);
    let instrs: Vec<&Instruction> = program.cores.iter().flat_map(|c| &c.instrs).collect();
    let lines: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .collect();
    assert_eq!(lines.len(), instrs.len());
    for (line, instr) in lines.iter().zip(instrs) {
        assert_eq!(*line, instr.to_string());
    }
    Ok(())
}
