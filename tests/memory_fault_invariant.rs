//! The converse of "analyzer-clean ⇒ runs": the checker and the machine
//! read one operand-extent rule, so they agree on which accesses leave
//! memory.
//!
//! * `check` reporting `out-of-bounds` ⇒ `run` fails with `MemoryFault`,
//!   timing and functional alike;
//! * on programs whose cores are all linear (every register value known
//!   statically), `run` raising `MemoryFault` ⇒ `check` reports
//!   `out-of-bounds`.
//!
//! The programs are clean ones with one address operand mutated: the
//! random mixed and transfer programs the machine's and analyzer's
//! differentials generate, and compiled zoo networks. A clean program
//! dispatches every instruction, and nothing before the mutated one
//! changes, so a faulting mutant faults at that instruction.
//!
//! The same programs with one encoding field set one past its
//! `instr::limits` width hold the `invalid-program` half: `check` reports
//! `invalid-program` exactly when `run` fails with `InvalidProgram`,
//! timing and functional alike; one past the width, `check`, `run` and
//! the program file's reader all name the width, and at the largest value
//! in the width none does.

use std::collections::BTreeSet;

use pimsim::analyze::{Cfg, DiagKind};
use pimsim::isa::{asm, limits, Addr, InstrClass, Instruction};
use pimsim::nn::zoo;
use pimsim::prelude::*;
use pimsim::sim::SimError;
use proptest::prelude::*;

#[path = "../crates/core/tests/support/mixed_programs.rs"]
mod mixed_programs;
#[path = "support/transfer_programs.rs"]
mod transfer_programs;

use transfer_programs::{build_program, tweak_strategy, xfer_strategy};

/// xorshift64*.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// The address operands of a memory-class instruction.
fn addrs(instr: &mut Instruction) -> Vec<&mut Addr> {
    use Instruction as I;
    match instr {
        I::Mvm { dst, src, .. }
        | I::VImm { dst, src, .. }
        | I::VUn { dst, src, .. }
        | I::VCopy2d { dst, src, .. }
        | I::VPool { dst, src, .. } => vec![dst, src],
        I::VBin { dst, a, b, .. } => vec![dst, a, b],
        I::VFill { dst, .. } | I::Recv { dst, .. } | I::Recv2d { dst, .. } => vec![dst],
        I::Send { src, .. } => vec![src],
        I::GLoad { dst, gaddr, .. } => vec![dst, gaddr],
        I::GStore { gaddr, src, .. } => vec![gaddr, src],
        _ => Vec::new(),
    }
}

/// `program` with one address operand's offset moved (with `global`, a
/// `gload`/`gstore`'s global address): just below 0, onto the last
/// elements of local or global memory, just past them, or anywhere the
/// offset field reaches. `None` when it has no such operand.
fn mutate(program: &Program, arch: &ArchConfig, rng: &mut Rng, global: bool) -> Option<Program> {
    let mut program = program.clone();
    let eligible = |i: &Instruction| match i {
        Instruction::GLoad { .. } | Instruction::GStore { .. } => true,
        _ => !global && i.class() != InstrClass::Scalar,
    };
    let sites: Vec<(usize, usize)> = (program.cores.iter().enumerate())
        .flat_map(|(c, cp)| (0..cp.instrs.len()).map(move |pc| (c, pc)))
        .filter(|&(c, pc)| eligible(&program.cores[c].instrs[pc]))
        .collect();
    if sites.is_empty() {
        return None;
    }
    let (c, pc) = sites[rng.below(sites.len() as u64) as usize];
    let instr = &mut program.cores[c].instrs[pc];
    let slot = match instr {
        Instruction::GLoad { .. } if global => 1,
        _ if global => 0,
        _ => rng.below(addrs(instr).len() as u64) as usize,
    };
    let mut operands = addrs(instr);
    let addr = &mut operands[slot];
    let limits = arch.program_limits();
    let edge = if global || rng.below(2) == 1 {
        limits.global_mem_elems as i64
    } else {
        limits.local_mem_elems as i64
    };
    let offset = match rng.below(4) {
        0 => -1 - rng.below(64) as i64,
        1 => edge - rng.below(16) as i64,
        2 => edge + rng.below(64) as i64,
        _ => rng.below(1 << 22) as i64 - (1 << 21),
    };
    **addr = Addr::new(addr.base(), offset.min(2_097_151) as i32).ok()?;
    Some(program)
}

/// Checks both directions on one mutant. Returns whether it faulted.
fn holds(program: &Program, arch: &ArchConfig, what: &str) -> bool {
    let oob = analyze(program, arch)
        .diagnostics
        .iter()
        .any(|d| d.kind == DiagKind::OutOfBounds);
    let timing = Simulator::new(&arch.clone().with_functional(false)).run(program);
    let functional = Simulator::new(&arch.clone().with_functional(true)).run(program);
    let fault = |r: &Result<SimReport, SimError>| match r {
        Err(e @ SimError::MemoryFault { .. }) => Some(e.to_string()),
        _ => None,
    };
    let (t, f) = (fault(&timing), fault(&functional));
    assert_eq!(t, f, "timing and functional runs disagree on {what}");
    if oob {
        assert!(t.is_some(), "check reports out-of-bounds, run ran: {what}");
    }
    let linear = (program.cores.iter()).all(|cp| Cfg::build(&cp.instrs).linear_trace().is_some());
    if linear && t.is_some() {
        assert!(oob, "run faulted ({t:?}), check is silent: {what}");
    }
    t.is_some()
}

/// Mutates a clean `program` `n` times (global addresses only, with
/// `global`); returns how many mutants faulted.
fn mutants(
    program: &Program,
    arch: &ArchConfig,
    (n, global): (u32, bool),
    rng: &mut Rng,
    what: &str,
) -> u32 {
    let analysis = analyze(program, arch);
    assert!(!analysis.has_errors(), "{what}: {:?}", analysis.diagnostics);
    for functional in [false, true] {
        let arch = arch.clone().with_functional(functional);
        Simulator::new(&arch)
            .run(program)
            .expect("the clean program runs");
    }
    let mut faults = 0;
    for k in 0..n {
        let Some(mutant) = mutate(program, arch, rng, global) else {
            continue;
        };
        faults += holds(&mutant, arch, &format!("{what} mutant {k}")) as u32;
    }
    faults
}

/// `small_test` with 1 MiB of global memory, so that an offset can reach
/// past either memory's end.
fn chip() -> ArchConfig {
    let mut arch = ArchConfig::small_test();
    arch.resources.global_mem_mb = 1;
    arch
}

#[test]
fn mixed_programs_fault_where_check_says() {
    let arch = chip();
    let mut state = 0x0B0D_5EED_0000_0001;
    let mut rng = Rng(0x5EED_0B0D_0000_0003);
    let mut faults = 0;
    for case in 0..60 {
        let text = mixed_programs::random_program(&mut state);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        if analyze(&program, &arch).has_errors() {
            continue;
        }
        faults += mutants(
            &program,
            &arch,
            (4, false),
            &mut rng,
            &format!("mixed case {case}"),
        );
    }
    assert!(faults >= 60, "only {faults} mutants faulted");
}

#[test]
fn zoo_programs_fault_where_check_says() {
    let arch = chip();
    let mut rng = Rng(0x200_5EED_0000_0005);
    for net in [zoo::tiny_mlp(), zoo::tiny_cnn()] {
        let compiled = Compiler::new(&arch).compile(&net).expect("compiles");
        let program = &compiled.program;
        let faults = mutants(program, &arch, (24, false), &mut rng, &net.name);
        assert!(
            faults >= 8,
            "{}: only {faults} of 24 mutants faulted",
            net.name
        );
        let faults = mutants(program, &arch, (12, true), &mut rng, &net.name);
        assert!(
            faults >= 4,
            "{}: only {faults} of 12 global mutants faulted",
            net.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn transfer_programs_fault_where_check_says(
        xfers in proptest::collection::vec(xfer_strategy(), 1..10),
        tweaks in proptest::collection::vec(tweak_strategy(), 0..3),
        seed in any::<u64>(),
    ) {
        let arch = chip();
        let text = build_program(&xfers, &tweaks, None, false);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        if analyze(&program, &arch).has_errors() {
            return Ok(()); // a broken rendezvous, not a clean program
        }
        mutants(&program, &arch, (4, false), &mut Rng(seed | 1), &text);
    }
}

/// An encoding field that `Program::validate` holds to its
/// `instr::limits` width. An address offset is not one: `Addr::new`, its
/// one constructor, refuses an offset past the width, and a program file
/// is read through it, so no program holds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Field {
    Len,
    Group,
    Blocks,
    Stride,
    Win,
    Imm,
    Target,
}

impl Field {
    const ALL: [Field; 7] = [
        Field::Len,
        Field::Group,
        Field::Blocks,
        Field::Stride,
        Field::Win,
        Field::Imm,
        Field::Target,
    ];

    /// The largest value the field encodes.
    fn max(self) -> i64 {
        use limits::{smax, umax};
        match self {
            Field::Len => umax(limits::LEN_BITS) as i64,
            Field::Group => umax(limits::GROUP_BITS) as i64,
            Field::Blocks => umax(limits::BLOCK_BITS) as i64,
            Field::Stride => smax(limits::STRIDE_BITS),
            Field::Win => umax(limits::WIN_BITS) as i64,
            Field::Imm => smax(limits::VIMM_BITS),
            Field::Target => umax(limits::TARGET_BITS) as i64,
        }
    }

    /// Sets this field of `instr` to `value`; `false` when `instr` has no
    /// such field. An `MVM`'s `len` is left out: it must equal its
    /// group's input length whatever its width.
    fn set(self, instr: &mut Instruction, value: i64) -> bool {
        use Instruction as I;
        let (u, s) = (value as u32, value as i32);
        match (self, instr) {
            (
                Field::Len,
                I::VBin { len, .. }
                | I::VImm { len, .. }
                | I::VUn { len, .. }
                | I::VFill { len, .. }
                | I::Send { len, .. }
                | I::Recv { len, .. }
                | I::GLoad { len, .. }
                | I::GStore { len, .. },
            ) => *len = u,
            (Field::Group, I::Mvm { group, .. }) => group.0 = value as u16,
            (Field::Blocks, I::VCopy2d { blocks, .. } | I::Recv2d { blocks, .. }) => *blocks = u,
            (
                Field::Stride,
                I::VCopy2d {
                    src_stride: stride, ..
                }
                | I::Recv2d {
                    dst_stride: stride, ..
                }
                | I::VPool {
                    row_stride: stride, ..
                },
            ) => *stride = s,
            (Field::Win, I::VPool { win_w, .. }) => *win_w = u,
            (Field::Imm, I::VImm { imm, .. } | I::VFill { value: imm, .. }) => *imm = s,
            (Field::Target, I::Branch { target, .. } | I::Jump { target }) => *target = u,
            _ => return false,
        }
        true
    }
}

/// Whether `check` reports `program` as an `invalid-program`, held equal
/// to `run` failing with `InvalidProgram` in timing and functional mode;
/// with each verdict's error text: `check`'s, then `run`'s in either mode.
fn invalid(program: &Program, arch: &ArchConfig, what: &str) -> (bool, [String; 3]) {
    let mut texts: [String; 3] = Default::default();
    let mut check = false;
    for d in analyze(program, arch).diagnostics {
        if d.kind == DiagKind::InvalidProgram {
            check = true;
            texts[0] += &format!("{d}\n");
        }
    }
    for functional in [false, true] {
        let arch = arch.clone().with_functional(functional);
        let run = Simulator::new(&arch).run(program).err();
        let refused = matches!(run, Some(SimError::InvalidProgram(_)));
        if let Some(e) = run {
            texts[1 + usize::from(functional)] = e.to_string();
        }
        assert_eq!(
            check, refused,
            "{what}: check says invalid = {check}, functional = {functional}: {texts:?}"
        );
    }
    (check, texts)
}

/// Sets each field of one random site of a clean `program` one past its
/// width, then to its largest value. Returns the fields it found a site
/// for.
fn width_mutants(
    program: &Program,
    arch: &ArchConfig,
    rng: &mut Rng,
    what: &str,
) -> BTreeSet<Field> {
    let (analysis, _) = invalid(program, arch, what);
    assert!(!analysis, "{what}: the clean program is invalid");
    let mut tried = BTreeSet::new();
    for field in Field::ALL {
        let sites: Vec<(usize, usize)> = (program.cores.iter().enumerate())
            .flat_map(|(c, cp)| (0..cp.instrs.len()).map(move |pc| (c, pc)))
            .filter(|&(c, pc)| field.set(&mut program.cores[c].instrs[pc].clone(), 0))
            .collect();
        if sites.is_empty() {
            continue;
        }
        let (c, pc) = sites[rng.below(sites.len() as u64) as usize];
        for value in [field.max() + 1, field.max()] {
            let mut mutant = program.clone();
            field.set(&mut mutant.cores[c].instrs[pc], value);
            let what = format!("{what}: {field:?} {value} at core{c} pc{pc}");
            let (invalid, texts) = invalid(&mutant, arch, &what);
            if value > field.max() {
                assert!(invalid, "{what}: {texts:?}");
                // `check`, `run` and the program file's reader (which
                // `disasm` and the other commands read files through) name
                // the width, whatever else the field points at: a group
                // past the group table, a target past the program.
                let file = Program::from_json(&mutant.to_json()).map_err(|e| e.to_string());
                assert!(file.is_err(), "{what}: its program file reads");
                let width = format!("value {value} outside encodable range");
                for text in texts.iter().chain(file.as_ref().err()) {
                    assert!(text.contains(&width), "{what}: {texts:?} {file:?}");
                }
            } else {
                let text = texts.concat();
                assert!(!text.contains("outside encodable range"), "{what}: {text}");
                // Validation also holds a group to the program's group
                // table and a target to its length, which no program
                // here reaches at the widths' largest values.
                if !matches!(field, Field::Group | Field::Target) {
                    assert!(!invalid, "{what}: {text}");
                }
            }
        }
        tried.insert(field);
    }
    tried
}

#[test]
fn mixed_programs_refuse_field_widths_where_check_does() {
    let arch = chip();
    let mut state = 0x0B0D_5EED_0000_0011;
    let mut rng = Rng(0x5EED_0B0D_0000_0013);
    let mut tried = BTreeSet::new();
    for case in 0..30 {
        let text = mixed_programs::random_program(&mut state);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        if analyze(&program, &arch).has_errors() {
            continue;
        }
        tried.extend(width_mutants(
            &program,
            &arch,
            &mut rng,
            &format!("mixed case {case}"),
        ));
    }
    let want = [Field::Len, Field::Group, Field::Imm, Field::Target];
    assert!(want.iter().all(|f| tried.contains(f)), "{tried:?}");
}

#[test]
fn zoo_programs_refuse_field_widths_where_check_does() {
    let arch = chip();
    let mut rng = Rng(0x200_5EED_0000_0015);
    let mut tried = BTreeSet::new();
    for net in [zoo::tiny_mlp(), zoo::tiny_cnn()] {
        let compiled = Compiler::new(&arch).compile(&net).expect("compiles");
        tried.extend(width_mutants(&compiled.program, &arch, &mut rng, &net.name));
    }
    let want = [
        Field::Len,
        Field::Group,
        Field::Blocks,
        Field::Stride,
        Field::Win,
    ];
    assert!(want.iter().all(|f| tried.contains(f)), "{tried:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn transfer_programs_refuse_field_widths_where_check_does(
        xfers in proptest::collection::vec(xfer_strategy(), 1..10),
        tweaks in proptest::collection::vec(tweak_strategy(), 0..3),
        seed in any::<u64>(),
    ) {
        let arch = chip();
        let text = build_program(&xfers, &tweaks, None, false);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        if analyze(&program, &arch).has_errors() {
            return Ok(()); // a broken rendezvous, not a clean program
        }
        width_mutants(&program, &arch, &mut Rng(seed | 1), &text);
    }
}
