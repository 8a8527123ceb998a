//! Direct machine-model tests driven by hand-written assembly: hazards,
//! structure hazards, ROB effects, transfer semantics, error paths.

use pimsim_arch::ArchConfig;
use pimsim_core::{SimError, Simulator};
use pimsim_event::SimTime;
use pimsim_isa::{asm, Instruction};

#[path = "support/mixed_programs.rs"]
mod mixed_programs;

use mixed_programs::random_program;

fn arch() -> ArchConfig {
    ArchConfig::small_test()
}

fn run(arch: &ArchConfig, text: &str) -> pimsim_core::SimReport {
    let program = asm::assemble(text).expect("assembles");
    Simulator::new(arch).run(&program).expect("runs")
}

#[test]
fn mvms_on_different_groups_overlap_with_rob() {
    // Two groups on disjoint crossbars; outputs to disjoint addresses.
    let text = r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        .group 1 in=16 out=16 xbars=1
        mvm g0, [r0+100], [r0+0], 16
        mvm g1, [r0+200], [r0+0], 16
        halt
    "#;
    let serial = run(&arch().with_rob(1), text).latency;
    let parallel = run(&arch().with_rob(8), text).latency;
    assert!(
        parallel.as_ps() < serial.as_ps() * 3 / 4,
        "disjoint MVMs should overlap: rob1={serial}, rob8={parallel}"
    );
}

#[test]
fn structure_hazard_serializes_same_crossbars() {
    // Both MVMs fire group 0: the paper's structure hazard.
    let text = r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        mvm g0, [r0+100], [r0+0], 16
        mvm g0, [r0+200], [r0+0], 16
        halt
    "#;
    let rob1 = run(&arch().with_rob(1), text).latency;
    let rob8 = run(&arch().with_rob(8), text).latency;
    // A bigger ROB cannot help: same crossbars must serialize.
    let slack = rob1.as_ps() / 20;
    assert!(
        rob8.as_ps() + slack >= rob1.as_ps(),
        "structure hazard must serialize: rob1={rob1}, rob8={rob8}"
    );
}

#[test]
fn raw_hazard_orders_vector_ops() {
    // Second op reads what the first wrote; functional result proves order.
    let report = run(
        &arch(),
        r#"
        .core 0
        vfill [r0+0], 5, 8
        vaddi [r0+0], [r0+0], 2, 8
        vmuli [r0+16], [r0+0], 3, 8
        halt
    "#,
    );
    assert_eq!(report.read_local(0, 0, 1)[0], 7);
    assert_eq!(report.read_local(0, 16, 1)[0], 21);
}

#[test]
fn oversized_pool_window_still_orders_against_its_input() {
    // Regression: the pool's read footprint multiplied `win_w * channels`
    // in `u32`; 65536 * 65536 wrapped to an empty — hazard-invisible —
    // range (and panicked on overflow in a debug build), so the load that
    // overwrites the pool's input finished long before the pool did.
    // Such a window is now refused before it runs: both are past their
    // fields, so the assembler refuses to write it and the simulator
    // refuses a program file that holds it.
    let mut cfg = arch().with_functional(false);
    cfg.sim.trace = true;
    let text = ".core 0\nvpool.max [r0+100], [r0+0], ch=65536, win=65536x1, rstride=8\nhalt\n";
    let err = asm::assemble(text).expect_err("refused");
    assert_eq!(
        err.to_string(),
        "parse error at line 2: channels value 65536 outside encodable range [0, 16383]"
    );
    let mut wide = asm::assemble(&text.replace("65536", "1")).expect("assembles");
    let Instruction::VPool {
        channels, win_w, ..
    } = &mut wide.cores[0].instrs[0]
    else {
        panic!("core 0 starts with the pool")
    };
    (*channels, *win_w) = (65536, 65536);
    let err = Simulator::new(&cfg).run(&wide).expect_err("refused");
    assert!(
        err.to_string()
            .contains("channels value 65536 outside encodable range [0, 16383]"),
        "{err}"
    );
    // The widest window the fields encode still orders against its input,
    // on a local memory that holds its 1,032,129-element read.
    cfg.resources.local_mem_kb = 4096;
    let report = run(
        &cfg,
        r#"
        .core 0
        vpool.max [r0+100], [r0+0], ch=16383, win=63x1, rstride=8
        gload [r0+0], g[r0+0], 8
        halt
    "#,
    );
    let done = |op: &str| {
        let entry = report.trace.iter().find(|t| t.instr.starts_with(op));
        entry.unwrap_or_else(|| panic!("{op} retired")).time
    };
    assert!(
        done("gload") > done("vpool"),
        "WAR: the load must wait for the pool ({} vs {})",
        done("gload"),
        done("vpool")
    );
}

#[test]
fn scalar_loop_executes() {
    // Increment a memory cell 10 times via a scalar-controlled loop.
    let report = run(
        &arch(),
        r#"
        .core 0
        li r1, 10
    loop:
        vaddi [r0+0], [r0+0], 1, 1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    "#,
    );
    assert_eq!(report.read_local(0, 0, 1), vec![10]);
    assert!(report.class_counts[3] > 20, "scalar ops executed");
}

#[test]
fn synchronized_transfer_delivers_payload() {
    let report = run(
        &arch(),
        r#"
        .core 0
        vfill [r0+0], 42, 16
        send core1, [r0+0], 16, tag=5
        halt
        .core 1
        recv core0, [r0+32], 16, tag=5
        vaddi [r0+64], [r0+32], 1, 16
        halt
    "#,
    );
    assert_eq!(report.read_local(1, 32, 1)[0], 42);
    assert_eq!(report.read_local(1, 64, 1)[0], 43);
}

#[test]
fn self_transfer_is_rejected_not_free() {
    // Pinned choice for same-core rendezvous: programs may not SEND to
    // their own core (the validator rejects them before simulation), and
    // the NoC API itself charges `CostModel::local_copy_cost` for a
    // `from == to` message instead of the old zero-time, zero-energy
    // transfer (see `noc::tests::self_message_charges_local_copy`).
    let arch = arch();
    let program = asm::assemble(
        r#"
        .core 0
        vfill [r0+0], 7, 16
        send core0, [r0+0], 16, tag=3
        recv core0, [r0+64], 16, tag=3
        halt
    "#,
    )
    .expect("assembles");
    let err = Simulator::new(&arch).run(&program).unwrap_err();
    assert!(
        matches!(err, SimError::InvalidProgram(_)),
        "self-send must be rejected by program validation, got {err:?}"
    );
}

#[test]
fn recv2d_interleaves() {
    let report = run(
        &arch(),
        r#"
        .core 0
        vfill [r0+0], 9, 4
        send core1, [r0+0], 4, tag=1
        halt
        .core 1
        recv2d core0, [r0+0], block=2, blocks=2, dstride=4, tag=1
        halt
    "#,
    );
    assert_eq!(report.read_local(1, 0, 6), vec![9, 9, 0, 0, 9, 9]);
}

#[test]
fn global_memory_roundtrip() {
    let report = run(
        &arch(),
        r#"
        .core 0
        vfill [r0+0], -3, 8
        gstore g[r0+1000], [r0+0], 8
        gload [r0+64], g[r0+1000], 8
        halt
    "#,
    );
    assert_eq!(report.read_local(0, 64, 8), vec![-3; 8]);
    assert_eq!(report.read_global(1000, 2), vec![-3, -3]);
}

#[test]
fn tag_mismatch_is_detected() {
    let program = asm::assemble(
        r#"
        .core 0
        send core1, [r0+0], 16, tag=5
        halt
        .core 1
        recv core0, [r0+0], 8, tag=5
        halt
    "#,
    )
    .unwrap();
    let err = Simulator::new(&arch()).run(&program).unwrap_err();
    assert!(matches!(err, SimError::TagMismatch { .. }), "got {err}");
}

#[test]
fn unmatched_recv_deadlocks_cleanly() {
    let program = asm::assemble(
        r#"
        .core 0
        recv core1, [r0+0], 8, tag=1
        halt
        .core 1
        nop
        halt
    "#,
    )
    .unwrap();
    let err = Simulator::new(&arch()).run(&program).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
}

#[test]
fn runaway_program_times_out() {
    let mut cfg = arch();
    cfg.sim.max_cycles = 10_000;
    let program = asm::assemble(
        r#"
        .core 0
    forever:
        jmp forever
    "#,
    )
    .unwrap();
    let err = Simulator::new(&cfg).run(&program).unwrap_err();
    assert!(matches!(err, SimError::Timeout { .. }), "got {err}");
}

#[test]
fn invalid_program_rejected_before_running() {
    // Branch target out of range.
    let program = asm::assemble(".core 0\njmp 99\n").unwrap();
    let err = Simulator::new(&arch()).run(&program).unwrap_err();
    assert!(matches!(err, SimError::InvalidProgram(_)), "got {err}");
}

#[test]
fn report_accounts_energy_and_power() {
    let report = run(
        &arch(),
        r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        vfill [r0+0], 1, 16
        mvm g0, [r0+100], [r0+0], 16
        vrelu [r0+100], [r0+100], 16
        send core1, [r0+100], 16, tag=1
        halt
        .core 1
        recv core0, [r0+0], 16, tag=1
        halt
    "#,
    );
    assert!(report.energy.matrix.as_pj() > 0.0);
    assert!(report.energy.vector.as_pj() > 0.0);
    assert!(report.energy.transfer.as_pj() > 0.0);
    assert!(report.energy.scalar.as_pj() > 0.0);
    assert!(report.energy.frontend.as_pj() > 0.0);
    assert!(report.energy.static_energy.as_pj() > 0.0);
    assert!(report.avg_power_w() > 0.0);
    assert_eq!(report.class_counts[0], 1);
    assert_eq!(report.class_counts[2], 2);
    assert!(report.latency > SimTime::ZERO);
}

#[test]
fn per_tag_attribution_tracks_comm_time() {
    // Tag instructions manually via a compiled-style program is covered in
    // integration tests; here, untagged programs attribute everything to 0.
    let report = run(
        &arch(),
        r#"
        .core 0
        vfill [r0+0], 1, 64
        send core1, [r0+0], 64, tag=9
        halt
        .core 1
        recv core0, [r0+0], 64, tag=9
        halt
    "#,
    );
    assert!(report.per_node[0].comm_time > SimTime::ZERO);
    assert!(report.comm_ratio(0) > 0.0);
}

#[test]
fn idle_cores_cost_nothing_dynamic() {
    let a = run(&arch(), ".core 0\nnop\nhalt\n");
    assert_eq!(a.instructions, 2);
    // Only static + scalar/frontend energy.
    assert_eq!(a.energy.matrix.as_pj(), 0.0);
    assert_eq!(a.energy.transfer.as_pj(), 0.0);
}

#[test]
fn determinism_across_runs() {
    let text = r#"
        .core 0
        .group 0 in=16 out=16 xbars=0,1
        vfill [r0+0], 3, 16
        mvm g0, [r0+50], [r0+0], 16
        send core1, [r0+50], 16, tag=2
        halt
        .core 1
        recv core0, [r0+0], 16, tag=2
        vrelu [r0+32], [r0+0], 16
        halt
    "#;
    let a = run(&arch(), text);
    let b = run(&arch(), text);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.events, b.events);
    assert!((a.energy.total().as_pj() - b.energy.total().as_pj()).abs() < 1e-9);
}

#[test]
fn trace_records_instruction_completions() {
    let mut cfg = arch();
    cfg.sim.trace = true;
    let report = run(
        &cfg,
        r#"
        .core 0
        vfill [r0+0], 1, 8
        send core1, [r0+0], 8, tag=1
        halt
        .core 1
        recv core0, [r0+0], 8, tag=1
        halt
    "#,
    );
    assert!(!report.trace.is_empty());
    // Trace covers both cores and includes the transfer pair.
    assert!(report.trace.iter().any(|t| t.core == 0));
    assert!(report.trace.iter().any(|t| t.core == 1));
    assert!(report.trace.iter().any(|t| t.instr.starts_with("send")));
    assert!(report.trace.iter().any(|t| t.instr.starts_with("recv")));
    // Completion times are plausible (within the run).
    assert!(report.trace.iter().all(|t| t.time <= report.latency));

    // Without the flag, no trace is recorded.
    let quiet = run(&arch(), ".core 0\nnop\nhalt\n");
    assert!(quiet.trace.is_empty());
}

#[test]
fn structure_hazard_ablation_unlocks_same_crossbar_overlap() {
    let text = r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        mvm g0, [r0+100], [r0+0], 16
        mvm g0, [r0+200], [r0+0], 16
        halt
    "#;
    let with_hazard = run(&arch().with_rob(8), text).latency;
    let mut ablated = arch().with_rob(8);
    ablated.sim.structure_hazard = false;
    let without = run(&ablated, text).latency;
    assert!(
        without < with_hazard,
        "disabling the structure hazard must allow overlap ({without} vs {with_hazard})"
    );
}

#[test]
fn per_node_energy_attribution_sums_to_dynamic_energy() {
    let report = run(
        &arch(),
        r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        vfill [r0+0], 1, 16
        mvm g0, [r0+100], [r0+0], 16
        send core1, [r0+100], 16, tag=1
        halt
        .core 1
        recv core0, [r0+0], 16, tag=1
        halt
    "#,
    );
    let attributed: f64 = report.per_node.iter().map(|n| n.energy.as_pj()).sum();
    let dynamic = (report.energy.matrix + report.energy.vector + report.energy.transfer).as_pj();
    assert!(
        (attributed - dynamic).abs() < 1e-6,
        "per-node energy ({attributed}) must equal dynamic energy ({dynamic})"
    );
    assert!(attributed > 0.0);
}

#[test]
fn random_mixed_programs_rerun_bit_identically() {
    // Every observable of a report — energies by exact `f64` bits (Debug
    // is shortest-roundtrip), attribution, event count, trace, functional
    // memory — and every error is a pure function of program and arch.
    let fingerprint = |r: &pimsim_core::SimReport| {
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            r.latency,
            r.energy,
            r.instructions,
            r.class_counts,
            r.per_core,
            r.per_node,
            r.events,
            r.trace,
            r.read_local(0, 0, 512),
            r.read_local(1, 0, 512)
        )
    };
    let mut state = 0x5EED_CAFE_F00D_0001;
    let mut ran = 0;
    for case in 0..40 {
        let text = random_program(&mut state);
        let program = asm::assemble(&text)
            .unwrap_or_else(|e| panic!("case {case} failed to assemble: {e}\n{text}"));
        let arch = if case % 2 == 0 {
            arch()
        } else {
            arch().with_rob(1)
        };
        let first = Simulator::new(&arch).run(&program);
        let again = Simulator::new(&arch).run(&program);
        match (&first, &again) {
            (Ok(a), Ok(b)) => {
                assert_eq!(fingerprint(a), fingerprint(b), "case {case}:\n{text}");
                ran += 1;
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}"),
            _ => panic!("case {case}: reruns disagree on success:\n{text}"),
        }
    }
    assert!(
        ran >= 20,
        "only {ran} of 40 random programs ran to completion"
    );
}
