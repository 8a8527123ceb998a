//! End-to-end and unit coverage for every [`SimError`] variant: Display
//! text, `source()` chaining, and a real simulation trigger for each of
//! the paths that previously had none (`Deadlock`, `Timeout`,
//! `TagMismatch`).

use std::error::Error;

use pimsim_arch::ArchConfig;
use pimsim_core::{SimError, Simulator};
use pimsim_event::SimTime;
use pimsim_isa::{asm, Instruction};

fn run(arch: &ArchConfig, text: &str) -> Result<pimsim_core::SimReport, SimError> {
    let program = asm::assemble(text).expect("assembles");
    Simulator::new(arch).run(&program)
}

// ------------------------------------------------------------- Deadlock --

#[test]
fn unmatched_recv_deadlocks_with_diagnostics() {
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            recv core1, [r0+0], 4, tag=9
            halt
            .core 1
            halt
        "#,
    )
    .expect_err("a recv with no matching send can never complete");
    let SimError::Deadlock { detail, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(detail.contains("core0"), "names the stuck core: {detail}");
    assert!(
        detail.contains("parkedrecv=true"),
        "channel summary shows the parked recv: {detail}"
    );
    assert!(err.source().is_none(), "Deadlock is a root cause");
    let text = err.to_string();
    assert!(text.starts_with("deadlock at "), "Display: {text}");
}

#[test]
fn crossed_channels_deadlock() {
    // Both cores post recvs on channels whose sends can never issue: each
    // send sits behind the blocked recv in its own single-entry ROB.
    let arch = ArchConfig::small_test().with_rob(1);
    let err = run(
        &arch,
        r#"
            .core 0
            recv core1, [r0+0], 4, tag=1
            send core1, [r0+16], 4, tag=2
            halt
            .core 1
            recv core0, [r0+0], 4, tag=2
            send core0, [r0+16], 4, tag=1
            halt
        "#,
    )
    .expect_err("a circular rendezvous wait must deadlock");
    let SimError::Deadlock { detail, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        detail.contains("core0") && detail.contains("core1"),
        "{detail}"
    );
}

// -------------------------------------------------------------- Timeout --

#[test]
fn infinite_loop_hits_the_cycle_horizon() {
    let mut arch = ArchConfig::small_test();
    arch.sim.max_cycles = 1_000;
    let err = run(
        &arch,
        r#"
            .core 0
            jmp 0
        "#,
    )
    .expect_err("an infinite scalar loop must time out");
    let SimError::Timeout { max_cycles } = err else {
        panic!("expected Timeout, got {err:?}");
    };
    assert_eq!(max_cycles, 1_000);
}

#[test]
fn timeout_display_and_source() {
    let err = SimError::Timeout { max_cycles: 42 };
    assert_eq!(
        err.to_string(),
        "simulation exceeded the 42-cycle safety horizon"
    );
    assert!(err.source().is_none(), "Timeout is a root cause");
}

// ---------------------------------------------------------- TagMismatch --

#[test]
fn length_mismatch_with_parked_recv_fails() {
    // The recv posts first (its core has nothing else to do), so the
    // mismatch is caught when the message deposits into the parked recv.
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            vfill [r0+0], 7, 8
            send core1, [r0+0], 8, tag=1
            halt
            .core 1
            recv core0, [r0+0], 4, tag=1
            halt
        "#,
    )
    .expect_err("mismatched payload lengths must be rejected");
    let SimError::TagMismatch { detail } = &err else {
        panic!("expected TagMismatch, got {err:?}");
    };
    assert!(detail.contains("len 8"), "sender length: {detail}");
    assert!(detail.contains("len 4"), "receiver length: {detail}");
    assert!(detail.contains("tag 1"), "channel tag: {detail}");
    assert!(err.source().is_none(), "TagMismatch is a root cause");
    assert!(
        err.to_string().starts_with("transfer tag mismatch: "),
        "Display: {err}"
    );
}

#[test]
fn length_mismatch_with_queued_message_fails() {
    // The send lands before the recv issues (the receiver grinds through
    // scalar work first), so the mismatch is caught when the recv pops
    // the already-arrived message instead.
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            vfill [r0+0], 7, 8
            send core1, [r0+0], 8, tag=3
            halt
            .core 1
            addi r1, r0, 0
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            recv core0, [r0+0], 4, tag=3
            halt
        "#,
    )
    .expect_err("mismatched payload lengths must be rejected");
    assert!(matches!(err, SimError::TagMismatch { .. }), "got {err:?}");
}

#[test]
fn recv2d_length_product_does_not_wrap_into_a_match() {
    // Regression: `block_len * blocks` was a `u32` product, so 65536 x
    // 65536 wrapped to 0 and "matched" an empty send; the run reported
    // success. Such a receive is now refused before it runs: both counts
    // are past their 14-bit field, so the assembler refuses to write it
    // and the simulator refuses a program file that holds it.
    let arch = ArchConfig::small_test();
    let text = ".core 0\nsend core1, [r0+0], 0, tag=1\nhalt\n.core 1\n\
                recv2d core0, [r0+0], block=65536, blocks=65536, dstride=0, tag=1\nhalt\n";
    let refused = asm::assemble(text).expect_err("past the fields");
    assert_eq!(
        refused.to_string(),
        "parse error at line 5: block_len value 65536 outside encodable range [0, 16383]"
    );
    let mut wide = asm::assemble(&text.replace("65536", "1")).expect("assembles");
    let Instruction::Recv2d {
        block_len, blocks, ..
    } = &mut wide.cores[1].instrs[0]
    else {
        panic!("core 1 starts with the recv2d")
    };
    (*block_len, *blocks) = (65536, 65536);
    let err = Simulator::new(&arch)
        .run(&wide)
        .expect_err("a 2^32-element recv does not run");
    assert!(
        matches!(err, SimError::InvalidProgram(_))
            && err.to_string().contains(
                "core 1 at pc 0: block_len value 65536 outside encodable range [0, 16383]"
            ),
        "{err}"
    );
    // The largest receive the fields encode, 16383 x 16383 elements,
    // matches no empty send either.
    for recv_first in [true, false] {
        // Either side may arrive first: both comparison sites must agree.
        let delay = if recv_first {
            ""
        } else {
            "nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\n"
        };
        let text = format!(
            ".core 0\nsend core1, [r0+0], 0, tag=1\nhalt\n.core 1\n{delay}\
             recv2d core0, [r0+0], block=16383, blocks=16383, dstride=0, tag=1\nhalt\n"
        );
        let err = run(&arch, &text).expect_err("a 16383^2-element recv matches no send");
        let SimError::TagMismatch { detail } = &err else {
            panic!("expected TagMismatch, got {err:?}");
        };
        assert!(detail.contains("len 268402689"), "full length: {detail}");
    }
}

// ---------------------------------------------------------- MemoryFault --

#[test]
fn negative_strided_recv_destination_is_a_memory_fault() {
    // Regression: `(dst + b*stride).max(0)` used to clamp block 1's
    // destination (0 + 1 * -8 = -8) to address 0, silently overwriting
    // block 0 instead of failing.
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            vfill [r0+0], 7, 8
            send core1, [r0+0], 8, tag=1
            halt
            .core 1
            recv2d core0, [r0+0], block=4, blocks=2, dstride=-8, tag=1
            halt
        "#,
    )
    .expect_err("a strided recv reaching below address 0 must fail");
    let SimError::MemoryFault { core, detail } = &err else {
        panic!("expected MemoryFault, got {err:?}");
    };
    assert_eq!(*core, 1);
    assert!(detail.contains("-8"), "names the bad address: {detail}");
    assert!(detail.contains("dstride=-8"), "names the stride: {detail}");
    assert!(err.source().is_none(), "MemoryFault is a root cause");
    assert!(
        err.to_string().starts_with("memory fault on core1: "),
        "Display: {err}"
    );
}

#[test]
fn recv_past_the_scratchpad_capacity_is_a_memory_fault() {
    // The opposite edge: a stride marching *past* the configured local
    // memory must not silently grow the functional scratchpad either.
    let arch = ArchConfig::small_test(); // 256 KiB -> 65536 elements
    let err = run(
        &arch,
        r#"
            .core 0
            vfill [r0+0], 7, 8
            send core1, [r0+0], 8, tag=1
            halt
            .core 1
            recv2d core0, [r0+65532], block=4, blocks=2, dstride=8, tag=1
            halt
        "#,
    )
    .expect_err("a strided recv reaching past local memory must fail");
    let SimError::MemoryFault { core, detail } = &err else {
        panic!("expected MemoryFault, got {err:?}");
    };
    assert_eq!(*core, 1);
    assert!(
        detail.contains("65536-element"),
        "names the bound: {detail}"
    );
}

/// Runs `text` functionally on `small_test` (65,536 local and 4,194,304
/// global elements), expecting a memory fault on core 0 that names
/// `capacity`; the same program run timing-only fails with the same
/// fault, raised by the same check at dispatch.
fn assert_faults_past(text: &str, capacity: &str) {
    let arch = ArchConfig::small_test();
    let err = run(&arch, text).expect_err("an access past the configured memory must fail");
    let SimError::MemoryFault { core, detail } = &err else {
        panic!("expected MemoryFault, got {err:?}");
    };
    assert_eq!(*core, 0);
    assert!(detail.contains(capacity), "names the bound: {detail}");
    let timing = run(&arch.with_functional(false), text).expect_err("timing runs fault too");
    assert!(
        matches!(timing, SimError::MemoryFault { .. }) && timing.to_string() == err.to_string(),
        "timing-only runs raise the same fault: {timing} vs {err}"
    );
}

#[test]
fn vector_op_past_the_scratchpad_capacity_is_a_memory_fault() {
    // The sum's last four elements land past the scratchpad, which the
    // functional memory used to grow to hold.
    assert_faults_past(
        r#"
            .core 0
            li r1, 65532
            vadd [r1+0], [r0+0], [r0+8], 8
            halt
        "#,
        "65536-element local memory",
    );
}

#[test]
fn mvm_past_the_scratchpad_capacity_is_a_memory_fault() {
    assert_faults_past(
        r#"
            .core 0
            .group 0 in=16 out=16 xbars=0
            li r1, 65530
            mvm g0, [r1+0], [r0+0], 16
            halt
        "#,
        "65536-element local memory",
    );
}

#[test]
fn global_accesses_past_global_memory_are_memory_faults() {
    for access in ["gstore g[r1+0], [r0+0], 8", "gload [r0+0], g[r1+0], 8"] {
        assert_faults_past(
            &format!(".core 0\nli r1, 4194300\n{access}\nhalt\n"),
            "4194304-element global memory",
        );
    }
}

#[test]
fn in_range_strided_recv_still_interleaves() {
    // The fix must not touch valid strided receives (negative strides
    // included, as long as every block stays in range).
    let arch = ArchConfig::small_test();
    let report = run(
        &arch,
        r#"
            .core 0
            vfill [r0+0], 9, 4
            send core1, [r0+0], 4, tag=1
            halt
            .core 1
            recv2d core0, [r0+8], block=2, blocks=2, dstride=-4, tag=1
            halt
        "#,
    )
    .expect("a fully in-range negative stride is legal");
    // Block 0 at 8..10, block 1 at 4..6.
    assert_eq!(report.read_local(1, 8, 2), vec![9, 9]);
    assert_eq!(report.read_local(1, 4, 2), vec![9, 9]);
}

// ------------------------------------------------------------- Internal --

#[test]
fn internal_display_and_source() {
    // The variant that replaced `deposit`'s silent `None => return`: a
    // missing sender-side ROB entry now surfaces as a hard error instead
    // of wedging the channel's credit accounting.
    let err = SimError::Internal {
        detail: "deposit on ch(0->1,tag3) found no ROB entry for sender core0 seq 7".into(),
    };
    assert_eq!(
        err.to_string(),
        "internal simulator invariant violated: \
         deposit on ch(0->1,tag3) found no ROB entry for sender core0 seq 7"
    );
    assert!(err.source().is_none(), "Internal is a root cause");
}

// ------------------------------------------- validation errors + chains --

#[test]
fn invalid_program_chains_to_the_isa_error() {
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            send core200, [r0+0], 4, tag=1
            halt
        "#,
    )
    .expect_err("core 200 does not exist on the test chip");
    let SimError::InvalidProgram(_) = &err else {
        panic!("expected InvalidProgram, got {err:?}");
    };
    assert!(
        err.to_string().starts_with("invalid program: "),
        "Display prefixes the cause: {err}"
    );
    let source = err.source().expect("InvalidProgram chains its cause");
    assert!(
        err.to_string().contains(&source.to_string()),
        "the chained source appears in the Display text"
    );
}

#[test]
fn invalid_arch_chains_to_the_arch_error() {
    let mut arch = ArchConfig::small_test();
    arch.resources.rob_size = 0;
    let err = run(
        &arch,
        r#"
            .core 0
            halt
        "#,
    )
    .expect_err("a zero-entry ROB is invalid");
    let SimError::Arch(_) = &err else {
        panic!("expected Arch, got {err:?}");
    };
    assert!(
        err.to_string().starts_with("invalid architecture: "),
        "Display prefixes the cause: {err}"
    );
    let source = err.source().expect("Arch chains its cause");
    assert!(err.to_string().contains(&source.to_string()));
}

#[test]
fn deadlock_display_includes_time_and_detail() {
    let err = SimError::Deadlock {
        time: SimTime::from_ns(12),
        detail: "core0: stuck".to_string(),
    };
    let text = err.to_string();
    assert!(text.contains("12"), "time rendered: {text}");
    assert!(text.contains("core0: stuck"), "detail rendered: {text}");
}

// ------------------------------------------------------- Deadlock detail --

#[test]
fn deadlock_detail_names_unmatched_sites_and_suggests_check() {
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            recv core1, [r0+0], 4, tag=9
            halt
            .core 1
            li r1, 0
            send core0, [r1+0], 4, tag=3
            halt
        "#,
    )
    .expect_err("tag 9 is never sent and tag 3 never received");
    let SimError::Deadlock { detail, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(detail.contains("unmatched rendezvous site(s):"), "{detail}");
    assert!(
        detail.contains("core1 -> core0 tag=3: 1 sent message(s) never received"),
        "names the rotting send: {detail}"
    );
    assert!(
        detail.contains("core1 -> core0 tag=9: a receive waiting on a send that never comes"),
        "names the parked recv: {detail}"
    );
    assert!(
        detail.contains("`pimsim check`"),
        "hints the tool: {detail}"
    );
}

#[test]
fn leaked_message_fails_quiescence_even_when_all_cores_halt() {
    // The send completes at deposit (credit-buffered fabric), so both
    // cores halt — but the message is never received. That used to pass
    // as a successful run.
    let arch = ArchConfig::small_test();
    let err = run(
        &arch,
        r#"
            .core 0
            li r1, 0
            send core1, [r1+0], 4, tag=3
            halt
            .core 1
            halt
        "#,
    )
    .expect_err("a sent-but-never-received message is not a clean finish");
    let SimError::Deadlock { detail, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        detail.contains("never received"),
        "names the leak: {detail}"
    );
    assert!(
        detail.contains("core0 -> core1 tag=3"),
        "names the site: {detail}"
    );
}
