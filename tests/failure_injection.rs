//! Failure injection: every misuse must produce a typed error, never a
//! panic or a wrong result.

use pimsim::compiler::CompileError;
use pimsim::nn::{zoo, Activation, Layer, Network, PortRef, Shape};
use pimsim::prelude::*;
use pimsim::sim::SimError;

#[test]
fn network_too_big_for_chip() {
    let mut arch = ArchConfig::small_test();
    arch.resources.core_rows = 1;
    arch.resources.core_cols = 2;
    arch.resources.xbars_per_core = 1;
    let err = Compiler::new(&arch).compile(&zoo::vgg8(32)).unwrap_err();
    assert!(matches!(err, CompileError::Unmappable { .. }), "got {err}");
    // The message names the resource and the layer.
    let msg = err.to_string();
    assert!(msg.contains("cores"), "{msg}");
}

#[test]
fn local_memory_too_small() {
    let mut arch = ArchConfig::small_test();
    arch.resources.local_mem_kb = 1;
    let err = Compiler::new(&arch).compile(&zoo::tiny_cnn()).unwrap_err();
    assert!(
        matches!(err, CompileError::LocalMemoryOverflow { .. }),
        "got {err}"
    );
}

#[test]
fn batch_outputs_past_global_memory() {
    // tiny_mlp's outputs land past the input, one per image: 30,000 of
    // them overrun a 1 MiB (262,144-element) global memory, and a batch
    // near `u32::MAX` must be refused before billions of instructions are
    // emitted.
    let mut arch = ArchConfig::paper_default();
    arch.resources.global_mem_mb = 1;
    for batch in [30_000, u32::MAX] {
        let err = Compiler::new(&arch)
            .batch(batch)
            .compile(&zoo::tiny_mlp())
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::GlobalMemoryOverflow {
                    available: 262_144,
                    ..
                }
            ),
            "got {err}"
        );
        assert!(err.to_string().contains("global memory overflow"), "{err}");
    }
    assert!(Compiler::new(&arch)
        .batch(2)
        .compile(&zoo::tiny_mlp())
        .is_ok());
}

#[test]
fn invalid_arch_rejected_by_all_entry_points() {
    let mut arch = ArchConfig::paper_default();
    arch.timing.core_freq_ghz = -1.0;
    assert!(Compiler::new(&arch).compile(&zoo::tiny_mlp()).is_err());
    assert!(Simulator::new(&arch).run(&Program::with_cores(1)).is_err());
    assert!(pimsim::baseline::BaselineSimulator::new(&arch)
        .run(&zoo::tiny_mlp())
        .is_err());
}

#[test]
fn malformed_network_rejected() {
    // An Add with mismatched input shapes.
    let mut b = Network::builder("bad", Shape::new(8, 8, 3));
    let a = b.add(
        "c1",
        Layer::Conv2d {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            activation: Some(Activation::Relu),
        },
        vec![PortRef::Input],
    );
    let c = b.add(
        "c2",
        Layer::Conv2d {
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            activation: None,
        },
        vec![a],
    );
    b.add("sum", Layer::Add { activation: None }, vec![a, c]);
    assert!(b.finish().is_err());
}

#[test]
fn corrupt_program_rejected_by_simulator() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let compiled = Compiler::new(&arch).compile(&net).unwrap();
    let mut program = compiled.program.clone();
    // Corrupt: point an MVM at a group that does not exist.
    for core in &mut program.cores {
        for i in &mut core.instrs {
            if let pimsim::isa::Instruction::Mvm { group, .. } = i {
                *group = pimsim::isa::GroupId(4000);
            }
        }
    }
    let err = Simulator::new(&arch).run(&program).unwrap_err();
    assert!(matches!(err, SimError::InvalidProgram(_)), "got {err}");
}

#[test]
fn truncated_tag_space_detected() {
    // Force a tag overflow by asking for absurdly many edges is
    // impractical; instead check the mismatch detection directly.
    let arch = ArchConfig::small_test();
    let program = pimsim::isa::asm::assemble(
        r#"
        .core 0
        send core1, [r0+0], 64, tag=3
        halt
        .core 1
        recv core0, [r0+0], 32, tag=3
        halt
        "#,
    )
    .unwrap();
    let err = Simulator::new(&arch).run(&program).unwrap_err();
    assert!(matches!(err, SimError::TagMismatch { .. }), "got {err}");
}

#[test]
fn config_file_errors_are_typed() {
    let dir = std::env::temp_dir().join("pimsim-failures");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{ not json").unwrap();
    assert!(ArchConfig::from_file(&path).is_err());
    assert!(ArchConfig::from_file(dir.join("missing.json")).is_err());
    assert!(pimsim::nn::Network::from_file(dir.join("missing.json")).is_err());
}

#[test]
fn errors_are_send_sync_std_errors() {
    fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
    assert_err::<CompileError>();
    assert_err::<SimError>();
    assert_err::<pimsim::arch::ArchError>();
    assert_err::<pimsim::nn::NnError>();
    assert_err::<pimsim::isa::IsaError>();
    assert_err::<pimsim::baseline::BaselineError>();
}
