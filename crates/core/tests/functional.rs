//! End-to-end functional correctness: compile → simulate → compare
//! bit-exactly against the golden forward pass, under both mapping
//! policies and several chip geometries.

use pimsim_arch::ArchConfig;
use pimsim_compiler::{Compiled, Compiler, MappingPolicy};
use pimsim_core::Simulator;
use pimsim_isa::{limits, Instruction, Reg, SImmOp};
use pimsim_nn::{zoo, GoldenModel, Network, WeightGen};

/// Compiles and simulates `net` functionally, returning (simulated output,
/// golden output).
fn run_both(net: &Network, arch: &ArchConfig, policy: MappingPolicy) -> (Vec<i32>, Vec<i32>) {
    let compiled = Compiler::new(arch)
        .mapping(policy)
        .compile(net)
        .unwrap_or_else(|e| panic!("compile {}: {e}", net.name));
    run_compiled(net, arch, &compiled)
}

/// Simulates a functional compile of `net`, returning (simulated output,
/// golden output).
fn run_compiled(net: &Network, arch: &ArchConfig, compiled: &Compiled) -> (Vec<i32>, Vec<i32>) {
    let report = Simulator::new(arch)
        .run(&compiled.program)
        .unwrap_or_else(|e| panic!("simulate {}: {e}", net.name));
    let sim_out = report.read_global(compiled.output.gaddr, compiled.output.elems);

    let gen = WeightGen::for_network(net);
    let golden = GoldenModel::new(net, gen);
    let input = gen.input(net.input_shape.elems());
    let gold_out = golden.run(&input).unwrap();
    (sim_out, gold_out)
}

#[test]
fn mlp_matches_golden_performance_first() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let (sim, gold) = run_both(&net, &arch, MappingPolicy::PerformanceFirst);
    assert_eq!(sim, gold);
}

#[test]
fn mlp_matches_golden_utilization_first() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let (sim, gold) = run_both(&net, &arch, MappingPolicy::UtilizationFirst);
    assert_eq!(sim, gold);
}

#[test]
fn cnn_with_every_operator_matches_golden() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_cnn();
    for policy in [
        MappingPolicy::PerformanceFirst,
        MappingPolicy::UtilizationFirst,
    ] {
        let (sim, gold) = run_both(&net, &arch, policy);
        assert_eq!(sim, gold, "mismatch under {policy}");
    }
}

#[test]
fn forced_multi_core_spanning_matches_golden() {
    // Tiny cores force both column splits and row splits.
    let mut arch = ArchConfig::small_test();
    arch.resources.core_rows = 4;
    arch.resources.core_cols = 4;
    arch.resources.xbars_per_core = 2;
    let net = zoo::tiny_mlp();
    for policy in [
        MappingPolicy::PerformanceFirst,
        MappingPolicy::UtilizationFirst,
    ] {
        let (sim, gold) = run_both(&net, &arch, policy);
        assert_eq!(sim, gold, "mismatch under {policy}");
    }
}

#[test]
fn deep_residual_net_matches_golden() {
    // A deeper residual/catenated network at a slightly larger resolution.
    let arch = ArchConfig::small_test();
    let net = tiny_resnet();
    for policy in [
        MappingPolicy::PerformanceFirst,
        MappingPolicy::UtilizationFirst,
    ] {
        let (sim, gold) = run_both(&net, &arch, policy);
        assert_eq!(sim, gold, "mismatch under {policy}");
    }
}

/// A miniature ResNet-style network: stem conv, two residual blocks (one
/// with projection), global pool, classifier.
fn tiny_resnet() -> Network {
    use pimsim_nn::{Activation, Layer, PortRef, Shape};
    const RELU: Option<Activation> = Some(Activation::Relu);
    let mut b = Network::builder("tiny_resnet", Shape::new(12, 12, 3));
    let conv = |b: &mut pimsim_nn::NetworkBuilder,
                name: &str,
                input: PortRef,
                ch: u32,
                k: u32,
                s: u32,
                p: u32,
                act: Option<Activation>| {
        b.add(
            name,
            Layer::Conv2d {
                out_channels: ch,
                kernel: k,
                stride: s,
                padding: p,
                activation: act,
            },
            vec![input],
        )
    };
    let stem = conv(&mut b, "stem", PortRef::Input, 8, 3, 1, 1, RELU);
    // Block 1: identity shortcut.
    let c1a = conv(&mut b, "b1/conv1", stem, 8, 3, 1, 1, RELU);
    let c1b = conv(&mut b, "b1/conv2", c1a, 8, 3, 1, 1, None);
    let add1 = b.add("b1/add", Layer::Add { activation: RELU }, vec![stem, c1b]);
    // Block 2: stride-2 with projection shortcut.
    let c2a = conv(&mut b, "b2/conv1", add1, 16, 3, 2, 1, RELU);
    let c2b = conv(&mut b, "b2/conv2", c2a, 16, 3, 1, 1, None);
    let proj = conv(&mut b, "b2/proj", add1, 16, 1, 2, 0, None);
    let add2 = b.add("b2/add", Layer::Add { activation: RELU }, vec![proj, c2b]);
    let gap = b.add("gap", Layer::GlobalAvgPool, vec![add2]);
    b.add(
        "fc",
        Layer::Linear {
            out_features: 10,
            activation: None,
        },
        vec![gap],
    );
    b.finish().expect("tiny_resnet is well-formed")
}

#[test]
fn both_policies_agree_functionally() {
    // Different placements must never change results, only timing.
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_cnn();
    let (a, _) = run_both(&net, &arch, MappingPolicy::PerformanceFirst);
    let (b, _) = run_both(&net, &arch, MappingPolicy::UtilizationFirst);
    assert_eq!(a, b);
}

#[test]
fn rob_size_does_not_change_results() {
    let base = ArchConfig::small_test();
    let net = zoo::tiny_cnn();
    let mut reference: Option<Vec<i32>> = None;
    for rob in [1u32, 4, 16] {
        let arch = base.clone().with_rob(rob);
        let (sim, gold) = run_both(&net, &arch, MappingPolicy::PerformanceFirst);
        assert_eq!(sim, gold, "rob={rob} broke correctness");
        if let Some(r) = &reference {
            assert_eq!(&sim, r, "rob={rob} changed results");
        }
        reference = Some(sim);
    }
}

#[test]
fn rows_past_the_length_field_are_chunked() {
    // 600x512 rows hold 307,200 elements, past the 18-bit length field
    // (262,143): every transfer and vector op on a row splits in two, and
    // the buffers reach past the 22-bit offset field, so operands go
    // through base registers.
    use pimsim_nn::{Activation, Layer, PortRef, Shape};
    let mut b = Network::builder("wide_rows", Shape::new(2, 600, 512));
    let act = b.add(
        "act",
        Layer::Activation(Activation::Relu),
        vec![PortRef::Input],
    );
    b.add(
        "res_add",
        Layer::Add { activation: None },
        vec![PortRef::Input, act],
    );
    let net = b.finish().expect("wide_rows is well-formed");
    let arch = ArchConfig::paper_default().with_functional(true);
    let compiled = Compiler::new(&arch).compile(&net).expect("compiles");
    let (sim, gold) = run_compiled(&net, &arch, &compiled);
    assert_eq!(sim, gold);

    let len_max = limits::umax(limits::LEN_BITS) as u32;
    let instrs: Vec<&Instruction> = compiled
        .program
        .cores
        .iter()
        .flat_map(|c| &c.instrs)
        .collect();
    let full_chunks = instrs
        .iter()
        .filter(|i| match i {
            Instruction::GLoad { len, .. }
            | Instruction::GStore { len, .. }
            | Instruction::VUn { len, .. }
            | Instruction::VBin { len, .. } => *len == len_max,
            _ => false,
        })
        .count();
    // Per row: two loads, the activation, the copy forwarding it to the
    // add, the add and the store.
    assert_eq!(full_chunks, 2 * 6, "one LEN_MAX chunk per row operation");
    let base_loads = instrs
        .iter()
        .filter(|i| {
            matches!(i, Instruction::SImm { op: SImmOp::Add, rd, rs1: Reg::R0, .. } if *rd != Reg::R0)
        })
        .count();
    assert!(base_loads > 0, "no base-register load was emitted");
}

#[test]
fn addresses_are_fixed_at_dispatch() {
    // Core 0's first `recv` waits for core 1, which sends only after a
    // 60,000-element fill. Every loop instruction touches the `recv`'s
    // buffer, so the whole loop dispatches (its `addi`s running at once)
    // and waits in the ROB before any of it issues. Iteration `i`, step
    // `k` owns the eight elements at 1000 + 64i + 8k of core 0 (global
    // 64i + 40 for the store): each step must act where `r1` pointed when
    // it dispatched, not where `r1` points when it issues.
    let text = "\
        .core 0
        vfill [r0+0], 10, 64
        vfill [r0+64], 11, 64
        vfill [r0+128], 12, 64
        vfill [r0+192], 13, 64
        vfill [r0+256], 3, 8
        recv core1, [r0+1000], 256, tag=9
        li r2, 256
        loop:
        vfill [r1+1000], 7, 8
        addi r1, r1, 8
        vcopy2d [r1+1000], [r1-8], block=4, blocks=2, sstride=8, dstride=4
        addi r1, r1, 8
        vsub [r1+1000], [r1-16], [r0+256], 8
        addi r1, r1, 8
        send core2, [r1+984], 8, tag=1
        addi r1, r1, 8
        recv2d core2, [r1+1000], block=4, blocks=2, dstride=4, tag=2
        addi r1, r1, 8
        gstore g[r1+0], [r1+976], 8
        addi r1, r1, 8
        gload [r1+1000], g[r1-8], 8
        addi r1, r1, 8
        addi r1, r1, 8
        blt r1, r2, loop
        halt
        .core 1
        vfill [r0+0], 1, 60000
        send core0, [r0+0], 256, tag=9
        halt
        .core 2
        li r2, 32
        echo:
        recv core0, [r1+0], 8, tag=1
        send core0, [r1+0], 8, tag=2
        addi r1, r1, 8
        blt r1, r2, echo
        halt
    ";
    let program = pimsim_isa::asm::assemble(text).expect("assembles");
    let arch = ArchConfig::small_test().with_rob(64);
    let report = Simulator::new(&arch).run(&program).expect("runs");
    for i in 0..4u32 {
        let slot = |k: u32| report.read_local(0, 1000 + 64 * i + 8 * k, 8);
        let (fill, copied, diff) = (vec![7; 8], vec![10 + i as i32; 8], vec![7 + i as i32; 8]);
        assert_eq!(slot(0), fill, "iteration {i}: vfill");
        assert_eq!(slot(1), copied, "iteration {i}: vcopy2d");
        assert_eq!(slot(2), diff, "iteration {i}: vsub");
        assert_eq!(
            slot(3),
            [1; 8],
            "iteration {i}: the send's step keeps the recv's data"
        );
        assert_eq!(
            report.read_local(2, 8 * i, 8),
            copied,
            "iteration {i}: send"
        );
        assert_eq!(slot(4), copied, "iteration {i}: recv2d");
        assert_eq!(
            report.read_global(64 * i as u64 + 40, 8),
            diff,
            "iteration {i}: gstore"
        );
        assert_eq!(slot(6), diff, "iteration {i}: gload");
    }
}
