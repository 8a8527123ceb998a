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
