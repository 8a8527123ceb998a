//! Workspace-level integration tests: the full ISA → compiler → simulator
//! stack, exercised through the `pimsim` facade crate.

use pimsim::nn::{zoo, GoldenModel, WeightGen};
use pimsim::prelude::*;

/// Compile + simulate functionally, returning the output tensor.
fn simulate(net: &pimsim::nn::Network, arch: &ArchConfig, policy: MappingPolicy) -> Vec<i32> {
    let compiled = Compiler::new(arch).mapping(policy).compile(net).unwrap();
    let report = Simulator::new(arch).run(&compiled.program).unwrap();
    report.read_global(compiled.output.gaddr, compiled.output.elems)
}

#[test]
fn quickstart_flow_matches_golden() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let gen = WeightGen::for_network(&net);
    let golden = GoldenModel::new(&net, gen)
        .run(&gen.input(net.input_shape.elems()))
        .unwrap();
    assert_eq!(
        simulate(&net, &arch, MappingPolicy::PerformanceFirst),
        golden
    );
}

#[test]
fn batched_inference_repeats_the_same_output() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let compiled = Compiler::new(&arch)
        .mapping(MappingPolicy::PerformanceFirst)
        .batch(3)
        .compile(&net)
        .unwrap();
    let report = Simulator::new(&arch).run(&compiled.program).unwrap();
    let n = compiled.output.elems;
    let first = report.read_global(compiled.output.gaddr, n);
    for img in 1..3u64 {
        let other = report.read_global(compiled.output.gaddr + img * n as u64, n);
        assert_eq!(other, first, "image {img} must produce identical output");
    }
    let gen = WeightGen::for_network(&net);
    let golden = GoldenModel::new(&net, gen)
        .run(&gen.input(net.input_shape.elems()))
        .unwrap();
    assert_eq!(first, golden);
}

#[test]
fn batching_pipelines_across_cores() {
    // Per-image latency with a batch must beat single-image latency
    // (layers on distinct cores overlap across images).
    let arch = ArchConfig::paper_default().with_rob(4);
    let net = zoo::vgg8(32);
    let one = {
        let c = Compiler::new(&arch)
            .mapping(MappingPolicy::PerformanceFirst)
            .functional(false)
            .compile(&net)
            .unwrap();
        Simulator::new(&arch).run(&c.program).unwrap().latency
    };
    let four = {
        let c = Compiler::new(&arch)
            .mapping(MappingPolicy::PerformanceFirst)
            .functional(false)
            .batch(4)
            .compile(&net)
            .unwrap();
        Simulator::new(&arch).run(&c.program).unwrap().latency / 4
    };
    assert!(
        four.as_ps() < one.as_ps(),
        "pipelined per-image latency {four} should beat single-image {one}"
    );
}

#[test]
fn rob_latency_is_monotone_nonincreasing() {
    let net = zoo::tiny_cnn();
    let mut prev: Option<u64> = None;
    for rob in [1u32, 4, 16] {
        let arch = ArchConfig::small_test().with_rob(rob);
        let compiled = Compiler::new(&arch)
            .mapping(MappingPolicy::PerformanceFirst)
            .functional(false)
            .compile(&net)
            .unwrap();
        let lat = Simulator::new(&arch)
            .run(&compiled.program)
            .unwrap()
            .latency
            .as_ps();
        if let Some(p) = prev {
            // Allow 2% slack: a bigger window can slightly reshuffle NoC
            // contention, but the trend must hold.
            assert!(
                lat <= p + p / 50,
                "rob={rob} latency {lat} worse than previous {p}"
            );
        }
        prev = Some(lat);
    }
}

#[test]
fn performance_first_beats_utilization_first_on_branchy_nets() {
    let arch = ArchConfig::paper_default().with_rob(1);
    let net = zoo::squeezenet(64);
    let run = |policy| {
        let c = Compiler::new(&arch)
            .mapping(policy)
            .functional(false)
            .batch(2)
            .compile(&net)
            .unwrap();
        Simulator::new(&arch).run(&c.program).unwrap().latency
    };
    let util = run(MappingPolicy::UtilizationFirst);
    let perf = run(MappingPolicy::PerformanceFirst);
    assert!(
        perf < util,
        "performance-first ({perf}) should beat utilization-first ({util})"
    );
}

#[test]
fn determinism_of_full_stack() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_cnn();
    let a = simulate(&net, &arch, MappingPolicy::UtilizationFirst);
    let b = simulate(&net, &arch, MappingPolicy::UtilizationFirst);
    assert_eq!(a, b);

    let arch2 = ArchConfig::paper_default().with_rob(8);
    let compiled = Compiler::new(&arch2)
        .mapping(MappingPolicy::PerformanceFirst)
        .functional(false)
        .compile(&zoo::vgg8(32))
        .unwrap();
    let r1 = Simulator::new(&arch2).run(&compiled.program).unwrap();
    let r2 = Simulator::new(&arch2).run(&compiled.program).unwrap();
    assert_eq!(r1.latency, r2.latency);
    assert_eq!(r1.events, r2.events);
}

#[test]
fn program_json_roundtrip_preserves_simulation() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let compiled = Compiler::new(&arch)
        .mapping(MappingPolicy::PerformanceFirst)
        .compile(&net)
        .unwrap();
    let json = compiled.program.to_json();
    let back = Program::from_json(&json).unwrap();
    assert_eq!(back, compiled.program);
    let r1 = Simulator::new(&arch).run(&compiled.program).unwrap();
    let r2 = Simulator::new(&arch).run(&back).unwrap();
    assert_eq!(r1.latency, r2.latency);
}

#[test]
fn disassembly_of_compiled_program_reassembles() {
    // Weight matrices are elided by the disassembler, so compile
    // timing-only and compare instruction streams.
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let compiled = Compiler::new(&arch)
        .mapping(MappingPolicy::PerformanceFirst)
        .functional(false)
        .compile(&net)
        .unwrap();
    let text = pimsim::isa::asm::disassemble(&compiled.program);
    let back = pimsim::isa::asm::assemble(&text).unwrap();
    for (a, b) in compiled.program.cores.iter().zip(&back.cores) {
        assert_eq!(a.instrs, b.instrs);
        assert_eq!(a.groups, b.groups);
    }
}

#[test]
fn network_description_file_flow() {
    // Network -> JSON file -> Network -> compile -> simulate == golden.
    let dir = std::env::temp_dir().join("pimsim-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net.json");
    let net = zoo::tiny_cnn();
    net.to_file(&path).unwrap();
    let loaded = pimsim::nn::Network::from_file(&path).unwrap();
    assert_eq!(loaded, net);

    let arch = ArchConfig::small_test();
    let out = simulate(&loaded, &arch, MappingPolicy::PerformanceFirst);
    let gen = WeightGen::for_network(&net);
    let golden = GoldenModel::new(&net, gen)
        .run(&gen.input(net.input_shape.elems()))
        .unwrap();
    assert_eq!(out, golden);
}

#[test]
fn baseline_reports_lower_comm_share_than_cycle_accurate() {
    // Fig. 5's claim on each of its networks, at `fig5`'s settings.
    use pimsim::baseline::BaselineSimulator;
    let arch = ArchConfig::paper_default().with_rob(16);
    for name in ["vgg8", "vgg16", "resnet18"] {
        let net = zoo::by_name(name, 32).unwrap();
        let base = BaselineSimulator::new(&arch).run(&net).unwrap();
        let compiled = Compiler::new(&arch)
            .mapping(MappingPolicy::PerformanceFirst)
            .functional(false)
            .compile(&net)
            .unwrap();
        let ours = Simulator::new(&arch).run(&compiled.program).unwrap();

        // Second convolution, as in the paper's analysis.
        let conv2 = compiled
            .node_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.contains("conv"))
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        let base_ratio = base.per_layer[conv2].comm_ratio();
        let ours_ratio = ours.comm_ratio(conv2 as u16);
        assert!(
            ours_ratio > base_ratio,
            "{name}: synchronized transfers must show a larger comm share \
             ({ours_ratio:.3} vs {base_ratio:.3})"
        );
        // And the cycle-accurate simulator must be slower end to end.
        assert!(ours.latency > base.latency, "{name}");
    }
}

#[test]
fn mesh_size_affects_latency_not_results() {
    let net = zoo::tiny_cnn();
    let small = ArchConfig::small_test();
    let mut wide = ArchConfig::small_test();
    wide.resources.core_rows = 4;
    wide.resources.core_cols = 4;
    let a = simulate(&net, &small, MappingPolicy::PerformanceFirst);
    let b = simulate(&net, &wide, MappingPolicy::PerformanceFirst);
    assert_eq!(a, b, "chip geometry must not change functional results");
}

#[test]
fn extended_zoo_compiles_and_simulates() {
    // The zoo networks beyond the paper's evaluation set also run end to
    // end (timing-only on the paper chip).
    let arch = ArchConfig::paper_default().with_rob(8);
    for (name, hw) in [("lenet", 32), ("vgg11", 32), ("resnet34", 32)] {
        let net = pimsim::nn::zoo::by_name(name, hw).unwrap();
        let compiled = Compiler::new(&arch)
            .mapping(MappingPolicy::PerformanceFirst)
            .functional(false)
            .compile(&net)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = Simulator::new(&arch)
            .run(&compiled.program)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.latency.as_ns_f64() > 0.0, "{name}");
    }
}

#[test]
fn lenet_matches_golden_functionally() {
    // Tanh activations + average pooling, end to end. LeNet's 5x5 convs
    // need a few more of the tiny 16x16-crossbar cores than the default
    // test chip offers.
    let mut arch = ArchConfig::small_test();
    arch.resources.core_rows = 6;
    arch.resources.core_cols = 6;
    let net = pimsim::nn::zoo::lenet(32);
    let gen = WeightGen::for_network(&net);
    let golden = GoldenModel::new(&net, gen)
        .run(&gen.input(net.input_shape.elems()))
        .unwrap();
    assert_eq!(
        simulate(&net, &arch, MappingPolicy::PerformanceFirst),
        golden
    );
}
