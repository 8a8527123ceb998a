//! Differential soundness gate for the static performance bounds.
//!
//! For compiler-produced zoo programs the static analyzer must emit a
//! latency **lower** bound: `bounds(...).latency_lb_ps` may never exceed
//! the latency the simulator measures, under either mapping policy. A
//! violation means either the analyzer invented a
//! constraint the machine does not enforce, or the simulator's cost
//! model drifted below the shared pricing tables — both are bugs worth
//! failing loudly on. Every zoo network runs here under both mappings,
//! at the resolutions the CLI defaults to (CI repeats
//! the sweep through the `pimsim bound` binary).
//!
//! The second half pins the *size* of the dependence DAG: the bounds
//! pass stays cheap only while the graph stores a covering set of the
//! hazards rather than every conflicting pair.

use pimsim::analyze::dag::Dag;
use pimsim::analyze::Cfg;
use pimsim::nn::zoo;
use pimsim::prelude::*;

/// Asserts bound soundness + determinism for one network on one arch.
fn assert_sound(net: &Network, arch: &ArchConfig) {
    for policy in [
        MappingPolicy::UtilizationFirst,
        MappingPolicy::PerformanceFirst,
    ] {
        let compiled = Compiler::new(arch)
            .mapping(policy)
            .functional(false)
            .compile(net)
            .unwrap();
        let report = bounds(&compiled.program, arch);
        assert!(
            report.complete,
            "{policy:?}: compiler output should be fully analyzable: {:?}",
            report.diagnostics
        );
        assert!(report.latency_lb_ps > 0, "{policy:?}: trivial bound");
        // Determinism: a second run serializes byte-identically.
        assert_eq!(
            report.to_json(),
            bounds(&compiled.program, arch).to_json(),
            "{policy:?}: bound must be deterministic"
        );
        let sim = Simulator::new(arch).run(&compiled.program).unwrap();
        assert!(
            report.latency_lb_ps <= sim.latency.as_ps(),
            "{policy:?}: static bound {} ps exceeds simulated {} ps",
            report.latency_lb_ps,
            sim.latency.as_ps()
        );
    }
}

#[test]
fn tiny_mlp_bound_is_sound() {
    assert_sound(&zoo::tiny_mlp(), &ArchConfig::small_test());
}

#[test]
fn tiny_cnn_bound_is_sound() {
    assert_sound(&zoo::tiny_cnn(), &ArchConfig::small_test());
}

#[test]
fn every_zoo_network_bound_is_sound() {
    let arch = ArchConfig::paper_default();
    for &name in zoo::NAMES {
        let size = if name.starts_with("vgg") { 32 } else { 64 };
        assert_sound(&zoo::by_name(name, size).unwrap(), &arch);
    }
}

#[test]
fn bound_is_sound_across_arch_knobs() {
    // The pricing must stay a lower bound when the knobs it feeds on
    // move: deeper routers, fewer credits, tight ROB, more VCs.
    let net = zoo::tiny_cnn();
    let mut arch = ArchConfig::small_test()
        .with_rob(2)
        .with_router_pipeline_depth(3)
        .with_virtual_channels(2);
    arch.noc.channel_credits = 1;
    assert_sound(&net, &arch);
}

/// Stored same-core edges and nodes of `program`'s dependence DAG.
fn dag_size(program: &Program, arch: &ArchConfig) -> (usize, usize) {
    let analysis = analyze(program, arch);
    assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
    let traces: Vec<_> = program
        .cores
        .iter()
        .map(|c| Cfg::build(&c.instrs).linear_trace())
        .collect();
    let dag = Dag::build(program, &traces);
    (dag.edges.len(), dag.nodes.len())
}

#[test]
fn dag_edge_count_stays_linear_in_nodes() {
    // A complexity pin, not a timing test: all-pairs hazard edges are
    // quadratic on exactly these shapes (lenet@32 had ~100 edges per
    // node), so a change that quietly stores them again fails here.
    let compiled = |net: &Network, arch: &ArchConfig| {
        let compiled = Compiler::new(arch).functional(false).compile(net);
        compiled.unwrap().program
    };
    let paper = ArchConfig::paper_default();
    let small = ArchConfig::small_test();
    // The shape that made lenet quadratic: one buffer, received, used
    // and overwritten 500 times over, fully unrolled.
    let mut unrolled = String::from(".core 0\n");
    for _ in 0..500 {
        unrolled.push_str(
            "gload [r0+0], g[r0+0], 64\n\
             vrelu [r0+64], [r0+0], 64\n\
             vadd [r0+128], [r0+128], [r0+64], 64\n\
             gstore g[r0+64], [r0+128], 64\n",
        );
    }
    unrolled.push_str("halt\n");
    let unrolled = pimsim::isa::asm::assemble(&unrolled).unwrap();
    for (what, program, arch) in [
        ("lenet@32", compiled(&zoo::lenet(32), &paper), &paper),
        ("tiny_cnn", compiled(&zoo::tiny_cnn(), &small), &small),
        ("unrolled loop", unrolled, &small),
    ] {
        let (edges, nodes) = dag_size(&program, arch);
        assert!(nodes >= 100, "{what}: only {nodes} nodes");
        assert!(
            edges <= 8 * nodes,
            "{what}: {edges} edges for {nodes} nodes"
        );
    }
}

#[test]
fn zero_length_gload_inside_a_gstore_does_not_wait() {
    // A zero-length global access overlaps nothing, so it conflicts with
    // nothing — not even a store whose interval lies strictly around its
    // address. The machine and the analyzer share that rule: in `run` the
    // load completes exactly when it does beside a store elsewhere (it
    // still queues behind the store for the memory link), and `bound`
    // stores no edge.
    let program = |store_at: u32| {
        pimsim::isa::asm::assemble(&format!(
            ".core 0\n\
             gstore g[r0+{store_at}], [r0+0], 64\n\
             gload [r0+500], g[r0+104], 0\n\
             halt\n"
        ))
        .unwrap()
    };
    let mut arch = ArchConfig::small_test().with_functional(false);
    arch.sim.trace = true;
    let load_done = |program: &Program| {
        let sim = Simulator::new(&arch).run(program).unwrap();
        let load = sim.trace.iter().find(|t| t.instr.starts_with("gload"));
        load.expect("the load retired").time
    };
    let around = program(100);
    assert_eq!(
        load_done(&around),
        load_done(&program(1000)),
        "the empty load must not wait for the store around it"
    );

    let traces: Vec<_> = (around.cores.iter())
        .map(|c| Cfg::build(&c.instrs).linear_trace())
        .collect();
    let dag = Dag::build(&around, &traces);
    assert_eq!(dag.nodes.len(), 2);
    assert!(
        dag.preds(1).is_empty(),
        "no hazard edge: {:?}",
        dag.preds(1)
    );
    let sim = Simulator::new(&arch).run(&around).unwrap();
    let report = bounds(&around, &arch);
    assert!(report.latency_lb_ps <= sim.latency.as_ps());
    assert_eq!(report.critical_path_len, 1, "the store alone");
}
