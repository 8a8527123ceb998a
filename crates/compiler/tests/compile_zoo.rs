//! Compilation smoke tests over the model zoo and both mapping policies.

use pimsim_arch::ArchConfig;
use pimsim_compiler::{Compiler, MappingPolicy};
use pimsim_nn::zoo;

#[test]
fn zoo_compiles_under_both_policies_on_paper_chip() {
    let arch = ArchConfig::paper_default();
    for name in [
        "alexnet",
        "googlenet",
        "resnet18",
        "squeezenet",
        "vgg8",
        "vgg16",
    ] {
        let hw = if name.starts_with("vgg") { 32 } else { 64 };
        let net = zoo::by_name(name, hw).unwrap();
        for policy in [
            MappingPolicy::UtilizationFirst,
            MappingPolicy::PerformanceFirst,
        ] {
            let compiled = Compiler::new(&arch)
                .mapping(policy)
                .compile(&net)
                .unwrap_or_else(|e| panic!("{name} under {policy}: {e}"));
            assert!(
                compiled.program.total_instructions() > 100,
                "{name} under {policy} produced a trivial program"
            );
            // All four instruction classes appear in a compiled CNN.
            let mut classes = [0usize; 4];
            for core in &compiled.program.cores {
                let h = core.class_histogram();
                for i in 0..4 {
                    classes[i] += h[i];
                }
            }
            assert!(classes[0] > 0, "{name}: no matrix instructions");
            assert!(classes[1] > 0, "{name}: no vector instructions");
            assert!(classes[2] > 0, "{name}: no transfer instructions");
            assert!(classes[3] > 0, "{name}: no scalar instructions");
        }
    }
}

#[test]
fn functional_compile_attaches_weights_and_input() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_mlp();
    let compiled = Compiler::new(&arch).compile(&net).unwrap();
    assert!(!compiled.program.global_init.is_empty(), "input staged");
    let has_weights = compiled
        .program
        .cores
        .iter()
        .flat_map(|c| &c.groups)
        .any(|g| g.weights.is_some());
    assert!(has_weights, "functional compile should attach weights");
}

#[test]
fn timing_only_compile_stays_lean() {
    let arch = ArchConfig::paper_default();
    let net = zoo::vgg8(32);
    let compiled = Compiler::new(&arch)
        .functional(false)
        .compile(&net)
        .unwrap();
    assert!(compiled.program.global_init.is_empty());
    assert!(compiled
        .program
        .cores
        .iter()
        .flat_map(|c| &c.groups)
        .all(|g| g.weights.is_none()));
}

#[test]
fn tags_align_with_instructions() {
    let arch = ArchConfig::small_test();
    let net = zoo::tiny_cnn();
    let compiled = Compiler::new(&arch).compile(&net).unwrap();
    for core in &compiled.program.cores {
        if !core.instrs.is_empty() {
            assert_eq!(core.instr_tags.len(), core.instrs.len());
        }
    }
    // Tag values reference real nodes.
    let n = compiled.node_names.len() as u16;
    for core in &compiled.program.cores {
        for &t in &core.instr_tags {
            assert!(t < n, "tag {t} out of range");
        }
    }
}

#[test]
fn unmappable_reports_typed_error() {
    let mut arch = ArchConfig::small_test();
    arch.resources.core_rows = 1;
    arch.resources.core_cols = 1;
    arch.resources.xbars_per_core = 2;
    let net = zoo::vgg8(32);
    let e = Compiler::new(&arch).compile(&net).unwrap_err();
    assert!(
        matches!(e, pimsim_compiler::CompileError::Unmappable { .. }),
        "got {e}"
    );
}

/// Every zoo network, under both policies, must come out of codegen
/// *analysis-clean*: no dataflow warnings, no rendezvous errors, and a
/// complete send/recv pairing. This is the compiler's contract with
/// `pimsim-analyze` — a regression here means codegen emitted a program
/// with a statically-detectable defect.
#[test]
fn zoo_compiles_analysis_clean() {
    let arch = ArchConfig::paper_default();
    for name in zoo::NAMES {
        let hw = if name.starts_with("vgg") { 32 } else { 64 };
        let net = zoo::by_name(name, hw).unwrap();
        for policy in [
            MappingPolicy::UtilizationFirst,
            MappingPolicy::PerformanceFirst,
        ] {
            let compiled = Compiler::new(&arch)
                .mapping(policy)
                .compile(&net)
                .unwrap_or_else(|e| panic!("{name} under {policy}: {e}"));
            let analysis = pimsim_analyze::analyze(&compiled.program, &arch);
            assert!(
                analysis.diagnostics.is_empty(),
                "{name} under {policy} is not analysis-clean:\n{}",
                analysis
                    .diagnostics
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            assert!(
                analysis.rendezvous.complete,
                "{name} under {policy}: rendezvous map incomplete"
            );
        }
    }
}

/// Regression test for the crossed-edge deadlock (found by `pimsim check`):
/// resnet34 under UtilizationFirst places `layer2.3/add` (producer P0) and
/// `layer3.0/conv1` (P1) on one core and `layer3.0/conv2` (C1, consuming
/// P1) and `layer3.0/downsample` (C0, consuming P0) on another, with
/// section order P0 < P1 < C1 < C0. The sender streams P0→C0 rows first
/// while the receiver blocks in C1 on P1 rows the sender has not reached —
/// with 2 channel credits the fabric wedged at runtime. Codegen now drains
/// crossed edges eagerly so each core pair's receive order matches its
/// send order; the analyzer's abstract execution certifies it.
#[test]
fn resnet34_utilization_first_has_no_crossed_edge_deadlock() {
    let arch = ArchConfig::paper_default();
    let net = zoo::by_name("resnet34", 64).unwrap();
    let compiled = Compiler::new(&arch)
        .mapping(MappingPolicy::UtilizationFirst)
        .compile(&net)
        .unwrap();
    let analysis = pimsim_analyze::analyze(&compiled.program, &arch);
    let deadlocks: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.kind == pimsim_analyze::DiagKind::DeadlockCycle)
        .collect();
    assert!(deadlocks.is_empty(), "static deadlock: {deadlocks:?}");
    assert!(analysis.rendezvous.complete);

    // The receive order on every core now matches each sender's send
    // order — the property whose violation caused the wedge.
    use pimsim_isa::Instruction as I;
    use std::collections::HashMap;
    let mut sent: HashMap<(u16, u16), Vec<u16>> = HashMap::new();
    let mut recvd: HashMap<(u16, u16), Vec<u16>> = HashMap::new();
    for (c, core) in compiled.program.cores.iter().enumerate() {
        for i in &core.instrs {
            match i {
                I::Send { peer, tag, .. } => sent.entry((c as u16, peer.0)).or_default().push(*tag),
                I::Recv { peer, tag, .. } | I::Recv2d { peer, tag, .. } => {
                    recvd.entry((peer.0, c as u16)).or_default().push(*tag)
                }
                _ => {}
            }
        }
    }
    for (pair, tags) in &sent {
        assert_eq!(
            Some(tags),
            recvd.get(pair),
            "send/recv tag order differs on channel {pair:?}"
        );
    }
}
