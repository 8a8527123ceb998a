//! Pins the static bound analyzer's pricing helpers to the simulator's
//! own arithmetic, so the two cannot drift apart silently.
//!
//! The soundness contract (`static lower bound <= simulated latency`)
//! only holds while the analyzer prices a node at or below what the
//! machine charges for it. These tests assert *exact equality* on an
//! idle fabric — the analyzer's minima are precisely the uncontended
//! costs — across a grid of shapes, payload sizes and arch knobs,
//! including non-default router depths, link widths and frequencies.

use pimsim_analyze::bounds::{memory_access_min, message_min};
use pimsim_analyze::dag::{Dag, ServiceKind};
use pimsim_analyze::Cfg;
use pimsim_arch::model::CostModel;
use pimsim_arch::ArchConfig;
use pimsim_core::Noc;
use pimsim_event::SimTime;
use pimsim_isa::asm::assemble;
use pimsim_isa::{resolve, VectorShape};

/// Arch variants exercising the knobs the pricing depends on.
fn arches() -> Vec<ArchConfig> {
    let mut v = vec![ArchConfig::small_test(), ArchConfig::paper_default()];
    let mut deep = ArchConfig::small_test().with_router_pipeline_depth(3);
    deep.noc.hop_cycles = 2;
    deep.noc.link_flits_per_cycle = 0.5;
    v.push(deep);
    let mut fast = ArchConfig::paper_default();
    fast.timing.dispatch_width = 3;
    fast.timing.decode_cycles = 7;
    fast.noc.flit_bytes = 8;
    v.push(fast);
    v
}

#[test]
fn message_min_matches_idle_noc_delivery() {
    for arch in arches() {
        let model = CostModel::new(&arch);
        let cores = arch.resources.cores();
        let start = SimTime::from_ns(3);
        for &from in &[0u16, 1, cores - 1] {
            for &to in &[0u16, 1, cores / 2, cores - 1] {
                for &elems in &[1u32, 16, 300, 4096] {
                    // Fresh fabric per probe: no residual reservations.
                    let mut noc = Noc::for_arch(&arch);
                    let done = noc.message(from, to, elems, start, &model);
                    let min = message_min(&model, from, to, elems);
                    assert_eq!(
                        done,
                        start + min,
                        "message {from}->{to} x{elems} on {}x{}",
                        arch.resources.core_rows,
                        arch.resources.core_cols
                    );
                }
            }
        }
    }
}

#[test]
fn memory_access_min_matches_idle_noc_access() {
    for arch in arches() {
        let model = CostModel::new(&arch);
        let cores = arch.resources.cores();
        let start = SimTime::from_ns(5);
        for &core in &[0u16, 1, cores / 2, cores - 1] {
            for &elems in &[1u32, 64, 1000] {
                let mut noc = Noc::for_arch(&arch);
                let done = noc.memory_access(core, elems, start, &model);
                let min = memory_access_min(&model, core, elems);
                assert_eq!(done, start + min, "gmem access from core{core} x{elems}");
            }
        }
    }
}

/// The simulator and the bound analyzer both price vector work through
/// the ISA's one classification, [`Resolved::vector_shape`]: the shape of
/// every vector instruction kind is pinned here, and the DAG node the
/// analyzer builds for it carries that same shape.
#[test]
fn vector_shapes_price_identically_everywhere() {
    let cases = [
        ("vadd [r1+0], [r1+8], [r1+16], 129", (129, 2, 1)),
        ("vmuli [r1+0], [r1+8], 2, 77", (77, 1, 1)),
        ("vsigmoid [r1+0], [r1+8], 31", (31, 1, 1)),
        ("vfill [r1+0], 4, 200", (200, 0, 1)),
        (
            "vcopy2d [r1+0], [r1+8], block=9, blocks=13, sstride=11, dstride=9",
            (117, 1, 1),
        ),
        (
            "vpool.max [r1+0], [r1+8], ch=16, win=3x3, rstride=48",
            (144, 1, 1),
        ),
    ];
    let mut text = String::from(".core 0\n");
    for (instr, _) in &cases {
        text.push_str(instr);
        text.push('\n');
    }
    text.push_str("halt\n");
    let program = assemble(&text).unwrap();
    let traces: Vec<_> = program
        .cores
        .iter()
        .map(|c| Cfg::build(&c.instrs).linear_trace())
        .collect();
    let dag = Dag::build(&program, &traces);
    assert_eq!(dag.nodes.len(), cases.len());
    for ((text, (len, reads, writes)), node) in cases.iter().zip(&dag.nodes) {
        let instr = &program.cores[0].instrs[node.pc as usize];
        let shape = resolve(instr, &[0; 32]).and_then(|r| r.vector_shape());
        let want = VectorShape {
            len: *len,
            reads: *reads,
            writes: *writes,
        };
        assert_eq!(shape, Some(want), "{text}");
        assert_eq!(node.service, ServiceKind::Vector(want), "{text}");
    }
}
