//! Differential property test for the static analyzer: random multi-core
//! send/recv programs are generated from a global transfer order and then
//! perturbed (instruction swaps, payload-length edits; see
//! `support/transfer_programs.rs`). Whenever
//! `pimsim::analyze` certifies a program clean, the simulator must run it
//! to completion — no `Deadlock`, no `TagMismatch`. The perturbations
//! produce plenty of genuinely broken programs; those must be rejected
//! *statically* so the clean-implies-runs direction actually gets
//! exercised from both sides of the boundary.

use pimsim::analyze::dag::Dag;
use pimsim::analyze::{analyze, Cfg};
use pimsim::isa::asm;
use pimsim::prelude::*;
use pimsim::sim::SimError;
use proptest::prelude::*;

#[path = "support/transfer_programs.rs"]
mod transfer_programs;

use transfer_programs::{build_program, tweak_strategy, xfer_strategy, CORES};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 64,
    })]

    #[test]
    fn analyzer_clean_programs_never_deadlock(
        xfers in proptest::collection::vec(xfer_strategy(), 1..12),
        tweaks in proptest::collection::vec(tweak_strategy(), 0..5),
    ) {
        let arch = ArchConfig::small_test();
        let text = build_program(&xfers, &tweaks, None, false);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        let analysis = analyze(&program, &arch);
        // The analyzer is deterministic.
        prop_assert_eq!(
            analysis.to_json().to_string(),
            analyze(&program, &arch).to_json().to_string()
        );
        if analysis.has_errors() {
            return Ok(()); // statically rejected; nothing to certify
        }
        // A clean verdict also promises a complete rendezvous map.
        prop_assert!(
            analysis.rendezvous.complete,
            "no errors but incomplete rendezvous map:\n{text}"
        );
        match Simulator::new(&arch).run(&program) {
            Ok(_) => {}
            Err(e @ (SimError::Deadlock { .. } | SimError::TagMismatch { .. })) => {
                return Err(TestCaseError::fail(format!(
                    "analyzer certified a program the machine could not run: {e}\n{text}"
                )));
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected non-rendezvous failure: {e}\n{text}"
                )));
            }
        }
    }

    /// Soundness of the static performance bound on random clean
    /// programs: the bound never exceeds the simulated latency, and
    /// `bounds` itself is deterministic.
    #[test]
    fn static_bound_never_exceeds_simulated_latency(
        xfers in proptest::collection::vec(xfer_strategy(), 1..10),
        tweaks in proptest::collection::vec(tweak_strategy(), 0..4),
    ) {
        use pimsim::prelude::bounds;

        let arch = ArchConfig::small_test();
        let text = build_program(&xfers, &tweaks, None, false);
        let program = asm::assemble(&text).expect("generated assembly is well-formed");
        if analyze(&program, &arch).has_errors() {
            // Rejected programs get the trivial zero bound; nothing to
            // compare against a run that would fail anyway.
            let r = bounds(&program, &arch);
            prop_assert_eq!(r.latency_lb_ps, 0);
            prop_assert_eq!(r.bound_source, "unanalyzable");
            return Ok(());
        }
        let report = bounds(&program, &arch);
        prop_assert!(report.complete, "clean program must analyze fully:\n{text}");
        prop_assert_eq!(
            report.to_json(),
            bounds(&program, &arch).to_json(),
            "bound must be deterministic"
        );
        let sim = Simulator::new(&arch)
            .run(&program)
            .map_err(|e| TestCaseError::fail(format!(
                "clean program failed to run: {e}\n{text}"
            )))?;
        prop_assert!(
            report.latency_lb_ps <= sim.latency.as_ps(),
            "bound {} ps exceeds simulated {} ps\n{}",
            report.latency_lb_ps, sim.latency.as_ps(), text
        );
    }

    /// `Dag::build` pairs each recv with the next unpaired send on its
    /// FIFO channel. On every program the analyzer passes, those are
    /// exactly the pairs of its rendezvous map; a core that loops has no
    /// linear trace, so a recv on one of its channels has no send.
    #[test]
    fn dag_fifo_pairing_is_the_rendezvous_map(
        xfers in proptest::collection::vec(xfer_strategy(), 1..12),
        tweaks in proptest::collection::vec(tweak_strategy(), 0..5),
        looped in prop_oneof![1 => Just(None), 1 => (0..CORES).prop_map(Some)],
    ) {
        let arch = ArchConfig::small_test();
        let text = build_program(&xfers, &tweaks, looped, false);
        let program = asm::assemble(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let analysis = analyze(&program, &arch);
        if analysis.has_errors() {
            return Ok(()); // `bound` builds no DAG for these
        }
        let traces: Vec<_> = (program.cores.iter())
            .map(|c| Cfg::build(&c.instrs).linear_trace())
            .collect();
        let dag = Dag::build(&program, &traces);
        let mut paired = Vec::new();
        for recv in &dag.nodes {
            let Some(send) = recv.paired_send else { continue };
            let send = &dag.nodes[send as usize];
            paired.push((send.core, send.pc, recv.core, recv.pc));
            let linear = |core: u16| looped != Some(core as usize);
            prop_assert!(
                recv.channel.is_some_and(|(s, r, _)| linear(s) && linear(r)),
                "pc {} of core{} paired across a looping core\n{}", recv.pc, recv.core, text
            );
        }
        paired.sort_unstable();
        let pairs = analysis.rendezvous.pairs.iter();
        let expected: Vec<_> = pairs.map(|p| (p.sender, p.send_pc, p.receiver, p.recv_pc)).collect();
        prop_assert_eq!(paired, expected, "{}", text);
    }
}
