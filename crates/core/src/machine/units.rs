//! The matrix and vector execution units: issue selection, unit
//! occupancy, timed completion, and functional payload execution.
//!
//! Issue repeatedly asks the ROB for the oldest ready entry whose unit is
//! free ([`super::rob::Core::next_issuable`]), marks it `Executing`, and
//! books the unit: the vector unit is single-occupancy,
//! the matrix unit accepts any number of concurrent `MVM`s with disjoint
//! crossbar sets, and transfers are handed to [`super::transfer`]. Costs
//! come from the shared [`CostModel`](pimsim_arch::model::CostModel)
//! tables, vector work classified by the ISA's
//! [`Resolved::vector_shape`] — the same prices the static bound
//! analyzer uses.

use pimsim_event::SimTime;
use pimsim_isa::{InstrClass, Resolved};

use super::rob::Issued;
use super::{Ctx, Machine, MachineEvent};
use crate::exec::execute_local;
use crate::machine::error::SimError;

impl Machine<'_> {
    /// Issues every ROB entry that can start right now.
    pub(crate) fn try_issue(&mut self, c: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        while self.error.is_none() {
            let candidate = self.cores[c].next_issuable(self.cfg.sim.structure_hazard);
            let Some(seq) = candidate else { return };
            self.start(c, seq, now, ctx);
        }
    }

    /// Moves entry `seq` to `Executing` and books its execution unit.
    fn start(&mut self, c: usize, seq: u64, now: SimTime, ctx: &mut Ctx) {
        let Some(issued) = self.cores[c].begin(seq, now) else {
            let detail = format!("issue on core{c} found no ready ROB entry for seq {seq}");
            self.fail(SimError::Internal { detail }, ctx);
            return;
        };
        let Issued { res, tag, .. } = issued;
        match issued.class {
            InstrClass::Vector => {
                let Some(shape) = res.vector_shape() else {
                    unreachable!("vector class mismatch: {res:?}")
                };
                let cost = self.model.vector_cost(shape.len, shape.reads, shape.writes);
                self.cores[c].vector_busy = true;
                self.telemetry.energy.vector += cost.energy;
                self.telemetry.node(tag).energy += cost.energy;
                let end = now + cost.time;
                ctx.schedule_at(end, MachineEvent::complete(c, seq));
            }
            InstrClass::Matrix => {
                let Resolved::Mvm { group, .. } = res else {
                    unreachable!("matrix class mismatch")
                };
                let cost = self.cores[c].mvm_cost(group);
                self.cores[c].book_xbars(group);
                self.telemetry.energy.matrix += cost.energy;
                self.telemetry.node(tag).energy += cost.energy;
                let end = now + cost.time;
                ctx.schedule_at(end, MachineEvent::complete(c, seq));
            }
            InstrClass::Transfer => {
                self.start_transfer(c, seq, issued, now, ctx);
            }
            InstrClass::Scalar => unreachable!(),
        }
    }

    /// A unit occupancy ended: release the unit, account busy time, run
    /// the functional payload, retire, and let the core continue.
    pub(crate) fn complete(&mut self, c: usize, seq: u64, ctx: &mut Ctx) {
        if self.error.is_some() {
            return;
        }
        let now = ctx.now();
        self.finish_time = self.finish_time.max(now);
        let (class, res, tag, span, pc) = {
            let Some(e) = self.cores[c].mark_done(seq) else {
                // A completion whose ROB entry vanished is an invariant
                // break (entries leave the ROB only through in-order
                // retirement after completing); silently dropping it used
                // to leave the unit booked forever.
                let detail = format!(
                    "unit completion on core{c} found no executing ROB entry for seq {seq}"
                );
                self.fail(SimError::Internal { detail }, ctx);
                return;
            };
            let span = now.saturating_sub(e.issue_at);
            (e.class, e.res, e.tag, span, e.pc)
        };
        self.telemetry.record_trace(now, c as u16, pc);
        match class {
            InstrClass::Vector => {
                self.cores[c].vector_busy = false;
                self.cores[c].stats.vector_busy += span;
                self.telemetry.node(tag).vector_time += span;
                if self.functional {
                    self.execute_functional(c, &res);
                }
            }
            InstrClass::Matrix => {
                let Resolved::Mvm { group, .. } = res else {
                    unreachable!("matrix class mismatch")
                };
                self.cores[c].release_xbars(group);
                self.cores[c].stats.matrix_busy += span;
                self.telemetry.node(tag).matrix_time += span;
                if self.functional {
                    self.execute_functional(c, &res);
                }
            }
            InstrClass::Transfer => {
                // Only global-memory transfers complete through here.
                self.cores[c].stats.transfer_busy += span;
                self.telemetry.node(tag).comm_time += span;
                if self.functional {
                    match &res {
                        Resolved::GLoad { dst, gaddr, len } => {
                            let data: Vec<i32> =
                                (0..*len as u64).map(|i| self.gmem.get(gaddr + i)).collect();
                            self.cores[c].mem.write(*dst, &data);
                        }
                        Resolved::GStore { gaddr, src, len } => {
                            let data = self.cores[c].mem.read(*src, *len);
                            for (i, v) in data.into_iter().enumerate() {
                                self.gmem.set(gaddr + i as u64, v);
                            }
                        }
                        _ => {}
                    }
                }
            }
            InstrClass::Scalar => unreachable!(),
        }
        self.cores[c].retire();
        if self.eager_issue() {
            self.try_issue(c, ctx);
        }
        self.try_advance(c, ctx);
    }

    /// Runs a vector/matrix payload on the core's local memory with the
    /// golden-model integer semantics.
    fn execute_functional(&mut self, c: usize, res: &Resolved) {
        let core = &mut self.cores[c];
        execute_local(res, &mut core.mem, core.groups);
    }
}

#[cfg(test)]
#[path = "../../tests/support/mixed_programs.rs"]
mod mixed_programs;

#[cfg(test)]
#[path = "../../../../tests/support/transfer_programs.rs"]
mod transfer_programs;

#[cfg(test)]
mod tests {
    use pimsim_arch::ArchConfig;
    use pimsim_isa::{asm, IsaError, Program};
    use proptest::prelude::*;

    use super::mixed_programs::random_program;
    use super::transfer_programs::{build_program, tweak_strategy, xfer_strategy};
    use crate::Simulator;

    /// ROB 1/2/4/8/64 x structure hazard on/off x 1/2 virtual channels,
    /// every run traced.
    fn grid() -> impl Iterator<Item = ArchConfig> {
        let knobs = [1, 2, 4, 8, 64]
            .into_iter()
            .flat_map(|rob| [true, false].map(|hazard| (rob, hazard)))
            .flat_map(|(rob, hazard)| [1, 2].map(|vcs| (rob, hazard, vcs)));
        knobs.map(|(rob, hazard, vcs)| {
            let mut arch = ArchConfig::small_test()
                .with_rob(rob)
                .with_virtual_channels(vcs);
            arch.sim.structure_hazard = hazard;
            arch.sim.trace = true;
            arch
        })
    }

    /// Runs `program` under the machine's cadence (one issue pass per
    /// wake-up) and under the eager one (an issue pass after every admit
    /// and at every completion); the two reports must be equal to the
    /// byte. Returns whether the run completed.
    fn same_report(arch: &ArchConfig, program: &Program, what: &str) -> bool {
        let sim = Simulator::new(arch);
        let once = format!("{:?}", sim.run(program));
        let mut machine = sim.build_machine(program);
        machine.eager_issue = true;
        let eager = format!("{:?}", sim.execute(machine));
        let knobs = (arch.resources.rob_size, arch.sim.structure_hazard);
        assert!(once == eager, "{what} {knobs:?}: {once}\nvs eager\n{eager}");
        once.starts_with("Ok")
    }

    #[test]
    fn one_issue_pass_per_wake_up_matches_the_eager_cadence_on_mixed_programs(
    ) -> Result<(), IsaError> {
        let mut state = 0x5EED_CAFE_F00D_0002;
        let mut completed = 0;
        for case in 0..100 {
            let text = random_program(&mut state);
            let program = asm::assemble(&text)?;
            for arch in grid() {
                completed += same_report(&arch, &program, &format!("case {case}")) as u32;
            }
        }
        assert!(
            completed >= 1_000,
            "only {completed} of 2,000 runs completed"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 96,
            ..ProptestConfig::default()
        })]

        #[test]
        fn one_issue_pass_per_wake_up_matches_the_eager_cadence_on_transfers(
            xfers in proptest::collection::vec(xfer_strategy(), 1..24),
            tweaks in proptest::collection::vec(tweak_strategy(), 0..4),
            relay in any::<bool>(),
        ) {
            let text = build_program(&xfers, &tweaks, None, relay);
            let program = asm::assemble(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
            for arch in grid() {
                same_report(&arch, &program, &text);
            }
        }
    }
}
