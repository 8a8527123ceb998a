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
use pimsim_isa::{Footprint, InstrClass, Resolved};

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
                ctx.schedule_at(end, MachineEvent::Complete { core: c, seq });
            }
            InstrClass::Matrix => {
                let Resolved::Mvm { group, .. } = res else {
                    unreachable!("matrix class mismatch")
                };
                let (inp, outp, nx) = {
                    let g = &self.cores[c].groups[group.as_usize()];
                    (g.input_len, g.output_len, g.xbar_ids.len() as u32)
                };
                let cost = self.model.mvm_cost(inp, outp, nx);
                self.cores[c].book_xbars(group);
                self.telemetry.energy.matrix += cost.energy;
                self.telemetry.node(tag).energy += cost.energy;
                let end = now + cost.time;
                ctx.schedule_at(end, MachineEvent::Complete { core: c, seq });
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
        let (class, res, tag, span, pc, footprint) = {
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
            (e.class, e.res, e.tag, span, e.pc, e.footprint)
        };
        self.telemetry.record_trace(now, c as u16, pc);
        if self.functional && !self.payload_in_bounds(c, pc, &footprint, ctx) {
            return;
        }
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
        self.try_issue(c, ctx);
        self.try_advance(c, ctx);
    }

    /// Fails the run with a [`SimError::MemoryFault`] when a functional
    /// payload would touch memory past the configured local or global
    /// capacity; `true` when it stays inside. The functional memories grow
    /// to whatever address they are handed, so an access two billion
    /// elements out would allocate gigabytes instead of failing.
    fn payload_in_bounds(&mut self, c: usize, pc: u32, fp: &Footprint, ctx: &mut Ctx) -> bool {
        let r = &self.cfg.resources;
        let (local, global) = (r.local_mem_elems() as u64, r.global_mem_elems());
        let local = (fp.reads.iter().chain([&fp.write]))
            .map(|range| (range.start as u64, range.end as u64, local, "local"));
        let global = fp
            .gmem
            .map(|(start, end, _)| (start, end, global, "global"));
        let past =
            |&(start, end, capacity, _): &(u64, u64, u64, &str)| start < end && end > capacity;
        let Some((start, end, capacity, space)) = local.chain(global).find(past) else {
            return true;
        };
        let detail = format!(
            "pc {pc} accesses [{start}, {end}), outside the {capacity}-element {space} memory"
        );
        self.fail(
            SimError::MemoryFault {
                core: c as u16,
                detail,
            },
            ctx,
        );
        false
    }

    /// Runs a vector/matrix payload on the core's local memory with the
    /// golden-model integer semantics.
    fn execute_functional(&mut self, c: usize, res: &Resolved) {
        let core = &mut self.cores[c];
        execute_local(res, &mut core.mem, core.groups);
    }
}
