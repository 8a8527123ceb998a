//! Region replay: the hybrid world that swaps between pre-placed
//! schedules and the live event handlers.
//!
//! [`HybridWorld`] wraps the real [`Machine`] and intercepts `Advance`
//! events. When a core is quiescent at one (empty ROB, dispatch not
//! throttled) and its program counter starts a compilable window, the
//! region's slots take over: every event the reference engine would have
//! executed for that core becomes one [`MachineEvent::Slot`] at the same
//! `(time, seq)` position, applying the recorded deltas instead of
//! re-deciding hazards and costs. Transfers, deposits, and everything on
//! non-replaying cores stay fully live. A slot firing with no replay
//! state behind it, or past its region's last slot, is a stale schedule —
//! a hard [`SimError::Internal`], never a silent no-op.

use std::rc::Rc;

use pimsim_event::{SimTime, World};

use super::region::{compile_region, window_end, CoreSnap, PassKind, Region, RegionKey, SlotKind};
use super::RegionMemo;
use crate::machine::rob::{Core, NO_CHANNEL};
use crate::machine::{Ctx, Delta, Machine, MachineEvent, SimError};
use crate::stats::ScheduleStats;

/// A region in progress on one core: where its schedule is anchored in
/// absolute time, sequence numbers, and program position.
struct Replay {
    region: Rc<Region>,
    /// Next slot to consume; slots fire in kernel order, so a plain
    /// cursor suffices.
    cursor: usize,
    t0: SimTime,
    base_seq: u64,
    entry_pc: u32,
}

/// The compiled engine's world: the live machine plus per-core replay
/// state and the region memo.
pub(crate) struct HybridWorld<'a> {
    machine: Machine<'a>,
    replays: Vec<Option<Replay>>,
    /// `None` memoizes a failed compile so the site falls back natively
    /// without re-running the scratch every entry. Checked out of a
    /// [`ScheduleCache`](super::ScheduleCache) when the run has one, so
    /// reuse can span runs.
    memo: RegionMemo,
    schedule: ScheduleStats,
}

/// Rebases a scratch-relative event onto the live timeline.
fn real_event(core: usize, ev: PassKind, base_seq: u64) -> MachineEvent {
    match ev {
        PassKind::Advance => MachineEvent::Advance { core },
        PassKind::Complete { rel_seq } => MachineEvent::Complete {
            core,
            seq: base_seq + rel_seq,
        },
    }
}

/// Writes a scratch-relative core snapshot onto the live core, rebasing
/// pc, times, and sequence numbers. The ROB is rebuilt entry by entry
/// through [`Core::restore`] — the transitions live execution uses — so
/// hazard metadata, blocker counts and the ready set are re-derived, not
/// copied.
fn materialize(core: &mut Core, snap: &CoreSnap, t0: SimTime, base_seq: u64, entry_pc: u32) {
    core.pc = entry_pc + snap.pc;
    core.regs = snap.regs;
    core.halted = snap.halted;
    core.next_dispatch = t0 + snap.next_dispatch;
    core.advance_pending = snap.advance_pending;
    core.vector_busy = snap.vector_busy;
    core.busy_xbars.clone_from(&snap.busy_xbars);
    core.reset_rob(base_seq + snap.seq_next - snap.rob.len() as u64);
    for e in &snap.rob {
        // A window holds no transfer, so no entry has a channel.
        let issue_at = t0 + e.issue_at;
        let seq = core.restore(e.tag, e.class, e.res, NO_CHANNEL, e.state, issue_at);
        debug_assert_eq!(seq, base_seq + e.rel_seq);
    }
}

impl<'a> HybridWorld<'a> {
    pub(crate) fn new(mut machine: Machine<'a>, memo: RegionMemo) -> HybridWorld<'a> {
        let n = machine.cores.len();
        machine.hybrid = true;
        HybridWorld {
            machine,
            replays: (0..n).map(|_| None).collect(),
            memo,
            schedule: ScheduleStats::default(),
        }
    }

    pub(crate) fn machine(&self) -> &Machine<'a> {
        &self.machine
    }

    pub(crate) fn into_parts(self) -> (Machine<'a>, ScheduleStats, RegionMemo) {
        (self.machine, self.schedule, self.memo)
    }

    /// Tries to start a compiled region at `core`'s current position.
    /// On success the triggering `Advance` becomes the region's first
    /// slot and `true` is returned; otherwise the caller handles the
    /// event natively.
    fn try_enter(&mut self, core: usize, ctx: &mut Ctx) -> bool {
        if self.machine.error.is_some() || self.machine.telemetry.trace_on {
            return false;
        }
        if let Some(rep) = &self.replays[core] {
            // A pacing slot can still be pending after the boundary with
            // the ROB already drained; entering a new region then would
            // misread that stale slot as the new region's first event.
            if rep.cursor < rep.region.slots.len() {
                return false;
            }
        }
        let now = ctx.now();
        if !self.machine.entry_ready(core, now) {
            return false;
        }
        let c = &self.machine.cores[core];
        debug_assert!(
            c.busy_xbars.iter().all(|w| *w == 0) && !c.vector_busy,
            "empty ROB, idle units"
        );
        let pc = c.pc as usize;
        let end = window_end(&c.instrs, pc);
        if end == pc {
            // The next instruction is itself a transfer/branch: stay live.
            return false;
        }
        let key = RegionKey::new(c, pc, end);
        let region = match self.memo.get(&key) {
            Some(hit) => {
                match hit {
                    Some(_) => self.schedule.regions_reused += 1,
                    None => self.schedule.regions_fallback += 1,
                }
                hit.clone()
            }
            None => {
                let compiled = compile_region(&self.machine, core, pc, end);
                match &compiled {
                    Some(_) => self.schedule.regions_compiled += 1,
                    None => self.schedule.regions_fallback += 1,
                }
                self.memo.insert(key, compiled.clone());
                compiled
            }
        };
        let Some(region) = region else { return false };
        let c = &self.machine.cores[core];
        self.replays[core] = Some(Replay {
            region,
            cursor: 0,
            t0: now,
            base_seq: c.seq_next(),
            entry_pc: c.pc,
        });
        self.replay_slot(core, ctx);
        true
    }

    /// Runs a dispatch that `complete` handed back (see
    /// [`Machine::deferred_advance`]): either a new region starts at the
    /// completion site, or the native `try_advance` runs exactly where
    /// the handler would have called it.
    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        if let Some(core) = self.machine.deferred_advance.take() {
            if self.try_enter(core, ctx) {
                // The entry fused into the already-dispatched completion
                // event: slot 0 replaced its dispatch tail, not a kernel
                // event of its own, so it is not a placed event.
                self.schedule.events_placed -= 1;
            } else {
                self.machine.try_advance(core, ctx);
            }
        }
    }

    /// Consumes the next slot of `core`'s active region.
    fn replay_slot(&mut self, core: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        let Some(rep) = self.replays[core].as_mut() else {
            let detail = format!("schedule slot fired for core{core} with no active replay");
            self.machine.fail(SimError::Internal { detail }, ctx);
            return;
        };
        if rep.cursor >= rep.region.slots.len() {
            let detail = format!(
                "stale schedule slot for core{core}: cursor {} past {} slots",
                rep.cursor,
                rep.region.slots.len()
            );
            self.machine.fail(SimError::Internal { detail }, ctx);
            return;
        }
        let region = Rc::clone(&rep.region);
        let (t0, base_seq, entry_pc) = (rep.t0, rep.base_seq, rep.entry_pc);
        let idx = rep.cursor;
        rep.cursor += 1;
        let last = rep.cursor == region.slots.len();
        let slot = &region.slots[idx];
        debug_assert_eq!(now, t0 + slot.rel_time, "slot fired off its placement");
        match &slot.kind {
            SlotKind::Placed {
                deltas,
                stats,
                schedules,
            } => {
                self.schedule.events_placed += 1;
                self.machine.finish_time = self.machine.finish_time.max(now);
                for d in deltas {
                    if let Delta::Payload(res) = d {
                        if self.machine.functional {
                            self.machine.execute_functional(core, res);
                        }
                    } else {
                        self.machine.telemetry.apply(d);
                    }
                }
                let s = &mut self.machine.cores[core].stats;
                s.dispatched += stats.dispatched;
                s.matrix_busy += stats.matrix_busy;
                s.vector_busy += stats.vector_busy;
                s.transfer_busy += stats.transfer_busy;
                for rel in schedules {
                    ctx.schedule_at(t0 + *rel, MachineEvent::Slot { core });
                }
                if last {
                    if let Some(snap) = &region.terminal {
                        materialize(&mut self.machine.cores[core], snap, t0, base_seq, entry_pc);
                    }
                }
            }
            SlotKind::Boundary { snap, ev } => {
                self.schedule.events_dispatched += 1;
                materialize(&mut self.machine.cores[core], snap, t0, base_seq, entry_pc);
                self.machine.handle(real_event(core, *ev, base_seq), ctx);
                self.drain_deferred(ctx);
            }
            SlotKind::Pass { ev } => {
                self.schedule.events_dispatched += 1;
                self.machine.handle(real_event(core, *ev, base_seq), ctx);
                self.drain_deferred(ctx);
            }
        }
    }
}

impl World for HybridWorld<'_> {
    type Event = MachineEvent;

    fn handle(&mut self, ev: MachineEvent, ctx: &mut Ctx) {
        match ev {
            MachineEvent::Slot { core } => self.replay_slot(core, ctx),
            MachineEvent::Advance { core } => {
                self.machine.cores[core].advance_pending = false;
                if !self.try_enter(core, ctx) {
                    self.schedule.events_dispatched += 1;
                    self.machine.try_advance(core, ctx);
                }
            }
            other => {
                self.schedule.events_dispatched += 1;
                self.machine.handle(other, ctx);
                self.drain_deferred(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Stale-schedule paths must be hard errors, never silent no-ops:
    //! a `Slot` event desynchronized from its replay state means the
    //! compiled timeline and the machine have diverged.

    use super::*;
    use crate::machine::Simulator;
    use pimsim_arch::ArchConfig;
    use pimsim_event::Kernel;
    use pimsim_isa::asm;

    fn machine_for<'a>(arch: &'a ArchConfig, program: &pimsim_isa::Program) -> Machine<'a> {
        Simulator::new(arch).build_machine(program, arch.sim.functional)
    }

    fn one_core_program() -> pimsim_isa::Program {
        asm::assemble(".core 0\nvfill [r0+0], 1, 4\nhalt\n").expect("assembles")
    }

    fn expect_internal(err: Option<SimError>, needle: &str) {
        match err {
            Some(SimError::Internal { detail }) => {
                assert!(detail.contains(needle), "unexpected detail: {detail}")
            }
            other => panic!("expected Internal containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn slot_reaching_the_event_engine_is_an_internal_error() {
        let arch = ArchConfig::small_test();
        let program = one_core_program();
        let mut kernel = Kernel::new(machine_for(&arch, &program));
        kernel.schedule_at(SimTime::ZERO, MachineEvent::Slot { core: 0 });
        kernel.run();
        expect_internal(
            kernel.into_world().error,
            "schedule slot for core0 reached the event engine",
        );
    }

    #[test]
    fn slot_with_no_active_replay_is_an_internal_error() {
        let arch = ArchConfig::small_test();
        let program = one_core_program();
        let mut kernel = Kernel::new(HybridWorld::new(
            machine_for(&arch, &program),
            RegionMemo::new(),
        ));
        kernel.schedule_at(SimTime::ZERO, MachineEvent::Slot { core: 0 });
        kernel.run();
        let (machine, _, _) = kernel.into_world().into_parts();
        expect_internal(machine.error, "no active replay");
    }

    #[test]
    fn slot_past_the_last_region_slot_is_an_internal_error() {
        let arch = ArchConfig::small_test();
        let program = one_core_program();
        let mut world = HybridWorld::new(machine_for(&arch, &program), RegionMemo::new());
        // An exhausted replay left behind: its region has no slots, so any
        // further slot for this core is stale by construction.
        world.replays[0] = Some(Replay {
            region: Rc::new(Region {
                slots: Vec::new(),
                terminal: None,
            }),
            cursor: 0,
            t0: SimTime::ZERO,
            base_seq: 0,
            entry_pc: 0,
        });
        let mut kernel = Kernel::new(world);
        kernel.schedule_at(SimTime::ZERO, MachineEvent::Slot { core: 0 });
        kernel.run();
        let (machine, _, _) = kernel.into_world().into_parts();
        expect_internal(machine.error, "stale schedule slot for core0");
    }
}
