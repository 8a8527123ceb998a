//! Region compilation: run the real machine code on a single-core scratch
//! machine and record everything each event did.
//!
//! A *region* is a window of straight-line instructions on one core —
//! cut at the first transfer, branch, or jump — whose timing depends only
//! on the register file, the window itself, and per-run constants. To
//! compile one, we build a scratch [`Machine`] holding just that core
//! (program truncated to the window, program counter rebased to zero,
//! clock rebased to zero) and drive it with a real event kernel under a
//! [`RecordingWorld`] wrapper. Because the scratch runs the *same*
//! handler code as a live run, the recorded schedule cannot drift from
//! the event engine: per fired event we capture the telemetry mutations
//! (exact `f64` addends, in order — see [`Delta`]), the core-stats
//! delta, and the relative times of the events it scheduled.
//!
//! For a window truncated at a transfer, the scratch eventually
//! fetch-fails at the window end where the real machine would dispatch
//! the transfer. That event is the region *boundary*: we keep the
//! snapshot of the core taken just before it and stop. At replay the
//! boundary slot rebases that snapshot onto the live core and hands the
//! original event to the live handlers, which dispatch the transfer for
//! real. Events the scratch had scheduled but not yet fired at the
//! boundary become *pass-through* slots, delegated live in the kernel's
//! `(time, seq)` order — reconstructed here without kernel queue access
//! by replaying the push log through a min-heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use pimsim_event::{Kernel, RunResult, SimTime, World};
use pimsim_isa::{GroupConfig, InstrClass, Instruction};

use crate::exec::Memory;
use crate::machine::rob::{Core, State};
use crate::machine::transfer::TransferFabric;
use crate::machine::{Ctx, Delta, Machine, MachineEvent, Telemetry};
use crate::noc::{Noc, NocCosts};
use crate::resolve::Resolved;
use crate::stats::CoreStats;

/// First index at or after `pc` that ends a contention-free window: a
/// transfer (NoC / shared-memory traffic) or a branch/jump (which would
/// make the window position-dependent). Everything before it — scalar
/// arithmetic, vector/matrix work, `halt` — is region material.
pub(crate) fn window_end(instrs: &[Instruction], pc: usize) -> usize {
    let mut end = pc;
    while let Some(i) = instrs.get(end) {
        if i.class() == InstrClass::Transfer
            || matches!(i, Instruction::Branch { .. } | Instruction::Jump { .. })
        {
            break;
        }
        end += 1;
    }
    end
}

/// Memo key: everything a region's schedule can depend on that is not a
/// per-run constant (ROB size, dispatch pacing, the structure-hazard flag
/// and the timing model are fixed for a whole run and so stay out).
/// Mirrored cores — same window, registers and group shapes — share one
/// compiled region through this key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RegionKey {
    instrs: Vec<Instruction>,
    tags: Vec<u16>,
    regs: [i32; 32],
    /// `(id, input_len, output_len, xbar_ids)` per group — the fields the
    /// timing and hazard logic read (weights only matter functionally).
    groups: Vec<(u16, u32, u32, Vec<u32>)>,
    /// Whether the window ends at a transfer/branch (boundary region) or
    /// at program end (terminal region). Identical windows can differ.
    truncated: bool,
}

impl RegionKey {
    pub(crate) fn new(core: &Core, pc: usize, end: usize) -> RegionKey {
        RegionKey {
            instrs: core.instrs[pc..end].to_vec(),
            tags: (pc..end)
                .map(|i| core.tags.get(i).copied().unwrap_or(0))
                .collect(),
            regs: core.regs,
            groups: core
                .groups
                .iter()
                .map(|g| (g.id.0, g.input_len, g.output_len, g.xbar_ids.clone()))
                .collect(),
            truncated: end < core.instrs.len(),
        }
    }
}

/// One in-flight ROB entry, snapshotted in scratch-relative terms.
#[derive(Debug)]
pub(crate) struct EntrySnap {
    pub(crate) rel_seq: u64,
    pub(crate) res: Resolved,
    pub(crate) class: InstrClass,
    pub(crate) tag: u16,
    pub(crate) state: State,
    /// Scratch-relative issue time; meaningless while `Waiting`.
    pub(crate) issue_at: SimTime,
}

/// Full core state in scratch-relative terms (pc relative to the window
/// start, times relative to region entry, seqs relative to entry seq).
#[derive(Debug)]
pub(crate) struct CoreSnap {
    pub(crate) pc: u32,
    pub(crate) regs: [i32; 32],
    pub(crate) halted: bool,
    pub(crate) next_dispatch: SimTime,
    pub(crate) advance_pending: bool,
    pub(crate) vector_busy: bool,
    pub(crate) busy_xbars: Vec<u64>,
    pub(crate) seq_next: u64,
    pub(crate) rob: Vec<EntrySnap>,
}

fn snapshot(core: &Core) -> CoreSnap {
    CoreSnap {
        pc: core.pc,
        regs: core.regs,
        halted: core.halted,
        next_dispatch: core.next_dispatch,
        advance_pending: core.advance_pending,
        vector_busy: core.vector_busy,
        busy_xbars: core.busy_xbars.clone(),
        seq_next: core.seq_next(),
        rob: core
            .in_flight()
            .map(|e| EntrySnap {
                rel_seq: e.seq,
                res: e.res,
                class: e.class,
                tag: e.tag,
                state: e.state,
                issue_at: e.issue_at,
            })
            .collect(),
    }
}

/// The shape of a machine event inside a region, with seqs rebased.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PassKind {
    Advance,
    Complete { rel_seq: u64 },
}

fn pass_kind(ev: &MachineEvent) -> PassKind {
    match ev {
        MachineEvent::Advance { .. } => PassKind::Advance,
        MachineEvent::Complete { seq, .. } => PassKind::Complete { rel_seq: *seq },
        other => unreachable!("{other:?} cannot occur inside a compiled region"),
    }
}

/// What one pre-placed slot does when its kernel event fires.
#[derive(Debug)]
pub(crate) enum SlotKind {
    /// Replay a recorded event: apply its telemetry/stats deltas and
    /// re-schedule the events it scheduled (as further slots).
    Placed {
        deltas: Vec<Delta>,
        stats: CoreStats,
        schedules: Vec<SimTime>,
    },
    /// The region boundary: rebase the pre-event snapshot onto the live
    /// core, then hand the original event to the live handlers (which
    /// will dispatch the transfer the window was cut at).
    Boundary { snap: CoreSnap, ev: PassKind },
    /// An event scheduled before the boundary that fires after it:
    /// delegate to the live handlers against the materialized core.
    Pass { ev: PassKind },
}

/// One schedule slot: what to do at `rel_time` after region entry.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) rel_time: SimTime,
    pub(crate) kind: SlotKind,
}

/// A compiled region: the slot list in kernel firing order, plus — for
/// regions that run to program end — the final core state to materialize
/// after the last slot.
#[derive(Debug)]
pub(crate) struct Region {
    pub(crate) slots: Vec<Slot>,
    pub(crate) terminal: Option<CoreSnap>,
}

/// Everything one fired scratch event did.
#[derive(Debug)]
struct RecEvent {
    rel_time: SimTime,
    kind: PassKind,
    deltas: Vec<Delta>,
    stats: CoreStats,
    schedules: Vec<(SimTime, PassKind)>,
    /// Pre-event core snapshot, kept only for the boundary event.
    snap: Option<CoreSnap>,
}

/// Wraps the scratch machine and records what every event does.
struct RecordingWorld<'a> {
    machine: Machine<'a>,
    window_len: u32,
    truncated: bool,
    events: Vec<RecEvent>,
    boundary: Option<usize>,
}

impl World for RecordingWorld<'_> {
    type Event = MachineEvent;

    fn handle(&mut self, ev: MachineEvent, ctx: &mut Ctx) {
        debug_assert!(
            self.boundary.is_none(),
            "no events fire past the boundary stop"
        );
        let kind = pass_kind(&ev);
        let snap = snapshot(&self.machine.cores[0]);
        let before = self.machine.cores[0].stats;
        self.machine.handle(ev, ctx);
        let after = self.machine.cores[0].stats;
        let stats = CoreStats {
            dispatched: after.dispatched - before.dispatched,
            matrix_busy: after.matrix_busy - before.matrix_busy,
            vector_busy: after.vector_busy - before.vector_busy,
            transfer_busy: after.transfer_busy - before.transfer_busy,
        };
        let schedules = ctx
            .scheduled()
            .iter()
            .map(|(t, e)| (*t, pass_kind(e)))
            .collect();
        let deltas = self.machine.telemetry.take_recorded();
        let core = &self.machine.cores[0];
        // The frontend fetch-failed exactly at the window cut: the real
        // program has the transfer (or branch) here instead.
        let is_boundary = self.truncated && core.halted && core.pc == self.window_len;
        self.events.push(RecEvent {
            rel_time: ctx.now(),
            kind,
            deltas,
            stats,
            schedules,
            snap: is_boundary.then_some(snap),
        });
        if is_boundary {
            self.boundary = Some(self.events.len() - 1);
            ctx.stop();
        }
    }
}

/// Compiles the region `instrs[pc..end)` of `machine.cores[core]` by
/// recording a scratch run. Returns `None` when the scratch run errors —
/// the live engine then executes the site natively and reproduces the
/// error with its real context.
pub(crate) fn compile_region(
    machine: &Machine<'_>,
    core: usize,
    pc: usize,
    end: usize,
) -> Option<Rc<Region>> {
    let real = &machine.cores[core];
    let truncated = end < real.instrs.len();
    let window_len = (end - pc) as u32;
    // Weights only matter functionally; the scratch never runs payloads.
    let groups: Vec<GroupConfig> = real
        .groups
        .iter()
        .map(|g| GroupConfig {
            weights: None,
            ..g.clone()
        })
        .collect();
    let tags = (pc..end)
        .map(|i| real.tags.get(i).copied().unwrap_or(0))
        .collect();
    // Region entry requires next_dispatch <= now, and dispatch times clamp
    // to max(next_dispatch, now): relative to entry both are exactly zero.
    let mut scratch_core = Core::new(
        real.instrs[pc..end].to_vec(),
        groups,
        tags,
        Memory::default(),
        real.rob_size,
        SimTime::ZERO,
    );
    scratch_core.regs = real.regs;
    let mut telemetry = Telemetry::new(false);
    telemetry.recorder = Some(Vec::new());
    let mut cores = vec![scratch_core];
    // A window holds no transfer, so the scratch fabric has no channel.
    let fabric = TransferFabric::for_cores(&mut cores, machine.cfg.noc.virtual_channels);
    let scratch = Machine {
        cfg: machine.cfg,
        timing: machine.timing,
        cores,
        noc: Noc::for_arch(machine.cfg),
        costs: NocCosts::new(machine.cfg),
        gmem: Memory::default(),
        fabric,
        functional: false,
        dispatch_interval: machine.dispatch_interval,
        telemetry,
        error: None,
        finish_time: SimTime::ZERO,
        hybrid: false,
        deferred_advance: None,
    };
    let mut kernel = Kernel::new(RecordingWorld {
        machine: scratch,
        window_len,
        truncated,
        events: Vec::new(),
        boundary: None,
    });
    kernel.schedule_at(SimTime::ZERO, MachineEvent::Advance { core: 0 });
    // Run to exhaustion (or the boundary stop) with no horizon: a
    // horizon-truncated compile would poison the memo for later entries
    // that do have time left. Slots past the real horizon simply never
    // fire, exactly like the events they replace.
    let result = kernel.run();
    let mut rec = kernel.into_world();
    if rec.machine.error.is_some() {
        return None;
    }
    debug_assert!(matches!(result, RunResult::Exhausted | RunResult::Stopped));

    // Replay the push log through a min-heap to reconstruct the kernel's
    // (time, seq) firing order: whatever survives the fired prefix was
    // still queued at the boundary and becomes a pass-through slot.
    let boundary = rec.boundary;
    if boundary == Some(0) {
        // The entry event itself hit the boundary (e.g. a zero-interval
        // frontend ran the whole window in one event): nothing was
        // pre-placed, so the region is worthless — and entry sites assume
        // slot 0 is a placed slot. Fall back natively.
        return None;
    }
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut pushes: Vec<(PassKind, Option<usize>)> = vec![(PassKind::Advance, None)];
    heap.push(Reverse((SimTime::ZERO, 0)));
    for (i, ev) in rec.events.iter().enumerate() {
        let popped = heap.pop().expect("every fired event was pushed");
        debug_assert_eq!(popped.0 .0, ev.rel_time);
        for (at, k) in &ev.schedules {
            pushes.push((*k, Some(i)));
            heap.push(Reverse((*at, pushes.len() - 1)));
        }
    }

    let mut slots: Vec<Slot> = Vec::with_capacity(rec.events.len() + heap.len());
    for (i, ev) in rec.events.drain(..).enumerate() {
        let kind = if boundary == Some(i) {
            // The boundary's own recorded effects are discarded: the live
            // handlers re-execute the event from the snapshot and
            // regenerate them (plus the transfer dispatch) identically.
            SlotKind::Boundary {
                snap: ev.snap.expect("boundary snapshot kept"),
                ev: ev.kind,
            }
        } else {
            SlotKind::Placed {
                deltas: ev.deltas,
                stats: ev.stats,
                schedules: ev.schedules.iter().map(|(t, _)| *t).collect(),
            }
        };
        slots.push(Slot {
            rel_time: ev.rel_time,
            kind,
        });
    }
    while let Some(Reverse((at, idx))) = heap.pop() {
        let (kind, scheduled_by) = pushes[idx];
        if scheduled_by == boundary {
            // Scheduled by the boundary event itself: discarded with the
            // rest of its effects, re-scheduled live.
            continue;
        }
        debug_assert!(boundary.is_some(), "an exhausted scratch leaves no residue");
        slots.push(Slot {
            rel_time: at,
            kind: SlotKind::Pass { ev: kind },
        });
    }

    let terminal = if boundary.is_none() {
        Some(snapshot(&rec.machine.cores[0]))
    } else {
        None
    };
    Some(Rc::new(Region { slots, terminal }))
}
